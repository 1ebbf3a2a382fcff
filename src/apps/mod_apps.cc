/**
 * @file
 * The two MOD applications, mod-hashmap and mod-vector, and the
 * mod-hashmap-broken test fixture (mod-hashmap over a ModHashmap
 * running the seeded broken commit; see its constructor).
 *
 * Both run the suite's standard micro-benchmark shape (a DRAM-heavy
 * op loop in the paper's Figure 6 proportions) against the MOD access
 * layer (src/mod): every update shadow-copies the affected nodes,
 * orders them with a single ofence, and commits with an 8-byte root
 * swap; a dfence is issued only at durability points, every
 * kDurabilityInterval operations. They are the counterpart of
 * `hashmap` (NVML undo logging) and the array workloads of the
 * log-based layers, built so the analyses can put MOD's epochs/tx and
 * write amplification next to Mnemosyne's and NVML's on like-for-like
 * workloads.
 *
 * Thread discipline: the key space (top 16 bits = tid) and the vector
 * spine (a contiguous slot region per tid) are partitioned so each
 * thread only ever supersedes its own nodes — the per-thread garbage
 * lanes then reclaim strictly behind the owning thread's dfence, and
 * per-thread byte counts are independent of interleaving.
 */

#include <algorithm>

#include "apps/apps.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "mod/mod_hashmap.hh"
#include "mod/mod_vector.hh"

namespace whisper::apps
{

using namespace core;
using pm::DataClass;
using pm::FenceKind;

namespace
{

/** Ops between durability points (dfence + garbage reclaim). */
constexpr std::uint64_t kDurabilityInterval = 16;

/** Chain buckets per thread partition (load factor well under 1). */
constexpr std::uint64_t kBucketsPerPartition = 16384;

/** Vector spine slots per thread region. */
constexpr std::uint64_t kSlotsPerThread = 256;

/** Table at pool offset 0; the MOD heap fills the rest of the pool. */
constexpr Addr kTableOff = 0;

/**
 * What the two MOD apps share around their structure @p Structure (a
 * table at kTableOff, the MOD heap behind it): format, attach and
 * mark-from-the-roots recovery, the layer's checks and scrub, and the
 * workload's DRAM padding and durability cadence. Each app keeps its
 * own run() script and workload ops.
 */
template <class Structure>
class ModApp : public WhisperApp
{
  public:
    AccessLayer layer() const override { return AccessLayer::LibMod; }

    void setup(Runtime &rt) override { format(rt.ctx(0)); }

    VerifyReport
    verify(Runtime &rt) override
    {
        VerifyReport rep = report();
        rep.check(heap_->magicIntact(rt.ctx(0)), "heap-magic",
                  "mod heap magic lost");
        std::string why;
        rep.check(structure_->check(rt.ctx(0), &why), "structure-intact",
                  why);
        return rep;
    }

    void
    recover(Runtime &rt) override
    {
        pm::PmContext &ctx = rt.ctx(0);
        heap_ = std::make_unique<mod::ModHeap>(
            heapBase_, config_.poolBytes - heapBase_, config_.threads);
        structure_ = build(nullptr);
        // Mark from the roots, then sweep: allocator occupancy becomes
        // exactly the reachable node set and the garbage lanes are
        // cleared (nothing on them can be reachable).
        std::vector<Addr> live;
        structure_->reachable(ctx, live);
        heap_->recover(ctx, live);
    }

    VerifyReport
    verifyRecovered(Runtime &rt) override
    {
        VerifyReport rep = report();
        std::string why;
        rep.check(structure_->check(rt.ctx(0), &why), "structure-intact",
                  why);
        return rep;
    }

    VerifyReport
    checkRecoveryInvariants(Runtime &rt) override
    {
        pm::PmContext &ctx = rt.ctx(0);
        VerifyReport rep = report();
        rep.check(heap_->magicIntact(ctx), "heap-magic",
                  "mod heap magic lost");
        std::string why;
        rep.check(heap_->gcQuiescent(ctx, &why), "gc-quiescent", why);
        // The MOD commit contract: every root names a fully-persisted,
        // still-allocated node — GC must never have reclaimed anything
        // a durable root can reach.
        std::vector<Addr> live;
        structure_->reachable(ctx, live);
        const std::string lost =
            std::string("reachable mod ") + unit_ + " not allocated";
        for (const Addr node : live) {
            if (!rep.check(heap_->isLiveNode(node), "roots-allocated",
                           lost))
                break;
        }
        return rep;
    }

    void
    workloadThreadDone(pm::PmContext &ctx, ThreadId tid) override
    {
        heap_->threadExit(ctx, tid);
    }

    VerifyReport workloadCheck(Runtime &rt) override { return verify(rt); }

    bool supportsLincheck() const override { return true; }

  protected:
    /** @p unit names one node of the structure in check messages. */
    ModApp(const AppConfig &config, const char *unit)
        : WhisperApp(config), unit_(unit)
    {
    }

    /**
     * A new structure over the table at kTableOff and heap_:
     * formatted through @p ctx, or attached (no writes) when @p ctx
     * is null.
     */
    virtual std::unique_ptr<Structure> build(pm::PmContext *ctx) = 0;

    /** Put the heap behind a table of @p table_bytes (@p what). */
    void
    place(std::size_t table_bytes, const char *what)
    {
        heapBase_ = lineBase(table_bytes + 2 * kCacheLineSize);
        panic_if(heapBase_ >= config_.poolBytes,
                 "%s: pool too small for %s", name().c_str(), what);
    }

    /** Format the heap, then the structure. */
    void
    format(pm::PmContext &ctx)
    {
        heap_ = std::make_unique<mod::ModHeap>(
            ctx, heapBase_, config_.poolBytes - heapBase_,
            config_.threads);
        structure_ = build(&ctx);
    }

    /** Per-thread padding buffers and op counters for @p map. */
    void
    startWorkload(const WorkloadKeymap &map)
    {
        wlMap_ = map;
        scratch_.assign(config_.threads,
                        std::vector<std::uint64_t>(2048));
        wlOps_.assign(config_.threads, 0);
    }

    /** run()'s per-op DRAM padding (paper Fig. 6 proportions). */
    void
    pad(pm::PmContext &ctx, ThreadId tid)
    {
        ctx.vBurst(scratch_[tid].data(), 1 << 14, 560, 240);
        ctx.compute(6500);
    }

    /** A durability point every kDurabilityInterval workload ops. */
    void
    opDone(pm::PmContext &ctx, ThreadId tid)
    {
        if (++wlOps_[tid] % kDurabilityInterval == 0)
            heap_->durabilityPoint(ctx, tid);
    }

    void
    scrubLayer(Runtime &rt, std::vector<LineAddr> &lines,
               VerifyReport &rep) override
    {
        pm::PmContext &ctx = rt.ctx(0);
        // Structure first (root table repair + chain truncation needs
        // to see which node lines were hit), then the heap claims the
        // remaining arena/lane lines.
        structure_->scrub(ctx, lines, rep);
        heap_->scrub(ctx, lines);
    }

    std::unique_ptr<mod::ModHeap> heap_;
    std::unique_ptr<Structure> structure_;
    WorkloadKeymap wlMap_;

  private:
    const char *unit_;
    Addr heapBase_ = 0;
    std::vector<std::vector<std::uint64_t>> scratch_;
    std::vector<std::uint64_t> wlOps_;
};

/**
 * mod-hashmap, and with @p broken_commit the `mod-hashmap-broken`
 * fixture: the same app over a ModHashmap running the seeded broken
 * commit.
 */
class ModHashmapApp : public ModApp<mod::ModHashmap>
{
  public:
    ModHashmapApp(const AppConfig &config, bool broken_commit)
        : ModApp(config, "node"), brokenCommit_(broken_commit)
    {
        buckets_ = kBucketsPerPartition * config_.threads;
        place(mod::ModHashmap::tableBytes(buckets_), "bucket table");
    }

    std::string
    name() const override
    {
        return brokenCommit_ ? "mod-hashmap-broken" : "mod-hashmap";
    }

    void
    run(Runtime &rt, pm::PmContext &ctx, ThreadId tid) override
    {
        (void)rt;
        Rng rng(config_.seed * 353 + tid);
        // Small enough that keys repeat: a healthy share of the puts
        // are updates, i.e. real shadow path copies.
        const std::uint64_t keyspace = config_.opsPerThread + 64;
        std::vector<std::uint64_t> inserted;
        inserted.reserve(config_.opsPerThread);

        for (std::uint64_t op = 0; op < config_.opsPerThread; op++) {
            // Paper Fig. 6 proportions: the op is mostly DRAM work.
            ctx.vBurst(inserted.data(), 1 << 14, 560, 240);
            ctx.compute(6500);

            if (!inserted.empty() && rng.chance(0.1)) {
                const std::size_t idx = rng.next(inserted.size());
                structure_->remove(ctx, tid, inserted[idx]);
                inserted[idx] = inserted.back();
                inserted.pop_back();
                ctx.vStore(inserted.data() + idx, 8);
            } else {
                const std::uint64_t key =
                    (static_cast<std::uint64_t>(tid) << 48) |
                    rng.next(keyspace);
                std::uint64_t vals[mod::ModHashmap::kValWords] = {
                    rng(), rng(), rng()};
                bool was_insert = false;
                if (structure_->put(ctx, tid, key, vals, was_insert) &&
                    was_insert) {
                    inserted.push_back(key);
                    ctx.vStore(&inserted.back(), 8);
                }
            }
            if ((op + 1) % kDurabilityInterval == 0)
                heap_->durabilityPoint(ctx, tid);
        }
        heap_->threadExit(ctx, tid);
    }

    /** @{ \name Generated-workload surface
     *
     * The MOD key convention carries over unchanged: thread @p tid
     * owns every key whose top 16 bits equal tid, so the striped
     * writer locks and per-thread garbage lanes see exactly the
     * partitioned traffic run() produces. Durability points keep the
     * run() cadence (every kDurabilityInterval ops).
     */

    void
    workloadSetup(Runtime &rt, const WorkloadKeymap &map) override
    {
        // One chain bucket per potential key keeps lookups O(1) even
        // at millions of keys (partition size must be a power of 2).
        std::uint64_t per = kBucketsPerPartition;
        while (per < map.slotsPerThread())
            per <<= 1;
        buckets_ = per * config_.threads;
        place(mod::ModHashmap::tableBytes(buckets_), "workload table");
        format(rt.ctx(0));
        startWorkload(map);
        for (unsigned t = 0; t < map.threads; t++) {
            pm::PmContext &ctx = rt.ctx(t);
            const ThreadId tid = static_cast<ThreadId>(t);
            for (std::uint64_t i = 0; i < map.perThread(); i++) {
                const std::uint64_t key = map.lo(tid) + i;
                std::uint64_t vals[mod::ModHashmap::kValWords] = {
                    key * 0x9e3779b97f4a7c15ull, key, tid};
                bool inserted = false;
                panic_if(!structure_->put(ctx, tid, modKey(tid, key),
                                          vals, inserted),
                         "mod-hashmap: heap exhausted during preload");
                if ((i + 1) % kDurabilityInterval == 0)
                    heap_->durabilityPoint(ctx, tid);
            }
            heap_->durabilityPoint(ctx, tid);
        }
    }

    bool
    workloadGet(pm::PmContext &ctx, ThreadId tid,
                std::uint64_t key) override
    {
        pad(ctx, tid);
        std::uint64_t vals[mod::ModHashmap::kValWords];
        const bool found =
            structure_->lookup(ctx, modKey(tid, key), vals);
        opDone(ctx, tid);
        return found;
    }

    void
    workloadPut(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t value) override
    {
        pad(ctx, tid);
        std::uint64_t vals[mod::ModHashmap::kValWords] = {value, key,
                                                          tid};
        bool inserted = false;
        panic_if(!structure_->put(ctx, tid, modKey(tid, key), vals,
                                  inserted),
                 "mod-hashmap: heap exhausted");
        opDone(ctx, tid);
    }

    bool
    workloadRmw(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t delta) override
    {
        pad(ctx, tid);
        std::uint64_t vals[mod::ModHashmap::kValWords] = {0, key, tid};
        const bool found =
            structure_->lookup(ctx, modKey(tid, key), vals);
        vals[0] += delta;
        bool inserted = false;
        panic_if(!structure_->put(ctx, tid, modKey(tid, key), vals,
                                  inserted),
                 "mod-hashmap: heap exhausted");
        opDone(ctx, tid);
        return found;
    }

    std::uint64_t
    workloadScan(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                 std::uint64_t len) override
    {
        pad(ctx, tid);
        std::uint64_t found = 0;
        std::uint64_t vals[mod::ModHashmap::kValWords];
        for (std::uint64_t j = 0; j < len; j++) {
            const std::uint64_t k = wlMap_.scanKey(tid, key, j);
            if (structure_->lookup(ctx, modKey(tid, k), vals))
                found++;
        }
        opDone(ctx, tid);
        return found;
    }

    bool
    workloadProbe(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                  std::uint64_t &value) override
    {
        std::uint64_t vals[mod::ModHashmap::kValWords];
        if (!structure_->lookup(ctx, modKey(tid, key), vals))
            return false;
        value = vals[0];
        return true;
    }

    bool workloadHasRemove() const override { return true; }

    bool
    workloadRemove(pm::PmContext &ctx, ThreadId tid,
                   std::uint64_t key) override
    {
        pad(ctx, tid);
        const bool found =
            structure_->remove(ctx, tid, modKey(tid, key));
        opDone(ctx, tid);
        return found;
    }

    /** @} */

  protected:
    std::unique_ptr<mod::ModHashmap>
    build(pm::PmContext *ctx) override
    {
        if (ctx)
            return std::make_unique<mod::ModHashmap>(
                *ctx, *heap_, kTableOff, buckets_, config_.threads,
                brokenCommit_);
        return std::make_unique<mod::ModHashmap>(
            *heap_, kTableOff, buckets_, config_.threads, brokenCommit_);
    }

  private:
    static std::uint64_t
    modKey(ThreadId tid, std::uint64_t key)
    {
        return (static_cast<std::uint64_t>(tid) << 48) | key;
    }

    const bool brokenCommit_;
    std::uint64_t buckets_ = 0;
};

class ModVectorApp : public ModApp<mod::ModVector>
{
  public:
    explicit ModVectorApp(const AppConfig &config)
        : ModApp(config, "chunk")
    {
        slots_ = kSlotsPerThread * config_.threads;
        place(mod::ModVector::tableBytes(slots_), "spine table");
    }

    std::string name() const override { return "mod-vector"; }

    void
    run(Runtime &rt, pm::PmContext &ctx, ThreadId tid) override
    {
        (void)rt;
        Rng rng(config_.seed * 419 + tid);
        std::vector<std::uint64_t> scratch(2048);

        for (std::uint64_t op = 0; op < config_.opsPerThread; op++) {
            ctx.vBurst(scratch.data(), 1 << 14, 560, 240);
            ctx.compute(6500);

            // One MOD update in the thread's spine region: five fresh
            // elements at a random offset, the rest carried over by
            // the shadow copy.
            const std::uint64_t slot =
                tid * kSlotsPerThread + rng.next(kSlotsPerThread);
            const std::uint64_t first = rng.next(4);
            std::uint64_t vals[5] = {rng(), rng(), rng(), rng(),
                                     rng()};
            structure_->write(ctx, tid, slot, first, vals, 5,
                              mod::ModVector::kElems);
            ctx.vStore(scratch.data() + (slot % scratch.size()), 8);

            if ((op + 1) % kDurabilityInterval == 0)
                heap_->durabilityPoint(ctx, tid);
        }
        heap_->threadExit(ctx, tid);
    }

    /** @{ \name Generated-workload surface
     *
     * The vector is presented as a dense KV array: thread @p tid's
     * key with local index l lives in chunk tid*slotsPT + l/kElems at
     * element l%kElems — each thread owns a contiguous spine region
     * exactly as in run(), so shadow copies and garbage lanes stay
     * per-thread. Every key maps to a distinct element (no aliasing);
     * preloading fills whole chunks, one shadow write per chunk.
     */

    void
    workloadSetup(Runtime &rt, const WorkloadKeymap &map) override
    {
        slotsPT_ = (map.slotsPerThread() + mod::ModVector::kElems - 1) /
                   mod::ModVector::kElems;
        slotsPT_ = std::max<std::uint64_t>(slotsPT_, 1);
        // Round each thread's chunk region up to a whole writer
        // stripe. The stripe mutex is held across gated PM ops, so
        // two threads sharing a stripe deadlock under a SchedGate
        // schedule (owner blocked on the mutex, holder waiting for
        // its turn) — run() keeps the same invariant by making
        // kSlotsPerThread a stripe multiple.
        slotsPT_ = (slotsPT_ + mod::ModVector::kSlotsPerStripe - 1) /
                   mod::ModVector::kSlotsPerStripe *
                   mod::ModVector::kSlotsPerStripe;
        slots_ = slotsPT_ * config_.threads;
        place(mod::ModVector::tableBytes(slots_), "workload spine");
        format(rt.ctx(0));
        startWorkload(map);
        for (unsigned t = 0; t < map.threads; t++) {
            pm::PmContext &ctx = rt.ctx(t);
            const ThreadId tid = static_cast<ThreadId>(t);
            std::uint64_t written = 0;
            std::uint64_t chunk = 0;
            while (written < map.perThread()) {
                const std::uint64_t k = std::min<std::uint64_t>(
                    mod::ModVector::kElems, map.perThread() - written);
                std::uint64_t vals[mod::ModVector::kElems];
                for (std::uint64_t e = 0; e < k; e++)
                    vals[e] = (map.lo(tid) + written + e) *
                              0x9e3779b97f4a7c15ull;
                panic_if(!structure_->write(ctx, tid,
                                            tid * slotsPT_ + chunk, 0,
                                            vals, k, k),
                         "mod-vector: heap exhausted during preload");
                written += k;
                chunk++;
                if (chunk % kDurabilityInterval == 0)
                    heap_->durabilityPoint(ctx, tid);
            }
            heap_->durabilityPoint(ctx, tid);
        }
    }

    bool
    workloadGet(pm::PmContext &ctx, ThreadId tid,
                std::uint64_t key) override
    {
        pad(ctx, tid);
        std::uint64_t out = 0;
        const bool found = structure_->get(ctx, slotOf(tid, key),
                                           idxOf(tid, key), out);
        opDone(ctx, tid);
        return found;
    }

    void
    workloadPut(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t value) override
    {
        pad(ctx, tid);
        writeElem(ctx, tid, key, value);
        opDone(ctx, tid);
    }

    bool
    workloadRmw(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t delta) override
    {
        pad(ctx, tid);
        std::uint64_t out = 0;
        const bool found = structure_->get(ctx, slotOf(tid, key),
                                           idxOf(tid, key), out);
        writeElem(ctx, tid, key, out + delta);
        opDone(ctx, tid);
        return found;
    }

    std::uint64_t
    workloadScan(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                 std::uint64_t len) override
    {
        pad(ctx, tid);
        std::uint64_t found = 0;
        std::uint64_t out = 0;
        for (std::uint64_t j = 0; j < len; j++) {
            const std::uint64_t k = wlMap_.scanKey(tid, key, j);
            if (structure_->get(ctx, slotOf(tid, k), idxOf(tid, k),
                                out))
                found++;
        }
        opDone(ctx, tid);
        return found;
    }

    bool
    workloadProbe(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                  std::uint64_t &value) override
    {
        std::uint64_t out = 0;
        if (!structure_->get(ctx, slotOf(tid, key), idxOf(tid, key),
                             out))
            return false;
        value = out;
        return true;
    }

    // No workloadRemove: a MOD vector has no deletion; the history
    // workloads fold tombstone traffic into puts for this app.

    /** @} */

  protected:
    std::unique_ptr<mod::ModVector>
    build(pm::PmContext *ctx) override
    {
        if (ctx)
            return std::make_unique<mod::ModVector>(*ctx, *heap_,
                                                    kTableOff, slots_);
        return std::make_unique<mod::ModVector>(*heap_, kTableOff,
                                                slots_);
    }

  private:
    std::uint64_t
    slotOf(ThreadId tid, std::uint64_t key) const
    {
        return tid * slotsPT_ +
               wlMap_.localIndex(tid, key) / mod::ModVector::kElems;
    }

    std::uint64_t
    idxOf(ThreadId tid, std::uint64_t key) const
    {
        return wlMap_.localIndex(tid, key) % mod::ModVector::kElems;
    }

    void
    writeElem(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
              std::uint64_t value)
    {
        const std::uint64_t slot = slotOf(tid, key);
        const std::uint64_t idx = idxOf(tid, key);
        const std::uint64_t count =
            std::max<std::uint64_t>(structure_->chunkCount(ctx, slot),
                                    idx + 1);
        panic_if(!structure_->write(ctx, tid, slot, idx, &value, 1,
                                    count),
                 "mod-vector: heap exhausted");
    }

    std::uint64_t slots_ = 0;
    std::uint64_t slotsPT_ = 0;
};

} // namespace

std::unique_ptr<core::WhisperApp>
makeModHashmapApp(const core::AppConfig &config)
{
    return std::make_unique<ModHashmapApp>(config, false);
}

std::unique_ptr<core::WhisperApp>
makeModHashmapBrokenApp(const core::AppConfig &config)
{
    return std::make_unique<ModHashmapApp>(config, true);
}

std::unique_ptr<core::WhisperApp>
makeModVectorApp(const core::AppConfig &config)
{
    return std::make_unique<ModVectorApp>(config);
}

} // namespace whisper::apps
