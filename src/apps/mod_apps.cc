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
 * PartitionedKvApp (partitioned_kv.hh) builds their workload surface
 * from each app's read/write (and mod-hashmap's erase) of one key;
 * mod-hashmap's run() is the hash-map script halo-hashmap shares, and
 * mod-vector keeps its own run() and chunk preload.
 *
 * Thread discipline: the key space (top 16 bits = tid) and the vector
 * spine (a contiguous slot region per tid) are partitioned so each
 * thread only ever supersedes its own nodes — the per-thread garbage
 * lanes then reclaim strictly behind the owning thread's dfence, and
 * per-thread byte counts are independent of interleaving.
 */

#include <algorithm>

#include "apps/apps.hh"
#include "apps/partitioned_kv.hh"
#include "common/logging.hh"
#include "mod/mod_hashmap.hh"
#include "mod/mod_vector.hh"

namespace whisper::apps
{

using namespace core;

namespace
{

/** Chain buckets per thread partition (load factor well under 1). */
constexpr std::uint64_t kBucketsPerPartition = 16384;

/** Vector spine slots per thread region. */
constexpr std::uint64_t kSlotsPerThread = 256;

/** Table at pool offset 0; the MOD heap fills the rest of the pool. */
constexpr Addr kTableOff = 0;

static_assert(mod::ModHashmap::kValWords == 3,
              "runHashmap() puts three value words");

/**
 * What the two MOD apps share around their structure @p Structure (a
 * table at kTableOff, the MOD heap behind it): format, attach and
 * mark-from-the-roots recovery, the layer's checks and scrub, and the
 * heap's durability point and thread exit under the partitioned KV
 * surface. Each app keeps its own run() script and store hooks.
 */
template <class Structure>
class ModApp : public PartitionedKvApp
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

  protected:
    /** @p unit names one node of the structure in check messages. */
    ModApp(const AppConfig &config, const char *unit)
        : PartitionedKvApp(config), unit_(unit)
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

    void
    durabilityPoint(pm::PmContext &ctx, ThreadId tid) override
    {
        heap_->durabilityPoint(ctx, tid);
    }

    void
    threadExit(pm::PmContext &ctx, ThreadId tid) override
    {
        heap_->threadExit(ctx, tid);
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

  private:
    const char *unit_;
    Addr heapBase_ = 0;
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
        // A put that finds the heap exhausted is skipped; updates of
        // repeated keys are real shadow path copies.
        runHashmap(
            ctx, tid, 353,
            [&](std::uint64_t key, const std::uint64_t *vals) {
                bool was_insert = false;
                return structure_->put(ctx, tid, key, vals,
                                       was_insert) &&
                       was_insert;
            },
            [&](std::uint64_t key) { structure_->remove(ctx, tid, key); });
    }

    void
    setupPartitions(Runtime &rt, const WorkloadKeymap &map) override
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
        preload(rt);
    }

    bool workloadHasRemove() const override { return true; }

  protected:
    bool
    read(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
         std::uint64_t &value) override
    {
        std::uint64_t vals[mod::ModHashmap::kValWords];
        if (!structure_->lookup(ctx, partitionKey(tid, key), vals))
            return false;
        value = vals[0];
        return true;
    }

    void
    write(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
          std::uint64_t value) override
    {
        const std::uint64_t vals[mod::ModHashmap::kValWords] = {
            value, key, tid};
        bool inserted = false;
        panic_if(!structure_->put(ctx, tid, partitionKey(tid, key), vals,
                                  inserted),
                 "mod-hashmap: heap exhausted");
    }

    bool
    erase(pm::PmContext &ctx, ThreadId tid, std::uint64_t key) override
    {
        return structure_->remove(ctx, tid, partitionKey(tid, key));
    }

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
            padOver(ctx, scratch.data());

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
                durabilityPoint(ctx, tid);
        }
        threadExit(ctx, tid);
    }

    /**
     * The workload sees the vector as a dense KV array: thread @p
     * tid's key with local index l lives in chunk tid*slotsPT +
     * l/kElems at element l%kElems — each thread owns a contiguous
     * spine region exactly as in run(), so shadow copies and garbage
     * lanes stay per-thread. Every key maps to a distinct element (no
     * aliasing); preloading fills whole chunks, one shadow write per
     * chunk.
     */
    void
    setupPartitions(Runtime &rt, const WorkloadKeymap &map) override
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
                    durabilityPoint(ctx, tid);
            }
            durabilityPoint(ctx, tid);
        }
    }

    // No erase: a MOD vector has no deletion; the history workloads
    // fold tombstone traffic into puts for this app.

  protected:
    bool
    read(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
         std::uint64_t &value) override
    {
        return structure_->get(ctx, slotOf(tid, key), idxOf(tid, key),
                               value);
    }

    void
    write(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
          std::uint64_t value) override
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
