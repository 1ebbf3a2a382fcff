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
 * Thread discipline: the key space (top 16 bits = lane) and the
 * vector spine (a contiguous slot region per lane) are partitioned so
 * each thread only ever supersedes its own nodes — the per-lane
 * garbage lanes then reclaim strictly behind the owning thread's
 * dfence, and per-thread byte counts are independent of
 * interleaving. A workload client owns a single-lane heap, whose
 * grace batches never wait on another client.
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

static_assert(mod::ModHashmap::kValWords == 3,
              "runHashmap() puts three value words");

/** A structure's table, the MOD heap behind it, and both's attach
 *  parameters: the paper run's over the whole pool, or a client's. */
template <class Structure>
struct ModInstance
{
    Addr tableOff = 0;
    std::uint64_t units = 0; //!< buckets or spine slots
    Addr heapBase = 0;
    std::size_t heapBytes = 0;
    std::unique_ptr<mod::ModHeap> heap;
    std::unique_ptr<Structure> structure;
};

/**
 * What the two MOD apps share around their structure @p Structure:
 * format, attach and mark-from-the-roots recovery, the layer's checks
 * and scrub, and the heap's durability point and thread exit under
 * the partitioned KV surface. Each app keeps its own run() script and
 * store hooks.
 */
template <class Structure>
class ModApp : public PartitionedKvApp<ModInstance<Structure>>
{
  public:
    using Instance = ModInstance<Structure>;

    AccessLayer layer() const override { return AccessLayer::LibMod; }

  protected:
    /** @p unit names one node of the structure in check messages. */
    ModApp(const AppConfig &config, const char *unit)
        : PartitionedKvApp<Instance>(config), unit_(unit)
    {
    }

    /** Table units (buckets or slots) of a paper or client instance. */
    virtual std::uint64_t tableUnits(bool workload) const = 0;

    /**
     * A new structure over @p inst's table and heap: formatted
     * through @p ctx, or attached (no writes) when @p ctx is null.
     */
    virtual std::unique_ptr<Structure> build(pm::PmContext *ctx,
                                             Instance &inst) = 0;

    /** The table at @p base, then a heap over the rest of the range. */
    Instance
    format(pm::PmContext &ctx, Addr base, std::size_t bytes,
           bool workload) override
    {
        Instance inst;
        inst.tableOff = base;
        inst.units = tableUnits(workload);
        inst.heapBase =
            base + lineBase(Structure::tableBytes(inst.units) +
                            2 * kCacheLineSize);
        panic_if(inst.heapBase >= base + bytes,
                 "%s: pool too small for its %s table",
                 this->name().c_str(), unit_);
        inst.heapBytes = base + bytes - inst.heapBase;
        inst.heap = std::make_unique<mod::ModHeap>(
            ctx, inst.heapBase, inst.heapBytes, this->lanes(workload));
        inst.structure = build(&ctx, inst);
        return inst;
    }

    void
    recoverInstance(pm::PmContext &ctx, Instance &inst) override
    {
        inst.heap = std::make_unique<mod::ModHeap>(
            inst.heapBase, inst.heapBytes, inst.heap->maxThreads());
        inst.structure = build(nullptr, inst);
        // Mark from the roots, then sweep: allocator occupancy becomes
        // exactly the reachable node set and the garbage lanes are
        // cleared (nothing on them can be reachable).
        std::vector<Addr> live;
        inst.structure->reachable(ctx, live);
        inst.heap->recover(ctx, live);
    }

    void
    checkStructure(pm::PmContext &ctx, Instance &inst, bool clean,
                   VerifyReport &rep) override
    {
        if (clean)
            rep.check(inst.heap->magicIntact(ctx), "heap-magic",
                      "mod heap magic lost");
        std::string why;
        rep.check(inst.structure->check(ctx, &why), "structure-intact",
                  why);
    }

    void
    checkLayer(pm::PmContext &ctx, Instance &inst,
               VerifyReport &rep) override
    {
        rep.check(inst.heap->magicIntact(ctx), "heap-magic",
                  "mod heap magic lost");
        std::string why;
        rep.check(inst.heap->gcQuiescent(ctx, &why), "gc-quiescent", why);
        // The MOD commit contract: every root names a fully-persisted,
        // still-allocated node — GC must never have reclaimed anything
        // a durable root can reach.
        std::vector<Addr> live;
        inst.structure->reachable(ctx, live);
        const std::string lost =
            std::string("reachable mod ") + unit_ + " not allocated";
        for (const Addr node : live) {
            if (!rep.check(inst.heap->isLiveNode(node), "roots-allocated",
                           lost))
                break;
        }
    }

    void
    scrubInstance(pm::PmContext &ctx, Instance &inst,
                  std::vector<LineAddr> &lines, VerifyReport &rep) override
    {
        // Structure first (root table repair + chain truncation needs
        // to see which node lines were hit), then the heap claims the
        // remaining arena/lane lines.
        inst.structure->scrub(ctx, lines, rep);
        inst.heap->scrub(ctx, lines);
    }

    void
    durabilityPoint(pm::PmContext &ctx, Instance &inst,
                    ThreadId lane) override
    {
        inst.heap->durabilityPoint(ctx, lane);
    }

    void
    threadExit(pm::PmContext &ctx, Instance &inst, ThreadId lane) override
    {
        inst.heap->threadExit(ctx, lane);
    }

  private:
    const char *unit_;
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
        mod::ModHashmap &map = *inst_[0].structure;
        // A put that finds the heap exhausted is skipped; updates of
        // repeated keys are real shadow path copies.
        runHashmap(
            ctx, tid, 353,
            [&](std::uint64_t key, const std::uint64_t *vals) {
                bool was_insert = false;
                return map.put(ctx, tid, key, vals, was_insert) &&
                       was_insert;
            },
            [&](std::uint64_t key) { map.remove(ctx, tid, key); });
    }

    bool workloadHasRemove() const override { return true; }

  protected:
    /**
     * A partition's buckets; a client's cover one chain bucket per
     * potential key, so lookups stay O(1) even at millions of keys
     * (partition size must be a power of 2).
     */
    std::uint64_t
    tableUnits(bool workload) const override
    {
        std::uint64_t per = kBucketsPerPartition;
        while (workload && per < wlMap_.slotsPerThread())
            per <<= 1;
        return per * lanes(workload);
    }

    bool
    read(pm::PmContext &ctx, Instance &inst, ThreadId tid,
         std::uint64_t key, std::uint64_t &value) override
    {
        (void)tid;
        std::uint64_t vals[mod::ModHashmap::kValWords];
        if (!inst.structure->lookup(ctx, key, vals))
            return false;
        value = vals[0];
        return true;
    }

    void
    write(pm::PmContext &ctx, Instance &inst, ThreadId tid,
          std::uint64_t key, std::uint64_t value) override
    {
        const std::uint64_t vals[mod::ModHashmap::kValWords] = {
            value, key, tid};
        bool inserted = false;
        panic_if(!inst.structure->put(ctx, 0, key, vals, inserted),
                 "mod-hashmap: heap exhausted");
    }

    bool
    erase(pm::PmContext &ctx, Instance &inst, ThreadId tid,
          std::uint64_t key) override
    {
        (void)tid;
        return inst.structure->remove(ctx, 0, key);
    }

    std::unique_ptr<mod::ModHashmap>
    build(pm::PmContext *ctx, Instance &inst) override
    {
        const unsigned parts = inst.heap->maxThreads();
        if (ctx)
            return std::make_unique<mod::ModHashmap>(
                *ctx, *inst.heap, inst.tableOff, inst.units, parts,
                brokenCommit_);
        return std::make_unique<mod::ModHashmap>(
            *inst.heap, inst.tableOff, inst.units, parts, brokenCommit_);
    }

  private:
    const bool brokenCommit_;
};

class ModVectorApp : public ModApp<mod::ModVector>
{
  public:
    explicit ModVectorApp(const AppConfig &config)
        : ModApp(config, "chunk")
    {
    }

    std::string name() const override { return "mod-vector"; }

    void
    run(Runtime &rt, pm::PmContext &ctx, ThreadId tid) override
    {
        (void)rt;
        Instance &inst = inst_[0];
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
            inst.structure->write(ctx, tid, slot, first, vals, 5,
                                  mod::ModVector::kElems);
            ctx.vStore(scratch.data() + (slot % scratch.size()), 8);

            if ((op + 1) % kDurabilityInterval == 0)
                durabilityPoint(ctx, inst, tid);
        }
        threadExit(ctx, inst, tid);
    }

    // No erase: a MOD vector has no deletion; the history workloads
    // fold tombstone traffic into puts for this app.

  protected:
    /**
     * The paper spine has a kSlotsPerThread region per thread. A
     * client sees its vector as a dense KV array: its key with local
     * index l lives in chunk l/kElems at element l%kElems, so every
     * key maps to a distinct element (no aliasing). Its spine rounds
     * up to whole writer stripes, as every paper region is.
     */
    std::uint64_t
    tableUnits(bool workload) const override
    {
        if (!workload)
            return kSlotsPerThread * lanes(workload);
        constexpr std::uint64_t stripe = mod::ModVector::kSlotsPerStripe;
        const std::uint64_t chunks = std::max<std::uint64_t>(
            1, (wlMap_.slotsPerThread() + mod::ModVector::kElems - 1) /
                   mod::ModVector::kElems);
        return (chunks + stripe - 1) / stripe * stripe;
    }

    /** Preloading fills whole chunks, one shadow write per chunk. */
    void
    preload(pm::PmContext &ctx, ThreadId tid) override
    {
        Instance &inst = inst_[tid];
        const std::uint64_t keys = wlMap_.perThread();
        std::uint64_t written = 0;
        std::uint64_t chunk = 0;
        while (written < keys) {
            const std::uint64_t k = std::min<std::uint64_t>(
                mod::ModVector::kElems, keys - written);
            std::uint64_t vals[mod::ModVector::kElems];
            for (std::uint64_t e = 0; e < k; e++)
                vals[e] = WorkloadKeymap::loadedValue(wlMap_.lo(tid) +
                                                      written + e);
            panic_if(!inst.structure->write(ctx, 0, chunk, 0, vals, k, k),
                     "mod-vector: heap exhausted during preload");
            written += k;
            chunk++;
            if (chunk % kDurabilityInterval == 0)
                durabilityPoint(ctx, inst, 0);
        }
        durabilityPoint(ctx, inst, 0);
    }

    bool
    read(pm::PmContext &ctx, Instance &inst, ThreadId tid,
         std::uint64_t key, std::uint64_t &value) override
    {
        const std::uint64_t l = wlMap_.localIndex(tid, key);
        return inst.structure->get(ctx, l / mod::ModVector::kElems,
                                   l % mod::ModVector::kElems, value);
    }

    void
    write(pm::PmContext &ctx, Instance &inst, ThreadId tid,
          std::uint64_t key, std::uint64_t value) override
    {
        const std::uint64_t l = wlMap_.localIndex(tid, key);
        const std::uint64_t slot = l / mod::ModVector::kElems;
        const std::uint64_t idx = l % mod::ModVector::kElems;
        const std::uint64_t count = std::max<std::uint64_t>(
            inst.structure->chunkCount(ctx, slot), idx + 1);
        panic_if(!inst.structure->write(ctx, 0, slot, idx, &value, 1,
                                        count),
                 "mod-vector: heap exhausted");
    }

    std::unique_ptr<mod::ModVector>
    build(pm::PmContext *ctx, Instance &inst) override
    {
        if (ctx)
            return std::make_unique<mod::ModVector>(
                *ctx, *inst.heap, inst.tableOff, inst.units);
        return std::make_unique<mod::ModVector>(*inst.heap,
                                                inst.tableOff, inst.units);
    }
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
