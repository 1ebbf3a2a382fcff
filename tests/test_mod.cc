/**
 * @file
 * MOD layer tests: heap/GC mechanics, copy-on-write semantics, the
 * one-ordering-point-per-update contract, recovery mark-and-sweep,
 * and the §5.2 golden regression pinning MOD amplification below the
 * logging libraries.
 */

#include <gtest/gtest.h>

#include "analysis/access_mix.hh"
#include "analysis/epoch.hh"
#include "analysis/epoch_stats.hh"
#include "core/harness.hh"
#include "core/runtime.hh"
#include "mod/mod_hashmap.hh"
#include "mod/mod_heap.hh"
#include "mod/mod_vector.hh"
#include "sim/simulator.hh"

namespace whisper
{
namespace
{

using core::AppConfig;
using core::RunResult;

constexpr std::size_t kPool = 32 << 20;
constexpr Addr kHeapBase = 4096; //!< leaves room for a structure table

AppConfig
appConfig()
{
    AppConfig config;
    config.threads = 4;
    config.opsPerThread = 120;
    config.poolBytes = 192 << 20;
    config.seed = 7;
    return config;
}

TEST(ModHeap, RetireReclaimsOnlyAtDurabilityPoints)
{
    core::Runtime rt(kPool, 1);
    pm::PmContext &ctx = rt.ctx(0);
    mod::ModHeap heap(ctx, kHeapBase, kPool - kHeapBase, 1);

    const Addr a = heap.alloc(ctx, 64);
    const Addr b = heap.alloc(ctx, 64);
    ASSERT_NE(a, kNullAddr);
    ASSERT_NE(b, kNullAddr);
    EXPECT_TRUE(heap.isLiveNode(a));
    EXPECT_EQ(heap.allocStats().bytesLive, 128u);

    heap.retire(ctx, 0, a);
    EXPECT_EQ(heap.gcStats().retired, 1u);
    EXPECT_EQ(heap.gcStats().reclaimed, 0u);
    EXPECT_TRUE(heap.isLiveNode(a)) << "retire must not free";

    heap.durabilityPoint(ctx, 0);
    EXPECT_EQ(heap.gcStats().reclaimed, 1u);
    EXPECT_EQ(heap.gcStats().durabilityPoints, 1u);
    EXPECT_FALSE(heap.isLiveNode(a));
    EXPECT_TRUE(heap.isLiveNode(b));
    EXPECT_EQ(heap.allocStats().bytesLive, 64u);
}

TEST(ModHeap, FullGarbageLaneForcesEarlyDurabilityPoint)
{
    core::Runtime rt(kPool, 1);
    pm::PmContext &ctx = rt.ctx(0);
    mod::ModHeap heap(ctx, kHeapBase, kPool - kHeapBase, 1);

    for (std::uint64_t i = 0; i < mod::ModHeap::kGcEntries + 1; i++) {
        const Addr node = heap.alloc(ctx, 64);
        ASSERT_NE(node, kNullAddr);
        heap.retire(ctx, 0, node);
    }
    // The ring may never wrap over an un-reclaimed entry: the 65th
    // retire has to force a durability point first.
    EXPECT_GE(heap.gcStats().durabilityPoints, 1u);
    EXPECT_GE(heap.gcStats().reclaimed, mod::ModHeap::kGcEntries);
}

TEST(ModVector, CowWritePreservesUntouchedElements)
{
    core::Runtime rt(kPool, 1);
    pm::PmContext &ctx = rt.ctx(0);
    mod::ModHeap heap(ctx, kHeapBase, kPool - kHeapBase, 1);
    mod::ModVector vec(ctx, heap, 0, 4);

    std::uint64_t init[8] = {10, 11, 12, 13, 14, 15, 16, 17};
    ASSERT_TRUE(vec.write(ctx, 0, 0, 0, init, 8, 8));
    std::uint64_t patch[3] = {90, 91, 92};
    ASSERT_TRUE(vec.write(ctx, 0, 0, 2, patch, 3, 8));

    const std::uint64_t expect[8] = {10, 11, 90, 91, 92, 15, 16, 17};
    for (std::uint64_t i = 0; i < 8; i++) {
        std::uint64_t out = 0;
        ASSERT_TRUE(vec.get(ctx, 0, i, out));
        EXPECT_EQ(out, expect[i]) << "element " << i;
    }
    std::string why;
    EXPECT_TRUE(vec.check(ctx, &why)) << why;
}

TEST(ModVector, ExactlyOneOrderingFencePerUpdate)
{
    core::Runtime rt(kPool, 1);
    pm::PmContext &ctx = rt.ctx(0);
    mod::ModHeap heap(ctx, kHeapBase, kPool - kHeapBase, 1);
    mod::ModVector vec(ctx, heap, 0, 8);

    rt.clearTraces();
    constexpr std::uint64_t kUpdates = 10;
    for (std::uint64_t i = 0; i < kUpdates; i++) {
        std::uint64_t vals[4] = {i, i + 1, i + 2, i + 3};
        ASSERT_TRUE(vec.write(ctx, 0, i % 8, 0, vals, 4, 8));
    }
    // The MOD discipline, verified at the trace level: an update
    // issues its single ofence and nothing else fences (allocation,
    // retire and the commit swap all ride it).
    EXPECT_EQ(rt.traces().totalCounters().fences, kUpdates);
}

TEST(ModHashmap, PutLookupRemoveRoundTrip)
{
    core::Runtime rt(kPool, 1);
    pm::PmContext &ctx = rt.ctx(0);
    mod::ModHeap heap(ctx, kHeapBase, kPool - kHeapBase, 1);
    mod::ModHashmap map(ctx, heap, 0, 64, 1);

    std::uint64_t vals[3] = {1, 2, 3};
    bool inserted = false;
    ASSERT_TRUE(map.put(ctx, 0, 42, vals, inserted));
    EXPECT_TRUE(inserted);
    vals[0] = 9;
    ASSERT_TRUE(map.put(ctx, 0, 42, vals, inserted));
    EXPECT_FALSE(inserted) << "second put is an update";

    std::uint64_t out[3] = {};
    ASSERT_TRUE(map.lookup(ctx, 42, out));
    EXPECT_EQ(out[0], 9u);
    EXPECT_EQ(out[2], 3u);
    EXPECT_EQ(map.countReachable(ctx), 1u);

    EXPECT_TRUE(map.remove(ctx, 0, 42));
    EXPECT_FALSE(map.lookup(ctx, 42, out));
    EXPECT_FALSE(map.remove(ctx, 0, 42));
    std::string why;
    EXPECT_TRUE(map.check(ctx, &why)) << why;
}

TEST(ModHeap, RecoveryRebuildsOccupancyFromReachability)
{
    core::Runtime rt(kPool, 1);
    pm::PmContext &ctx = rt.ctx(0);
    mod::ModHeap heap(ctx, kHeapBase, kPool - kHeapBase, 1);
    mod::ModVector vec(ctx, heap, 0, 4);

    std::uint64_t vals[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    ASSERT_TRUE(vec.write(ctx, 0, 0, 0, vals, 8, 8));
    ASSERT_TRUE(vec.write(ctx, 0, 0, 0, vals, 8, 8));
    // The superseded chunk is retired but not yet reclaimed: two
    // blocks live, one reachable.
    EXPECT_EQ(heap.allocStats().bytesLive, 256u);
    std::vector<Addr> live;
    vec.reachable(ctx, live);
    ASSERT_EQ(live.size(), 1u);

    // Re-mount and mark-sweep: occupancy becomes exactly the
    // reachable set and the garbage lanes come back cleared.
    mod::ModHeap recovered(kHeapBase, kPool - kHeapBase, 1);
    mod::ModVector revec(recovered, 0, 4);
    std::vector<Addr> marked;
    revec.reachable(ctx, marked);
    recovered.recover(ctx, marked);
    EXPECT_EQ(recovered.allocStats().bytesLive, 128u);
    EXPECT_TRUE(recovered.isLiveNode(marked[0]));
    std::string why;
    EXPECT_TRUE(recovered.gcQuiescent(ctx, &why)) << why;
    EXPECT_TRUE(revec.check(ctx, &why)) << why;
    EXPECT_TRUE(recovered.magicIntact(ctx));
}

TEST(ModHeap, GraceDefersReclaimUntilPeersQuiesce)
{
    core::Runtime rt(kPool, 2);
    pm::PmContext &ctx = rt.ctx(0);
    mod::ModHeap heap(ctx, kHeapBase, kPool - kHeapBase, 2);

    const Addr a = heap.alloc(ctx, 64);
    ASSERT_NE(a, kNullAddr);
    heap.retire(ctx, 0, a);
    heap.durabilityPoint(ctx, 0);
    // The superseding swap is durable, but thread 1 may still be
    // reading the old node: the batch stays unreclaimed until thread 1
    // passes a quiescent point after the retirement was batched.
    EXPECT_EQ(heap.gcStats().reclaimed, 0u);
    EXPECT_TRUE(heap.isLiveNode(a)) << "grace must defer reclaim";

    heap.readerQuiesce(1);
    heap.durabilityPoint(ctx, 0);
    EXPECT_EQ(heap.gcStats().reclaimed, 1u);
    EXPECT_FALSE(heap.isLiveNode(a));
}

// ------------------------------------------------------- concurrency

TEST(ModConcurrency, DisjointKeyWritersScaleAcrossStripes)
{
    // The tentpole claim at structure level: four writers on disjoint
    // key partitions never share a stripe, every commit CAS succeeds,
    // and the final structure carries all four threads' updates.
    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kPerThread = 160;
    core::Runtime rt(kPool, kThreads);
    mod::ModHeap heap(rt.ctx(0), kHeapBase, kPool - kHeapBase,
                      kThreads);
    mod::ModHashmap map(rt.ctx(0), heap, 0, 64 * kThreads, kThreads);

    rt.runThreads(kThreads, [&](pm::PmContext &ctx, ThreadId tid) {
        for (std::uint64_t i = 0; i < kPerThread; i++) {
            const std::uint64_t key =
                (static_cast<std::uint64_t>(tid) << 48) | (i % 64);
            const std::uint64_t vals[3] = {tid, i, tid ^ i};
            bool inserted = false;
            ASSERT_TRUE(map.put(ctx, tid, key, vals, inserted));
            std::uint64_t out[3] = {};
            ASSERT_TRUE(map.lookup(ctx, key, out));
            EXPECT_EQ(out[0], tid);
            EXPECT_EQ(out[1], i);
        }
        heap.threadExit(ctx, tid);
    });

    pm::PmContext &ctx = rt.ctx(0);
    EXPECT_EQ(map.countReachable(ctx), kThreads * 64u);
    std::string why;
    EXPECT_TRUE(map.check(ctx, &why)) << why;
    EXPECT_GT(heap.gcStats().retired, 0u) << "updates must retire";
    EXPECT_GT(heap.gcStats().reclaimed, 0u) << "grace must elapse";
}

TEST(ModConcurrency, CollidingWritersSerializeOnTheStripe)
{
    // The adversarial case: every thread hammers the same 16 keys, so
    // updates contend the same buckets and stripes. The stripe lock is
    // taken before the head is read, so the commit CAS must always
    // succeed (a lost CAS panics) and chains stay intact.
    constexpr unsigned kThreads = 4;
    core::Runtime rt(kPool, kThreads);
    mod::ModHeap heap(rt.ctx(0), kHeapBase, kPool - kHeapBase,
                      kThreads);
    mod::ModHashmap map(rt.ctx(0), heap, 0, 64, 1);

    rt.runThreads(kThreads, [&](pm::PmContext &ctx, ThreadId tid) {
        for (std::uint64_t i = 0; i < 120; i++) {
            const std::uint64_t key = i % 16;
            const std::uint64_t vals[3] = {tid, i, key};
            bool inserted = false;
            ASSERT_TRUE(map.put(ctx, tid, key, vals, inserted));
            if (i % 7 == tid)
                map.remove(ctx, tid, key);
        }
        heap.threadExit(ctx, tid);
    });

    pm::PmContext &ctx = rt.ctx(0);
    std::string why;
    EXPECT_TRUE(map.check(ctx, &why)) << why;
    EXPECT_GT(heap.gcStats().retired, 0u);
    // Whichever writer won each key, its value is whole: no torn or
    // mixed payloads survive the race.
    for (std::uint64_t key = 0; key < 16; key++) {
        std::uint64_t out[3] = {};
        if (map.lookup(ctx, key, out)) {
            EXPECT_LT(out[0], kThreads) << "key " << key;
            EXPECT_EQ(out[2], key);
        }
    }
}

TEST(ModConcurrency, VectorWritersRaceDisjointAndSharedStripes)
{
    // Range stripes on the spine: each thread mostly writes its own
    // kSlotsPerStripe-aligned region (own stripe, no contention) and
    // every ninth update hits the shared first stripe.
    constexpr unsigned kThreads = 4;
    core::Runtime rt(kPool, kThreads);
    mod::ModHeap heap(rt.ctx(0), kHeapBase, kPool - kHeapBase,
                      kThreads);
    mod::ModVector vec(rt.ctx(0), heap, 0,
                       kThreads * mod::ModVector::kSlotsPerStripe);

    rt.runThreads(kThreads, [&](pm::PmContext &ctx, ThreadId tid) {
        const std::uint64_t base =
            tid * mod::ModVector::kSlotsPerStripe;
        for (std::uint64_t i = 0; i < 200; i++) {
            const std::uint64_t slot =
                i % 9 == 0 ? i % 8 : base + i % 32;
            const std::uint64_t vals[4] = {tid, i, slot, tid + i};
            ASSERT_TRUE(vec.write(ctx, tid, slot, 0, vals, 4, 4));
        }
        heap.threadExit(ctx, tid);
    });

    pm::PmContext &ctx = rt.ctx(0);
    std::string why;
    EXPECT_TRUE(vec.check(ctx, &why)) << why;
    // Every written slot holds a whole chunk from exactly one of the
    // racing writes (vals[2] always names the slot).
    for (unsigned t = 0; t < kThreads; t++) {
        const std::uint64_t slot =
            t * mod::ModVector::kSlotsPerStripe + 9;
        EXPECT_EQ(vec.chunkCount(ctx, slot), 4u);
        std::uint64_t out = 0;
        ASSERT_TRUE(vec.get(ctx, slot, 2, out));
        EXPECT_EQ(out, slot);
    }
    EXPECT_GT(heap.gcStats().reclaimed, 0u);
}

TEST(ModConcurrency, LockFreeReadersSurviveConcurrentUpdates)
{
    // Two writers churn their partitions while two lock-free readers
    // chase chains, quiescing periodically so grace periods elapse.
    // A reader must only ever observe whole entries from one put.
    constexpr unsigned kThreads = 4;
    core::Runtime rt(kPool, kThreads);
    mod::ModHeap heap(rt.ctx(0), kHeapBase, kPool - kHeapBase,
                      kThreads);
    mod::ModHashmap map(rt.ctx(0), heap, 0, 64, 2);

    rt.runThreads(kThreads, [&](pm::PmContext &ctx, ThreadId tid) {
        if (tid < 2) {
            for (std::uint64_t i = 0; i < 240; i++) {
                const std::uint64_t key =
                    (static_cast<std::uint64_t>(tid) << 48) |
                    (i % 24);
                const std::uint64_t vals[3] = {tid, i, tid ^ i};
                bool inserted = false;
                ASSERT_TRUE(map.put(ctx, tid, key, vals, inserted));
                if (i % 5 == 0)
                    map.remove(ctx, tid, key);
            }
        } else {
            const std::uint64_t writer = tid - 2;
            for (std::uint64_t i = 0; i < 400; i++) {
                const std::uint64_t key = (writer << 48) | (i % 24);
                std::uint64_t out[3] = {};
                if (map.lookup(ctx, key, out)) {
                    EXPECT_EQ(out[0], writer)
                        << "reader saw a torn entry";
                }
                if (i % 16 == 0)
                    heap.readerQuiesce(tid);
            }
        }
        heap.threadExit(ctx, tid);
    });

    pm::PmContext &ctx = rt.ctx(0);
    std::string why;
    EXPECT_TRUE(map.check(ctx, &why)) << why;
}

// ------------------------------------------------- golden regressions

TEST(ModGolden, AmplificationBandsAndOrdering)
{
    // §5.2 golden ranges at test scale: Mnemosyne (vacation) lands in
    // its 3-6x band, NVML (hashmap) near 10x, and both MOD structures
    // sit strictly below both logging libraries.
    const AppConfig config = appConfig();
    const double mnemosyne = analysis::computeAmplification(
        core::runApp("vacation", config).runtime->traces()).ratio();
    const double nvml = analysis::computeAmplification(
        core::runApp("hashmap", config).runtime->traces()).ratio();
    const double mod_map = analysis::computeAmplification(
        core::runApp("mod-hashmap", config).runtime->traces()).ratio();
    const double mod_vec = analysis::computeAmplification(
        core::runApp("mod-vector", config).runtime->traces()).ratio();

    EXPECT_GE(mnemosyne, 2.5);
    EXPECT_LE(mnemosyne, 6.5);
    EXPECT_GE(nvml, 4.0);
    EXPECT_LE(nvml, 14.0);
    for (const double mod : {mod_map, mod_vec}) {
        EXPECT_LT(mod, mnemosyne);
        EXPECT_LT(mod, nvml);
        EXPECT_LT(mod, 2.5) << "MOD must stay below the Mnemosyne band";
        EXPECT_GT(mod, 0.0);
    }
}

TEST(ModGolden, EpochsPerTxPinnedAtOne)
{
    const AppConfig config = appConfig();
    const RunResult mod = core::runApp("mod-hashmap", config);
    const RunResult nvml = core::runApp("hashmap", config);

    analysis::EpochBuilder mod_b(mod.runtime->traces());
    const auto mod_sum =
        analysis::summarizeEpochs(mod_b, mod.runtime->traces());
    analysis::EpochBuilder nvml_b(nvml.runtime->traces());
    const auto nvml_sum =
        analysis::summarizeEpochs(nvml_b, nvml.runtime->traces());

    EXPECT_LE(mod_sum.epochsPerTx.median(), 2u);
    EXPECT_LT(mod_sum.epochsPerTx.median(),
              nvml_sum.epochsPerTx.median())
        << "a MOD update must take fewer ordering points than an "
           "NVML-logged one";
}

TEST(ModGolden, SimulatorSeesFewerFenceStalls)
{
    // Ordering-point reduction must show up in the timing models:
    // same workload shape, far fewer fences to stall on.
    AppConfig config = appConfig();
    config.opsPerThread = 60;
    config.recordVolatile = true;
    const RunResult mod = core::runApp("mod-hashmap", config);
    const RunResult nvml = core::runApp("hashmap", config);

    sim::Simulator x86(sim::SimParams{}, sim::ModelKind::X86Nvm);
    const auto r_mod = x86.run(mod.runtime->traces());
    sim::Simulator x86_nvml(sim::SimParams{}, sim::ModelKind::X86Nvm);
    const auto r_nvml = x86_nvml.run(nvml.runtime->traces());

    EXPECT_LT(r_mod.persist.fenceStalls, r_nvml.persist.fenceStalls);
}

} // namespace
} // namespace whisper
