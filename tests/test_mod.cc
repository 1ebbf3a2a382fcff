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
#include "common/crc32.hh"
#include "core/harness.hh"
#include "core/runtime.hh"
#include "core/verify_report.hh"
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

/** {ordering, durability} fences in thread 0's trace. */
std::pair<std::uint64_t, std::uint64_t>
fencesByKind(core::Runtime &rt)
{
    std::pair<std::uint64_t, std::uint64_t> n{0, 0};
    const trace::TraceBuffer *tb = rt.traces().buffer(0);
    for (std::size_t i = 0; tb && i < tb->size(); i++) {
        if (tb->at(i).kind != trace::EventKind::Fence)
            continue;
        if (tb->at(i).fenceKind() == trace::FenceKind::Ordering)
            n.first++;
        else
            n.second++;
    }
    return n;
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

TEST(ModHashmap, ExactlyOneOrderingFencePerPut)
{
    core::Runtime rt(kPool, 1);
    pm::PmContext &ctx = rt.ctx(0);
    mod::ModHeap heap(ctx, kHeapBase, kPool - kHeapBase, 1);
    mod::ModHashmap map(ctx, heap, 0, 8, 1);

    // 24 keys over 8 buckets: updates path-copy chains of several
    // nodes, still behind the one ofence.
    constexpr std::uint64_t kKeys = 24;
    for (const bool update : {false, true}) {
        rt.clearTraces();
        for (std::uint64_t key = 0; key < kKeys; key++) {
            const std::uint64_t vals[3] = {key, update, 7};
            bool inserted = false;
            ASSERT_TRUE(map.put(ctx, 0, key, vals, inserted));
            EXPECT_EQ(inserted, !update) << "key " << key;
        }
        EXPECT_EQ(fencesByKind(rt), std::make_pair(kKeys, std::uint64_t(0)))
            << (update ? "update" : "insert");
    }
    std::string why;
    EXPECT_TRUE(map.check(ctx, &why)) << why;
}

TEST(ModHashmap, ExactlyOneOrderingFencePerRemove)
{
    core::Runtime rt(kPool, 1);
    pm::PmContext &ctx = rt.ctx(0);
    mod::ModHeap heap(ctx, kHeapBase, kPool - kHeapBase, 1);
    mod::ModHashmap map(ctx, heap, 0, 8, 1);

    constexpr std::uint64_t kKeys = 24;
    for (std::uint64_t key = 0; key < kKeys; key++) {
        const std::uint64_t vals[3] = {key, 1, 2};
        bool inserted = false;
        ASSERT_TRUE(map.put(ctx, 0, key, vals, inserted));
    }
    heap.durabilityPoint(ctx, 0);

    rt.clearTraces();
    for (std::uint64_t key = 0; key < kKeys; key += 2)
        ASSERT_TRUE(map.remove(ctx, 0, key));
    EXPECT_EQ(fencesByKind(rt),
              std::make_pair(kKeys / 2, std::uint64_t(0)));

    // Removing an absent key commits nothing, so it fences nothing.
    rt.clearTraces();
    EXPECT_FALSE(map.remove(ctx, 0, 0));
    EXPECT_EQ(fencesByKind(rt),
              std::make_pair(std::uint64_t(0), std::uint64_t(0)));
    std::string why;
    EXPECT_TRUE(map.check(ctx, &why)) << why;
    EXPECT_EQ(map.countReachable(ctx), kKeys / 2);
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

// -------------------------------------------------------- root table

// Both structures keep their roots in one table format at the table
// offset (0 here): a 24-byte {magic, count, CRC32(magic, count)}
// header, then one 8-byte root slot per bucket or spine slot. These
// tests pin the format and its media-fault scrub from outside.

constexpr std::uint64_t kRoots = 64;

/** Cache line holding root slot @p s. */
LineAddr
rootLine(std::uint64_t s)
{
    return lineOf(24 + s * 8);
}

std::vector<Addr>
loadRoots(pm::PmContext &ctx)
{
    std::vector<Addr> roots(kRoots);
    ctx.load(24, roots.data(), kRoots * 8);
    return roots;
}

/**
 * Poison @p lines, zero-fill them as the harness does before a scrub,
 * then run the structure's scrub and the heap's. Returns the lines
 * neither claimed.
 */
template <class Structure>
std::vector<LineAddr>
poisonAndScrub(core::Runtime &rt, Structure &structure,
               mod::ModHeap &heap, const std::vector<LineAddr> &lines,
               core::VerifyReport &rep)
{
    for (const LineAddr line : lines)
        rt.pool().poisonLine(line);
    std::vector<LineAddr> work = rt.pool().poisonedLines();
    EXPECT_EQ(work.size(), lines.size());
    for (const LineAddr line : work)
        rt.pool().scrubLine(line);
    structure.scrub(rt.ctx(0), work, rep);
    heap.scrub(rt.ctx(0), work);
    return work;
}

/** The table header reads {magic, kRoots, CRC32 of those two}. */
void
expectHeaderRepaired(pm::PmContext &ctx, std::uint64_t magic)
{
    std::uint64_t hdr[3] = {};
    ctx.load(0, hdr, sizeof(hdr));
    EXPECT_EQ(hdr[0], magic);
    EXPECT_EQ(hdr[1], kRoots);
    const std::uint64_t words[2] = {magic, kRoots};
    EXPECT_EQ(hdr[2], crc32(words, sizeof(words)));
}

void
expectDegraded(const core::VerifyViolation &v, const char *invariant,
               const std::string &detail,
               const std::vector<LineAddr> &lines)
{
    EXPECT_EQ(v.invariant, invariant);
    EXPECT_EQ(v.severity, core::Severity::Degraded) << invariant;
    EXPECT_EQ(v.detail, detail) << invariant;
    EXPECT_EQ(v.lines, lines) << invariant;
}

TEST(ModRootTable, HashmapScrubRepairsHeaderAndNamesLostRoots)
{
    core::Runtime rt(kPool, 1);
    pm::PmContext &ctx = rt.ctx(0);
    mod::ModHeap heap(ctx, kHeapBase, kPool - kHeapBase, 1);
    mod::ModHashmap map(ctx, heap, 0, kRoots, 1);
    constexpr std::uint64_t kKeys = 200;
    for (std::uint64_t key = 0; key < kKeys; key++) {
        const std::uint64_t vals[3] = {key, key + 1, key + 2};
        bool inserted = false;
        ASSERT_TRUE(map.put(ctx, 0, key, vals, inserted));
    }
    heap.durabilityPoint(ctx, 0);

    // Lose the header line (which also holds buckets 0-4), one line
    // of buckets, and the head node of a bucket in neither.
    const LineAddr slot_line = rootLine(16);
    const std::vector<Addr> before = loadRoots(ctx);
    std::uint64_t victim = kRoots;
    for (std::uint64_t b = 0; b < kRoots && victim == kRoots; b++) {
        if (rootLine(b) != 0 && rootLine(b) != slot_line &&
            before[b] != kNullAddr)
            victim = b;
    }
    ASSERT_LT(victim, kRoots);
    const LineAddr node_line = lineOf(before[victim]);

    core::VerifyReport rep;
    EXPECT_TRUE(poisonAndScrub(rt, map, heap, {0, slot_line, node_line},
                               rep)
                    .empty());

    expectHeaderRepaired(ctx, mod::ModHashmap::kMagic);
    const std::vector<Addr> after = loadRoots(ctx);
    for (std::uint64_t b = 0; b < kRoots; b++) {
        const bool lost = rootLine(b) == 0 || rootLine(b) == slot_line ||
                          b == victim;
        EXPECT_EQ(after[b], lost ? kNullAddr : before[b]) << "bucket " << b;
    }
    EXPECT_TRUE(rep.ok());
    ASSERT_EQ(rep.violations().size(), 2u);
    expectDegraded(rep.violations()[0], "mod-root-lost",
                   "2 bucket line(s) lost to media faults; affected "
                   "buckets emptied",
                   {0, slot_line});
    expectDegraded(rep.violations()[1], "mod-chain-corrupt",
                   "1 chain(s) truncated at a corrupt node", {node_line});

    // Re-mount and mark-sweep: the table checks clean and every key of
    // a surviving bucket still reads back.
    mod::ModHeap reheap(kHeapBase, kPool - kHeapBase, 1);
    mod::ModHashmap remap(reheap, 0, kRoots, 1);
    std::vector<Addr> live;
    remap.reachable(ctx, live);
    reheap.recover(ctx, live);
    std::string why;
    EXPECT_TRUE(remap.check(ctx, &why)) << why;
    EXPECT_TRUE(reheap.gcQuiescent(ctx, &why)) << why;
    for (std::uint64_t key = 0; key < kKeys; key++) {
        std::uint64_t out[3] = {};
        const bool kept = after[remap.bucketOf(key)] != kNullAddr;
        ASSERT_EQ(remap.lookup(ctx, key, out), kept) << "key " << key;
        if (kept) {
            EXPECT_EQ(out[2], key + 2);
        }
    }
}

TEST(ModRootTable, VectorScrubRepairsHeaderAndNamesLostRoots)
{
    core::Runtime rt(kPool, 1);
    pm::PmContext &ctx = rt.ctx(0);
    mod::ModHeap heap(ctx, kHeapBase, kPool - kHeapBase, 1);
    mod::ModVector vec(ctx, heap, 0, kRoots);
    for (std::uint64_t s = 0; s < kRoots; s++) {
        const std::uint64_t vals[8] = {s, 1, 2, 3, 4, 5, 6, 7};
        ASSERT_TRUE(vec.write(ctx, 0, s, 0, vals, 8, 8));
    }
    heap.durabilityPoint(ctx, 0);

    // Lose the header line (which also holds slots 0-4), one line of
    // slots, and the first line of a chunk in neither.
    const LineAddr slot_line = rootLine(16);
    const std::uint64_t victim = 40;
    ASSERT_NE(rootLine(victim), slot_line);
    const std::vector<Addr> before = loadRoots(ctx);
    const LineAddr chunk_line = lineOf(before[victim]);

    core::VerifyReport rep;
    EXPECT_TRUE(poisonAndScrub(rt, vec, heap, {0, slot_line, chunk_line},
                               rep)
                    .empty());

    expectHeaderRepaired(ctx, mod::ModVector::kMagic);
    const std::vector<Addr> after = loadRoots(ctx);
    for (std::uint64_t s = 0; s < kRoots; s++) {
        const bool lost = rootLine(s) == 0 || rootLine(s) == slot_line ||
                          s == victim;
        EXPECT_EQ(after[s], lost ? kNullAddr : before[s]) << "slot " << s;
    }
    EXPECT_TRUE(rep.ok());
    ASSERT_EQ(rep.violations().size(), 2u);
    expectDegraded(rep.violations()[0], "mod-root-lost",
                   "2 spine line(s) lost to media faults; affected "
                   "slots nulled",
                   {0, slot_line});
    expectDegraded(rep.violations()[1], "mod-chunk-corrupt",
                   "1 chunk(s) failed their CRC; referencing slots "
                   "nulled",
                   {chunk_line});

    mod::ModHeap reheap(kHeapBase, kPool - kHeapBase, 1);
    mod::ModVector revec(reheap, 0, kRoots);
    std::vector<Addr> live;
    revec.reachable(ctx, live);
    reheap.recover(ctx, live);
    std::string why;
    EXPECT_TRUE(revec.check(ctx, &why)) << why;
    EXPECT_TRUE(reheap.gcQuiescent(ctx, &why)) << why;
    for (std::uint64_t s = 0; s < kRoots; s++) {
        std::uint64_t out = 0;
        const bool kept = after[s] != kNullAddr;
        ASSERT_EQ(revec.get(ctx, s, 0, out), kept) << "slot " << s;
        if (kept) {
            EXPECT_EQ(out, s);
        }
    }
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
