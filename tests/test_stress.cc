/**
 * @file
 * Stress and edge-case tests: log-segment wraparound, abort paths,
 * multithreaded allocator and filesystem use, survival-probability
 * sweeps of the crash model, and adversarial trace shapes for the
 * analyses.
 */

#include <gtest/gtest.h>

#include <thread>

#include "analysis/dependency.hh"
#include "analysis/epoch.hh"
#include "analysis/epoch_stats.hh"
#include "common/logical_clock.hh"
#include "core/runtime.hh"
#include "pmfs/pmfs.hh"
#include "txlib/mnemosyne.hh"
#include "txlib/nvml.hh"

namespace whisper
{
namespace
{

// ------------------------------------------------ log ring behaviour

TEST(LogRing, MnemosyneWrapsThroughAllSegments)
{
    // More transactions than segments: every segment gets reused and
    // every commit must still be durable and recoverable.
    pm::PmPool pool(64 << 20);
    LogicalClock clock;
    trace::TraceBuffer tb(0);
    pm::PmContext ctx(pool, clock, 0, &tb);
    mne::MnemosyneHeap heap(ctx, 0, 32 << 20, 1);
    const Addr obj = heap.pmalloc(ctx, 64);

    const unsigned rounds = mne::MnemosyneHeap::kLogSegments * 3 + 5;
    for (unsigned i = 0; i < rounds; i++) {
        mne::Transaction tx(heap, ctx);
        const std::uint64_t v = i + 1;
        tx.update(obj, &v, 8);
        tx.commit();
    }
    pool.crashHard();
    ctx.resetPendingState();
    mne::MnemosyneHeap again(0, 32 << 20, 1);
    again.recover(ctx);
    EXPECT_EQ(*pool.at<std::uint64_t>(obj),
              static_cast<std::uint64_t>(rounds));
}

TEST(LogRing, NvmlWrapsThroughAllSegments)
{
    pm::PmPool pool(64 << 20);
    LogicalClock clock;
    pm::PmContext ctx(pool, clock, 0, nullptr);
    nvml::NvmlPool npool(ctx, 0, 48 << 20, 1);
    Addr obj;
    {
        nvml::TxContext tx(npool, ctx);
        obj = tx.txAlloc(64);
        const std::uint64_t zero = 0;
        tx.directStore(obj, &zero, 8);
        tx.commit();
    }
    const unsigned rounds = nvml::NvmlPool::kLogSegments * 3 + 5;
    for (unsigned i = 0; i < rounds; i++) {
        nvml::TxContext tx(npool, ctx);
        auto *cell = pool.at<std::uint64_t>(obj);
        tx.set(*cell, static_cast<std::uint64_t>(i + 1));
        tx.commit();
    }
    pool.crashHard();
    ctx.resetPendingState();
    nvml::NvmlPool again(0, 48 << 20, 1);
    again.recover(ctx);
    EXPECT_EQ(*pool.at<std::uint64_t>(obj),
              static_cast<std::uint64_t>(rounds));
}

TEST(LogRing, StaleSegmentNeverReplaysAfterReuse)
{
    // A committed tx leaves its records in the retired segment; 16
    // transactions later the segment is reused, crashes mid-tx, and
    // recovery must roll back ONLY the new transaction's records.
    pm::PmPool pool(64 << 20);
    LogicalClock clock;
    pm::PmContext ctx(pool, clock, 0, nullptr);
    mne::MnemosyneHeap heap(ctx, 0, 32 << 20, 1);
    const Addr a = heap.pmalloc(ctx, 64);
    const Addr b = heap.pmalloc(ctx, 64);

    for (unsigned i = 0; i <= mne::MnemosyneHeap::kLogSegments; i++) {
        mne::Transaction tx(heap, ctx);
        const std::uint64_t v = 100 + i;
        tx.update(a, &v, 8);
        tx.commit();
    }
    // Crash inside a fresh tx that reuses segment 0 and touches b.
    {
        auto *tx = new mne::Transaction(heap, ctx); // leaked: crash
        const std::uint64_t v = 999;
        tx->update(b, &v, 8);
        pool.crashHard();
        ctx.resetPendingState();
    }
    mne::MnemosyneHeap again(0, 32 << 20, 1);
    again.recover(ctx);
    // a keeps the last committed value; b was never committed.
    EXPECT_EQ(*pool.at<std::uint64_t>(a),
              100ull + mne::MnemosyneHeap::kLogSegments);
    EXPECT_EQ(*pool.at<std::uint64_t>(b), 0u);
}

// ------------------------------------------------------- abort paths

TEST(AbortPath, MnemosyneNestedFrees)
{
    pm::PmPool pool(64 << 20);
    LogicalClock clock;
    pm::PmContext ctx(pool, clock, 0, nullptr);
    mne::MnemosyneHeap heap(ctx, 0, 32 << 20, 1);
    const auto live_before = heap.allocator().stats().bytesLive;
    for (int i = 0; i < 20; i++) {
        mne::Transaction tx(heap, ctx);
        tx.pmalloc(64);
        tx.pmalloc(200);
        tx.abort();
    }
    EXPECT_EQ(heap.allocator().stats().bytesLive, live_before);
}

TEST(AbortPath, NvmlRestoresAcrossManyRanges)
{
    pm::PmPool pool(64 << 20);
    LogicalClock clock;
    pm::PmContext ctx(pool, clock, 0, nullptr);
    nvml::NvmlPool npool(ctx, 0, 48 << 20, 1);
    Addr obj;
    {
        nvml::TxContext tx(npool, ctx);
        obj = tx.txAlloc(512);
        std::vector<std::uint8_t> init(512, 0x5A);
        tx.directStore(obj, init.data(), init.size());
        tx.commit();
    }
    {
        nvml::TxContext tx(npool, ctx);
        // Snapshot + scribble over eight disjoint ranges.
        for (int r = 0; r < 8; r++) {
            tx.addRange(obj + r * 64, 32);
            std::vector<std::uint8_t> junk(32, 0xFF);
            ctx.store(obj + r * 64, junk.data(), junk.size());
        }
        tx.abort();
    }
    for (int i = 0; i < 512; i++)
        ASSERT_EQ(pool.archBase()[obj + i], 0x5A) << i;
}

// --------------------------------------------- multithreaded stress

TEST(Stress, SlabAllocatorParallelAllocFree)
{
    core::Runtime rt(128 << 20, 4);
    alloc::SlabAllocator slab(rt.ctx(0), 0, 96 << 20);
    std::vector<std::thread> threads;
    std::atomic<bool> failed{false};
    for (unsigned t = 0; t < 4; t++) {
        threads.emplace_back([&, t] {
            pm::PmContext &ctx = rt.ctx(t);
            Rng rng(t);
            std::vector<Addr> mine;
            for (int i = 0; i < 400; i++) {
                if (!mine.empty() && rng.chance(0.4)) {
                    slab.free(ctx, mine.back());
                    mine.pop_back();
                } else {
                    const Addr a =
                        slab.alloc(ctx, 32 + rng.next(400));
                    if (a == kNullAddr) {
                        failed = true;
                        return;
                    }
                    mine.push_back(a);
                }
            }
            for (const Addr a : mine)
                slab.free(ctx, a);
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_FALSE(failed);
    EXPECT_EQ(slab.stats().bytesLive, 0u);
}

TEST(Stress, PmfsParallelClients)
{
    core::Runtime rt(128 << 20, 4);
    pmfs::Pmfs fs(rt.ctx(0), 0, 96 << 20);
    fs.mkdir(rt.ctx(0), "/work");
    rt.runThreads(4, [&](pm::PmContext &ctx, ThreadId tid) {
        Rng rng(tid + 11);
        std::vector<std::uint8_t> buf(6000);
        for (auto &b : buf)
            b = static_cast<std::uint8_t>(rng());
        for (int i = 0; i < 30; i++) {
            const std::string path = "/work/t" + std::to_string(tid) +
                                     "_" + std::to_string(i);
            const pmfs::Ino ino = fs.create(ctx, path);
            ASSERT_NE(ino, pmfs::kInvalidIno);
            fs.write(ctx, ino, 0, buf.data(),
                     64 + rng.next(buf.size() - 64));
            if (i % 3 == 0)
                fs.unlink(ctx, path);
        }
    });
    std::string why;
    EXPECT_TRUE(fs.fsck(rt.ctx(0), &why)) << why;
    // 4 threads x 30 creates, every third removed.
    EXPECT_EQ(fs.readdir(rt.ctx(0), "/work").size(), 4u * 20u);
}

TEST(Stress, MnemosyneParallelTransactions)
{
    core::Runtime rt(128 << 20, 4);
    pm::PmContext &ctx0 = rt.ctx(0);
    mne::MnemosyneHeap heap(ctx0, 0, 96 << 20, 4);
    // One shared counter line per thread plus one global.
    const Addr cells = heap.pmalloc(ctx0, 5 * 64);
    const std::uint64_t zero = 0;
    for (int i = 0; i < 5; i++)
        ctx0.store(cells + i * 64, &zero, 8);
    ctx0.persist(cells, 5 * 64);

    std::mutex global_lock;
    rt.runThreads(4, [&](pm::PmContext &ctx, ThreadId tid) {
        for (int i = 0; i < 100; i++) {
            std::lock_guard<std::mutex> guard(global_lock);
            mne::Transaction tx(heap, ctx);
            auto *mine = ctx.pool().at<std::uint64_t>(
                cells + (tid + 1) * 64);
            auto *global = ctx.pool().at<std::uint64_t>(cells);
            tx.set(*mine, tx.get(*mine) + 1);
            tx.set(*global, tx.get(*global) + 1);
            tx.commit();
        }
    });
    std::uint64_t sum = 0;
    for (int t = 1; t <= 4; t++)
        sum += *rt.pool().at<std::uint64_t>(cells + t * 64);
    EXPECT_EQ(sum, 400u);
    EXPECT_EQ(*rt.pool().at<std::uint64_t>(cells), 400u);
}

// -------------------------------------- crash-model survival sweep

class SurvivalSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(SurvivalSweep, NvmlConsistentAtEverySurvivalRate)
{
    const double survival = GetParam() / 10.0;
    pm::PmPool pool(64 << 20);
    LogicalClock clock;
    pm::PmContext ctx(pool, clock, 0, nullptr);
    nvml::NvmlPool npool(ctx, 0, 48 << 20, 1);
    Addr obj;
    {
        nvml::TxContext tx(npool, ctx);
        obj = tx.txAlloc(128);
        std::uint64_t init[2] = {0, 0};
        tx.directStore(obj, init, sizeof(init));
        tx.commit();
    }
    for (int i = 0; i < 6; i++) {
        nvml::TxContext tx(npool, ctx);
        auto *a = pool.at<std::uint64_t>(obj);
        auto *b = pool.at<std::uint64_t>(obj + 8);
        tx.set(*a, static_cast<std::uint64_t>(i + 1));
        tx.set(*b, static_cast<std::uint64_t>(i + 1));
        tx.commit();
    }
    Rng rng(GetParam() * 31 + 7);
    pool.crash(rng, survival);
    ctx.resetPendingState();
    nvml::NvmlPool again(0, 48 << 20, 1);
    again.recover(ctx);
    EXPECT_EQ(*pool.at<std::uint64_t>(obj),
              *pool.at<std::uint64_t>(obj + 8));
    EXPECT_EQ(*pool.at<std::uint64_t>(obj), 6u);
}

INSTANTIATE_TEST_SUITE_P(Rates, SurvivalSweep,
                         ::testing::Range(0, 11));

// ----------------------------------------- analysis adversarial input

TEST(AnalysisEdge, InterleavedThreadsAttributeCorrectly)
{
    trace::TraceSet set;
    auto *b0 = set.createBuffer(0);
    auto *b1 = set.createBuffer(1);
    // Interleaved in time, but epochs are per-thread constructs.
    b0->push({10, 0, 8, trace::EventKind::PmStore,
              trace::DataClass::User, 0, 0});
    b1->push({11, 640, 8, trace::EventKind::PmStore,
              trace::DataClass::User, 0, 0});
    b0->push({12, 64, 8, trace::EventKind::PmStore,
              trace::DataClass::User, 0, 0});
    b1->push({13, 0, 0, trace::EventKind::Fence,
              trace::DataClass::None, 0, 0});
    b0->push({14, 0, 0, trace::EventKind::Fence,
              trace::DataClass::None, 0, 0});
    analysis::EpochBuilder builder(set);
    ASSERT_EQ(builder.epochCount(), 2u);
    std::vector<const analysis::Epoch *> t0, t1;
    for (const analysis::Epoch &ep : builder.epochs())
        (ep.tid == 0 ? t0 : t1).push_back(&ep);
    ASSERT_EQ(t0.size(), 1u);
    ASSERT_EQ(t1.size(), 1u);
    EXPECT_EQ(t0[0]->size(), 2u); // lines 0 and 1
    EXPECT_EQ(t1[0]->size(), 1u);
}

TEST(AnalysisEdge, AbortedTransactionsFlagged)
{
    trace::TraceSet set;
    auto *b = set.createBuffer(0);
    b->push({1, 7, 0, trace::EventKind::TxBegin,
             trace::DataClass::None, 0, 0});
    b->push({2, 0, 8, trace::EventKind::PmStore,
             trace::DataClass::User, 0, 0});
    b->push({3, 0, 0, trace::EventKind::Fence, trace::DataClass::None,
             0, 0});
    b->push({4, 7, 0, trace::EventKind::TxAbort,
             trace::DataClass::None, 0, 0});
    analysis::EpochBuilder builder(set);
    ASSERT_EQ(builder.transactions().size(), 1u);
    EXPECT_TRUE(builder.transactions()[0].aborted);
}

TEST(AnalysisEdge, ExactWindowBoundary)
{
    trace::TraceSet set;
    auto *b = set.createBuffer(0);
    b->push({1000, 0, 8, trace::EventKind::PmStore,
             trace::DataClass::User, 0, 0});
    b->push({1000, 0, 0, trace::EventKind::Fence,
             trace::DataClass::None, 0, 0});
    // Second epoch ends exactly kDependencyWindow later: inclusive.
    b->push({1000 + kDependencyWindow, 0, 8,
             trace::EventKind::PmStore, trace::DataClass::User, 0, 0});
    b->push({1000 + kDependencyWindow, 0, 0, trace::EventKind::Fence,
             trace::DataClass::None, 0, 0});
    analysis::EpochBuilder builder(set);
    const auto deps = analysis::analyzeDependencies(builder);
    EXPECT_EQ(deps.selfDependent, 1u);
}

} // namespace
} // namespace whisper
