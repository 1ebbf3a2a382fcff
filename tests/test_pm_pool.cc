/**
 * @file
 * Unit tests for the PM device model: durability of flush+fence and
 * NTI+fence, volatility of unfenced stores, crash injection.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "common/logical_clock.hh"
#include "pm/pm_context.hh"
#include "pm/pm_pool.hh"
#include "pm/poff.hh"
#include "resident.hh"

namespace whisper
{
namespace
{

struct PoolWorld
{
    pm::PmPool pool{1 << 20};
    LogicalClock clock;
    trace::TraceBuffer tb{0};
    pm::PmContext ctx{pool, clock, 0, &tb};
};

TEST(PmPool, StoreIsVisibleButNotDurable)
{
    PoolWorld w;
    const std::uint64_t v = 0xDEADBEEF;
    w.ctx.store(128, &v, 8);
    EXPECT_EQ(*w.pool.at<std::uint64_t>(128), v);
    EXPECT_EQ(*w.pool.durableAt<std::uint64_t>(128), 0u);
    EXPECT_TRUE(w.pool.lineDirty(lineOf(128)));
}

TEST(PmPool, FlushAloneIsNotDurable)
{
    PoolWorld w;
    const std::uint64_t v = 7;
    w.ctx.store(0, &v, 8);
    w.ctx.flush(0, 8);
    EXPECT_EQ(*w.pool.durableAt<std::uint64_t>(0), 0u);
}

TEST(PmPool, FlushPlusFenceIsDurable)
{
    PoolWorld w;
    const std::uint64_t v = 7;
    w.ctx.store(0, &v, 8);
    w.ctx.flush(0, 8);
    w.ctx.fence();
    EXPECT_EQ(*w.pool.durableAt<std::uint64_t>(0), 7u);
    EXPECT_FALSE(w.pool.lineDirty(0));
}

TEST(PmPool, FenceOnlyDrainsOwnThreadsFlushes)
{
    pm::PmPool pool(1 << 20);
    LogicalClock clock;
    trace::TraceBuffer tb0(0), tb1(1);
    pm::PmContext c0(pool, clock, 0, &tb0);
    pm::PmContext c1(pool, clock, 1, &tb1);
    const std::uint64_t v = 9;
    c0.store(0, &v, 8);
    c0.flush(0, 8);
    c1.fence(); // thread 1's fence must not drain thread 0's clwb
    EXPECT_EQ(*pool.durableAt<std::uint64_t>(0), 0u);
    c0.fence();
    EXPECT_EQ(*pool.durableAt<std::uint64_t>(0), 9u);
}

TEST(PmPool, NtStoreDurableAfterFence)
{
    PoolWorld w;
    const std::uint64_t v = 11;
    w.ctx.ntStore(256, &v, 8);
    EXPECT_EQ(*w.pool.at<std::uint64_t>(256), 11u);
    EXPECT_EQ(*w.pool.durableAt<std::uint64_t>(256), 0u);
    w.ctx.fence();
    EXPECT_EQ(*w.pool.durableAt<std::uint64_t>(256), 11u);
}

TEST(PmPool, CrashHardLosesUnfenced)
{
    PoolWorld w;
    const std::uint64_t a = 1, b = 2;
    w.ctx.store(0, &a, 8);
    w.ctx.flush(0, 8);
    w.ctx.fence();
    w.ctx.store(64, &b, 8); // never flushed/fenced
    w.pool.crashHard();
    EXPECT_EQ(*w.pool.at<std::uint64_t>(0), 1u);
    EXPECT_EQ(*w.pool.at<std::uint64_t>(64), 0u);
    EXPECT_EQ(w.pool.dirtyLineCount(), 0u);
}

TEST(PmPool, CrashWithFullSurvivalKeepsDirtyLines)
{
    PoolWorld w;
    const std::uint64_t b = 2;
    w.ctx.store(64, &b, 8);
    Rng rng(1);
    w.pool.crash(rng, 1.0); // every dirty line "was evicted in time"
    EXPECT_EQ(*w.pool.at<std::uint64_t>(64), 2u);
}

TEST(PmPool, CrashWithZeroSurvivalDropsDirtyLines)
{
    PoolWorld w;
    const std::uint64_t b = 2;
    w.ctx.store(64, &b, 8);
    Rng rng(1);
    w.pool.crash(rng, 0.0);
    EXPECT_EQ(*w.pool.at<std::uint64_t>(64), 0u);
}

TEST(PmPool, CrashOutcomeIsPerLine)
{
    // With survival 0.5 and many lines, some persist and some do not.
    PoolWorld w;
    for (Addr off = 0; off < 64 * 256; off += 64) {
        const std::uint64_t v = off + 1;
        w.ctx.store(off, &v, 8);
    }
    Rng rng(99);
    w.pool.crash(rng, 0.5);
    int kept = 0, lost = 0;
    for (Addr off = 0; off < 64 * 256; off += 64) {
        if (*w.pool.at<std::uint64_t>(off) == off + 1)
            kept++;
        else
            lost++;
    }
    EXPECT_GT(kept, 32);
    EXPECT_GT(lost, 32);
}

TEST(PmPool, CrashStatsCountSurvivorsSeparatelyFromEvictions)
{
    // Regression: crash() used to book surviving lines as
    // linesEvicted, conflating cache-pressure evictions with crash
    // luck and skewing any eviction-rate analysis.
    PoolWorld w;
    for (Addr off = 0; off < 64 * 8; off += 64) {
        const std::uint64_t v = off + 1;
        w.ctx.store(off, &v, 8);
    }
    const std::uint64_t evicted_before = w.pool.stats().linesEvicted;
    Rng rng(1);
    w.pool.crash(rng, 1.0); // all 8 dirty lines survive
    EXPECT_EQ(w.pool.stats().linesSurvivedCrash, 8u);
    EXPECT_EQ(w.pool.stats().linesEvicted, evicted_before);
    EXPECT_EQ(w.pool.stats().crashes, 1u);
}

TEST(PmPool, CrashHardSurvivesNothingAndBooksNothing)
{
    PoolWorld w;
    const std::uint64_t v = 7;
    w.ctx.store(0, &v, 8);
    w.pool.crashHard();
    EXPECT_EQ(w.pool.stats().linesSurvivedCrash, 0u);
    EXPECT_EQ(w.pool.stats().linesEvicted, 0u);
}

TEST(PmPool, CrashWithSurvivorsKeepsExactlyThatSet)
{
    PoolWorld w;
    for (Addr off = 0; off < 64 * 4; off += 64) {
        const std::uint64_t v = off + 1;
        w.ctx.store(off, &v, 8);
    }
    // Keep lines 0 and 2; line addresses are byte offsets / 64.
    w.pool.crashWithSurvivors({0, 2});
    EXPECT_EQ(*w.pool.at<std::uint64_t>(0), 1u);
    EXPECT_EQ(*w.pool.at<std::uint64_t>(64), 0u);
    EXPECT_EQ(*w.pool.at<std::uint64_t>(128), 129u);
    EXPECT_EQ(*w.pool.at<std::uint64_t>(192), 0u);
    EXPECT_EQ(w.pool.stats().linesSurvivedCrash, 2u);
    EXPECT_EQ(w.pool.dirtyLineCount(), 0u);
}

TEST(PmPool, PickSurvivorsIsSeedDeterministic)
{
    PoolWorld w;
    for (Addr off = 0; off < 64 * 64; off += 64) {
        const std::uint64_t v = off + 1;
        w.ctx.store(off, &v, 8);
    }
    Rng rng_a(42), rng_b(42);
    const auto a = w.pool.pickSurvivors(rng_a, 0.5);
    const auto b = w.pool.pickSurvivors(rng_b, 0.5);
    EXPECT_EQ(a, b);
    EXPECT_GT(a.size(), 0u);
    EXPECT_LT(a.size(), 64u);
}

TEST(PmPool, PersistRangeSpansLines)
{
    PoolWorld w;
    std::uint8_t buf[200];
    std::fill(buf, buf + sizeof(buf), 0xAB);
    w.ctx.store(60, buf, sizeof(buf)); // spans 4+ lines
    w.pool.persistRange(60, sizeof(buf));
    for (std::size_t i = 0; i < sizeof(buf); i++)
        EXPECT_EQ(w.pool.durableBase()[60 + i], 0xAB);
}

TEST(PmPool, OffsetOfRoundTrips)
{
    PoolWorld w;
    auto *p = w.pool.at<std::uint32_t>(4096);
    EXPECT_EQ(w.pool.offsetOf(p), 4096u);
    EXPECT_TRUE(w.pool.contains(p));
    int local = 0;
    EXPECT_FALSE(w.pool.contains(&local));
}

TEST(PmPool, EvictRandomLinesPersistsSome)
{
    PoolWorld w;
    const std::uint64_t v = 3;
    for (Addr off = 0; off < 64 * 64; off += 64)
        w.ctx.store(off, &v, 8);
    Rng rng(5);
    w.pool.evictRandomLines(rng, 5000);
    EXPECT_LT(w.pool.dirtyLineCount(), 64u);
}

TEST(PmPool, ConcurrentOpsOnSharedLockLines)
{
    // Every 8-byte word a thread writes is (n << 32 | n): a torn read
    // shows halves that differ.
    const auto word = [](std::uint64_t n) { return n << 32 | n; };
    const auto torn = [](std::uint64_t v) { return v >> 32 != (v & ~0u); };
    const auto at = [](LineAddr line) { return line << kCacheLineBits; };

    // One 4 KiB page is 64 lines, whose lock bytes fill one cache
    // line. Both regions start and end mid-page, and each CAS slot
    // line shares its page with a region's edge line.
    pm::PmPool pool(1 << 20);
    constexpr std::size_t kRegionLines = 1024;
    constexpr LineAddr kRegionFirst[2] = {32, 4 * kRegionLines + 32};
    const std::vector<Addr> slots = {
        at(kRegionFirst[0] - 1), at(kRegionFirst[0] - 1) + 24,
        at(kRegionFirst[1] + kRegionLines),
        at(kRegionFirst[1] + kRegionLines) + 24};
    // Eight lines across the edge of pages 127 and 128: the store and
    // the loads inside it lock lines of two lock lines.
    constexpr LineAddr kStraddleFirst = 8188;
    constexpr std::size_t kStraddleLines = 8;

    constexpr std::uint64_t kCasRounds = 20000;
    constexpr std::uint64_t kStoreRounds = 5000;
    constexpr int kThreads = 4 + 2 + 1 + 1;
    std::atomic<bool> failed{false};
    std::atomic<int> started{0};
    std::atomic<int> finished{0};
    std::atomic<int> regionWritersDone{0};
    std::atomic<bool> straddleDone{false};
    std::uint64_t straddleRounds = 0;
    // Every thread starts its loop once all are running.
    const auto startTogether = [&] {
        started++;
        while (started.load() < kThreads)
            std::this_thread::yield();
    };
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < slots.size(); t++) {
        threads.emplace_back([&, t] {
            startTogether();
            const Addr mine = slots[t];
            const Addr other = slots[(t + 1) % slots.size()];
            std::uint64_t seen = 0;
            for (std::uint64_t n = 0; n < kCasRounds; n++) {
                // The owner is the slot's only writer: every CAS wins.
                if (!pool.applyCas64(mine, word(n), word(n + 1)))
                    failed = true;
                std::uint64_t v = 0;
                pool.applyLoad(other, &v, 8);
                if (torn(v) || v < seen)
                    failed = true;
                seen = v;
            }
            finished++;
        });
    }
    for (const LineAddr first : kRegionFirst) {
        threads.emplace_back([&, first] {
            startTogether();
            std::vector<std::uint64_t> buf(kRegionLines * 8);
            for (std::uint64_t n = 1; n <= kStoreRounds; n++) {
                std::fill(buf.begin(), buf.end(), word(n));
                pool.applyStore(at(first), buf.data(), buf.size() * 8);
            }
            regionWritersDone++;
            finished++;
        });
    }
    threads.emplace_back([&] {
        // Keeps storing while the regions do, so loads keep meeting it.
        startTogether();
        std::vector<std::uint64_t> buf(kStraddleLines * 8);
        std::uint64_t n = 1;
        for (;; n++) {
            std::fill(buf.begin(), buf.end(), word(n));
            pool.applyStore(at(kStraddleFirst), buf.data(),
                            buf.size() * 8);
            if (n >= kStoreRounds && regionWritersDone.load() == 2)
                break;
        }
        straddleRounds = n;
        straddleDone = true;
        finished++;
    });
    threads.emplace_back([&] {
        // A load that starts inside a store (so its first line is not
        // the store's) sees one whole store. A reader that starts
        // behind a store's copy and overtakes it would see new lines,
        // then old ones. Loads of half a region and four-line loads
        // across the page edge take turns.
        startTogether();
        std::vector<std::uint64_t> buf(kRegionLines / 2 * 8);
        for (std::uint64_t n = 0;
             regionWritersDone.load() < 2 || !straddleDone.load(); n++) {
            Addr off;
            std::size_t words;
            if (n % 3 < 2) {
                off = at(kRegionFirst[n % 3] + 1 + n % (kRegionLines / 2));
                words = buf.size();
            } else {
                off = at(kStraddleFirst + 1 + n / 3 % 3);
                words = 4 * 8;
            }
            pool.applyLoad(off, buf.data(), words * 8);
            for (std::size_t i = 0; i < words; i++) {
                if (torn(buf[i]) || buf[i] != buf[0])
                    failed = true;
            }
        }
        finished++;
    });
    // Lines locked out of the one order can deadlock: fail, not hang.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    while (finished.load() < kThreads) {
        if (std::chrono::steady_clock::now() > deadline) {
            std::fprintf(stderr, "ConcurrentOpsOnSharedLockLines: %d of "
                                 "%d threads still locked after 120 s\n",
                         kThreads - finished.load(), kThreads);
            std::abort();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (std::thread &th : threads)
        th.join();

    EXPECT_FALSE(failed);
    for (const Addr slot : slots)
        EXPECT_EQ(*pool.at<std::uint64_t>(slot), word(kCasRounds));
    for (const LineAddr first : kRegionFirst) {
        for (std::size_t i = 0; i < kRegionLines * 8; i++)
            ASSERT_EQ(*pool.at<std::uint64_t>(at(first) + i * 8),
                      word(kStoreRounds)) << first << "+" << i * 8;
    }
    for (std::size_t i = 0; i < kStraddleLines * 8; i++)
        ASSERT_EQ(*pool.at<std::uint64_t>(at(kStraddleFirst) + i * 8),
                  word(straddleRounds)) << i * 8;
}

TEST(PmPool, PersistCountsExactAcrossThreads)
{
    pm::PmPool pool(1 << 20);
    LogicalClock clock;
    constexpr unsigned kThreads = 4;
    constexpr LineAddr kLines = 1000;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            pm::PmContext ctx(pool, clock, t);
            for (LineAddr i = 0; i < kLines; i++) {
                const Addr off = (t * kLines + i) << kCacheLineBits;
                const std::uint64_t v = off + 1;
                ctx.store(off, &v, 8);
                ctx.persist(off, 8);
            }
        });
    }
    for (std::thread &th : threads)
        th.join();

    std::array<std::uint64_t, kMaxDimms> want{};
    for (LineAddr line = 0; line < kThreads * kLines; line++)
        want[pool.dimmOf(line << kCacheLineBits)]++;
    const pm::PoolStats stats = pool.stats();
    EXPECT_EQ(stats.linesPersisted, kThreads * kLines);
    EXPECT_EQ(stats.dimmLinesPersisted, want);
    EXPECT_EQ(std::accumulate(stats.dimmLinesPersisted.begin(),
                              stats.dimmLinesPersisted.end(),
                              std::uint64_t(0)),
              stats.linesPersisted);
    EXPECT_EQ(pool.dirtyLineCount(), 0u);
}

TEST(PmPool, PersistCountsSurviveContextTeardown)
{
    // Contexts fold their counts into the pool when destroyed; the
    // pool's own block counts direct persists, evictions and crash
    // survivals. The sum must match a count of every persisted line.
    pm::PmPool pool(1 << 20);
    LogicalClock clock;
    constexpr unsigned kThreads = 4;
    constexpr LineAddr kLines = 300;
    std::array<std::uint64_t, kMaxDimms> want{};
    const auto count = [&](LineAddr line) {
        want[pool.dimmOf(line << kCacheLineBits)]++;
    };
    const std::uint64_t v = 0x1234;
    {
        std::vector<std::thread> threads;
        for (unsigned t = 0; t < kThreads; t++) {
            threads.emplace_back([&, t] {
                pm::PmContext ctx(pool, clock, t);
                // Every even line persisted, every odd one left dirty.
                for (LineAddr i = 0; i < kLines; i++) {
                    const Addr off = (t * kLines + i) << kCacheLineBits;
                    ctx.store(off, &v, 8);
                    if (i % 2 == 0)
                        ctx.persist(off, 8);
                }
            });
        }
        for (std::thread &th : threads)
            th.join();
    }
    for (LineAddr line = 0; line < kThreads * kLines; line += 2)
        count(line);
    EXPECT_EQ(pool.stats().dimmLinesPersisted, want);

    // Direct persists of a few dirty lines.
    for (const LineAddr line : {LineAddr(1), LineAddr(301), LineAddr(777)}) {
        ASSERT_TRUE(pool.lineDirty(line));
        pool.persistLine(line);
        count(line);
    }

    // Evictions: replay the draws over the dirty set.
    std::set<LineAddr> dirty;
    for (const LineAddr line : pool.dirtyLines())
        dirty.insert(line);
    Rng replay(99);
    for (int i = 0; i < 20000; i++) {
        const LineAddr line = replay.next(pool.lineCount());
        if (dirty.erase(line))
            count(line);
    }
    Rng rng(99);
    pool.evictRandomLines(rng, 20000);
    ASSERT_EQ(pool.dirtyLines(),
              std::vector<LineAddr>(dirty.begin(), dirty.end()));

    // Crash survivals: every other dirty line, plus clean ones (which
    // a crash skips).
    std::vector<LineAddr> survivors;
    for (LineAddr line = 0; line < kThreads * kLines; line++) {
        if (line % 4 == 1 || line % 4 == 2)
            survivors.push_back(line);
    }
    for (const LineAddr line : survivors) {
        if (dirty.count(line))
            count(line);
    }
    pool.crashWithSurvivors(survivors);

    const pm::PoolStats stats = pool.stats();
    EXPECT_EQ(stats.dimmLinesPersisted, want);
    EXPECT_EQ(stats.linesPersisted,
              std::accumulate(want.begin(), want.end(), std::uint64_t(0)));
    EXPECT_GT(stats.linesEvicted, 0u);
    EXPECT_GT(stats.linesSurvivedCrash, 0u);
    EXPECT_EQ(pool.dirtyLineCount(), 0u);
}

TEST(PmContext, SplitClockAdvancesOnlyItsOwnClock)
{
    pm::PmPool pool(1 << 20);
    LogicalClock shared;
    constexpr Tick kBase = 1000;
    shared.reset(kBase);
    constexpr unsigned kThreads = 4;
    constexpr unsigned kRounds = 1000;
    std::vector<std::unique_ptr<pm::PmContext>> ctxs;
    for (unsigned t = 0; t < kThreads; t++) {
        ctxs.push_back(std::make_unique<pm::PmContext>(pool, shared, t));
        ctxs.back()->splitClock();
    }

    // One round: store, load, flush, fence, vBurst, compute(t + 1).
    const auto roundCost = [](unsigned t) {
        return LogicalClock::kStoreCost + LogicalClock::kLoadCost +
               LogicalClock::kFlushCost + LogicalClock::kFenceCost +
               2 * LogicalClock::kLoadCost + (t + 1);
    };
    std::atomic<unsigned> done{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            pm::PmContext &ctx = *ctxs[t];
            std::uint64_t scratch[8] = {};
            for (unsigned i = 0; i < kRounds; i++) {
                const Addr off =
                    static_cast<Addr>(t * kRounds + i) << kCacheLineBits;
                const std::uint64_t v = off + t;
                ctx.store(off, &v, 8);
                std::uint64_t back = 0;
                ctx.load(off, &back, 8);
                ctx.persist(off, 8);
                ctx.vBurst(scratch, sizeof(scratch), 1, 1);
                ctx.compute(t + 1);
            }
            done++;
        });
    }
    // Other threads may read a split clock while its owner writes it.
    std::vector<Tick> seen(kThreads, kBase);
    while (done.load() < kThreads) {
        for (unsigned t = 0; t < kThreads; t++) {
            const Tick now = ctxs[t]->now();
            EXPECT_GE(now, seen[t]);
            seen[t] = now;
        }
    }
    for (std::thread &th : threads)
        th.join();

    for (unsigned t = 0; t < kThreads; t++) {
        EXPECT_EQ(ctxs[t]->localTicks(), kRounds * roundCost(t)) << t;
        EXPECT_EQ(ctxs[t]->now(), kBase + kRounds * roundCost(t)) << t;
    }
    EXPECT_EQ(shared.now(), kBase);
}

TEST(PmContext, LongFlushAbsorbsOverlappingReflushes)
{
    PoolWorld w;
    constexpr LineAddr kFirst = 10;
    constexpr LineAddr kLines = 2100;
    std::vector<std::uint8_t> bytes(kLines * kCacheLineSize, 0x5a);
    w.ctx.store(kFirst << kCacheLineBits, bytes.data(), bytes.size());
    const auto flushLines = [&](LineAddr first, LineAddr n) {
        w.ctx.flush(first << kCacheLineBits, n * kCacheLineSize);
    };
    flushLines(kFirst, kLines);
    flushLines(5, 20);           // lines 5..9 new, 10..24 absorbed
    flushLines(1000, 1);         // absorbed
    flushLines(kFirst + kLines - 3, 6); // the top 3 absorbed, 3 new
    flushLines(7, 1);            // absorbed below the top

    std::vector<LineAddr> want(kLines);
    std::iota(want.begin(), want.end(), kFirst);
    for (LineAddr line = 5; line < kFirst; line++)
        want.push_back(line);
    for (LineAddr i = 0; i < 3; i++)
        want.push_back(kFirst + kLines + i);
    EXPECT_EQ(w.ctx.pendingFlushes(), want);

    std::size_t flushEvents = 0;
    for (std::size_t i = 0; i < w.tb.size(); i++)
        flushEvents += w.tb.at(i).kind == trace::EventKind::PmFlush;
    EXPECT_EQ(flushEvents, want.size());

    const std::uint64_t before = w.pool.stats().linesPersisted;
    w.ctx.fence(pm::FenceKind::Durability);
    EXPECT_EQ(w.pool.stats().linesPersisted - before, want.size());
    EXPECT_TRUE(w.ctx.pendingFlushes().empty());
    EXPECT_EQ(w.pool.dirtyLineCount(), 0u);
    EXPECT_EQ(std::memcmp(w.pool.durableBase() + (kFirst << kCacheLineBits),
                          bytes.data(), bytes.size()),
              0);

    // The next interval starts empty: a line below the old top is new.
    flushLines(kFirst, 1);
    EXPECT_EQ(w.ctx.pendingFlushes(), std::vector<LineAddr>{kFirst});
}

TEST(PmContext, PersistHelper)
{
    PoolWorld w;
    const std::uint64_t v = 21;
    w.ctx.store(512, &v, 8);
    w.ctx.persist(512, 8);
    EXPECT_EQ(*w.pool.durableAt<std::uint64_t>(512), 21u);
}

TEST(PmContext, StoreFieldAndLoadField)
{
    PoolWorld w;
    struct Rec { std::uint64_t a; std::uint64_t b; };
    auto *rec = w.pool.at<Rec>(1024);
    w.ctx.storeField(rec->b, std::uint64_t{77});
    EXPECT_EQ(w.ctx.loadField(rec->b), 77u);
    EXPECT_EQ(w.ctx.loadField(rec->a), 0u);
}

TEST(PmContext, TraceEventsEmitted)
{
    PoolWorld w;
    const std::uint64_t v = 1;
    w.ctx.store(0, &v, 8);
    w.ctx.flush(0, 8);
    w.ctx.fence(pm::FenceKind::Durability);
    ASSERT_EQ(w.tb.size(), 3u);
    EXPECT_EQ(w.tb.at(0).kind, trace::EventKind::PmStore);
    EXPECT_EQ(w.tb.at(1).kind, trace::EventKind::PmFlush);
    EXPECT_EQ(w.tb.at(2).kind, trace::EventKind::Fence);
    EXPECT_EQ(w.tb.at(2).fenceKind(), trace::FenceKind::Durability);
    EXPECT_LT(w.tb.at(0).ts, w.tb.at(1).ts);
    EXPECT_LT(w.tb.at(1).ts, w.tb.at(2).ts);
}

TEST(PmContext, DramBurstStaysInItsBuffersPages)
{
    // Two 16 KiB buffers, page aligned, with a gap between them.
    std::vector<char> mem(13 * 4096);
    const std::uintptr_t aligned =
        (reinterpret_cast<std::uintptr_t>(mem.data()) + 4095) &
        ~std::uintptr_t(4095);
    char *a = reinterpret_cast<char *>(aligned);
    char *b = a + 8 * 4096;

    pm::PmPool pool{1 << 20};
    LogicalClock clock;
    trace::TraceBuffer tb{0, true};
    pm::PmContext ctx{pool, clock, 0, &tb};
    const auto pagesOf = [&](std::size_t from) {
        std::set<Addr> pages;
        for (std::size_t i = from; i < tb.size(); i++)
            pages.insert(tb.at(i).addr >> 12);
        return pages;
    };
    ctx.vBurst(a, 1 << 14, 300, 100);
    const std::set<Addr> pagesA = pagesOf(0);
    std::size_t seen = tb.size();
    ctx.vBurst(b, 1 << 14, 300, 100);
    const std::set<Addr> pagesB = pagesOf(seen);
    EXPECT_EQ(pagesA.size(), 4u);
    EXPECT_EQ(pagesB.size(), 4u);
    for (const Addr page : pagesB)
        EXPECT_EQ(pagesA.count(page), 0u) << "page " << page;

    // A later plain access to a's last page lands on a burst-a page.
    seen = tb.size();
    ctx.vLoad(a + 3 * 4096 + 8, 8);
    EXPECT_EQ(pagesA.count(*pagesOf(seen).begin()), 1u);
}

TEST(POff, NullAndDeref)
{
    PoolWorld w;
    pm::POff<std::uint64_t> p;
    EXPECT_TRUE(p.isNull());
    p = pm::POff<std::uint64_t>(64);
    EXPECT_FALSE(p.isNull());
    *p.get(w.pool) = 5;
    EXPECT_EQ(*w.pool.at<std::uint64_t>(64), 5u);
    // Zero-filled PM is not a valid pointer.
    EXPECT_NE(pm::POff<std::uint64_t>(0), pm::POff<std::uint64_t>());
}

TEST(PmPool, BoundsViolationPanics)
{
    pm::PmPool pool(4096);
    EXPECT_DEATH(pool.at<std::uint64_t>(4095), "outside pool");
}

TEST(PmPool, PoisonedLineRaisesMediaErrorUntilScrubbed)
{
    PoolWorld w;
    const std::uint64_t v = 9;
    w.ctx.store(256, &v, 8);
    w.ctx.flush(256, 8);
    w.ctx.fence();

    w.pool.poisonLine(lineOf(256));
    EXPECT_TRUE(w.pool.linePoisoned(lineOf(256)));
    std::uint64_t out = 0;
    EXPECT_THROW(w.ctx.load(256, &out, 8), pm::PmMediaError);
    EXPECT_GE(w.pool.stats().mediaErrors, 1u);

    w.pool.scrubLine(lineOf(256));
    EXPECT_FALSE(w.pool.linePoisoned(lineOf(256)));
    EXPECT_GE(w.pool.stats().linesScrubbed, 1u);
    // A scrubbed line reads zero from both images: content is gone.
    out = ~std::uint64_t(0);
    w.ctx.load(256, &out, 8);
    EXPECT_EQ(out, 0u);
    EXPECT_EQ(*w.pool.durableAt<std::uint64_t>(256), 0u);
}

TEST(PmPool, StoreReprogramsPoisonedLine)
{
    PoolWorld w;
    w.pool.poisonLine(lineOf(512));
    const std::uint64_t v = 0xABCD;
    w.ctx.store(512, &v, 8);
    EXPECT_FALSE(w.pool.linePoisoned(lineOf(512)));
    EXPECT_GE(w.pool.stats().poisonCleared, 1u);
    std::uint64_t out = 0;
    w.ctx.load(512, &out, 8); // no throw: the line was re-programmed
    EXPECT_EQ(out, v);
}

TEST(PmPool, CrashWithFaultsTearsAtWordGranularity)
{
    PoolWorld w;
    std::uint64_t words[8];
    for (std::uint64_t i = 0; i < 8; i++)
        words[i] = 100 + i;
    w.ctx.store(0, words, sizeof(words));

    // Persist only words 0, 2 and 7 of the surviving line.
    pm::FaultResolution faults;
    faults.torn.push_back({0, 0b10000101});
    w.pool.crashWithFaults({0}, faults);

    for (std::uint64_t i = 0; i < 8; i++) {
        const std::uint64_t expect =
            (i == 0 || i == 2 || i == 7) ? 100 + i : 0;
        EXPECT_EQ(*w.pool.at<std::uint64_t>(i * 8), expect) << i;
    }
    EXPECT_EQ(w.pool.stats().linesTorn, 1u);
}

TEST(PmPool, CrashWithFaultsPoisonsLinesOutright)
{
    PoolWorld w;
    const std::uint64_t v = 41;
    w.ctx.store(64, &v, 8);

    pm::FaultResolution faults;
    faults.poisoned.push_back(lineOf(64));
    w.pool.crashWithFaults({lineOf(64)}, faults);

    EXPECT_TRUE(w.pool.linePoisoned(lineOf(64)));
    EXPECT_EQ(w.pool.poisonedLines(),
              std::vector<LineAddr>{lineOf(64)});
    std::uint64_t out = 0;
    EXPECT_THROW(w.ctx.load(64, &out, 8), pm::PmMediaError);
    EXPECT_EQ(w.pool.stats().linesPoisoned, 1u);
}

TEST(PmPool, ResolveFaultsIsDeterministicAndBounded)
{
    PoolWorld w;
    std::vector<LineAddr> survivors;
    for (Addr off = 0; off < 64 * 64; off += 64) {
        const std::uint64_t v = off + 1;
        w.ctx.store(off, &v, 8);
        if ((off / 64) % 2 == 0)
            survivors.push_back(lineOf(off));
    }
    pm::FaultPlan plan;
    plan.seed = 0x5eed;
    plan.poisonCount = 3;
    plan.tearProb = 0.5;

    const pm::FaultResolution a = w.pool.resolveFaults(plan, survivors);
    const pm::FaultResolution b = w.pool.resolveFaults(plan, survivors);
    ASSERT_EQ(a.poisoned.size(), b.poisoned.size());
    EXPECT_EQ(a.poisoned, b.poisoned);
    ASSERT_EQ(a.torn.size(), b.torn.size());
    for (std::size_t i = 0; i < a.torn.size(); i++) {
        EXPECT_EQ(a.torn[i].line, b.torn[i].line);
        EXPECT_EQ(a.torn[i].mask, b.torn[i].mask);
    }

    // Bounds: at most poisonCount poisoned lines, all from the dirty
    // set; torn lines are survivors not also poisoned, with masks
    // that neither persist nor drop the whole line.
    EXPECT_LE(a.poisoned.size(), plan.poisonCount);
    for (const pm::TornLine &t : a.torn) {
        EXPECT_NE(t.mask, 0u);
        EXPECT_NE(t.mask, 0xFFu);
        EXPECT_TRUE(std::find(survivors.begin(), survivors.end(),
                              t.line) != survivors.end());
        EXPECT_TRUE(std::find(a.poisoned.begin(), a.poisoned.end(),
                              t.line) == a.poisoned.end());
    }
    // A different seed resolves differently (overwhelmingly likely
    // with 32 survivors at 50% tear).
    plan.seed = 0x5eee;
    const pm::FaultResolution c = w.pool.resolveFaults(plan, survivors);
    EXPECT_TRUE(c.poisoned != a.poisoned || c.torn.size() !=
                a.torn.size());
}

TEST(PmPool, TransientFaultsRetryInvisibly)
{
    PoolWorld w;
    const std::uint64_t v = 77;
    w.ctx.store(128, &v, 8);
    pm::FaultPlan plan;
    plan.seed = 1;
    plan.transientEvery = 3;
    w.pool.setFaultPlan(plan);

    std::uint64_t out = 0;
    for (int i = 0; i < 12; i++) {
        w.ctx.load(128, &out, 8); // never throws: retries succeed
        EXPECT_EQ(out, v);
    }
    EXPECT_GE(w.pool.stats().transientFaults, 3u);
    EXPECT_EQ(w.pool.stats().mediaErrors, 0u);
}

TEST(PmPool, ConstructionTouchesOnlyWrittenPages)
{
    // The images and line arrays are kernel-zeroed on first touch: a
    // 1 GiB pool costs resident memory only for the pages written.
    constexpr std::size_t kLimit = 16 << 20;
    const std::size_t before = residentBytes();
    ASSERT_GT(before, 0u) << "no VmRSS in /proc/self/status";
    auto pool = std::make_unique<pm::PmPool>(std::size_t(1) << 30);
    EXPECT_LT(residentBytes(), before + kLimit);

    const std::uint64_t v = 0x5ca77e7ed;
    for (const Addr off : {Addr(4096), Addr(300) << 20, Addr(1000) << 20})
        pool->applyStore(off, &v, sizeof(v));
    pool->crashHard();
    EXPECT_LT(residentBytes(), before + kLimit);
    EXPECT_EQ(*pool->at<std::uint64_t>(Addr(300) << 20), 0u);
    EXPECT_EQ(pool->dirtyLineCount(), 0u);
}

TEST(PmPool, TouchedWalksMatchFullScan)
{
    // Not a multiple of 4 KiB: the last page is short and its last
    // line holds 40 bytes.
    constexpr std::size_t kSize = (std::size_t(1) << 20) + 3 * 64 + 40;
    pm::PmPool pool(kSize);
    const LineAddr lines = pool.lineCount();
    ASSERT_EQ(lines, (kSize + 63) / 64);

    // The first and last lines, and lines on both sides of page edges
    // (64 lines to a 4 KiB page).
    const std::vector<LineAddr> written = {
        0, 63, 64, 127, 128, 191, 4095, 4096, 8191, lines - 2, lines - 1};
    for (const LineAddr line : written) {
        const Addr off = line << kCacheLineBits;
        const std::uint64_t v = line + 1;
        pool.applyStore(off, &v, sizeof(v));
    }
    std::uint64_t cas_old = 0;
    ASSERT_TRUE(pool.applyCas64(Addr(1000) << kCacheLineBits, cas_old,
                                0xca5));
    // Persist some so the dirty set is a strict subset of the written.
    pool.persistLine(63);
    pool.persistLine(4096);
    // Poison and scrub lines of pages nothing was stored to.
    pool.poisonLine(640);
    pool.poisonLine(2000);
    pool.scrubLine(2000);

    auto dirty_scan = [&] {
        std::vector<LineAddr> out;
        for (LineAddr l = 0; l < lines; l++)
            if (pool.lineDirty(l))
                out.push_back(l);
        return out;
    };
    auto poisoned_scan = [&] {
        std::vector<LineAddr> out;
        for (LineAddr l = 0; l < lines; l++)
            if (pool.linePoisoned(l))
                out.push_back(l);
        return out;
    };
    const std::vector<LineAddr> dirty = dirty_scan();
    EXPECT_EQ(dirty.size(), written.size() - 2 + 1);
    EXPECT_EQ(pool.dirtyLines(), dirty);
    EXPECT_EQ(pool.dirtyLineCount(), dirty.size());
    EXPECT_EQ(pool.poisonedLines(), poisoned_scan());
    EXPECT_EQ(pool.poisonedLines(), std::vector<LineAddr>{640});

    // The same draws as one rng.chance per dirty line, ascending.
    Rng walk(0xd1ce), scan(0xd1ce);
    const std::vector<LineAddr> survivors = pool.pickSurvivors(walk, 0.5);
    std::vector<LineAddr> expect;
    for (LineAddr l = 0; l < lines; l++)
        if (pool.lineDirty(l) && scan.chance(0.5))
            expect.push_back(l);
    EXPECT_EQ(survivors, expect);
    EXPECT_EQ(walk(), scan());
    ASSERT_GE(survivors.size(), 2u);

    // Tear the first survivor, poison the last one and a clean line.
    pm::FaultResolution faults;
    faults.torn.push_back({survivors.front(), 0b00000110});
    faults.poisoned = {survivors.back(), 4096};
    std::sort(faults.poisoned.begin(), faults.poisoned.end());
    pool.crashWithFaults(survivors, faults);
    EXPECT_EQ(std::memcmp(pool.archBase(), pool.durableBase(), kSize), 0);
    EXPECT_EQ(pool.dirtyLineCount(), 0u);
    EXPECT_EQ(dirty_scan(), std::vector<LineAddr>{});
    EXPECT_EQ(pool.poisonedLines(), poisoned_scan());
    EXPECT_EQ(pool.stats().linesTorn, 1u);
}

} // namespace
} // namespace whisper
