/**
 * @file
 * Trace-driven fence/flush optimizer tests: golden traces pinning
 * each redundancy category, determinism across job counts, agreement
 * with the runtime's flush dedupe, and the elision-enabled crashfuzz
 * smokes proving the suppressed operations were really redundant.
 */

#include <gtest/gtest.h>

#include <thread>

#include "analysis/optimize.hh"
#include "core/harness.hh"
#include "fuzz/crash_fuzz.hh"

namespace whisper::analysis
{
namespace
{

using trace::DataClass;
using trace::EventKind;
using trace::FenceKind;
using trace::TraceEvent;
using trace::TraceSet;

TraceEvent
ev(Tick ts, EventKind kind, Addr addr = 0, std::uint32_t size = 8,
   DataClass cls = DataClass::User, std::uint8_t aux = 0)
{
    return TraceEvent{ts, addr, size, kind, cls, aux, 0};
}

TraceEvent
dfence(Tick ts)
{
    return ev(ts, EventKind::Fence, 0, 0, DataClass::User,
              static_cast<std::uint8_t>(FenceKind::Durability));
}

TraceEvent
ofence(Tick ts)
{
    return ev(ts, EventKind::Fence, 0, 0, DataClass::User,
              static_cast<std::uint8_t>(FenceKind::Ordering));
}

OptimizeSummary
classify(const TraceSet &set)
{
    return optimizeTraces(set).summary;
}

TEST(Optimize, FlushRedirtiedBeforeFence)
{
    // (a): the flushed line is stored again before the fence, so the
    // queued writeback persists bytes that are already stale.
    TraceSet set;
    auto *b = set.createBuffer(0);
    b->push(ev(1, EventKind::PmStore, 0));
    b->push(ev(2, EventKind::PmFlush, 0, 64));
    b->push(ev(3, EventKind::PmStore, 0));
    b->push(dfence(4));

    const OptimizeSummary s = classify(set);
    EXPECT_EQ(s.totalFlushes, 1u);
    EXPECT_EQ(s.flushRedirtied, 1u);
    EXPECT_EQ(s.flushClean, 0u);
    EXPECT_EQ(s.redundantFlushes(), 1u);
}

TEST(Optimize, FlushRequiredWhenFenceDrainsFirst)
{
    // The same re-store after the fence is NOT redundant: the flush
    // persisted the first value before the overwrite.
    TraceSet set;
    auto *b = set.createBuffer(0);
    b->push(ev(1, EventKind::PmStore, 0));
    b->push(ev(2, EventKind::PmFlush, 0, 64));
    b->push(dfence(3));
    b->push(ev(4, EventKind::PmStore, 0));
    b->push(ev(5, EventKind::PmFlush, 0, 64));
    b->push(dfence(6));

    const OptimizeSummary s = classify(set);
    EXPECT_EQ(s.totalFlushes, 2u);
    EXPECT_EQ(s.redundantFlushes(), 0u);
}

TEST(Optimize, FlushOfCleanLine)
{
    // (b): re-flushing a line the previous fence already persisted
    // (and flushing a never-stored line) moves no new bytes.
    TraceSet set;
    auto *b = set.createBuffer(0);
    b->push(ev(1, EventKind::PmStore, 0));
    b->push(ev(2, EventKind::PmFlush, 0, 64));
    b->push(dfence(3));
    b->push(ev(4, EventKind::PmFlush, 0, 64));   // already persisted
    b->push(ev(5, EventKind::PmFlush, 128, 64)); // never stored
    b->push(dfence(6));

    const OptimizeSummary s = classify(set);
    EXPECT_EQ(s.totalFlushes, 3u);
    EXPECT_EQ(s.flushClean, 2u);
    EXPECT_EQ(s.flushRedirtied, 0u);
}

TEST(Optimize, OrderingFenceWithoutConflict)
{
    // (c): the epochs around the first fence touch disjoint lines, so
    // the second fence subsumes it. The trailing epoch re-touches the
    // second fence's line, keeping that one required.
    TraceSet set;
    auto *b = set.createBuffer(0);
    b->push(ev(1, EventKind::PmStore, 0));
    b->push(ofence(2));
    b->push(ev(3, EventKind::PmStore, 64));
    b->push(ofence(4));
    b->push(ev(5, EventKind::PmStore, 64));

    const OptimizeSummary s = classify(set);
    EXPECT_EQ(s.totalFences, 2u);
    EXPECT_EQ(s.fenceNoConflict, 1u);
    EXPECT_EQ(s.fenceCoalescible, 0u);
}

TEST(Optimize, OrderingFenceWithConflictIsRequired)
{
    TraceSet set;
    auto *b = set.createBuffer(0);
    b->push(ev(1, EventKind::PmStore, 0));
    b->push(ofence(2));
    b->push(ev(3, EventKind::PmStore, 0)); // same line: real ordering
    const OptimizeSummary s = classify(set);
    EXPECT_EQ(s.totalFences, 1u);
    EXPECT_EQ(s.fenceNoConflict, 0u);
}

TEST(Optimize, CoalescibleDurabilityPair)
{
    // (d): back-to-back durability fences inside one transaction with
    // nothing between them — the first already drained everything.
    TraceSet set;
    auto *b = set.createBuffer(0);
    b->push(ev(1, EventKind::TxBegin, 1));
    b->push(ev(2, EventKind::PmStore, 0));
    b->push(ev(3, EventKind::PmFlush, 0, 64));
    b->push(dfence(4));
    b->push(dfence(5));
    b->push(ev(6, EventKind::TxEnd, 1));

    const OptimizeSummary s = classify(set);
    EXPECT_EQ(s.totalFences, 2u);
    EXPECT_EQ(s.fenceCoalescible, 1u);
    EXPECT_EQ(s.fenceNoConflict, 0u);
}

TEST(Optimize, EmptyEpochOutsideTxNotCoalescible)
{
    // The same empty epoch outside a transaction is left alone: the
    // pairing argument needs the transaction's commit protocol.
    TraceSet set;
    auto *b = set.createBuffer(0);
    b->push(ev(1, EventKind::PmStore, 0));
    b->push(ev(2, EventKind::PmFlush, 0, 64));
    b->push(dfence(3));
    b->push(dfence(4));
    const OptimizeSummary s = classify(set);
    EXPECT_EQ(s.fenceCoalescible, 0u);
}

TEST(Optimize, OriginAttribution)
{
    // Counts land on the byte stamped in the event, not on a global
    // bucket.
    TraceSet set;
    auto *b = set.createBuffer(0);
    TraceEvent store = ev(1, EventKind::PmStore, 0);
    TraceEvent flush = ev(2, EventKind::PmFlush, 0, 64);
    flush.origin =
        static_cast<std::uint8_t>(trace::Origin::MneCommitApply);
    TraceEvent fence = dfence(3);
    fence.origin =
        static_cast<std::uint8_t>(trace::Origin::MneCommitApply);
    b->push(store);
    b->push(flush);
    b->push(fence);

    const OptimizeSummary s = classify(set);
    const OriginCounts &c = s.byOrigin[static_cast<std::size_t>(
        trace::Origin::MneCommitApply)];
    EXPECT_EQ(c.flushes, 1u);
    EXPECT_EQ(c.fences, 1u);
    EXPECT_EQ(s.byOrigin[0].flushes, 0u);
}

TEST(Optimize, AgreesWithRuntimeFlushDedupe)
{
    // The runtime absorbs duplicate flushes of a line inside one
    // fence interval (pm_context.cc), so a store+flush+flush+fence
    // sequence must trace exactly one PmFlush — and the optimizer
    // must then find nothing to elide.
    core::Runtime rt(1 << 20, 1);
    pm::PmContext &ctx = rt.ctx(0);
    const std::uint64_t v = 9;
    ctx.store(0, &v, 8);
    ctx.flush(0, 8);
    ctx.flush(0, 8);
    ctx.fence(pm::FenceKind::Durability);

    std::uint64_t flush_events = 0;
    for (const auto &buf : rt.traces().buffers())
        for (std::size_t i = 0; i < buf->size(); i++)
            if (buf->at(i).kind == EventKind::PmFlush)
                flush_events++;
    EXPECT_EQ(flush_events, 1u);

    const OptimizeSummary s = classify(rt.traces());
    EXPECT_EQ(s.totalFlushes, 1u);
    EXPECT_EQ(s.redundantFlushes(), 0u);
}

TEST(Optimize, DeterministicAtAnyJobs)
{
    core::AppConfig config;
    config.threads = 4;
    config.opsPerThread = 40;
    config.poolBytes = 48 << 20;
    core::RunResult result = core::runApp("vacation", config);
    ASSERT_TRUE(result.verified);

    OptimizeOptions one;
    one.jobs = 1;
    OptimizeOptions many;
    many.jobs = 4;
    const OptimizeResult a =
        optimizeTraces(result.runtime->traces(), one);
    const OptimizeResult b =
        optimizeTraces(result.runtime->traces(), many);
    EXPECT_EQ(a.totalEvents, b.totalEvents);
    EXPECT_EQ(a.summary.totalFlushes, b.summary.totalFlushes);
    EXPECT_EQ(a.summary.totalFences, b.summary.totalFences);
    EXPECT_EQ(a.summary.flushRedirtied, b.summary.flushRedirtied);
    EXPECT_EQ(a.summary.flushClean, b.summary.flushClean);
    EXPECT_EQ(a.summary.fenceNoConflict, b.summary.fenceNoConflict);
    EXPECT_EQ(a.summary.fenceCoalescible, b.summary.fenceCoalescible);
    for (std::size_t i = 0; i < trace::kOriginCount; i++) {
        EXPECT_EQ(a.summary.byOrigin[i].redundantFences,
                  b.summary.byOrigin[i].redundantFences)
            << "origin " << i;
    }
}

TEST(Optimize, FindsRedundancyInLoggingLayers)
{
    // The acceptance bar: real Mnemosyne and NVML traces must show a
    // nonzero redundant count (the txlibs' logging protocols fence
    // far more often than the data requires).
    core::AppConfig config;
    config.threads = 2;
    config.opsPerThread = 50;
    config.poolBytes = 48 << 20;
    for (const char *app : {"vacation", "hashmap"}) {
        core::RunResult result = core::runApp(app, config);
        ASSERT_TRUE(result.verified) << app;
        const OptimizeSummary s = classify(result.runtime->traces());
        EXPECT_GT(s.redundantFences() + s.redundantFlushes(), 0u)
            << app;
    }
}

TEST(Elision, ReducesPmOpsOnBothLayers)
{
    fuzz::FuzzConfig base;
    base.opsPerThread = 12;
    base.poolBytes = 24 << 20;
    fuzz::FuzzConfig elided = base;
    elided.elide = true;
    for (const char *app : {"vacation", "hashmap"}) {
        const std::uint64_t before = fuzz::profilePmOps(app, base);
        const std::uint64_t after = fuzz::profilePmOps(app, elided);
        EXPECT_LT(after, before) << app;
    }

    // The policy belongs to each run: an elided and a plain profile
    // racing in one process must each match their solo totals.
    const fuzz::FuzzConfig plain;
    fuzz::FuzzConfig elide;
    elide.elide = true;
    EXPECT_EQ(fuzz::profilePmOps("hashmap", plain), 1066u);
    EXPECT_EQ(fuzz::profilePmOps("hashmap", elide), 1024u);
    std::uint64_t raced_plain = 0;
    std::uint64_t raced_elide = 0;
    std::thread a([&] {
        raced_plain = fuzz::profilePmOps("hashmap", plain);
    });
    std::thread b([&] {
        raced_elide = fuzz::profilePmOps("hashmap", elide);
    });
    a.join();
    b.join();
    EXPECT_EQ(raced_plain, 1066u);
    EXPECT_EQ(raced_elide, 1024u);
}

TEST(Elision, CrashfuzzSmokeMnemosyne)
{
    // The elision smoke the issue wires into ctest: the Mnemosyne app
    // must hold every recovery invariant with the full elision policy
    // active — proof the coalesced commit-apply fences were redundant.
    fuzz::SweepOptions options;
    options.apps = {"vacation"};
    options.cases = 96;
    options.config.opsPerThread = 10;
    options.config.poolBytes = 24 << 20;
    options.config.elide = true;
    options.config.faults = true;
    options.maxReproducers = 1;
    for (const auto &report : fuzz::sweep(options)) {
        EXPECT_EQ(report.violations, 0u)
            << report.app << ": "
            << (report.reproducers.empty()
                    ? "(no reproducer)"
                    : report.reproducers[0].why + " => " +
                          report.reproducers[0].command);
        EXPECT_GT(report.casesFired, 0u);
    }
}

TEST(Elision, CrashfuzzSmokeNvml)
{
    fuzz::SweepOptions options;
    options.apps = {"hashmap"};
    options.cases = 96;
    options.config.opsPerThread = 10;
    options.config.poolBytes = 24 << 20;
    options.config.elide = true;
    options.config.faults = true;
    options.maxReproducers = 1;
    for (const auto &report : fuzz::sweep(options)) {
        EXPECT_EQ(report.violations, 0u)
            << report.app << ": "
            << (report.reproducers.empty()
                    ? "(no reproducer)"
                    : report.reproducers[0].why + " => " +
                          report.reproducers[0].command);
        EXPECT_GT(report.casesFired, 0u);
    }
}

} // namespace
} // namespace whisper::analysis
