/**
 * @file
 * Unit tests for the core runtime, the HOPS programming API and the
 * harness life cycle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "alloc/buddy_alloc.hh"
#include "alloc/nvml_alloc.hh"
#include "alloc/slab_alloc.hh"
#include "core/harness.hh"
#include "core/hops.hh"
#include "core/verify_report.hh"
#include "txlib/mnemosyne.hh"
#include "txlib/nvml.hh"

namespace whisper::core
{
namespace
{

TEST(Runtime, ContextsAreIndependentThreads)
{
    Runtime rt(1 << 20, 4);
    EXPECT_EQ(rt.maxThreads(), 4u);
    EXPECT_EQ(rt.ctx(0).tid(), 0u);
    EXPECT_EQ(rt.ctx(3).tid(), 3u);
}

TEST(Runtime, RunThreadsExecutesAll)
{
    Runtime rt(1 << 20, 4);
    std::atomic<unsigned> ran{0};
    std::atomic<std::uint32_t> tid_mask{0};
    rt.runThreads(4, [&](pm::PmContext &ctx, ThreadId tid) {
        (void)ctx;
        ran++;
        tid_mask |= 1u << tid;
    });
    EXPECT_EQ(ran.load(), 4u);
    EXPECT_EQ(tid_mask.load(), 0xFu);
}

TEST(Runtime, ThreadsShareTheClock)
{
    Runtime rt(1 << 20, 2);
    rt.ctx(0).compute(100);
    const Tick t0 = rt.ctx(1).now();
    EXPECT_GE(t0, 100u);
}

TEST(Runtime, SplitClocksAreThreadLocal)
{
    Runtime rt(1 << 20, 2);
    rt.ctx(0).compute(100);
    rt.splitClocks();
    // Both own clocks start at the shared clock's time...
    EXPECT_EQ(rt.ctx(0).now(), 100u);
    EXPECT_EQ(rt.ctx(1).now(), 100u);
    // ...and move only with their own context's work.
    rt.ctx(0).compute(50);
    EXPECT_EQ(rt.ctx(0).now(), 150u);
    EXPECT_EQ(rt.ctx(1).now(), 100u);
    rt.ctx(1).compute(7);
    EXPECT_EQ(rt.ctx(0).now(), 150u);
    EXPECT_EQ(rt.ctx(1).now(), 107u);
    // The split is one-way: a second call neither rejoins nor rewinds.
    rt.splitClocks();
    EXPECT_EQ(rt.ctx(0).now(), 150u);
    EXPECT_EQ(rt.ctx(1).now(), 107u);
}

TEST(Runtime, SplitKeepsOneThreadTraceIdentical)
{
    // One context that splits mid-run stamps the same trace as one
    // that never does: its own clock starts where the shared one was.
    auto work = [](Runtime &rt, bool split) {
        pm::PmContext &ctx = rt.ctx(0);
        const std::uint64_t v = 9;
        ctx.store(64, &v, 8);
        ctx.persist(64, 8);
        if (split)
            rt.splitClocks();
        const TxId tx = ctx.txBegin();
        ctx.store(128, &v, 8);
        ctx.compute(30);
        ctx.flush(128, 8);
        ctx.fence(pm::FenceKind::Durability);
        ctx.txEnd(tx);
        return rt.traces().merged();
    };
    Runtime shared(1 << 20, 2);
    Runtime split(1 << 20, 2);
    const auto a = work(shared, false);
    const auto b = work(split, true);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); i++) {
        EXPECT_EQ(a[i].tid, b[i].tid) << i;
        EXPECT_EQ(a[i].ev.ts, b[i].ev.ts) << i;
        EXPECT_EQ(a[i].ev.addr, b[i].ev.addr) << i;
        EXPECT_EQ(a[i].ev.kind, b[i].ev.kind) << i;
    }
}

TEST(Runtime, CrashClearsPendingState)
{
    Runtime rt(1 << 20, 1);
    pm::PmContext &ctx = rt.ctx(0);
    const std::uint64_t v = 5;
    ctx.store(0, &v, 8);
    ctx.flush(0, 8);
    rt.crashHard();
    EXPECT_TRUE(ctx.pendingFlushes().empty());
    EXPECT_EQ(*rt.pool().at<std::uint64_t>(0), 0u);
}

TEST(Runtime, DuplicateFlushesCoalescePerFenceInterval)
{
    // Regression: flushing the same line twice before a fence used to
    // queue (and trace) two writebacks; hardware writes the line back
    // once per drain, so the second flush must be absorbed.
    Runtime rt(1 << 20, 1);
    pm::PmContext &ctx = rt.ctx(0);
    const std::uint64_t v = 5;
    ctx.store(0, &v, 8);
    ctx.flush(0, 8);
    ctx.flush(0, 8);
    ctx.flush(16, 8); // same line: absorbed too
    EXPECT_EQ(ctx.pendingFlushes().size(), 1u);
    ctx.fence(pm::FenceKind::Durability);
    // The next interval flushes the line afresh.
    ctx.store(0, &v, 8);
    ctx.flush(0, 8);
    EXPECT_EQ(ctx.pendingFlushes().size(), 1u);
}

TEST(Hops, DfenceMakesTrackedStoresDurable)
{
    Runtime rt(1 << 20, 1);
    HopsContext hops(rt.ctx(0));
    const std::uint64_t v = 77;
    hops.store(0, &v, 8);
    hops.ofence();
    EXPECT_EQ(*rt.pool().durableAt<std::uint64_t>(0), 0u);
    hops.dfence();
    EXPECT_EQ(*rt.pool().durableAt<std::uint64_t>(0), 77u);
    EXPECT_EQ(hops.pendingRanges(), 0u);
}

TEST(Hops, BufferedEpochsLostOnCrashBeforeDfence)
{
    Runtime rt(1 << 20, 1);
    HopsContext hops(rt.ctx(0));
    const std::uint64_t v = 1;
    hops.store(0, &v, 8);
    hops.ofence();
    hops.store(64, &v, 8);
    rt.crashHard();
    EXPECT_EQ(*rt.pool().at<std::uint64_t>(0), 0u);
    EXPECT_EQ(*rt.pool().at<std::uint64_t>(64), 0u);
}

TEST(Hops, NoFlushEventsInTrace)
{
    // The Figure 1(e) programming model: no clwb anywhere.
    Runtime rt(1 << 20, 1);
    HopsContext hops(rt.ctx(0));
    const std::uint64_t v = 9;
    hops.store(0, &v, 8);
    hops.ofence();
    hops.store(64, &v, 8);
    hops.dfence();
    const auto counters = rt.traces().totalCounters();
    EXPECT_EQ(counters.pmFlushes, 0u);
    EXPECT_EQ(counters.fences, 2u);
}

TEST(Hops, Figure1eExample)
{
    // The paper's running example: update pt = {x, y}, then set the
    // flag; x/y may reorder with each other but must precede flag.
    Runtime rt(1 << 20, 1);
    HopsContext hops(rt.ctx(0));
    struct Pt { std::uint64_t x; std::uint64_t y; };
    auto *pt = rt.pool().at<Pt>(0);
    auto *flag = rt.pool().at<std::uint64_t>(256);

    hops.set(pt->x, std::uint64_t{10});
    hops.set(pt->y, std::uint64_t{20});
    hops.ofence();                       // order pt before flag
    hops.set(*flag, std::uint64_t{1});
    hops.dfence();                       // durability point

    EXPECT_EQ(*rt.pool().durableAt<std::uint64_t>(0), 10u);
    EXPECT_EQ(*rt.pool().durableAt<std::uint64_t>(8), 20u);
    EXPECT_EQ(*rt.pool().durableAt<std::uint64_t>(256), 1u);
}

/** A fresh one-thread runtime, as each primitive-cost loop sees it. */
struct World
{
    Runtime rt{64 << 20, 1};
    pm::PmContext &ctx{rt.ctx(0)};

    /** Mean logical ticks @p body charges over 4096 iterations. */
    template <typename Body>
    double
    ticksPerOp(Body body)
    {
        constexpr int kIters = 4096;
        const Tick start = ctx.localTicks();
        for (int i = 0; i < kIters; i++)
            body();
        return static_cast<double>(ctx.localTicks() - start) / kIters;
    }
};

/** Ticks per alloc of @p bytes, freeing the live blocks every 1024. */
template <typename Heap>
double
allocTicksPerOp(World &w, Heap &heap, std::size_t bytes)
{
    std::vector<Addr> live;
    return w.ticksPerOp([&] {
        live.push_back(heap.alloc(w.ctx, bytes));
        if (live.size() >= 1024) {
            for (const Addr p : live)
                heap.free(w.ctx, p);
            live.clear();
        }
    });
}

TEST(PrimitiveCosts, TickClockOrdersAsConsequence2Predicts)
{
    // Consequence 2: epochs are far more common than transactions, so
    // the HOPS epoch (store + ofence) must undercut today's persist
    // (store + clwb + sfence), and per-op costs must order as the
    // libraries' epoch counts predict. One thread on the logical
    // clock, so every delta is deterministic. Each World holds two
    // 64 MiB pool images, so each lives only for its own loop.
    const std::uint64_t v = 1;
    const auto next = [](Addr off) { return (off + 64) & ((16 << 20) - 1); };

    const double store = [&] {
        World w;
        Addr off = 0;
        return w.ticksPerOp([&] {
            w.ctx.store(off, &v, 8);
            off = next(off);
        });
    }();
    const double hops_ofence = [&] {
        World w;
        HopsContext hops(w.ctx);
        Addr off = 0;
        return w.ticksPerOp([&] {
            hops.store(off, &v, 8);
            hops.ofence();
            off = next(off);
            if (off == 0)
                hops.dfence(); // bound the tracked set
        });
    }();
    const double store_clwb_sfence = [&] {
        World w;
        Addr off = 0;
        return w.ticksPerOp([&] {
            w.ctx.store(off, &v, 8);
            w.ctx.flush(off, 8);
            w.ctx.fence(pm::FenceKind::Ordering);
            off = next(off);
        });
    }();
    EXPECT_LT(store, hops_ofence);
    EXPECT_LT(hops_ofence, store_clwb_sfence);

    const double slab = [] {
        World w;
        alloc::SlabAllocator heap(w.ctx, 0, 48 << 20);
        return allocTicksPerOp(w, heap, 64);
    }();
    const double buddy = [] {
        World w;
        alloc::BuddyAllocator heap(w.ctx, 0, 32 << 20);
        return allocTicksPerOp(w, heap, 48);
    }();
    const double nvml_alloc = [] {
        World w;
        alloc::NvmlAllocator heap(w.ctx, alloc::NvmlAllocator::logBytes(),
                                  32 << 20, 0);
        return allocTicksPerOp(w, heap, 64);
    }();
    EXPECT_LT(slab, buddy);
    EXPECT_LT(buddy, nvml_alloc);

    const double mne_tx = [] {
        World w;
        mne::MnemosyneHeap heap(w.ctx, 0, 48 << 20, 1);
        const Addr obj = heap.pmalloc(w.ctx, 64);
        std::uint64_t counter = 0;
        return w.ticksPerOp([&] {
            mne::Transaction tx(heap, w.ctx);
            tx.update(obj, &counter, 8);
            tx.commit();
            counter++;
        });
    }();
    const double nvml_tx = [] {
        World w;
        nvml::NvmlPool pool(w.ctx, 0, 48 << 20, 1);
        Addr obj;
        {
            nvml::TxContext tx(pool, w.ctx);
            obj = tx.txAlloc(64);
            tx.commit();
        }
        return w.ticksPerOp([&] {
            nvml::TxContext tx(pool, w.ctx);
            auto *cell = w.rt.pool().at<std::uint64_t>(obj);
            tx.set(*cell, *cell + 1);
            tx.commit();
        });
    }();
    EXPECT_LT(mne_tx, nvml_tx);
}

TEST(Harness, RunAppProducesTraces)
{
    AppConfig config;
    config.threads = 2;
    config.opsPerThread = 30;
    config.poolBytes = 96 << 20;
    RunResult result = runApp("hashmap", config);
    EXPECT_TRUE(result.verified);
    EXPECT_EQ(result.appName, "hashmap");
    EXPECT_EQ(result.layer, AccessLayer::LibNvml);
    EXPECT_GT(result.lastTick, result.firstTick);
    EXPECT_EQ(result.totalOps, 60u);

    // Single-thread trace fingerprints of every registered app: the
    // run() bodies' events alone, without setup's or verify()'s.
    config.threads = 1;
    config.poolBytes = 48 << 20;
    const struct {
        const char *app;
        std::size_t events;
        Tick lastTick;
    } golden[] = {{"echo", 1348, 185656},
                  {"hashmap", 1501, 409056},
                  {"vacation", 1248, 846242},
                  {"nfs", 5453, 2408180},
                  {"mod-hashmap", 463, 390840},
                  {"halo-hashmap", 154, 244732},
                  {"ctree", 2114, 482984},
                  {"redis", 588, 284468},
                  {"memcached", 325, 1379022},
                  {"exim", 20094, 360638986},
                  {"mysql", 3810, 21190642},
                  {"ycsb", 6817, 824414},
                  {"tpcc", 19519, 1210522},
                  {"mod-vector", 615, 279412}};
    for (const auto &g : golden) {
        const RunResult run = runApp(g.app, config);
        EXPECT_TRUE(run.verified) << g.app;
        EXPECT_EQ(run.runtime->traces().totalEvents(), g.events) << g.app;
        EXPECT_EQ(run.lastTick, g.lastTick) << g.app;
    }
}

TEST(Harness, CrashAndVerifyCycle)
{
    AppConfig config;
    config.threads = 2;
    config.opsPerThread = 30;
    config.poolBytes = 96 << 20;
    RunResult result = runApp("ctree", config);
    ASSERT_TRUE(result.verified);
    CrashOptions opts;
    opts.seed = 99;
    opts.survival = 0.3;
    const VerifyReport report = crashAndVerify(result, opts);
    EXPECT_TRUE(report.ok()) << report.describe();
}

TEST(Harness, CrashAndVerifyJudgesLayerInvariants)
{
    // The one recovery verdict judges the layer's invariants too: a
    // counter A stored but never flushed survives a crash at survival
    // 1.0 one step ahead of B, which only counters-equal names.
    AppConfig config;
    config.threads = 1;
    config.opsPerThread = 4;
    config.poolBytes = 16 << 20;
    RunResult result = runApp("faulty", config);
    ASSERT_TRUE(result.verified) << result.report.describe();
    const std::uint64_t ahead = config.opsPerThread + 1;
    result.runtime->ctx(0).store(0, &ahead, sizeof(ahead));
    CrashOptions opts;
    opts.survival = 1.0;
    const VerifyReport report = crashAndVerify(result, opts);
    EXPECT_FALSE(report.ok());
    bool named = false;
    for (const VerifyViolation &v : report.violations())
        named |= v.invariant == "counters-equal";
    EXPECT_TRUE(named) << report.describe();
}

/** Everything a trace set records: stored events and every counter. */
std::vector<std::uint64_t>
traceFootprint(const trace::TraceSet &traces)
{
    const trace::AccessCounters c = traces.totalCounters();
    return {traces.totalEvents(), c.pmStores,     c.pmNtStores,
            c.pmLoads,            c.pmFlushes,    c.fences,
            c.dramLoads,          c.dramStores,   c.pmStoreBytes,
            c.pmNtStoreBytes};
}

TEST(Session, TracesHoldOnlyMeasuredOps)
{
    // A run's trace is its measured ops: verify(), workloadCheck()
    // and the lincheck baseline and final probes add no event and
    // no counter, while the bodies run under Session::run do.
    for (const std::string &app : registeredApps()) {
        AppConfig cfg;
        cfg.threads = 1;
        cfg.opsPerThread = 30;
        cfg.poolBytes = 48 << 20;
        {
            Session s(app, cfg);
            s.app().setup(s.rt());
            s.run([&](pm::PmContext &ctx, ThreadId tid) {
                s.app().run(s.rt(), ctx, tid);
            });
            const trace::TraceSet &traces = s.rt().traces();
            const auto measured = traceFootprint(traces);
            EXPECT_GT(measured[0], 0u) << app;
            const VerifyReport rep = s.app().verify(s.rt());
            EXPECT_TRUE(rep.ok()) << app << ":\n" << rep.describe();
            EXPECT_EQ(traceFootprint(traces), measured)
                << app << ": verify() was traced";
        }

        cfg.threads = 2;
        cfg.poolBytes = 64 << 20;
        Session s(app, cfg);
        WorkloadKeymap map;
        map.keys = 600;
        map.threads = 2;
        s.app().workloadSetup(s.rt(), map);
        const trace::TraceSet &traces = s.rt().traces();
        const bool lincheck = s.app().supportsLincheck();
        if (lincheck)
            s.record(map);
        EXPECT_EQ(traceFootprint(traces)[0], 0u)
            << app << ": the baseline probes were traced";
        lincheck::HistoryRecorder &rec = s.recorder();
        s.run([&](pm::PmContext &ctx, ThreadId tid) {
            const std::uint64_t key = map.lo(tid);
            const std::size_t h =
                rec.invoke(tid, lincheck::OpKind::Put, key, 7);
            s.app().workloadPut(ctx, tid, key, 7);
            rec.response(tid, h, false, 0);
            s.app().workloadGet(ctx, tid, key);
            s.app().workloadThreadDone(ctx, tid);
        });
        const auto measured = traceFootprint(traces);
        EXPECT_GT(measured[0], 0u) << app;
        VerifyReport rep = s.app().workloadCheck(s.rt());
        EXPECT_EQ(traceFootprint(traces), measured)
            << app << ": workloadCheck() was traced";
        if (lincheck) {
            s.checkHistory(rep);
            EXPECT_EQ(traceFootprint(traces), measured)
                << app << ": the final probes were traced";
        }
        EXPECT_TRUE(rep.ok()) << app << ":\n" << rep.describe();
    }
}

TEST(Harness, UnknownAppIsFatal)
{
    AppConfig config;
    EXPECT_DEATH(
        {
            auto app = createApp("definitely-not-an-app", config);
            (void)app;
        },
        "unknown WHISPER application");
}

TEST(AppConfigTest, ScaledRounding)
{
    AppConfig config;
    config.opsPerThread = 1000;
    EXPECT_EQ(config.scaled(0.5).opsPerThread, 500u);
    EXPECT_EQ(config.scaled(0.0001).opsPerThread, 1u);
}

TEST(AppConfigTest, ScaledClampsThreads)
{
    AppConfig config;
    config.opsPerThread = 1000;
    config.threads = 8;
    // Scaling down shrinks the thread count too (never below one);
    // scaling up leaves it alone — threads never exceed the request.
    const unsigned hw = std::thread::hardware_concurrency();
    const unsigned half = hw > 0 ? std::min(4u, hw) : 4u;
    EXPECT_EQ(config.scaled(0.5).threads, half);
    EXPECT_EQ(config.scaled(0.0001).threads, 1u);
    EXPECT_LE(config.scaled(4.0).threads, 8u);
    // Whatever the factor, the result fits the machine.
    if (hw > 0) {
        EXPECT_LE(config.scaled(1.0).threads, hw);
    }
}

TEST(AccessLayerNames, AllDistinct)
{
    EXPECT_STREQ(accessLayerName(AccessLayer::Native), "Native");
    EXPECT_STREQ(accessLayerName(AccessLayer::LibNvml),
                 "Library/NVML");
    EXPECT_STREQ(accessLayerName(AccessLayer::LibMnemosyne),
                 "Library/Mnemosyne");
    EXPECT_STREQ(accessLayerName(AccessLayer::Filesystem), "FS/PMFS");
    EXPECT_STREQ(accessLayerName(AccessLayer::LibMod), "Library/MOD");
}

TEST(VerifyReport, JsonRoundTripPreservesAllSeverities)
{
    VerifyReport rep("echo", "native");
    rep.fail("chain-broken", "bucket 17 cycle",
             {LineAddr{64}, LineAddr{128}});
    rep.degrade("echo-log-lost", "2 poisoned log lines dropped",
                {LineAddr{4096}});
    rep.degrade("pm-line-lost", "");
    ASSERT_FALSE(rep.ok());
    ASSERT_TRUE(rep.degraded());

    VerifyReport back;
    ASSERT_TRUE(fromJson(toJson(rep), back));
    EXPECT_EQ(back.app(), "echo");
    EXPECT_EQ(back.layer(), "native");
    EXPECT_EQ(back.ok(), rep.ok());
    EXPECT_EQ(back.degraded(), rep.degraded());
    ASSERT_EQ(back.violations().size(), rep.violations().size());
    for (std::size_t i = 0; i < rep.violations().size(); i++) {
        const VerifyViolation &a = rep.violations()[i];
        const VerifyViolation &b = back.violations()[i];
        EXPECT_EQ(b.invariant, a.invariant);
        EXPECT_EQ(b.detail, a.detail);
        EXPECT_EQ(b.severity, a.severity);
        EXPECT_EQ(b.lines, a.lines);
    }
    // A second trip through the encoder is bit-identical: tooling can
    // canonicalize a --json stream by re-emitting it.
    EXPECT_EQ(toJson(back), toJson(rep));
}

TEST(VerifyReport, JsonRoundTripDegradedOnlyStaysOk)
{
    VerifyReport rep("nstore", "native");
    rep.degrade("nstore-undo-record-lost",
                "active undo segment poisoned", {LineAddr{192}});
    ASSERT_TRUE(rep.ok());

    VerifyReport back;
    ASSERT_TRUE(fromJson(toJson(rep), back));
    EXPECT_TRUE(back.ok());
    EXPECT_TRUE(back.degraded());
    ASSERT_EQ(back.violations().size(), 1u);
    EXPECT_EQ(back.violations()[0].severity, Severity::Degraded);
    EXPECT_EQ(back.violations()[0].lines,
              (std::vector<LineAddr>{LineAddr{192}}));
}

TEST(VerifyReport, JsonEscapesAndRejectsMalformedInput)
{
    VerifyReport rep("q\"app", "l\\ayer");
    rep.fail("inv", "tab\there \"quoted\" back\\slash");
    VerifyReport back;
    ASSERT_TRUE(fromJson(toJson(rep), back));
    EXPECT_EQ(back.app(), "q\"app");
    EXPECT_EQ(back.layer(), "l\\ayer");
    ASSERT_EQ(back.violations().size(), 1u);
    EXPECT_EQ(back.violations()[0].detail,
              "tab\there \"quoted\" back\\slash");

    for (const char *bad :
         {"", "not json", "{\"app\":\"x\"", "[1,2,3]",
          "{\"app\":1,\"layer\":\"l\",\"ok\":true,"
          "\"degraded\":false,\"violations\":[]}"}) {
        VerifyReport out;
        EXPECT_FALSE(fromJson(bad, out)) << bad;
    }
}

} // namespace
} // namespace whisper::core
