#include "core/harness.hh"

#include <atomic>
#include <cstdio>

namespace whisper::core
{

Session::Session(const std::string &app, const AppConfig &config)
    : world_(&owned_)
{
    owned_.appName = app;
    owned_.runtime = std::make_shared<Runtime>(
        config.poolBytes, config.threads, config.recordVolatile,
        config.elision);
    owned_.app = createApp(app, config);
    owned_.layer = owned_.app->layer();
}

Session::Session(RunResult &run) : world_(&run) {}

RunOutcome
Session::run(const Body &body)
{
    std::atomic<bool> hit{false};
    std::atomic<std::uint64_t> at{0};
    rt().runThreads(rt().maxThreads(),
                    [&](pm::PmContext &ctx, ThreadId tid) {
        try {
            body(ctx, tid);
        } catch (const pm::CrashPointReached &cut) {
            hit.store(true, std::memory_order_relaxed);
            at.store(cut.opIndex, std::memory_order_relaxed);
        }
        // The firing thread's throw opened the gate for the rest; a
        // finished thread must also leave the draw set.
        if (pm::SchedGate *gate = ctx.schedGate())
            gate->deactivate(tid);
    });
    RunOutcome out;
    out.fired = hit.load(std::memory_order_relaxed);
    out.opIndex = out.fired ? at.load(std::memory_order_relaxed)
                            : rt().pmOpsSeen();
    return out;
}

void
Session::record(const WorkloadKeymap &map)
{
    map_ = map;
    rec_.enable(rt().maxThreads());
    for (unsigned t = 0; t < map.threads; t++) {
        const ThreadId tid = static_cast<ThreadId>(t);
        for (std::uint64_t i = 0; i < map.perThread(); i++) {
            const std::uint64_t key = map.lo(tid) + i;
            std::uint64_t value = 0;
            const bool found =
                app().workloadProbe(rt().ctx(tid), tid, key, value);
            rec_.noteInitial(key, found, value);
        }
    }
    for (ThreadId tid = 0; tid < rt().maxThreads(); tid++)
        rt().ctx(tid).setFenceObserver(&rec_);
}

void
Session::detachObservers()
{
    for (ThreadId tid = 0; tid < rt().maxThreads(); tid++)
        rt().ctx(tid).setFenceObserver(nullptr);
}

VerifyReport
Session::recover()
{
    // The machine is back on: recovery runs un-counted and unrecorded.
    for (ThreadId tid = 0; tid < rt().maxThreads(); tid++)
        rt().ctx(tid).setCrashPlan(nullptr);
    detachObservers();
    crashed_ = true;
    // Media scrub before recovery: a no-op unless a fault plan
    // poisoned lines, in which case recovery must never read them raw.
    VerifyReport scrub = app().scrubRecovered(rt());
    app().recover(rt());
    return scrub;
}

HistoryCheck
Session::checkHistory(VerifyReport &report,
                      const std::vector<std::uint64_t> &inserted)
{
    detachObservers();
    // Uncrashed, the cut sits at the end of the history: plain
    // linearizability against the final probes.
    rec_.setCrashed(crashed_);
    // Probe every key the run could have touched: a key absent from
    // the probes reads as absent to the checker, which would turn an
    // unprobed put into a false violation.
    for (unsigned t = 0; t < map_.threads; t++) {
        const ThreadId tid = static_cast<ThreadId>(t);
        auto probe = [&](std::uint64_t key) {
            std::uint64_t value = 0;
            const bool found =
                app().workloadProbe(rt().ctx(tid), tid, key, value);
            rec_.noteRecovered(key, found, value);
        };
        for (std::uint64_t i = 0; i < map_.perThread(); i++)
            probe(map_.lo(tid) + i);
        const std::uint64_t ins = t < inserted.size() ? inserted[t] : 0;
        for (std::uint64_t j = 0; j < ins; j++)
            probe(map_.insertKey(tid, j));
    }

    HistoryCheck out;
    out.history = rec_.finish();
    out.result = lincheck::check(out.history);
    for (const lincheck::KeyVerdict &kv : out.result.keys) {
        if (kv.ok)
            continue;
        out.violations++;
        char head[40];
        std::snprintf(head, sizeof(head), "key 0x%llx: ",
                      static_cast<unsigned long long>(kv.key));
        report.fail("lincheck", head + kv.why);
    }
    if (out.result.budgetExhausted)
        report.degrade("lincheck-budget",
                       "witness search budget exhausted; verdict "
                       "incomplete, not a violation");
    return out;
}

RunResult
runApp(const std::string &name, const AppConfig &config)
{
    Session s(name, config);
    Runtime &rt = s.rt();
    s.app().setup(rt);
    rt.clearTraces();
    s.run([&](pm::PmContext &ctx, ThreadId tid) {
        s.app().run(rt, ctx, tid);
    });

    RunResult &result = s.world();
    result.report = s.app().verify(rt);
    result.verified = result.report.ok();
    result.firstTick = rt.traces().firstTick();
    result.lastTick = rt.traces().lastTick();
    result.totalOps =
        static_cast<std::uint64_t>(config.threads) * config.opsPerThread;
    return std::move(result);
}

VerifyReport
crashAndVerify(RunResult &result, const CrashOptions &opts)
{
    result.runtime->crash(opts.seed, opts.survival);
    Session s(result);
    VerifyReport report = s.recover();
    report.merge(s.app().verifyRecovered(s.rt()));
    return report;
}

analysis::AnalysisResult
analyzeRun(const RunResult &result, unsigned jobs)
{
    analysis::AnalysisOptions options;
    options.jobs = jobs;
    return analysis::analyzeTraces(result.runtime->traces(), options);
}

} // namespace whisper::core
