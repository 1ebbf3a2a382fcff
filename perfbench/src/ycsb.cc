/**
 * @file
 * YCSB workloads: the benchmark is its own load generator.
 *
 * Each round builds a fresh Runtime and hashmap (NVML undo-log layer),
 * preloads the keys through workloadSetup, then runs 4 closed-loop
 * client threads over the app's workloadGet/workloadPut surface. Op
 * types and keys are drawn exactly as workload::runWorkload draws
 * them (per-thread Rng forks, zipfian KeyChooser, theta 0.99), so a
 * round's simulated results equal `whisper_cli workload` at the same
 * seed. Every call is timed on the wall clock from outside; the
 * simulated latency is the PmContext::localTicks() delta.
 */

#include <cmath>
#include <memory>
#include <optional>

#include "bench.hh"
#include "analysis/pipeline.hh"
#include "core/app.hh"
#include "workload/workload.hh"

namespace perfbench
{

using namespace whisper;

namespace
{

/** Thread launches per round's measured ops (see runRound). */
constexpr unsigned kPhases = 4;

struct Shape
{
    const char *app = "hashmap";
    std::uint64_t keys = 100000;
    unsigned threads = 4;
    std::uint64_t opsPerThread = 0;
    std::size_t poolBytes = std::size_t(256) << 20;
};

/**
 * Reads cost ~10x less wall time than undo-logged updates, so mix C
 * runs more ops per round to keep its measured phase near mix A's.
 */
Shape
shapeFor(bool tiny, const workload::MixSpec &mix)
{
    Shape s;
    s.opsPerThread = mix.update > 0.0 ? 80000 : 400000;
    if (tiny) {
        s.keys = 4000;
        s.opsPerThread = 1000;
        s.poolBytes = ycsbPoolBytes(true);
    }
    return s;
}

/** One client thread's tallies. */
struct Client
{
    workload::OpCounts counts;
    workload::LatencyHistogram ticks;
    Tick elapsed = 0;
    std::uint64_t getTicks = 0;
    std::uint64_t putTicks = 0;
    std::vector<double> getWallNs;
    std::vector<double> putWallNs;
    std::vector<double> cpuS; //!< CPU seconds of each launch's ops
};

/** Wall-latency quantiles of one round, in ns, merged over clients. */
struct WallQuantiles
{
    double op50 = 0, op99 = 0, get50 = 0, get99 = 0, put50 = 0,
           put99 = 0;
    std::uint64_t gets = 0, puts = 0;
};

struct Round
{
    double setupS = 0;    //!< Runtime + workloadSetup + trace clear
    double appSetupS = 0; //!< workloadSetup alone
    std::vector<double> phaseS; //!< each phase's thread launch to join
    double checkS = 0;
    std::vector<Client> clients; //!< wall samples dropped after the round
    WallQuantiles wall;
    workload::WorkloadResult sim; //!< op tallies + tick histogram
    std::uint64_t events = 0;
    std::uint64_t linesPersisted = 0;
    core::VerifyReport check;
    double writeAmp = std::nan("");

    /** Sim digest plus the per-round counts that must also repeat. */
    std::uint64_t
    digest() const
    {
        return sim.digest() ^ (events * 0x9e3779b97f4a7c15ull) ^
               (linesPersisted * 0xbf58476d1ce4e5b9ull);
    }
};

Round
runRound(const Shape &shape, const workload::MixSpec &mix,
         std::uint64_t seed, bool analyze, Tracer &tracer)
{
    Round r;
    Span round(tracer, 0, "bench.round");

    core::AppConfig cfg;
    cfg.threads = shape.threads;
    cfg.opsPerThread = shape.opsPerThread;
    cfg.seed = seed;
    cfg.poolBytes = shape.poolBytes;

    core::WorkloadKeymap map;
    map.keys = shape.keys;
    map.threads = shape.threads;

    std::unique_ptr<core::Runtime> rt;
    std::unique_ptr<core::WhisperApp> app;
    {
        Span setup(tracer, 0, "bench.setup");
        {
            Span s(tracer, 0, "core.runtime_ctor");
            rt = std::make_unique<core::Runtime>(cfg.poolBytes,
                                                 cfg.threads);
        }
        app = core::createApp(shape.app, cfg);
        {
            Span s(tracer, 0, "apps.workload_setup");
            app->workloadSetup(*rt, map);
            r.appSetupS = s.seconds();
        }
        {
            Span s(tracer, 0, "trace.clear");
            rt->clearTraces();
        }
        r.setupS = setup.seconds();
    }

    // Per-thread streams forked in tid order, as runWorkload does.
    std::vector<Rng> rngs;
    std::vector<workload::KeyChooser> choosers;
    Rng master(seed);
    for (unsigned t = 0; t < shape.threads; t++) {
        rngs.push_back(master.split());
        choosers.emplace_back(workload::KeyDist::Zipfian, map,
                              static_cast<ThreadId>(t), 0.99);
    }
    r.clients.resize(shape.threads);
    // Traced rounds record the spans of one op in `stride`, about
    // 100k ops a round, so the span file stays tens of MB.
    const std::uint64_t stride = std::max<std::uint64_t>(
        1, shape.opsPerThread * shape.threads / 100000);
    const std::uint64_t lines0 = rt->pool().stats().linesPersisted;

    // The measured ops run in kPhases launches of the client threads.
    // Each thread's streams continue across phases, so the op sequence
    // and every simulated result are those of one launch; the phases
    // only give the host clock more, shorter samples.
    const std::uint64_t perPhase = shape.opsPerThread / kPhases;
    for (unsigned phase = 0; phase < kPhases; phase++) {
        Span measured(tracer, 0, "bench.measured");
        for (unsigned t = 1; t < shape.threads; t++)
            tracer.setLaneRoot(t, measured.id());
        rt->runThreads(shape.threads, [&](pm::PmContext &ctx,
                                          ThreadId tid) {
            Rng &rng = rngs[tid];
            workload::KeyChooser &chooser = choosers[tid];
            Client &c = r.clients[tid];
            c.getWallNs.reserve(shape.opsPerThread);
            c.putWallNs.reserve(shape.opsPerThread);
            const Tick start = ctx.localTicks();
            const double cpu0 = cpuSeconds(CLOCK_THREAD_CPUTIME_ID);
            for (std::uint64_t i = 0; i < perPhase; i++) {
                const bool sampled = i % stride == 0;
                std::optional<Span> op;
                if (tracer.on() && sampled)
                    op.emplace(tracer, tid, "workload.op",
                               Span::kNewGroup);
                const double pick = rng.nextDouble();
                const Tick t0 = ctx.localTicks();
                const std::uint64_t key = chooser.next(rng);
                if (pick < mix.read) {
                    c.counts.reads++;
                    Span call(tracer, tid, "apps.get", 0, sampled);
                    if (app->workloadGet(ctx, tid, key))
                        c.counts.readsFound++;
                    c.getWallNs.push_back(
                        static_cast<double>(call.close()));
                    c.getTicks += ctx.localTicks() - t0;
                } else {
                    const std::uint64_t val = rng();
                    c.counts.updates++;
                    Span call(tracer, tid, "apps.put", 0, sampled);
                    app->workloadPut(ctx, tid, key, val);
                    c.putWallNs.push_back(
                        static_cast<double>(call.close()));
                    c.putTicks += ctx.localTicks() - t0;
                }
                c.ticks.record(ctx.localTicks() - t0);
            }
            c.cpuS.push_back(cpuSeconds(CLOCK_THREAD_CPUTIME_ID) - cpu0);
            if (phase + 1 == kPhases)
                app->workloadThreadDone(ctx, tid);
            c.elapsed += ctx.localTicks() - start;
        });
        r.phaseS.push_back(measured.seconds());
        for (unsigned t = 1; t < shape.threads; t++)
            tracer.setLaneRoot(t, 0);
    }

    for (const Client &c : r.clients) {
        r.sim.latency.merge(c.ticks);
        r.sim.ops.reads += c.counts.reads;
        r.sim.ops.readsFound += c.counts.readsFound;
        r.sim.ops.updates += c.counts.updates;
        r.sim.elapsedTicks = std::max(r.sim.elapsedTicks, c.elapsed);
        r.sim.totalTicks += c.elapsed;
    }
    r.events = rt->traces().totalEvents();
    r.linesPersisted = rt->pool().stats().linesPersisted - lines0;

    // Quantiles per round keep memory to one round's samples; the run
    // reports their medians over rounds.
    std::vector<double> gets, puts;
    for (Client &c : r.clients) {
        gets.insert(gets.end(), c.getWallNs.begin(), c.getWallNs.end());
        puts.insert(puts.end(), c.putWallNs.begin(), c.putWallNs.end());
        std::vector<double>().swap(c.getWallNs);
        std::vector<double>().swap(c.putWallNs);
    }
    std::vector<double> ops = gets;
    ops.insert(ops.end(), puts.begin(), puts.end());
    r.wall = {quantile(ops, 0.50), quantile(ops, 0.99),
              quantile(gets, 0.50), quantile(gets, 0.99),
              quantile(puts, 0.50), quantile(puts, 0.99),
              gets.size(), puts.size()};

    {
        Span s(tracer, 0, "apps.check");
        r.check = app->workloadCheck(*rt);
        r.checkS = s.seconds();
    }
    if (analyze) {
        Span s(tracer, 0, "analysis.analyze_traces");
        r.writeAmp =
            analysis::analyzeTraces(rt->traces()).amplification.ratio();
    }
    {
        Span s(tracer, 0, "bench.teardown");
        app.reset();
        rt.reset();
    }
    return r;
}

} // namespace

std::size_t
ycsbPoolBytes(bool tiny)
{
    return tiny ? std::size_t(64) << 20 : Shape().poolBytes;
}

Report
runYcsb(char mix_name, const RunOptions &opt, Tracer &tracer)
{
    const workload::MixSpec mix = workload::MixSpec::ycsb(mix_name);
    const Shape shape = shapeFor(opt.tiny, mix);
    const bool updates = mix.update > 0.0;

    Report rep;
    std::vector<Round> rounds;
    const std::int64_t t0 = nowNs();
    while (rounds.size() < 2 ||
           static_cast<double>(nowNs() - t0) * 1e-9 < opt.seconds) {
        // Amplification is deterministic: analyze the first round only.
        rounds.push_back(runRound(shape, mix, opt.seed,
                                  updates && rounds.empty(), tracer));
        const Round &r = rounds.back();
        rep.attempt(r.sim.ops.total());
        rep.check("ycsb.workload_check", r.check.ok(), r.check.brief());
        rep.check("ycsb.sim_digest_repeat",
                  r.digest() == rounds.front().digest(),
                  "round " + std::to_string(rounds.size() - 1) +
                      " differs from round 0");
    }
    const Round &first = rounds.front();
    const std::uint64_t n = rounds.size();
    const std::uint64_t opsPerRound = first.sim.ops.total();
    if (updates)
        rep.check("ycsb.write_amp_positive", first.writeAmp > 0.0);

    const double opsPerLaunch =
        static_cast<double>(shape.opsPerThread / kPhases);
    std::vector<double> setup, appSetup, rates, cpuRates, check;
    std::vector<double> op50, op99, get50, get99, put50, put99;
    for (const Round &r : rounds) {
        setup.push_back(r.setupS);
        appSetup.push_back(r.appSetupS);
        for (const double p : r.phaseS)
            rates.push_back(static_cast<double>(opsPerRound) / kPhases /
                            p / 1e3);
        for (const Client &c : r.clients)
            for (const double s : c.cpuS)
                if (s > 0.0)
                    cpuRates.push_back(opsPerLaunch / s);
        check.push_back(r.checkS);
        op50.push_back(r.wall.op50);
        op99.push_back(r.wall.op99);
        get50.push_back(r.wall.get50);
        get99.push_back(r.wall.get99);
        put50.push_back(r.wall.put50);
        put99.push_back(r.wall.put99);
    }
    const std::uint64_t allOps = opsPerRound * n;
    const std::uint64_t allGets = first.wall.gets * n;
    const std::uint64_t allPuts = first.wall.puts * n;

    // End to end, host clock. Medians over rounds or phases: a slow
    // stretch (a noisy neighbour) does not move them.
    const double kops = median(rates);
    rep.set("setup_s", median(setup), n);
    rep.set("host_kops_per_s", kops, rates.size());
    rep.set("op_wall_p50_us", median(op50) / 1e3, allOps);
    rep.set("op_wall_p99_us", median(op99) / 1e3, allOps);
    // On the clients' own CPU time: on a shared machine the
    // launch-to-join wall time of four busy threads moves by tens of
    // percent between runs.
    rep.set("host_rate", shape.threads * median(cpuRates),
            cpuRates.size());
    // End to end, simulated clock (identical in every round).
    rep.set("sim_kops_per_s", first.sim.throughputOpsPerSec() / 1e3,
            opsPerRound);
    rep.set("sim_op_p50_ns",
            static_cast<double>(first.sim.latency.quantile(0.50)),
            opsPerRound);
    rep.set("sim_op_p99_ns",
            static_cast<double>(first.sim.latency.quantile(0.99)),
            opsPerRound);
    if (updates)
        rep.set("write_amp", first.writeAmp, 1);

    // Per layer.
    std::uint64_t gets = 0, puts = 0, getTicks = 0, putTicks = 0;
    for (const Client &c : first.clients) {
        gets += c.counts.reads;
        puts += c.counts.updates;
        getTicks += c.getTicks;
        putTicks += c.putTicks;
    }
    rep.set("apps.workload_setup_ms", median(appSetup) * 1e3, n);
    rep.set("apps.check_ms", median(check) * 1e3, n);
    rep.set("apps.get_wall_p50_ns", median(get50), allGets);
    rep.set("apps.get_wall_p99_ns", median(get99), allGets);
    rep.set("apps.get_sim_ns",
            static_cast<double>(getTicks) / static_cast<double>(gets),
            gets);
    if (puts) {
        rep.set("apps.put_wall_p50_ns", median(put50), allPuts);
        rep.set("apps.put_wall_p99_ns", median(put99), allPuts);
        rep.set("apps.put_sim_ns",
                static_cast<double>(putTicks) / static_cast<double>(puts),
                puts);
    }
    rep.set("pm.lines_persisted_per_op",
            static_cast<double>(first.linesPersisted) /
                static_cast<double>(opsPerRound),
            opsPerRound);
    rep.set("trace.events_per_op",
            static_cast<double>(first.events) /
                static_cast<double>(opsPerRound),
            opsPerRound);
    return rep;
}

} // namespace perfbench
