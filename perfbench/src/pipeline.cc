/**
 * @file
 * Trace-pipeline workload: the paper's Figure 10 path.
 *
 * A round records vacation (Mnemosyne layer) with DRAM events
 * (core::runApp), writes the trace file, analyzes it (one job, then
 * four jobs for the identity check), reads it back and replays it
 * under x86-nvm and hops-nvm (sim::Simulator::run, once per model).
 */

#include <cstring>
#include <filesystem>
#include <memory>

#include "bench.hh"
#include "analysis/pipeline.hh"
#include "common/histogram.hh"
#include "core/harness.hh"
#include "sim/simulator.hh"
#include "trace/trace_io.hh"

namespace perfbench
{

using namespace whisper;

namespace
{

struct Round
{
    double recordS = 0, writeS = 0, analyzeJ1S = 0, analyzeJ4S = 0,
           readS = 0, simX86S = 0, simHopsS = 0;
    double cpuS = 0; //!< process CPU seconds of the stages in pipeline_s
    bool recorded = false, written = false, analyzed = false, read = false;
    std::uint64_t events = 0;
    std::uint64_t bytes = 0;
    std::uint64_t linesPersisted = 0;
    std::uint64_t ops = 0;
    std::uint64_t analysisJ1 = 0; //!< analysisDigest() at one job
    std::uint64_t analysisJ4 = 0; //!< ... and at four
    double writeAmp = 0;
    sim::SimResult x86;
    sim::SimResult hops;
};

/** FNV-1a over every field the §5 analyses report. */
std::uint64_t
analysisDigest(const analysis::AnalysisResult &a)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        for (unsigned b = 0; b < 8; b++) {
            h ^= (v >> (b * 8)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    auto mixDouble = [&mix](double d) {
        std::uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(d));
        std::memcpy(&bits, &d, sizeof(d));
        mix(bits);
    };
    auto mixHist = [&mix](const Histogram &hist) {
        for (const auto &[value, count] : hist.values()) {
            mix(value);
            mix(count);
        }
    };
    mix(a.threadCount);
    mix(a.totalEvents);
    mix(a.firstTick);
    mix(a.lastTick);
    mix(a.epochs.totalEpochs);
    mix(a.epochs.totalTransactions);
    mixDouble(a.epochs.epochsPerSecond);
    mixHist(a.epochs.epochSizes);
    mixHist(a.epochs.epochsPerTx);
    mixHist(a.epochs.singletonBytes);
    mixDouble(a.epochs.singletonFraction);
    mixDouble(a.epochs.singletonUnder10B);
    mixDouble(a.epochs.durabilityFenceFraction);
    mix(a.dependencies.totalEpochs);
    mix(a.dependencies.selfDependent);
    mix(a.dependencies.crossDependent);
    mix(a.mix.pmAccesses);
    mix(a.mix.dramAccesses);
    mix(a.nti.cacheableStores);
    mix(a.nti.ntStores);
    mix(a.nti.cacheableBytes);
    mix(a.nti.ntBytes);
    mix(a.amplification.userBytes);
    mix(a.amplification.logBytes);
    mix(a.amplification.allocBytes);
    mix(a.amplification.txMetaBytes);
    mix(a.amplification.fsMetaBytes);
    return h;
}

/** Replay @p path under @p kind; cycles, or 0 when unreadable. */
std::uint64_t
replayCycles(const std::string &path, sim::ModelKind kind)
{
    trace::TraceSet traces(true);
    if (!trace::readTraceFile(path, traces))
        return 0;
    return sim::Simulator(sim::SimParams(), kind).run(traces).cycles;
}

/**
 * One round over @p path; @p keep_as non-empty renames the trace file
 * there instead of deleting it.
 */
Round
runRound(const core::AppConfig &cfg, const std::string &path,
         const std::string &keep_as, Tracer &tracer)
{
    Round r;
    Span round(tracer, 0, "bench.round");
    r.ops = static_cast<std::uint64_t>(cfg.threads) * cfg.opsPerThread;
    auto cpuNow = [] { return cpuSeconds(CLOCK_PROCESS_CPUTIME_ID); };
    double cpu0 = cpuNow();
    {
        core::RunResult run;
        {
            Span s(tracer, 0, "core.run_app");
            run = core::runApp("vacation", cfg);
            r.recordS = s.seconds();
        }
        r.recorded = run.verified;
        const trace::TraceSet &traces = run.runtime->traces();
        r.events = traces.totalEvents();
        r.linesPersisted = run.runtime->pool().stats().linesPersisted;
        {
            Span s(tracer, 0, "trace.write");
            r.written = trace::writeTraceFile(path, traces);
            r.writeS = s.seconds();
        }
        r.cpuS += cpuNow() - cpu0;
        Span s(tracer, 0, "bench.teardown");
        run.app.reset();
        run.runtime.reset();
    }
    std::error_code ec;
    r.bytes = std::filesystem::file_size(path, ec);

    analysis::AnalysisResult j1, j4;
    analysis::AnalysisOptions opts;
    {
        Span s(tracer, 0, "analysis.analyze_j1");
        opts.jobs = 1;
        cpu0 = cpuNow();
        r.analyzed = analysis::analyzeTraceFile(path, j1, opts);
        r.analyzeJ1S = s.seconds();
        r.cpuS += cpuNow() - cpu0;
    }
    {
        Span s(tracer, 0, "analysis.analyze_j4");
        opts.jobs = 4;
        r.analyzed = analysis::analyzeTraceFile(path, j4, opts) &&
                     r.analyzed;
        r.analyzeJ4S = s.seconds();
    }
    r.analysisJ1 = analysisDigest(j1);
    r.analysisJ4 = analysisDigest(j4);
    r.writeAmp = j1.amplification.ratio();

    auto traces = std::make_unique<trace::TraceSet>(true);
    {
        Span s(tracer, 0, "trace.read");
        cpu0 = cpuNow();
        r.read = trace::readTraceFile(path, *traces);
        r.readS = s.seconds();
        r.cpuS += cpuNow() - cpu0;
    }
    if (keep_as.empty())
        std::filesystem::remove(path, ec);
    else
        std::filesystem::rename(path, keep_as, ec);
    const sim::SimParams params;
    cpu0 = cpuNow();
    {
        Span s(tracer, 0, "sim.run_x86_nvm");
        r.x86 = sim::Simulator(params, sim::ModelKind::X86Nvm).run(*traces);
        r.simX86S = s.seconds();
    }
    {
        Span s(tracer, 0, "sim.run_hops_nvm");
        r.hops =
            sim::Simulator(params, sim::ModelKind::HopsNvm).run(*traces);
        r.simHopsS = s.seconds();
    }
    r.cpuS += cpuNow() - cpu0;
    {
        Span s(tracer, 0, "bench.teardown");
        traces.reset();
    }
    return r;
}

} // namespace

std::size_t
pipelinePoolBytes(bool tiny)
{
    return tiny ? std::size_t(64) << 20 : std::size_t(256) << 20;
}

Report
runPipeline(const RunOptions &opt, Tracer &tracer)
{
    core::AppConfig cfg;
    cfg.threads = 4;
    cfg.opsPerThread = opt.tiny ? 40 : 400;
    cfg.seed = opt.seed;
    cfg.poolBytes = pipelinePoolBytes(opt.tiny);
    cfg.recordVolatile = true;
    const std::string path = opt.outDir + "/pipeline-trace.bin";
    const std::string first_path = opt.outDir + "/pipeline-trace-0.bin";

    Report rep;
    std::vector<Round> rounds;
    const std::int64_t t0 = nowNs();
    while (rounds.size() < 2 ||
           static_cast<double>(nowNs() - t0) * 1e-9 < opt.seconds) {
        rounds.push_back(runRound(cfg, path,
                                  rounds.empty() ? first_path : "",
                                  tracer));
        const Round &r = rounds.back();
        const std::string which =
            "round " + std::to_string(rounds.size() - 1);
        rep.attempt(7); // record, write, analyze x2, read, simulate x2
        rep.check("pipeline.run_app_verified", r.recorded, which);
        rep.check("pipeline.trace_io", r.written && r.read, which);
        rep.check("pipeline.analyze_ok", r.analyzed, which);
        rep.check("pipeline.analyze_j1_eq_j4",
                  r.analysisJ1 == r.analysisJ4, which);
    }

    // Four recording threads interleave on the shared logical clock,
    // so each round records a slightly different trace; what must
    // repeat exactly is the simulation of one trace. Replay round 0's.
    const Round &first = rounds.front();
    {
        Span s(tracer, 0, "bench.replay_check");
        rep.attempt(2);
        rep.check("pipeline.sim_replay_repeat",
                  replayCycles(first_path, sim::ModelKind::X86Nvm) ==
                          first.x86.cycles &&
                      replayCycles(first_path, sim::ModelKind::HopsNvm) ==
                          first.hops.cycles,
                  "round 0 trace replayed to different cycle counts");
        std::error_code ec;
        std::filesystem::remove(first_path, ec);
    }

    const std::uint64_t n = rounds.size();
    std::vector<double> record, write, j1, j4, read, x86, hops, speedup,
        amp, cpu;
    for (const Round &r : rounds) {
        record.push_back(r.recordS);
        write.push_back(r.writeS);
        j1.push_back(r.analyzeJ1S);
        j4.push_back(r.analyzeJ4S);
        read.push_back(r.readS);
        x86.push_back(r.simX86S);
        hops.push_back(r.simHopsS);
        speedup.push_back(static_cast<double>(r.x86.cycles) /
                          static_cast<double>(r.hops.cycles));
        amp.push_back(r.writeAmp);
        cpu.push_back(r.cpuS);
    }
    const double events = static_cast<double>(first.events);
    const double simS = sum(x86) + sum(hops);
    // A typical round: each stage's median over rounds, summed, so a
    // slow stretch (a noisy neighbour) in one stage does not move it.
    const double pipelineS = median(record) + median(write) + median(j1) +
                             median(read) + median(x86) + median(hops);

    rep.set("setup_s", median(record), n);
    rep.set("pipeline_s", pipelineS, n);
    rep.set("sim_mev_per_s", events * 2.0 * static_cast<double>(n) /
                                 simS / 1e6,
            2 * n);
    rep.set("hops_speedup", median(speedup), n);
    rep.set("write_amp", median(amp), n);
    rep.set("host_rate", events / median(cpu), n);

    rep.set("trace.write_s", median(write), n);
    rep.set("trace.read_s", median(read), n);
    rep.set("trace.bytes", static_cast<double>(first.bytes), 1);
    rep.set("trace.events_per_op", events / static_cast<double>(first.ops),
            first.ops);
    rep.set("pm.lines_persisted_per_op",
            static_cast<double>(first.linesPersisted) /
                static_cast<double>(first.ops),
            first.ops);
    rep.set("analysis.analyze_s.j1", median(j1), n);
    rep.set("analysis.analyze_s.j4", median(j4), n);
    rep.set("analysis.mev_per_s", events / median(j1) / 1e6, n);
    rep.set("sim.run_s.x86_nvm", median(x86), n);
    rep.set("sim.run_s.hops_nvm", median(hops), n);
    rep.set("sim.mcycles.x86_nvm",
            static_cast<double>(first.x86.cycles) / 1e6, 1);
    rep.set("sim.mcycles.hops_nvm",
            static_cast<double>(first.hops.cycles) / 1e6, 1);
    rep.set("sim.fence_stall_cycles.x86_nvm",
            static_cast<double>(first.x86.persist.fenceStalls), 1);
    rep.set("sim.fence_stall_cycles.hops_nvm",
            static_cast<double>(first.hops.persist.fenceStalls), 1);
    rep.set("sim.l1_hit_rate", first.x86.l1Stats.hitRate(), 1);
    return rep;
}

} // namespace perfbench
