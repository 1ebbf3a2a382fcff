/**
 * @file
 * whisper_perfbench: one run of one benchmark workload.
 *
 *   whisper_perfbench --workload NAME --seed N --seconds S
 *                     [--trace 0|1] [--tiny] [--out-dir DIR]
 *
 * Workloads: ycsb-a-nvml, ycsb-c-nvml, crashfuzz-layers,
 * trace-pipeline (perfbench/spec.json describes each). Prints one
 * JSON object: every metric as [value, samples], every correctness
 * check, and the ops/cases/stages attempted and failed. Exits 1 when
 * any check failed, 2 on a usage error.
 *
 * --trace 0 measures the workload with tracing off (the end-to-end
 * run). --trace 1 is the per-layer run: the same untraced pass as a
 * baseline, small traced fixtures of every workload kind (so every
 * per-layer metric has a value), the primitive probes on the
 * workload's pool size, and a two-round traced pass of the workload
 * whose spans are written to DIR/spans-NAME.tsv. Per-layer values
 * from the workload's own traced pass replace the fixtures'.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hh"

using namespace perfbench;

namespace
{

constexpr unsigned kLanes = 4; // client threads of the widest workload

struct Kind
{
    const char *name;
    const char *headline; //!< end-to-end metric the overhead is taken on
    bool higherIsBetter;  //!< of the headline
    std::size_t (*pool)(bool tiny);
    Report (*run)(const RunOptions &, Tracer &);
};

const Kind kKinds[] = {
    {"ycsb-a-nvml", "host_kops_per_s", true, ycsbPoolBytes,
     [](const RunOptions &o, Tracer &t) { return runYcsb('A', o, t); }},
    {"ycsb-c-nvml", "host_kops_per_s", true, ycsbPoolBytes,
     [](const RunOptions &o, Tracer &t) { return runYcsb('C', o, t); }},
    {"crashfuzz-layers", "fuzz_cases_per_s", true,
     [](bool) { return fuzzPoolBytes(); }, runCrashfuzz},
    {"trace-pipeline", "pipeline_s", false, pipelinePoolBytes,
     runPipeline},
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: whisper_perfbench --workload NAME --seed N "
                 "--seconds S [--trace 0|1] [--tiny] [--out-dir DIR]\n"
                 "workloads:");
    for (const Kind &k : kKinds)
        std::fprintf(stderr, " %s", k.name);
    std::fprintf(stderr, "\n");
    return 2;
}

/** Process-wide resource use (getrusage, this process). */
void
addRusage(Report &rep, bool layers)
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    rep.set("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, 1);
    if (!layers)
        return;
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    rep.set("proc.user_s", secs(ru.ru_utime), 1);
    rep.set("proc.sys_s", secs(ru.ru_stime), 1);
}

Report
tracedRun(const Kind &kind, const RunOptions &opt, Tracer &off,
          Tracer &on, const std::string &spans_path)
{
    Report out = kind.run(opt, off);

    RunOptions fixture = opt;
    fixture.tiny = true;
    fixture.seconds = 0; // two rounds
    for (const Kind &k : kKinds) {
        if (std::strcmp(k.name, "ycsb-c-nvml") == 0)
            continue; // the ycsb-a fixture covers gets and puts
        Span s(on, 0, "bench.fixture");
        out.absorbLayers(k.run(fixture, on));
    }
    out.absorbLayers(runProbes(kind.pool(opt.tiny), kLanes, opt, on));

    RunOptions tracedOpt = opt;
    tracedOpt.seconds = 0;
    Report traced;
    {
        Span s(on, 0, "bench.workload");
        traced = kind.run(tracedOpt, on);
    }
    out.absorbLayers(traced);

    const double base = out.metrics().at(kind.headline).value;
    const double with = traced.metrics().at(kind.headline).value;
    // Traced minus untraced, and the slowdown as a share of untraced.
    out.set(std::string("trace_overhead.") + kind.headline, with - base,
            1);
    out.set("trace_overhead_frac",
            (kind.higherIsBetter ? base - with : with - base) / base, 1);
    if (!on.write(spans_path))
        out.check("bench.spans_written", false, spans_path);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opt;
    std::string workload;
    bool traced = false;
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (a == "--tiny") {
            opt.tiny = true;
        } else if (a == "--workload" && (v = value())) {
            workload = v;
        } else if (a == "--seed" && (v = value())) {
            opt.seed = std::strtoull(v, nullptr, 10);
        } else if (a == "--seconds" && (v = value())) {
            opt.seconds = std::atof(v);
        } else if (a == "--trace" && (v = value())) {
            traced = std::strcmp(v, "1") == 0;
        } else if (a == "--out-dir" && (v = value())) {
            opt.outDir = v;
        } else {
            return usage();
        }
    }
    const Kind *kind = nullptr;
    for (const Kind &k : kKinds)
        if (workload == k.name)
            kind = &k;
    if (!kind || opt.seconds < 0)
        return usage();

    try {
        Tracer off(false, kLanes);
        Report rep;
        if (traced) {
            Tracer on(true, kLanes);
            rep = tracedRun(*kind, opt, off, on,
                            opt.outDir + "/spans-" + workload + ".tsv");
        } else {
            rep = kind->run(opt, off);
        }
        addRusage(rep, traced);
        rep.set("failed_frac",
                static_cast<double>(rep.failed()) /
                    static_cast<double>(rep.attempted()),
                rep.attempted());
        std::printf("%s\n", rep.json(workload, opt.seed, traced).c_str());
        return rep.failed() == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "whisper_perfbench: %s\n", e.what());
        return 2;
    }
}
