/**
 * @file
 * whisper_cli — record, analyze and simulate WHISPER traces.
 *
 * The command-line face of the library, mirroring the paper's
 * workflow: instrument a run (their PIN/mmiotrace/ftrace pipeline),
 * analyze the trace offline (§5), replay it through hardware models
 * (§6).
 *
 *   whisper_cli record  <app> <trace.bin> [ops] [threads]
 *   whisper_cli analyze <trace.bin> [--jobs N]
 *   whisper_cli optimize <trace.bin> [--jobs N] [--json]
 *   whisper_cli simulate <trace.bin> [model...]
 *   whisper_cli apps [--ops N] [--threads N]
 *   whisper_cli workload --app <name> [--mix A..F] [--dist d] ...
 *   whisper_cli crashfuzz [--cases N] [--jobs N] [--apps a,b] ...
 *   whisper_cli crashfuzz --replay <app>:<caseId> [--at K] ...
 *   whisper_cli lincheck <history.hist> [--budget N]
 *   whisper_cli list
 *   whisper_cli help
 *
 * Models: x86-nvm x86-pwq hops-nvm hops-pwq dpo ideal (default: all).
 * All subcommands are documented in docs/CLI.md.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

#include "analysis/optimize.hh"
#include "analysis/pipeline.hh"
#include "common/flags.hh"
#include "common/table.hh"
#include "core/harness.hh"
#include "fuzz/crash_fuzz.hh"
#include "lincheck/checker.hh"
#include "lincheck/history_io.hh"
#include "sim/simulator.hh"
#include "trace/trace_io.hh"
#include "workload/workload.hh"

using namespace whisper;

namespace
{

/**
 * The usage text, shared by `help` (stdout, exit 0) and error paths
 * (stderr, exit 2). scripts/check.sh diffs this text against
 * docs/CLI.md, so keep the two in sync.
 */
void
printUsage(std::FILE *to)
{
    std::fputs(
        "usage:\n"
        "  whisper_cli record  <app> <trace.bin> [ops] [threads]\n"
        "  whisper_cli analyze <trace.bin> [--jobs N]\n"
        "  whisper_cli optimize <trace.bin> [--jobs N] [--json]\n"
        "  whisper_cli simulate <trace.bin> "
        "[--device table3|optane] [model...]\n"
        "  whisper_cli apps [--ops N] [--threads N]\n"
        "  whisper_cli workload --app <name> [--mix A..F|r:u:i:m:s] "
        "[--dist uniform|zipfian|latest] [--keys N] [--threads N] "
        "[--ops N] [--seed S] [--pool-mb M] [--theta T] "
        "[--trace <out.bin>] [--lincheck] [--json]\n"
        "  whisper_cli crashfuzz [--cases N] [--jobs N] "
        "[--apps a,b] [--ops N] [--seed S] [--pool-mb M] "
        "[--threads N] [--no-shrink] [--faults] [--elide] "
        "[--lincheck] [--json]\n"
        "  whisper_cli crashfuzz --replay <app>:<caseId> [--at K] "
        "[--survivors csv|none] [--ops N] [--seed S] [--pool-mb M] "
        "[--threads N] [--schedule S] [--elide] [--lincheck] "
        "[--fault-plan seed:poison:tear%:transient]\n"
        "  whisper_cli lincheck <history.hist> [--budget N]\n"
        "  whisper_cli list\n"
        "  whisper_cli help\n"
        "models: x86-nvm x86-pwq hops-nvm hops-pwq dpo ideal\n",
        to);
}

int
usage()
{
    printUsage(stderr);
    return 2;
}

/** Report a FlagParser failure, then the usage text (exit 2). */
int
flagError(const FlagParser &fp)
{
    std::fprintf(stderr, "whisper_cli: %s\n", fp.error().c_str());
    return usage();
}

/**
 * Report a failed trace read. A malformed event is bad input: name
 * it and where it sits, exit 2. Any other failure exits 1.
 */
int
traceReadFailed(const trace::TraceReadFault &fault)
{
    const char *name = trace::traceReadErrorName(fault.error);
    if (!fault.badEvent()) {
        std::fprintf(stderr, "trace read failed: %s\n", name);
        return 1;
    }
    std::fprintf(stderr,
                 "trace read failed: %s (section %zu, event %llu)\n",
                 name, fault.section,
                 static_cast<unsigned long long>(fault.event));
    return 2;
}

int
cmdRecord(int argc, char **argv)
{
    FlagParser fp;
    fp.command("record").maxPositionals(4);
    if (!fp.parse(argc, argv))
        return flagError(fp);
    const auto &pos = fp.positionals();
    if (pos.size() < 2)
        return usage();
    core::AppConfig config;
    config.opsPerThread = 200;
    config.threads = 4;
    if (pos.size() > 2 && !parseU64(pos[2], config.opsPerThread))
        return usage();
    std::uint64_t threads = 0;
    if (pos.size() > 3) {
        if (!parseU64(pos[3], threads) || threads < 1)
            return usage();
        config.threads = static_cast<unsigned>(threads);
    }
    config.poolBytes = 256 << 20;
    config.recordVolatile = true;

    std::printf("recording %s (%u x %llu ops)...\n", pos[0],
                config.threads,
                (unsigned long long)config.opsPerThread);
    core::RunResult result = core::runApp(pos[0], config);
    if (!result.verified) {
        std::fprintf(stderr, "verification failed:\n%s\n",
                     result.report.describe().c_str());
        return 1;
    }
    if (!trace::writeTraceFile(pos[1], result.runtime->traces())) {
        std::fputs("trace write failed\n", stderr);
        return 1;
    }
    std::printf("wrote %zu events to %s\n",
                result.runtime->traces().totalEvents(), pos[1]);
    return 0;
}

int
cmdAnalyze(int argc, char **argv)
{
    analysis::AnalysisOptions options;
    FlagParser fp;
    fp.command("analyze")
        .u32("--jobs", &options.jobs)
        .maxPositionals(1);
    if (!fp.parse(argc, argv))
        return flagError(fp);
    if (fp.positionals().empty())
        return usage();
    const char *path = fp.positionals()[0];

    // Streams the file's per-thread sections across --jobs workers;
    // the printed table is byte-identical at any job count.
    analysis::AnalysisResult result;
    trace::TraceReadFault fault;
    if (!analysis::analyzeTraceFile(path, result, options, &fault))
        return traceReadFailed(fault);

    TextTable table(std::string("analysis of ") + path);
    table.header({"metric", "value"});
    table.row({"threads", TextTable::num(result.threadCount)});
    table.row({"events", TextTable::num(result.totalEvents)});
    table.row({"epochs", TextTable::num(result.epochs.totalEpochs)});
    table.row({"transactions",
               TextTable::num(result.epochs.totalTransactions)});
    table.row({"epochs/tx (median)",
               TextTable::num(result.epochs.epochsPerTx.median())});
    table.row({"singleton epochs",
               TextTable::percent(result.epochs.singletonFraction,
                                  1)});
    table.row({"self-dependent",
               TextTable::percent(result.dependencies.selfFraction(),
                                  2)});
    table.row({"cross-dependent",
               TextTable::percent(
                   result.dependencies.crossFraction(), 3)});
    table.row({"PM access share",
               TextTable::percent(result.mix.pmFraction(), 2)});
    table.row({"NTI write share",
               TextTable::percent(result.nti.ntiFraction(), 1)});
    table.row({"write amplification",
               TextTable::fixed(result.amplification.ratio(), 2) +
                   "x"});
    table.print();
    return 0;
}

int
cmdOptimize(int argc, char **argv)
{
    analysis::OptimizeOptions options;
    bool json = false;
    FlagParser fp;
    fp.command("optimize")
        .u32("--jobs", &options.jobs)
        .flag("--json", &json)
        .maxPositionals(1);
    if (!fp.parse(argc, argv))
        return flagError(fp);
    if (fp.positionals().empty())
        return usage();
    const char *path = fp.positionals()[0];

    // Same section-streaming driver discipline as analyze: the
    // summary adds up per thread, so output is byte-identical at any
    // --jobs value (scripts/check.sh diffs --jobs 1 against N).
    analysis::OptimizeResult result;
    trace::TraceReadFault fault;
    if (!analysis::optimizeTraceFile(path, result, options, &fault))
        return traceReadFailed(fault);
    const analysis::OptimizeSummary &s = result.summary;
    const auto suggestions = analysis::suggestElisions(s);

    if (json) {
        std::printf(
            "{\"threads\":%zu,\"events\":%llu,"
            "\"flushes\":{\"total\":%llu,\"redirtied\":%llu,"
            "\"clean\":%llu,\"redundant\":%llu},"
            "\"fences\":{\"total\":%llu,\"no_conflict\":%llu,"
            "\"coalescible\":%llu,\"redundant\":%llu},"
            "\"origins\":[",
            result.threadCount,
            (unsigned long long)result.totalEvents,
            (unsigned long long)s.totalFlushes,
            (unsigned long long)s.flushRedirtied,
            (unsigned long long)s.flushClean,
            (unsigned long long)s.redundantFlushes(),
            (unsigned long long)s.totalFences,
            (unsigned long long)s.fenceNoConflict,
            (unsigned long long)s.fenceCoalescible,
            (unsigned long long)s.redundantFences());
        bool first = true;
        for (std::size_t i = 0; i < trace::kOriginCount; i++) {
            const analysis::OriginCounts &c = s.byOrigin[i];
            if (!c.flushes && !c.fences)
                continue;
            std::printf(
                "%s{\"origin\":\"%s\",\"flushes\":%llu,"
                "\"redundant_flushes\":%llu,\"fences\":%llu,"
                "\"redundant_fences\":%llu}",
                first ? "" : ",",
                trace::originName(static_cast<trace::Origin>(i)),
                (unsigned long long)c.flushes,
                (unsigned long long)c.redundantFlushes,
                (unsigned long long)c.fences,
                (unsigned long long)c.redundantFences);
            first = false;
        }
        std::printf("],\"suggestions\":[");
        first = true;
        for (const auto &sug : suggestions) {
            std::printf(
                "%s{\"origin\":\"%s\",\"policy\":\"%s\","
                "\"redundant_flushes\":%llu,"
                "\"redundant_fences\":%llu}",
                first ? "" : ",", trace::originName(sug.origin),
                sug.policy,
                (unsigned long long)sug.counts.redundantFlushes,
                (unsigned long long)sug.counts.redundantFences);
            first = false;
        }
        std::printf("]}\n");
        return 0;
    }

    const auto pct = [](std::uint64_t part, std::uint64_t whole) {
        return TextTable::percent(
            whole ? static_cast<double>(part) /
                        static_cast<double>(whole)
                  : 0.0,
            1);
    };
    TextTable table(std::string("fence/flush redundancy in ") + path);
    table.header({"metric", "count", "share"});
    table.row({"threads", TextTable::num(result.threadCount), ""});
    table.row({"events", TextTable::num(result.totalEvents), ""});
    table.row({"flushes", TextTable::num(s.totalFlushes), ""});
    table.row({"  (a) re-dirtied", TextTable::num(s.flushRedirtied),
               pct(s.flushRedirtied, s.totalFlushes)});
    table.row({"  (b) clean line", TextTable::num(s.flushClean),
               pct(s.flushClean, s.totalFlushes)});
    table.row({"redundant flushes",
               TextTable::num(s.redundantFlushes()),
               pct(s.redundantFlushes(), s.totalFlushes)});
    table.row({"fences", TextTable::num(s.totalFences), ""});
    table.row({"  (c) no conflict", TextTable::num(s.fenceNoConflict),
               pct(s.fenceNoConflict, s.totalFences)});
    table.row({"  (d) coalescible",
               TextTable::num(s.fenceCoalescible),
               pct(s.fenceCoalescible, s.totalFences)});
    table.row({"redundant fences", TextTable::num(s.redundantFences()),
               pct(s.redundantFences(), s.totalFences)});
    table.print();

    TextTable origins("by origin site");
    origins.header({"origin", "flushes", "redundant", "fences",
                    "redundant"});
    for (std::size_t i = 0; i < trace::kOriginCount; i++) {
        const analysis::OriginCounts &c = s.byOrigin[i];
        if (!c.flushes && !c.fences)
            continue;
        origins.row(
            {trace::originName(static_cast<trace::Origin>(i)),
             TextTable::num(c.flushes),
             TextTable::num(c.redundantFlushes),
             TextTable::num(c.fences),
             TextTable::num(c.redundantFences)});
    }
    origins.print();

    for (const auto &sug : suggestions) {
        if (sug.policy[0] != '\0')
            std::printf("suggest: %s -> elision policy %s "
                        "(%llu flushes, %llu fences removable)\n",
                        trace::originName(sug.origin), sug.policy,
                        (unsigned long long)
                            sug.counts.redundantFlushes,
                        (unsigned long long)
                            sug.counts.redundantFences);
        else
            std::printf("measured: %s has %llu/%llu redundant ops "
                        "but no mechanically-safe policy\n",
                        trace::originName(sug.origin),
                        (unsigned long long)(
                            sug.counts.redundantFlushes +
                            sug.counts.redundantFences),
                        (unsigned long long)(sug.counts.flushes +
                                             sug.counts.fences));
    }
    return 0;
}

int
cmdSimulate(int argc, char **argv)
{
    const char *device = "table3";
    FlagParser fp;
    fp.command("simulate").str("--device", &device);
    if (!fp.parse(argc, argv))
        return flagError(fp);
    const auto &pos = fp.positionals();
    if (pos.empty())
        return usage();

    sim::SimParams params;
    if (std::strcmp(device, "optane") == 0) {
        params.device = sim::PmDeviceParams::optaneCalibrated();
    } else if (std::strcmp(device, "table3") != 0) {
        std::fprintf(stderr,
                     "unknown device '%s' (table3|optane)\n", device);
        return 2;
    }

    trace::TraceSet traces;
    trace::TraceReadFault fault;
    if (!trace::readTraceFile(pos[0], traces, &fault))
        return traceReadFailed(fault);

    const std::map<std::string, sim::ModelKind> by_name = {
        {"x86-nvm", sim::ModelKind::X86Nvm},
        {"x86-pwq", sim::ModelKind::X86Pwq},
        {"hops-nvm", sim::ModelKind::HopsNvm},
        {"hops-pwq", sim::ModelKind::HopsPwq},
        {"dpo", sim::ModelKind::Dpo},
        {"ideal", sim::ModelKind::Ideal},
    };
    std::vector<sim::ModelKind> kinds;
    for (std::size_t i = 1; i < pos.size(); i++) {
        auto it = by_name.find(pos[i]);
        if (it == by_name.end()) {
            std::fprintf(stderr, "unknown model '%s'\n", pos[i]);
            return 2;
        }
        kinds.push_back(it->second);
    }
    if (kinds.empty()) {
        for (const auto &[name, kind] : by_name)
            kinds.push_back(kind);
    }

    const auto results = sim::runModels(traces, params, kinds);

    TextTable table(std::string("simulation of ") + pos[0]);
    table.header({"model", "cycles", "fence stalls", "PB-full",
                  "L1 hit rate", "drained epochs"});
    for (const auto &r : results) {
        table.row({r.model, TextTable::num(r.cycles),
                   TextTable::num(r.persist.fenceStalls),
                   TextTable::num(r.persist.pbFullStalls),
                   TextTable::percent(r.l1Stats.hitRate(), 1),
                   TextTable::num(r.persist.epochsDrained)});
    }
    table.print();

    if (params.device.calibrated()) {
        // Per-DIMM device traffic: only the calibrated device has a
        // multi-DIMM map, so the table would be all-zero noise under
        // table3 (which must also stay byte-identical to the legacy
        // output).
        const unsigned dimms = params.device.dimmMap.dimms();
        TextTable dev("PM device (per-DIMM line write-backs)");
        std::vector<std::string> head = {"model", "wc hits",
                                         "wc evicts", "queue wait"};
        for (unsigned d = 0; d < dimms; d++)
            head.push_back("dimm" + std::to_string(d));
        dev.header(head);
        for (const auto &r : results) {
            std::vector<std::string> row = {
                r.model, TextTable::num(r.device.wcHits),
                TextTable::num(r.device.wcEvicts),
                TextTable::num(r.device.queueWaitCycles)};
            for (unsigned d = 0; d < dimms; d++)
                row.push_back(TextTable::num(r.device.dimmWrites[d]));
            dev.row(row);
        }
        dev.print();
    }
    return 0;
}

/**
 * Run every registered application at a small scale and print the §5
 * headline metrics grouped by access layer, with one aggregate row
 * per layer — the quickest way to see the MOD layer's epochs/tx and
 * write amplification next to the logging libraries'.
 */
int
cmdApps(int argc, char **argv)
{
    core::AppConfig config;
    config.opsPerThread = 200;
    config.threads = 4;
    config.poolBytes = 256 << 20;
    FlagParser fp;
    fp.command("apps")
        .u64("--ops", &config.opsPerThread)
        .u32("--threads", &config.threads, 1)
        .maxPositionals(0);
    if (!fp.parse(argc, argv))
        return flagError(fp);

    struct Row
    {
        std::string app;
        std::uint64_t txs = 0;
        std::uint64_t epochsPerTx = 0;
        std::uint64_t userBytes = 0;
        std::uint64_t metaBytes = 0;
        double ratio = 0.0;
    };
    std::map<core::AccessLayer, std::vector<Row>> by_layer;

    for (const auto &name : core::registeredApps()) {
        core::RunResult result = core::runApp(name, config);
        if (!result.verified) {
            std::fprintf(stderr, "%s failed verification:\n%s\n",
                         name.c_str(),
                         result.report.describe().c_str());
            return 1;
        }
        const analysis::AnalysisResult a = core::analyzeRun(result);
        Row row;
        row.app = name;
        row.txs = a.epochs.totalTransactions;
        row.epochsPerTx = a.epochs.epochsPerTx.median();
        row.userBytes = a.amplification.userBytes;
        row.metaBytes = a.amplification.logBytes +
                        a.amplification.allocBytes +
                        a.amplification.txMetaBytes +
                        a.amplification.fsMetaBytes;
        row.ratio = a.amplification.ratio();
        by_layer[result.layer].push_back(row);
    }

    TextTable table("per-layer application aggregates");
    table.header({"layer", "app", "tx", "epochs/tx", "user B",
                  "meta B", "amplification"});
    for (const auto &[layer, rows] : by_layer) {
        std::uint64_t user = 0, meta = 0;
        for (const Row &row : rows) {
            table.row({core::accessLayerName(layer), row.app,
                       TextTable::num(row.txs),
                       TextTable::num(row.epochsPerTx),
                       TextTable::num(row.userBytes),
                       TextTable::num(row.metaBytes),
                       TextTable::fixed(row.ratio, 2) + "x"});
            user += row.userBytes;
            meta += row.metaBytes;
        }
        const double ratio =
            user ? static_cast<double>(meta) /
                       static_cast<double>(user)
                 : 0.0;
        table.row({core::accessLayerName(layer), "= layer total", "",
                   "", TextTable::num(user), TextTable::num(meta),
                   TextTable::fixed(ratio, 2) + "x"});
    }
    table.print();
    return 0;
}

/**
 * Run one generated YCSB-style workload and print throughput plus the
 * latency percentiles (simulated logical-clock ticks, 1 tick = 1 ns).
 * `--json` emits the docs/WORKLOADS.md JSON object instead; `--trace`
 * additionally writes the run's trace for `analyze` / `simulate`.
 */
int
cmdWorkload(int argc, char **argv)
{
    workload::WorkloadOptions opts;
    bool json = false;
    const char *trace_path = nullptr;
    const char *app = nullptr;

    FlagParser fp;
    fp.command("workload")
        .flag("--json", &json)
        .str("--app", &app)
        .custom("--mix",
                [&opts](const char *v) {
                    return workload::MixSpec::parse(v, opts.mix);
                })
        .custom("--dist",
                [&opts](const char *v) {
                    return workload::parseKeyDist(v, opts.dist);
                })
        .u64("--keys", &opts.keys, 1)
        .u32("--threads", &opts.threads, 1)
        .u64("--ops", &opts.opsPerThread)
        .u64("--seed", &opts.seed)
        .megabytes("--pool-mb", &opts.poolBytes)
        .custom("--theta",
                [&opts](const char *v) {
                    char *end = nullptr;
                    opts.zipfTheta = std::strtod(v, &end);
                    return end != v && *end == '\0' &&
                           opts.zipfTheta > 0.0 &&
                           opts.zipfTheta < 1.0;
                })
        .str("--trace", &trace_path)
        .flag("--lincheck", &opts.lincheck)
        .maxPositionals(0);
    if (!fp.parse(argc, argv))
        return flagError(fp);
    if (!app)
        return usage();
    opts.app = app;

    const workload::WorkloadResult result =
        workload::runWorkload(opts);

    if (trace_path &&
        !trace::writeTraceFile(trace_path,
                               result.runtime->traces())) {
        std::fputs("trace write failed\n", stderr);
        return 1;
    }

    if (json) {
        std::printf("%s\n", result.json().c_str());
    } else {
        char digest[24];
        std::snprintf(digest, sizeof(digest), "%016llx",
                      (unsigned long long)result.digest());
        TextTable table("workload " + opts.app + " mix " +
                        opts.mix.name + " / " +
                        workload::keyDistName(opts.dist));
        table.header({"metric", "value"});
        table.row({"layer", result.layerName});
        table.row({"threads", TextTable::num(opts.threads)});
        table.row({"keys", TextTable::num(opts.keys)});
        table.row({"ops", TextTable::num(result.ops.total())});
        table.row({"throughput (ops/s)",
                   TextTable::fixed(result.throughputOpsPerSec(), 0)});
        table.row({"p50 (ns)",
                   TextTable::num(result.latency.quantile(0.50))});
        table.row({"p90 (ns)",
                   TextTable::num(result.latency.quantile(0.90))});
        table.row({"p99 (ns)",
                   TextTable::num(result.latency.quantile(0.99))});
        table.row({"p999 (ns)",
                   TextTable::num(result.latency.quantile(0.999))});
        table.row({"min (ns)",
                   TextTable::num(result.latency.minValue())});
        table.row({"max (ns)",
                   TextTable::num(result.latency.maxValue())});
        table.row({"mean (ns)",
                   TextTable::fixed(result.latency.mean(), 1)});
        table.row({"digest", digest});
        if (result.lincheckRan) {
            char lin[64];
            std::snprintf(lin, sizeof(lin),
                          "%s keys=%llu violations=%llu%s",
                          result.lincheckViolations == 0
                              ? "witness found"
                              : "VIOLATION",
                          (unsigned long long)result.lincheckKeys,
                          (unsigned long long)
                              result.lincheckViolations,
                          result.lincheckBudget ? " (budget-degraded)"
                                                : "");
            table.row({"lincheck", lin});
        }
        table.row({"verified", result.verified ? "yes" : "NO"});
        table.print();
        if (trace_path)
            std::printf("wrote %zu events to %s\n",
                        result.runtime->traces().totalEvents(),
                        trace_path);
    }
    if (!result.verified) {
        std::fprintf(stderr, "verification failed:\n%s\n",
                     result.check.describe().c_str());
        return 1;
    }
    return 0;
}

int
cmdCrashfuzz(int argc, char **argv)
{
    fuzz::SweepOptions options;
    std::string replay;
    std::uint64_t at = ~std::uint64_t(0);
    std::uint64_t schedule = ~std::uint64_t(0);
    bool have_survivors = false;
    bool json = false;
    bool have_fault_plan = false;
    pm::FaultPlan fault_plan;
    std::vector<whisper::LineAddr> survivors;
    bool no_shrink = false;
    const char *replay_arg = nullptr;

    FlagParser fp;
    fp.command("crashfuzz")
        .flag("--no-shrink", &no_shrink)
        .flag("--faults", &options.config.faults)
        .flag("--elide", &options.config.elide)
        .flag("--lincheck", &options.config.lincheck)
        .flag("--json", &json)
        .u64("--cases", &options.cases)
        .u32("--jobs", &options.jobs)
        .u64("--ops", &options.config.opsPerThread)
        .u64("--seed", &options.config.sweepSeed)
        .megabytes("--pool-mb", &options.config.poolBytes)
        .u32("--threads", &options.config.threads, 1)
        .u64("--schedule", &schedule)
        .custom("--apps",
                [&options](const char *v) {
                    return splitList(v, ',', options.apps);
                })
        .str("--replay", &replay_arg)
        .u64("--at", &at)
        .custom("--survivors",
                [&](const char *v) {
                    have_survivors = true;
                    return fuzz::parseSurvivors(v, survivors);
                })
        .custom("--fault-plan",
                [&](const char *v) {
                    have_fault_plan = true;
                    return fuzz::parseFaultPlan(v, fault_plan);
                })
        .maxPositionals(0);
    if (!fp.parse(argc, argv))
        return flagError(fp);
    if (no_shrink)
        options.shrinkViolations = false;
    if (json)
        options.keepReports = true;
    if (replay_arg)
        replay = replay_arg;
    const std::uint64_t pool_lines =
        (options.config.poolBytes + kCacheLineSize - 1) / kCacheLineSize;
    for (std::size_t i = 0; i < survivors.size(); i++) {
        const LineAddr line = survivors[i];
        if (line >= pool_lines) {
            std::fprintf(stderr,
                         "whisper_cli: crashfuzz: survivor line %llu "
                         "beyond the %llu-line pool\n",
                         (unsigned long long)line,
                         (unsigned long long)pool_lines);
            return usage();
        }
        // Reproducers print survivor sets ascending; the crash walks
        // them in step with the ascending fault lists.
        if (i > 0 && line <= survivors[i - 1]) {
            std::fprintf(stderr,
                         "whisper_cli: crashfuzz: survivor line %llu "
                         "after %llu: lines must ascend\n",
                         (unsigned long long)line,
                         (unsigned long long)survivors[i - 1]);
            return usage();
        }
    }

    if (!replay.empty()) {
        const std::size_t colon = replay.rfind(':');
        std::uint64_t case_id = 0;
        if (colon == std::string::npos ||
            !parseU64(replay.c_str() + colon + 1, case_id))
            return usage();
        const std::string app = replay.substr(0, colon);

        const std::uint64_t total =
            fuzz::profilePmOps(app, options.config);
        fuzz::FuzzCase c =
            fuzz::deriveCase(app, case_id, total, options.config);
        if (at != ~std::uint64_t(0))
            c.crashAt = at;
        if (schedule != ~std::uint64_t(0))
            c.crash.schedule = schedule;
        if (have_fault_plan)
            c.fault = fault_plan;
        const fuzz::CaseOutcome out = fuzz::runCase(
            c, options.config,
            have_survivors ? &survivors : nullptr);
        fuzz::warnRecoveryNotes(app, case_id, out);
        if (json) {
            std::printf("%s\n",
                        core::toJson(out.report).c_str());
        } else {
            std::printf("case %s:%llu crashAt=%llu threads=%u "
                        "schedule=0x%llx fired=%d survivors=%zu "
                        "digest=%016llx image=%016llx\n",
                        app.c_str(), (unsigned long long)case_id,
                        (unsigned long long)c.crashAt, c.crash.threads,
                        (unsigned long long)c.crash.schedule,
                        out.fired ? 1 : 0, out.survivors.size(),
                        (unsigned long long)out.digest,
                        (unsigned long long)out.imageHash);
            if (!c.fault.none()) {
                std::printf("faults: torn=%llu poisoned=%llu "
                            "transient=%llu degraded=%d\n",
                            (unsigned long long)out.linesTorn,
                            (unsigned long long)out.linesPoisoned,
                            (unsigned long long)out.transientFaults,
                            out.degraded ? 1 : 0);
            }
            if (out.lincheckRan) {
                std::printf(
                    "lincheck: %s keys=%llu violations=%llu%s\n",
                    out.lincheckOk ? "witness found" : "VIOLATION",
                    (unsigned long long)out.lincheckKeys,
                    (unsigned long long)out.lincheckViolations,
                    out.lincheckBudget ? " (budget-degraded)" : "");
                if (!out.lincheckDump.empty())
                    std::printf("lincheck history: %s\n",
                                out.lincheckDump.c_str());
            }
        }
        if (!out.ok) {
            if (!json)
                std::printf("VIOLATION reproduced: %s\n",
                            out.why.c_str());
            return 1;
        }
        if (!json)
            std::printf("recovery invariants held%s\n",
                        out.degraded ? " (degraded: named media loss)"
                                     : "");
        return 0;
    }

    if (options.apps.empty())
        options.apps = core::registeredApps();
    if (options.config.threads > 1 || options.config.lincheck) {
        // Narrow the sweep to the apps the fuzzer can run this way
        // instead of panicking on the first it cannot.
        std::erase_if(options.apps, [&](const std::string &name) {
            return !fuzz::sweepable(*core::createApp(name, {}),
                                    options.config);
        });
        if (options.apps.empty()) {
            std::fputs("--threads > 1 and --lincheck need MOD- or "
                       "Hybrid-layer apps (mod-hashmap, mod-vector, "
                       "halo-hashmap)\n", stderr);
            return 2;
        }
    }
    const auto reports = fuzz::sweep(options);

    std::uint64_t violations = 0;
    if (json) {
        // Line-delimited JSON: one VerifyReport per case, in (app,
        // case id) order — Degraded entries included.
        for (const auto &r : reports) {
            for (const auto &rep : r.caseReports)
                std::printf("%s\n", core::toJson(rep).c_str());
            violations += r.violations;
        }
        return violations ? 1 : 0;
    }

    TextTable table("crash-recovery fuzz sweep");
    table.header({"app", "pm ops", "cases", "fired", "violations",
                  "degraded", "digest"});
    for (const auto &r : reports) {
        char digest[24];
        std::snprintf(digest, sizeof(digest), "%016llx",
                      (unsigned long long)r.digest);
        table.row({r.app, TextTable::num(r.totalPmOps),
                   TextTable::num(r.casesRun),
                   TextTable::num(r.casesFired),
                   TextTable::num(r.violations),
                   TextTable::num(r.casesDegraded), digest});
        violations += r.violations;
    }
    table.print();
    if (options.config.lincheck) {
        for (const auto &r : reports)
            std::printf("lincheck %s: violations=%llu "
                        "budget-degraded=%llu\n",
                        r.app.c_str(),
                        (unsigned long long)r.lincheckViolations,
                        (unsigned long long)r.lincheckBudget);
    }
    for (const auto &r : reports) {
        for (const auto &rep : r.reproducers) {
            std::printf("reproducer (%s): %s\n", rep.why.c_str(),
                        rep.command.c_str());
        }
    }
    return violations ? 1 : 0;
}

/**
 * Replay a dumped lincheck history through the checker alone —
 * nothing re-executes, so a violation dump from a crashfuzz sweep can
 * be inspected (and minimized dumps diffed) offline.
 */
int
cmdLincheck(int argc, char **argv)
{
    lincheck::CheckOptions opts;
    FlagParser fp;
    fp.command("lincheck")
        .u64("--budget", &opts.nodeBudget, 1)
        .maxPositionals(1);
    if (!fp.parse(argc, argv))
        return flagError(fp);
    if (fp.positionals().empty())
        return usage();
    const char *path = fp.positionals()[0];

    lincheck::History history;
    std::string error;
    if (!lincheck::readHistoryFile(path, history, error)) {
        std::fprintf(stderr, "whisper_cli: lincheck: %s\n",
                     error.c_str());
        return 2;
    }

    const lincheck::CheckResult result =
        lincheck::check(history, opts);
    std::printf("%s: %s ops=%zu keys=%zu nodes=%llu\n", path,
                result.brief().c_str(), history.ops.size(),
                result.keys.size(),
                (unsigned long long)result.nodesVisited);
    for (const auto &kv : result.keys) {
        if (kv.ok && !kv.budgetExhausted)
            continue;
        std::printf("  key 0x%llx: %s\n",
                    (unsigned long long)kv.key,
                    kv.ok ? "budget exhausted (verdict incomplete)"
                          : kv.why.c_str());
    }
    return result.ok ? 0 : 1;
}

int
cmdList(int, char **)
{
    for (const auto &name : core::registeredApps())
        std::printf("%s\n", name.c_str());
    return 0;
}

int
cmdHelp(int, char **)
{
    printUsage(stdout);
    return 0;
}

/** Subcommand dispatch: argv[1] -> handler(argc, argv). */
const struct
{
    const char *name;
    int (*run)(int argc, char **argv);
} kCommands[] = {
    {"record", cmdRecord},       {"analyze", cmdAnalyze},
    {"optimize", cmdOptimize},   {"simulate", cmdSimulate},
    {"apps", cmdApps},           {"workload", cmdWorkload},
    {"crashfuzz", cmdCrashfuzz}, {"lincheck", cmdLincheck},
    {"list", cmdList},           {"help", cmdHelp},
    {"--help", cmdHelp},
};

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    for (const auto &cmd : kCommands)
        if (std::strcmp(argv[1], cmd.name) == 0)
            return cmd.run(argc, argv);
    return usage();
}
