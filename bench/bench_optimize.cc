/**
 * @file
 * Before/after report for the trace-driven fence/flush optimizer
 * (DESIGN.md §11): runs each logging-library workload twice — once
 * with the baseline persistence schedule and once with the full
 * txlib elision policy (txlib/elision.hh) — and tabulates epoch,
 * flush and fence counts from the recorded traces.
 *
 * Shape to reproduce: elision must remove work (strictly fewer
 * flushes + fences on every app, enforced below) without touching
 * correctness — both runs go through the same verification the
 * harness always applies, and the crashfuzz sweeps re-prove the
 * recovery invariants under elision separately.
 */

#include "bench/bench_util.hh"
#include "analysis/optimize.hh"
#include "analysis/pipeline.hh"
#include "common/table.hh"

using namespace whisper;
using namespace whisper::bench;

namespace
{

struct Counts
{
    std::uint64_t epochs = 0;
    std::uint64_t flushes = 0;
    std::uint64_t fences = 0;
};

Counts
measure(const std::string &name, const core::AppConfig &config)
{
    core::RunResult result = runForAnalysis(name, config);
    const auto analysis =
        analysis::analyzeTraces(result.runtime->traces());
    const auto optimize =
        analysis::optimizeTraces(result.runtime->traces());
    return {analysis.epochs.totalEpochs,
            optimize.summary.totalFlushes,
            optimize.summary.totalFences};
}

} // namespace

int
main()
{
    const core::AppConfig config = analysisConfig();
    core::AppConfig elided = config;
    elided.elision = txlib::kElideAll;
    // The elision policy only has bits for the logging libraries, so
    // the interesting rows are the Mnemosyne and NVML apps.
    const std::vector<std::string> apps = {
        "vacation", "memcached", "redis", "ctree", "hashmap"};

    TextTable table("fence/flush elision — before/after per app");
    table.header({"Benchmark", "epochs", "(elided)", "flushes",
                  "(elided)", "fences", "(elided)", "ops removed"});

    bool all_fewer = true;
    for (const auto &name : apps) {
        const Counts before = measure(name, config);
        const Counts after = measure(name, elided);
        const std::uint64_t ops_before = before.flushes + before.fences;
        const std::uint64_t ops_after = after.flushes + after.fences;
        if (ops_after >= ops_before)
            all_fewer = false;
        const double removed =
            ops_before
                ? 1.0 - static_cast<double>(ops_after) /
                            static_cast<double>(ops_before)
                : 0.0;
        table.row({name, TextTable::num(before.epochs),
                   TextTable::num(after.epochs),
                   TextTable::num(before.flushes),
                   TextTable::num(after.flushes),
                   TextTable::num(before.fences),
                   TextTable::num(after.fences),
                   TextTable::percent(removed, 1)});
    }
    table.print();

    if (!all_fewer) {
        std::fputs("FATAL: elision failed to remove flush/fence work "
                   "on some app\n", stderr);
        return 1;
    }
    std::puts("\nShape check: every app issues strictly fewer "
              "flushes + fences under elision; verification and the "
              "elided crashfuzz sweeps hold either way.");
    return 0;
}
