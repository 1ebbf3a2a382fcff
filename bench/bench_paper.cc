/**
 * @file
 * Regenerates the paper's evaluation from one run of each suite app.
 *
 * Analysis pass: each suite app runs once at analysisConfig(); one
 * core::analyzeRun() per app feeds Table 1, Figures 3-6 and §5.2.
 * Simulation pass: the Figure 6/10 subset plus the MOD apps are
 * recorded once, with DRAM traffic, at simConfig() and replayed for
 * Figure 10, HOPS vs DPO and (ycsb) the persist-buffer ablation.
 * Elision pass: the five logging-library apps run once more under
 * the full txlib elision policy (DESIGN.md §11); their analysis-pass
 * runs are the "before" of the flush/fence table.
 *
 * Every table prints paper values beside measured ones, then the
 * shape to reproduce. Exits 1 when an app fails verification, the
 * Hybrid layer's write amplification is not the suite's lowest, or
 * elision leaves some app without strictly fewer flushes + fences.
 * WHISPER_OPS scales every pass.
 */

#include <algorithm>
#include <array>
#include <iterator>
#include <optional>

#include "bench/bench_util.hh"
#include "common/table.hh"
#include "sim/simulator.hh"

using namespace whisper;
using namespace whisper::bench;

namespace
{

/** What the paper reports for one of its eleven applications. */
struct PaperRow
{
    const char *name;
    const char *rate;          //!< Table 1 epochs/sec
    int medianEpochs;          //!< Figure 3 median epochs/tx
    double selfDep;            //!< Figure 5 self-dependencies, %
    double crossDep;           //!< Figure 5 cross-dependencies, %
    double pmPercent;          //!< Figure 6 PM share, % (sim only)
    const char *amplification; //!< §5.2 metadata bytes per user byte
    const char *nti;           //!< §5.2 non-temporal write share
    bool sim;                  //!< in the simulator subset (Figs 6/10)
};

/** The paper's applications in Table 1 order. */
constexpr PaperRow kPaper[] = {
    {"echo", "1.6 M", 307, 54.5, 0.01, 5.49, "2x-14x (N-store alloc)",
     "low", true},
    {"ycsb", "5 M", 42, 40.2, 0.003, 8.71, "2x-14x", "low", true},
    {"tpcc", "7.3 M", 197, 27.18, 0.03, 0.0, "2x-14x", "low", false},
    {"redis", "1.3 M", 6, 82.5, 0.0, 0.74, "~10x", "low", true},
    {"ctree", "1 M", 11, 79.0, 0.0, 3.32, "~10x", "low", true},
    {"hashmap", "1.3 M", 11, 81.0, 0.0, 2.6, "~10x", "low", true},
    {"vacation", "700 K", 4, 40.0, 0.01, 0.36, "3x-6x", "~67%", true},
    {"memcached", "1.5 M", 4, 63.5, 0.2, 0.0, "3x-6x", "~67%", false},
    {"nfs", "250 K", 2, 55.0, 5.0, 0.0, "~0.1x", "~96%", false},
    {"exim", "6.25 K", 5, 45.27, 1.16, 0.0, "~0.1x", "~96%", false},
    {"mysql", "60 K", 7, 17.89, 0.04, 0.0, "~0.1x", "~96%", false},
};

/** Smaller runs for the simulation pass, recording DRAM traffic. */
core::AppConfig
simConfig()
{
    core::AppConfig config;
    config.threads = 4;
    config.opsPerThread = static_cast<std::uint64_t>(150 * opsScale());
    config.poolBytes = 192 << 20;
    config.seed = 42;
    config.recordVolatile = true;
    return config;
}

/** The logging-library apps the txlib elision policy has bits for. */
constexpr const char *kElisionApps[] = {"vacation", "memcached", "redis",
                                        "ctree", "hashmap"};

/** One run's epoch, flush and fence counts. */
struct PersistOps
{
    std::uint64_t epochs;
    std::uint64_t flushes;
    std::uint64_t fences;
};

/** The kElisionApps runs' counts, in kElisionApps order. */
using ElisionCounts = std::array<PersistOps, std::size(kElisionApps)>;

/**
 * Flushes and fences come from the trace counters: the same event
 * counts analysis::optimizeTraces totals, without its allocations,
 * which would shift the heap the simulation pass's DRAM buffers
 * land in.
 */
PersistOps
persistOps(const core::RunResult &run, std::uint64_t epochs)
{
    const trace::AccessCounters c = run.runtime->traces().totalCounters();
    return {epochs, c.pmFlushes, c.fences};
}

/** One suite app's analysis; paper is null for post-paper layers. */
struct Analyzed
{
    std::string name;
    core::AccessLayer layer;
    analysis::AnalysisResult result;
    const PaperRow *paper;
};

/**
 * The analysis pass: the paper's apps in Table 1 order, then the
 * post-paper apps, returned in print order (MOD before Hybrid). The
 * kElisionApps runs' counts go to @p before.
 */
std::vector<Analyzed>
analyzeSuite(ElisionCounts &before)
{
    const core::AppConfig config = analysisConfig();
    std::vector<Analyzed> out;
    auto analyze = [&](const std::string &name, const PaperRow *paper) {
        core::RunResult run = runForAnalysis(name, config);
        out.push_back({name, run.layer, core::analyzeRun(run), paper});
        const auto it = std::ranges::find(kElisionApps, name);
        if (it != std::end(kElisionApps)) {
            before[it - std::begin(kElisionApps)] =
                persistOps(run, out.back().result.epochs.totalEpochs);
        }
    };
    for (const PaperRow &p : kPaper)
        analyze(p.name, &p);
    for (const auto &name : core::registeredApps()) {
        if (std::none_of(std::begin(kPaper), std::end(kPaper),
                         [&](const PaperRow &p) { return name == p.name; }))
            analyze(name, nullptr);
    }
    std::stable_partition(
        out.begin() + std::size(kPaper), out.end(),
        [](const Analyzed &a) { return a.layer == core::AccessLayer::LibMod; });
    return out;
}

std::string
humanRate(double eps)
{
    char buf[64];
    if (eps >= 1e6)
        std::snprintf(buf, sizeof(buf), "%.1f M", eps / 1e6);
    else if (eps >= 1e3)
        std::snprintf(buf, sizeof(buf), "%.1f K", eps / 1e3);
    else
        std::snprintf(buf, sizeof(buf), "%.0f", eps);
    return buf;
}

/**
 * Print Table 1, Figures 3-6, §5.2 amplification and §5.2 NTI. False
 * unless every Hybrid app's amplification sits strictly below every
 * MOD ratio and the 1.2x MOD band floor: the lowest amplification in
 * the suite is that layer's reason to exist.
 */
bool
printAnalyses(const std::vector<Analyzed> &apps)
{
    TextTable t1("Table 1 — WHISPER applications: epochs per second");
    t1.header({"Benchmark", "Access Layer", "Epochs", "Epochs/sec",
               "Paper"});
    TextTable f3("Figure 3 — epochs (ordering points) per transaction");
    f3.header({"Benchmark", "Transactions", "Median", "p10", "p90",
               "Paper median"});
    const auto buckets = BucketedDistribution::epochSizeBuckets();
    TextTable f4("Figure 4 — epoch size distribution (unique lines)");
    std::vector<std::string> f4_header = {"Benchmark"};
    for (const auto &b : buckets.buckets())
        f4_header.push_back(b.label);
    f4_header.push_back("<10B singl.");
    f4.header(f4_header);
    TextTable f5("Figure 5 — epoch dependencies within 50 us");
    f5.header({"Benchmark", "self-dep", "cross-dep", "paper self",
               "paper cross"});
    TextTable f6("Figure 6 — PM share of all memory accesses");
    f6.header({"Benchmark", "PM accesses", "DRAM accesses", "PM %",
               "paper PM %"});
    TextTable amp("§5.2 — write amplification (metadata bytes per "
                  "user byte)");
    amp.header({"Benchmark", "user B", "log B", "alloc B", "txmeta B",
                "fsmeta B", "ratio", "paper"});
    TextTable nti("§5.2 — non-temporal share of PM write traffic");
    nti.header({"Benchmark", "NTI bytes", "cacheable bytes",
                "NTI % (bytes)", "NTI % (events)", "paper"});

    double self_sum = 0.0, cross_sum = 0.0, pm_sum = 0.0;
    std::size_t paper_rows = 0, sim_rows = 0;
    double mod_floor = 1e9, halo_amp = -1.0;
    for (const Analyzed &a : apps) {
        const analysis::EpochSummary &e = a.result.epochs;
        const analysis::Amplification &am = a.result.amplification;
        const bool mod = a.layer == core::AccessLayer::LibMod;
        if (const PaperRow *p = a.paper) {
            const analysis::DependencySummary &d =
                a.result.dependencies;
            const analysis::NtiUsage &n = a.result.nti;
            t1.row({a.name, core::accessLayerName(a.layer),
                    TextTable::num(e.totalEpochs),
                    humanRate(e.epochsPerSecond), p->rate});
            std::vector<std::string> f4_row = {a.name};
            for (const double f : buckets.fractions(e.epochSizes))
                f4_row.push_back(TextTable::percent(f, 1));
            f4_row.push_back(TextTable::percent(e.singletonUnder10B, 0));
            f4.row(f4_row);
            f5.row({a.name, TextTable::percent(d.selfFraction(), 2),
                    TextTable::percent(d.crossFraction(), 3),
                    TextTable::fixed(p->selfDep, 2) + "%",
                    TextTable::fixed(p->crossDep, 3) + "%"});
            self_sum += d.selfFraction();
            cross_sum += d.crossFraction();
            paper_rows++;
            if (p->sim) {
                const analysis::AccessMix &m = a.result.mix;
                f6.row({a.name, TextTable::num(m.pmAccesses),
                        TextTable::num(m.dramAccesses),
                        TextTable::percent(m.pmFraction(), 2),
                        TextTable::fixed(p->pmPercent, 2) + "%"});
                pm_sum += m.pmFraction();
                sim_rows++;
            }
            nti.row({a.name, TextTable::num(n.ntBytes),
                     TextTable::num(n.cacheableBytes),
                     TextTable::percent(n.ntiFraction(), 1),
                     TextTable::percent(n.ntiEventFraction(), 1),
                     p->nti});
        } else if (mod) {
            mod_floor = std::min(mod_floor, am.ratio());
        } else if (a.layer == core::AccessLayer::Hybrid) {
            halo_amp = std::max(halo_amp, am.ratio());
        }
        // The MOD layer pins one ordering point per update by design.
        if (a.paper || mod) {
            f3.row({a.name, TextTable::num(e.totalTransactions),
                    TextTable::num(e.epochsPerTx.median()),
                    TextTable::num(e.epochsPerTx.quantile(0.10)),
                    TextTable::num(e.epochsPerTx.quantile(0.90)),
                    TextTable::num(a.paper ? a.paper->medianEpochs : 1)});
        }
        // The paper has no rows for the post-paper layers: MOD must
        // land below both logging libraries, Hybrid below MOD.
        amp.row({a.name, TextTable::num(am.userBytes),
                 TextTable::num(am.logBytes),
                 TextTable::num(am.allocBytes),
                 TextTable::num(am.txMetaBytes),
                 TextTable::num(am.fsMetaBytes),
                 TextTable::fixed(am.ratio(), 2) + "x",
                 a.paper ? a.paper->amplification
                 : mod   ? "n/a (< Mnemosyne)"
                         : "n/a (< MOD)"});
    }

    t1.print();
    std::puts("\nShape check: native > library >> filesystem rates, as"
              " in the paper.");
    f3.print();
    std::puts("\nShape check: echo/tpcc are the outliers with >100"
              " epochs/tx; libraries sit in the 4-50 band; the MOD "
              "structures pin the floor at one epoch per update.");
    f4.print();
    std::puts("\nShape check: library/native rows are singleton-heavy;"
              " FS rows show a >=64 mode from 4 KB block writes.");
    f5.print();
    std::printf("\nAverages: self %.1f%%, cross %.2f%%. Shape check: "
                "self-dependencies abundant, cross rare.\n",
                100.0 * self_sum / paper_rows,
                100.0 * cross_sum / paper_rows);
    f6.print();
    std::printf("\nAverage PM share: %.2f%% (paper: 3.54%%). Shape "
                "check: DRAM dominates every application.\n",
                100.0 * pm_sum / sim_rows);
    amp.print();
    std::puts("\nShape check: NVML >> Mnemosyne; the filesystem's "
              "unjournaled 4 KB user blocks keep PMFS near 0.1x; the "
              "log-free MOD structures land below both libraries; the "
              "hybrid halo store lands below MOD.");
    if (halo_amp < 0.0 || halo_amp >= mod_floor || halo_amp >= 1.2) {
        std::fprintf(stderr,
                     "FAIL: halo amplification %.3fx must be strictly "
                     "below MOD's measured %.3fx and the 1.2x band "
                     "floor\n",
                     halo_amp, mod_floor);
        return false;
    }
    std::printf("halo ceiling enforced: %.2fx < MOD %.2fx -- PASS\n",
                halo_amp, mod_floor);
    nti.print();
    std::puts("\nShape check: PMFS apps highest (NTI user data + page"
              " zeroing), Mnemosyne apps next (NTI redo logs).");
    return true;
}

/**
 * HOPS persist-buffer sizes from 2 to 64 entries over one trace; the
 * paper fixes 32 entries drained from 16 (§6.4) without a sweep.
 */
TextTable
pbAblation(const trace::TraceSet &traces)
{
    TextTable table("Ablation — HOPS persist-buffer size (ycsb trace)");
    table.header({"PB entries", "drain at", "cycles", "vs 32-entry",
                  "PB-full stall cyc", "epochs drained"});
    // Every variant derives from this one base so the sweep varies
    // only the PB knobs, never the device configuration.
    sim::SimParams base;
    base.pbEntries = 32;
    base.pbDrainThreshold = 16;
    const double base_cycles = static_cast<double>(
        sim::Simulator(base, sim::ModelKind::HopsNvm).run(traces).cycles);
    for (const std::uint32_t entries : {2u, 4u, 8u, 16u, 32u, 64u}) {
        sim::SimParams params = base;
        params.pbEntries = entries;
        params.pbDrainThreshold = std::max(1u, entries / 2);
        const auto r =
            sim::Simulator(params, sim::ModelKind::HopsNvm).run(traces);
        table.row({TextTable::num(entries),
                   TextTable::num(params.pbDrainThreshold),
                   TextTable::num(r.cycles),
                   TextTable::fixed(r.cycles / base_cycles, 3),
                   TextTable::num(r.persist.pbFullStalls),
                   TextTable::num(r.persist.epochsDrained)});
    }
    return table;
}

/**
 * One HOPS-vs-DPO row, normalized to HOPS (NVM): DPO under Buffered
 * Strict Persistency as the paper's §7 critiques it, and HOPS with
 * the PB epoch coalescing §6.3 leaves for future work.
 */
std::vector<std::string>
dpoRow(const std::string &name, const trace::TraceSet &traces,
       const sim::SimParams &params)
{
    sim::SimParams coal = params;
    coal.pbCoalesce = true;
    const auto hops =
        sim::Simulator(params, sim::ModelKind::HopsNvm).run(traces);
    const auto dpo =
        sim::Simulator(params, sim::ModelKind::Dpo).run(traces);
    const auto coalesced =
        sim::Simulator(coal, sim::ModelKind::HopsNvm).run(traces);
    const double base = static_cast<double>(hops.cycles);
    const double saved =
        1.0 - static_cast<double>(coalesced.persist.linesDrained) /
                  static_cast<double>(hops.persist.linesDrained);
    return {name, "1.000", TextTable::fixed(dpo.cycles / base, 3),
            TextTable::fixed(coalesced.cycles / base, 3),
            TextTable::num(hops.persist.linesDrained),
            TextTable::num(coalesced.persist.linesDrained),
            TextTable::percent(saved, 1)};
}

/**
 * The simulation pass: Figure 10 (five persistency models normalized
 * to x86-64 NVM; the MOD rows ride along outside the paper's
 * average), then the PB ablation and HOPS vs DPO.
 */
void
simulateSuite(const std::vector<Analyzed> &apps)
{
    const core::AppConfig config = simConfig();
    const std::vector<sim::ModelKind> kinds = {
        sim::ModelKind::X86Nvm, sim::ModelKind::X86Pwq,
        sim::ModelKind::HopsNvm, sim::ModelKind::HopsPwq,
        sim::ModelKind::Ideal};
    // One params object: every row sees the same device configuration.
    const sim::SimParams params;

    std::vector<std::string> names;
    std::size_t paper_rows = 0;
    for (const Analyzed &a : apps) {
        if (a.paper ? a.paper->sim : a.layer == core::AccessLayer::LibMod)
            names.push_back(a.name);
        paper_rows += a.paper && a.paper->sim;
    }

    std::optional<TextTable> ablation;
    TextTable dpo("Extension — HOPS vs DPO (BSP) vs HOPS+coalescing "
                  "(cycles normalized to HOPS NVM)");
    dpo.header({"Benchmark", "HOPS (NVM)", "DPO (BSP)", "HOPS+coalesce",
                "PM write-backs", "with coalesce", "saved"});
    std::vector<std::vector<double>> norms;
    for (const auto &name : names) {
        core::RunResult run = runForAnalysis(name, config);
        const trace::TraceSet &traces = run.runtime->traces();
        std::vector<double> &row = norms.emplace_back();
        const auto results = sim::runModels(traces, params, kinds);
        for (const auto &r : results) {
            row.push_back(static_cast<double>(r.cycles) /
                          static_cast<double>(results[0].cycles));
        }
        if (name == "ycsb")
            ablation = pbAblation(traces);
        dpo.row(dpoRow(name, traces, params));
    }

    std::vector<double> avg(kinds.size(), 0.0);
    for (std::size_t m = 0; m < kinds.size(); m++) {
        for (std::size_t i = 0; i < paper_rows; i++)
            avg[m] += norms[i][m];
        avg[m] /= static_cast<double>(paper_rows);
    }
    TextTable fig10("Figure 10 — normalized runtime (x86-64 NVM = 1.0)");
    fig10.header({"Benchmark", "x86-64 (NVM)", "x86-64 (PWQ)",
                  "HOPS (NVM)", "HOPS (PWQ)", "IDEAL (NON-CC)"});
    names.insert(names.begin() + paper_rows, "average");
    norms.insert(norms.begin() + paper_rows, avg);
    for (std::size_t i = 0; i < names.size(); i++) {
        std::vector<std::string> cells = {names[i]};
        for (const double v : norms[i])
            cells.push_back(TextTable::fixed(v, 3));
        fig10.row(cells);
    }
    fig10.print();
    std::printf(
        "\nKey deltas (paper values in parentheses):\n"
        "  PWQ gain on x86-64:    %5.1f%%  (15.5%%)\n"
        "  HOPS vs x86-64 (NVM):  %5.1f%%  (24.3%%)\n"
        "  HOPS (NVM) vs x86 PWQ: %5.1f%%  (10%%)\n"
        "  PWQ gain on HOPS:      %5.1f%%  (1.4%%)\n"
        "  ideal vs x86-64 (NVM): %5.1f%%  (40.7%%)\n",
        100.0 * (avg[0] - avg[1]), 100.0 * (avg[0] - avg[2]),
        100.0 * (avg[1] - avg[2]) / avg[1],
        100.0 * (avg[2] - avg[3]) / avg[2], 100.0 * (avg[0] - avg[4]));

    if (ablation)
        ablation->print();
    std::puts("\nObservation: beyond the knee, extra PB entries stop"
              " helping — the paper's 32/16 sits on the flat part.");
    dpo.print();
    std::puts("\nObservation: BSP's serialized epoch flushing costs "
              "whenever epochs exceed one line. Coalescing trades a "
              "slightly larger in-flight epoch at the dfence for a "
              "reduction in PM write-back traffic — the multi-version "
              "collapse of the suite's abundant same-thread "
              "self-dependencies, which matters for NVM endurance "
              "(the paper's §5.3 write-endurance concern).");
}

/**
 * The elision pass: each kElisionApps app reruns with the full txlib
 * elision policy, against its analysis-pass run. Both runs go through
 * the same verification; the elided crashfuzz sweeps re-prove the
 * recovery invariants separately. False unless every app issues
 * strictly fewer flushes + fences under elision.
 */
bool
printElision(const ElisionCounts &before_counts)
{
    core::AppConfig elided = analysisConfig();
    elided.elision = txlib::kElideAll;
    TextTable table("fence/flush elision — before/after per app");
    table.header({"Benchmark", "epochs", "(elided)", "flushes",
                  "(elided)", "fences", "(elided)", "ops removed"});

    bool all_fewer = true;
    for (std::size_t i = 0; i < std::size(kElisionApps); i++) {
        const char *name = kElisionApps[i];
        const PersistOps &before = before_counts[i];
        const core::RunResult run = runForAnalysis(name, elided);
        const PersistOps after = persistOps(
            run, core::analyzeRun(run).epochs.totalEpochs);
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
        return false;
    }
    std::puts("\nShape check: every app issues strictly fewer "
              "flushes + fences under elision; verification and the "
              "elided crashfuzz sweeps hold either way.");
    return true;
}

} // namespace

int
main()
{
    ElisionCounts before{};
    const std::vector<Analyzed> apps = analyzeSuite(before);
    if (!printAnalyses(apps))
        return 1;
    simulateSuite(apps);
    return printElision(before) ? 0 : 1;
}
