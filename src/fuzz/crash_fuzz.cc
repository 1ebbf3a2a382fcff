#include "fuzz/crash_fuzz.hh"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "alloc/buddy_alloc.hh"
#include "common/flags.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "lincheck/history_io.hh"

namespace whisper::fuzz
{

namespace
{

core::AppConfig
caseAppConfig(const FuzzConfig &config)
{
    core::AppConfig cfg;
    cfg.threads = config.threads < 1 ? 1 : config.threads;
    cfg.opsPerThread = config.opsPerThread;
    cfg.seed = config.appSeed;
    cfg.poolBytes = config.poolBytes;
    cfg.recordVolatile = false;
    cfg.elision = config.elide ? txlib::kElideAll : txlib::kElideNone;
    return cfg;
}

/** Survival-rate classes a case draws from (index 0 = crashHard). */
constexpr double kSurvivalClasses[] = {0.0, 0.1, 0.25, 0.5,
                                       0.75, 0.9, 0.99};
constexpr std::size_t kSurvivalClassCount =
    sizeof(kSurvivalClasses) / sizeof(kSurvivalClasses[0]);

/** Fault-dimension grids (FuzzConfig::faults). All-zero combinations
 *  degenerate to plain crash cases, keeping a control group inside
 *  every fault sweep. */
constexpr std::uint32_t kPoisonClasses[] = {0, 1, 2, 4};
constexpr double kTearClasses[] = {0.0, 0.25, 0.5};
constexpr std::uint32_t kTransientClasses[] = {0, 7, 31};

/** @{ \name Lincheck dimension (FuzzConfig::lincheck)
 *
 * The case runs a generated KV workload over the app's lincheck
 * surface (per-thread key partitions, so per-key subhistories are
 * single-writer and verdicts are schedule-deterministic), records
 * every invoke/response plus fence coverage, and after recovery asks
 * the checker for a witness linearization per key.
 */

/** Keys per thread: small enough that keys repeat across ops. */
constexpr std::uint64_t kLcKeysPerThread = 12;

struct LcOp {
    lincheck::OpKind kind;
    std::uint64_t key;
    std::uint64_t arg;
};

core::WorkloadKeymap
lincheckKeymap(const core::AppConfig &cfg)
{
    core::WorkloadKeymap map;
    map.keys = kLcKeysPerThread * cfg.threads;
    map.threads = cfg.threads;
    map.insertsPerThread = 0;
    return map;
}

/**
 * Per-thread op plans, fixed by (app seed, tid) alone: the same ops
 * run in the profile pass and in every case regardless of schedule,
 * so profiled PM-op totals match the cases' op streams.
 */
std::vector<std::vector<LcOp>>
lincheckPlan(const core::WhisperApp &app, const core::AppConfig &cfg,
             const core::WorkloadKeymap &map)
{
    std::vector<std::vector<LcOp>> plan(cfg.threads);
    const bool removes = app.workloadHasRemove();
    for (unsigned t = 0; t < cfg.threads; t++) {
        const ThreadId tid = static_cast<ThreadId>(t);
        Rng rng(mix64(cfg.seed ^ (0x11c0de00ull + tid)));
        plan[t].reserve(cfg.opsPerThread);
        for (std::uint64_t i = 0; i < cfg.opsPerThread; i++) {
            LcOp op;
            op.key = map.lo(tid) + rng.next(kLcKeysPerThread);
            op.arg = 0;
            const std::uint64_t roll = rng.next(100);
            if (roll < 35) {
                op.kind = lincheck::OpKind::Get;
            } else if (roll < 70 || (roll >= 90 && !removes)) {
                op.kind = lincheck::OpKind::Put;
                op.arg = rng();
            } else if (roll < 90) {
                op.kind = lincheck::OpKind::Rmw;
                op.arg = rng.next(1000) + 1;
            } else {
                op.kind = lincheck::OpKind::Remove;
            }
            plan[t].push_back(op);
        }
    }
    return plan;
}

/**
 * One thread's lincheck op plan, recording invoke/response events. A
 * thread stops recording the moment one of its own PM ops is dropped
 * (the machine is off; its later results never reached the pool) —
 * the drop delta is this thread's own, so the taint point is
 * schedule-deterministic, unlike a racy crashInjected() read. The
 * first tainted op stays recorded as pending: the checker may include
 * its (possibly partial) effect or drop it.
 *
 * No workloadThreadDone() epilogue: the case power-cuts the pool
 * right after the plan anyway, and the MOD epilogue flips the
 * thread's GC online flag outside any gate turn — a wall-clock race
 * that makes another thread's reclaim count (and so the global PM-op
 * total) nondeterministic. Recovery sweeps the unreclaimed backlog,
 * exactly as after any mid-run cut.
 */
void
runLincheckOps(pm::PmContext &ctx, ThreadId tid, core::WhisperApp &app,
               const std::vector<LcOp> &plan,
               lincheck::HistoryRecorder &rec)
{
    bool tainted = false;
    for (const LcOp &op : plan) {
        const std::size_t handle =
            tainted ? 0 : rec.invoke(tid, op.kind, op.key, op.arg);
        const std::uint64_t dropped0 = ctx.droppedPmOps();
        bool found = false;
        std::uint64_t value = 0;
        switch (op.kind) {
          case lincheck::OpKind::Get:
            found = app.workloadProbe(ctx, tid, op.key, value);
            break;
          case lincheck::OpKind::Put:
            app.workloadPut(ctx, tid, op.key, op.arg);
            break;
          case lincheck::OpKind::Rmw:
            found = app.workloadRmw(ctx, tid, op.key, op.arg);
            break;
          case lincheck::OpKind::Remove:
            found = app.workloadRemove(ctx, tid, op.key);
            break;
        }
        if (tainted)
            continue;
        if (ctx.droppedPmOps() != dropped0)
            tainted = true; // leave the op pending
        else
            rec.response(tid, handle, found, value);
    }
}

/** @} */

/**
 * Set a case's app up: loaded over the lincheck keymap for the
 * lincheck dimension (recording from the baseline when @p record),
 * setup() otherwise. The Session traces neither.
 */
core::WorkloadKeymap
setUp(core::Session &s, const FuzzConfig &config,
      const core::AppConfig &cfg, bool record)
{
    panic_if(!sweepable(s.app(), config),
             "%s cannot be fuzzed here: racing threads need the MOD "
             "or Hybrid layer, --lincheck the lincheck workload "
             "surface", s.app().name().c_str());
    core::WorkloadKeymap map;
    if (config.lincheck) {
        map = lincheckKeymap(cfg);
        s.app().workloadSetup(s.rt(), map);
        if (record)
            s.record(map);
    } else {
        s.app().setup(s.rt());
    }
    return map;
}

/** Run the case's workload: run(), or the lincheck op plans. */
core::RunOutcome
runCaseWorkload(core::Session &s, const FuzzConfig &config,
                const core::AppConfig &cfg,
                const core::WorkloadKeymap &map)
{
    core::WhisperApp &app = s.app();
    if (!config.lincheck) {
        return s.run([&](pm::PmContext &ctx, ThreadId tid) {
            app.run(s.rt(), ctx, tid);
        });
    }
    const std::vector<std::vector<LcOp>> plan =
        lincheckPlan(app, cfg, map);
    return s.run([&](pm::PmContext &ctx, ThreadId tid) {
        runLincheckOps(ctx, tid, app, plan[tid], s.recorder());
    });
}

/** @{ \name Lincheck violation dumps */

/**
 * Per-sweep dump notice throttle (the buddy-recovery warn idiom): the
 * first few violating cases each warn one line with the dump path,
 * then a single suppression note — a 512-case sweep stays readable.
 */
constexpr unsigned kLincheckDumpWarnCap = 4;

std::string
lincheckDumpPath(const FuzzCase &c)
{
    const char *dir = std::getenv("TMPDIR");
    std::string path = dir && *dir ? dir : "/tmp";
    if (!path.empty() && path.back() == '/')
        path.pop_back();
    path += "/whisper-lincheck-" + c.app + "-" +
            std::to_string(c.caseId) + ".hist";
    return path;
}

/** @} */

/** Post-recovery architectural-image fingerprint (replay identity). */
std::uint64_t
imageHash(const pm::PmPool &pool)
{
    // Each 8-byte group folds as a big-endian word (first byte most
    // significant), then the zero-padded tail; a whole-word load plus
    // byte swap gives the same words as shifting in byte by byte.
    const std::uint8_t *base = pool.archBase();
    const std::size_t whole = pool.size() & ~std::size_t(7);
    std::uint64_t h = 0x1316171ull;
    for (std::size_t i = 0; i < whole; i += 8) {
        std::uint64_t word;
        std::memcpy(&word, base + i, 8);
        if constexpr (std::endian::native == std::endian::little)
            word = __builtin_bswap64(word);
        h = fold(h, word);
    }
    std::uint64_t tail = 0;
    for (std::size_t i = whole; i < pool.size(); i++)
        tail = (tail << 8) | base[i];
    return fold(h, tail);
}

} // namespace

bool
sweepable(const core::WhisperApp &app, const FuzzConfig &config)
{
    const bool gateable = app.layer() == core::AccessLayer::LibMod ||
                          app.layer() == core::AccessLayer::Hybrid;
    return (config.threads <= 1 || gateable) &&
           (!config.lincheck || app.supportsLincheck());
}

std::uint64_t
profilePmOps(const std::string &app, const FuzzConfig &config)
{
    const core::AppConfig cfg = caseAppConfig(config);
    core::Session s(app, cfg);
    const core::WorkloadKeymap map = setUp(s, config, cfg, false);
    // Counts only; crashAt stays at "never". The gate schedule is
    // fixed per (sweep seed, app) so the profile is reproducible.
    s.rt().installCrashPlan(cfg.threads,
                            mix64(config.sweepSeed ^ fnv1a(app)));
    return runCaseWorkload(s, config, cfg, map).opIndex;
}

FuzzCase
deriveCase(const std::string &app, std::uint64_t case_id,
           std::uint64_t total_pm_ops, const FuzzConfig &config)
{
    FuzzCase c;
    c.app = app;
    c.caseId = case_id;
    std::uint64_t h = mix64(config.sweepSeed ^ fnv1a(app)) + case_id;
    const std::uint64_t h1 = mix64(h);
    const std::uint64_t h2 = mix64(h1);
    const std::uint64_t h3 = mix64(h2);
    c.crashAt = total_pm_ops ? h1 % total_pm_ops : 0;
    c.crash.seed = h2;
    const std::size_t cls = h3 % kSurvivalClassCount;
    c.hard = cls == 0;
    c.crash.survival = kSurvivalClasses[cls];
    c.crash.threads = config.threads < 1 ? 1 : config.threads;
    c.crash.schedule = mix64(h3);
    if (config.faults) {
        // Extend the hash chain; the pre-fault parameters above are
        // untouched, so case K of a fault sweep crashes at the same
        // op as case K of the plain sweep.
        const std::uint64_t h4 = mix64(h3 ^ 0xFA017ull);
        const std::uint64_t h5 = mix64(h4);
        const std::uint64_t h6 = mix64(h5);
        const std::uint64_t h7 = mix64(h6);
        c.fault.seed = h4;
        c.fault.poisonCount =
            kPoisonClasses[h5 % (sizeof(kPoisonClasses) / 4)];
        c.fault.tearProb =
            kTearClasses[h6 % (sizeof(kTearClasses) / 8)];
        c.fault.transientEvery =
            kTransientClasses[h7 % (sizeof(kTransientClasses) / 4)];
    }
    return c;
}

CaseOutcome
runCase(const FuzzCase &c, const FuzzConfig &config,
        const std::vector<LineAddr> *survivor_override,
        std::uint64_t crash_at_override)
{
    const core::AppConfig cfg = caseAppConfig(config);
    core::Session s(c.app, cfg);
    core::Runtime &rt = s.rt();
    core::WhisperApp &app = s.app();
    const core::WorkloadKeymap map = setUp(s, config, cfg, true);

    const std::uint64_t crash_at =
        crash_at_override != ~std::uint64_t(0) ? crash_at_override
                                               : c.crashAt;
    rt.installCrashPlan(cfg.threads, c.crash.schedule);
    rt.armCrashPoint(crash_at);
    if (!c.fault.none())
        rt.pool().setFaultPlan(c.fault);

    CaseOutcome out;
    const core::RunOutcome cut = runCaseWorkload(s, config, cfg, map);
    out.fired = cut.fired;
    out.opIndex = cut.opIndex;

    // Resolve the power cut. The survivor set is either dictated (the
    // shrinker), seeded (the sweep), or empty (crashHard class).
    if (survivor_override) {
        out.survivors = *survivor_override;
    } else if (!c.hard) {
        Rng rng(c.crash.seed);
        out.survivors =
            rt.pool().pickSurvivors(rng, c.crash.survival);
    }
    pm::FaultResolution faults;
    if (!c.fault.none())
        faults = rt.pool().resolveFaults(c.fault, out.survivors);
    if (faults.none())
        rt.crashWithSurvivors(out.survivors);
    else
        rt.crashWithFaults(out.survivors, faults);

    core::VerifyReport verdict = s.recoverAndVerify();
    const alloc::AllocStats heap = app.recoveredHeapStats();
    out.headersReformatted = heap.headersReformatted;
    out.firstBadHeader = heap.firstBadHeader;

    core::HistoryCheck hc;
    if (config.lincheck) {
        // A prior Degraded entry (scrub-named media loss) licenses a
        // missing witness the same way it licenses a verifyRecovered
        // violation: the data really is gone, and the scrub said so.
        const bool excused = verdict.degraded();
        // Every case crashes (at the armed point or at workload end),
        // so the history is a crashed one either way.
        hc = s.checkHistory(verdict);
        const lincheck::CheckResult &lc = hc.result;
        out.lincheckRan = true;
        out.lincheckOk = lc.ok;
        out.lincheckBudget = lc.budgetExhausted;
        out.lincheckKeys = lc.keys.size();
        out.lincheckViolations = hc.violations;
        if (!lc.ok && !excused) {
            const std::string path = lincheckDumpPath(c);
            if (lincheck::writeHistoryFile(
                    path, lincheck::minimizeViolation(hc.history)))
                out.lincheckDump = path;
        }
    }

    out.degraded = verdict.degraded();
    // A Violation is a finding unless the scrub declared a named loss
    // that explains it; silent corruption (violation with no Degraded
    // entry) always counts.
    out.ok = verdict.ok() || out.degraded;
    if (!verdict.ok()) {
        out.why = verdict.brief().empty() ? "recovery check failed"
                                          : verdict.brief();
    }
    out.imageHash = imageHash(rt.pool());
    out.linesTorn = rt.pool().stats().linesTorn;
    out.linesPoisoned = rt.pool().stats().linesPoisoned;
    out.transientFaults = rt.pool().stats().transientFaults;

    std::uint64_t h = fold(fnv1a(c.app), c.caseId);
    h = fold(h, crash_at);
    h = fold(h, out.fired ? 1 : 0);
    h = fold(h, out.opIndex);
    h = fold(h, out.survivors.size());
    for (const LineAddr line : out.survivors)
        h = fold(h, line);
    h = fold(h, rt.pool().stats().linesSurvivedCrash);
    h = fold(h, rt.pool().dirtyLineCount());
    h = fold(h, verdict.ok() ? 1 : 0);
    h = fold(h, fnv1a(out.why));
    h = fold(h, out.imageHash);
    if (!c.fault.none()) {
        // Fold the plan and its resolution: a replay that tears or
        // poisons different lines is a different case.
        h = fold(h, c.fault.seed);
        h = fold(h, c.fault.poisonCount);
        h = fold(h, static_cast<std::uint64_t>(
                        c.fault.tearProb * 256.0));
        h = fold(h, c.fault.transientEvery);
        h = fold(h, faults.torn.size());
        for (const pm::TornLine &t : faults.torn) {
            h = fold(h, t.line);
            h = fold(h, t.mask);
        }
        h = fold(h, faults.poisoned.size());
        for (const LineAddr line : faults.poisoned)
            h = fold(h, line);
        h = fold(h, out.transientFaults);
        h = fold(h, out.degraded ? 1 : 0);
    }
    if (config.lincheck) {
        // Folded only in lincheck mode so plain sweeps stay
        // bit-identical with pre-lincheck builds. Verdicts only, no
        // timestamps: CheckResult::digest() is schedule-determined.
        h = fold(h, out.lincheckOk ? 1 : 0);
        h = fold(h, out.lincheckBudget ? 1 : 0);
        h = fold(h, out.lincheckKeys);
        h = fold(h, hc.result.digest());
    }
    out.digest = h;
    out.report = std::move(verdict);
    return out;
}

std::string
replayCommand(const FuzzCase &c,
              const std::vector<LineAddr> &survivors,
              const FuzzConfig &config)
{
    std::string cmd = "whisper_cli crashfuzz --replay " + c.app + ":" +
                      std::to_string(c.caseId);
    cmd += " --at " + std::to_string(c.crashAt);
    if (survivors.empty()) {
        cmd += " --survivors none";
    } else {
        cmd += " --survivors ";
        for (std::size_t i = 0; i < survivors.size(); i++) {
            if (i)
                cmd += ",";
            cmd += std::to_string(survivors[i]);
        }
    }
    char tail[160];
    std::snprintf(tail, sizeof(tail),
                  " --ops %" PRIu64 " --seed 0x%" PRIx64
                  " --pool-mb %zu",
                  config.opsPerThread, config.sweepSeed,
                  config.poolBytes >> 20);
    cmd += tail;
    if (c.crash.threads > 1) {
        std::snprintf(tail, sizeof(tail),
                      " --threads %u --schedule 0x%" PRIx64,
                      c.crash.threads, c.crash.schedule);
        cmd += tail;
    }
    if (!c.fault.none()) {
        std::snprintf(tail, sizeof(tail),
                      " --fault-plan 0x%" PRIx64 ":%u:%u:%u",
                      c.fault.seed, c.fault.poisonCount,
                      static_cast<unsigned>(c.fault.tearProb * 100.0 +
                                            0.5),
                      c.fault.transientEvery);
        cmd += tail;
    }
    if (config.elide)
        cmd += " --elide";
    if (config.lincheck)
        cmd += " --lincheck";
    return cmd;
}

bool
parseSurvivors(const char *text, std::vector<LineAddr> &out)
{
    out.clear();
    if (text && std::strcmp(text, "none") == 0)
        return true;
    std::vector<std::string> fields;
    if (!splitList(text, ',', fields))
        return false;
    for (const std::string &field : fields) {
        std::uint64_t line = 0;
        if (!parseU64(field.c_str(), line)) {
            out.clear();
            return false;
        }
        out.push_back(line);
    }
    return true;
}

bool
parseFaultPlan(const char *text, pm::FaultPlan &out)
{
    std::vector<std::string> fields;
    std::uint64_t v[4] = {};
    if (!splitList(text, ':', fields) || fields.size() != 4)
        return false;
    for (std::size_t i = 0; i < 4; i++)
        if (!parseU64(fields[i].c_str(), v[i]))
            return false;
    if (v[1] > UINT32_MAX || v[2] > 100 || v[3] > UINT32_MAX)
        return false;
    out.seed = v[0];
    out.poisonCount = static_cast<std::uint32_t>(v[1]);
    out.tearProb = static_cast<double>(v[2]) / 100.0;
    out.transientEvery = static_cast<std::uint32_t>(v[3]);
    return true;
}

void
warnRecoveryNotes(const std::string &app, std::uint64_t case_id,
                  const CaseOutcome &out)
{
    alloc::warnReformatted(app + " case " + std::to_string(case_id),
                           out.headersReformatted, out.firstBadHeader);
}

Reproducer
shrink(const FuzzCase &c, const CaseOutcome &outcome,
       const FuzzConfig &config)
{
    panic_if(outcome.ok, "shrink() needs a failing case");
    // Trials run one at a time: each reports its notes as it ends.
    auto trial = [&](const FuzzCase &fc,
                     const std::vector<LineAddr> *survivors = nullptr,
                     std::uint64_t at = ~std::uint64_t(0)) {
        CaseOutcome out = runCase(fc, config, survivors, at);
        warnRecoveryNotes(fc.app, fc.caseId, out);
        return out;
    };

    // Phase 1: latest failing crash point inside a bounded window
    // after the found one — the closest power cut to the bug.
    constexpr std::uint64_t kProbeWindow = 24;
    FuzzCase best = c;
    for (std::uint64_t k = c.crashAt + kProbeWindow; k > c.crashAt;
         k--) {
        if (!trial(c, nullptr, k).ok) {
            best.crashAt = k;
            break;
        }
    }
    CaseOutcome best_out =
        best.crashAt == c.crashAt ? outcome
                                  : trial(best);
    if (best_out.ok) { // window probe not reproducible; keep original
        best.crashAt = c.crashAt;
        best_out = outcome;
    }

    // Phase 2: ddmin-lite over the surviving lines. Removing a chunk
    // keeps the failure => the chunk was irrelevant; granularity
    // doubles when no chunk can be removed.
    std::vector<LineAddr> s = best_out.survivors;
    std::string why = best_out.why;
    unsigned trials = 0;
    constexpr unsigned kTrialBudget = 48;
    std::size_t chunks = 2;
    while (s.size() >= 2 && chunks <= s.size() &&
           trials < kTrialBudget) {
        bool removed = false;
        const std::size_t chunk_len =
            (s.size() + chunks - 1) / chunks;
        for (std::size_t i = 0;
             i < chunks && trials < kTrialBudget; i++) {
            const std::size_t lo =
                std::min(i * chunk_len, s.size());
            const std::size_t hi =
                std::min(lo + chunk_len, s.size());
            if (lo == hi)
                continue;
            std::vector<LineAddr> candidate;
            candidate.reserve(s.size() - (hi - lo));
            candidate.insert(candidate.end(), s.begin(),
                             s.begin() + lo);
            candidate.insert(candidate.end(), s.begin() + hi,
                             s.end());
            trials++;
            const CaseOutcome probe =
                trial(best, &candidate);
            if (!probe.ok) {
                s = candidate;
                why = probe.why;
                chunks = std::max<std::size_t>(2, chunks - 1);
                removed = true;
                break;
            }
        }
        if (!removed) {
            if (chunks >= s.size())
                break;
            chunks = std::min(s.size(), chunks * 2);
        }
    }
    // The empty set is the global minimum — take it when it fails.
    if (!s.empty() && trials < kTrialBudget + 8) {
        const std::vector<LineAddr> none;
        const CaseOutcome probe = trial(best, &none);
        if (!probe.ok) {
            s = none;
            why = probe.why;
        }
    }

    Reproducer r;
    r.c = best;
    r.survivors = s;
    r.why = why;
    r.command = replayCommand(best, s, config);
    return r;
}

std::vector<AppSweepReport>
sweep(const SweepOptions &options)
{
    std::vector<std::string> apps = options.apps;
    if (apps.empty())
        apps = core::registeredApps();

    ThreadPool pool(options.jobs);
    std::vector<AppSweepReport> reports;
    reports.reserve(apps.size());
    unsigned dump_notices = 0;

    for (const std::string &app : apps) {
        AppSweepReport report;
        report.app = app;
        report.totalPmOps = profilePmOps(app, options.config);

        const std::vector<CaseOutcome> outcomes = pool.map(
            options.cases, [&](std::size_t i) {
                const FuzzCase c =
                    deriveCase(app, i, report.totalPmOps,
                               options.config);
                return runCase(c, options.config);
            });

        std::uint64_t digest = 0x77157e5ull;
        for (std::uint64_t i = 0; i < outcomes.size(); i++) {
            const CaseOutcome &out = outcomes[i];
            report.casesRun++;
            report.casesFired += out.fired ? 1 : 0;
            report.casesDegraded += out.degraded ? 1 : 0;
            if (out.lincheckRan) {
                report.lincheckBudget += out.lincheckBudget ? 1 : 0;
                // Count only unexcused misses: a witness lost to
                // scrub-named media loss rides the degrade convention.
                report.lincheckViolations +=
                    (!out.lincheckOk && !out.ok) ? 1 : 0;
            }
            digest = fold(digest, out.digest);
            warnRecoveryNotes(app, i, out);
            if (!out.lincheckDump.empty()) {
                if (dump_notices < kLincheckDumpWarnCap) {
                    warn("lincheck: %s case %llu: %s (history: %s)",
                         app.c_str(), (unsigned long long)i,
                         out.why.c_str(), out.lincheckDump.c_str());
                } else if (dump_notices == kLincheckDumpWarnCap) {
                    warn("lincheck: more violations; further history "
                         "dump notices suppressed");
                }
                dump_notices++;
            }
            if (options.keepReports)
                report.caseReports.push_back(out.report);
            if (out.ok)
                continue;
            report.violations++;
            if (options.shrinkViolations &&
                report.reproducers.size() <
                    options.maxReproducers) {
                const FuzzCase c = deriveCase(
                    app, i, report.totalPmOps, options.config);
                report.reproducers.push_back(
                    shrink(c, out, options.config));
            }
        }
        report.digest = digest;
        reports.push_back(std::move(report));
    }
    return reports;
}

} // namespace whisper::fuzz
