/**
 * @file
 * Crash-sweep workload: one app per access layer, default FuzzConfig.
 *
 * A round profiles the six apps (fuzz::profilePmOps, the sweep's
 * set-up) and then derives and runs a fixed list of cases per app
 * (fuzz::deriveCase, fuzz::runCase), one worker. Cases derive from
 * the seed through FuzzConfig::sweepSeed. In the traced run every
 * case is replayed once more through the public Runtime/WhisperApp
 * calls runCase makes (construct, setup, armed run, crash, recover,
 * verify), each in its own span, so the case's wall time splits into
 * those parts plus a residual: the fuzzer's own image hash, line
 * scans and digest folding.
 */

#include <memory>

#include "bench.hh"
#include "common/rng.hh"
#include "core/app.hh"
#include "core/runtime.hh"
#include "fuzz/crash_fuzz.hh"

namespace perfbench
{

using namespace whisper;

namespace
{

/** One app per access layer (AccessLayer order). */
const std::vector<std::string> kApps = {"echo",        "hashmap",
                                        "vacation",    "nfs",
                                        "mod-hashmap", "halo-hashmap"};

/** Wall time of the replayed parts of one case. */
struct Parts
{
    double ctor = 0, setup = 0, run = 0, crash = 0, recover = 0,
           verify = 0;

    double total() const { return ctor + setup + run + crash + recover +
                                  verify; }
};

struct AppRound
{
    double profileS = 0;
    std::uint64_t pmOps = 0;
    std::vector<double> caseS;
    std::vector<double> caseCpuS; //!< process CPU seconds of each case
    std::vector<Parts> parts; //!< traced run only, one per case
    std::uint64_t digest = 0; //!< fold of case digests in id order
    std::uint64_t fired = 0;
    std::uint64_t violations = 0;
    std::uint64_t replicaMismatches = 0;
};

/**
 * Replay @p c through the calls runCase makes, timing each.
 * Reports whether the crash fired and the recovered state verified,
 * which must match runCase's outcome.
 */
Parts
replay(const fuzz::FuzzCase &c, const fuzz::FuzzConfig &config,
       std::uint64_t group, Tracer &tracer, bool &fired, bool &ok)
{
    Parts p;
    Span all(tracer, 0, "fuzz.case_replay", group);
    core::AppConfig cfg;
    cfg.threads = 1;
    cfg.opsPerThread = config.opsPerThread;
    cfg.seed = config.appSeed;
    cfg.poolBytes = config.poolBytes;

    std::unique_ptr<core::Runtime> rt;
    {
        Span s(tracer, 0, "core.runtime_ctor");
        rt = std::make_unique<core::Runtime>(cfg.poolBytes, 1);
        p.ctor = s.seconds();
    }
    std::unique_ptr<core::WhisperApp> app = core::createApp(c.app, cfg);
    {
        Span s(tracer, 0, "apps.setup");
        app->setup(*rt);
        rt->clearTraces();
        p.setup = s.seconds();
    }
    rt->installCrashPlan(1, c.crash.schedule);
    rt->armCrashPoint(c.crashAt);
    fired = false;
    {
        Span s(tracer, 0, "apps.run");
        rt->runThreads(1, [&](pm::PmContext &ctx, ThreadId tid) {
            try {
                app->run(*rt, ctx, tid);
            } catch (const pm::CrashPointReached &) {
                fired = true;
            }
        });
        p.run = s.seconds();
    }
    {
        Span s(tracer, 0, "pm.crash");
        std::vector<LineAddr> survivors;
        if (!c.hard) {
            Rng rng(c.crash.seed);
            survivors = rt->pool().pickSurvivors(rng, c.crash.survival);
        }
        rt->crashWithSurvivors(survivors);
        p.crash = s.seconds();
    }
    rt->ctx(0).setCrashPlan(nullptr);
    core::VerifyReport verdict;
    {
        Span s(tracer, 0, "fuzz.recover");
        verdict = app->scrubRecovered(*rt);
        app->recover(*rt);
        p.recover = s.seconds();
    }
    {
        Span s(tracer, 0, "fuzz.verify");
        const core::VerifyReport inv = app->checkRecoveryInvariants(*rt);
        verdict.merge(inv);
        if (inv.ok())
            verdict.merge(app->verifyRecovered(*rt));
        p.verify = s.seconds();
    }
    ok = verdict.ok();
    {
        Span s(tracer, 0, "bench.teardown");
        app.reset();
        rt.reset();
    }
    return p;
}

std::vector<AppRound>
runRound(const fuzz::FuzzConfig &cfg, std::uint64_t cases_per_app,
         Tracer &tracer)
{
    std::vector<AppRound> apps(kApps.size());
    Span round(tracer, 0, "bench.round");
    {
        Span setup(tracer, 0, "bench.setup");
        for (std::size_t a = 0; a < kApps.size(); a++) {
            Span s(tracer, 0, "fuzz.profile");
            apps[a].pmOps = fuzz::profilePmOps(kApps[a], cfg);
            apps[a].profileS = s.seconds();
        }
    }
    Span measured(tracer, 0, "bench.measured");
    for (std::size_t a = 0; a < kApps.size(); a++) {
        AppRound &ar = apps[a];
        for (std::uint64_t id = 0; id < cases_per_app; id++) {
            const fuzz::FuzzCase c =
                fuzz::deriveCase(kApps[a], id, ar.pmOps, cfg);
            Span s(tracer, 0, "fuzz.case", Span::kNewGroup);
            const double cpu0 = cpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
            const fuzz::CaseOutcome out = fuzz::runCase(c, cfg);
            ar.caseCpuS.push_back(cpuSeconds(CLOCK_PROCESS_CPUTIME_ID) -
                                  cpu0);
            ar.caseS.push_back(s.seconds());
            ar.digest = (ar.digest ^ out.digest) * 0x100000001b3ull;
            ar.fired += out.fired ? 1 : 0;
            ar.violations += out.ok ? 0 : 1;
            if (tracer.on()) {
                bool fired = false, ok = false;
                ar.parts.push_back(
                    replay(c, cfg, s.id(), tracer, fired, ok));
                if (fired != out.fired || ok != out.ok)
                    ar.replicaMismatches++;
            }
        }
    }
    return apps;
}

} // namespace

std::size_t
fuzzPoolBytes()
{
    return fuzz::FuzzConfig().poolBytes;
}

Report
runCrashfuzz(const RunOptions &opt, Tracer &tracer)
{
    fuzz::FuzzConfig cfg; // 24 ops/thread, 48 MB pool, app seed 7
    cfg.sweepSeed = Rng(opt.seed)();
    // Enough distinct cases that the case mix, which the seed picks,
    // averages out.
    const std::uint64_t casesPerApp = opt.tiny ? 1 : 3;

    Report rep;
    std::vector<std::vector<AppRound>> rounds;
    const std::int64_t t0 = nowNs();
    while (rounds.size() < 2 ||
           static_cast<double>(nowNs() - t0) * 1e-9 < opt.seconds) {
        rounds.push_back(runRound(cfg, casesPerApp, tracer));
        const std::vector<AppRound> &r = rounds.back();
        for (std::size_t a = 0; a < kApps.size(); a++) {
            const AppRound &ar = r[a];
            const AppRound &base = rounds.front()[a];
            rep.attempt(ar.caseS.size());
            rep.check("crashfuzz.no_violations." + kApps[a],
                      ar.violations == 0,
                      std::to_string(ar.violations) + " violation(s)");
            rep.check("crashfuzz.digest_repeat." + kApps[a],
                      ar.digest == base.digest && ar.pmOps == base.pmOps,
                      "round " + std::to_string(rounds.size() - 1) +
                          " differs from round 0");
            if (tracer.on())
                rep.check("crashfuzz.replay_matches." + kApps[a],
                          ar.replicaMismatches == 0);
        }
    }

    const std::uint64_t n = rounds.size();
    std::vector<double> setup, allCases;
    std::uint64_t fired = 0;
    for (const std::vector<AppRound> &r : rounds) {
        double s = 0;
        for (const AppRound &ar : r) {
            s += ar.profileS;
            allCases.insert(allCases.end(), ar.caseS.begin(),
                            ar.caseS.end());
            fired += ar.fired;
        }
        setup.push_back(s);
    }
    // Cases per second of a typical round: each case's median over
    // rounds, summed, so a slow stretch (a noisy neighbour) in one
    // round does not move it.
    double typicalRoundS = 0, typicalRoundCpuS = 0;
    std::uint64_t casesPerRound = 0;
    for (std::size_t a = 0; a < kApps.size(); a++) {
        for (std::size_t i = 0; i < casesPerApp; i++) {
            std::vector<double> v, cpu;
            for (const std::vector<AppRound> &r : rounds) {
                v.push_back(r[a].caseS[i]);
                cpu.push_back(r[a].caseCpuS[i]);
            }
            typicalRoundS += median(v);
            typicalRoundCpuS += median(cpu);
            casesPerRound++;
        }
    }
    const double casesPerS =
        static_cast<double>(casesPerRound) / typicalRoundS;
    rep.set("setup_s", median(setup), n);
    rep.set("fuzz_cases_per_s", casesPerS, allCases.size());
    rep.set("case_wall_p50_ms", median(allCases) * 1e3, allCases.size());
    rep.set("host_rate",
            static_cast<double>(casesPerRound) / typicalRoundCpuS,
            allCases.size());

    rep.set("fuzz.fired_frac",
            static_cast<double>(fired) /
                static_cast<double>(allCases.size()),
            allCases.size());
    for (std::size_t a = 0; a < kApps.size(); a++) {
        const std::string &app = kApps[a];
        std::vector<double> profile, cases, recover, verify, residual;
        for (const std::vector<AppRound> &r : rounds) {
            const AppRound &ar = r[a];
            profile.push_back(ar.profileS);
            cases.insert(cases.end(), ar.caseS.begin(), ar.caseS.end());
            for (std::size_t i = 0; i < ar.parts.size(); i++) {
                recover.push_back(ar.parts[i].recover);
                verify.push_back(ar.parts[i].verify);
                residual.push_back(ar.caseS[i] - ar.parts[i].total());
            }
        }
        rep.set("fuzz.profile_ms." + app, median(profile) * 1e3, n);
        rep.set("fuzz.case_ms." + app, median(cases) * 1e3, cases.size());
        rep.set("fuzz.pm_ops." + app,
                static_cast<double>(rounds.front()[a].pmOps), 1);
        if (!recover.empty()) {
            rep.set("fuzz.recover_ms." + app, median(recover) * 1e3,
                    recover.size());
            rep.set("fuzz.verify_ms." + app, median(verify) * 1e3,
                    verify.size());
            rep.set("fuzz.residual_ms." + app, median(residual) * 1e3,
                    residual.size());
        }
    }
    return rep;
}

} // namespace perfbench
