/**
 * @file
 * Crash-recovery fuzzer tests: deterministic case derivation and
 * digests at any job count, the bounded per-layer smoke sweep that
 * rides every ctest run, and the end-to-end proof that a deliberate
 * ordering bug is found, shrunk and rendered replayable.
 */

#include <gtest/gtest.h>

#include "fuzz/crash_fuzz.hh"

namespace whisper
{
namespace
{

fuzz::FuzzConfig
tinyConfig()
{
    fuzz::FuzzConfig config;
    config.opsPerThread = 10;
    config.poolBytes = 24 << 20;
    return config;
}

TEST(CrashFuzz, CaseDerivationIsPure)
{
    const fuzz::FuzzConfig config = tinyConfig();
    const fuzz::FuzzCase a = fuzz::deriveCase("hashmap", 11, 452,
                                              config);
    const fuzz::FuzzCase b = fuzz::deriveCase("hashmap", 11, 452,
                                              config);
    EXPECT_EQ(a.crashAt, b.crashAt);
    EXPECT_EQ(a.crash.seed, b.crash.seed);
    EXPECT_EQ(a.crash.survival, b.crash.survival);
    EXPECT_EQ(a.crash.schedule, b.crash.schedule);
    EXPECT_EQ(a.hard, b.hard);
    EXPECT_LT(a.crashAt, 452u);
    // A different id perturbs the parameters.
    const fuzz::FuzzCase c = fuzz::deriveCase("hashmap", 12, 452,
                                              config);
    EXPECT_NE(a.crash.seed, c.crash.seed);
    EXPECT_NE(a.crash.schedule, c.crash.schedule);

    // Profile totals at the default FuzzConfig for one app per access
    // layer: crash points are drawn from [0, total), so these pin
    // every case of every default sweep.
    const fuzz::FuzzConfig defaults;
    const std::pair<const char *, std::uint64_t> totals[] = {
        {"echo", 1030},      {"hashmap", 1066},
        {"vacation", 694},   {"nfs", 2568},
        {"mod-hashmap", 296}, {"halo-hashmap", 76}};
    for (const auto &[app, total] : totals)
        EXPECT_EQ(fuzz::profilePmOps(app, defaults), total) << app;
}

TEST(CrashFuzz, CaseReplayIsBitIdentical)
{
    const fuzz::FuzzConfig config = tinyConfig();
    const std::uint64_t total = fuzz::profilePmOps("hashmap", config);
    ASSERT_GT(total, 0u);
    const fuzz::FuzzCase c = fuzz::deriveCase("hashmap", 5, total,
                                              config);
    const fuzz::CaseOutcome first = fuzz::runCase(c, config);
    const fuzz::CaseOutcome second = fuzz::runCase(c, config);
    EXPECT_EQ(first.digest, second.digest);
    EXPECT_EQ(first.fired, second.fired);
    EXPECT_EQ(first.opIndex, second.opIndex);
    EXPECT_EQ(first.survivors, second.survivors);
    EXPECT_EQ(first.imageHash, second.imageHash);
}

TEST(CrashFuzz, MultiThreadReplayIsBitIdentical)
{
    // The tentpole determinism claim: with racing threads pinned to a
    // case's gate schedule, a replay reproduces not just the digest
    // but the exact post-recovery PM image.
    for (const char *app : {"mod-hashmap", "mod-vector"}) {
        fuzz::FuzzConfig config = tinyConfig();
        config.threads = 3;
        const std::uint64_t total = fuzz::profilePmOps(app, config);
        ASSERT_GT(total, 0u) << app;
        const fuzz::FuzzCase c =
            fuzz::deriveCase(app, 9, total, config);
        const fuzz::CaseOutcome first = fuzz::runCase(c, config);
        const fuzz::CaseOutcome second = fuzz::runCase(c, config);
        EXPECT_EQ(first.fired, second.fired) << app;
        EXPECT_EQ(first.opIndex, second.opIndex) << app;
        EXPECT_EQ(first.survivors, second.survivors) << app;
        EXPECT_EQ(first.imageHash, second.imageHash) << app;
        EXPECT_EQ(first.digest, second.digest) << app;
        // A different schedule is a genuinely different interleaving:
        // the same crash point usually cuts a different image. (Not
        // asserted — schedules may coincide — but the replay command
        // must pin the one that ran.)
        EXPECT_NE(
            fuzz::replayCommand(c, first.survivors, config)
                .find("--schedule"),
            std::string::npos)
            << app;
    }
}

TEST(CrashFuzz, MultiThreadModSweepHoldsInvariants)
{
    // Concurrent MOD crash fuzzing: racing writers, a seeded gate
    // schedule per case, and the same zero-violation bar as the
    // single-threaded sweep.
    fuzz::SweepOptions options;
    options.apps = {"mod-hashmap", "mod-vector"};
    options.cases = 48;
    options.config = tinyConfig();
    options.config.threads = 3;
    options.maxReproducers = 1;

    for (const auto &report : fuzz::sweep(options)) {
        EXPECT_EQ(report.violations, 0u)
            << report.app << ": "
            << (report.reproducers.empty()
                    ? "(no reproducer)"
                    : report.reproducers[0].why + " => " +
                          report.reproducers[0].command);
        EXPECT_EQ(report.casesRun, options.cases);
        EXPECT_GT(report.casesFired, 0u);
        EXPECT_GT(report.totalPmOps, 0u);
    }
}

TEST(CrashFuzz, SweepDigestIdenticalAtAnyJobs)
{
    fuzz::SweepOptions options;
    options.apps = {"hashmap", "echo"};
    options.cases = 12;
    options.config = tinyConfig();
    options.shrinkViolations = false;

    options.jobs = 1;
    const auto sequential = fuzz::sweep(options);
    options.jobs = 4;
    const auto parallel = fuzz::sweep(options);

    ASSERT_EQ(sequential.size(), parallel.size());
    for (std::size_t i = 0; i < sequential.size(); i++) {
        EXPECT_EQ(sequential[i].digest, parallel[i].digest)
            << sequential[i].app;
        EXPECT_EQ(sequential[i].violations, parallel[i].violations);
        EXPECT_EQ(sequential[i].casesFired, parallel[i].casesFired);
    }
}

TEST(CrashFuzz, SmokeSweepEachLayerHoldsInvariants)
{
    // The bounded smoke sweep the issue wires into ctest: one
    // application per access layer (native, NVML, Mnemosyne, PMFS),
    // a few hundred crash points x seeds x survival rates each.
    fuzz::SweepOptions options;
    options.apps = {"echo", "hashmap", "vacation", "nfs"};
    options.cases = 200;
    options.config = tinyConfig();
    options.maxReproducers = 1;

    for (const auto &report : fuzz::sweep(options)) {
        EXPECT_EQ(report.violations, 0u)
            << report.app << ": "
            << (report.reproducers.empty()
                    ? "(no reproducer)"
                    : report.reproducers[0].why + " => " +
                          report.reproducers[0].command);
        EXPECT_EQ(report.casesRun, options.cases);
        EXPECT_GT(report.casesFired, 0u);
        EXPECT_GT(report.totalPmOps, 0u);
    }
}

TEST(CrashFuzz, ModSmokeSweepHoldsInvariants)
{
    // The MOD layer's recovery contract under fuzzing: every root
    // swap commits a fully-persisted structure and the garbage lanes
    // never reclaim anything a durable root still reaches. At least
    // 128 cases per MOD application, zero violations.
    fuzz::SweepOptions options;
    options.apps = {"mod-hashmap", "mod-vector"};
    options.cases = 128;
    options.config = tinyConfig();
    options.maxReproducers = 1;

    for (const auto &report : fuzz::sweep(options)) {
        EXPECT_EQ(report.violations, 0u)
            << report.app << ": "
            << (report.reproducers.empty()
                    ? "(no reproducer)"
                    : report.reproducers[0].why + " => " +
                          report.reproducers[0].command);
        EXPECT_EQ(report.casesRun, options.cases);
        EXPECT_GT(report.casesFired, 0u);
        EXPECT_GT(report.totalPmOps, 0u);
    }
}

TEST(CrashFuzz, FindsAndShrinksDeliberateViolation)
{
    fuzz::SweepOptions options;
    options.apps = {"faulty"};
    options.cases = 32;
    options.config.opsPerThread = 8;
    options.config.poolBytes = 1 << 20;
    options.maxReproducers = 1;

    const auto reports = fuzz::sweep(options);
    ASSERT_EQ(reports.size(), 1u);
    const auto &report = reports[0];
    EXPECT_GT(report.violations, 0u);
    ASSERT_FALSE(report.reproducers.empty());

    const auto &rep = report.reproducers[0];
    // The shrinker may only move the crash point later, closer to
    // the bug, and for this bug the empty survivor set suffices.
    EXPECT_TRUE(rep.survivors.empty());
    EXPECT_NE(rep.command.find("--replay faulty:"),
              std::string::npos);
    EXPECT_NE(rep.command.find("--survivors none"),
              std::string::npos);

    // The reproducer replays: the shrunk case still violates.
    const fuzz::CaseOutcome replay =
        fuzz::runCase(rep.c, options.config, &rep.survivors);
    EXPECT_FALSE(replay.ok);
    EXPECT_EQ(replay.why, rep.why);
}

TEST(CrashFuzz, ShrinkIsDeterministic)
{
    // Same seed + same violation => byte-identical reproducer. The
    // ddmin pass and the crash-point probe draw only on the case's
    // seeds, so a reproducer pasted into a bug report stays valid.
    fuzz::FuzzConfig config;
    config.opsPerThread = 8;
    config.poolBytes = 1 << 20;

    const std::uint64_t total = fuzz::profilePmOps("faulty", config);
    ASSERT_GT(total, 0u);
    fuzz::FuzzCase failing;
    fuzz::CaseOutcome outcome;
    bool found = false;
    for (std::uint64_t id = 0; id < 64 && !found; id++) {
        const fuzz::FuzzCase c =
            fuzz::deriveCase("faulty", id, total, config);
        const fuzz::CaseOutcome out = fuzz::runCase(c, config);
        if (!out.ok) {
            failing = c;
            outcome = out;
            found = true;
        }
    }
    ASSERT_TRUE(found) << "faulty app never violated in 64 cases";

    const fuzz::Reproducer a =
        fuzz::shrink(failing, outcome, config);
    const fuzz::Reproducer b =
        fuzz::shrink(failing, outcome, config);
    EXPECT_EQ(a.c.crashAt, b.c.crashAt);
    EXPECT_EQ(a.survivors, b.survivors);
    EXPECT_EQ(a.why, b.why);
    EXPECT_EQ(a.command, b.command);
    // And the shrunk case still reproduces its own `why`.
    const fuzz::CaseOutcome replay =
        fuzz::runCase(a.c, config, &a.survivors);
    EXPECT_FALSE(replay.ok);
    EXPECT_EQ(replay.why, a.why);
}

TEST(CrashFuzz, FaultCaseReplayIsBitIdentical)
{
    // The fault dimension folds into the same determinism contract:
    // a case that tore and poisoned lines replays to the same digest
    // and post-recovery image hash, and its replay command pins the
    // fault plan.
    fuzz::FuzzConfig config = tinyConfig();
    config.faults = true;
    const std::uint64_t total = fuzz::profilePmOps("echo", config);
    ASSERT_GT(total, 0u);

    bool found = false;
    for (std::uint64_t id = 0; id < 64 && !found; id++) {
        const fuzz::FuzzCase c =
            fuzz::deriveCase("echo", id, total, config);
        if (c.fault.none())
            continue;
        found = true;
        const fuzz::CaseOutcome first = fuzz::runCase(c, config);
        const fuzz::CaseOutcome second = fuzz::runCase(c, config);
        EXPECT_EQ(first.digest, second.digest);
        EXPECT_EQ(first.imageHash, second.imageHash);
        EXPECT_EQ(first.degraded, second.degraded);
        EXPECT_EQ(first.linesTorn, second.linesTorn);
        EXPECT_EQ(first.linesPoisoned, second.linesPoisoned);
        EXPECT_EQ(first.survivors, second.survivors);
        EXPECT_NE(fuzz::replayCommand(c, first.survivors, config)
                      .find("--fault-plan"),
                  std::string::npos);
    }
    ASSERT_TRUE(found) << "no derived case carried a fault plan";
}

TEST(CrashFuzz, FaultSweepEachLayerScrubsOrDegrades)
{
    // Bounded fault smoke sweep, one application per access layer:
    // media loss must end scrubbed or named Degraded — never a
    // violation, never a recovery-path panic.
    fuzz::SweepOptions options;
    options.apps = {"echo", "hashmap", "vacation", "nfs",
                    "mod-hashmap"};
    options.cases = 48;
    options.config = tinyConfig();
    options.config.faults = true;
    options.maxReproducers = 1;

    std::uint64_t degraded_total = 0;
    for (const auto &report : fuzz::sweep(options)) {
        EXPECT_EQ(report.violations, 0u)
            << report.app << ": "
            << (report.reproducers.empty()
                    ? "(no reproducer)"
                    : report.reproducers[0].why + " => " +
                          report.reproducers[0].command);
        EXPECT_EQ(report.casesRun, options.cases);
        degraded_total += report.casesDegraded;
    }
    // The fault grids guarantee poisoned cases in every sweep; at
    // least some must have surfaced as named, tolerated degradation.
    EXPECT_GT(degraded_total, 0u);
}

TEST(CrashFuzz, SweepKeepsPerCaseReportsForJsonStream)
{
    // --json consumes SweepOptions::keepReports: one VerifyReport per
    // case in id order, each of which must round-trip through the
    // line-JSON codec (the CLI emits exactly toJson(report) lines).
    fuzz::SweepOptions options;
    options.apps = {"echo"};
    options.cases = 24;
    options.config = tinyConfig();
    options.config.faults = true;
    options.keepReports = true;
    options.maxReproducers = 1;

    const auto reports = fuzz::sweep(options);
    ASSERT_EQ(reports.size(), 1u);
    const auto &report = reports[0];
    ASSERT_EQ(report.caseReports.size(), options.cases);
    std::uint64_t degraded_seen = 0;
    for (const auto &rep : report.caseReports) {
        core::VerifyReport back;
        const std::string line = core::toJson(rep);
        ASSERT_TRUE(core::fromJson(line, back)) << line;
        EXPECT_EQ(core::toJson(back), line);
        if (back.degraded())
            degraded_seen++;
    }
    EXPECT_EQ(degraded_seen, report.casesDegraded);
}

} // namespace
} // namespace whisper
