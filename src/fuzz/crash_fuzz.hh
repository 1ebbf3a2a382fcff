/**
 * @file
 * Crash-recovery fuzzing over the WHISPER suite (DESIGN.md §6).
 *
 * The fuzzer sweeps (application x crash point x RNG seed x survival
 * rate): each case runs an application's workload, injects a
 * simulated power cut immediately before one specific PM operation
 * (pm::CrashPlan), resolves the cut with a seeded survivor set over
 * the dirty lines (PmPool::crashWithSurvivors), re-mounts through
 * WhisperApp::recover() and then checks both the generic post-crash
 * contract (verifyRecovered) and the access layer's recovery
 * invariants (checkRecoveryInvariants): Mnemosyne redo logs replayed
 * and retired, NVML undo logs rolled back to TxState::None, PMFS
 * journal FREE plus fsck-clean, native descriptor/status protocols
 * settled. Violations carry the VerifyReport's named invariant.
 *
 * With FuzzConfig::threads > 1 (MOD- and Hybrid-layer apps only) the workload
 * races real threads whose PM-op interleaving is pinned by a seeded
 * SchedGate schedule, so the global op index — and therefore the
 * crash point and the post-crash image — stays deterministic and a
 * --replay with the same schedule is bit-identical.
 *
 * Every case is derived deterministically from (sweep seed, app name,
 * case id), runs in its own core::Session, and folds its outcome into
 * a digest — so a sweep is bit-identical at any --jobs and any single
 * failure replays from its case id alone. Violations are shrunk to a
 * minimal reproducer (latest failing crash point within a bounded
 * window, then a ddmin-style pass over the surviving-line set) and
 * rendered as a `whisper_cli crashfuzz --replay` command line.
 */

#ifndef WHISPER_FUZZ_CRASH_FUZZ_HH
#define WHISPER_FUZZ_CRASH_FUZZ_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "core/harness.hh"
#include "pm/fault_plan.hh"

namespace whisper::fuzz
{

/** Workload shape shared by every case of a sweep. */
struct FuzzConfig
{
    std::uint64_t opsPerThread = 24; //!< per worker thread
    std::size_t poolBytes = 48 << 20;
    std::uint64_t appSeed = 7;       //!< AppConfig::seed for every case
    std::uint64_t sweepSeed = 0x5eedF00d; //!< derives per-case params
    unsigned threads = 1; //!< racing threads (>1: MOD/Hybrid only)
    /**
     * Media-fault dimension: each case additionally draws a seeded
     * pm::FaultPlan (poison count x tear probability x transient read
     * faults) resolved against the crash's dirty-line set. Recovery
     * then runs scrub-first; losses must surface as Degraded entries,
     * never as silent corruption or panics.
     */
    bool faults = false;
    /**
     * Run every case (and the profile pass) with the full txlib
     * elision policy enabled (txlib/elision.hh; it becomes each
     * case's core::AppConfig::elision): the sweep then proves the
     * elided fences/flushes were really redundant — same
     * zero-violation contract over a different (smaller) op schedule.
     */
    bool elide = false;
    /**
     * Durable-linearizability dimension (src/lincheck/): the case runs
     * a recorded KV workload over the app's lincheck surface instead
     * of run(), probes every key after recovery and demands a witness
     * linearization (completed ops + a subset of pending ops, every
     * durability-fence-covered op inside the pre-crash prefix) per
     * key. Violations become `lincheck` VerifyReport entries and a
     * minimized history dump; an exhausted search budget degrades to
     * `lincheck-budget`. Off by default — with lincheck false, every
     * case and digest is bit-identical to a pre-lincheck build.
     */
    bool lincheck = false;
};

/** One fully-resolved fuzz case (derivable from its id alone). */
struct FuzzCase
{
    std::string app;
    std::uint64_t caseId = 0;
    std::uint64_t crashAt = 0; //!< global PM-op index the cut precedes
    /**
     * How the cut resolves and how the racing threads interleave:
     * seed picks the survivor set, schedule seeds the SchedGate.
     */
    core::CrashOptions crash;
    bool hard = false; //!< crashHard(): nothing dirty survives
    /** Media faults riding the cut (none() unless FuzzConfig::faults). */
    pm::FaultPlan fault;
};

/** What one case did and found. */
struct CaseOutcome
{
    bool fired = false;        //!< crash point hit before workload end
    std::uint64_t opIndex = 0; //!< op cut short (ops seen when !fired)
    bool ok = true;            //!< invariants + verifyRecovered held
    std::string why;           //!< first violated invariant (named)
    std::uint64_t digest = 0;  //!< deterministic outcome fingerprint
    std::uint64_t imageHash = 0; //!< post-recovery arch-image hash
    std::vector<LineAddr> survivors; //!< dirty lines the crash kept
    /** Scrub declared a named, tolerated loss (fault cases only). */
    bool degraded = false;
    std::uint64_t linesTorn = 0;      //!< word-torn survivor lines
    std::uint64_t linesPoisoned = 0;  //!< lines lost to media
    std::uint64_t transientFaults = 0; //!< retried reads (counted only)
    /**
     * @{ Buddy heap headers recovery reformatted, and the first one's
     * offset (the app's recoveredHeapStats()); reported by
     * warnRecoveryNotes(), never folded into the digest.
     */
    std::uint64_t headersReformatted = 0;
    Addr firstBadHeader = 0;
    /** @} */
    /** @{ \name Lincheck dimension (FuzzConfig::lincheck only) */
    bool lincheckRan = false;
    bool lincheckOk = true;       //!< every key found a witness
    bool lincheckBudget = false;  //!< some key degraded to lincheck-budget
    std::uint64_t lincheckKeys = 0;       //!< keys checked
    std::uint64_t lincheckViolations = 0; //!< keys without a witness
    /** Minimized history of a violation: a new, uniquely named file. */
    std::string lincheckDump;
    /** @} */
    /** Merged scrub + invariant + recovery report (for --json). */
    core::VerifyReport report;
};

/** A shrunk, replayable violation. */
struct Reproducer
{
    FuzzCase c;                      //!< with the shrunk crash point
    std::vector<LineAddr> survivors; //!< shrunk surviving-line set
    std::string why;
    std::string command; //!< whisper_cli crashfuzz --replay ... line
};

/** Per-application sweep summary. */
struct AppSweepReport
{
    std::string app;
    std::uint64_t totalPmOps = 0; //!< profiled workload op count
    std::uint64_t casesRun = 0;
    std::uint64_t casesFired = 0; //!< crash point inside the workload
    std::uint64_t violations = 0;
    std::uint64_t casesDegraded = 0; //!< named media loss, tolerated
    std::uint64_t lincheckViolations = 0; //!< cases lacking a witness
    std::uint64_t lincheckBudget = 0;     //!< cases budget-degraded
    std::uint64_t digest = 0; //!< fold of case digests in id order
    std::vector<Reproducer> reproducers; //!< shrunk, capped
    /** Per-case merged reports in id order (SweepOptions::keepReports). */
    std::vector<core::VerifyReport> caseReports;
};

/** Sweep shape. */
struct SweepOptions
{
    std::uint64_t cases = 256; //!< cases per application
    unsigned jobs = 1;         //!< worker threads (0 = hardware)
    std::vector<std::string> apps; //!< empty = every registered app
    FuzzConfig config;
    bool shrinkViolations = true;
    std::uint64_t maxReproducers = 4; //!< shrink at most this many
    bool keepReports = false; //!< retain per-case VerifyReports (--json)
};

/**
 * Whether @p app can be swept under @p config: racing threads
 * (threads > 1) are only deterministic where disjoint updates commute
 * — the MOD and Hybrid layers — and the lincheck dimension needs the
 * app's lincheck workload surface (WhisperApp::supportsLincheck).
 * profilePmOps() and runCase() refuse anything else.
 */
bool sweepable(const core::WhisperApp &app, const FuzzConfig &config);

/**
 * Profiling pass: run @p app's workload under a counting (never
 * firing) crash plan and return the total number of PM ops it issues.
 * Crash points are drawn from [0, total). With config.threads > 1 the
 * profile runs under a sweep-seed-derived gate schedule; a case under
 * its own schedule may issue slightly more or fewer ops (end-of-run
 * grace residue), so a tail crash point occasionally fails to fire —
 * that case simply counts as unfired.
 */
std::uint64_t profilePmOps(const std::string &app,
                           const FuzzConfig &config);

/**
 * Derive case @p case_id for @p app. @p total_pm_ops is the
 * profilePmOps() result; the crash point is reduced into it.
 */
FuzzCase deriveCase(const std::string &app, std::uint64_t case_id,
                    std::uint64_t total_pm_ops,
                    const FuzzConfig &config);

/**
 * Run one case end to end: setup, armed workload, crash resolution,
 * recovery, invariant checks. @p survivor_override replaces the
 * seeded survivor pick (the shrinker's handle); @p crash_at_override
 * (anything but ~0) replaces the case's crash point.
 */
CaseOutcome runCase(const FuzzCase &c, const FuzzConfig &config,
                    const std::vector<LineAddr> *survivor_override =
                        nullptr,
                    std::uint64_t crash_at_override =
                        ~std::uint64_t(0));

/**
 * warn() the notes of @p out's recovery (buddy headers reformatted),
 * naming @p app and @p case_id. runCase() does not print them: sweep
 * workers run cases concurrently, so the sweep reports each case's
 * notes in case order, and a single replay reports its own.
 */
void warnRecoveryNotes(const std::string &app, std::uint64_t case_id,
                       const CaseOutcome &out);

/**
 * Shrink a failing case: probe a bounded window after the crash point
 * for the latest still-failing op index, then ddmin the surviving
 * lines down to a (local) minimum that still violates an invariant.
 */
Reproducer shrink(const FuzzCase &c, const CaseOutcome &outcome,
                  const FuzzConfig &config);

/** The `whisper_cli crashfuzz --replay` line reproducing a case. */
std::string replayCommand(const FuzzCase &c,
                          const std::vector<LineAddr> &survivors,
                          const FuzzConfig &config);

/**
 * Parse the `--survivors` value replayCommand() writes: `a,b,c` line
 * numbers or `none`. False, with @p out cleared, on an empty element
 * or a non-number.
 */
bool parseSurvivors(const char *text, std::vector<LineAddr> &out);

/**
 * Parse the `--fault-plan` value replayCommand() writes,
 * `seed:poison:tear%:transient`. False, with @p out untouched, on
 * garbage or a tear percent above 100.
 */
bool parseFaultPlan(const char *text, pm::FaultPlan &out);

/**
 * Fan the sweep out over a deterministic thread pool; one report per
 * app, cases folded in id order (bit-identical at any job count).
 */
std::vector<AppSweepReport> sweep(const SweepOptions &options);

} // namespace whisper::fuzz

#endif // WHISPER_FUZZ_CRASH_FUZZ_HH
