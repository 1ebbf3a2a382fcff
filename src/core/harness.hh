/**
 * @file
 * Application life-cycle harness used by tests and every bench.
 *
 * Session is the only place a run is built: runApp, the workload
 * driver (src/workload/) and the crash fuzzer (src/fuzz/) all drive
 * their app through one, so traces and verdicts compare across
 * layers and drivers (DESIGN.md §6).
 */

#ifndef WHISPER_CORE_HARNESS_HH
#define WHISPER_CORE_HARNESS_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/pipeline.hh"
#include "core/app.hh"
#include "lincheck/checker.hh"
#include "lincheck/recorder.hh"

namespace whisper::core
{

/** Outcome of one harnessed run. */
struct RunResult
{
    std::string appName;
    AccessLayer layer{};
    bool verified = false;   //!< report.ok(), kept for convenience
    VerifyReport report;     //!< structured verify() outcome
    Tick firstTick = 0;
    Tick lastTick = 0;
    std::uint64_t totalOps = 0;

    /** Keeps the world alive so callers can analyze the traces. */
    std::shared_ptr<Runtime> runtime;
    std::unique_ptr<WhisperApp> app;
};

/** Where Session::run() stopped. */
struct RunOutcome
{
    bool fired = false;        //!< an armed crash point cut the run
    std::uint64_t opIndex = 0; //!< op cut short (PM ops seen if !fired)
};

/** A recorded history and its durable-linearizability verdict. */
struct HistoryCheck
{
    lincheck::History history;
    lincheck::CheckResult result;
    std::uint64_t violations = 0; //!< keys without a witness
};

/**
 * One run of one app: builds the Runtime and app pair, runs per-thread
 * bodies, records KV histories and recovers after a power cut. The
 * orderings every driver depends on live here and nowhere else:
 *
 *  - the recorder is enabled before the baseline probes (noteInitial()
 *    is a no-op on a disabled recorder);
 *  - fence observers are detached before recovery's fences, which
 *    must not extend the recorded durability coverage;
 *  - crash plans are detached before the scrub: a fired plan keeps
 *    dropping PM mutations and would discard the scrub's repairs.
 */
class Session
{
  public:
    /** Per-thread body of a run. */
    using Body = std::function<void(pm::PmContext &, ThreadId)>;

    /**
     * Build @p app over a fresh Runtime sized and flagged by
     * @p config (pool, threads, volatile recording, elision mask).
     */
    Session(const std::string &app, const AppConfig &config);

    /** Continue @p run (crash + recovery after runApp). */
    explicit Session(RunResult &run);

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    Runtime &rt() { return *world_->runtime; }
    WhisperApp &app() { return *world_->app; }
    /** The runtime, app and run fields runApp() hands out. */
    RunResult &world() { return *world_; }

    /**
     * Run @p body on every thread. A body cut short by an armed crash
     * point unwinds to here; each thread then leaves its schedule
     * gate's draw set so the others make progress.
     */
    RunOutcome run(const Body &body);

    /**
     * Start recording a KV history over @p map's loaded keys: enable
     * the recorder, probe the baseline state, then attach the fence
     * observers. Bodies report ops through recorder(), which is a
     * no-op until this is called.
     */
    void record(const WorkloadKeymap &map);

    lincheck::HistoryRecorder &recorder() { return rec_; }

    /**
     * After a power cut: detach crash plans and fence observers, scrub
     * poisoned lines, then app().recover(). Returns the scrub report;
     * a recorded history now counts as crashed.
     */
    VerifyReport recover();

    /**
     * Close the recorded history and check it: detach the observers,
     * probe the final state of every loaded key plus the first
     * @p inserted[t] keys thread t inserted, and add a `lincheck`
     * failure per key without a witness (`lincheck-budget` when the
     * search ran out) to @p report.
     */
    HistoryCheck checkHistory(VerifyReport &report,
                              const std::vector<std::uint64_t>
                                  &inserted = {});

  private:
    void detachObservers();

    RunResult owned_;
    RunResult *world_;
    lincheck::HistoryRecorder rec_;
    WorkloadKeymap map_;
    bool crashed_ = false;
};

/**
 * Run one application: setup, clear traces, run threads, verify.
 * The returned RunResult owns the runtime (and thus the traces).
 */
RunResult runApp(const std::string &name, const AppConfig &config);

/** Parameters of one injected crash + recovery cycle. */
struct CrashOptions
{
    std::uint64_t seed = 0;     //!< survivor-set RNG seed
    double survival = 0.5;      //!< per-dirty-line survival chance
    unsigned threads = 1;       //!< racing threads (crash fuzzer)
    std::uint64_t schedule = 0; //!< deterministic PM-op schedule seed
};

/**
 * Crash-and-recover cycle on an already-run app: injects a crash per
 * @p opts (seed + survival), re-mounts via app.recover() and returns
 * app.verifyRecovered(). The threads/schedule fields describe
 * multi-threaded crash schedules and are consumed by the crash
 * fuzzer, which arms its own crash plans before running.
 */
VerifyReport crashAndVerify(RunResult &result,
                            const CrashOptions &opts);

/**
 * Run the full §5 analysis pipeline over a finished run's traces.
 * @p jobs fans the per-thread and per-line shards across cores
 * (1 = sequential, 0 = hardware concurrency); the result is
 * bit-identical at any job count.
 */
analysis::AnalysisResult analyzeRun(const RunResult &result,
                                    unsigned jobs = 1);

} // namespace whisper::core

#endif // WHISPER_CORE_HARNESS_HH
