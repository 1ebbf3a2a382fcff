/**
 * @file
 * YCSB-style unified workload driver.
 *
 * Drives any suite WhisperApp through its per-op workload surface
 * (WhisperApp::workloadSetup and the calls after it) with a generated
 * key-value workload: a YCSB mix (A–F, or custom ratios) over a
 * uniform / zipfian / latest key distribution, on T worker threads
 * reusing the runtime's concurrency machinery. Every generated
 * operation flows through the app's normal PmContext path, so a
 * workload run produces the same traces the §5 analysis pipeline and
 * amplification accounting consume.
 *
 * Determinism contract (see docs/WORKLOADS.md): at a fixed
 * (seed, threads) pair the run is bit-identical — op streams come
 * from per-thread Rng forks, keys from per-thread partitions backed
 * by per-thread structures, and latency from PmContext::localTicks()
 * deltas, none of which depend on thread interleaving. Per-thread
 * histograms merge by counter addition (any order, same result), the
 * discipline that makes `analyze --jobs N` byte-stable.
 */

#ifndef WHISPER_WORKLOAD_WORKLOAD_HH
#define WHISPER_WORKLOAD_WORKLOAD_HH

#include <functional>
#include <memory>
#include <string>

#include "core/app.hh"
#include "workload/keydist.hh"
#include "workload/latency_histogram.hh"

namespace whisper::workload
{

/**
 * Operation mix: fractions must sum to 1. The named YCSB mixes:
 *
 *  | mix | read | update | insert | rmw  | scan | pair with --dist |
 *  |-----|------|--------|--------|------|------|------------------|
 *  |  A  | 0.50 | 0.50   |        |      |      | zipfian          |
 *  |  B  | 0.95 | 0.05   |        |      |      | zipfian          |
 *  |  C  | 1.00 |        |        |      |      | zipfian          |
 *  |  D  | 0.95 |        | 0.05   |      |      | latest           |
 *  |  E  |      |        | 0.05   |      | 0.95 | zipfian          |
 *  |  F  | 0.50 |        |        | 0.50 |      | zipfian          |
 */
struct MixSpec
{
    std::string name = "A";
    double read = 0.5;
    double update = 0.5;
    double insert = 0.0;
    double rmw = 0.0;
    double scan = 0.0;
    /** Scan lengths are uniform in [1, scanLen]. */
    std::uint64_t scanLen = 16;

    /** The named YCSB mix @p mix ('A'..'F'); fatal() otherwise. */
    static MixSpec ycsb(char mix);

    /**
     * Parse "A".."F" (case-insensitive) or custom
     * "read:update:insert:rmw:scan" ratios (normalized; e.g.
     * "8:1:1:0:0"). Returns false on malformed input.
     */
    static bool parse(const std::string &s, MixSpec &out);
};

/** One workload invocation's knobs. */
struct WorkloadOptions
{
    std::string app;
    MixSpec mix;
    KeyDist dist = KeyDist::Zipfian;
    std::uint64_t keys = 100000;    //!< preloaded records, total
    unsigned threads = 4;
    std::uint64_t opsPerThread = 10000;
    std::uint64_t seed = 42;
    std::size_t poolBytes = 256 << 20;
    double zipfTheta = 0.99;
    /**
     * Record the op stream through the durable-linearizability
     * recorder and check it after the run (crash-free, so the check
     * degenerates to plain linearizability against the final probes).
     * Needs an app with the lincheck workload surface; installs a
     * seeded SchedGate schedule when threads > 1. Off by default —
     * a plain run's behavior and digest are untouched.
     */
    bool lincheck = false;
};

/** Per-op-type tallies (deterministic; part of the digest). */
struct OpCounts
{
    std::uint64_t reads = 0;
    std::uint64_t readsFound = 0;
    std::uint64_t updates = 0;
    std::uint64_t inserts = 0;
    std::uint64_t rmws = 0;
    std::uint64_t rmwsFound = 0;
    std::uint64_t scans = 0;
    std::uint64_t scannedKeys = 0;

    std::uint64_t
    total() const
    {
        return reads + updates + inserts + rmws + scans;
    }
};

/** Outcome of one workload run. */
struct WorkloadResult
{
    WorkloadOptions options;
    std::string layerName;
    OpCounts ops;
    /** Makespan: max over threads of that thread's tick sum. */
    Tick elapsedTicks = 0;
    /** Total work: sum over threads (serialized-equivalent ticks). */
    Tick totalTicks = 0;
    LatencyHistogram latency;     //!< merged over threads in tid order
    core::VerifyReport check;     //!< workloadCheck() outcome
    bool verified = false;

    /** @{ Linearizability check outcome (options.lincheck runs). */
    bool lincheckRan = false;
    bool lincheckBudget = false;       //!< some key hit the node budget
    std::uint64_t lincheckKeys = 0;    //!< keys with a checked verdict
    std::uint64_t lincheckViolations = 0; //!< keys lacking a witness
    /** @} */

    /** Keeps traces alive for the analysis pipeline. */
    std::shared_ptr<core::Runtime> runtime;

    /** Ops per simulated second (ticks are nanoseconds). */
    double throughputOpsPerSec() const;

    /**
     * Run fingerprint: FNV-1a over the op tallies, tick totals and
     * the latency histogram digest. Equal digests mean bit-identical
     * runs.
     */
    std::uint64_t digest() const;

    /** The documented JSON object (docs/WORKLOADS.md schema). */
    std::string json() const;
};

/**
 * Run one generated workload: create the app, build and preload the
 * per-thread partitions (workloadSetup, which also puts every client
 * on its own clock), call @p before_mix (when given) on the runtime,
 * run the mix on every thread, merge histograms in tid order and
 * validate. Only the mix is traced (core::Session). fatal() if the
 * app does not implement the
 * workload surface. Tests use @p before_mix to perturb the schedule,
 * e.g. with a FenceObserver that yields.
 */
WorkloadResult runWorkload(
    const WorkloadOptions &opts,
    const std::function<void(core::Runtime &)> &before_mix = {});

} // namespace whisper::workload

#endif // WHISPER_WORKLOAD_WORKLOAD_HH
