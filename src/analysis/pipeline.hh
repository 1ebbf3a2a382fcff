/**
 * @file
 * Parallel, streaming trace-analysis pipeline.
 *
 * Runs every §5 analysis — epoch statistics (Table 1, Figures 3/4),
 * the 50 µs dependency classification (Figure 5), the PM/DRAM access
 * mix (Figure 6), NTI usage and write amplification (§5.2) — in one
 * pass over a trace, fanning the work out across cores:
 *
 *  1. *Per-thread shards*: each recorded thread's event stream is an
 *     independent unit (epoch reconstruction and access counters are
 *     per-thread folds), so threads shard trivially. File inputs are
 *     streamed chunk-by-chunk (trace_reader.hh) and never
 *     materialized whole.
 *  2. *Join*: per-thread epochs/transactions concatenate in recording
 *     order and sort into the global end-timestamp order; counters
 *     merge in recording order.
 *  3. *Line shards*: the dependency pass shards the line address
 *     space, each shard computing exact per-epoch flags for its lines
 *     (dependency.hh), OR-merged in shard order.
 *
 * Every reduction happens in a deterministic order on the calling
 * thread, so the result is bit-identical to the sequential analysis
 * at any job count — `analyze --jobs 8` and `--jobs 1` print the
 * same bytes.
 */

#ifndef WHISPER_ANALYSIS_PIPELINE_HH
#define WHISPER_ANALYSIS_PIPELINE_HH

#include <string>

#include "analysis/access_mix.hh"
#include "analysis/dependency.hh"
#include "analysis/epoch_stats.hh"

namespace whisper::analysis
{

/** Tuning knobs for one pipeline run. */
struct AnalysisOptions
{
    /** Worker threads; 1 = sequential, 0 = hardware concurrency. */
    unsigned jobs = 1;
};

/** Everything the §5 analyses produce for one trace. */
struct AnalysisResult
{
    std::size_t threadCount = 0;
    std::uint64_t totalEvents = 0;
    Tick firstTick = 0;
    Tick lastTick = 0;
    EpochSummary epochs;
    DependencySummary dependencies;
    AccessMix mix;
    NtiUsage nti;
    Amplification amplification;
};

/** Analyze an in-memory trace set. */
AnalysisResult analyzeTraces(const trace::TraceSet &traces,
                             const AnalysisOptions &options = {});

/**
 * Analyze a trace file by streaming its per-thread sections from
 * disk in chunks — peak memory is one chunk per job plus the
 * reconstructed epochs, independent of trace size. Returns false on
 * I/O or format failure. The result is identical to loading the file
 * with readTraceFile() and calling analyzeTraces().
 */
bool analyzeTraceFile(const std::string &path, AnalysisResult &out,
                      const AnalysisOptions &options = {});

} // namespace whisper::analysis

#endif // WHISPER_ANALYSIS_PIPELINE_HH
