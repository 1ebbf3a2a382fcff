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
 *     Each shard folds its epochs into statistics as their fences
 *     close and keeps, per epoch, only the end tick and its lines
 *     (ThreadEpochs in epoch.hh).
 *  2. *Join*: statistics and counters merge in recording order; the
 *     threads' epochs are ordered by end timestamp as 16-byte keys
 *     (EpochOrder), never copied.
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
#include "trace/trace_reader.hh"

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
 * disk in chunks. Peak memory is one chunk per job plus, per epoch,
 * 12 bytes, its lines at 8 bytes each, a 16-byte order key and one
 * flag byte per dependency shard, plus one last-write row per
 * distinct line; the events themselves are never held. Returns false on I/O or format failure, or on an event the
 * reader rejects (trace_reader.hh), and reports why through
 * @p fault when given — for a rejected event, the first failing
 * section in file order. The result is identical to loading the
 * file with readTraceFile() and calling analyzeTraces().
 */
bool analyzeTraceFile(const std::string &path, AnalysisResult &out,
                      const AnalysisOptions &options = {},
                      trace::TraceReadFault *fault = nullptr);

} // namespace whisper::analysis

#endif // WHISPER_ANALYSIS_PIPELINE_HH
