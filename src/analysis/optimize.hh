/**
 * @file
 * Trace-driven fence/flush redundancy analysis (Bentō-style).
 *
 * The paper measures ordering and durability overhead; this pass finds
 * the part of it that is removable. Each PmFlush and Fence event of a
 * trace is classified as required or redundant under four categories:
 *
 *  (a) flush re-dirtied — the flushed line is stored again before the
 *      next fence, so the writeback persists data that is immediately
 *      overwritten (the flush should sink below the last store);
 *  (b) flush clean — the line was never stored since the last fence
 *      that drained a flush of it (or since the start of the trace),
 *      so the writeback moves no new bytes;
 *  (c) ordering fence, no conflict — the epochs on either side of an
 *      ordering fence share no cache line, so the fence separates no
 *      conflicting accesses and the next fence subsumes it;
 *  (d) coalescible durability pair — a durability fence inside a
 *      transaction whose epoch is empty (no store, NT store or flush
 *      since the previous fence): it pairs with that previous fence
 *      and one of the two suffices.
 *
 * Classification is a per-thread streaming computation with the same
 * accumulator discipline as epoch.hh: ThreadOptimizeAccumulator
 * consumes one thread's events in program order, per-thread summaries
 * add up in any grouping, and the parallel drivers below produce
 * bit-identical results at any job count.
 *
 * The analysis is deliberately conservative where the trace alone
 * cannot prove redundancy: NT-stored lines stay dirty until a flush
 * of them is fenced (under-reporting (b)), and durability fences with
 * non-empty epochs are always required. Category (c) is a
 * measurement, not an elision license — an ordering fence can order a
 * log record against data on a *different* line (that is its job in
 * the txlibs' append paths), which is exactly why elision is keyed to
 * named origin sites with layer-specific safety arguments
 * (txlib/elision.hh) rather than applied wholesale.
 */

#ifndef WHISPER_ANALYSIS_OPTIMIZE_HH
#define WHISPER_ANALYSIS_OPTIMIZE_HH

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "trace/trace_reader.hh"
#include "trace/trace_set.hh"

namespace whisper::analysis
{

/** Flush/fence counts attributed to one trace origin site. */
struct OriginCounts
{
    std::uint64_t flushes = 0;
    std::uint64_t redundantFlushes = 0;
    std::uint64_t fences = 0;
    std::uint64_t redundantFences = 0;

    void
    merge(const OriginCounts &other)
    {
        flushes += other.flushes;
        redundantFlushes += other.redundantFlushes;
        fences += other.fences;
        redundantFences += other.redundantFences;
    }
};

/**
 * Additive summary of one or more threads' classification. Merging is
 * plain addition, so shard grouping cannot change the result.
 */
struct OptimizeSummary
{
    std::uint64_t totalFlushes = 0;
    std::uint64_t flushRedirtied = 0;   //!< category (a)
    std::uint64_t flushClean = 0;       //!< category (b)
    std::uint64_t totalFences = 0;
    std::uint64_t fenceNoConflict = 0;  //!< category (c)
    std::uint64_t fenceCoalescible = 0; //!< category (d)
    std::array<OriginCounts, trace::kOriginCount> byOrigin{};

    std::uint64_t
    redundantFlushes() const
    {
        return flushRedirtied + flushClean;
    }

    std::uint64_t
    redundantFences() const
    {
        return fenceNoConflict + fenceCoalescible;
    }

    void merge(const OptimizeSummary &other);
};

/**
 * One per-site elision suggestion: counts for an origin that had any
 * redundant operation, plus the name of the ElisionPolicy bit that
 * can act on it ("" when no mechanically-safe policy exists — e.g.
 * log-append fences, whose ordering a recovery argument needs).
 */
struct ElisionSuggestion
{
    trace::Origin origin = trace::Origin::None;
    OriginCounts counts;
    const char *policy = "";
};

/** Suggestions for every origin with redundant work, in enum order. */
std::vector<ElisionSuggestion>
suggestElisions(const OptimizeSummary &summary);

/**
 * Streaming redundancy classification for ONE thread.
 *
 * Feed the thread's events in program order via add()/addChunk(),
 * then call finish() — the trailing ordering fence (if any) is
 * resolved against the open tail epoch. summary() is valid after
 * finish().
 */
class ThreadOptimizeAccumulator
{
  public:
    explicit ThreadOptimizeAccumulator(ThreadId tid);

    /** Consume the next event of this thread, in program order. */
    void add(const trace::TraceEvent &ev);

    /** Consume a contiguous chunk of events, in program order. */
    void
    addChunk(const trace::TraceEvent *events, std::size_t count)
    {
        for (std::size_t i = 0; i < count; i++)
            add(events[i]);
    }

    /** Resolve trailing state; call once, after the last event. */
    void finish();

    ThreadId tid() const { return tid_; }

    const OptimizeSummary &summary() const { return summary_; }

  private:
    enum class LineState : std::uint8_t
    {
        Dirty,   //!< stored since last persisted writeback
        Pending, //!< flushed since last store, fence not yet seen
    };

    /** A flush awaiting (a)-resolution: re-store before the fence. */
    struct PendingFlush
    {
        std::uint8_t origin = 0;
        unsigned remaining = 0; //!< dirty lines not yet re-stored
        bool resolved = false;
    };

    void noteStore(const trace::TraceEvent &ev);
    void noteFlush(const trace::TraceEvent &ev);
    void noteFence(const trace::TraceEvent &ev);
    void touchLine(LineAddr line);
    void resolvePrevFence();

    ThreadId tid_;
    OptimizeSummary summary_;

    /** Absent = clean (never stored, or persisted by some fence). */
    std::unordered_map<LineAddr, LineState> lineState_;
    /** Line -> index into pendingFlushes_ for (a) resolution. */
    std::unordered_map<LineAddr, std::size_t> pendingByLine_;
    std::vector<PendingFlush> pendingFlushes_;

    /** Lines stored or flushed since the last fence. */
    std::unordered_set<LineAddr> curTouched_;
    bool intervalHasOps_ = false;     //!< store/ntstore/flush seen
    bool intervalTxBoundary_ = false; //!< Tx* event seen
    TxId curTx_ = 0;
    bool fenceSeen_ = false;

    /** Deferred ordering fence awaiting its following epoch. */
    bool prevFenceActive_ = false;
    bool prevFenceConflict_ = false;
    std::uint8_t prevFenceOrigin_ = 0;
    std::unordered_set<LineAddr> prevFenceLines_;
};

/** Options for the parallel drivers. */
struct OptimizeOptions
{
    unsigned jobs = 0; //!< worker threads; 0 = hardware concurrency
};

/** Whole-trace classification result. */
struct OptimizeResult
{
    OptimizeSummary summary;
    std::uint64_t totalEvents = 0;
    std::size_t threadCount = 0;
};

/** Classify an in-memory trace set. Deterministic at any job count. */
OptimizeResult optimizeTraces(const trace::TraceSet &traces,
                              const OptimizeOptions &options = {});

/**
 * Classify a trace file, streaming per-thread sections in parallel.
 * Returns false when the file cannot be opened or is corrupt, and
 * reports why through @p fault when given (the first failing section
 * in file order).
 */
bool optimizeTraceFile(const std::string &path, OptimizeResult &out,
                       const OptimizeOptions &options = {},
                       trace::TraceReadFault *fault = nullptr);

} // namespace whisper::analysis

#endif // WHISPER_ANALYSIS_OPTIMIZE_HH
