/**
 * @file
 * Collection of per-thread trace buffers for one application run.
 */

#ifndef WHISPER_TRACE_TRACE_SET_HH
#define WHISPER_TRACE_TRACE_SET_HH

#include <memory>
#include <vector>

#include "trace/trace_buffer.hh"

namespace whisper::trace
{

/** A (thread, event) pair produced by merged iteration. */
struct MergedEvent
{
    ThreadId tid;
    TraceEvent ev;
};

/**
 * Owns the TraceBuffers of every thread in a run.
 *
 * Buffers are created up front (before the threads start) so no
 * synchronization is needed while recording.
 */
class TraceSet
{
  public:
    explicit TraceSet(bool record_volatile = false);

    /** Create the buffer for thread @p tid; returns a stable pointer. */
    TraceBuffer *createBuffer(ThreadId tid);

    /** Buffer for @p tid, or nullptr. */
    TraceBuffer *buffer(ThreadId tid);
    const TraceBuffer *buffer(ThreadId tid) const;

    std::size_t threadCount() const { return buffers_.size(); }

    const std::vector<std::unique_ptr<TraceBuffer>> &
    buffers() const
    {
        return buffers_;
    }

    /** Sum of all per-thread counters. */
    AccessCounters totalCounters() const;

    /** Total stored events across threads. */
    std::size_t totalEvents() const;

    /**
     * All events of all threads, globally sorted by timestamp
     * (ties broken by thread id, then program order).
     */
    std::vector<MergedEvent> merged() const;

    /** Earliest and latest timestamp across all buffers (0 if empty). */
    Tick firstTick() const;
    Tick lastTick() const;

    /** Drop all events from all buffers. */
    void clear();

  private:
    bool recordVolatile_;
    std::vector<std::unique_ptr<TraceBuffer>> buffers_;
};

/**
 * RAII suspension of every buffer of a TraceSet: inside the scope no
 * event is stored and no counter moves, so a phase whose events would
 * be dropped anyway (a workload preload, an app's setup()) costs no
 * trace memory. The contexts keep their buffers, so everything else
 * a traced run does still happens: PM ops, clock advances, crash-plan
 * counts, and the DRAM page numbering of record-volatile traces.
 * Create and destroy it while no thread records into @p traces.
 */
class UntracedScope
{
  public:
    explicit UntracedScope(TraceSet &traces);
    ~UntracedScope();

    UntracedScope(const UntracedScope &) = delete;
    UntracedScope &operator=(const UntracedScope &) = delete;

  private:
    TraceSet &traces_;
};

} // namespace whisper::trace

#endif // WHISPER_TRACE_TRACE_SET_HH
