/**
 * @file
 * Per-thread, append-only event buffer.
 *
 * Each application thread owns one buffer, so recording is lock-free.
 * Volatile accesses can optionally be recorded as counters only, which
 * keeps epoch-analysis traces small while still supporting Figure 6's
 * access-mix measurement.
 *
 * Events live in a list of chunks that never moves an event once
 * written. The first chunk holds 1024 events (24 KiB); each next one
 * holds four times more, up to a cap of 262144 events (6 MiB, a
 * multiple of both the 24-byte event and the 2 MiB huge page). Every
 * chunk is a kernel-zeroed mapping (LazyRegion), so a buffer costs
 * resident memory for the events written, not for a doubled
 * capacity, and clear() hands every chunk but the first back to the
 * kernel. Chunks of 2 MiB or more (the capped ones) are advised onto
 * huge pages; a small trace never reaches one. Readers walk the
 * events chunk by chunk (forEachChunk()).
 *
 * Recording can be suspended (UntracedScope in trace_set.hh): a
 * suspended buffer stores no event and advances no counter, while
 * the context feeding it still does every PM op and clock advance.
 * WhisperApp::workloadSetup() preloads this way.
 */

#ifndef WHISPER_TRACE_TRACE_BUFFER_HH
#define WHISPER_TRACE_TRACE_BUFFER_HH

#include <cstdint>
#include <vector>

#include "common/lazy_region.hh"
#include "trace/event.hh"

namespace whisper::trace
{

/** Aggregate counters kept even when events are not being recorded. */
struct AccessCounters
{
    std::uint64_t pmStores = 0;
    std::uint64_t pmNtStores = 0;
    std::uint64_t pmLoads = 0;
    std::uint64_t pmFlushes = 0;
    std::uint64_t fences = 0;
    std::uint64_t dramLoads = 0;
    std::uint64_t dramStores = 0;
    std::uint64_t pmStoreBytes = 0;   //!< cacheable PM store bytes
    std::uint64_t pmNtStoreBytes = 0; //!< non-temporal PM store bytes
    std::uint64_t pmBytesByClass[kDataClassCount] = {};

    std::uint64_t
    pmWrites() const
    {
        return pmStores + pmNtStores;
    }

    std::uint64_t
    pmAccesses() const
    {
        return pmStores + pmNtStores + pmLoads;
    }

    std::uint64_t
    dramAccesses() const
    {
        return dramLoads + dramStores;
    }

    /**
     * Fold the counter effect of one event in. This is the exact
     * update TraceBuffer::push applies, exposed so streaming readers
     * can rebuild counters from raw event chunks without a buffer.
     */
    void add(const TraceEvent &ev);

    void merge(const AccessCounters &other);
};

/**
 * Event sink for one thread. Cache-line aligned: a thread writes its
 * buffer's cursor and counters on every event, so two threads'
 * buffers must not share a line.
 */
class alignas(64) TraceBuffer
{
  public:
    /** Events in the first chunk. */
    static constexpr std::size_t kFirstChunkEvents = 1024;
    /** Events in every chunk from the fifth on (6 MiB). */
    static constexpr std::size_t kChunkCapEvents = 262144;

    explicit TraceBuffer(ThreadId tid, bool record_volatile = false);

    TraceBuffer(const TraceBuffer &) = delete;
    TraceBuffer &operator=(const TraceBuffer &) = delete;

    ThreadId tid() const { return tid_; }

    /**
     * Append one event (also updates the counters). Inline: every
     * traced PM op and volatile access calls it.
     */
    void push(const TraceEvent &ev);

    /**
     * Append @p n events as n push() calls would, copying them into
     * the chunks a span at a time (trace-file reads).
     */
    void append(const TraceEvent *events, std::size_t n);

    /**
     * Account a burst of volatile accesses without materializing
     * events (used when only counters are recorded; the instrumented
     * applications model large amounts of DRAM work this way).
     */
    void
    addVolatileBulk(std::uint64_t loads, std::uint64_t stores)
    {
        if (suspended_)
            return;
        counters_.dramLoads += loads;
        counters_.dramStores += stores;
    }

    /** Whether DramLoad/DramStore events are stored, not just counted. */
    bool recordsVolatile() const { return recordVolatile_; }
    void setRecordVolatile(bool on) { recordVolatile_ = on; }

    /** Whether an UntracedScope over this buffer is open. */
    bool suspended() const { return suspended_ != 0; }

    const AccessCounters &counters() const { return counters_; }

    std::size_t
    size() const
    {
        return sealed_ + static_cast<std::size_t>(cur_ - tail_);
    }

    bool empty() const { return cur_ == tail_ && sealed_ == 0; }

    /**
     * Call @p fn(const TraceEvent *events, std::size_t n) for every
     * non-empty chunk, in program order.
     */
    template <typename Fn>
    void
    forEachChunk(Fn &&fn) const
    {
        for (std::size_t k = 0; k < chunks_.size(); k++) {
            const TraceEvent *events = chunkData(k);
            const std::size_t n = k + 1 < chunks_.size()
                                      ? chunkEvents(k)
                                      : static_cast<std::size_t>(
                                            cur_ - tail_);
            if (n)
                fn(events, n);
        }
    }

    /** Event @p i in program order (i < size()). */
    const TraceEvent &at(std::size_t i) const;

    /** The first and last event (the buffer must not be empty). */
    const TraceEvent &front() const { return at(0); }
    const TraceEvent &back() const { return cur_[-1]; }

    /** Drop all recorded events and counters, keeping the first chunk. */
    void clear();

  private:
    /** Suspensions nest: one count per open UntracedScope. */
    friend class UntracedScope;

    /** Chunks before the first capped one, each 4x its predecessor. */
    static constexpr std::size_t kGrowSteps = 4;
    /** Chunks of this size or more are advised onto huge pages. */
    static constexpr std::size_t kHugePageBytes = std::size_t(2) << 20;
    static_assert((kFirstChunkEvents << (2 * kGrowSteps)) ==
                      kChunkCapEvents,
                  "chunks grow 4x a step up to the cap");
    static_assert(kChunkCapEvents * sizeof(TraceEvent) % kHugePageBytes ==
                      0,
                  "a capped chunk is whole 2 MiB huge pages");

    /** Capacity of chunk @p k, in events. */
    static std::size_t
    chunkEvents(std::size_t k)
    {
        return k < kGrowSteps ? kFirstChunkEvents << (2 * k)
                              : kChunkCapEvents;
    }

    TraceEvent *
    chunkData(std::size_t k) const
    {
        return reinterpret_cast<TraceEvent *>(chunks_[k].data());
    }

    /** Seal the tail chunk and open the next (first) one. */
    void grow();

    ThreadId tid_;
    bool recordVolatile_;
    unsigned suspended_ = 0;
    std::vector<LazyRegion> chunks_;
    std::size_t sealed_ = 0;    //!< events in chunks before the tail
    TraceEvent *tail_ = nullptr; //!< start of the tail chunk
    TraceEvent *cur_ = nullptr;  //!< next free slot of the tail chunk
    TraceEvent *end_ = nullptr;  //!< end of the tail chunk
    AccessCounters counters_;
};

inline void
AccessCounters::add(const TraceEvent &ev)
{
    switch (ev.kind) {
      case EventKind::PmStore:
        pmStores++;
        pmStoreBytes += ev.size;
        pmBytesByClass[static_cast<int>(ev.cls)] += ev.size;
        break;
      case EventKind::PmNtStore:
        pmNtStores++;
        pmNtStoreBytes += ev.size;
        pmBytesByClass[static_cast<int>(ev.cls)] += ev.size;
        break;
      case EventKind::PmLoad:
        pmLoads++;
        break;
      case EventKind::PmFlush:
        pmFlushes++;
        break;
      case EventKind::Fence:
        fences++;
        break;
      case EventKind::DramLoad:
        dramLoads++;
        break;
      case EventKind::DramStore:
        dramStores++;
        break;
      default:
        break;
    }
}

inline void
TraceBuffer::push(const TraceEvent &ev)
{
    if (suspended_)
        return;
    counters_.add(ev);
    if (!recordVolatile_ && (ev.kind == EventKind::DramLoad ||
                             ev.kind == EventKind::DramStore)) {
        return;
    }
    if (cur_ == end_)
        grow();
    *cur_++ = ev;
}

} // namespace whisper::trace

#endif // WHISPER_TRACE_TRACE_BUFFER_HH
