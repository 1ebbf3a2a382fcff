#include "trace/trace_buffer.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace whisper::trace
{

void
AccessCounters::merge(const AccessCounters &other)
{
    pmStores += other.pmStores;
    pmNtStores += other.pmNtStores;
    pmLoads += other.pmLoads;
    pmFlushes += other.pmFlushes;
    fences += other.fences;
    dramLoads += other.dramLoads;
    dramStores += other.dramStores;
    pmStoreBytes += other.pmStoreBytes;
    pmNtStoreBytes += other.pmNtStoreBytes;
    for (std::size_t i = 0; i < kDataClassCount; i++)
        pmBytesByClass[i] += other.pmBytesByClass[i];
}

TraceBuffer::TraceBuffer(ThreadId tid, bool record_volatile)
    : tid_(tid), recordVolatile_(record_volatile)
{
}

void
TraceBuffer::append(const TraceEvent *events, std::size_t n)
{
    if (suspended_ || !recordVolatile_) {
        // Some events may be dropped: take the per-event path.
        for (std::size_t i = 0; i < n; i++)
            push(events[i]);
        return;
    }
    for (std::size_t i = 0; i < n; i++)
        counters_.add(events[i]);
    while (n > 0) {
        if (cur_ == end_)
            grow();
        const std::size_t take =
            std::min(n, static_cast<std::size_t>(end_ - cur_));
        std::memcpy(cur_, events, take * sizeof(TraceEvent));
        cur_ += take;
        events += take;
        n -= take;
    }
}

void
TraceBuffer::grow()
{
    if (!chunks_.empty())
        sealed_ += chunkEvents(chunks_.size() - 1);
    const std::size_t events = chunkEvents(chunks_.size());
    LazyRegion &chunk = chunks_.emplace_back(events * sizeof(TraceEvent));
    if (chunk.size() >= kHugePageBytes)
        chunk.adviseHugePages();
    tail_ = cur_ = chunkData(chunks_.size() - 1);
    end_ = tail_ + events;
}

const TraceEvent &
TraceBuffer::at(std::size_t i) const
{
    panic_if(i >= size(), "trace event %zu beyond %zu", i, size());
    std::size_t k = 0;
    while (i >= chunkEvents(k))
        i -= chunkEvents(k++);
    return chunkData(k)[i];
}

void
TraceBuffer::clear()
{
    while (chunks_.size() > 1)
        chunks_.pop_back();
    sealed_ = 0;
    if (!chunks_.empty()) {
        tail_ = cur_ = chunkData(0);
        end_ = tail_ + kFirstChunkEvents;
    }
    counters_ = AccessCounters{};
}

} // namespace whisper::trace
