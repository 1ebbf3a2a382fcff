#include "trace/trace_set.hh"

#include <algorithm>

#include "common/logging.hh"

namespace whisper::trace
{

TraceSet::TraceSet(bool record_volatile)
    : recordVolatile_(record_volatile)
{
}

TraceBuffer *
TraceSet::createBuffer(ThreadId tid)
{
    panic_if(buffer(tid) != nullptr, "duplicate trace buffer for tid %u",
             tid);
    buffers_.push_back(std::make_unique<TraceBuffer>(tid, recordVolatile_));
    return buffers_.back().get();
}

TraceBuffer *
TraceSet::buffer(ThreadId tid)
{
    for (auto &buf : buffers_) {
        if (buf->tid() == tid)
            return buf.get();
    }
    return nullptr;
}

const TraceBuffer *
TraceSet::buffer(ThreadId tid) const
{
    for (const auto &buf : buffers_) {
        if (buf->tid() == tid)
            return buf.get();
    }
    return nullptr;
}

AccessCounters
TraceSet::totalCounters() const
{
    AccessCounters total;
    for (const auto &buf : buffers_)
        total.merge(buf->counters());
    return total;
}

std::size_t
TraceSet::totalEvents() const
{
    std::size_t n = 0;
    for (const auto &buf : buffers_)
        n += buf->size();
    return n;
}

std::vector<MergedEvent>
TraceSet::merged() const
{
    std::vector<MergedEvent> out;
    out.reserve(totalEvents());
    for (const auto &buf : buffers_) {
        buf->forEachChunk([&](const TraceEvent *events, std::size_t n) {
            for (std::size_t i = 0; i < n; i++)
                out.push_back({buf->tid(), events[i]});
        });
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const MergedEvent &a, const MergedEvent &b) {
                         if (a.ev.ts != b.ev.ts)
                             return a.ev.ts < b.ev.ts;
                         return a.tid < b.tid;
                     });
    return out;
}

Tick
TraceSet::firstTick() const
{
    Tick first = ~Tick(0);
    for (const auto &buf : buffers_) {
        if (!buf->empty())
            first = std::min(first, buf->front().ts);
    }
    return first == ~Tick(0) ? 0 : first;
}

Tick
TraceSet::lastTick() const
{
    Tick last = 0;
    for (const auto &buf : buffers_) {
        if (!buf->empty())
            last = std::max(last, buf->back().ts);
    }
    return last;
}

void
TraceSet::clear()
{
    for (auto &buf : buffers_)
        buf->clear();
}

UntracedScope::UntracedScope(TraceSet &traces) : traces_(traces)
{
    for (const auto &buf : traces_.buffers())
        buf->suspended_++;
}

UntracedScope::~UntracedScope()
{
    for (const auto &buf : traces_.buffers())
        buf->suspended_--;
}

} // namespace whisper::trace
