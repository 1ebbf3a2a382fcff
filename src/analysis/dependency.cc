#include "analysis/dependency.hh"

#include <unordered_map>

namespace whisper::analysis
{

void
DependencyShard::scan(const EpochOrder &order, Tick window,
                      std::size_t shardIndex, std::size_t shardCount)
{
    flags_.assign(order.size(), 0);
    if (shardCount == 0)
        shardCount = 1;

    // Last write time of each owned line, per thread: one row of
    // nthreads ticks per line in a flat table. Thread ids are dense
    // and small in this suite, so the rows stay short.
    const std::size_t nthreads =
        static_cast<std::size_t>(order.maxTid()) + 1;
    std::unordered_map<LineAddr, std::size_t> row_of;
    row_of.reserve(1 << 16);
    std::vector<Tick> last_write;

    for (std::size_t i = 0; i < order.size(); i++) {
        const ThreadId tid = order.tid(i);
        const Tick end = order.endTs(i);
        const auto lines = order.lines(i);
        std::uint8_t flags = 0;
        const Tick horizon = end > window ? end - window : 0;
        for (const LineAddr line : lines) {
            if (line % shardCount != shardIndex)
                continue;
            auto it = row_of.find(line);
            if (it == row_of.end())
                continue;
            const Tick *times = &last_write[it->second];
            for (std::size_t t = 0; t < nthreads; t++) {
                if (times[t] == 0 || times[t] < horizon)
                    continue;
                // times[t] <= end holds because epochs are processed
                // in end-timestamp order.
                flags |= t == tid ? kSelf : kCross;
            }
        }
        // Update after classification so an epoch does not depend on
        // itself.
        for (const LineAddr line : lines) {
            if (line % shardCount != shardIndex)
                continue;
            auto [it, fresh] = row_of.try_emplace(line, last_write.size());
            if (fresh)
                last_write.resize(last_write.size() + nthreads, 0);
            last_write[it->second + tid] = end;
        }
        flags_[i] = flags;
    }
}

void
DependencyShard::merge(const DependencyShard &other)
{
    if (flags_.size() < other.flags_.size())
        flags_.resize(other.flags_.size(), 0);
    for (std::size_t i = 0; i < other.flags_.size(); i++)
        flags_[i] |= other.flags_[i];
}

DependencySummary
DependencyShard::summarize() const
{
    DependencySummary out;
    out.totalEpochs = flags_.size();
    for (const std::uint8_t f : flags_) {
        out.selfDependent += (f & kSelf) != 0;
        out.crossDependent += (f & kCross) != 0;
    }
    return out;
}

DependencySummary
analyzeDependencies(const EpochBuilder &builder, Tick window)
{
    DependencyShard shard;
    shard.scan(builder.order(), window, 0, 1);
    return shard.summarize();
}

} // namespace whisper::analysis
