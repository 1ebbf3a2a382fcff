#include "analysis/pipeline.hh"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "common/thread_pool.hh"
#include "trace/trace_reader.hh"

namespace whisper::analysis
{

namespace
{

/** Everything one per-thread shard produces before the join. */
struct ThreadShardResult
{
    std::vector<Epoch> epochs;
    std::vector<TxInfo> txs;
    trace::AccessCounters counters;
    Tick firstTick = 0;
    Tick lastTick = 0;
    std::uint64_t eventCount = 0;
};

/**
 * Join per-thread shard results (in recording order) and run the
 * epoch-level passes. All merges fold in fixed order on the calling
 * thread; only the shard bodies run on the pool.
 */
AnalysisResult
joinAndFinish(std::vector<ThreadShardResult> shards, ThreadPool &pool)
{
    AnalysisResult out;
    out.threadCount = shards.size();

    std::vector<Epoch> epochs;
    std::vector<TxInfo> txs;
    trace::AccessCounters counters;
    Tick first = ~Tick(0);
    for (auto &shard : shards) {
        out.totalEvents += shard.eventCount;
        if (shard.eventCount > 0) {
            first = std::min(first, shard.firstTick);
            out.lastTick = std::max(out.lastTick, shard.lastTick);
        }
        counters.merge(shard.counters);
        std::move(shard.epochs.begin(), shard.epochs.end(),
                  std::back_inserter(epochs));
        std::move(shard.txs.begin(), shard.txs.end(),
                  std::back_inserter(txs));
    }
    out.firstTick = first == ~Tick(0) ? 0 : first;

    EpochBuilder builder(std::move(epochs), std::move(txs));

    // Epoch statistics: shard the (sorted) epoch list, fold each
    // range independently, merge in range order.
    const auto ranges =
        shardRanges(builder.epochs().size(), pool.workerCount());
    auto statShards =
        pool.map(ranges.size(), [&](std::size_t s) {
            EpochStatsAccumulator acc;
            for (std::size_t i = ranges[s].begin; i < ranges[s].end;
                 i++) {
                acc.addEpoch(builder.epochs()[i]);
            }
            return acc;
        });
    EpochStatsAccumulator stats;
    for (const auto &shard : statShards)
        stats.merge(shard);
    for (const TxInfo &tx : builder.transactions())
        stats.addTransaction(tx);
    out.epochs = stats.finalize(out.firstTick, out.lastTick);

    // Dependencies: shard the line address space; each shard scans
    // the whole epoch list but owns a disjoint line subset, so the
    // OR-join reproduces the sequential flags exactly.
    const std::size_t depShards =
        std::max<std::size_t>(1, pool.workerCount());
    auto lineShards = pool.map(depShards, [&](std::size_t s) {
        DependencyShard shard;
        shard.scan(builder.epochs(), kDependencyWindow, s, depShards);
        return shard;
    });
    DependencyShard merged;
    for (const auto &shard : lineShards)
        merged.merge(shard);
    out.dependencies = merged.summarize();

    out.mix = computeAccessMix(counters);
    out.nti = computeNtiUsage(counters);
    out.amplification = computeAmplification(counters);
    return out;
}

} // namespace

AnalysisResult
analyzeTraces(const trace::TraceSet &traces,
              const AnalysisOptions &options)
{
    ThreadPool pool(options.jobs);
    const auto &buffers = traces.buffers();

    auto shards = pool.map(buffers.size(), [&](std::size_t i) {
        const trace::TraceBuffer &buf = *buffers[i];
        ThreadShardResult r;
        ThreadEpochAccumulator acc(buf.tid());
        acc.addChunk(buf.events().data(), buf.events().size());
        r.epochs = std::move(acc.epochs());
        r.txs = std::move(acc.transactions());
        // In-memory counters come from the buffer: they include
        // bulk-accounted volatile accesses that were never
        // materialized as events.
        r.counters = buf.counters();
        r.eventCount = buf.size();
        if (!buf.empty()) {
            r.firstTick = buf.events().front().ts;
            r.lastTick = buf.events().back().ts;
        }
        return r;
    });
    return joinAndFinish(std::move(shards), pool);
}

bool
analyzeTraceFile(const std::string &path, AnalysisResult &out,
                 const AnalysisOptions &options)
{
    trace::TraceFileReader reader;
    if (!reader.open(path))
        return false;

    ThreadPool pool(options.jobs);
    try {
        auto shards =
            pool.map(reader.sections().size(), [&](std::size_t i) {
                ThreadShardResult r;
                ThreadEpochAccumulator acc(
                    reader.sections()[i].tid);
                const bool ok = reader.streamSection(
                    i, [&](const trace::TraceEvent *events,
                           std::size_t count) {
                        if (count == 0)
                            return;
                        if (r.eventCount == 0)
                            r.firstTick = events[0].ts;
                        r.lastTick = events[count - 1].ts;
                        r.eventCount += count;
                        for (std::size_t j = 0; j < count; j++)
                            r.counters.add(events[j]);
                        acc.addChunk(events, count);
                    });
                if (!ok) {
                    throw std::runtime_error(
                        "trace section stream failed");
                }
                r.epochs = std::move(acc.epochs());
                r.txs = std::move(acc.transactions());
                return r;
            });
        out = joinAndFinish(std::move(shards), pool);
    } catch (const std::runtime_error &) {
        return false;
    }
    return true;
}

} // namespace whisper::analysis
