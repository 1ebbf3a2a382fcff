#include "analysis/pipeline.hh"

#include <algorithm>
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
    ThreadEpochs epochs;
    EpochStatsAccumulator stats;
    trace::AccessCounters counters;
    Tick firstTick = 0;
    Tick lastTick = 0;
    std::uint64_t eventCount = 0;
    trace::TraceReadFault fault;
};

/** Move @p acc's epochs and statistics, transactions folded, to @p r. */
void
takeEpochs(ThreadEpochAccumulator &acc, ThreadShardResult &r)
{
    r.epochs = std::move(acc.epochs());
    r.stats = acc.stats();
    for (const TxInfo &tx : acc.transactions())
        r.stats.addTransaction(tx);
}

/**
 * Join per-thread shard results (in recording order) and run the
 * dependency pass. All merges fold in fixed order on the calling
 * thread; only the shard bodies run on the pool.
 */
AnalysisResult
joinAndFinish(std::vector<ThreadShardResult> shards, ThreadPool &pool)
{
    AnalysisResult out;
    out.threadCount = shards.size();

    std::vector<ThreadEpochs> threads;
    EpochStatsAccumulator stats;
    trace::AccessCounters counters;
    Tick first = ~Tick(0);
    for (auto &shard : shards) {
        out.totalEvents += shard.eventCount;
        if (shard.eventCount > 0) {
            first = std::min(first, shard.firstTick);
            out.lastTick = std::max(out.lastTick, shard.lastTick);
        }
        counters.merge(shard.counters);
        stats.merge(shard.stats);
        threads.push_back(std::move(shard.epochs));
    }
    out.firstTick = first == ~Tick(0) ? 0 : first;
    out.epochs = stats.finalize(out.firstTick, out.lastTick);

    // Dependencies: shard the line address space; each shard scans
    // the whole epoch order but owns a disjoint line subset, so the
    // OR-join reproduces the sequential flags exactly.
    const EpochOrder order(std::move(threads));
    const std::size_t depShards =
        std::max<std::size_t>(1, pool.workerCount());
    auto lineShards = pool.map(depShards, [&](std::size_t s) {
        DependencyShard shard;
        shard.scan(order, kDependencyWindow, s, depShards);
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
        buf.forEachChunk(
            [&](const trace::TraceEvent *events, std::size_t n) {
                acc.addChunk(events, n);
            });
        takeEpochs(acc, r);
        // In-memory counters come from the buffer: they include
        // bulk-accounted volatile accesses that were never
        // materialized as events.
        r.counters = buf.counters();
        r.eventCount = buf.size();
        if (!buf.empty()) {
            r.firstTick = buf.front().ts;
            r.lastTick = buf.back().ts;
        }
        return r;
    });
    return joinAndFinish(std::move(shards), pool);
}

bool
analyzeTraceFile(const std::string &path, AnalysisResult &out,
                 const AnalysisOptions &options,
                 trace::TraceReadFault *fault)
{
    trace::TraceFileReader reader;
    if (!reader.open(path)) {
        if (fault)
            *fault = {reader.lastError()};
        return false;
    }

    ThreadPool pool(options.jobs);
    auto shards =
        pool.map(reader.sections().size(), [&](std::size_t i) {
            ThreadShardResult r;
            ThreadEpochAccumulator acc(reader.sections()[i].tid);
            const bool ok = reader.streamSection(
                i,
                [&](const trace::TraceEvent *events,
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
                },
                trace::TraceFileReader::kDefaultChunkEvents, &r.fault);
            if (ok)
                takeEpochs(acc, r);
            return r;
        });
    // The first failing section in file order names the failure, so
    // the report does not depend on which worker failed first.
    for (const ThreadShardResult &r : shards) {
        if (r.fault.error != trace::TraceReadError::None) {
            if (fault)
                *fault = r.fault;
            return false;
        }
    }
    out = joinAndFinish(std::move(shards), pool);
    return true;
}

} // namespace whisper::analysis
