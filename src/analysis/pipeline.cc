#include "analysis/pipeline.hh"

#include <algorithm>
#include <utility>

#include "analysis/trace_sections.hh"

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

/**
 * The shard body: fold one thread's section into its epochs,
 * statistics, counters and tick span.
 */
ThreadShardResult
analyzeSection(const TraceSection &section)
{
    ThreadShardResult r;
    ThreadEpochAccumulator acc(section.tid);
    const trace::TraceBuffer *buf = section.buffer;
    const bool ok = section.stream(
        [&](const trace::TraceEvent *events, std::size_t count) {
            if (r.eventCount == 0)
                r.firstTick = events[0].ts;
            r.lastTick = events[count - 1].ts;
            r.eventCount += count;
            if (!buf) {
                for (std::size_t j = 0; j < count; j++)
                    r.counters.add(events[j]);
            }
            acc.addChunk(events, count);
        },
        r.fault);
    if (ok)
        takeEpochs(acc, r);
    if (buf)
        r.counters = buf->counters();
    return r;
}

/** Shard every section of the trace, then join; false on a fault. */
bool
analyzeSections(const trace::TraceSet *traces,
                const trace::TraceFileReader *reader,
                const AnalysisOptions &options, AnalysisResult &out,
                trace::TraceReadFault *fault)
{
    ThreadPool pool(options.jobs);
    std::vector<ThreadShardResult> shards;
    if (!shardSections(pool, traces, reader, analyzeSection, shards,
                       fault))
        return false;
    out = joinAndFinish(std::move(shards), pool);
    return true;
}

} // namespace

AnalysisResult
analyzeTraces(const trace::TraceSet &traces,
              const AnalysisOptions &options)
{
    AnalysisResult out;
    analyzeSections(&traces, nullptr, options, out, nullptr);
    return out;
}

bool
analyzeTraceFile(const std::string &path, AnalysisResult &out,
                 const AnalysisOptions &options,
                 trace::TraceReadFault *fault)
{
    trace::TraceFileReader reader;
    return openTrace(path, reader, fault) &&
           analyzeSections(nullptr, &reader, options, out, fault);
}

} // namespace whisper::analysis
