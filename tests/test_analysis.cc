/**
 * @file
 * Unit tests for the trace analysis: epoch reconstruction, size and
 * transaction distributions, dependency classification, access mixes
 * and write amplification.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "analysis/access_mix.hh"
#include "analysis/dependency.hh"
#include "analysis/epoch_stats.hh"
#include "analysis/pipeline.hh"
#include "common/thread_pool.hh"
#include "core/harness.hh"
#include "trace/trace_io.hh"
#include "workload/workload.hh"

namespace whisper::analysis
{
namespace
{

using trace::DataClass;
using trace::EventKind;
using trace::FenceKind;
using trace::TraceEvent;
using trace::TraceSet;

TraceEvent
ev(Tick ts, EventKind kind, Addr addr = 0, std::uint32_t size = 8,
   DataClass cls = DataClass::User, std::uint8_t aux = 0)
{
    return TraceEvent{ts, addr, size, kind, cls, aux, 0};
}

TEST(EpochBuilder, SplitsAtFences)
{
    TraceSet set;
    auto *b = set.createBuffer(0);
    b->push(ev(1, EventKind::PmStore, 0));
    b->push(ev(2, EventKind::PmStore, 64));
    b->push(ev(3, EventKind::Fence));
    b->push(ev(4, EventKind::PmStore, 128));
    b->push(ev(5, EventKind::Fence));

    EpochBuilder builder(set);
    ASSERT_EQ(builder.epochCount(), 2u);
    EXPECT_EQ(builder.epochs()[0].size(), 2u);
    EXPECT_EQ(builder.epochs()[1].size(), 1u);
    EXPECT_TRUE(builder.epochs()[1].isSingleton());
}

TEST(EpochBuilder, UniqueLinesNotStores)
{
    TraceSet set;
    auto *b = set.createBuffer(0);
    // Three stores, two of them to the same line.
    b->push(ev(1, EventKind::PmStore, 0));
    b->push(ev(2, EventKind::PmStore, 8));
    b->push(ev(3, EventKind::PmStore, 200));
    b->push(ev(4, EventKind::Fence));
    EpochBuilder builder(set);
    ASSERT_EQ(builder.epochCount(), 1u);
    EXPECT_EQ(builder.epochs()[0].size(), 2u);
    EXPECT_EQ(builder.epochs()[0].storeCount, 3u);
}

TEST(EpochBuilder, MultiLineStoreSpans)
{
    TraceSet set;
    auto *b = set.createBuffer(0);
    b->push(ev(1, EventKind::PmNtStore, 0, 4096)); // a PMFS block
    b->push(ev(2, EventKind::Fence));
    EpochBuilder builder(set);
    ASSERT_EQ(builder.epochCount(), 1u);
    EXPECT_EQ(builder.epochs()[0].size(), 64u);
    EXPECT_EQ(builder.epochs()[0].ntStoreCount, 1u);
}

TEST(EpochBuilder, EmptyFencesDoNotCreateEpochs)
{
    TraceSet set;
    auto *b = set.createBuffer(0);
    b->push(ev(1, EventKind::Fence));
    b->push(ev(2, EventKind::Fence));
    b->push(ev(3, EventKind::PmStore, 0));
    // No closing fence: the trailing open epoch is not counted.
    EpochBuilder builder(set);
    EXPECT_EQ(builder.epochCount(), 0u);
}

TEST(EpochBuilder, AttributesEpochsToTransactions)
{
    TraceSet set;
    auto *b = set.createBuffer(0);
    b->push(ev(1, EventKind::TxBegin, 77));
    b->push(ev(2, EventKind::PmStore, 0));
    b->push(ev(3, EventKind::Fence));
    b->push(ev(4, EventKind::PmStore, 64));
    b->push(ev(5, EventKind::Fence, 0, 0, DataClass::None,
               static_cast<std::uint8_t>(FenceKind::Durability)));
    b->push(ev(6, EventKind::TxEnd, 77));
    b->push(ev(7, EventKind::PmStore, 128)); // outside any tx
    b->push(ev(8, EventKind::Fence));

    EpochBuilder builder(set);
    ASSERT_EQ(builder.epochCount(), 3u);
    ASSERT_EQ(builder.transactions().size(), 1u);
    EXPECT_EQ(builder.transactions()[0].epochs, 2u);
    EXPECT_EQ(builder.epochs()[2].tx, 0u);
}

TEST(EpochStats, SummaryNumbers)
{
    TraceSet set;
    auto *b = set.createBuffer(0);
    // Singleton of 4 bytes (small), then a 2-line epoch.
    b->push(ev(100, EventKind::PmStore, 0, 4));
    b->push(ev(200, EventKind::Fence));
    b->push(ev(300, EventKind::PmStore, 0, 64));
    b->push(ev(400, EventKind::PmStore, 64, 64));
    b->push(ev(500, EventKind::Fence, 0, 0, DataClass::None,
               static_cast<std::uint8_t>(FenceKind::Durability)));

    EpochBuilder builder(set);
    const EpochSummary sum = summarizeEpochs(builder, set);
    EXPECT_EQ(sum.totalEpochs, 2u);
    EXPECT_DOUBLE_EQ(sum.singletonFraction, 0.5);
    EXPECT_DOUBLE_EQ(sum.singletonUnder10B, 1.0);
    EXPECT_DOUBLE_EQ(sum.durabilityFenceFraction, 0.5);
    EXPECT_GT(sum.epochsPerSecond, 0.0);
}

TEST(Dependency, SelfDependencyWithinWindow)
{
    TraceSet set;
    auto *b = set.createBuffer(0);
    b->push(ev(1000, EventKind::PmStore, 0));
    b->push(ev(1100, EventKind::Fence));
    b->push(ev(1200, EventKind::PmStore, 0)); // same line, same thread
    b->push(ev(1300, EventKind::Fence));
    EpochBuilder builder(set);
    const auto deps = analyzeDependencies(builder);
    EXPECT_EQ(deps.totalEpochs, 2u);
    EXPECT_EQ(deps.selfDependent, 1u);
    EXPECT_EQ(deps.crossDependent, 0u);
}

TEST(Dependency, CrossDependencyAcrossThreads)
{
    TraceSet set;
    auto *b0 = set.createBuffer(0);
    auto *b1 = set.createBuffer(1);
    b0->push(ev(1000, EventKind::PmStore, 64));
    b0->push(ev(1100, EventKind::Fence));
    b1->push(ev(1200, EventKind::PmStore, 64));
    b1->push(ev(1300, EventKind::Fence));
    EpochBuilder builder(set);
    const auto deps = analyzeDependencies(builder);
    EXPECT_EQ(deps.crossDependent, 1u);
    EXPECT_EQ(deps.selfDependent, 0u);
}

TEST(Dependency, OutsideWindowIgnored)
{
    TraceSet set;
    auto *b = set.createBuffer(0);
    b->push(ev(1000, EventKind::PmStore, 0));
    b->push(ev(1100, EventKind::Fence));
    // 60 us later: outside the 50 us window.
    b->push(ev(1100 + 60 * kTicksPerUs, EventKind::PmStore, 0));
    b->push(ev(1200 + 60 * kTicksPerUs, EventKind::Fence));
    EpochBuilder builder(set);
    const auto deps = analyzeDependencies(builder);
    EXPECT_EQ(deps.selfDependent, 0u);
}

TEST(Dependency, DisjointLinesNoDependency)
{
    TraceSet set;
    auto *b = set.createBuffer(0);
    b->push(ev(1000, EventKind::PmStore, 0));
    b->push(ev(1100, EventKind::Fence));
    b->push(ev(1200, EventKind::PmStore, 640));
    b->push(ev(1300, EventKind::Fence));
    EpochBuilder builder(set);
    const auto deps = analyzeDependencies(builder);
    EXPECT_EQ(deps.selfDependent, 0u);
    EXPECT_EQ(deps.crossDependent, 0u);
}

TEST(Dependency, EqualEndTicksOrderByTidNotRecordingOrder)
{
    // Buffer 1 is recorded before buffer 0, and every epoch stores
    // line 1. In (end tick, tid) order thread 0's epoch at 1100 comes
    // before thread 1's: it sees thread 1's 1050 epoch (cross), and
    // thread 1's 1100 epoch sees both (self and cross). Recording
    // order would put thread 1's first and count one cross epoch.
    TraceSet set;
    auto *b1 = set.createBuffer(1);
    auto *b0 = set.createBuffer(0);
    b1->push(ev(1000, EventKind::PmStore, 64));
    b1->push(ev(1050, EventKind::Fence));
    b1->push(ev(1060, EventKind::PmStore, 64));
    b1->push(ev(1100, EventKind::Fence));
    b0->push(ev(1000, EventKind::PmStore, 64));
    b0->push(ev(1100, EventKind::Fence));

    EpochBuilder builder(set);
    const auto deps = analyzeDependencies(builder);
    EXPECT_EQ(deps.totalEpochs, 3u);
    EXPECT_EQ(deps.selfDependent, 1u);
    EXPECT_EQ(deps.crossDependent, 2u);
    for (const unsigned jobs : {1u, 4u}) {
        AnalysisOptions options;
        options.jobs = jobs;
        const AnalysisResult result = analyzeTraces(set, options);
        EXPECT_EQ(result.dependencies.selfDependent, 1u) << jobs;
        EXPECT_EQ(result.dependencies.crossDependent, 2u) << jobs;
    }
}

TEST(AccessMix, Fractions)
{
    TraceSet set;
    auto *b = set.createBuffer(0);
    b->push(ev(1, EventKind::PmStore));
    b->push(ev(2, EventKind::DramLoad));
    b->push(ev(3, EventKind::DramStore));
    b->push(ev(4, EventKind::DramLoad));
    const AccessMix mix = computeAccessMix(set);
    EXPECT_EQ(mix.pmAccesses, 1u);
    EXPECT_EQ(mix.dramAccesses, 3u);
    EXPECT_DOUBLE_EQ(mix.pmFraction(), 0.25);
}

TEST(NtiUsage, Fraction)
{
    TraceSet set;
    auto *b = set.createBuffer(0);
    b->push(ev(1, EventKind::PmStore));
    b->push(ev(2, EventKind::PmNtStore));
    b->push(ev(3, EventKind::PmNtStore));
    const NtiUsage nti = computeNtiUsage(set);
    EXPECT_DOUBLE_EQ(nti.ntiFraction(), 2.0 / 3.0);
}

TEST(Amplification, RatioByClass)
{
    TraceSet set;
    auto *b = set.createBuffer(0);
    b->push(ev(1, EventKind::PmStore, 0, 100, DataClass::User));
    b->push(ev(2, EventKind::PmStore, 0, 30, DataClass::Log));
    b->push(ev(3, EventKind::PmStore, 0, 50, DataClass::AllocMeta));
    b->push(ev(4, EventKind::PmStore, 0, 20, DataClass::TxMeta));
    const Amplification amp = computeAmplification(set);
    EXPECT_EQ(amp.userBytes, 100u);
    EXPECT_EQ(amp.metaBytes(), 100u);
    EXPECT_DOUBLE_EQ(amp.ratio(), 1.0);
}

// ---------------------------------------------------------------
// Mergeable accumulators and the parallel pipeline. The contract
// under test everywhere below: sharded accumulation + deterministic
// merge is BIT-identical to the sequential scan, at any shard count.
// ---------------------------------------------------------------

void
expectSummariesIdentical(const EpochSummary &a, const EpochSummary &b)
{
    EXPECT_EQ(a.totalEpochs, b.totalEpochs);
    EXPECT_EQ(a.totalTransactions, b.totalTransactions);
    // Bit-identical doubles, not just approximately equal: the
    // ratios must be derived from identical integer totals.
    EXPECT_EQ(a.epochsPerSecond, b.epochsPerSecond);
    EXPECT_EQ(a.singletonFraction, b.singletonFraction);
    EXPECT_EQ(a.singletonUnder10B, b.singletonUnder10B);
    EXPECT_EQ(a.durabilityFenceFraction, b.durabilityFenceFraction);
    EXPECT_EQ(a.epochSizes.values(), b.epochSizes.values());
    EXPECT_EQ(a.epochsPerTx.values(), b.epochsPerTx.values());
    EXPECT_EQ(a.singletonBytes.values(), b.singletonBytes.values());
}

void
expectResultsIdentical(const AnalysisResult &a, const AnalysisResult &b)
{
    EXPECT_EQ(a.threadCount, b.threadCount);
    EXPECT_EQ(a.totalEvents, b.totalEvents);
    EXPECT_EQ(a.firstTick, b.firstTick);
    EXPECT_EQ(a.lastTick, b.lastTick);
    expectSummariesIdentical(a.epochs, b.epochs);
    EXPECT_EQ(a.dependencies.totalEpochs, b.dependencies.totalEpochs);
    EXPECT_EQ(a.dependencies.selfDependent,
              b.dependencies.selfDependent);
    EXPECT_EQ(a.dependencies.crossDependent,
              b.dependencies.crossDependent);
    EXPECT_EQ(a.mix.pmAccesses, b.mix.pmAccesses);
    EXPECT_EQ(a.mix.dramAccesses, b.mix.dramAccesses);
    EXPECT_EQ(a.nti.cacheableStores, b.nti.cacheableStores);
    EXPECT_EQ(a.nti.ntStores, b.nti.ntStores);
    EXPECT_EQ(a.nti.cacheableBytes, b.nti.cacheableBytes);
    EXPECT_EQ(a.nti.ntBytes, b.nti.ntBytes);
    EXPECT_EQ(a.amplification.userBytes, b.amplification.userBytes);
    EXPECT_EQ(a.amplification.logBytes, b.amplification.logBytes);
    EXPECT_EQ(a.amplification.allocBytes,
              b.amplification.allocBytes);
    EXPECT_EQ(a.amplification.txMetaBytes,
              b.amplification.txMetaBytes);
    EXPECT_EQ(a.amplification.fsMetaBytes,
              b.amplification.fsMetaBytes);
}

core::RunResult
recordedApp(const std::string &name, std::uint64_t ops = 120)
{
    core::AppConfig config;
    config.threads = 4;
    config.opsPerThread = ops;
    config.poolBytes = 192 << 20;
    core::RunResult result = core::runApp(name, config);
    EXPECT_TRUE(result.verified);
    return result;
}

/**
 * A 2-client hashmap YCSB-A workload run. Each client stamps events
 * from its own clock, so epochs of different threads end at equal
 * ticks, which paper runs on one shared clock never produce.
 */
workload::WorkloadResult
recordedWorkload()
{
    workload::WorkloadOptions opts;
    opts.app = "hashmap";
    opts.mix = workload::MixSpec::ycsb('A');
    opts.keys = 1000;
    opts.threads = 2;
    opts.opsPerThread = 150;
    workload::WorkloadResult result = workload::runWorkload(opts);
    EXPECT_TRUE(result.verified);

    // Guard the point of the input: some end tick repeats across
    // threads.
    EpochBuilder builder(result.runtime->traces());
    bool tie = false;
    for (std::size_t i = 1; i < builder.epochs().size(); i++) {
        tie |= builder.epochs()[i].endTs ==
                   builder.epochs()[i - 1].endTs &&
               builder.epochs()[i].tid != builder.epochs()[i - 1].tid;
    }
    EXPECT_TRUE(tie);
    return result;
}

TEST(ThreadEpochAccumulator, ChunkedFeedMatchesOneShot)
{
    // Chunk boundaries must not affect reconstruction: feed the same
    // stream in 3-event chunks and in one shot.
    std::vector<TraceEvent> events;
    for (Tick t = 0; t < 40; t++) {
        if (t % 5 == 4)
            events.push_back(ev(100 + t, EventKind::Fence));
        else
            events.push_back(
                ev(100 + t, EventKind::PmStore, (t % 7) * 64));
    }

    std::vector<Epoch> one_epochs, chunked_epochs;
    ThreadEpochAccumulator one(
        3, [&](const Epoch &ep) { one_epochs.push_back(ep); });
    one.addChunk(events.data(), events.size());

    ThreadEpochAccumulator chunked(
        3, [&](const Epoch &ep) { chunked_epochs.push_back(ep); });
    for (std::size_t i = 0; i < events.size(); i += 3) {
        chunked.addChunk(events.data() + i,
                         std::min<std::size_t>(3, events.size() - i));
    }

    ASSERT_EQ(one_epochs.size(), chunked_epochs.size());
    for (std::size_t i = 0; i < one_epochs.size(); i++) {
        EXPECT_EQ(one_epochs[i].lines, chunked_epochs[i].lines);
        EXPECT_EQ(one_epochs[i].startTs, chunked_epochs[i].startTs);
        EXPECT_EQ(one_epochs[i].endTs, chunked_epochs[i].endTs);
        EXPECT_EQ(one_epochs[i].storeBytes,
                  chunked_epochs[i].storeBytes);
    }
}

TEST(EpochStatsAccumulator, ShardedMergeMatchesSequential)
{
    core::RunResult run = recordedApp("hashmap");
    const trace::TraceSet &traces = run.runtime->traces();
    EpochBuilder builder(traces);
    const EpochSummary sequential = summarizeEpochs(builder, traces);

    for (const std::size_t shards : {2u, 4u, 8u}) {
        const auto ranges =
            shardRanges(builder.epochs().size(), shards);
        EpochStatsAccumulator merged;
        for (const auto &range : ranges) {
            EpochStatsAccumulator part;
            for (std::size_t i = range.begin; i < range.end; i++)
                part.addEpoch(builder.epochs()[i]);
            merged.merge(part);
        }
        for (const TxInfo &tx : builder.transactions())
            merged.addTransaction(tx);
        expectSummariesIdentical(
            merged.finalize(traces.firstTick(), traces.lastTick()),
            sequential);
    }
}

TEST(DependencyShard, LineShardedJoinMatchesSequential)
{
    // Two threads hammering overlapping lines produce both self and
    // cross dependencies; the line-sharded scan must reproduce the
    // sequential flags exactly at any shard count.
    core::RunResult run = recordedApp("ctree");
    EpochBuilder builder(run.runtime->traces());
    const DependencySummary sequential =
        analyzeDependencies(builder);
    ASSERT_GT(sequential.totalEpochs, 0u);

    for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
        DependencyShard merged;
        for (std::size_t s = 0; s < shards; s++) {
            DependencyShard part;
            part.scan(builder.order(), kDependencyWindow, s, shards);
            merged.merge(part);
        }
        const DependencySummary joined = merged.summarize();
        EXPECT_EQ(joined.totalEpochs, sequential.totalEpochs);
        EXPECT_EQ(joined.selfDependent, sequential.selfDependent);
        EXPECT_EQ(joined.crossDependent, sequential.crossDependent);
    }
}

TEST(Pipeline, ParallelBitIdenticalToSequentialOnAppTraces)
{
    // The headline guarantee: for real recorded app traces spanning
    // the native and all three paper access layers, analyze with
    // 2/4/8 jobs == 1 job.
    std::vector<std::shared_ptr<core::Runtime>> runs;
    for (const char *app :
         {"hashmap", "vacation", "nfs", "ycsb", "tpcc"})
        runs.push_back(recordedApp(app, 80).runtime);
    runs.push_back(recordedWorkload().runtime);
    for (const auto &run : runs) {
        const trace::TraceSet &traces = run->traces();

        const AnalysisResult sequential = analyzeTraces(traces);
        EXPECT_GT(sequential.epochs.totalEpochs, 0u);
        for (const unsigned jobs : {2u, 4u, 8u}) {
            AnalysisOptions options;
            options.jobs = jobs;
            expectResultsIdentical(analyzeTraces(traces, options),
                                   sequential);
        }
    }
}

TEST(Pipeline, MatchesLegacySequentialAnalyses)
{
    for (const auto &run :
         {recordedApp("redis").runtime, recordedWorkload().runtime}) {
        const trace::TraceSet &traces = run->traces();

        EpochBuilder builder(traces);
        const EpochSummary summary = summarizeEpochs(builder, traces);
        const DependencySummary deps = analyzeDependencies(builder);
        const AccessMix mix = computeAccessMix(traces);

        AnalysisOptions options;
        options.jobs = 4;
        const AnalysisResult result = analyzeTraces(traces, options);
        expectSummariesIdentical(result.epochs, summary);
        EXPECT_EQ(result.dependencies.selfDependent,
                  deps.selfDependent);
        EXPECT_EQ(result.dependencies.crossDependent,
                  deps.crossDependent);
        EXPECT_EQ(result.mix.pmAccesses, mix.pmAccesses);
        EXPECT_EQ(result.mix.dramAccesses, mix.dramAccesses);
    }
}

TEST(Pipeline, FileStreamingMatchesInMemory)
{
    core::RunResult run = recordedApp("echo", 60);
    const trace::TraceSet &traces = run.runtime->traces();
    const std::string path = "/tmp/whisper_pipeline_stream.bin";
    ASSERT_TRUE(trace::writeTraceFile(path, traces));

    // Reference: load the file whole, analyze in memory.
    trace::TraceSet loaded;
    ASSERT_TRUE(trace::readTraceFile(path, loaded));
    const AnalysisResult inMemory = analyzeTraces(loaded);

    for (const unsigned jobs : {1u, 4u}) {
        AnalysisOptions options;
        options.jobs = jobs;
        AnalysisResult streamed;
        ASSERT_TRUE(analyzeTraceFile(path, streamed, options));
        expectResultsIdentical(streamed, inMemory);
    }
    std::remove(path.c_str());

    AnalysisResult missing;
    EXPECT_FALSE(analyzeTraceFile("/tmp/definitely_missing_whisper",
                                  missing));
}

TEST(Pipeline, HarnessAnalyzeRunMatchesDirectCall)
{
    core::RunResult run = recordedApp("hashmap", 60);
    const AnalysisResult direct =
        analyzeTraces(run.runtime->traces());
    expectResultsIdentical(core::analyzeRun(run, 4), direct);
}

} // namespace
} // namespace whisper::analysis
