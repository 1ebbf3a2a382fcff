/**
 * @file
 * Unit tests for the YCSB-style workload subsystem: the mergeable
 * latency histogram, the key-distribution generators and the unified
 * driver's determinism contract (same seed => same digest, histogram
 * merge independent of order).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.hh"
#include "common/rng.hh"
#include "core/harness.hh"
#include "core/runtime.hh"
#include "workload/keydist.hh"
#include "workload/latency_histogram.hh"
#include "workload/workload.hh"

namespace whisper::workload
{
namespace
{

// ---- LatencyHistogram --------------------------------------------------

TEST(LatencyHistogram, BucketRoundTrip)
{
    // Every bucket's lower bound maps back to that bucket, and values
    // one below the next bound stay in it: the mapping is a partition.
    for (unsigned idx = 0; idx + 1 < LatencyHistogram::kBuckets;
         idx++) {
        const Tick lo = LatencyHistogram::bucketLowerBound(idx);
        const Tick next = LatencyHistogram::bucketLowerBound(idx + 1);
        ASSERT_LT(lo, next);
        EXPECT_EQ(LatencyHistogram::bucketIndex(lo), idx);
        EXPECT_EQ(LatencyHistogram::bucketIndex(next - 1), idx);
    }
}

TEST(LatencyHistogram, QuantileBounds)
{
    LatencyHistogram h;
    EXPECT_EQ(h.quantile(0.5), 0u);
    for (Tick v = 1; v <= 1000; v++)
        h.record(v);
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_EQ(h.minValue(), 1u);
    EXPECT_EQ(h.maxValue(), 1000u);
    EXPECT_NEAR(h.mean(), 500.5, 1e-9);
    // Quantiles report bucket lower bounds: within one sub-bucket
    // (1/16) of the exact rank value, never above it.
    const Tick p50 = h.quantile(0.50);
    EXPECT_LE(p50, 500u);
    EXPECT_GE(p50, 500u - 500u / 16);
    const Tick p99 = h.quantile(0.99);
    EXPECT_LE(p99, 990u);
    EXPECT_GE(p99, 990u - 990u / 16);
    EXPECT_LE(h.quantile(0.0), h.quantile(1.0));
    EXPECT_EQ(LatencyHistogram::bucketIndex(h.quantile(1.0)),
              LatencyHistogram::bucketIndex(1000u));
}

TEST(LatencyHistogram, QuantileRankIsIntegerExact)
{
    // The rank is ceil(q * count) computed in integer arithmetic: a
    // q infinitesimally above k/count must select sample k+1, with no
    // double-rounding drift. With two samples, anything in (0, 0.5]
    // is the first and anything in (0.5, 1] the second.
    LatencyHistogram h;
    h.record(1);
    h.record(1000);
    EXPECT_EQ(LatencyHistogram::bucketIndex(h.quantile(0.5)),
              LatencyHistogram::bucketIndex(1u));
    EXPECT_EQ(LatencyHistogram::bucketIndex(
                  h.quantile(std::nextafter(0.5, 1.0))),
              LatencyHistogram::bucketIndex(1000u));
    // Degenerate q values stay in range.
    EXPECT_EQ(LatencyHistogram::bucketIndex(h.quantile(1e-300)),
              LatencyHistogram::bucketIndex(1u));
    EXPECT_EQ(LatencyHistogram::bucketIndex(h.quantile(1.0)),
              LatencyHistogram::bucketIndex(1000u));
}

TEST(LatencyHistogram, MergeAssociativeAndCommutative)
{
    Rng rng(7);
    std::vector<LatencyHistogram> parts(3);
    for (unsigned p = 0; p < 3; p++)
        for (int i = 0; i < 500; i++)
            parts[p].record(rng.next(1ull << (10 + 4 * p)));

    // (a + b) + c
    LatencyHistogram left;
    left.merge(parts[0]);
    left.merge(parts[1]);
    left.merge(parts[2]);
    // c + (b + a)
    LatencyHistogram inner;
    inner.merge(parts[1]);
    inner.merge(parts[0]);
    LatencyHistogram right;
    right.merge(parts[2]);
    right.merge(inner);

    EXPECT_EQ(left.digest(), right.digest());
    EXPECT_EQ(left.count(), 1500u);
    for (double q : {0.5, 0.9, 0.99, 0.999})
        EXPECT_EQ(left.quantile(q), right.quantile(q));
}

TEST(LatencyHistogram, DigestDiscriminates)
{
    LatencyHistogram a, b;
    for (Tick v = 0; v < 100; v++) {
        a.record(v);
        b.record(v);
    }
    EXPECT_EQ(a.digest(), b.digest());
    b.record(100);
    EXPECT_NE(a.digest(), b.digest());
}

// ---- MixSpec -----------------------------------------------------------

TEST(MixSpec, NamedMixes)
{
    MixSpec a = MixSpec::ycsb('A');
    EXPECT_DOUBLE_EQ(a.read, 0.5);
    EXPECT_DOUBLE_EQ(a.update, 0.5);
    MixSpec d = MixSpec::ycsb('D');
    EXPECT_DOUBLE_EQ(d.insert, 0.05);
    MixSpec e = MixSpec::ycsb('E');
    EXPECT_DOUBLE_EQ(e.scan, 0.95);
    MixSpec f = MixSpec::ycsb('F');
    EXPECT_DOUBLE_EQ(f.rmw, 0.5);
}

TEST(MixSpec, ParseNamedAndCustom)
{
    MixSpec m;
    EXPECT_TRUE(MixSpec::parse("b", m));
    EXPECT_DOUBLE_EQ(m.read, 0.95);
    EXPECT_TRUE(MixSpec::parse("8:1:1:0:0", m));
    EXPECT_DOUBLE_EQ(m.read, 0.8);
    EXPECT_DOUBLE_EQ(m.update, 0.1);
    EXPECT_DOUBLE_EQ(m.insert, 0.1);
    EXPECT_FALSE(MixSpec::parse("G", m));
    EXPECT_FALSE(MixSpec::parse("1:2", m));
    EXPECT_FALSE(MixSpec::parse("0:0:0:0:0", m));
    EXPECT_FALSE(MixSpec::parse("", m));
}

// ---- KeyChooser --------------------------------------------------------

core::WorkloadKeymap
keymap(std::uint64_t keys, unsigned threads, std::uint64_t inserts)
{
    core::WorkloadKeymap map;
    map.keys = keys;
    map.threads = threads;
    map.insertsPerThread = inserts;
    return map;
}

TEST(KeyChooser, SeedDeterminism)
{
    const core::WorkloadKeymap map = keymap(10000, 2, 0);
    for (KeyDist dist :
         {KeyDist::Uniform, KeyDist::Zipfian, KeyDist::Latest}) {
        KeyChooser a(dist, map, 1);
        KeyChooser b(dist, map, 1);
        Rng ra(99), rb(99), rc(100);
        KeyChooser c(dist, map, 1);
        bool diverged = false;
        for (int i = 0; i < 2000; i++) {
            const std::uint64_t ka = a.next(ra);
            EXPECT_EQ(ka, b.next(rb));
            diverged |= ka != c.next(rc);
        }
        EXPECT_TRUE(diverged) << keyDistName(dist);
    }
}

TEST(KeyChooser, KeysStayInPartition)
{
    const core::WorkloadKeymap map = keymap(9999, 3, 16);
    for (KeyDist dist :
         {KeyDist::Uniform, KeyDist::Zipfian, KeyDist::Latest}) {
        KeyChooser chooser(dist, map, 2);
        Rng rng(5);
        for (int i = 0; i < 4000; i++) {
            const std::uint64_t key = chooser.next(rng);
            const bool loaded =
                key >= map.lo(2) && key < map.lo(2) + map.perThread();
            const bool inserted =
                key >= map.insertKey(2, 0) &&
                key < map.insertKey(2, chooser.insertedCount());
            EXPECT_TRUE(loaded || inserted) << key;
            if (i % 250 == 0 &&
                chooser.insertedCount() < map.insertsPerThread)
                chooser.noteInsert();
        }
    }
}

TEST(KeyChooser, ZipfianSkewShape)
{
    const core::WorkloadKeymap map = keymap(10000, 1, 0);
    KeyChooser chooser(KeyDist::Zipfian, map, 0);
    Rng rng(11);
    std::map<std::uint64_t, std::uint64_t> freq;
    const int draws = 200000;
    for (int i = 0; i < draws; i++)
        freq[chooser.next(rng)]++;

    std::vector<std::uint64_t> counts;
    for (const auto &[key, n] : freq)
        counts.push_back(n);
    std::sort(counts.begin(), counts.end(), std::greater<>());

    // theta=0.99 zipfian over 10k keys: the hottest key draws a few
    // percent of all requests (~50x the uniform share of 0.01%), and
    // the top-10 keys together take >10%. Uniform would give every
    // key ~20 draws.
    EXPECT_GT(counts[0], draws / 200);
    std::uint64_t top10 = 0;
    for (int i = 0; i < 10; i++)
        top10 += counts[i];
    EXPECT_GT(top10, static_cast<std::uint64_t>(draws) / 10);
    // And the mass is scattered: far more distinct keys than a
    // degenerate distribution would touch.
    EXPECT_GT(freq.size(), 1000u);
}

TEST(KeyChooser, LatestFavorsRecentInserts)
{
    const core::WorkloadKeymap map = keymap(10000, 1, 64);
    KeyChooser chooser(KeyDist::Latest, map, 0);
    Rng rng(13);
    for (int i = 0; i < 50; i++)
        chooser.noteInsert();

    const std::uint64_t newest = map.insertKey(0, 49);
    std::uint64_t newest_hits = 0, loaded_hits = 0;
    const int draws = 50000;
    for (int i = 0; i < draws; i++) {
        const std::uint64_t key = chooser.next(rng);
        if (key == newest)
            newest_hits++;
        if (key < map.keys)
            loaded_hits++;
    }
    // Recency rank 0 is the newest insert: it alone draws a few
    // percent, far above the ~0.01% uniform share, and old loaded
    // keys still appear (the tail reaches them).
    EXPECT_GT(newest_hits, static_cast<std::uint64_t>(draws) / 200);
    EXPECT_GT(loaded_hits, 0u);
}

// ---- Driver ------------------------------------------------------------

WorkloadOptions
smokeOptions(const std::string &app, char mix)
{
    WorkloadOptions opts;
    opts.app = app;
    opts.mix = MixSpec::ycsb(mix);
    opts.mix.scanLen = 4;
    opts.keys = 600;
    opts.threads = 2;
    opts.opsPerThread = 60;
    opts.poolBytes = 256 << 20;
    return opts;
}

TEST(WorkloadDriver, DigestDeterministicAcrossRuns)
{
    const WorkloadOptions opts = smokeOptions("hashmap", 'A');
    const WorkloadResult a = runWorkload(opts);
    const WorkloadResult b = runWorkload(opts);
    ASSERT_TRUE(a.verified);
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_EQ(a.json(), b.json());
    EXPECT_EQ(a.ops.total(), opts.threads * opts.opsPerThread);
    EXPECT_EQ(a.latency.count(), a.ops.total());
    EXPECT_GT(a.elapsedTicks, 0u);
    EXPECT_GE(a.totalTicks, a.elapsedTicks);

    // Pinned digests of larger runs (the `whisper_cli workload` lines
    // in docs/WORKLOADS.md): every op and every Rng draw must replay.
    WorkloadOptions big;
    big.app = "hashmap";
    big.keys = 10000;
    big.threads = 4;
    big.opsPerThread = 2000;
    big.seed = 1;
    big.mix = MixSpec::ycsb('A');
    EXPECT_EQ(runWorkload(big).digest(), 0x889c1d96ee3d2488ull);
    big.mix = MixSpec::ycsb('C');
    EXPECT_EQ(runWorkload(big).digest(), 0xa44d9a78b867caf3ull);
    big.app = "mod-hashmap";
    big.keys = 3000;
    big.threads = 3;
    big.opsPerThread = 300;
    big.mix = MixSpec::ycsb('A');
    big.lincheck = true;
    const WorkloadResult lc = runWorkload(big);
    EXPECT_TRUE(lc.lincheckRan);
    EXPECT_EQ(lc.lincheckViolations, 0u);
    EXPECT_EQ(lc.digest(), 0x844cb8b7aa6e2051ull);
}

TEST(WorkloadDriver, SingleThreadDigestPinnedForEveryApp)
{
    // `whisper_cli workload --app <app> --mix A --keys 2000
    // --threads 1 --ops 300 --pool-mb 64`: every app's preload, op
    // path and padding must replay bit-identically.
    const std::map<std::string, std::uint64_t> golden = {
        {"echo", 0xa1a7e605ef29f3f1ull},
        {"ycsb", 0x703623558535d0beull},
        {"tpcc", 0x703623558535d0beull},
        {"redis", 0x83b74aa48dcacbeaull},
        {"ctree", 0xd9257e73e9106961ull},
        {"hashmap", 0x3f09102db246362eull},
        {"vacation", 0x3a616596f2468383ull},
        {"memcached", 0x5a8e5f8f3988a050ull},
        {"nfs", 0x712bc26cf9b5ceb4ull},
        {"exim", 0xbbe8aed1a1fc9e44ull},
        {"mysql", 0x9a0e8de2082b5a04ull},
        {"mod-hashmap", 0x786138fe54b9de7cull},
        {"mod-vector", 0x99e2a3491604d107ull},
        {"halo-hashmap", 0xcfad7726b447a822ull}};
    for (const auto &[app, digest] : golden) {
        WorkloadOptions opts;
        opts.app = app;
        opts.mix = MixSpec::ycsb('A');
        opts.keys = 2000;
        opts.threads = 1;
        opts.opsPerThread = 300;
        opts.poolBytes = 64 << 20;
        const WorkloadResult r = runWorkload(opts);
        EXPECT_TRUE(r.verified) << app << ":\n" << r.check.describe();
        EXPECT_EQ(r.digest(), digest)
            << app << " 0x" << std::hex << r.digest();
    }
}

TEST(WorkloadDriver, AppWithoutWorkloadSurfaceIsFatal)
{
    // The `faulty` fixture has no workload surface; the driver stops
    // at the default setupPartitions(), which names the app.
    WorkloadOptions opts = smokeOptions("faulty", 'A');
    opts.poolBytes = 1 << 20;
    EXPECT_DEATH(runWorkload(opts),
                 "app 'faulty' does not implement the workload surface");
}

TEST(WorkloadDriver, SeedChangesDigest)
{
    WorkloadOptions opts = smokeOptions("hashmap", 'A');
    const WorkloadResult a = runWorkload(opts);
    opts.seed = 43;
    const WorkloadResult b = runWorkload(opts);
    EXPECT_NE(a.digest(), b.digest());
}

TEST(WorkloadDriver, PerLayerMixSmoke)
{
    // One app per access layer through every named mix; everything
    // must verify and count exactly threads * opsPerThread operations.
    for (const char *app :
         {"ycsb", "hashmap", "memcached", "nfs", "mod-hashmap"}) {
        for (char mix : {'A', 'B', 'C', 'D', 'E', 'F'}) {
            const WorkloadResult r =
                runWorkload(smokeOptions(app, mix));
            EXPECT_TRUE(r.verified)
                << app << " mix " << mix << ":\n"
                << r.check.describe();
            EXPECT_EQ(r.ops.total(), 120u) << app << " mix " << mix;
        }
    }
}

TEST(WorkloadDriver, MixRatiosRespected)
{
    WorkloadOptions opts = smokeOptions("hashmap", 'B');
    opts.opsPerThread = 400;
    const WorkloadResult r = runWorkload(opts);
    ASSERT_TRUE(r.verified);
    // Mix B is 95/5: reads dominate, updates present, nothing else.
    EXPECT_GT(r.ops.reads, 700u);
    EXPECT_GT(r.ops.updates, 0u);
    EXPECT_EQ(r.ops.inserts, 0u);
    EXPECT_EQ(r.ops.rmws, 0u);
    EXPECT_EQ(r.ops.scans, 0u);
    // Every read targets a loaded key in this thread's partition.
    EXPECT_EQ(r.ops.readsFound, r.ops.reads);
}

TEST(WorkloadDriver, InsertsLandAndAreReadable)
{
    WorkloadOptions opts = smokeOptions("ctree", 'D');
    opts.opsPerThread = 200;
    opts.dist = KeyDist::Latest;
    const WorkloadResult r = runWorkload(opts);
    ASSERT_TRUE(r.verified);
    EXPECT_GT(r.ops.inserts, 0u);
    EXPECT_EQ(r.ops.readsFound, r.ops.reads);
}

TEST(WorkloadDriver, CheckNamesCorruptShard)
{
    // Each of these apps gives every client its own instance; the
    // post-run check must name a corrupt shard under the invariant
    // verifyRecovered() reports. A shard's root magic (for MOD, its
    // table's) sits at its slice's base. mysql's base holds a PMFS
    // superblock, which mount cannot survive, so mysql loses a row
    // checksum instead. nfs and exim are left out: their records
    // carry no check of their own.
    const std::map<std::string, std::string> invariant = {
        {"echo", "store-intact"},     {"ycsb", "tables-intact"},
        {"tpcc", "tables-intact"},    {"redis", "dict-intact"},
        {"ctree", "tree-intact"},     {"hashmap", "map-intact"},
        {"vacation", "tables-intact"}, {"memcached", "cache-intact"},
        {"mysql", "db-intact"},
        {"mod-hashmap", "structure-intact"},
        {"mod-vector", "structure-intact"}};
    for (const auto &[app, name] : invariant) {
        core::AppConfig cfg;
        cfg.threads = 2;
        cfg.poolBytes = 64 << 20;
        core::Session s(app, cfg);
        core::WorkloadKeymap map;
        map.keys = 600;
        map.threads = 2;
        s.app().workloadSetup(s.rt(), map);
        const core::VerifyReport clean = s.app().workloadCheck(s.rt());
        ASSERT_TRUE(clean.ok()) << app << ":\n" << clean.describe();

        const core::PoolSlices slices(cfg.poolBytes, 2, 0, app.c_str());
        pm::PmPool &pool = s.rt().pool();
        Addr at = slices.base(1);
        std::uint64_t bad = 0;
        if (app == "mysql") {
            // Shard 1's first row: id lo(1), version lo(1) * golden
            // ratio, then its 32-bit checksum.
            const std::uint64_t id = map.lo(1);
            while (*pool.at<std::uint64_t>(at) != id ||
                   *pool.at<std::uint64_t>(at + 8) !=
                       id * 0x9e3779b97f4a7c15ull) {
                at += 128;
                ASSERT_LT(at, slices.base(1) + slices.bytes) << app;
            }
            at += 16;
            bad = ~*pool.at<std::uint32_t>(at);
        }
        s.rt().ctx(0).store(at, &bad, app == "mysql" ? 4 : 8,
                            pm::DataClass::User);

        const core::VerifyReport rep = s.app().workloadCheck(s.rt());
        bool named = false;
        for (const core::VerifyViolation &v : rep.violations()) {
            named |= v.invariant == name &&
                     v.detail.rfind("shard 1: ", 0) == 0;
            EXPECT_NE(v.detail.rfind("shard 0:", 0), 0u) << app;
        }
        EXPECT_TRUE(named) << app << ":\n" << rep.describe();
    }
}

// ---- Per-client clocks -------------------------------------------------

/** FNV-1a over a run's merged trace, timestamps included. */
std::uint64_t
traceDigest(const WorkloadResult &r)
{
    std::uint64_t h = kFnvOffset;
    for (const trace::MergedEvent &m : r.runtime->traces().merged()) {
        const trace::TraceEvent &ev = m.ev;
        h = fnv1aWord(h, m.tid);
        h = fnv1aWord(h, ev.ts);
        h = fnv1aWord(h, ev.addr);
        h = fnv1aWord(h, std::uint64_t(ev.size) << 32 |
                             std::uint64_t(ev.kind) << 24 |
                             std::uint64_t(ev.cls) << 16 |
                             std::uint64_t(ev.aux) << 8 | ev.origin);
    }
    return h;
}

/**
 * Yields at every fence of the thread it is attached to, and sleeps
 * at every eighth: a schedule far from what the host picks unaided.
 */
struct YieldingObserver : pm::FenceObserver
{
    unsigned fences = 0;

    void
    onFence(ThreadId tid, pm::FenceKind kind, bool admitted) override
    {
        (void)tid;
        (void)kind;
        (void)admitted;
        if (++fences % 8 == 0)
            std::this_thread::sleep_for(std::chrono::microseconds(20));
        else
            std::this_thread::yield();
    }
};

TEST(WorkloadDriver, PartitionedTraceIndependentOfSchedule)
{
    // Each client stamps its events from its own clock, so neither
    // the run's digest nor its merged trace (timestamps included)
    // may depend on how the host interleaves the two clients. nfs
    // also reads its clock for relatime, through ctx.now(). A MOD
    // client's grace batches ripen on its own heap, never waiting
    // on the other client.
    for (const char *app : {"hashmap", "nfs", "mysql", "exim",
                            "mod-hashmap", "mod-vector",
                            "halo-hashmap"}) {
        WorkloadOptions opts = smokeOptions(app, 'A');
        opts.opsPerThread = 200;
        const WorkloadResult plain = runWorkload(opts);
        YieldingObserver yields;
        const WorkloadResult perturbed =
            runWorkload(opts, [&yields](core::Runtime &rt) {
                rt.ctx(1).setFenceObserver(&yields);
            });
        EXPECT_GT(yields.fences, 0u) << app;
        EXPECT_TRUE(plain.verified) << app;
        EXPECT_EQ(plain.digest(), perturbed.digest()) << app;
        EXPECT_EQ(traceDigest(plain), traceDigest(perturbed)) << app;
    }
}

TEST(WorkloadDriver, SingleThreadTraceMatchesSharedClock)
{
    // One client's own clock continues from the shared clock's time,
    // so its trace equals, event for event, the trace the shared
    // clock stamped before clients got their own clocks (pinned).
    const std::map<std::string, std::uint64_t> golden = {
        {"hashmap", 0x0c7220a12a452813ull},
        {"nfs", 0x20c8f2c6df460d5bull},
        {"mysql", 0x2e00b115e9f1d5ffull},
        {"exim", 0xcc83c3a6ba18137aull}};
    for (const auto &[app, digest] : golden) {
        WorkloadOptions opts = smokeOptions(app, 'A');
        opts.threads = 1;
        opts.opsPerThread = 200;
        const WorkloadResult r = runWorkload(opts);
        EXPECT_EQ(traceDigest(r), digest)
            << app << " 0x" << std::hex << traceDigest(r);
    }
}

} // namespace
} // namespace whisper::workload
