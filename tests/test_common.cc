/**
 * @file
 * Unit tests for src/common: RNG, histograms, tables, logical clock,
 * CRC32.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <initializer_list>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/crc32.hh"
#include "common/flags.hh"
#include "common/histogram.hh"
#include "common/logical_clock.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "common/types.hh"

namespace whisper
{
namespace
{

TEST(Types, LineHelpers)
{
    EXPECT_EQ(lineOf(0), 0u);
    EXPECT_EQ(lineOf(63), 0u);
    EXPECT_EQ(lineOf(64), 1u);
    EXPECT_EQ(lineBase(100), 64u);
    EXPECT_EQ(linesSpanned(0, 64), 1u);
    EXPECT_EQ(linesSpanned(63, 2), 2u);
    EXPECT_EQ(linesSpanned(0, 0), 0u);
    EXPECT_EQ(linesSpanned(10, 128), 3u);
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; i++)
        same += a() == b();
    EXPECT_LT(same, 4);
}

TEST(Rng, BoundedNext)
{
    Rng rng(7);
    for (int i = 0; i < 10000; i++)
        EXPECT_LT(rng.next(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; i++)
        seen.insert(rng.range(5, 8));
    EXPECT_EQ(seen.size(), 4u);
    EXPECT_EQ(*seen.begin(), 5u);
    EXPECT_EQ(*seen.rbegin(), 8u);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(11);
    for (int i = 0; i < 100; i++) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, StringLengthAndCharset)
{
    Rng rng(13);
    const std::string s = rng.nextString(64);
    EXPECT_EQ(s.size(), 64u);
    for (char c : s)
        EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)));
}

TEST(Zipfian, SkewTowardHotKeys)
{
    Rng rng(17);
    ZipfianGenerator zipf(1000);
    std::uint64_t hot = 0;
    const int n = 20000;
    for (int i = 0; i < n; i++) {
        if (zipf.next(rng) < 10)
            hot++;
    }
    // The 1% hottest keys should draw far more than 1% of accesses.
    EXPECT_GT(hot, static_cast<std::uint64_t>(n) / 10);
}

TEST(Zipfian, InBounds)
{
    Rng rng(19);
    ZipfianGenerator zipf(37);
    for (int i = 0; i < 10000; i++)
        EXPECT_LT(zipf.next(rng), 37u);
}

TEST(ScrambledSequence, CoversWithoutEarlyRepeat)
{
    Rng rng(23);
    ScrambledSequence seq(1024, rng);
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 1024; i++) {
        const std::uint64_t v = seq.at(i);
        EXPECT_LT(v, 1024u);
        seen.insert(v);
    }
    // An odd multiplier mod a power of two is a bijection.
    EXPECT_EQ(seen.size(), 1024u);
}

TEST(ScrambledSequence, BijectionAtAnySize)
{
    // Cycle-walking makes the map a true permutation of [0, n) for
    // every n, not just powers of two — the former weak spot that
    // forced vacation.cc to special-case its insertion order.
    for (std::uint64_t n :
         {1ull, 2ull, 3ull, 5ull, 7ull, 10ull, 100ull, 733ull,
          1000ull, 1023ull, 1025ull}) {
        Rng rng(29 + n);
        ScrambledSequence seq(n, rng);
        std::set<std::uint64_t> seen;
        for (std::uint64_t i = 0; i < n; i++) {
            const std::uint64_t v = seq.at(i);
            ASSERT_LT(v, n) << "n=" << n << " i=" << i;
            seen.insert(v);
        }
        EXPECT_EQ(seen.size(), n) << "n=" << n;
    }
}

TEST(ScrambledSequence, DeterministicPerSeed)
{
    Rng a(77), b(77), c(78);
    ScrambledSequence s1(500, a), s2(500, b), s3(500, c);
    bool any_diff = false;
    for (std::uint64_t i = 0; i < 500; i++) {
        EXPECT_EQ(s1.at(i), s2.at(i));
        any_diff |= s1.at(i) != s3.at(i);
    }
    EXPECT_TRUE(any_diff); // different seed, different permutation
}

TEST(Histogram, BasicStats)
{
    Histogram h;
    for (std::uint64_t v : {1, 1, 2, 3, 10})
        h.add(v);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 17u);
    EXPECT_DOUBLE_EQ(h.mean(), 17.0 / 5.0);
    EXPECT_EQ(h.median(), 2u);
    EXPECT_EQ(h.minValue(), 1u);
    EXPECT_EQ(h.maxValue(), 10u);
    EXPECT_DOUBLE_EQ(h.fractionAt(1), 0.4);
    EXPECT_DOUBLE_EQ(h.fractionIn(1, 3), 0.8);
}

TEST(Histogram, EmptyIsSafe)
{
    Histogram h;
    EXPECT_EQ(h.median(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.fractionAt(5), 0.0);
}

TEST(Histogram, MergeAddsCounts)
{
    Histogram a, b;
    a.add(1, 3);
    b.add(1, 2);
    b.add(7);
    a.merge(b);
    EXPECT_EQ(a.count(), 6u);
    EXPECT_DOUBLE_EQ(a.fractionAt(1), 5.0 / 6.0);
}

TEST(Histogram, QuantileMonotone)
{
    Histogram h;
    for (std::uint64_t v = 0; v < 100; v++)
        h.add(v);
    EXPECT_LE(h.quantile(0.1), h.quantile(0.5));
    EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
    EXPECT_EQ(h.quantile(0.0), 0u);
    EXPECT_EQ(h.quantile(1.0), 99u);
}

TEST(BucketedDistribution, PaperEpochBuckets)
{
    Histogram h;
    h.add(1, 75);
    h.add(2, 10);
    h.add(30, 10);
    h.add(64, 5);
    const auto dist = BucketedDistribution::epochSizeBuckets();
    const auto frac = dist.fractions(h);
    ASSERT_EQ(frac.size(), 7u);
    EXPECT_DOUBLE_EQ(frac[0], 0.75);  // "1"
    EXPECT_DOUBLE_EQ(frac[1], 0.10);  // "2"
    EXPECT_DOUBLE_EQ(frac[5], 0.10);  // "6-63"
    EXPECT_DOUBLE_EQ(frac[6], 0.05);  // ">=64"
}

TEST(TextTable, RendersAligned)
{
    TextTable t("demo");
    t.header({"name", "value"});
    t.row({"a", "1"});
    t.row({"bbbb", "22"});
    const std::string out = t.render();
    EXPECT_NE(out.find("== demo =="), std::string::npos);
    EXPECT_NE(out.find("bbbb"), std::string::npos);
    EXPECT_EQ(TextTable::percent(0.123, 1), "12.3%");
    EXPECT_EQ(TextTable::fixed(1.5, 2), "1.50");
}

TEST(ShardRanges, CoverAndBalance)
{
    const auto ranges = shardRanges(10, 4);
    ASSERT_EQ(ranges.size(), 4u);
    std::size_t covered = 0;
    std::size_t expect_begin = 0;
    for (const auto &r : ranges) {
        EXPECT_EQ(r.begin, expect_begin);
        EXPECT_GE(r.size(), 2u);
        EXPECT_LE(r.size(), 3u);
        covered += r.size();
        expect_begin = r.end;
    }
    EXPECT_EQ(covered, 10u);

    // More shards than items: one range per item, never empty.
    const auto tiny = shardRanges(2, 8);
    ASSERT_EQ(tiny.size(), 2u);
    EXPECT_EQ(tiny[0].size(), 1u);

    EXPECT_TRUE(shardRanges(0, 4).empty());
}

TEST(ThreadPool, CoversEveryIndexOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.workerCount(), 4u);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(hits.size(),
                     [&](std::size_t i) { hits[i]++; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, MapKeepsIndexOrder)
{
    ThreadPool pool(4);
    const auto out =
        pool.map(257, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 257u);
    for (std::size_t i = 0; i < out.size(); i++)
        EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, SingleWorkerRunsInline)
{
    ThreadPool pool(1);
    const auto caller = std::this_thread::get_id();
    pool.parallelFor(5, [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
}

TEST(ThreadPool, ReusableAcrossBatches)
{
    ThreadPool pool(3);
    for (int round = 0; round < 20; round++) {
        std::atomic<std::size_t> sum{0};
        pool.parallelFor(round + 1,
                         [&](std::size_t i) { sum += i; });
        const std::size_t n = round + 1;
        EXPECT_EQ(sum.load(), n * (n - 1) / 2);
    }
}

TEST(ThreadPool, PropagatesExceptions)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(16,
                                  [](std::size_t i) {
                                      if (i == 7)
                                          throw std::runtime_error(
                                              "boom");
                                  }),
                 std::runtime_error);
    // The pool must remain usable after a failed batch.
    std::atomic<int> ran{0};
    pool.parallelFor(4, [&](std::size_t) { ran++; });
    EXPECT_EQ(ran.load(), 4);
}

TEST(LogicalClock, AdvancesMonotonically)
{
    LogicalClock clock;
    EXPECT_EQ(clock.now(), 0u);
    EXPECT_EQ(clock.advance(5), 5u);
    EXPECT_EQ(clock.advance(3), 8u);
    EXPECT_EQ(clock.advanceOwned(4), 12u);
    EXPECT_EQ(clock.now(), 12u);
    clock.reset();
    EXPECT_EQ(clock.now(), 0u);
}

/** Bit-at-a-time CRC32 (reflected 0xEDB88320): the definition. */
std::uint32_t
crc32Bitwise(const std::uint8_t *bytes, std::size_t n)
{
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; i++) {
        crc ^= bytes[i];
        for (int k = 0; k < 8; k++)
            crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
    return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesBytewiseReference)
{
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);

    // Every length at every start offset within a word: the slicing
    // loop, its bytewise tail and unaligned loads all take part.
    std::vector<std::uint8_t> buf(8 + 300);
    Rng rng(11);
    for (std::uint8_t &b : buf)
        b = static_cast<std::uint8_t>(rng.next(256));
    for (std::size_t start = 0; start <= 8; start++) {
        for (std::size_t n = 0; n <= 300; n++) {
            ASSERT_EQ(crc32(buf.data() + start, n),
                      crc32Bitwise(buf.data() + start, n))
                << "start " << start << " length " << n;
        }
    }

    // Feeding a range in two pieces gives the one-shot value.
    const std::uint32_t whole = crc32(buf.data(), buf.size());
    for (std::size_t cut = 0; cut <= buf.size(); cut++) {
        ASSERT_EQ(crc32Update(crc32(buf.data(), cut), buf.data() + cut,
                              buf.size() - cut),
                  whole)
            << "split at " << cut;
    }
}

// ----------------------------------------------------------- flags

/** parse() on a literal argv, skipping the usual cmd+subcommand. */
bool
parseArgs(FlagParser &fp, std::initializer_list<const char *> args)
{
    std::vector<char *> argv = {
        const_cast<char *>("whisper_cli"),
        const_cast<char *>("sub"),
    };
    for (const char *a : args)
        argv.push_back(const_cast<char *>(a));
    return fp.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, ParseU64DecimalAndHex)
{
    std::uint64_t v = 0;
    EXPECT_TRUE(parseU64("1234", v));
    EXPECT_EQ(v, 1234u);
    // Crashfuzz replay commands round-trip seeds in hex.
    EXPECT_TRUE(parseU64("0x5eedF00d", v));
    EXPECT_EQ(v, 0x5eedF00dull);
    EXPECT_FALSE(parseU64("12x", v));
    EXPECT_FALSE(parseU64("", v));
    EXPECT_FALSE(parseU64(nullptr, v));
}

TEST(Flags, BindingsAndDuplicateRejected)
{
    std::uint64_t ops = 7;
    unsigned threads = 1;
    bool json = false;
    std::size_t pool = 0;
    const char *app = nullptr;
    FlagParser fp;
    fp.u64("--ops", &ops)
        .u32("--threads", &threads, 1)
        .flag("--json", &json)
        .megabytes("--pool-mb", &pool)
        .str("--app", &app);
    EXPECT_TRUE(parseArgs(fp, {"--ops", "10", "--json", "--threads",
                               "4", "--pool-mb", "2", "--app",
                               "hashmap"}));
    EXPECT_EQ(ops, 10u);
    EXPECT_EQ(threads, 4u);
    EXPECT_TRUE(json);
    EXPECT_EQ(pool, std::size_t(2) << 20);
    EXPECT_STREQ(app, "hashmap");

    // A doubled flag in a pasted reproducer command is an editing
    // mistake, not a preference for the later value.
    EXPECT_FALSE(parseArgs(fp, {"--ops", "10", "--ops", "20"}));
    EXPECT_NE(fp.error().find("given twice"), std::string::npos);
    EXPECT_NE(fp.error().find("--ops"), std::string::npos);
    EXPECT_EQ(ops, 10u) << "failed parse must not clobber";

    // Valueless switches count too, and parse() resets the
    // seen-state: the same flag across two parses is fine.
    EXPECT_FALSE(parseArgs(fp, {"--json", "--json"}));
    EXPECT_NE(fp.error().find("--json"), std::string::npos);
    EXPECT_TRUE(parseArgs(fp, {"--json"}));
}

TEST(Flags, CommandNamePrefixesErrors)
{
    std::uint64_t ops = 0;
    FlagParser fp;
    fp.command("crashfuzz").u64("--ops", &ops);
    EXPECT_FALSE(parseArgs(fp, {"--bogus"}));
    EXPECT_EQ(fp.error().rfind("crashfuzz: ", 0), 0u)
        << fp.error();
    EXPECT_FALSE(parseArgs(fp, {"--ops", "1", "--ops", "2"}));
    EXPECT_EQ(fp.error().rfind("crashfuzz: flag '--ops' given twice",
                               0),
              0u)
        << fp.error();
    // Successful parses leave no stale error behind.
    EXPECT_TRUE(parseArgs(fp, {"--ops", "3"}));
    EXPECT_TRUE(fp.error().empty());
}

TEST(Flags, MinimumEnforced)
{
    unsigned threads = 2;
    FlagParser fp;
    fp.u32("--threads", &threads, 1);
    EXPECT_FALSE(parseArgs(fp, {"--threads", "0"}));
    EXPECT_NE(fp.error().find("--threads"), std::string::npos);
    EXPECT_EQ(threads, 2u) << "failed parse must not clobber";
}

TEST(Flags, UnknownFlagAndMissingValueFail)
{
    std::uint64_t ops = 0;
    FlagParser fp;
    fp.u64("--ops", &ops);
    EXPECT_FALSE(parseArgs(fp, {"--bogus"}));
    EXPECT_NE(fp.error().find("--bogus"), std::string::npos);
    EXPECT_FALSE(parseArgs(fp, {"--ops"}));
    EXPECT_NE(fp.error().find("missing value"), std::string::npos);
}

TEST(Flags, PositionalsInterleaveAndCap)
{
    bool json = false;
    FlagParser fp;
    fp.flag("--json", &json).maxPositionals(2);
    EXPECT_TRUE(parseArgs(fp, {"a", "--json", "b"}));
    ASSERT_EQ(fp.positionals().size(), 2u);
    EXPECT_STREQ(fp.positionals()[0], "a");
    EXPECT_STREQ(fp.positionals()[1], "b");

    FlagParser capped;
    capped.maxPositionals(1);
    EXPECT_FALSE(parseArgs(capped, {"a", "b"}));
}

TEST(Flags, CustomHandlerValidates)
{
    double theta = 0.0;
    FlagParser fp;
    fp.custom("--theta", [&theta](const char *v) {
        theta = std::atof(v);
        return theta > 0.0 && theta < 1.0;
    });
    EXPECT_TRUE(parseArgs(fp, {"--theta", "0.75"}));
    EXPECT_DOUBLE_EQ(theta, 0.75);
    EXPECT_FALSE(parseArgs(fp, {"--theta", "1.5"}));
    EXPECT_NE(fp.error().find("bad value"), std::string::npos);
}

TEST(Flags, SplitListRejectsEmptyFields)
{
    std::vector<std::string> out;
    EXPECT_TRUE(splitList("hashmap,echo", ',', out));
    EXPECT_EQ(out, (std::vector<std::string>{"hashmap", "echo"}));
    for (const char *bad : {"", "hashmap,,echo", "hashmap,", ",echo"})
        EXPECT_FALSE(splitList(bad, ',', out)) << bad;
}

} // namespace
} // namespace whisper
