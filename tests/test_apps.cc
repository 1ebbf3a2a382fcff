/**
 * @file
 * Integration tests: every WHISPER application runs, verifies its own
 * invariants, produces the expected trace signature, and survives
 * adversarial crash + recovery (parameterized seed sweep).
 */

#include <gtest/gtest.h>

#include "analysis/access_mix.hh"
#include "analysis/epoch.hh"
#include "analysis/epoch_stats.hh"
#include "core/harness.hh"
#include "fuzz/crash_fuzz.hh"

namespace whisper
{
namespace
{

using core::AppConfig;
using core::RunResult;

AppConfig
smallConfig()
{
    AppConfig config;
    config.threads = 4;
    config.opsPerThread = 120;
    config.poolBytes = 192 << 20;
    config.seed = 7;
    return config;
}

TEST(AppRegistry, AllSuiteWorkloadsRegistered)
{
    // The fixtures resolve by name, yet neither creating them nor
    // fuzzing one adds a name to the suite list.
    for (const char *fixture : {"faulty", "mod-hashmap-broken"})
        EXPECT_EQ(core::createApp(fixture, AppConfig{})->name(), fixture);
    fuzz::FuzzConfig config;
    config.opsPerThread = 8;
    config.poolBytes = 1 << 20;
    const fuzz::FuzzCase c = fuzz::deriveCase(
        "faulty", 0, fuzz::profilePmOps("faulty", config), config);
    EXPECT_TRUE(fuzz::runCase(c, config).fired);

    const auto names = core::registeredApps();
    const std::vector<std::string> expect = {
        "ctree", "echo", "exim", "halo-hashmap", "hashmap",
        "memcached", "mod-hashmap", "mod-vector", "mysql", "nfs",
        "redis", "tpcc", "vacation", "ycsb"};
    EXPECT_EQ(names, expect);
}

class AppRun : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AppRun, RunsAndVerifies)
{
    RunResult result = core::runApp(GetParam(), smallConfig());
    EXPECT_TRUE(result.verified) << GetParam();
    // Every app produces PM writes, fences and transactions.
    const auto counters = result.runtime->traces().totalCounters();
    EXPECT_GT(counters.pmWrites(), 0u) << GetParam();
    EXPECT_GT(counters.fences, 0u) << GetParam();
    analysis::EpochBuilder builder(result.runtime->traces());
    EXPECT_GT(builder.epochCount(), 0u) << GetParam();
    EXPECT_GT(builder.transactions().size(), 0u) << GetParam();
}

TEST_P(AppRun, SurvivesHardCrash)
{
    RunResult result = core::runApp(GetParam(), smallConfig());
    ASSERT_TRUE(result.verified);
    result.runtime->crashHard();
    result.app->recover(*result.runtime);
    const core::VerifyReport invariants =
        result.app->checkRecoveryInvariants(*result.runtime);
    EXPECT_TRUE(invariants.ok())
        << GetParam() << ": " << invariants.describe();
    const core::VerifyReport recovered =
        result.app->verifyRecovered(*result.runtime);
    EXPECT_TRUE(recovered.ok())
        << GetParam() << ": " << recovered.describe();
}

INSTANTIATE_TEST_SUITE_P(
    Suite, AppRun,
    ::testing::Values("echo", "ycsb", "tpcc", "redis", "ctree",
                      "hashmap", "vacation", "memcached", "nfs",
                      "exim", "mysql", "mod-hashmap", "mod-vector"));

struct CrashCase
{
    std::string app;
    std::uint64_t seed;
};

// gtest's default printer dumps the raw object bytes, which include the
// std::string's heap pointer; that would put an address into every
// discovered test name and change it from run to run.
void
PrintTo(const CrashCase &cc, std::ostream *os)
{
    *os << cc.app << " seed " << cc.seed;
}

class AppCrashSweep : public ::testing::TestWithParam<CrashCase>
{
};

TEST_P(AppCrashSweep, AdversarialCrashRecovery)
{
    const CrashCase &cc = GetParam();
    AppConfig config = smallConfig();
    config.opsPerThread = 60;
    config.seed = cc.seed;
    RunResult result = core::runApp(cc.app, config);
    ASSERT_TRUE(result.verified);
    core::CrashOptions opts;
    opts.seed = cc.seed * 1337 + 1;
    opts.survival = 0.5;
    const core::VerifyReport recovered =
        core::crashAndVerify(result, opts);
    EXPECT_TRUE(recovered.ok())
        << cc.app << " seed " << cc.seed << ": "
        << recovered.describe();
    // After recovery the access layer must be quiescent again: logs
    // retired, journal FREE, descriptor protocols settled.
    const core::VerifyReport invariants =
        result.app->checkRecoveryInvariants(*result.runtime);
    EXPECT_TRUE(invariants.ok())
        << cc.app << " seed " << cc.seed << ": "
        << invariants.describe();
}

std::vector<CrashCase>
crashCases()
{
    std::vector<CrashCase> cases;
    for (const char *app :
         {"echo", "ycsb", "tpcc", "redis", "ctree", "hashmap",
          "vacation", "memcached", "nfs", "exim", "mysql",
          "mod-hashmap", "mod-vector"}) {
        for (std::uint64_t seed : {1ull, 2ull, 3ull})
            cases.push_back({app, seed});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AppCrashSweep, ::testing::ValuesIn(crashCases()),
    [](const ::testing::TestParamInfo<CrashCase> &info) {
        std::string name = info.param.app + "_s" +
                           std::to_string(info.param.seed);
        for (char &ch : name) // gtest names reject '-'
            if (ch == '-')
                ch = '_';
        return name;
    });

// --------------------------------------------- behavioural signatures

TEST(AppBehaviour, FsAppsUseNtisHeavily)
{
    AppConfig config = smallConfig();
    config.opsPerThread = 40;
    RunResult nfs = core::runApp("nfs", config);
    const auto nti = analysis::computeNtiUsage(nfs.runtime->traces());
    // PMFS writes user data and zero pages with NTIs (paper: ~96%).
    EXPECT_GT(nti.ntiFraction(), 0.5);
}

TEST(AppBehaviour, NvmlAmplificationExceedsMnemosyne)
{
    AppConfig config = smallConfig();
    config.opsPerThread = 80;
    RunResult hashmap = core::runApp("hashmap", config); // NVML
    RunResult vacation = core::runApp("vacation", config); // Mnemosyne
    const auto nvml_amp =
        analysis::computeAmplification(hashmap.runtime->traces());
    const auto mne_amp =
        analysis::computeAmplification(vacation.runtime->traces());
    // Paper §5.2: NVML ~10x, Mnemosyne 3-6x.
    EXPECT_GT(nvml_amp.ratio(), mne_amp.ratio());
}

TEST(AppBehaviour, LibraryEpochsAreMostlySingletons)
{
    AppConfig config = smallConfig();
    config.opsPerThread = 100;
    RunResult result = core::runApp("hashmap", config);
    analysis::EpochBuilder builder(result.runtime->traces());
    const auto sum =
        analysis::summarizeEpochs(builder, result.runtime->traces());
    // Paper Figure 4: ~75% singletons for library apps.
    EXPECT_GT(sum.singletonFraction, 0.5);
}

TEST(AppBehaviour, PmfsEpochsIncludeBlockSized)
{
    AppConfig config = smallConfig();
    config.opsPerThread = 30;
    RunResult result = core::runApp("nfs", config);
    analysis::EpochBuilder builder(result.runtime->traces());
    const auto sum =
        analysis::summarizeEpochs(builder, result.runtime->traces());
    // Paper Figure 4: PMFS has a >=64-line mode from 4 KB block
    // writes.
    EXPECT_GT(sum.epochSizes.fractionIn(64, ~std::uint64_t(0)), 0.02);
}

TEST(AppBehaviour, EchoTransactionsAreLarge)
{
    AppConfig config = smallConfig();
    config.opsPerThread = 96;
    RunResult result = core::runApp("echo", config);
    analysis::EpochBuilder builder(result.runtime->traces());
    const auto sum =
        analysis::summarizeEpochs(builder, result.runtime->traces());
    // Paper Figure 3: echo has the largest transactions (median 307
    // epochs; ours must at least be far above the library apps).
    EXPECT_GT(sum.epochsPerTx.median(), 50u);
}

TEST(AppBehaviour, DramDominatesWhenInstrumented)
{
    AppConfig config = smallConfig();
    config.opsPerThread = 60;
    config.recordVolatile = true;
    RunResult result = core::runApp("redis", config);
    const auto mix =
        analysis::computeAccessMix(result.runtime->traces());
    // Paper Figure 6: PM is a small minority of accesses.
    EXPECT_LT(mix.pmFraction(), 0.5);
}

} // namespace
} // namespace whisper
