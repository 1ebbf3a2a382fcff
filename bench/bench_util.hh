/**
 * @file
 * Run configuration of the two bench drivers. Sizes scale with the
 * WHISPER_OPS environment variable (a multiplier; default 1 keeps
 * each driver in the seconds range).
 */

#ifndef WHISPER_BENCH_BENCH_UTIL_HH
#define WHISPER_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/harness.hh"

namespace whisper::bench
{

/** Ops multiplier from the environment. */
inline double
opsScale()
{
    if (const char *env = std::getenv("WHISPER_OPS"))
        return std::max(0.01, std::atof(env));
    return 1.0;
}

/** Baseline config for bench_paper's analysis and elision passes. */
inline core::AppConfig
analysisConfig()
{
    core::AppConfig config;
    config.threads = 4;
    config.opsPerThread = static_cast<std::uint64_t>(400 * opsScale());
    config.poolBytes = 256 << 20;
    config.seed = 42;
    return config;
}

/** Run one app under the analysis config, asserting verification. */
inline core::RunResult
runForAnalysis(const std::string &name, const core::AppConfig &config)
{
    core::RunResult result = core::runApp(name, config);
    if (!result.verified) {
        std::fprintf(stderr, "FATAL: %s failed verification\n",
                     name.c_str());
        std::exit(1);
    }
    return result;
}

} // namespace whisper::bench

#endif // WHISPER_BENCH_BENCH_UTIL_HH
