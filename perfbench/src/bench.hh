/**
 * @file
 * Shared types of the benchmark driver: the per-run report, the
 * sample statistics, and the three workload kinds' entry points.
 *
 * Metric naming: end-to-end metrics have no dot (host_kops_per_s),
 * per-layer metrics are "<layer>.<metric>[.<variant>]"
 * (pm.store_ns.t4). Units and clocks live in perfbench/spec.json;
 * the driver only emits values and sample counts.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hh"

namespace perfbench
{

struct Metric
{
    double value = 0.0;
    std::uint64_t samples = 0;
};

/** Everything one run measured and checked. */
class Report
{
  public:
    void
    set(const std::string &name, double value, std::uint64_t samples)
    {
        metrics_[name] = {value, samples};
    }

    /** Record a correctness check; a failed one counts in failed(). */
    void check(const std::string &name, bool ok,
               const std::string &detail = "");

    /** Units of work attempted (ops, cases or pipeline stages). */
    void attempt(std::uint64_t n) { attempted_ += n; }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::map<std::string, Metric> &metrics() const
    {
        return metrics_;
    }

    /** Copy @p other's per-layer metrics, checks and attempts. */
    void absorbLayers(const Report &other);

    std::string json(const std::string &workload, std::uint64_t seed,
                     bool traced) const;

  private:
    struct Check
    {
        std::string name;
        bool ok;
        std::string detail;
    };

    std::map<std::string, Metric> metrics_;
    std::vector<Check> checks_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** @{ \name Sample statistics (copies; inputs stay unsorted) */
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(v, 0.5); }
double sum(const std::vector<double> &v);
/** @} */

/** Run-wide knobs from the command line. */
struct RunOptions
{
    std::uint64_t seed = 1;
    double seconds = 10.0;  //!< measured-phase budget per pass
    bool tiny = false;      //!< self-test sizes
    std::string outDir = "."; //!< scratch files (trace file)
};

/** @{ \name Workload kinds
 *
 * Each runs rounds of identical, seed-derived work until @p seconds
 * of rounds have elapsed (at least two, so every sim/count result is
 * checked for exact repeat), then reports end-to-end metrics, the
 * per-layer metrics its spans and counters give, and its checks.
 */
Report runYcsb(char mix, const RunOptions &opt, Tracer &tracer);
Report runCrashfuzz(const RunOptions &opt, Tracer &tracer);
Report runPipeline(const RunOptions &opt, Tracer &tracer);
/** @} */

/**
 * Primitive probes of the traced run: Runtime construction and the
 * pm store/flush/fence/load/vBurst paths on a pool of @p pool_bytes
 * (1 and 4 threads), Runtime::crash, the three allocators, one-word
 * NVML and Mnemosyne transactions and KeyChooser::next.
 */
Report runProbes(std::size_t pool_bytes, unsigned threads,
                 const RunOptions &opt, Tracer &tracer);

/** The workload kinds' pool sizes (what the pm probes run on). */
std::size_t ycsbPoolBytes(bool tiny);
std::size_t fuzzPoolBytes();
std::size_t pipelinePoolBytes(bool tiny);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
