/**
 * @file
 * Epoch dependency analysis (the paper's Figure 5).
 *
 * Write-after-write dependencies between epochs are classified as
 *
 *  - self-dependency:  E^m_k  ~>_c  E^m'_k — two epochs of the *same*
 *    thread store to a common cache line c, and
 *  - cross-dependency: E^m_i (x)_c E^n_j — epochs of *different*
 *    threads store to a common line,
 *
 * counted only when the earlier epoch ended within a 50 us window of
 * the later epoch (the paper's bound on how long a flushed line can
 * stay buffered before becoming persistent).
 *
 * The scan parallelizes by sharding the *line address space*, not the
 * epoch list: whether epoch E depends on an earlier epoch through
 * line c involves only the write history of c, so a shard that owns a
 * subset of lines computes exact per-epoch dependency flags for its
 * lines, and OR-merging the shards' flags reproduces the sequential
 * classification bit for bit — including exact cross-thread counts —
 * at any shard count.
 */

#ifndef WHISPER_ANALYSIS_DEPENDENCY_HH
#define WHISPER_ANALYSIS_DEPENDENCY_HH

#include "analysis/epoch.hh"

namespace whisper::analysis
{

/** Result of the dependency scan. */
struct DependencySummary
{
    std::uint64_t totalEpochs = 0;
    std::uint64_t selfDependent = 0;   //!< epochs with >=1 self-dep
    std::uint64_t crossDependent = 0;  //!< epochs with >=1 cross-dep

    double
    selfFraction() const
    {
        return totalEpochs
                   ? static_cast<double>(selfDependent) /
                         static_cast<double>(totalEpochs)
                   : 0.0;
    }

    double
    crossFraction() const
    {
        return totalEpochs
                   ? static_cast<double>(crossDependent) /
                         static_cast<double>(totalEpochs)
                   : 0.0;
    }
};

/**
 * Per-epoch dependency flags for one shard of the line space.
 *
 * scan() walks the global epoch order once, but classifies and
 * records write history only for lines owned by this shard
 * (line % shardCount == shardIndex). merge() ORs another shard's
 * flags in; summarize() counts flagged epochs. One shard covering
 * the whole line space is exactly the sequential algorithm.
 */
class DependencyShard
{
  public:
    /**
     * Classify the epochs of @p order against the lines owned by
     * shard @p shardIndex of @p shardCount, within @p window ticks.
     */
    void scan(const EpochOrder &order, Tick window,
              std::size_t shardIndex, std::size_t shardCount);

    /** OR @p other's per-epoch flags into this shard's. */
    void merge(const DependencyShard &other);

    /** Count flagged epochs. */
    DependencySummary summarize() const;

  private:
    static constexpr std::uint8_t kSelf = 1;
    static constexpr std::uint8_t kCross = 2;

    std::vector<std::uint8_t> flags_; //!< kSelf | kCross per epoch
};

/**
 * Scan @p builder's epochs for WAW dependencies within @p window
 * ticks: the pipeline's scan, over one shard.
 */
DependencySummary analyzeDependencies(const EpochBuilder &builder,
                                      Tick window = kDependencyWindow);

} // namespace whisper::analysis

#endif // WHISPER_ANALYSIS_DEPENDENCY_HH
