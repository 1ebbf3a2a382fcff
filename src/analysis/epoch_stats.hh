/**
 * @file
 * Distribution statistics over reconstructed epochs.
 *
 * Produces the numbers behind the paper's Table 1 (epochs/second),
 * Figure 3 (epochs per transaction), Figure 4 (epoch sizes) and the
 * singleton byte-size observation ("60% of singletons updated fewer
 * than 10 bytes").
 *
 * The computation is a commutative fold: EpochStatsAccumulator holds
 * only integer totals and histograms, so any sharding of the epoch
 * list can be accumulated independently, merged, and finalized into a
 * summary bit-identical to the sequential scan.
 */

#ifndef WHISPER_ANALYSIS_EPOCH_STATS_HH
#define WHISPER_ANALYSIS_EPOCH_STATS_HH

#include "common/histogram.hh"
#include "trace/event.hh"

namespace whisper::trace
{
class TraceSet;
} // namespace whisper::trace

namespace whisper::analysis
{

struct Epoch;
struct TxInfo;
class EpochBuilder;

/** Summary of one application run's epoch behaviour. */
struct EpochSummary
{
    std::uint64_t totalEpochs = 0;
    std::uint64_t totalTransactions = 0;
    double epochsPerSecond = 0.0;
    Histogram epochSizes;         //!< unique lines per epoch
    Histogram epochsPerTx;        //!< ordering points per transaction
    Histogram singletonBytes;     //!< bytes stored by singleton epochs
    double singletonFraction = 0.0;
    double singletonUnder10B = 0.0; //!< of singletons, stores < 10 bytes
    double durabilityFenceFraction = 0.0;
};

/**
 * Mergeable accumulator form of summarizeEpochs(). Epochs and
 * transactions may be split across accumulators in any way; merging
 * in any order and finalizing yields the sequential result exactly
 * (all state is integer counts, and the derived ratios are computed
 * once at finalize time).
 */
class EpochStatsAccumulator
{
  public:
    /**
     * Fold in one epoch of @p lines unique lines and @p storeBytes
     * stored bytes, closed by a fence of kind @p endKind.
     */
    void addEpoch(std::uint64_t lines, std::uint64_t storeBytes,
                  trace::FenceKind endKind);

    /** Fold in one reconstructed epoch. */
    void addEpoch(const Epoch &ep);

    /** Fold in one transaction record. */
    void addTransaction(const TxInfo &tx);

    /** Fold another accumulator's totals into this one. */
    void merge(const EpochStatsAccumulator &other);

    /** Derive the summary; @p firstTick/@p lastTick span the run. */
    EpochSummary finalize(Tick firstTick, Tick lastTick) const;

  private:
    std::uint64_t totalEpochs_ = 0;
    std::uint64_t totalTransactions_ = 0;
    std::uint64_t singletons_ = 0;
    std::uint64_t singletonSmall_ = 0;
    std::uint64_t durabilityFences_ = 0;
    Histogram epochSizes_;
    Histogram epochsPerTx_;
    Histogram singletonBytes_;
};

/** Compute the summary for a run. @p traces supplies the wall span. */
EpochSummary summarizeEpochs(const EpochBuilder &builder,
                             const trace::TraceSet &traces);

} // namespace whisper::analysis

#endif // WHISPER_ANALYSIS_EPOCH_STATS_HH
