#include "analysis/epoch_stats.hh"

#include "analysis/epoch.hh"

namespace whisper::analysis
{

void
EpochStatsAccumulator::addEpoch(std::uint64_t lines,
                                std::uint64_t storeBytes,
                                trace::FenceKind endKind)
{
    totalEpochs_++;
    epochSizes_.add(lines);
    if (lines == 1) {
        singletons_++;
        singletonBytes_.add(storeBytes);
        if (storeBytes < 10)
            singletonSmall_++;
    }
    if (endKind == trace::FenceKind::Durability)
        durabilityFences_++;
}

void
EpochStatsAccumulator::addEpoch(const Epoch &ep)
{
    addEpoch(ep.size(), ep.storeBytes, ep.endKind);
}

void
EpochStatsAccumulator::addTransaction(const TxInfo &tx)
{
    if (tx.epochs == 0)
        return;
    totalTransactions_++;
    epochsPerTx_.add(tx.epochs);
}

void
EpochStatsAccumulator::merge(const EpochStatsAccumulator &other)
{
    totalEpochs_ += other.totalEpochs_;
    totalTransactions_ += other.totalTransactions_;
    singletons_ += other.singletons_;
    singletonSmall_ += other.singletonSmall_;
    durabilityFences_ += other.durabilityFences_;
    epochSizes_.merge(other.epochSizes_);
    epochsPerTx_.merge(other.epochsPerTx_);
    singletonBytes_.merge(other.singletonBytes_);
}

EpochSummary
EpochStatsAccumulator::finalize(Tick firstTick, Tick lastTick) const
{
    EpochSummary out;
    out.totalEpochs = totalEpochs_;
    out.totalTransactions = totalTransactions_;
    out.epochSizes = epochSizes_;
    out.epochsPerTx = epochsPerTx_;
    out.singletonBytes = singletonBytes_;

    const Tick span = lastTick - firstTick;
    if (span > 0) {
        out.epochsPerSecond = static_cast<double>(out.totalEpochs) /
                              (static_cast<double>(span) * 1e-9);
    }
    if (out.totalEpochs > 0) {
        out.singletonFraction =
            static_cast<double>(singletons_) /
            static_cast<double>(out.totalEpochs);
        out.durabilityFenceFraction =
            static_cast<double>(durabilityFences_) /
            static_cast<double>(out.totalEpochs);
    }
    if (singletons_ > 0) {
        out.singletonUnder10B =
            static_cast<double>(singletonSmall_) /
            static_cast<double>(singletons_);
    }
    return out;
}

EpochSummary
summarizeEpochs(const EpochBuilder &builder,
                const trace::TraceSet &traces)
{
    EpochStatsAccumulator acc;
    for (const Epoch &ep : builder.epochs())
        acc.addEpoch(ep);
    for (const TxInfo &tx : builder.transactions())
        acc.addTransaction(tx);
    return acc.finalize(traces.firstTick(), traces.lastTick());
}

} // namespace whisper::analysis
