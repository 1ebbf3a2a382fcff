/**
 * @file
 * The x86-64 baseline persistency model (clwb + sfence) and the ideal
 * (non-crash-consistent) model.
 */

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "sim/persist_model.hh"

namespace whisper::sim
{

namespace
{

/**
 * Current-hardware persistence: applications flush each dirty line
 * and an sfence stalls the thread until every outstanding flush and
 * write-combining drain is durable (at the NVM device, or at the MC
 * when a persistent write queue exists).
 */
class X86Model : public PersistModel
{
  public:
    explicit X86Model(const SimParams &params)
        : PersistModel(params), pending_(params.cores)
    {
    }

    std::uint64_t
    onPmStore(unsigned core, LineAddr line) override
    {
        (void)core;
        (void)line;
        return 0; // ordinary cacheable store; cost is the cache access
    }

    std::uint64_t
    onPmNtStore(unsigned core, LineAddr line) override
    {
        // NT stores post into the write-combining buffer; durability
        // is paid at the next fence.
        pending_[core].insert(line);
        return 0;
    }

    std::uint64_t
    onFlush(unsigned core, LineAddr line) override
    {
        stats_.flushesIssued++;
        pending_[core].insert(line);
        return kFlushIssueCost;
    }

    std::uint64_t
    onFence(unsigned core, trace::FenceKind kind) override
    {
        (void)kind; // x86 has only sfence; both kinds stall fully
        // Canonicalize the pending set so device costs (WC-buffer
        // evictions, per-DIMM queues) never depend on hash order.
        std::vector<LineAddr> lines(pending_[core].begin(),
                                    pending_[core].end());
        std::sort(lines.begin(), lines.end());
        pending_[core].clear();
        const std::uint64_t stall =
            lines.empty() ? kEmptyFenceCost : device().drainLines(lines);
        stats_.fenceStalls += stall;
        if (!lines.empty())
            stats_.epochsDrained++;
        return stall;
    }

    std::uint64_t
    finish(unsigned core) override
    {
        if (pending_[core].empty())
            return 0;
        return onFence(core, trace::FenceKind::Durability);
    }

  private:
    static constexpr std::uint64_t kFlushIssueCost = 4;
    static constexpr std::uint64_t kEmptyFenceCost = 2;

    std::vector<std::unordered_set<LineAddr>> pending_;
};

/**
 * Upper bound: ignores all ordering/durability (not crash-consistent;
 * the paper's IDEAL (NON-CC) bar).
 */
class IdealModel : public PersistModel
{
  public:
    explicit IdealModel(const SimParams &params) : PersistModel(params)
    {
    }

    std::uint64_t
    onPmStore(unsigned, LineAddr) override
    {
        return 0;
    }

    std::uint64_t
    onPmNtStore(unsigned, LineAddr) override
    {
        return 0;
    }

    std::uint64_t
    onFlush(unsigned, LineAddr) override
    {
        stats_.flushesElided++;
        return 0;
    }

    std::uint64_t
    onFence(unsigned, trace::FenceKind) override
    {
        return 1;
    }

    std::uint64_t
    finish(unsigned) override
    {
        return 0;
    }
};

} // namespace

std::unique_ptr<PersistModel>
makeX86Model(const SimParams &params)
{
    return std::make_unique<X86Model>(params);
}

std::unique_ptr<PersistModel>
makeIdealModel(const SimParams &params)
{
    return std::make_unique<IdealModel>(params);
}

} // namespace whisper::sim
