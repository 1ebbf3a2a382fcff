#include "sim/simulator.hh"

#include "common/logging.hh"

namespace whisper::sim
{

using trace::EventKind;

namespace
{
/** DRAM addresses are the recording Runtime's first-touch page
 *  addresses (pm::DramPages); keep them disjoint from pool offsets by
 *  folding them into a separate tag space. */
constexpr Addr kDramTag = Addr(1) << 44;

Addr
dramAddr(Addr host_ptr)
{
    return kDramTag | (host_ptr & (kDramTag - 1));
}
} // namespace

const char *
modelKindName(ModelKind kind)
{
    switch (kind) {
      case ModelKind::X86Nvm:  return "x86-64 (NVM)";
      case ModelKind::X86Pwq:  return "x86-64 (PWQ)";
      case ModelKind::HopsNvm: return "HOPS (NVM)";
      case ModelKind::HopsPwq: return "HOPS (PWQ)";
      case ModelKind::Dpo:     return "DPO (BSP)";
      case ModelKind::Ideal:   return "ideal (non-CC)";
    }
    return "?";
}

Simulator::Simulator(const SimParams &params, ModelKind kind)
    : params_(params), kind_(kind)
{
    SimParams model_params = params_;
    switch (kind) {
      case ModelKind::X86Nvm:
        model_params.persistentWriteQueue = false;
        model_ = makeX86Model(model_params);
        break;
      case ModelKind::X86Pwq:
        model_params.persistentWriteQueue = true;
        model_ = makeX86Model(model_params);
        break;
      case ModelKind::HopsNvm:
        model_params.persistentWriteQueue = false;
        model_ = makeHopsModel(model_params);
        break;
      case ModelKind::HopsPwq:
        model_params.persistentWriteQueue = true;
        model_ = makeHopsModel(model_params);
        break;
      case ModelKind::Dpo:
        model_params.persistentWriteQueue = false;
        model_params.dpoMode = true;
        model_ = makeHopsModel(model_params);
        break;
      case ModelKind::Ideal:
        model_ = makeIdealModel(model_params);
        break;
    }
    for (unsigned c = 0; c < params_.cores; c++)
        l1_.emplace_back(params_.l1Sets, params_.l1Ways);
    llc_ = std::make_unique<Cache>(params_.llcSets, params_.llcWays);
}

std::uint64_t
Simulator::memAccess(unsigned core, Addr addr, std::uint32_t size,
                     bool is_write, bool is_pm, bool bypass_cache)
{
    const LineAddr first = lineOf(addr);
    const LineAddr last = lineOf(addr + (size ? size - 1 : 0));
    std::uint64_t cycles = 0;
    for (LineAddr line = first; line <= last; line++) {
        if (is_write) {
            // Write-ownership transfer detection (coherence).
            auto it = lastWriter_.find(line);
            if (it != lastWriter_.end() && it->second != core) {
                const unsigned prev = it->second;
                if (l1_[prev].invalidate(line) ||
                    l1_[prev].contains(line)) {
                    cycles += params_.coherenceLat;
                    coherenceTransfers_++;
                }
                model_->onOwnershipTransfer(prev, core, line);
            }
            lastWriter_[line] = core;
        }

        if (bypass_cache) {
            // Non-temporal: post to the write-combining buffer; the
            // store itself retires quickly.
            cycles += 1;
            continue;
        }

        const CacheResult l1 = l1_[core].access(line, is_write);
        if (l1.hit) {
            cycles += params_.l1HitLat;
            continue;
        }
        const CacheResult llc = llc_->access(line, false);
        if (llc.hit) {
            cycles += params_.l1HitLat + params_.llcHitLat;
            continue;
        }
        cycles += params_.l1HitLat + params_.llcHitLat +
                  (is_pm ? model_->device().readCost(line)
                         : params_.dramLat);
        if (is_pm)
            cycles += model_->onLlcMiss(core, line);
    }
    return cycles;
}

SimResult
Simulator::run(const trace::TraceSet &traces)
{
    SimResult result;
    result.model = modelKindName(kind_);
    result.coreCycles.assign(params_.cores, 0);

    const auto merged = traces.merged();
    for (const auto &[tid, ev] : merged) {
        const unsigned core = tid % params_.cores;
        std::uint64_t cycles = 0;
        switch (ev.kind) {
          case EventKind::PmStore: {
            cycles += memAccess(core, ev.addr, ev.size, true, true,
                                false);
            const LineAddr first = lineOf(ev.addr);
            const LineAddr last =
                lineOf(ev.addr + (ev.size ? ev.size - 1 : 0));
            for (LineAddr line = first; line <= last; line++)
                cycles += model_->onPmStore(core, line);
            result.pmAccesses++;
            break;
          }
          case EventKind::PmNtStore: {
            cycles += memAccess(core, ev.addr, ev.size, true, true,
                                true);
            const LineAddr first = lineOf(ev.addr);
            const LineAddr last =
                lineOf(ev.addr + (ev.size ? ev.size - 1 : 0));
            for (LineAddr line = first; line <= last; line++)
                cycles += model_->onPmNtStore(core, line);
            result.pmAccesses++;
            break;
          }
          case EventKind::PmLoad:
            cycles += memAccess(core, ev.addr, ev.size, false, true,
                                false);
            result.pmAccesses++;
            break;
          case EventKind::PmFlush:
            cycles += model_->onFlush(core, lineOf(ev.addr));
            break;
          case EventKind::Fence:
            cycles += model_->onFence(core, ev.fenceKind());
            break;
          case EventKind::DramLoad:
            cycles += memAccess(core, dramAddr(ev.addr), ev.size,
                                false, false, false);
            result.dramAccesses++;
            break;
          case EventKind::DramStore:
            cycles += memAccess(core, dramAddr(ev.addr), ev.size, true,
                                false, false);
            result.dramAccesses++;
            break;
          case EventKind::TxBegin:
          case EventKind::TxEnd:
          case EventKind::TxAbort:
            cycles += 1;
            break;
        }
        result.coreCycles[core] += cycles;
    }

    for (unsigned core = 0; core < params_.cores; core++)
        result.coreCycles[core] += model_->finish(core);

    for (const auto c : result.coreCycles)
        result.cycles = std::max(result.cycles, c);
    for (const auto &l1 : l1_) {
        result.l1Stats.hits += l1.stats().hits;
        result.l1Stats.misses += l1.stats().misses;
        result.l1Stats.evictions += l1.stats().evictions;
    }
    result.llcStats = llc_->stats();
    result.coherenceTransfers = coherenceTransfers_;
    result.persist = model_->stats();
    result.device = model_->device().stats();
    return result;
}

std::vector<SimResult>
runModels(const trace::TraceSet &traces, const SimParams &base_params,
          const std::vector<ModelKind> &kinds)
{
    std::vector<SimResult> results;
    results.reserve(kinds.size());
    for (const ModelKind kind : kinds) {
        Simulator sim(base_params, kind);
        results.push_back(sim.run(traces));
    }
    return results;
}

} // namespace whisper::sim
