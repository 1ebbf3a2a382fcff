/**
 * @file
 * Persistency-model interface for the timing simulator.
 *
 * The simulator replays one application trace under different
 * persistency models (paper Figure 10):
 *
 *  - X86Model (NVM):  clwb + sfence; every fence stalls until the
 *    flushed/NT data is durable at the NVM device;
 *  - X86Model (PWQ):  same, but a persistent write queue moves the
 *    durability point to the memory controller;
 *  - HopsModel (NVM/PWQ): per-thread persist buffers; ordering
 *    fences are local timestamp bumps, durability fences drain the
 *    buffer; cross-thread dependencies gleaned from coherence;
 *  - IdealModel: no ordering or durability at all (upper bound, not
 *    crash-consistent).
 */

#ifndef WHISPER_SIM_PERSIST_MODEL_HH
#define WHISPER_SIM_PERSIST_MODEL_HH

#include <cstdint>
#include <memory>

#include "sim/params.hh"
#include "sim/pm_device.hh"
#include "trace/event.hh"

namespace whisper::sim
{

/** Cycles of stall attributable to persistence, by cause. */
struct PersistStats
{
    std::uint64_t fenceStalls = 0;   //!< cycles stalled at fences
    std::uint64_t pbFullStalls = 0;  //!< cycles stalled on a full PB
    std::uint64_t missStalls = 0;    //!< LLC misses held by the PB
    std::uint64_t flushesIssued = 0;
    std::uint64_t flushesElided = 0; //!< clwbs HOPS did not need
    std::uint64_t epochsDrained = 0;
    std::uint64_t linesDrained = 0;    //!< PM line write-backs issued
    std::uint64_t epochsCoalesced = 0; //!< merged by PB coalescing
    std::uint64_t crossDepWaits = 0;
};

/**
 * One persistency model instance (per simulation run).
 */
class PersistModel
{
  public:
    explicit PersistModel(const SimParams &params)
        : params_(params),
          device_(std::make_unique<PmDeviceModel>(
              params.device, params.persistentWriteQueue))
    {
    }
    virtual ~PersistModel() = default;

    /** A PM store by @p core touching @p line. Returns stall cycles. */
    virtual std::uint64_t onPmStore(unsigned core, LineAddr line) = 0;

    /** A non-temporal PM store (bypasses the cache). */
    virtual std::uint64_t onPmNtStore(unsigned core,
                                      LineAddr line) = 0;

    /** A clwb of @p line. */
    virtual std::uint64_t onFlush(unsigned core, LineAddr line) = 0;

    /** An sfence of the given kind. */
    virtual std::uint64_t onFence(unsigned core,
                                  trace::FenceKind kind) = 0;

    /** @p to gained write ownership of a line @p from had modified. */
    virtual void
    onOwnershipTransfer(unsigned from, unsigned to, LineAddr line)
    {
        (void)from;
        (void)to;
        (void)line;
    }

    /** An LLC miss on a PM @p line (PB back ends may hold it). */
    virtual std::uint64_t
    onLlcMiss(unsigned core, LineAddr line)
    {
        (void)core;
        (void)line;
        return 0;
    }

    /** Drain everything at the end of the run. Returns stall cycles. */
    virtual std::uint64_t finish(unsigned core) = 0;

    const PersistStats &stats() const { return stats_; }

    /** The PM device behind this model (the Simulator charges PM
     *  line fills through it so device pressure reaches the MC
     *  path too). */
    PmDeviceModel &device() { return *device_; }
    const PmDeviceModel &device() const { return *device_; }

  protected:
    /** Cycles until one line's write is durable. */
    std::uint64_t
    persistLatency() const
    {
        return device_->persistLatency();
    }

    SimParams params_;
    PersistStats stats_;
    std::unique_ptr<PmDeviceModel> device_;
};

/** Factory helpers. */
std::unique_ptr<PersistModel> makeX86Model(const SimParams &params);
std::unique_ptr<PersistModel> makeHopsModel(const SimParams &params);
std::unique_ptr<PersistModel> makeIdealModel(const SimParams &params);

} // namespace whisper::sim

#endif // WHISPER_SIM_PERSIST_MODEL_HH
