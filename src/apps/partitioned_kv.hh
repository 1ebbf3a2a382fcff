/**
 * @file
 * The generated-workload surface of the partitioned KV apps
 * (mod-hashmap, mod-vector, halo-hashmap), written once over their
 * store hooks on top of the per-client instance recipe
 * (instance_app.hh).
 *
 * MOD and the Halo store share one shape: each lane owns its
 * partition of the key space and writes it single-writer, with a
 * batched durability point every kDurabilityInterval ops. A workload
 * client's calls land on lane 0 of its own instance, where its keys
 * need no partition bits. An app supplies read/write (and erase,
 * where it deletes) of one key, its layer's durability point and
 * thread exit; this base adds the suite's per-op DRAM padding, the
 * cadence, the preload and the hash maps' run() script.
 */

#ifndef WHISPER_APPS_PARTITIONED_KV_HH
#define WHISPER_APPS_PARTITIONED_KV_HH

#include <vector>

#include "apps/instance_app.hh"
#include "common/rng.hh"

namespace whisper::apps
{

template <class Instance>
class PartitionedKvApp : public InstanceApp<Instance>
{
  public:
    /** Ops between durability points. */
    static constexpr std::uint64_t kDurabilityInterval = 16;

    /** @{ \name Generated-workload surface
     * Every op but probe pads first and counts towards the client's
     * next durability point. */
    bool
    workloadGet(pm::PmContext &ctx, ThreadId tid,
                std::uint64_t key) override
    {
        padOver(ctx, this);
        std::uint64_t value = 0;
        const bool found = read(ctx, this->inst_[tid], tid, key, value);
        opDone(ctx, tid);
        return found;
    }

    void
    workloadPut(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t value) override
    {
        padOver(ctx, this);
        write(ctx, this->inst_[tid], tid, key, value);
        opDone(ctx, tid);
    }

    bool
    workloadRmw(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t delta) override
    {
        padOver(ctx, this);
        Instance &inst = this->inst_[tid];
        std::uint64_t value = 0;
        const bool found = read(ctx, inst, tid, key, value);
        write(ctx, inst, tid, key, value + delta);
        opDone(ctx, tid);
        return found;
    }

    std::uint64_t
    workloadScan(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                 std::uint64_t len) override
    {
        padOver(ctx, this);
        std::uint64_t found = 0;
        std::uint64_t value = 0;
        for (std::uint64_t j = 0; j < len; j++) {
            if (read(ctx, this->inst_[tid], tid,
                     this->wlMap_.scanKey(tid, key, j), value))
                found++;
        }
        opDone(ctx, tid);
        return found;
    }

    bool
    workloadProbe(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                  std::uint64_t &value) override
    {
        return read(ctx, this->inst_[tid], tid, key, value);
    }

    bool
    workloadRemove(pm::PmContext &ctx, ThreadId tid,
                   std::uint64_t key) override
    {
        padOver(ctx, this);
        const bool found = erase(ctx, this->inst_[tid], tid, key);
        opDone(ctx, tid);
        return found;
    }

    void
    workloadThreadDone(pm::PmContext &ctx, ThreadId tid) override
    {
        threadExit(ctx, this->inst_[tid], 0);
    }

    bool supportsLincheck() const override { return true; }
    /** @} */

  protected:
    explicit PartitionedKvApp(const core::AppConfig &config)
        : InstanceApp<Instance>(config, 0), wlOps_(config.threads, 0)
    {
    }

    /** @{ \name Store hooks on client @p tid's instance @p inst
     * (lane 0; keys are workload keys of @p tid) */
    /** Value of @p key into @p value (untouched when absent); found. */
    virtual bool read(pm::PmContext &ctx, Instance &inst, ThreadId tid,
                      std::uint64_t key, std::uint64_t &value) = 0;

    /** Durable insert-or-update of @p key := @p value. */
    virtual void write(pm::PmContext &ctx, Instance &inst, ThreadId tid,
                       std::uint64_t key, std::uint64_t value) = 0;

    /** Durable delete of @p key; returns whether it was present.
     *  Apps that override it answer workloadHasRemove() with true. */
    virtual bool
    erase(pm::PmContext &ctx, Instance &inst, ThreadId tid,
          std::uint64_t key)
    {
        (void)inst;
        return core::WhisperApp::workloadRemove(ctx, tid, key);
    }
    /** @} */

    /** @{ \name Lane hooks: @p lane of @p inst */
    virtual void durabilityPoint(pm::PmContext &ctx, Instance &inst,
                                 ThreadId lane) = 0;
    virtual void threadExit(pm::PmContext &ctx, Instance &inst,
                            ThreadId lane) = 0;
    /** @} */

    /** Write k * golden ratio to every loaded key k of client @p tid,
     *  with the cadence's durability points and one after the last. */
    void
    preload(pm::PmContext &ctx, ThreadId tid) override
    {
        Instance &inst = this->inst_[tid];
        const core::WorkloadKeymap &map = this->wlMap_;
        for (std::uint64_t i = 0; i < map.perThread(); i++) {
            const std::uint64_t key = map.lo(tid) + i;
            write(ctx, inst, tid, key, key * 0x9e3779b97f4a7c15ull);
            if ((i + 1) % kDurabilityInterval == 0)
                durabilityPoint(ctx, inst, 0);
        }
        durabilityPoint(ctx, inst, 0);
    }

    /** A shard's clean check is the paper run's verify(). */
    void
    checkShard(pm::PmContext &ctx, Instance &inst,
               core::VerifyReport &rep) override
    {
        this->checkStructure(ctx, inst, true, rep);
    }

    /** One op's DRAM work over @p buf (paper Fig. 6 proportions). */
    static void
    padOver(pm::PmContext &ctx, const void *buf)
    {
        ctx.vBurst(buf, 1 << 14, 560, 240);
        ctx.compute(6500);
    }

    /** Thread @p tid's key @p k in the store's key space. */
    static std::uint64_t
    partitionKey(ThreadId tid, std::uint64_t k)
    {
        return (static_cast<std::uint64_t>(tid) << 48) | k;
    }

    /**
     * run() of the hash maps over the paper instance: per op a DRAM
     * burst, then with probability 0.1 @p remove of one of the
     * thread's own inserts, else @p put (key, three random words) →
     * key was new, over a keyspace small enough that keys repeat; the
     * cadence's durability points on lane @p tid, then threadExit.
     * @p seed_mul is the app's Rng seed multiplier.
     */
    template <class Put, class Remove>
    void
    runHashmap(pm::PmContext &ctx, ThreadId tid, std::uint64_t seed_mul,
               Put &&put, Remove &&remove)
    {
        const core::AppConfig &cfg = this->config_;
        Instance &inst = this->inst_[0];
        Rng rng(cfg.seed * seed_mul + tid);
        const std::uint64_t keyspace = cfg.opsPerThread + 64;
        std::vector<std::uint64_t> inserted;
        inserted.reserve(cfg.opsPerThread);

        for (std::uint64_t op = 0; op < cfg.opsPerThread; op++) {
            padOver(ctx, inserted.data());
            if (!inserted.empty() && rng.chance(0.1)) {
                const std::size_t idx = rng.next(inserted.size());
                remove(inserted[idx]);
                inserted[idx] = inserted.back();
                inserted.pop_back();
                ctx.vStore(inserted.data() + idx, 8);
            } else {
                const std::uint64_t key =
                    partitionKey(tid, rng.next(keyspace));
                const std::uint64_t vals[3] = {rng(), rng(), rng()};
                if (put(key, vals)) {
                    inserted.push_back(key);
                    ctx.vStore(&inserted.back(), 8);
                }
            }
            if ((op + 1) % kDurabilityInterval == 0)
                durabilityPoint(ctx, inst, tid);
        }
        threadExit(ctx, inst, tid);
    }

  private:
    void
    opDone(pm::PmContext &ctx, ThreadId tid)
    {
        if (++wlOps_[tid] % kDurabilityInterval == 0)
            durabilityPoint(ctx, this->inst_[tid], 0);
    }

    /** Ops each workload client has run. */
    std::vector<std::uint64_t> wlOps_;
};

} // namespace whisper::apps

#endif // WHISPER_APPS_PARTITIONED_KV_HH
