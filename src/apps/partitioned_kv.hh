/**
 * @file
 * The generated-workload surface of the partitioned KV apps
 * (mod-hashmap, mod-vector, halo-hashmap), written once over their
 * store hooks.
 *
 * MOD and the Halo store share one shape: thread @p tid owns its
 * partition of the key space and writes it single-writer, with a
 * batched durability point every kDurabilityInterval ops. An app
 * supplies read/write (and erase, where it deletes) of one key, its
 * layer's durability point and thread exit; this base adds the
 * suite's per-op DRAM padding, the cadence, the preload and the
 * hash maps' run() script.
 */

#ifndef WHISPER_APPS_PARTITIONED_KV_HH
#define WHISPER_APPS_PARTITIONED_KV_HH

#include <vector>

#include "common/rng.hh"
#include "core/app.hh"

namespace whisper::apps
{

class PartitionedKvApp : public core::WhisperApp
{
  public:
    /** Ops between durability points. */
    static constexpr std::uint64_t kDurabilityInterval = 16;

    /** @{ \name Generated-workload surface
     * Every op but probe pads first and counts towards the thread's
     * next durability point. */
    bool
    workloadGet(pm::PmContext &ctx, ThreadId tid,
                std::uint64_t key) override
    {
        pad(ctx, tid);
        std::uint64_t value = 0;
        const bool found = read(ctx, tid, key, value);
        opDone(ctx, tid);
        return found;
    }

    void
    workloadPut(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t value) override
    {
        pad(ctx, tid);
        write(ctx, tid, key, value);
        opDone(ctx, tid);
    }

    bool
    workloadRmw(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                std::uint64_t delta) override
    {
        pad(ctx, tid);
        std::uint64_t value = 0;
        const bool found = read(ctx, tid, key, value);
        write(ctx, tid, key, value + delta);
        opDone(ctx, tid);
        return found;
    }

    std::uint64_t
    workloadScan(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                 std::uint64_t len) override
    {
        pad(ctx, tid);
        std::uint64_t found = 0;
        std::uint64_t value = 0;
        for (std::uint64_t j = 0; j < len; j++) {
            if (read(ctx, tid, wlMap_.scanKey(tid, key, j), value))
                found++;
        }
        opDone(ctx, tid);
        return found;
    }

    bool
    workloadProbe(pm::PmContext &ctx, ThreadId tid, std::uint64_t key,
                  std::uint64_t &value) override
    {
        return read(ctx, tid, key, value);
    }

    bool
    workloadRemove(pm::PmContext &ctx, ThreadId tid,
                   std::uint64_t key) override
    {
        pad(ctx, tid);
        const bool found = erase(ctx, tid, key);
        opDone(ctx, tid);
        return found;
    }

    void
    workloadThreadDone(pm::PmContext &ctx, ThreadId tid) override
    {
        threadExit(ctx, tid);
    }

    core::VerifyReport
    workloadCheck(core::Runtime &rt) override
    {
        return verify(rt);
    }

    bool supportsLincheck() const override { return true; }
    /** @} */

  protected:
    using WhisperApp::WhisperApp;

    /** @{ \name Store hooks (keys are workload keys of @p tid) */
    /** Value of @p key into @p value (untouched when absent); found. */
    virtual bool read(pm::PmContext &ctx, ThreadId tid,
                      std::uint64_t key, std::uint64_t &value) = 0;

    /** Durable insert-or-update of @p key := @p value. */
    virtual void write(pm::PmContext &ctx, ThreadId tid,
                       std::uint64_t key, std::uint64_t value) = 0;

    /** Durable delete of @p key; returns whether it was present.
     *  Apps that override it answer workloadHasRemove() with true. */
    virtual bool
    erase(pm::PmContext &ctx, ThreadId tid, std::uint64_t key)
    {
        return WhisperApp::workloadRemove(ctx, tid, key);
    }

    virtual void durabilityPoint(pm::PmContext &ctx, ThreadId tid) = 0;
    virtual void threadExit(pm::PmContext &ctx, ThreadId tid) = 0;
    /** @} */

    /** Adopt @p map: per-thread padding buffers and op counters. */
    void
    startWorkload(const core::WorkloadKeymap &map)
    {
        wlMap_ = map;
        scratch_.assign(config_.threads,
                        std::vector<std::uint64_t>(2048));
        wlOps_.assign(config_.threads, 0);
    }

    /** Write k * golden ratio to every loaded key k, with the
     *  cadence's durability points and one after each thread's last. */
    void
    preload(core::Runtime &rt)
    {
        for (unsigned t = 0; t < wlMap_.threads; t++) {
            pm::PmContext &ctx = rt.ctx(t);
            const ThreadId tid = static_cast<ThreadId>(t);
            for (std::uint64_t i = 0; i < wlMap_.perThread(); i++) {
                const std::uint64_t key = wlMap_.lo(tid) + i;
                write(ctx, tid, key, key * 0x9e3779b97f4a7c15ull);
                if ((i + 1) % kDurabilityInterval == 0)
                    durabilityPoint(ctx, tid);
            }
            durabilityPoint(ctx, tid);
        }
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
     * run() of the hash maps: per op a DRAM burst, then with
     * probability 0.1 @p remove of one of the thread's own inserts,
     * else @p put (key, three random words) → key was new, over a
     * keyspace small enough that keys repeat; the cadence's
     * durability points, then threadExit. @p seed_mul is the app's
     * Rng seed multiplier.
     */
    template <class Put, class Remove>
    void
    runHashmap(pm::PmContext &ctx, ThreadId tid, std::uint64_t seed_mul,
               Put &&put, Remove &&remove)
    {
        Rng rng(config_.seed * seed_mul + tid);
        const std::uint64_t keyspace = config_.opsPerThread + 64;
        std::vector<std::uint64_t> inserted;
        inserted.reserve(config_.opsPerThread);

        for (std::uint64_t op = 0; op < config_.opsPerThread; op++) {
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
                durabilityPoint(ctx, tid);
        }
        threadExit(ctx, tid);
    }

    core::WorkloadKeymap wlMap_;

  private:
    void
    pad(pm::PmContext &ctx, ThreadId tid)
    {
        padOver(ctx, scratch_[tid].data());
    }

    void
    opDone(pm::PmContext &ctx, ThreadId tid)
    {
        if (++wlOps_[tid] % kDurabilityInterval == 0)
            durabilityPoint(ctx, tid);
    }

    std::vector<std::vector<std::uint64_t>> scratch_;
    std::vector<std::uint64_t> wlOps_;
};

} // namespace whisper::apps

#endif // WHISPER_APPS_PARTITIONED_KV_HH
