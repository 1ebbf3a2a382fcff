/**
 * @file
 * The per-client instance recipe, written once for every suite app:
 * each workload client gets its own instance of the paper run's
 * structure, plus the recovery hooks of the layers under them.
 *
 * The paper run formats one instance over the whole pool for
 * config_.threads threads (setup()). A generated workload formats one
 * single-lane instance per client at PoolSlices::base(t) and preloads
 * the client's partition (setupPartitions()). The post-run check runs,
 * for every shard, the app's structure check and then its layer's
 * check, all through rt.ctx(0), and with several clients reports
 * each failure as "shard t: why" (workloadCheck()). The crash path
 * runs over every instance likewise.
 *
 * An app supplies its format routine, its preload and its named
 * structure check. A layer base (NvmlApp, MneApp, PmfsApp, ModApp)
 * supplies the recovery, scrub and check of one instance; echo,
 * N-store and halo-hashmap write their own.
 */

#ifndef WHISPER_APPS_INSTANCE_APP_HH
#define WHISPER_APPS_INSTANCE_APP_HH

#include <string>
#include <vector>

#include "core/app.hh"

namespace whisper::apps
{

template <class Instance>
class InstanceApp : public core::WhisperApp
{
  public:
    /** The paper run's one instance over the whole pool. */
    void
    setup(core::Runtime &rt) override
    {
        inst_.clear();
        inst_.push_back(format(rt.ctx(0), 0, config_.poolBytes, false));
    }

    core::VerifyReport
    verify(core::Runtime &rt) override
    {
        return checkEach(rt, [this](auto &ctx, auto &inst, auto &rep) {
            checkStructure(ctx, inst, true, rep);
        });
    }

    void
    recover(core::Runtime &rt) final
    {
        for (Instance &inst : inst_)
            recoverInstance(rt.ctx(0), inst);
    }

    core::VerifyReport
    verifyRecovered(core::Runtime &rt) override
    {
        return checkEach(rt, [this](auto &ctx, auto &inst, auto &rep) {
            checkStructure(ctx, inst, false, rep);
        });
    }

    core::VerifyReport
    checkRecoveryInvariants(core::Runtime &rt) override
    {
        return checkEach(rt, [this](auto &ctx, auto &inst, auto &rep) {
            checkLayer(ctx, inst, rep);
        });
    }

    core::VerifyReport
    workloadCheck(core::Runtime &rt) override
    {
        return checkEach(rt, [this](auto &ctx, auto &inst, auto &rep) {
            checkShard(ctx, inst, rep);
        });
    }

  protected:
    /** Workload slices must exceed @p min_slice_bytes. */
    InstanceApp(const core::AppConfig &config, std::size_t min_slice_bytes)
        : WhisperApp(config), minSliceBytes_(min_slice_bytes)
    {
    }

    /**
     * An empty instance over [@p base, @p base + @p bytes): with
     * @p workload a workload client's, else the paper run's (see
     * lanes()).
     */
    virtual Instance format(pm::PmContext &ctx, Addr base,
                            std::size_t bytes, bool workload) = 0;

    /** Load client @p tid's partition of wlMap_ into inst_[tid]. */
    virtual void preload(pm::PmContext &ctx, ThreadId tid) = 0;

    /** The layer's recovery of @p inst after a crash. */
    virtual void recoverInstance(pm::PmContext &ctx, Instance &inst) = 0;

    /**
     * The layer's media scrub of @p inst (see scrubLayer()): repair
     * or degrade the @p lines inside it and erase them.
     */
    virtual void scrubInstance(pm::PmContext &ctx, Instance &inst,
                               std::vector<LineAddr> &lines,
                               core::VerifyReport &rep) = 0;

    /**
     * The app's named structure check of @p inst: after a clean run
     * with @p clean, else after crash + recover.
     */
    virtual void checkStructure(pm::PmContext &ctx, Instance &inst,
                                bool clean, core::VerifyReport &rep) = 0;

    /** The layer's recovery invariants of @p inst. Default: none. */
    virtual void
    checkLayer(pm::PmContext &ctx, Instance &inst, core::VerifyReport &rep)
    {
        (void)ctx;
        (void)inst;
        (void)rep;
    }

    /** Clean-run check of one workload shard: structure, then layer. */
    virtual void
    checkShard(pm::PmContext &ctx, Instance &inst, core::VerifyReport &rep)
    {
        checkStructure(ctx, inst, true, rep);
        checkLayer(ctx, inst, rep);
    }

    /** Threads an instance serves: the paper run's all, a client one. */
    unsigned
    lanes(bool workload) const
    {
        return workload ? 1 : config_.threads;
    }

    void
    setupPartitions(core::Runtime &rt,
                    const core::WorkloadKeymap &map) final
    {
        wlMap_ = map;
        inst_.clear();
        const core::PoolSlices slices(config_.poolBytes, map.threads,
                                      minSliceBytes_, name().c_str());
        for (unsigned t = 0; t < map.threads; t++) {
            inst_.push_back(
                format(rt.ctx(t), slices.base(t), slices.bytes, true));
            preload(rt.ctx(t), static_cast<ThreadId>(t));
        }
    }

    void
    scrubLayer(core::Runtime &rt, std::vector<LineAddr> &lines,
               core::VerifyReport &rep) final
    {
        for (Instance &inst : inst_)
            scrubInstance(rt.ctx(0), inst, lines, rep);
    }

    /**
     * The paper run's one instance over the whole pool (setup()), or
     * one instance per workload client (setupPartitions()).
     */
    std::vector<Instance> inst_;
    core::WorkloadKeymap wlMap_;

  private:
    /**
     * @p check of every instance through rt.ctx(0); with several
     * instances each failure reads "shard t: why".
     */
    template <class Check>
    core::VerifyReport
    checkEach(core::Runtime &rt, Check &&check)
    {
        core::VerifyReport rep = report();
        if (inst_.size() == 1) {
            check(rt.ctx(0), inst_[0], rep);
            return rep;
        }
        for (unsigned t = 0; t < inst_.size(); t++) {
            core::VerifyReport shard = report();
            check(rt.ctx(0), inst_[t], shard);
            for (const core::VerifyViolation &v : shard.violations())
                rep.fail(v.invariant,
                         "shard " + std::to_string(t) + ": " + v.detail);
        }
        return rep;
    }

    const std::size_t minSliceBytes_;
};

/**
 * The logging libraries' hooks on every instance's library object
 * @p Lib: NVML's undo-logging NvmlPool, Mnemosyne's redo-logging
 * MnemosyneHeap. Recovery rolls each instance's logs back or
 * forward, the layer check requires every log slot retired
 * ("logs-quiescent"), and the scrub repairs what the library's
 * redundancy allows.
 */
template <class Instance, auto Lib, core::AccessLayer Layer>
class LogLibApp : public InstanceApp<Instance>
{
  public:
    core::AccessLayer layer() const override { return Layer; }

  protected:
    using InstanceApp<Instance>::InstanceApp;

    void
    recoverInstance(pm::PmContext &ctx, Instance &inst) override
    {
        (inst.*Lib)->recover(ctx);
    }

    void
    checkLayer(pm::PmContext &ctx, Instance &inst,
               core::VerifyReport &rep) override
    {
        std::string why;
        rep.check((inst.*Lib)->logsQuiescent(ctx, &why), "logs-quiescent",
                  why);
    }

    void
    scrubInstance(pm::PmContext &ctx, Instance &inst,
                  std::vector<LineAddr> &lines,
                  core::VerifyReport &rep) override
    {
        (inst.*Lib)->scrub(ctx, lines, rep);
    }
};

template <class Instance>
using NvmlApp =
    LogLibApp<Instance, &Instance::pool, core::AccessLayer::LibNvml>;

template <class Instance>
using MneApp =
    LogLibApp<Instance, &Instance::heap, core::AccessLayer::LibMnemosyne>;

/**
 * The PMFS layer's hooks on every instance's volume `fs`: recovery
 * mounts the volume (journal rollback), the layer check requires
 * the journal retired ("journal-quiescent") and the volume fsck-clean
 * ("fsck").
 */
template <class Instance>
class PmfsApp : public InstanceApp<Instance>
{
  public:
    core::AccessLayer
    layer() const override
    {
        return core::AccessLayer::Filesystem;
    }

  protected:
    using InstanceApp<Instance>::InstanceApp;

    void
    recoverInstance(pm::PmContext &ctx, Instance &inst) override
    {
        inst.fs->mount(ctx);
    }

    void
    checkLayer(pm::PmContext &ctx, Instance &inst,
               core::VerifyReport &rep) override
    {
        std::string why;
        rep.check(inst.fs->journalQuiescent(ctx, &why),
                  "journal-quiescent", why);
        why.clear();
        rep.check(inst.fs->fsck(ctx, &why), "fsck", why);
    }

    /**
     * A clean run leaves the journal descriptor COMMITTED (commit is
     * lazy about the FREE transition), so a shard is mounted first,
     * as recovery does. Its journal is checked before the structure:
     * a file read may journal an atime update (relatime).
     */
    void
    checkShard(pm::PmContext &ctx, Instance &inst,
               core::VerifyReport &rep) override
    {
        inst.fs->mount(ctx);
        checkLayer(ctx, inst, rep);
        this->checkStructure(ctx, inst, true, rep);
    }

    void
    scrubInstance(pm::PmContext &ctx, Instance &inst,
                  std::vector<LineAddr> &lines,
                  core::VerifyReport &rep) override
    {
        inst.fs->scrub(ctx, lines, rep);
    }
};

} // namespace whisper::apps

#endif // WHISPER_APPS_INSTANCE_APP_HH
