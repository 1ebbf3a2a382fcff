/**
 * @file
 * Primitive probes of the traced run, one layer at a time.
 *
 * Each probe times a loop of one public call from outside and reports
 * the median over a few repetitions of the per-call wall time. They
 * run only in the traced run; the end-to-end numbers never include
 * them.
 */

#include <algorithm>
#include <functional>
#include <memory>

#include "bench.hh"
#include "alloc/buddy_alloc.hh"
#include "alloc/nvml_alloc.hh"
#include "alloc/slab_alloc.hh"
#include "core/app.hh"
#include "core/runtime.hh"
#include "txlib/mnemosyne.hh"
#include "txlib/nvml.hh"
#include "workload/keydist.hh"

namespace perfbench
{

using namespace whisper;

namespace
{

/**
 * Median over @p reps of (wall ns of @p body) / @p per_rep calls.
 * @p between runs untimed after each repetition.
 */
double
perCallNs(Tracer &tracer, const char *span, unsigned reps,
          std::uint64_t per_rep, const std::function<void()> &body,
          const std::function<void()> &between = {})
{
    std::vector<double> v;
    for (unsigned r = 0; r < reps; r++) {
        Span s(tracer, 0, span);
        body();
        v.push_back(static_cast<double>(s.close()) /
                    static_cast<double>(per_rep));
        if (between)
            between();
    }
    return median(v);
}

/** The pm store/flush/fence/load/vBurst loops on 1 and 4 threads. */
void
probePm(std::size_t pool_bytes, unsigned reps, std::uint64_t iters,
        Tracer &tracer, Report &rep)
{
    constexpr unsigned kThreads = 4;
    core::Runtime rt(pool_bytes, kThreads);
    // Each thread strides 8-byte accesses over its own region, one
    // line apart, wrapping inside it.
    const std::size_t region =
        std::min<std::size_t>(std::size_t(16) << 20,
                              pool_bytes / kThreads) & ~std::size_t(63);
    std::vector<std::vector<std::uint8_t>> scratch(
        kThreads, std::vector<std::uint8_t>(1 << 14));

    using Loop = std::function<void(pm::PmContext &, Addr)>;
    auto run = [&](const char *name, const Loop &loop,
                   std::uint64_t n) {
        auto clear = [&rt] { rt.clearTraces(); };
        rep.set(name,
                perCallNs(tracer, "pm.probe_t1", reps, n,
                          [&] { loop(rt.ctx(0), 0); }, clear),
                reps);
        rep.set(std::string(name) + ".t4",
                perCallNs(tracer, "pm.probe_t4", reps, n,
                          [&] {
                              rt.runThreads(kThreads,
                                            [&](pm::PmContext &ctx,
                                                ThreadId tid) {
                                                loop(ctx, tid * region);
                                            });
                          },
                          clear),
                reps);
    };

    const std::uint64_t v = 1;
    run("pm.store_ns",
        [&](pm::PmContext &ctx, Addr base) {
            for (std::uint64_t i = 0; i < iters; i++)
                ctx.store(base + (i * 64) % region, &v, 8);
        },
        iters);
    run("pm.sff_ns",
        [&](pm::PmContext &ctx, Addr base) {
            for (std::uint64_t i = 0; i < iters; i++) {
                const Addr off = base + (i * 64) % region;
                ctx.store(off, &v, 8);
                ctx.flush(off, 8);
                ctx.fence(pm::FenceKind::Ordering);
            }
        },
        iters);
    run("pm.load_ns",
        [&](pm::PmContext &ctx, Addr base) {
            std::uint64_t x = 0;
            for (std::uint64_t i = 0; i < iters; i++)
                ctx.load(base + (i * 64) % region, &x, 8);
        },
        iters);
    // The hashmap app's per-op padding shape.
    const std::uint64_t bursts = std::max<std::uint64_t>(1, iters / 100);
    run("pm.vburst_ns",
        [&](pm::PmContext &ctx, Addr) {
            std::vector<std::uint8_t> &buf = scratch[ctx.tid()];
            for (std::uint64_t i = 0; i < bursts; i++)
                ctx.vBurst(buf.data(), buf.size(), 560, 240);
        },
        bursts);
}

/** Runtime::crash on a fuzz-sized pool after one hashmap run. */
double
probeCrash(std::uint64_t seed, unsigned reps, Tracer &tracer)
{
    std::vector<double> v;
    for (unsigned r = 0; r < reps; r++) {
        core::AppConfig cfg;
        cfg.threads = 1;
        cfg.opsPerThread = 200;
        cfg.seed = seed;
        cfg.poolBytes = fuzzPoolBytes();
        core::Runtime rt(cfg.poolBytes, 1);
        std::unique_ptr<core::WhisperApp> app =
            core::createApp("hashmap", cfg);
        app->setup(rt);
        rt.runThreads(1, [&](pm::PmContext &ctx, ThreadId tid) {
            app->run(rt, ctx, tid);
        });
        Span s(tracer, 0, "pm.crash");
        rt.crash(seed + r, 0.5);
        v.push_back(s.seconds() * 1e3);
    }
    return median(v);
}

/** Alloc + free of 64 B in batches of 1024; ns per pair. */
template <typename Heap>
double
probeAlloc(Heap &heap, pm::PmContext &ctx, unsigned reps,
           unsigned batches, const char *span, Tracer &tracer)
{
    std::vector<Addr> live(1024);
    return perCallNs(tracer, span, reps,
                     std::uint64_t(batches) * live.size(), [&] {
                         for (unsigned b = 0; b < batches; b++) {
                             for (Addr &a : live)
                                 a = heap.alloc(ctx, 64);
                             for (const Addr a : live)
                                 heap.free(ctx, a);
                         }
                     });
}

} // namespace

Report
runProbes(std::size_t pool_bytes, unsigned threads,
          const RunOptions &opt, Tracer &tracer)
{
    Report rep;
    const unsigned reps = opt.tiny ? 2 : 5;
    const std::uint64_t iters = opt.tiny ? 20000 : 200000;
    Span all(tracer, 0, "bench.probes");

    {
        std::vector<double> v;
        for (unsigned r = 0; r < reps; r++) {
            std::unique_ptr<core::Runtime> rt;
            Span s(tracer, 0, "core.runtime_ctor");
            rt = std::make_unique<core::Runtime>(pool_bytes, threads);
            v.push_back(s.seconds() * 1e3);
            Span t(tracer, 0, "bench.teardown");
            rt.reset();
        }
        rep.set("core.runtime_ctor_ms", median(v), reps);
    }

    probePm(pool_bytes, reps, iters, tracer, rep);
    rep.set("pm.crash_ms", probeCrash(opt.seed, opt.tiny ? 1 : 3, tracer),
            opt.tiny ? 1 : 3);

    {
        core::Runtime rt(std::size_t(64) << 20, 1);
        pm::PmContext &ctx = rt.ctx(0);
        const unsigned batches = opt.tiny ? 2 : 8;
        alloc::NvmlAllocator nvml(ctx, alloc::NvmlAllocator::logBytes(),
                                  32 << 20, 0);
        rep.set("alloc.nvml_alloc_ns",
                probeAlloc(nvml, ctx, reps, batches, "alloc.nvml", tracer),
                reps);
        rt.clearTraces();
        alloc::SlabAllocator slab(ctx, 40 << 20, 16 << 20);
        rep.set("alloc.slab_alloc_ns",
                probeAlloc(slab, ctx, reps, batches, "alloc.slab", tracer),
                reps);
        rt.clearTraces();
    }
    {
        core::Runtime rt(std::size_t(64) << 20, 1);
        pm::PmContext &ctx = rt.ctx(0);
        alloc::BuddyAllocator buddy(ctx, 0, 32 << 20);
        rep.set("alloc.buddy_alloc_ns",
                probeAlloc(buddy, ctx, reps, opt.tiny ? 2 : 8,
                           "alloc.buddy", tracer),
                reps);
    }

    const std::uint64_t txIters = opt.tiny ? 2000 : 20000;
    {
        core::Runtime rt(std::size_t(64) << 20, 1);
        pm::PmContext &ctx = rt.ctx(0);
        nvml::NvmlPool pool(ctx, 0, 48 << 20, 1);
        Addr obj = 0;
        {
            nvml::TxContext tx(pool, ctx);
            obj = tx.txAlloc(64);
            tx.commit();
        }
        auto *cell = ctx.pool().at<std::uint64_t>(obj);
        rep.set("txlib.nvml_tx_ns",
                perCallNs(tracer, "txlib.nvml_tx", reps, txIters,
                          [&] {
                              for (std::uint64_t i = 0; i < txIters; i++) {
                                  nvml::TxContext tx(pool, ctx);
                                  tx.set(*cell, *cell + 1);
                                  tx.commit();
                              }
                          },
                          [&] { rt.clearTraces(); }),
                reps);
    }
    {
        core::Runtime rt(std::size_t(64) << 20, 1);
        pm::PmContext &ctx = rt.ctx(0);
        mne::MnemosyneHeap heap(ctx, 0, 48 << 20, 1);
        const Addr obj = heap.pmalloc(ctx, 64);
        std::uint64_t v = 0;
        rep.set("txlib.mne_tx_ns",
                perCallNs(tracer, "txlib.mne_tx", reps, txIters,
                          [&] {
                              for (std::uint64_t i = 0; i < txIters; i++) {
                                  mne::Transaction tx(heap, ctx);
                                  tx.update(obj, &v, 8);
                                  tx.commit();
                                  v++;
                              }
                          },
                          [&] { rt.clearTraces(); }),
                reps);
    }
    {
        core::WorkloadKeymap map;
        map.keys = 100000;
        map.threads = 4;
        workload::KeyChooser chooser(workload::KeyDist::Zipfian, map, 0,
                                     0.99);
        Rng rng(opt.seed);
        const std::uint64_t draws = opt.tiny ? 100000 : 1000000;
        std::uint64_t sink = 0;
        rep.set("workload.keygen_ns",
                perCallNs(tracer, "workload.keygen", reps, draws, [&] {
                    for (std::uint64_t i = 0; i < draws; i++)
                        sink += chooser.next(rng);
                }),
                reps);
        rep.check("probes.keygen_in_partition",
                  sink <= draws * reps * map.perThread());
    }
    return rep;
}

} // namespace perfbench
