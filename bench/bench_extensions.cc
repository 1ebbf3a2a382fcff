/**
 * @file
 * The post-paper extensions' acceptance floors, in one process.
 *
 * YCSB: mixes A (update-heavy), B (read-heavy) and F
 * (read-modify-write) over one application per access layer — ycsb
 * (native), hashmap (NVML), memcached (Mnemosyne), nfs (PMFS),
 * mod-hashmap (MOD) and halo-hashmap (Hybrid) — with throughput and
 * tail latency from the simulated logical clock. The paper's §5 story
 * retold as service levels: the logging layers pay their write
 * amplification as p99 latency, the MOD layer trades median for
 * tail, and the filesystem's journal batching shows up as the widest
 * p50/p999 spread. Seeds are fixed, clients partitioned and
 * histograms mergeable, but PMFS relatime and MOD grace ripeness
 * read the other clients' progress, so the nfs and mod-hashmap rows
 * can move in the last digit between runs.
 *
 * MOD scaling: update throughput of the striped-commit structures
 * with 1, 2 and 4 writer threads on disjoint keys. Each thread count
 * runs the real concurrent workload (racing writers, CAS commits,
 * per-thread arenas and garbage lanes), then replays the trace
 * through the 4-core timing simulator. Striped threads never share a
 * stripe, so their makespan is the busiest core's cycles; the old
 * design held one mutex across every update's shadow-build/fence/
 * commit, so its makespan is the sum over cores. Both rows come from
 * the same measured per-core costs — only the concurrency model
 * differs, which is exactly the delta under test.
 *
 * Placement: real PM DIMMs service write-backs independently, so a
 * transaction whose flush burst lands on one DIMM serializes on that
 * DIMM's write gap while the others idle (DESIGN.md §13). The same
 * slab transaction workload is recorded with next-fit and with
 * HESH-style DIMM-balanced placement and replayed through the
 * calibrated (optane) device model on 64 KiB chunks across 4 DIMMs.
 * A second table shows the policy at the Halo layer: Sequential
 * placement parks each thread on one DIMM, DimmSpread cycles all
 * four.
 *
 * Exits 1 when a YCSB cell fails verification or a floor breaks:
 *  - halo-hashmap's mix-A throughput >= the NVML hashmap's;
 *  - MOD striped speedup >= 2.5x at 4 threads, mutex rows <= 1.2x;
 *  - the balanced trace's makespan < the naive trace's.
 * WHISPER_OPS scales the YCSB (2000) and MOD (2048) ops per thread.
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "alloc/slab_alloc.hh"
#include "bench/bench_util.hh"
#include "common/dimm.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/runtime.hh"
#include "halo/halo_segment.hh"
#include "mod/mod_hashmap.hh"
#include "mod/mod_heap.hh"
#include "mod/mod_vector.hh"
#include "sim/simulator.hh"
#include "workload/workload.hh"

using namespace whisper;

namespace
{

// ------------------------------------------------------------- YCSB

/** The YCSB table; the Hybrid layer's mix-A floor. */
int
ycsbMixes(double scale)
{
    const std::vector<std::string> apps = {
        "ycsb",        "hashmap",     "memcached",
        "nfs",         "mod-hashmap", "halo-hashmap"};
    const std::vector<char> mixes = {'A', 'B', 'F'};

    TextTable table("YCSB mixes across access layers "
                    "(zipfian, 4 threads, ticks = ns)");
    table.header({"layer", "app", "mix", "ops", "kops/s", "p50",
                  "p99", "p999", "verified"});

    int failures = 0;
    double nvml_mix_a = 0.0;
    double halo_mix_a = 0.0;
    for (const std::string &app : apps) {
        for (const char mix : mixes) {
            workload::WorkloadOptions opts;
            opts.app = app;
            opts.mix = workload::MixSpec::ycsb(mix);
            opts.dist = workload::KeyDist::Zipfian;
            opts.keys = 20000;
            opts.threads = 4;
            opts.opsPerThread = static_cast<std::uint64_t>(2000 * scale);
            const workload::WorkloadResult r =
                workload::runWorkload(opts);
            if (!r.verified) {
                std::fprintf(stderr, "%s mix %c failed:\n%s\n",
                             app.c_str(), mix,
                             r.check.describe().c_str());
                failures++;
            }
            if (mix == 'A' && app == "hashmap")
                nvml_mix_a = r.throughputOpsPerSec();
            if (mix == 'A' && app == "halo-hashmap")
                halo_mix_a = r.throughputOpsPerSec();
            table.row({r.layerName, app, std::string(1, mix),
                       TextTable::num(r.ops.total()),
                       TextTable::fixed(
                           r.throughputOpsPerSec() / 1000.0, 1),
                       TextTable::num(r.latency.quantile(0.50)),
                       TextTable::num(r.latency.quantile(0.99)),
                       TextTable::num(r.latency.quantile(0.999)),
                       r.verified ? "yes" : "NO"});
        }
    }
    table.print();
    if (halo_mix_a < nvml_mix_a) {
        std::fprintf(stderr,
                     "FAIL: halo mix A %.0f ops/s must be >= the "
                     "NVML hashmap's %.0f ops/s\n",
                     halo_mix_a, nvml_mix_a);
        failures++;
    } else {
        std::printf("halo mix A floor enforced: %.0f >= NVML %.0f "
                    "ops/s\n",
                    halo_mix_a, nvml_mix_a);
    }
    std::printf("all cells verified -- %s\n",
                failures ? "FAIL" : "PASS");
    return failures;
}

// ------------------------------------------------------ MOD scaling

struct ScalePoint
{
    std::uint64_t ops;
    std::uint64_t makespanStriped; //!< busiest core, cycles
    std::uint64_t makespanMutex;   //!< sum over cores, cycles
};

/**
 * Every thread performs the same update stream on its own key
 * partition / spine region, so per-thread work is identical at every
 * thread count and the only variable is how much of it may overlap.
 */
ScalePoint
modScalePoint(const std::string &structure, unsigned threads,
              std::uint64_t per_thread)
{
    constexpr std::size_t kPool = 128 << 20;
    constexpr Addr kHeapBase = 64 << 10;
    constexpr std::uint64_t kDurabilityInterval = 16;
    core::Runtime rt(kPool, threads);
    mod::ModHeap heap(rt.ctx(0), kHeapBase, kPool - kHeapBase,
                      threads);

    if (structure == "mod-hashmap") {
        mod::ModHashmap map(rt.ctx(0), heap, 0, 256 * threads,
                            threads);
        rt.clearTraces();
        rt.runThreads(threads, [&](pm::PmContext &ctx, ThreadId tid) {
            for (std::uint64_t i = 0; i < per_thread; i++) {
                const std::uint64_t key =
                    (static_cast<std::uint64_t>(tid) << 48) |
                    (i * 2654435761u % 1024);
                const std::uint64_t vals[3] = {tid, i, key};
                bool inserted = false;
                if (!map.put(ctx, tid, key, vals, inserted))
                    panic("mod heap exhausted");
                if (i % kDurabilityInterval == kDurabilityInterval - 1)
                    heap.durabilityPoint(ctx, tid);
            }
            heap.threadExit(ctx, tid);
        });
    } else {
        mod::ModVector vec(rt.ctx(0), heap, 0,
                           threads * mod::ModVector::kSlotsPerStripe);
        rt.clearTraces();
        rt.runThreads(threads, [&](pm::PmContext &ctx, ThreadId tid) {
            const std::uint64_t base =
                tid * mod::ModVector::kSlotsPerStripe;
            for (std::uint64_t i = 0; i < per_thread; i++) {
                const std::uint64_t slot =
                    base + i * 2654435761u %
                               mod::ModVector::kSlotsPerStripe;
                const std::uint64_t vals[8] = {tid, i, slot};
                if (!vec.write(ctx, tid, slot, 0, vals, 8, 8))
                    panic("mod heap exhausted");
                if (i % kDurabilityInterval == kDurabilityInterval - 1)
                    heap.durabilityPoint(ctx, tid);
            }
            heap.threadExit(ctx, tid);
        });
    }

    // Default params: every scale point sees the same device.
    const sim::SimParams params;
    sim::Simulator simulator(params, sim::ModelKind::X86Nvm);
    const sim::SimResult result = simulator.run(rt.traces());
    ScalePoint point{per_thread * threads, 0, 0};
    for (const std::uint64_t c : result.coreCycles) {
        point.makespanStriped = std::max(point.makespanStriped, c);
        point.makespanMutex += c;
    }
    return point;
}

double
opsPerKcycle(std::uint64_t ops, std::uint64_t cycles)
{
    return cycles ? 1000.0 * static_cast<double>(ops) /
                        static_cast<double>(cycles)
                  : 0.0;
}

/** The MOD scaling table; the striped and mutex floors at 4 threads. */
int
modScaling(double scale)
{
    const auto ops = static_cast<std::uint64_t>(2048 * scale);
    TextTable table("MOD update throughput scaling (disjoint keys)");
    table.header({"structure", "threads", "updates",
                  "striped ops/kcyc", "striped speedup",
                  "mutex ops/kcyc", "mutex speedup"});

    int failures = 0;
    for (const char *structure : {"mod-hashmap", "mod-vector"}) {
        double base_striped = 0.0, base_mutex = 0.0;
        for (const unsigned threads : {1u, 2u, 4u}) {
            const ScalePoint p = modScalePoint(structure, threads, ops);
            const double striped =
                opsPerKcycle(p.ops, p.makespanStriped);
            const double mutex = opsPerKcycle(p.ops, p.makespanMutex);
            if (threads == 1) {
                base_striped = striped;
                base_mutex = mutex;
            }
            const double sp_striped =
                base_striped > 0 ? striped / base_striped : 0.0;
            const double sp_mutex =
                base_mutex > 0 ? mutex / base_mutex : 0.0;
            table.row({structure, std::to_string(threads),
                       TextTable::num(p.ops),
                       TextTable::fixed(striped, 2),
                       TextTable::fixed(sp_striped, 2) + "x",
                       TextTable::fixed(mutex, 2),
                       TextTable::fixed(sp_mutex, 2) + "x"});
            if (threads == 4) {
                if (sp_striped < 2.5) {
                    std::fprintf(stderr,
                                 "%s: striped speedup %.2fx at 4 "
                                 "threads is below the 2.5x floor\n",
                                 structure, sp_striped);
                    failures++;
                }
                if (sp_mutex > 1.2) {
                    std::fprintf(stderr,
                                 "%s: mutex baseline %.2fx at 4 "
                                 "threads should stay flat\n",
                                 structure, sp_mutex);
                    failures++;
                }
            }
        }
    }
    table.print();
    std::printf("floor: striped >= 2.50x and mutex <= 1.20x at 4 "
                "threads -- %s\n", failures ? "FAIL" : "PASS");
    return failures;
}

// -------------------------------------------------------- placement

/** Coarse interleave: 1024-line (64 KiB) chunks across 4 DIMMs. */
const DimmConfig kDimms{4, 1024};
constexpr std::size_t kPlacementPool = 64 << 20;

struct SlabVariant
{
    sim::SimResult sim;
    std::uint64_t allocs;
    std::array<std::uint64_t, kMaxDimms> live;
};

/**
 * Record the slab transaction workload: 240 transactions, each
 * allocating 8 64-byte blocks, filling and flushing each, then
 * committing with one durability fence. Transactions round-robin
 * over 4 contexts, recorded sequentially so both variants see the
 * identical global order.
 */
SlabVariant
slabVariant(bool balanced, const sim::SimParams &params)
{
    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kBlocksPerTx = 8;
    core::Runtime rt(kPlacementPool, kThreads);
    alloc::SlabAllocator slab(rt.ctx(0), 1 << 20, 16 << 20);
    if (balanced)
        slab.enableDimmBalance(kDimms);
    rt.clearTraces(); // drop the formatting stores

    for (std::uint64_t tx = 0; tx < 240; tx++) {
        pm::PmContext &ctx = rt.ctx(tx % kThreads);
        Addr blocks[kBlocksPerTx];
        for (std::uint64_t b = 0; b < kBlocksPerTx; b++) {
            blocks[b] = slab.alloc(ctx, 64);
            panic_if(blocks[b] == kNullAddr, "slab exhausted");
        }
        std::uint64_t payload[8] = {tx};
        for (std::uint64_t b = 0; b < kBlocksPerTx; b++) {
            payload[1] = b;
            ctx.store(blocks[b], payload, sizeof(payload));
            ctx.flush(blocks[b], 64);
        }
        ctx.fence(pm::FenceKind::Durability);
    }

    sim::Simulator simulator(params, sim::ModelKind::X86Nvm);
    return {simulator.run(rt.traces()), slab.stats().allocs,
            slab.dimmLiveBlocks()};
}

/** Halo placement demo: two threads each open 8 of their segments. */
std::vector<std::string>
haloUsageRow(const char *name,
             halo::HaloSegmentAllocator::Placement placement)
{
    core::Runtime rt(kPlacementPool, 2);
    halo::HaloSegmentAllocator::Config config;
    config.base = 0;
    config.bytes = 64 * halo::kSegmentBytes;
    config.threads = 2;
    config.placement = placement;
    config.dimms = kDimms;
    halo::HaloSegmentAllocator alloc(config);

    const std::uint64_t appends = 8 * halo::kRecordsPerSegment;
    for (ThreadId tid = 0; tid < 2; tid++) {
        for (std::uint64_t i = 0; i < appends; i++) {
            bool sealed = false;
            const Addr slot =
                alloc.append(rt.ctx(tid), tid, i, sealed);
            panic_if(slot == kNullAddr, "halo range exhausted");
        }
    }
    const std::vector<std::uint64_t> usage = alloc.dimmUsage();
    std::vector<std::string> row = {name};
    for (unsigned d = 0; d < kDimms.dimms(); d++)
        row.push_back(TextTable::num(usage[d]));
    return row;
}

/** The slab and Halo placement tables; balanced must beat naive. */
int
dimmPlacement()
{
    sim::SimParams params;
    params.device = sim::PmDeviceParams::optaneCalibrated();
    params.device.dimmMap = kDimms;
    const SlabVariant naive = slabVariant(false, params);
    const SlabVariant balanced = slabVariant(true, params);

    TextTable table("Slab placement under the calibrated device model "
                    "(4 DIMMs, 64 KiB interleave)");
    table.header({"placement", "makespan cyc", "queue wait cyc",
                  "dimm0", "dimm1", "dimm2", "dimm3"});
    for (const auto &[name, v] :
         {std::pair{"next-fit (naive)", &naive},
          std::pair{"dimm-balanced", &balanced}}) {
        table.row({name, TextTable::num(v->sim.cycles),
                   TextTable::num(v->sim.device.queueWaitCycles),
                   TextTable::num(v->live[0]), TextTable::num(v->live[1]),
                   TextTable::num(v->live[2]),
                   TextTable::num(v->live[3])});
    }
    table.print();
    std::printf("\nbalanced speedup over naive: %.3fx "
                "(%llu -> %llu cycles, %llu allocs each)\n",
                static_cast<double>(naive.sim.cycles) /
                    static_cast<double>(balanced.sim.cycles),
                (unsigned long long)naive.sim.cycles,
                (unsigned long long)balanced.sim.cycles,
                (unsigned long long)balanced.allocs);

    using Placement = halo::HaloSegmentAllocator::Placement;
    TextTable halo_table("Halo segment usage per DIMM "
                         "(2 threads, 8 segments each)");
    halo_table.header(
        {"placement", "dimm0", "dimm1", "dimm2", "dimm3"});
    halo_table.row(haloUsageRow("sequential", Placement::Sequential));
    halo_table.row(haloUsageRow("dimm-spread", Placement::DimmSpread));
    std::puts("");
    halo_table.print();

    if (balanced.sim.cycles >= naive.sim.cycles) {
        std::fprintf(stderr,
                     "FAIL: balanced makespan %llu !< naive %llu\n",
                     (unsigned long long)balanced.sim.cycles,
                     (unsigned long long)naive.sim.cycles);
        return 1;
    }
    std::puts("\nok: balanced placement beats naive under the "
              "calibrated device model");
    return 0;
}

} // namespace

int
main()
{
    const double scale = bench::opsScale();
    int failures = ycsbMixes(scale);
    std::puts("");
    failures += modScaling(scale);
    std::puts("");
    failures += dimmPlacement();
    return failures ? 1 : 0;
}
