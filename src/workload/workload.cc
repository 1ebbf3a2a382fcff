#include "workload/workload.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "core/harness.hh"

namespace whisper::workload
{

MixSpec
MixSpec::ycsb(char mix)
{
    MixSpec s;
    s.name = std::string(1, static_cast<char>(
        std::toupper(static_cast<unsigned char>(mix))));
    s.read = s.update = s.insert = s.rmw = s.scan = 0.0;
    switch (s.name[0]) {
      case 'A': s.read = 0.5;  s.update = 0.5;  break;
      case 'B': s.read = 0.95; s.update = 0.05; break;
      case 'C': s.read = 1.0;                   break;
      case 'D': s.read = 0.95; s.insert = 0.05; break;
      case 'E': s.scan = 0.95; s.insert = 0.05; break;
      case 'F': s.read = 0.5;  s.rmw = 0.5;     break;
      default:
        fatal("unknown YCSB mix '%c' (expected A..F)", mix);
    }
    return s;
}

bool
MixSpec::parse(const std::string &s, MixSpec &out)
{
    if (s.size() == 1) {
        const char c = static_cast<char>(
            std::toupper(static_cast<unsigned char>(s[0])));
        if (c < 'A' || c > 'F')
            return false;
        out = ycsb(c);
        return true;
    }
    // Custom "read:update:insert:rmw:scan" ratios.
    double r[5] = {0, 0, 0, 0, 0};
    unsigned field = 0;
    std::size_t pos = 0;
    while (pos <= s.size() && field < 5) {
        const std::size_t colon = s.find(':', pos);
        const std::string part =
            s.substr(pos, colon == std::string::npos ? std::string::npos
                                                     : colon - pos);
        char *end = nullptr;
        r[field] = std::strtod(part.c_str(), &end);
        if (end == part.c_str() || *end != '\0' || r[field] < 0)
            return false;
        field++;
        if (colon == std::string::npos)
            break;
        pos = colon + 1;
    }
    if (field != 5)
        return false;
    const double sum = r[0] + r[1] + r[2] + r[3] + r[4];
    if (sum <= 0)
        return false;
    out = MixSpec();
    out.name = s;
    out.read = r[0] / sum;
    out.update = r[1] / sum;
    out.insert = r[2] / sum;
    out.rmw = r[3] / sum;
    out.scan = r[4] / sum;
    return true;
}

double
WorkloadResult::throughputOpsPerSec() const
{
    if (elapsedTicks == 0)
        return 0.0;
    return static_cast<double>(ops.total()) * 1e9 /
           static_cast<double>(elapsedTicks);
}

std::uint64_t
WorkloadResult::digest() const
{
    std::uint64_t h = kFnvOffset;
    auto mix = [&h](std::uint64_t v) { h = fnv1aWord(h, v); };
    mix(ops.reads);
    mix(ops.readsFound);
    mix(ops.updates);
    mix(ops.inserts);
    mix(ops.rmws);
    mix(ops.rmwsFound);
    mix(ops.scans);
    mix(ops.scannedKeys);
    mix(elapsedTicks);
    mix(totalTicks);
    mix(latency.digest());
    return h;
}

std::string
WorkloadResult::json() const
{
    char buf[256];
    std::string out = "{";
    auto str = [&out](const char *key, const std::string &val,
                      bool comma = true) {
        out += "\"";
        out += key;
        out += "\":\"";
        out += val;
        out += comma ? "\"," : "\"";
    };
    auto u64 = [&](const char *key, std::uint64_t val,
                   bool comma = true) {
        std::snprintf(buf, sizeof(buf), "\"%s\":%llu%s", key,
                      static_cast<unsigned long long>(val),
                      comma ? "," : "");
        out += buf;
    };
    auto dbl = [&](const char *key, double val, bool comma = true) {
        std::snprintf(buf, sizeof(buf), "\"%s\":%.6g%s", key, val,
                      comma ? "," : "");
        out += buf;
    };

    str("app", options.app);
    str("layer", layerName);
    str("mix", options.mix.name);
    out += "\"ratios\":{";
    dbl("read", options.mix.read);
    dbl("update", options.mix.update);
    dbl("insert", options.mix.insert);
    dbl("rmw", options.mix.rmw);
    dbl("scan", options.mix.scan, false);
    out += "},";
    str("dist", keyDistName(options.dist));
    u64("keys", options.keys);
    u64("threads", options.threads);
    u64("opsPerThread", options.opsPerThread);
    u64("seed", options.seed);
    u64("totalOps", ops.total());
    out += "\"ops\":{";
    u64("read", ops.reads);
    u64("readFound", ops.readsFound);
    u64("update", ops.updates);
    u64("insert", ops.inserts);
    u64("rmw", ops.rmws);
    u64("rmwFound", ops.rmwsFound);
    u64("scan", ops.scans);
    u64("scannedKeys", ops.scannedKeys, false);
    out += "},";
    u64("elapsedNs", elapsedTicks);
    u64("totalThreadNs", totalTicks);
    dbl("throughputOpsPerSec", throughputOpsPerSec());
    out += "\"latencyNs\":{";
    u64("min", latency.minValue());
    u64("p50", latency.quantile(0.50));
    u64("p90", latency.quantile(0.90));
    u64("p99", latency.quantile(0.99));
    u64("p999", latency.quantile(0.999));
    u64("max", latency.maxValue());
    dbl("mean", latency.mean(), false);
    out += "},";
    if (lincheckRan) {
        out += "\"lincheck\":{";
        u64("keys", lincheckKeys);
        u64("violations", lincheckViolations);
        out += lincheckBudget ? "\"budgetDegraded\":true},"
                              : "\"budgetDegraded\":false},";
    }
    std::snprintf(buf, sizeof(buf), "\"digest\":\"0x%016llx\",",
                  static_cast<unsigned long long>(digest()));
    out += buf;
    out += verified ? "\"verified\":true}" : "\"verified\":false}";
    return out;
}

WorkloadResult
runWorkload(const WorkloadOptions &opts)
{
    if (opts.keys == 0 || opts.threads == 0 || opts.opsPerThread == 0)
        fatal("workload needs keys > 0, threads > 0, ops > 0");
    if (opts.keys < opts.threads)
        fatal("workload needs keys >= threads (got %llu keys, "
              "%u threads)",
              static_cast<unsigned long long>(opts.keys),
              opts.threads);

    core::AppConfig cfg;
    cfg.threads = opts.threads;
    cfg.opsPerThread = opts.opsPerThread;
    cfg.seed = opts.seed;
    cfg.poolBytes = opts.poolBytes;

    WorkloadResult result;
    result.options = opts;
    core::Session s(opts.app, cfg);
    core::Runtime &rt = s.rt();
    core::WhisperApp &app = s.app();
    result.runtime = s.world().runtime;
    result.layerName = core::accessLayerName(app.layer());
    if (opts.lincheck && !app.supportsLincheck())
        fatal("--lincheck needs the lincheck workload surface, which "
              "app '%s' does not implement (use mod-hashmap, "
              "mod-vector or halo-hashmap)",
              opts.app.c_str());

    core::WorkloadKeymap map;
    map.keys = opts.keys;
    map.threads = opts.threads;
    map.insertsPerThread =
        opts.mix.insert > 0.0 ? opts.opsPerThread : 0;
    app.workloadSetup(rt, map);

    // Recording mode: an unarmed crash plan (crashAt stays "never")
    // attaches a seeded SchedGate so every PM op runs under a
    // deterministic cross-thread schedule, and the recorder captures
    // each op's invoke/response plus fence coverage.
    if (opts.lincheck) {
        if (opts.threads > 1) {
            Rng gateRng(opts.seed ^ 0x11c0de5eedull);
            rt.installCrashPlan(opts.threads, gateRng());
        }
        s.record(map);
    }
    lincheck::HistoryRecorder &rec = s.recorder();
    rt.clearTraces();

    // Per-thread state, all derived on this thread in tid order so
    // the forked Rng streams are a pure function of (seed, threads).
    std::vector<Rng> rngs;
    std::vector<KeyChooser> choosers;
    std::vector<LatencyHistogram> hists(opts.threads);
    std::vector<OpCounts> counts(opts.threads);
    std::vector<Tick> ticks(opts.threads, 0);
    Rng master(opts.seed);
    for (unsigned t = 0; t < opts.threads; t++) {
        rngs.push_back(master.split());
        choosers.emplace_back(opts.dist, map,
                              static_cast<ThreadId>(t),
                              opts.zipfTheta);
    }

    const MixSpec &mix = opts.mix;
    const double cRead = mix.read;
    const double cUpdate = cRead + mix.update;
    const double cInsert = cUpdate + mix.insert;
    const double cRmw = cInsert + mix.rmw;

    // The recorder's entry points are no-ops unless s.record() ran.
    s.run([&](pm::PmContext &ctx, ThreadId tid) {
        Rng &rng = rngs[tid];
        KeyChooser &chooser = choosers[tid];
        LatencyHistogram &hist = hists[tid];
        OpCounts &c = counts[tid];
        const Tick start = ctx.localTicks();
        for (std::uint64_t i = 0; i < opts.opsPerThread; i++) {
            const double pick = rng.nextDouble();
            const Tick t0 = ctx.localTicks();
            if (pick < cRead) {
                const std::uint64_t key = chooser.next(rng);
                c.reads++;
                const std::size_t h =
                    rec.invoke(tid, lincheck::OpKind::Get, key, 0);
                const bool found = app.workloadGet(ctx, tid, key);
                if (found)
                    c.readsFound++;
                // The get answers presence only; re-probe for the
                // value. Keys are thread-partitioned, so nothing wrote
                // the key between the two reads.
                std::uint64_t value = 0;
                if (opts.lincheck && found)
                    app.workloadProbe(ctx, tid, key, value);
                rec.response(tid, h, found, value);
            } else if (pick < cUpdate) {
                const std::uint64_t key = chooser.next(rng);
                const std::uint64_t val = rng();
                c.updates++;
                const std::size_t h =
                    rec.invoke(tid, lincheck::OpKind::Put, key, val);
                app.workloadPut(ctx, tid, key, val);
                rec.response(tid, h, false, 0);
            } else if (pick < cInsert) {
                const std::uint64_t key =
                    map.insertKey(tid, chooser.insertedCount());
                const std::uint64_t val = rng();
                c.inserts++;
                const std::size_t h =
                    rec.invoke(tid, lincheck::OpKind::Put, key, val);
                app.workloadPut(ctx, tid, key, val);
                rec.response(tid, h, false, 0);
                chooser.noteInsert();
            } else if (pick < cRmw) {
                const std::uint64_t key = chooser.next(rng);
                const std::uint64_t delta = rng.next(1000) + 1;
                c.rmws++;
                const std::size_t h =
                    rec.invoke(tid, lincheck::OpKind::Rmw, key, delta);
                const bool found = app.workloadRmw(ctx, tid, key, delta);
                if (found)
                    c.rmwsFound++;
                rec.response(tid, h, found, 0);
            } else {
                // Scans stay unrecorded: the history model is
                // single-key, and a scan mutates nothing.
                const std::uint64_t key = chooser.next(rng);
                const std::uint64_t len =
                    rng.next(mix.scanLen ? mix.scanLen : 1) + 1;
                c.scans++;
                c.scannedKeys += app.workloadScan(ctx, tid, key, len);
            }
            hist.record(ctx.localTicks() - t0);
        }
        app.workloadThreadDone(ctx, tid);
        ticks[tid] = ctx.localTicks() - start;
    });

    std::vector<std::uint64_t> inserted(opts.threads);
    for (unsigned t = 0; t < opts.threads; t++) {
        result.latency.merge(hists[t]);
        result.ops.reads += counts[t].reads;
        result.ops.readsFound += counts[t].readsFound;
        result.ops.updates += counts[t].updates;
        result.ops.inserts += counts[t].inserts;
        result.ops.rmws += counts[t].rmws;
        result.ops.rmwsFound += counts[t].rmwsFound;
        result.ops.scans += counts[t].scans;
        result.ops.scannedKeys += counts[t].scannedKeys;
        result.elapsedTicks = std::max(result.elapsedTicks, ticks[t]);
        result.totalTicks += ticks[t];
        inserted[t] = counts[t].inserts;
    }

    result.check = app.workloadCheck(rt);

    if (opts.lincheck) {
        const core::HistoryCheck hc =
            s.checkHistory(result.check, inserted);
        result.lincheckRan = true;
        result.lincheckBudget = hc.result.budgetExhausted;
        result.lincheckKeys = hc.result.keys.size();
        result.lincheckViolations = hc.violations;
    }

    result.verified = result.check.ok();
    return result;
}

} // namespace whisper::workload
