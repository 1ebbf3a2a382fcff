#!/usr/bin/env python3
"""WHISPER benchmark: one command, four workloads, two clocks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds perfbench/ (the repository's src/ libraries plus the driver in
perfbench/src) into $CARGO_TARGET_DIR, or .bench_build, under the
current directory, then runs one workload. It prints every metric that
applies to the workload by name, with unit, clock and sample count,
the simulated results beside the repository's paper references, and
as the last line one JSON object: {"correct", "attempted", "failed",
"metrics"} holding BENCHMARK.json's end-to-end metrics (--trace 0) or
its per-layer metrics (--trace 1). Exits 1 when a correctness check
fails, 2 on bad arguments and 3 when the build fails.

--trace 1 also writes the span file .bench_out/spans-NAME.tsv and
prints each layer's self time: span duration minus the part of it
its child spans cover.

--self-test runs every workload at a tiny size, traced and untraced,
and asserts that every metric in perfbench/spec.json and
BENCHMARK.json is emitted with a finite value, that BENCHMARK.json
agrees with spec.json, and that the span tree nests (no child outside
its parent, so every self time is >= 0).
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(HERE, "spec.json")
CONTRACT = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ["ycsb-a-nvml", "ycsb-c-nvml", "crashfuzz-layers",
             "trace-pipeline"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configure (once) and build the driver; return its path."""
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = os.path.join(build_dir, "whisper_perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "whisper_perfbench", "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("run.py: build failed: " + " ".join(cmd))
            sys.exit(3)
    return binary


def run_driver(binary, workload, seed, seconds, traced, tiny, out_dir):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if traced else "0",
           "--out-dir", out_dir]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: %s timed out" % workload)
        return None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("run.py: %s printed nothing (exit %d)"
            % (workload, proc.returncode))
        return None
    result = json.loads(lines[-1])
    if proc.returncode not in (0, 1):
        log("run.py: %s exited %d" % (workload, proc.returncode))
        return None
    return result


def finite(v):
    return isinstance(v, (int, float)) and math.isfinite(v)


def read_spans(path):
    spans = {}
    with open(path) as f:
        next(f)
        for line in f:
            sid, parent, group, lane, name, start, end = \
                line.rstrip("\n").split("\t")
            spans[int(sid)] = (int(parent), int(group), int(lane), name,
                               int(start), int(end))
    return spans


def span_tree(spans):
    """Self time per span and the spans that break nesting.

    A span's self time is its duration minus the union of its
    children's intervals. A child must lie inside its parent.
    """
    children = {}
    broken = []
    for sid, (parent, _, _, _, start, end) in spans.items():
        if end < start:
            broken.append(sid)
        if parent == 0:
            continue
        p = spans.get(parent)
        if p is None or start < p[4] or end > p[5]:
            broken.append(sid)
            continue
        children.setdefault(parent, []).append((start, end))
    self_ns = {}
    for sid, (_, _, _, _, start, end) in spans.items():
        covered, cur_s, cur_e = 0, None, None
        for s, e in sorted(children.get(sid, [])):
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        self_ns[sid] = (end - start) - covered
    return self_ns, broken


def layer_self_times(spans, self_ns, root_name):
    """Self ms per layer over the spans under the root named root_name."""
    root_of = {}

    def root(sid):
        path = []
        while sid not in root_of:
            parent = spans[sid][0]
            if parent == 0 or parent not in spans:
                root_of[sid] = sid
                break
            path.append(sid)
            sid = parent
        r = root_of[sid]
        for p in path:
            root_of[p] = r
        return r

    totals = {}
    for sid, rec in spans.items():
        if spans[root(sid)][3] != root_name:
            continue
        layer = rec[3].split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + self_ns[sid] / 1e6
    return totals


def fmt(v):
    if not finite(v):
        return str(v)
    if v != 0 and (abs(v) >= 1e6 or abs(v) < 1e-3):
        return "%.6g" % v
    return "%.4f" % v


def print_report(result, spec, traced, spans_path):
    name = result["workload"]
    shape = spec["workloads"][name]
    metrics = result["metrics"]
    print("workload %s  seed %s  %s" % (
        name, result["seed"], "traced (per-layer run)" if traced
        else "untraced (end-to-end run)"))
    print("  " + "; ".join("%s=%s" % (k, v) for k, v in shape.items()
                           if k != "why"))
    print("  why: " + shape["why"])
    print("%-34s %16s  %-10s %-6s %8s" % ("metric", "value", "unit",
                                         "clock", "samples"))
    if traced:
        names = list(spec["per_layer"])
        table = spec["per_layer"]
    else:
        names = [n for n, d in spec["end_to_end"].items()
                 if name in d["workloads"]]
        table = spec["end_to_end"]
    for n in names:
        if n not in metrics:
            continue
        value, samples = metrics[n]
        d = table[n]
        line = "%-34s %16s  %-10s %-6s %8d" % (n, fmt(value), d["unit"],
                                              d["clock"], samples)
        if traced and d["moves"]:
            line += "  -> " + ", ".join(
                "%s@%s" % (m["metric"], "/".join(m["workloads"]))
                for m in d["moves"])
        print(line)
    refs = spec["references"]
    if not traced and "hops_speedup" in metrics:
        v = metrics["hops_speedup"][0]
        print("reference hops_speedup: %.4f here (x86 runtime cut by "
              "%.1f%%) vs paper %.3f (%s); %s" % (
                  v, 100.0 * (1.0 - 1.0 / v),
                  refs["hops_speedup"]["value"],
                  refs["hops_speedup"]["paper"],
                  refs["hops_speedup"]["note"]))
    if not traced and "write_amp" in metrics and \
            name in refs["write_amp"]["workloads"]:
        lo, hi = refs["write_amp"]["band"]
        v = metrics["write_amp"][0]
        print("reference write_amp: %.3f here, %s the paper's %g-%gx "
              "band (%s; %s)" % (v, "inside" if lo <= v <= hi
                                 else "OUTSIDE", lo, hi,
                                 refs["write_amp"]["paper"],
                                 refs["write_amp"]["note"]))
    if not traced and ("hops_speedup" in metrics or
                       "sim_kops_per_s" in metrics):
        print("note: " + refs["caveat"])
    if traced:
        for n, (v, _) in sorted(metrics.items()):
            if n.startswith("trace_overhead."):
                print("tracing overhead: %s traced minus untraced = %s"
                      % (n.split(".", 1)[1], fmt(v)))
        if spans_path and os.path.exists(spans_path):
            spans = read_spans(spans_path)
            self_ns, broken = span_tree(spans)
            totals = layer_self_times(spans, self_ns, "bench.workload")
            print("span file %s: %d spans, %d outside their parent"
                  % (spans_path, len(spans), len(broken)))
            print("self time of the traced workload pass, by layer:")
            for layer, ms in sorted(totals.items(), key=lambda kv: -kv[1]):
                print("  %-10s %12.3f ms" % (layer, ms))
    failed = [c for c in result["checks"] if not c["ok"]]
    print("checks: %d run, %d failed%s" % (
        len(result["checks"]), len(failed),
        "".join("\n  FAILED %s %s" % (c["name"], c["detail"])
                for c in failed)))


def contract_line(result, contract, traced):
    wanted = contract["per_layer" if traced else "end_to_end"]
    metrics = {}
    missing = []
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or not finite(got[0]):
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": got[0], "unit": m["unit"]}
    if missing:
        log("run.py: metrics missing or not finite: " + ", ".join(missing))
    correct = result["failed"] == 0 and not missing
    return correct, {"correct": correct,
                     "attempted": max(1, result["attempted"]),
                     "failed": result["failed"] + len(missing),
                     "metrics": metrics}


def self_test(binary, spec, contract, out_dir):
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(what)
            print("FAIL " + what)

    # BENCHMARK.json must agree with spec.json. It may bound a subset
    # of the workloads (spec.json says which and why).
    expect({w["name"] for w in contract["workloads"]} <= set(WORKLOADS),
           "BENCHMARK.json names a workload not in " + str(WORKLOADS))
    for key in ("end_to_end", "per_layer"):
        for m in contract[key]:
            d = spec[key].get(m["name"])
            expect(d is not None, "%s %s not in spec.json" % (key,
                                                              m["name"]))
            if d is not None:
                expect(d["unit"] == m["unit"] and
                       d["better"] == m["better"],
                       "%s %s unit/better differ from spec.json"
                       % (key, m["name"]))
    for key in ("end_to_end", "per_layer"):
        listed = {m["name"] for m in contract[key]}
        for n, d in spec[key].items():
            everywhere = key == "per_layer" or \
                set(d["workloads"]) == set(WORKLOADS)
            # A metric that reads 0 on every passing run cannot be
            # bounded as a share of its median.
            if everywhere and not d.get("zero_when_correct"):
                expect(n in listed, "%s %s missing from BENCHMARK.json"
                       % (key, n))

    for w in WORKLOADS:
        for traced in (False, True):
            tag = "%s trace=%d" % (w, traced)
            result = run_driver(binary, w, 7, 0, traced, True, out_dir)
            expect(result is not None, tag + ": no result")
            if result is None:
                continue
            expect(result["failed"] == 0, tag + ": checks failed")
            expect(result["attempted"] >= 1, tag + ": nothing attempted")
            m = result["metrics"]
            if traced:
                names = list(spec["per_layer"])
            else:
                names = [n for n, d in spec["end_to_end"].items()
                         if w in d["workloads"]]
            for n in names:
                expect(n in m and finite(m[n][0]),
                       "%s: %s missing or not finite" % (tag, n))
            correct, _ = contract_line(result, contract, traced)
            expect(correct, tag + ": contract line incomplete")
            if traced:
                path = os.path.join(out_dir, "spans-%s.tsv" % w)
                expect(os.path.exists(path), tag + ": no span file")
                if os.path.exists(path):
                    spans = read_spans(path)
                    self_ns, broken = span_tree(spans)
                    expect(len(spans) > 0, tag + ": span file empty")
                    expect(not broken, "%s: %d spans outside their parent"
                           % (tag, len(broken)))
                    negative = [s for s, v in self_ns.items() if v < 0]
                    expect(not negative, "%s: %d negative self times"
                           % (tag, len(negative)))
            print("%s %s" % ("ok  " if not problems else "....", tag))
    print("self-test: %s" % ("PASS" if not problems else
                             "FAIL (%d problems)" % len(problems)))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    binary = build()
    spec = load_json(SPEC)
    contract = load_json(CONTRACT)
    out_dir = os.path.abspath(".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    if args.self_test:
        return self_test(binary, spec, contract, out_dir)

    traced = args.trace == 1
    result = run_driver(binary, args.workload, args.seed, args.seconds,
                        traced, False, out_dir)
    if result is None:
        return 1
    spans_path = os.path.join(out_dir, "spans-%s.tsv" % args.workload)
    print_report(result, spec, traced, spans_path)
    correct, line = contract_line(result, contract, traced)
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
