#!/usr/bin/env bash
# Tier-1 verification plus documentation checks, in one command.
#
#   scripts/check.sh            # build + ctest + docs checks
#   scripts/check.sh --docs-only
#   scripts/check.sh --no-asan --no-tsan --no-perfbench
#
# Docs checks: (1) doxygen builds warning-clean over src/ and
# examples/ (skipped with a notice when doxygen is not installed),
# and (2) every relative markdown link in the repo's *.md files
# resolves to an existing file.
set -euo pipefail

cd "$(dirname "$0")/.."
failures=0

# Per-leg timeout (seconds): a hung fuzz or sanitizer leg must fail
# CI, not stall it. Override with CHECK_LEG_TIMEOUT; the `timeout`
# binary is coreutils, so fall back to no wrapper where it's absent.
leg_timeout="${CHECK_LEG_TIMEOUT:-1800}"
run_leg() {
    local rc=0
    if command -v timeout >/dev/null 2>&1; then
        timeout --kill-after=30 "$leg_timeout" "$@" || rc=$?
        if [[ $rc == 124 || $rc == 137 ]]; then
            echo "FAIL: leg timed out after ${leg_timeout}s: $*"
        fi
    else
        "$@" || rc=$?
    fi
    return $rc
}

docs_only=0
skip_asan=0
skip_tsan=0
skip_perfbench=0
for arg in "$@"; do
    case "$arg" in
        --docs-only) docs_only=1 ;;
        --no-asan) skip_asan=1 ;;
        --no-tsan) skip_tsan=1 ;;
        --no-perfbench) skip_perfbench=1 ;;
    esac
done

# ---------------------------------------------------------------
# Tier-1: configure, build, run the test suite.
# ---------------------------------------------------------------
if [[ "$docs_only" == 0 ]]; then
    echo "== tier-1: build + tests =="
    cmake -B build -S . >/dev/null
    cmake --build build -j "$(nproc)" --
    (cd build && run_leg ctest --output-on-failure -j "$(nproc)")
fi

# ---------------------------------------------------------------
# ASan+UBSan: rebuild the test binary with sanitizers and run the
# memory-sensitive suites (PM device, txlibs, crash fuzzer — the
# code that unwinds exceptions through transaction destructors).
# Skip with --no-asan when iterating on docs.
# ---------------------------------------------------------------
if [[ "$docs_only" == 0 && "$skip_asan" == 0 ]]; then
    echo "== asan+ubsan: fuzz/pm/txlib tests =="
    cmake -B build-asan -S . -DWHISPER_SANITIZE=ON >/dev/null
    cmake --build build-asan -j "$(nproc)" --target whisper_tests
    run_leg build-asan/tests/whisper_tests \
        --gtest_filter='CrashFuzz.*:PmPool.*:TraceBuffer.*:PmContext.*:Bloom.*:Mnemosyne*:Nvml*:Mod*:Crc32.*:LogicalClock.*'

    # Media-fault smoke sweep, one app per access layer, under ASan:
    # 256 (crash point x fault plan) cases each must end scrubbed or
    # named Degraded — zero violations, zero recovery-path panics.
    echo "== asan: media-fault sweep (one app per layer) =="
    cmake --build build-asan -j "$(nproc)" --target whisper_cli
    run_leg build-asan/examples/whisper_cli crashfuzz --cases 256 \
        --jobs "$(nproc)" --faults \
        --apps echo,vacation,hashmap,nfs,mod-hashmap,halo-hashmap
fi

# ---------------------------------------------------------------
# TSan: a separate build tree (TSan and ASan cannot coexist) running
# the PM pool's line-shard and persist-counter tests, the MOD
# concurrency stress tests and the multi-threaded crash-fuzz replays —
# racing striped writers, lock-free readers, grace GC.
# Skip with --no-tsan when iterating on docs.
# ---------------------------------------------------------------
if [[ "$docs_only" == 0 && "$skip_tsan" == 0 ]]; then
    echo "== tsan: PM shards + MOD + halo concurrency stress =="
    cmake -B build-tsan -S . -DWHISPER_SANITIZE=thread >/dev/null
    cmake --build build-tsan -j "$(nproc)" --target whisper_tests
    run_leg build-tsan/tests/whisper_tests \
        --gtest_filter='PmPool.*:PmContext.*:TraceBuffer.*:LogicalClock.*:ModConcurrency.*:ModHeap.*:CrashFuzz.MultiThread*:HaloDirectory.ReadersStayConsistentThroughDoubling:HaloFuzz.*:Lincheck.*:LincheckWorkload.*:LincheckFuzz.CaseReplayIsBitIdentical:LincheckFuzz.BrokenSweepLeavesConcurrentPlainSweepAlone'
fi

# ---------------------------------------------------------------
# MOD recovery contract: a bounded crashfuzz sweep over the two MOD
# applications (>=128 cases each) must report zero violations — the
# root swap always commits a fully-persisted structure and the
# garbage lanes never reclaim a reachable node. The second sweep is
# the concurrent variant: >=256 cases per structure with three
# racing writer threads pinned to each case's gate schedule (512+
# multi-threaded cases total).
# ---------------------------------------------------------------
if [[ "$docs_only" == 0 ]]; then
    echo "== crashfuzz: MOD recovery sweep =="
    run_leg build/examples/whisper_cli crashfuzz --cases 128 \
        --jobs "$(nproc)" --apps mod-hashmap,mod-vector
    echo "== crashfuzz: concurrent MOD recovery sweep =="
    run_leg build/examples/whisper_cli crashfuzz --cases 256 \
        --threads 3 --ops 12 --jobs "$(nproc)" \
        --apps mod-hashmap,mod-vector
fi

# ---------------------------------------------------------------
# Fault-sweep output order: worker threads run cases concurrently,
# but the sweep reports each case's recovery notes (buddy headers
# reformatted) afterwards, in case order. Two runs of the same
# 4-job fault sweep must print byte-identical stdout and stderr.
# ---------------------------------------------------------------
if [[ "$docs_only" == 0 ]]; then
    echo "== crashfuzz: fault-sweep rerun stability (stderr included) =="
    sweep_dir=$(mktemp -d /tmp/whisper-fault-sweep-XXXXXX)
    for run in a b; do
        run_leg build/examples/whisper_cli crashfuzz --cases 32 \
            --jobs 4 --faults \
            >"$sweep_dir/$run.out" 2>"$sweep_dir/$run.err" ||
            failures=$((failures + 1))
    done
    if ! cmp -s "$sweep_dir/a.out" "$sweep_dir/b.out" ||
        ! cmp -s "$sweep_dir/a.err" "$sweep_dir/b.err"; then
        echo "FAIL: fault sweep output differs between reruns"
        failures=$((failures + 1))
    else
        echo "ok: fault sweep stdout and stderr identical across reruns"
    fi
    rm -rf "$sweep_dir"
fi

# ---------------------------------------------------------------
# Halo (Hybrid layer) recovery contract. The DRAM index is rebuilt
# by segment scan, so the sweep stresses the reconstruct-not-replay
# path: 256 multi-threaded crash+fault cases must hold the
# committed-reachable / uncommitted-invisible invariant, and the
# whole sweep run twice must print bit-identical per-app digests —
# the digest folds recovery images, fault outcomes and transient
# read counts, so any scheduling leak into the durable state or the
# verification oracle shows up here. A gtest leg then asserts the
# recovery scan itself is job-count-invariant: rebuildDigest() at
# --jobs 1 must equal --jobs $(nproc).
# ---------------------------------------------------------------
if [[ "$docs_only" == 0 ]]; then
    echo "== crashfuzz: halo crash+fault sweep (rerun digest stability) =="
    halo_sweep() {
        run_leg build/examples/whisper_cli crashfuzz --cases 256 \
            --threads 3 --ops 12 --jobs "$(nproc)" --faults \
            --no-shrink --apps halo-hashmap
    }
    halo_a=$(halo_sweep) || failures=$((failures + 1))
    halo_b=$(halo_sweep) || failures=$((failures + 1))
    if [[ -z "$halo_a" || "$halo_a" != "$halo_b" ]]; then
        echo "FAIL: halo sweep digests differ between reruns"
        failures=$((failures + 1))
    else
        echo "ok: halo 256-case crash+fault sweep digest stable"
    fi
    echo "== halo: recovery-scan --jobs rebuild-digest equality =="
    run_leg build/tests/whisper_tests \
        --gtest_filter='HaloStore.RebuildDigestIdenticalAtAnyJobCount'
fi

# ---------------------------------------------------------------
# Durable linearizability (DESIGN.md §14): every concurrent layer
# sweeps 256 crash+fault cases with the history checker on — three
# racing writer threads per case, every key must find a witness
# linearization explaining the recovered state. The sweep run twice
# must be bit-identical (the lincheck verdicts fold into the case
# digest), so a scheduling leak into the recorder or checker cannot
# hide. A violation exits nonzero on its own; the rerun diff guards
# determinism.
# ---------------------------------------------------------------
if [[ "$docs_only" == 0 ]]; then
    echo "== crashfuzz: durable-linearizability sweep (rerun stability) =="
    lincheck_sweep() {
        run_leg build/examples/whisper_cli crashfuzz --cases 256 \
            --threads 3 --ops 12 --jobs "$(nproc)" --faults \
            --lincheck --no-shrink \
            --apps mod-hashmap,mod-vector,halo-hashmap
    }
    lin_a=$(lincheck_sweep) || failures=$((failures + 1))
    lin_b=$(lincheck_sweep) || failures=$((failures + 1))
    if [[ -z "$lin_a" || "$lin_a" != "$lin_b" ]]; then
        echo "FAIL: lincheck sweep output differs between reruns"
        failures=$((failures + 1))
    else
        echo "ok: lincheck 256-case sweep stable across reruns"
    fi
fi

# ---------------------------------------------------------------
# Workload smoke: YCSB mixes on three access layers. Each run must
# verify its invariants, and two runs at the same seed must print an
# identical JSON object — the determinism contract the latency
# numbers in docs/WORKLOADS.md rest on. nfs reads its client's clock
# for relatime, so it guards the per-client clocks too; the MOD apps
# run the update-heavy mix A as well, whose grace batches would
# follow the host schedule if clients shared a heap.
# ---------------------------------------------------------------
if [[ "$docs_only" == 0 ]]; then
    echo "== workload: YCSB digest-stability smoke =="
    for run in hashmap:B nfs:B mod-hashmap:A mod-hashmap:B \
        mod-vector:A mod-vector:B; do
        app=${run%:*}
        mix=${run#*:}
        a=$(run_leg build/examples/whisper_cli workload --app "$app" \
            --mix "$mix" --keys 2000 --threads 2 --ops 200 --json)
        b=$(run_leg build/examples/whisper_cli workload --app "$app" \
            --mix "$mix" --keys 2000 --threads 2 --ops 200 --json)
        if [[ "$a" != "$b" ]]; then
            echo "FAIL: workload JSON unstable across runs for $app" \
                "mix $mix"
            failures=$((failures + 1))
        elif ! grep -q '"verified":true' <<<"$a"; then
            echo "FAIL: workload verification failed for $app mix $mix"
            failures=$((failures + 1))
        else
            echo "ok: $app mix $mix deterministic and verified"
        fi
    done
fi

# ---------------------------------------------------------------
# Elision equivalence: the same media-fault sweep with and without
# the txlib elision policy must produce identical per-case
# VerifyReport verdicts. Crash images, digests and the set of cases
# that end Degraded legitimately differ — elision changes the PM-op
# schedule, so case K cuts a different op and the fault plan lands
# on a different dirty-line set — but the contract verdict (held,
# possibly degraded, vs violated) may not: every elided operation
# was provably redundant.
# ---------------------------------------------------------------
if [[ "$docs_only" == 0 ]]; then
    echo "== crashfuzz: elision-on/off fault-sweep equivalence =="
    verdicts() {
        run_leg build/examples/whisper_cli crashfuzz --cases 64 \
            --jobs "$(nproc)" --faults --no-shrink --json \
            --apps vacation,hashmap "$@" |
            grep -oE '"ok":(true|false),"degraded":(true|false)' |
            awk -F'[:,]' '{print ($2 == "true" || $4 == "true") \
                           ? "held" : "VIOLATED"}'
    }
    base=$(verdicts)
    elided=$(verdicts --elide)
    if [[ -z "$base" || "$base" != "$elided" ]]; then
        echo "FAIL: elision changed per-case recovery verdicts"
        failures=$((failures + 1))
    elif grep -q VIOLATED <<<"$base"; then
        echo "FAIL: fault sweep violated recovery invariants"
        failures=$((failures + 1))
    else
        echo "ok: elided sweep matches baseline verdict for verdict"
    fi
fi

# ---------------------------------------------------------------
# Optimizer determinism: the redundancy report is a commutative fold
# of per-thread summaries, so `optimize` output (table and JSON)
# must be bit-identical at any --jobs value.
# ---------------------------------------------------------------
if [[ "$docs_only" == 0 ]]; then
    echo "== optimize: --jobs determinism =="
    opt_trace=$(mktemp /tmp/whisper-optimize-XXXXXX.bin)
    run_leg build/examples/whisper_cli record vacation \
        "$opt_trace" 120 4 >/dev/null
    one=$(run_leg build/examples/whisper_cli optimize "$opt_trace" \
        --jobs 1; run_leg build/examples/whisper_cli optimize \
        "$opt_trace" --jobs 1 --json)
    many=$(run_leg build/examples/whisper_cli optimize "$opt_trace" \
        --jobs "$(nproc)"; run_leg build/examples/whisper_cli \
        optimize "$opt_trace" --jobs "$(nproc)" --json)
    rm -f "$opt_trace"
    if [[ -z "$one" || "$one" != "$many" ]]; then
        echo "FAIL: optimize output varies with --jobs"
        failures=$((failures + 1))
    elif ! grep -qE '"redundant":[1-9]' <<<"$one"; then
        echo "FAIL: optimize found no redundancy on a vacation trace"
        failures=$((failures + 1))
    else
        echo "ok: optimize bit-identical at --jobs 1 and $(nproc)"
    fi
fi

# ---------------------------------------------------------------
# Analysis goldens and trace validation, on the device leg's
# deterministic workload trace: `analyze` must print the same table
# past its first line (the file name) at --jobs 1 and $(nproc), and
# the pinned epoch, transaction, self-dependency and amplification
# figures. A copy with one event's kind byte overwritten (byte 20 of
# section 0's first event, at file offset 16 + 16 + 20) must be
# refused with exit 2 and the error's name and place.
# ---------------------------------------------------------------
if [[ "$docs_only" == 0 ]]; then
    echo "== analyze: --jobs determinism, goldens, bad-event reject =="
    ana_trace=$(mktemp /tmp/whisper-analyze-XXXXXX.bin)
    ana_bad=$(mktemp /tmp/whisper-analyze-XXXXXX.bin)
    run_leg build/examples/whisper_cli workload --app hashmap \
        --mix A --keys 1000 --threads 2 --ops 150 \
        --trace "$ana_trace" >/dev/null
    one=$(run_leg build/examples/whisper_cli analyze "$ana_trace" \
        --jobs 1 | tail -n +2)
    many=$(run_leg build/examples/whisper_cli analyze "$ana_trace" \
        --jobs "$(nproc)" | tail -n +2)
    cp "$ana_trace" "$ana_bad"
    printf '\x7f' | dd of="$ana_bad" bs=1 seek=52 conv=notrunc \
        2>/dev/null
    bad_rc=0
    bad_err=$(build/examples/whisper_cli analyze "$ana_bad" 2>&1 \
        >/dev/null) || bad_rc=$?
    rm -f "$ana_trace" "$ana_bad"
    analyze_ok=1
    if [[ -z "$one" || "$one" != "$many" ]]; then
        echo "FAIL: analyze output varies with --jobs"
        analyze_ok=0
    fi
    for want in '^epochs  *1144$' '^transactions  *143$' \
        '^self-dependent  *75\.61%$' '^write amplification  *8\.50x$'
    do
        if ! grep -qE "$want" <<<"$one"; then
            echo "FAIL: analyze golden '$want' missing"
            analyze_ok=0
        fi
    done
    if [[ "$bad_rc" != 2 ]] ||
        ! grep -qF 'trace read failed: bad-kind (section 0, event 0)' \
            <<<"$bad_err"; then
        echo "FAIL: corrupt kind byte not refused (exit $bad_rc):" \
            "$bad_err"
        analyze_ok=0
    fi
    if [[ "$analyze_ok" == 1 ]]; then
        echo "ok: analyze bit-identical at --jobs 1 and $(nproc)," \
            "goldens hold, bad kind byte exits 2"
    else
        failures=$((failures + 1))
    fi
fi

# ---------------------------------------------------------------
# PM device model (DESIGN.md §13): the default device must be the
# paper's Table 3 machine, byte-identical whether the flag is given
# or not; and the calibrated (optane) model's cycle counts are pinned
# on a deterministic workload trace and must not vary between runs.
# The trace is recorded twice: each client stamps its events from its
# own clock, so two recordings must simulate identically whatever the
# host schedule was.
# The DIMM-balanced placement floor (balanced must beat naive
# next-fit under the calibrated model) runs in the tier-1 ctest leg,
# inside bench_extensions.
# ---------------------------------------------------------------
if [[ "$docs_only" == 0 ]]; then
    echo "== device model: table3 identity + optane goldens =="
    dev_trace=$(mktemp /tmp/whisper-device-XXXXXX.bin)
    dev_trace2=$(mktemp /tmp/whisper-device-XXXXXX.bin)
    for t in "$dev_trace" "$dev_trace2"; do
        run_leg build/examples/whisper_cli workload --app hashmap \
            --mix A --keys 1000 --threads 2 --ops 150 \
            --trace "$t" >/dev/null
    done
    plain=$(run_leg build/examples/whisper_cli simulate "$dev_trace")
    table3=$(run_leg build/examples/whisper_cli simulate \
        "$dev_trace" --device table3)
    # simulate's first line names the trace file; compare the rest.
    optane=$(run_leg build/examples/whisper_cli simulate \
        "$dev_trace" --device optane | tail -n +2)
    optane2=$(run_leg build/examples/whisper_cli simulate \
        "$dev_trace" --device optane | tail -n +2)
    optane_rec2=$(run_leg build/examples/whisper_cli simulate \
        "$dev_trace2" --device optane | tail -n +2)
    rm -f "$dev_trace" "$dev_trace2"
    device_ok=1
    if [[ -z "$plain" || "$plain" != "$table3" ]]; then
        echo "FAIL: simulate --device table3 differs from default"
        device_ok=0
    fi
    if [[ "$optane" != "$optane2" ]]; then
        echo "FAIL: calibrated simulate output varies between runs"
        device_ok=0
    fi
    if [[ -z "$optane" || "$optane" != "$optane_rec2" ]]; then
        echo "FAIL: calibrated simulate output differs between two" \
            "recordings of the workload trace"
        device_ok=0
    fi
    # Uniform goldens (pre-device-model numbers) and calibrated
    # goldens on the deterministic hashmap/mix-A workload trace, which
    # holds the mix alone: the post-run check is untraced.
    for want in \
        'x86-64 \(NVM\)  *119896' 'HOPS \(NVM\)  *35401' \
        'ideal.*23400'
    do
        if ! grep -qE "$want" <<<"$plain"; then
            echo "FAIL: table3 golden '$want' missing from simulate"
            device_ok=0
        fi
    done
    for want in \
        'x86-64 \(NVM\)  *108304' 'HOPS \(NVM\)  *33653' \
        'ideal.*20792' 'PM device \(per-DIMM line write-backs\)'
    do
        if ! grep -qE "$want" <<<"$optane"; then
            echo "FAIL: optane golden '$want' missing from simulate"
            device_ok=0
        fi
    done
    if [[ "$device_ok" == 1 ]]; then
        echo "ok: table3 identity, optane goldens, two recordings agree"
    else
        failures=$((failures + 1))
    fi
fi

# ---------------------------------------------------------------
# perfbench compiles its own driver against runApp, Runtime, the
# fuzz entry points and the WhisperApp workload surface; the
# self-test builds it and runs every workload at a tiny size, so an
# API change that breaks the benchmark fails here. Skip with
# --no-perfbench.
# ---------------------------------------------------------------
if [[ "$docs_only" == 0 && "$skip_perfbench" == 0 ]]; then
    echo "== perfbench: self-test =="
    if run_leg python3 perfbench/run.py --self-test; then
        echo "ok: perfbench self-test"
    else
        echo "FAIL: perfbench self-test"
        failures=$((failures + 1))
    fi
fi

# ---------------------------------------------------------------
# One mixer: the splitmix64 finalizer lives in src/common/hash.hh
# only. A private copy elsewhere would let digests drift apart, so
# its multiplier may not appear anywhere else under src/.
# ---------------------------------------------------------------
echo "== source: single splitmix64 definition =="
copies=$(grep -rniI '0xbf58476d1ce4e5b9' src |
         grep -v '^src/common/hash\.hh:' || true)
if [[ -n "$copies" ]]; then
    echo "FAIL: splitmix64 constant outside src/common/hash.hh:"
    echo "$copies"
    failures=$((failures + 1))
else
    echo "ok: splitmix64 defined once (src/common/hash.hh)"
fi

# ---------------------------------------------------------------
# One pool-slicing rule: the workload adapters carve per-thread
# instance slices with core::PoolSlices (src/core/app.hh). A private
# copy of the arithmetic under src/apps/ would let the layouts of
# the apps drift apart again.
# ---------------------------------------------------------------
echo "== source: single workload pool-slicing helper =="
copies=$(grep -rnF 'lineBase(config_.poolBytes /' src/apps || true)
if [[ -n "$copies" ]]; then
    echo "FAIL: pool slicing outside core::PoolSlices:"
    echo "$copies"
    failures=$((failures + 1))
else
    echo "ok: workload pool slices come from core::PoolSlices"
fi

# ---------------------------------------------------------------
# One per-client instance recipe: slicing, preload and the check of
# every shard live in src/apps/instance_app.hh, for every suite app.
# A private workloadCheck or PoolSlices in an app would let the shard
# checks drift apart again (check context, invariant names, shard
# prefix) or bring back a heap that workload clients share.
# ---------------------------------------------------------------
echo "== source: single per-client instance recipe =="
copies=$(grep -rnE 'workloadCheck\(|PoolSlices[ ({]' src/apps \
    --exclude=instance_app.hh || true)
if [[ -n "$copies" ]]; then
    echo "FAIL: workload check or pool slicing outside the app bases:"
    echo "$copies"
    failures=$((failures + 1))
else
    echo "ok: shard checks and slices come from InstanceApp"
fi

# ---------------------------------------------------------------
# No process-global policy: two sweeps in one process must not be
# able to interfere through global state. Apps come from the constant
# table in src/apps/register.cc, never from a runtime registry, and
# the only mutable global under src/ is the log's output lock.
# ---------------------------------------------------------------
echo "== source: no process-global mutable state =="
globals=$({ python3 scripts/mutable_globals.py src logMutex
            grep -rnF 'registerApp(' src; } || true)
if [[ -n "$globals" ]]; then
    echo "FAIL: process-global mutable state or app registration:"
    echo "$globals"
    failures=$((failures + 1))
else
    echo "ok: no mutable globals under src/ but logMutex"
fi

# ---------------------------------------------------------------
# Docs check 1: doxygen must run warning-clean.
# ---------------------------------------------------------------
echo "== docs: doxygen =="
if command -v doxygen >/dev/null 2>&1; then
    rm -f doxygen_warnings.log
    doxygen Doxyfile
    if [[ -s doxygen_warnings.log ]]; then
        echo "FAIL: doxygen produced warnings:"
        cat doxygen_warnings.log
        failures=$((failures + 1))
    else
        echo "ok: doxygen build warning-clean"
    fi
else
    echo "skip: doxygen not installed"
fi

# ---------------------------------------------------------------
# Docs check 2: no dead relative links in the markdown files.
# Matches [text](target) where target is not an URL or anchor, and
# verifies the target (sans #fragment) exists relative to the file.
# ---------------------------------------------------------------
echo "== docs: markdown links =="
dead=0
while IFS= read -r md; do
    dir=$(dirname "$md")
    while IFS= read -r target; do
        [[ -z "$target" ]] && continue
        path="${target%%#*}"
        [[ -z "$path" ]] && continue # pure #anchor
        if [[ ! -e "$dir/$path" && ! -e "$path" ]]; then
            echo "FAIL: dead link in $md -> $target"
            dead=$((dead + 1))
        fi
    done < <(grep -oE '\[[^]]*\]\([^)]+\)' "$md" |
             sed -E 's/^\[[^]]*\]\(([^)]+)\)$/\1/' |
             grep -vE '^(https?|mailto):' || true)
done < <(find . -name '*.md' -not -path './build*' -not -path './docs/html/*')

if [[ "$dead" == 0 ]]; then
    echo "ok: all relative markdown links resolve"
else
    failures=$((failures + 1))
fi

# ---------------------------------------------------------------
# Docs check 3: docs/CLI.md must not drift from the binary's help.
# Every subcommand in `whisper_cli help` must be documented, every
# `whisper_cli <sub>` the docs mention must exist, and every flag the
# help advertises must appear in the docs.
# ---------------------------------------------------------------
echo "== docs: CLI drift (help vs docs/CLI.md) =="
if [[ -x build/examples/whisper_cli ]]; then
    drift=0
    help_out=$(build/examples/whisper_cli help)
    help_subs=$(awk '/^  whisper_cli /{print $2}' <<<"$help_out" |
                grep -v '^--' | sort -u)
    doc_subs=$(grep -oE 'whisper_cli (record|analyze|optimize|simulate|apps|workload|crashfuzz|lincheck|list|help)\b' \
               docs/CLI.md | awk '{print $2}' | sort -u)
    for sub in $help_subs; do
        if ! grep -qx "$sub" <<<"$doc_subs"; then
            echo "FAIL: subcommand '$sub' in help but not docs/CLI.md"
            drift=$((drift + 1))
        fi
    done
    for sub in $doc_subs; do
        if ! grep -qx "$sub" <<<"$help_subs"; then
            echo "FAIL: docs/CLI.md documents unknown subcommand '$sub'"
            drift=$((drift + 1))
        fi
    done
    while IFS= read -r flag; do
        if ! grep -q -- "$flag" docs/CLI.md; then
            echo "FAIL: flag '$flag' in help but not docs/CLI.md"
            drift=$((drift + 1))
        fi
    done < <(grep -oE '\-\-[a-z-]+' <<<"$help_out" | sort -u)
    # Access-layer drift: every layer name `whisper_cli apps` groups
    # by (Native, Library/*, FS/PMFS, Hybrid/Halo, ...) must appear
    # in docs/CLI.md, so a new layer cannot land without its docs row.
    while IFS= read -r layer; do
        if ! grep -q -- "$layer" docs/CLI.md; then
            echo "FAIL: layer '$layer' in apps output but not docs/CLI.md"
            drift=$((drift + 1))
        fi
    done < <(build/examples/whisper_cli apps --ops 8 --threads 2 |
             awk '$1 ~ /^([A-Za-z]+\/[A-Za-z]+|Native)$/ {print $1}' |
             sort -u)
    if [[ "$drift" == 0 ]]; then
        echo "ok: docs/CLI.md matches whisper_cli help"
    else
        failures=$((failures + 1))
    fi
else
    echo "skip: build/examples/whisper_cli not built"
fi

if [[ "$failures" != 0 ]]; then
    echo "check.sh: FAILED ($failures check(s))"
    exit 1
fi
echo "check.sh: all checks passed"
