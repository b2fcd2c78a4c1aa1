#!/usr/bin/env bash
# bench.sh — records benchmark baselines into BENCH_baseline.json and
# BENCH_rofast.json (plus the online, overload and scale documents
# described below).
#
# Runs the micro-benchmarks (STM primitives, mode matrix, gate
# overhead) with -benchmem and writes one JSON document capturing the
# machine, the Go toolchain and every benchmark's ns/op, B/op and
# allocs/op. The committed BENCH_baseline.json is the reference point
# a perf-sensitive PR diffs its own run against (re-run this script,
# compare, and refresh the file when a deliberate change moves the
# numbers). A second stanza records the certified read-only fast-path
# suite (^BenchmarkROFast) into BENCH_rofast.json at a longer benchtime
# — those benchmarks assert single-digit-ns deltas, so they need the
# extra settling time. A third stanza records the online-guidance
# overheads (^BenchmarkOnline) into BENCH_online.json: the streaming
# accumulator's per-event enqueue, the amortized epoch build + model
# swap, and the end-to-end gated commit path with the learner attached
# (diff against BenchmarkGateOverhead in BENCH_baseline.json — the
# delta is the online controller's whole commit-path footprint).
# A fourth stanza records the overload-control suite
# (^BenchmarkOverload) into BENCH_overload.json: the shed fast paths
# (deadline forecast and injected storm, both pinned at 0 allocs/op),
# the healthy acquire/release baseline, and the contention-collapse
# curve — protected vs unprotected commits/tick and aborts/commit at
# each oversubscription factor, captured from the benchmarks' custom
# ReportMetric columns (which the shared writer cannot see, so this
# stanza has its own).
# A fifth stanza records the multi-core scalability suite
# (^BenchmarkScale) into BENCH_scale.json: both runtimes' commit paths
# under -cpu 1,2,4,8 — TL2 under the global vs sharded commit clock,
# LibTM's pooled descriptors, the guide-gated path and the
# batch-commit envelopes — with each row carrying its core count and
# its speedup relative to the same benchmark's 1-core row. The
# zero-alloc acceptance rows (RMW and gate admission) must show
# allocs_per_op 0 here; scripts/benchdiff.sh holds the committed
# baseline to that. The -cpu list is clamped to the host's core count
# (nproc): a row with more Ps than cores is oversubscribed, so its
# "speedup" measures timeslicing, not scaling. Every document's header
# records that core count as "nproc".
#
# Knobs:
#   GSTM_BENCH          benchmark regex    (default: the micro set)
#   GSTM_BENCHTIME      -benchtime value   (default: 100ms)
#   GSTM_BENCH_COUNT    -count repeats for the micro set; the writer
#                       keeps each benchmark's fastest run, so the
#                       committed baseline is a low-noise floor rather
#                       than one 100ms sample (default: 3; see
#                       scripts/benchdiff.sh, which compares the same
#                       statistic)
#   GSTM_ROFAST_BENCHTIME  -benchtime for the ROFast suite (default: 2s)
#   GSTM_ONLINE_BENCHTIME  -benchtime for the Online suite (default: 1s)
#   GSTM_OVERLOAD_BENCHTIME  -benchtime for the Overload suite (default: 1s)
#   GSTM_SCALE_BENCHTIME  -benchtime for the Scale suite (default: 100ms)
#   GSTM_SCALE_CPUS     -cpu list for the Scale suite (default: 1,2,4,8;
#                       values above nproc are dropped)
#   GSTM_BENCH_FULL     non-empty adds the paper-table/figure suites at
#                       -benchtime=1x (slow; report-shaped, not latency-
#                       shaped, so they are excluded from the default set)
#   $1                  output path        (default: BENCH_baseline.json)
#   $2                  ROFast output path (default: BENCH_rofast.json)
#   $3                  Online output path (default: BENCH_online.json)
#   $4                  Overload output path (default: BENCH_overload.json)
#   $5                  Scale output path   (default: BENCH_scale.json)
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_baseline.json}"
rofast_out="${2:-BENCH_rofast.json}"
online_out="${3:-BENCH_online.json}"
overload_out="${4:-BENCH_overload.json}"
scale_out="${5:-BENCH_scale.json}"
bench="${GSTM_BENCH:-^(BenchmarkTL2|BenchmarkLibTMModesRMW|BenchmarkGateOverhead|BenchmarkSynQuakeFrame)}"
benchtime="${GSTM_BENCHTIME:-100ms}"
bench_count="${GSTM_BENCH_COUNT:-3}"
rofast_benchtime="${GSTM_ROFAST_BENCHTIME:-2s}"
online_benchtime="${GSTM_ONLINE_BENCHTIME:-1s}"
overload_benchtime="${GSTM_OVERLOAD_BENCHTIME:-1s}"
scale_benchtime="${GSTM_SCALE_BENCHTIME:-100ms}"
ncpu="$(nproc)"
scale_cpus_req="${GSTM_SCALE_CPUS:-1,2,4,8}"
scale_cpus="$(echo "$scale_cpus_req" | tr ',' '\n' | awk -v n="$ncpu" '$1 + 0 >= 1 && $1 + 0 <= n' | paste -sd, -)"
if [ -z "$scale_cpus" ]; then
    echo "bench.sh: no -cpu value in GSTM_SCALE_CPUS=$scale_cpus_req fits this host's $ncpu cores" >&2
    exit 1
fi

# write_json <benchtime> <outpath> — reads raw `go test -bench` output
# on stdin and writes the machine-stamped JSON document. When the
# input carries -count repeats, each benchmark keeps its fastest run
# (lowest ns/op) — interference only ever slows a run down, so the
# minimum is the stable statistic for a committed baseline.
write_json() {
    awk \
        -v go_version="$(go version | awk '{print $3}')" \
        -v nproc="$ncpu" \
        -v benchtime="$1" \
        -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
/^goos:/  { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/   { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
    name = $1; iters = $2; ns = $3
    bop = "null"; allocs = "null"
    for (i = 4; i <= NF; i++) {
        if ($i == "B/op")      bop    = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
    }
    if (!(name in best_ns)) order[++n] = name
    if (!(name in best_ns) || ns + 0 < best_ns[name] + 0) {
        best_ns[name] = ns; best_iters[name] = iters
        best_bop[name] = bop; best_allocs[name] = allocs
    }
}
END {
    for (k = 1; k <= n; k++) {
        name = order[k]
        if (k > 1) rows = rows ",\n"
        rows = rows sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}",
                            name, best_iters[name], best_ns[name], best_bop[name], best_allocs[name])
    }
    printf "{\n"
    printf "  \"generated\": \"%s\",\n", date
    printf "  \"go\": \"%s\",\n", go_version
    printf "  \"goos\": \"%s\",\n", goos
    printf "  \"goarch\": \"%s\",\n", goarch
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"nproc\": %d,\n", nproc
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"benchmarks\": [\n%s\n  ]\n}\n", rows
}' > "$2"
}

# write_metrics_json <benchtime> <outpath> — like write_json, but
# captures EVERY value-unit column pair (ns/op, B/op, allocs/op AND
# b.ReportMetric custom units like protected-commits/tick) into a
# per-benchmark "metrics" object. The overload curve's payload lives in
# those custom columns, which the fixed-schema writer would drop.
write_metrics_json() {
    awk \
        -v go_version="$(go version | awk '{print $3}')" \
        -v nproc="$ncpu" \
        -v benchtime="$1" \
        -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
/^goos:/  { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/   { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
    name = $1; iters = $2
    metrics = ""
    for (i = 3; i + 1 <= NF; i += 2) {
        if (metrics != "") metrics = metrics ", "
        metrics = metrics sprintf("\"%s\": %s", $(i+1), $i)
    }
    if (n++) rows = rows ",\n"
    rows = rows sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"metrics\": {%s}}",
                        name, iters, metrics)
}
END {
    printf "{\n"
    printf "  \"generated\": \"%s\",\n", date
    printf "  \"go\": \"%s\",\n", go_version
    printf "  \"goos\": \"%s\",\n", goos
    printf "  \"goarch\": \"%s\",\n", goarch
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"nproc\": %d,\n", nproc
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"benchmarks\": [\n%s\n  ]\n}\n", rows
}' > "$2"
}

# write_scale_json <benchtime> <cpus> <outpath> — like write_json, but
# for the -cpu matrix: strips the -N core suffix from each benchmark
# name into a "cores" field and computes speedup_vs_1core against the
# same benchmark's 1-core row (go test emits the 1-core row first, so
# a single pass suffices; the 1-core row's own speedup is 1.0).
write_scale_json() {
    awk \
        -v go_version="$(go version | awk '{print $3}')" \
        -v nproc="$ncpu" \
        -v benchtime="$1" \
        -v cpus="$2" \
        -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
/^goos:/  { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/   { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
    name = $1; iters = $2; ns = $3
    bop = "null"; allocs = "null"
    for (i = 4; i <= NF; i++) {
        if ($i == "B/op")      bop    = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
    }
    base = name; cores = 1
    if (match(name, /-[0-9]+$/)) {
        cores = substr(name, RSTART + 1) + 0
        base = substr(name, 1, RSTART - 1)
    }
    if (cores == 1) base_ns[base] = ns
    speedup = "null"
    if (base in base_ns && ns + 0 > 0)
        speedup = sprintf("%.3f", base_ns[base] / ns)
    if (n++) rows = rows ",\n"
    rows = rows sprintf("    {\"name\": \"%s\", \"cores\": %d, \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"speedup_vs_1core\": %s}",
                        base, cores, iters, ns, bop, allocs, speedup)
}
END {
    printf "{\n"
    printf "  \"generated\": \"%s\",\n", date
    printf "  \"go\": \"%s\",\n", go_version
    printf "  \"goos\": \"%s\",\n", goos
    printf "  \"goarch\": \"%s\",\n", goarch
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"nproc\": %d,\n", nproc
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"cpus\": \"%s\",\n", cpus
    printf "  \"benchmarks\": [\n%s\n  ]\n}\n", rows
}' > "$3"
}

echo "== bench: $bench (benchtime $benchtime, min of $bench_count runs) =="
raw="$(go test -run='^$' -bench "$bench" -benchtime "$benchtime" -count "$bench_count" -benchmem .)"
echo "$raw"

if [ -n "${GSTM_BENCH_FULL:-}" ]; then
    echo "== bench: paper tables/figures (benchtime 1x) =="
    full="$(go test -run='^$' -bench '^Benchmark(Table|Figure)' -benchtime 1x -benchmem .)"
    echo "$full"
    raw="$raw"$'\n'"$full"
fi

echo "$raw" | write_json "$benchtime" "$out"
echo "== wrote $out =="

echo "== bench: certified read-only fast path (benchtime $rofast_benchtime) =="
rofast_raw="$(go test -run='^$' -bench '^BenchmarkROFast' -benchtime "$rofast_benchtime" -benchmem .)"
echo "$rofast_raw"
echo "$rofast_raw" | write_json "$rofast_benchtime" "$rofast_out"
echo "== wrote $rofast_out =="

echo "== bench: online guidance overhead (benchtime $online_benchtime) =="
online_raw="$(go test -run='^$' -bench '^BenchmarkOnline' -benchtime "$online_benchtime" -benchmem .)"
echo "$online_raw"
echo "$online_raw" | write_json "$online_benchtime" "$online_out"
echo "== wrote $online_out =="

echo "== bench: overload collapse curve + shed path (benchtime $overload_benchtime) =="
overload_raw="$(go test -run='^$' -bench '^BenchmarkOverload' -benchtime "$overload_benchtime" -benchmem .)"
echo "$overload_raw"
echo "$overload_raw" | write_metrics_json "$overload_benchtime" "$overload_out"
echo "== wrote $overload_out =="

echo "== bench: multi-core scalability (benchtime $scale_benchtime, cpus $scale_cpus of $scale_cpus_req, nproc $ncpu) =="
scale_raw="$(go test -run='^$' -bench '^BenchmarkScale' -benchtime "$scale_benchtime" -benchmem -cpu "$scale_cpus" .)"
echo "$scale_raw"
echo "$scale_raw" | write_scale_json "$scale_benchtime" "$scale_cpus" "$scale_out"
echo "== wrote $scale_out =="
