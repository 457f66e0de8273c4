#!/usr/bin/env bash
# Runs the core optimizer benchmarks and writes BENCH_core.json (parsed via
# scripts/benchparse), failing if the converged Step skips under 99 % of its
# controller solves, allocates, or costs over twice the previous report's
# ns/op, the exit Snapshot allocates over 5 % more objects than the previous
# report recorded, an accelerated price solver needs more rounds-to-converge than the
# reference gradient, a warm checkpoint
# restart does not re-converge in fewer rounds than a cold one, the batched
# wire frame grows by a byte or the codec allocates over 5 % more than the
# previous report recorded, the million-subtask sharded fleet fails to certify convergence or
# needs more aggregator rounds than the previous report recorded, the
# fleet's boundary rounds exceed twice the single engine's KKT rounds, the
# parallel 1m fleet run diverges from the serial round count (or, on >= 4
# CPUs, fails to halve its wall-clock), fleet.New or a one-cluster
# ReplaceWorkload allocates over 5 % more objects than the previous report
# recorded, or a previously gated benchmark disappears from the report.
#
#   scripts/bench.sh [output.json]
#   BENCHTIME=200ms scripts/bench.sh     # quicker smoke run (CI)
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_core.json}"
benchtime="${BENCHTIME:-1s}"

# Pin GOMAXPROCS explicitly for every benchmark invocation: the fleet
# parallel-vs-serial comparison is only meaningful when both runs see the
# same, known CPU budget (the 1m benchmarks record it as the cpus metric).
# Honor an externally pinned value; default to the machine width.
: "${GOMAXPROCS:=$(nproc)}"
export GOMAXPROCS

# The raw test2json stream lands in a temp file so a failed gate can still
# print what ran; the trap reclaims it on every exit path.
raw="$(mktemp -t bench-raw.XXXXXX)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' \
  -bench 'BenchmarkEngineStepConverged|BenchmarkEngineSnapshot$|BenchmarkFig6ScalabilitySparse|BenchmarkEngineStep$|BenchmarkEngineStepLarge$|BenchmarkRoundsToConverge|BenchmarkRecoveryRounds|BenchmarkWireCodec$' \
  -benchtime "$benchtime" -json . > "$raw"

# The fleet benchmarks run in their own pinned invocation: the serial and
# parallel 1m runs must not share a process with the engine microbenchmarks
# (GC pressure from earlier runs would skew the wall-clock ratio the
# parallel gate compares). The stream is concatenated into the same raw
# file; benchparse parses both invocations as one report.
go test -run '^$' \
  -bench 'BenchmarkFleetConverge|BenchmarkFleetBuild|BenchmarkFleetReplace' \
  -benchtime "$benchtime" -json . >> "$raw"

# The distributed round over TCP loopback runs in its own invocation: a
# sub-benchmark pattern in the first regex would filter every other
# family's sub-benchmarks as well.
go test -run '^$' -bench 'BenchmarkDistributedRounds/tcp' \
  -benchtime "$benchtime" -json . >> "$raw"

# Gate against the committed baseline too: a gated benchmark that vanishes
# from the report (renamed, regex narrowed) must fail loudly, not turn its
# gate into a silent no-op, and the metrics in benchparse's prevBounds table
# may not exceed it by more than their tolerance. The baseline is the
# previous $out, if any.
prev_args=()
if [[ -s "$out" ]]; then
  prev="$(mktemp -t bench-prev.XXXXXX)"
  trap 'rm -f "$raw" "$prev"' EXIT
  cp "$out" "$prev"
  prev_args=(-prev "$prev")
fi

# benchparse writes the report before running its gates, so on a gate
# failure $out still holds every parsed metric — print it as the summary.
if ! go run ./scripts/benchparse -o "$out" -check "${prev_args[@]}" < "$raw"; then
  echo "bench.sh: benchparse gate failed; parsed benchmark report follows" >&2
  cat "$out" >&2 || true
  exit 1
fi

# benchparse exits non-zero on empty input, but guard the artifact too: a
# truncated or missing report must never be committed as a baseline.
if [[ ! -s "$out" ]]; then
  echo "bench.sh: $out is missing or empty — the benchmark run produced no parsable output" >&2
  exit 1
fi
