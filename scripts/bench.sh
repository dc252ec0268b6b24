#!/usr/bin/env bash
# Regenerates the checked-in perf trajectory files the same way CI does.
#
#   scripts/bench.sh            full run (regenerates BENCH_leafcheck.json,
#                               BENCH_bitparallel.json, BENCH_corpus.json
#                               and BENCH_multilane.json)
#   scripts/bench.sh --quick    CI smoke mode (fewer candidates/iterations)
#
# The leafcheck bench asserts the >=3x compiled-vs-cached speedup gate
# and verdict bit-identity on every candidate; the bitparallel bench
# asserts the >=10x aggregate check_batch-vs-scalar speedup gate over
# the leafcheck scenarios (with a >=3x per-scenario floor), again at
# bit-identical verdicts; the corpus bench generates a 1000-spec fleet
# (150 in --quick mode), snapshots the cold engine's memo to disk, and
# asserts the >=3x warm-replay throughput gate with every warm verdict
# bit-identical and every warm request a result-memo hit; the multilane
# bench asserts the >=3x aggregate candidate-reduction gate of the
# canonical m=2 lane search over the naive per-slot product enumerator,
# at bit-identical verdicts. A regression in any fails the script.

set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--quick" ]]; then
    export RTCG_BENCH_QUICK=1
fi

cargo bench -p rtcg-bench --bench leafcheck
cargo bench -p rtcg-bench --bench bitparallel
cargo bench -p rtcg-bench --bench corpus
cargo bench -p rtcg-bench --bench multilane
