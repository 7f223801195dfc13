#!/usr/bin/env bash
# Correctness-tooling driver (DESIGN.md "Correctness tooling"):
#
#   1. static analysis / lint       (tools/analyze: the seven lint
#                                    rules, determinism and robustness
#                                    packs, module layering DAG and
#                                    waiver-rot check over src/ and
#                                    tools/, SARIF artifact at
#                                    build/analyze.sarif)
#   2. clang-tidy curated ruleset   (skipped when clang-tidy is absent)
#   3. -Werror build                (CMake preset `werror`)
#   4. sanitizer smoke test         (preset `asan-ubsan`, flow_test +
#                                    clustering_equivalence_test +
#                                    candidate_equivalence_test +
#                                    campaign store fuzz)
#   5. ThreadSanitizer              (preset `tsan`, thread pool +
#                                    determinism tests)
#   6. observability exports        (route a generated design with
#                                    --report/--trace, validate both with
#                                    tools/report_check)
#   7. hot-path kernel bench        (micro_kernels --report over the
#                                    shrunk synth suite; report_check
#                                    --bench against the committed
#                                    BENCH_streak.json enforces unchanged
#                                    solutions, the >= 30% pops / pivots
#                                    drop and hot counters within 10% of
#                                    the committed after sides)
#   8. chaos + deadline drill       (fault-injection sweep under
#                                    ASan/UBSan, then a --deadline= CLI
#                                    run whose report must validate with
#                                    the robust section present)
#   9. ECO drill                    (eco_test differential equivalence
#                                    suite, checkpoint-reader fuzz under
#                                    ASan/UBSan, then a checkpoint ->
#                                    delta -> `streak eco --save=` CLI
#                                    run at --threads=1 and 8 whose saved
#                                    checkpoints must be byte-identical
#                                    and whose report must pass
#                                    `report_check --eco`)
#  10. campaign regression drill    (`streak campaign run` sweeps every
#                                    builtin config over the shrunk
#                                    synth1-7 into a JSONL store;
#                                    `campaign diff` must be clean
#                                    against the store itself, and must
#                                    flag an injected 2x LP-pivot
#                                    regression with exit code 8)
#
# Usage:  tools/check.sh [--full]
#   --full   run the entire ctest suite (not just the smoke subsets)
#            under ASan/UBSan and TSan; slower but what CI should do.
set -euo pipefail

cd "$(dirname "$0")/.."
FULL=0
[[ "${1:-}" == "--full" ]] && FULL=1

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== [1/10] static analysis =="
# Full rule set: the seven lint rules, the determinism and robustness
# packs, and the module layering DAG (tools/analyze/layers.txt), with
# waiver-rot checking. The SARIF artifact is written even on a clean run
# so CI always has it to upload.
cmake --preset dev >/dev/null
cmake --build --preset dev --target streak_analyze -j "$JOBS" >/dev/null
./build/tools/analyze/streak_analyze \
    --layers tools/analyze/layers.txt \
    --sarif build/analyze.sarif \
    src tools

echo "== [2/10] clang-tidy =="
if command -v clang-tidy >/dev/null 2>&1; then
    # The dev preset exports compile_commands.json.
    mapfile -t SOURCES < <(find src -name '*.cpp' | sort)
    clang-tidy -p build --quiet "${SOURCES[@]}"
else
    echo "clang-tidy not installed; skipping (rules live in .clang-tidy)"
fi

echo "== [3/10] -Werror build =="
cmake --preset werror >/dev/null
cmake --build --preset werror -j "$JOBS"

echo "== [4/10] ASan/UBSan =="
cmake --preset asan-ubsan >/dev/null
cmake --build --preset asan-ubsan -j "$JOBS"
if [[ "$FULL" == 1 ]]; then
    ctest --preset asan-ubsan -j "$JOBS"
else
    # Smoke: the end-to-end flow exercises every stage (and, with
    # STREAK_CHECKS=deep baked into the preset, every stage auditor).
    # The clustering oracle suite checks the pair heap's index
    # bookkeeping (cluster ids, candidate ids, ratio memo) under ASan;
    # the candidate oracle suite checks the shared shapes and the
    # layer-offset edge ids of the candidate build; the campaign store
    # fuzz checks the JSONL reader's number handling on mutated lines.
    ./build-asan/tests/flow_test
    ./build-asan/tests/clustering_equivalence_test
    ./build-asan/tests/candidate_equivalence_test
    ./build-asan/tests/fuzz_test --gtest_filter='CampaignStoreFuzz.*'
fi

echo "== [5/10] ThreadSanitizer =="
cmake --preset tsan >/dev/null
if [[ "$FULL" == 1 ]]; then
    cmake --build --preset tsan -j "$JOBS"
    ctest --preset tsan -j "$JOBS"
else
    # The pool's own unit tests plus the thread-count invariance suite
    # cover every parallel seam in the flow.
    cmake --build --preset tsan -j "$JOBS" \
        --target thread_pool_test parallel_determinism_test
    ./build-tsan/tests/thread_pool_test
    ./build-tsan/tests/parallel_determinism_test
fi

echo "== [6/10] observability exports =="
cmake --build --preset dev --target streak_cli report_check -j "$JOBS" >/dev/null
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
./build/tools/streak generate 1 "$OBS_TMP/synth1.streak" >/dev/null
./build/tools/streak route "$OBS_TMP/synth1.streak" \
    --report="$OBS_TMP/report.json" --trace="$OBS_TMP/trace.json" --quiet
./build/tools/report_check "$OBS_TMP/report.json" "$OBS_TMP/trace.json"

echo "== [7/10] hot-path kernel bench =="
cmake --build --preset dev --target micro_kernels -j "$JOBS" >/dev/null
# Counter producer over the shrunk synth suite (A* + window maze search,
# bounded simplex; both "before" sides frozen in the committed
# BENCH_streak.json). report_check --bench is the one comparator with the
# committed file: solutions equal to the frozen before sides, the >= 30%
# pops / pivots drop, every committed design present, hot counters at
# most 10% above the committed after sides, no quality loss. The
# kernel_bench_contract ctest runs the same pair in tier-1.
STREAK_BENCH_JSON="$OBS_TMP/bench.json" ./build/bench/micro_kernels --report
./build/tools/report_check --bench "$OBS_TMP/bench.json" BENCH_streak.json

echo "== [8/10] chaos + deadline drill =="
# Fault-tolerance contract (DESIGN.md "Robustness"): sweep every
# cataloged fault site across the shrunk synth suites under ASan/UBSan —
# every run must end in an audited solution or a structured StreakError,
# never a crash. robust_test covers the deadline/cancellation plumbing.
cmake --build --preset asan-ubsan -j "$JOBS" \
    --target chaos_test robust_test >/dev/null
./build-asan/tests/chaos_test
./build-asan/tests/robust_test
# Deadline drill: a generous budget must change nothing, and the JSON
# run report must carry the robust section (deadline, degradations) that
# report_check validates.
./build/tools/streak route "$OBS_TMP/synth1.streak" \
    --deadline=60 --report="$OBS_TMP/deadline.json" --quiet
./build/tools/report_check "$OBS_TMP/deadline.json"

echo "== [9/10] ECO drill =="
# Differential equivalence contract (DESIGN.md "ECO"): an ECO re-route
# of the mutated design is byte-identical to a from-scratch re-route at
# other thread counts, and chained checkpoints lose nothing.
cmake --build --preset dev --target eco_test -j "$JOBS" >/dev/null
./build/tests/eco_test
# Checkpoint-reader fuzz (truncation / bit flips / version skew) under
# the sanitizers: hostile input must fail structurally, never with UB.
cmake --build --preset asan-ubsan -j "$JOBS" --target fuzz_test >/dev/null
./build-asan/tests/fuzz_test --gtest_filter='CheckpointFuzz.*'
# CLI drill: checkpoint a routed suite, apply a one-pin ECO at one and
# at eight threads, require the two saved checkpoints to be
# byte-identical, and validate the report with the eco section required.
./build/tools/streak generate 4 "$OBS_TMP/synth4.streak" >/dev/null
./build/tools/streak route "$OBS_TMP/synth4.streak" \
    --checkpoint="$OBS_TMP/synth4.ckpt" --quiet >/dev/null
PIN=$(grep -m1 '^PIN' "$OBS_TMP/synth4.streak")
printf 'MOVEPIN 0 0 0 %d %d\n' \
    "$(($(echo "$PIN" | cut -d' ' -f2) + 1))" \
    "$(echo "$PIN" | cut -d' ' -f3)" > "$OBS_TMP/fix.eco"
for T in 1 8; do
    ./build/tools/streak eco "$OBS_TMP/synth4.ckpt" \
        --deltas="$OBS_TMP/fix.eco" --threads="$T" \
        --report="$OBS_TMP/eco-t$T.json" --save="$OBS_TMP/eco-t$T.ckpt"
done
if ! cmp "$OBS_TMP/eco-t1.ckpt" "$OBS_TMP/eco-t8.ckpt"; then
    echo "check.sh: ECO checkpoints saved at --threads=1 and --threads=8" \
         "differ" >&2
    exit 1
fi
./build/tools/report_check --eco "$OBS_TMP/eco-t1.json"

echo "== [10/10] campaign regression drill =="
# Sweep every builtin config (pd, pd-nopost, ilp, manual) over the
# shrunk synth suites at one thread into an append-only JSONL store,
# then diff: against the store itself the verdict must be clean; with LP
# pivots scaled 2x (synth1-shrunk: 16 -> 32) the diff must exit 8 (the
# campaign-regression code), proving the alarm fires.
./build/tools/streak campaign run --store="$OBS_TMP/campaign.jsonl" \
    --threads=1 --quiet
./build/tools/streak campaign diff "$OBS_TMP/campaign.jsonl" \
    --baseline="$OBS_TMP/campaign.jsonl" --verdict="$OBS_TMP/verdict.json"
./build/tools/streak campaign run --store="$OBS_TMP/drill.jsonl" \
    --suites=1 --configs=ilp --threads=1 \
    --scale-counter=ilp/lp.pivots:2 --quiet
DRILL_RC=0
./build/tools/streak campaign diff "$OBS_TMP/drill.jsonl" \
    --baseline="$OBS_TMP/campaign.jsonl" \
    --verdict="$OBS_TMP/drill-verdict.json" --quiet 2>/dev/null \
    || DRILL_RC=$?
if [[ "$DRILL_RC" -ne 8 ]]; then
    echo "check.sh: campaign diff missed the injected 2x LP-pivot" \
         "regression (exit $DRILL_RC, expected 8)" >&2
    exit 1
fi

echo "check.sh: all stages passed"
