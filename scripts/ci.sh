#!/usr/bin/env sh
# The tier-1 gate: everything a PR must pass, in the order a failure is
# cheapest to report. Run from anywhere; operates on the workspace root.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
cargo test --workspace -q

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> benchmark helper (perfbench/) builds and its unit tests pass"
# perfbench calls public engine, cache and refine entry points, and its
# `gen-input` / `check-input` make and check every input-workload run:
# an API change that breaks it must fail here, not in a benchmark run.
CARGO_TARGET_DIR=target cargo build --release --offline --manifest-path perfbench/Cargo.toml
python3 -m unittest discover -s perfbench

echo "==> plan-vs-reference differential smoke (tests/exec_plan.rs)"
# A thin §6 stride through both the plan engine and the retained
# reference tree-walk, under both semantics — keeps the reference
# interpreter from silently rotting.
cargo test -q --release -p frost --test exec_plan differential_smoke

echo "==> tiny-memory differential gate (tests/exec_plan.rs, frost-refine)"
# Memory programs (alloca/load/store/gep/int<->ptr casts) through both
# engines under both semantics, crossed against every <=2-byte initial
# memory — outcome sets must be byte-identical, including
# deferred-vs-immediate OOB UB. Shared runs (one plan run answering
# every memory that agrees on the bytes it touched) must give the
# unshared reference checker's verdict text over the whole 3-inst
# memory space, and a store on one branch must count as touched. Byte
# classes must be exact on a hand-built list (pointer bits, undef vs
# poison bits, twin memories), and compare must decide every (source
# run, target run) combination.
cargo test -q --release -p frost --test exec_plan \
    memory_programs_match_reference_over_every_tiny_memory
cargo test -q --release -p frost --test exec_plan \
    shared_runs_give_the_reference_verdict_text_over_memories
cargo test -q --release -p frost --test exec_plan \
    hand_built_memory_lists_read_back_like_the_reference
cargo test -q --release -p frost-refine --lib \
    a_store_on_one_branch_is_touched_for_every_memory
cargo test -q --release -p frost-refine --lib \
    every_combination_of_a_source_run_is_decided

echo "==> telemetry smoke (docs/OBSERVABILITY.md contract)"
# The quickstart with tracing on must produce a non-empty, schema-valid
# telemetry.jsonl; the sweep's own validator is the checker, so the
# gate needs no python/jq.
rm -f telemetry.jsonl
FROST_TRACE=json FROST_TRACE_FILE=telemetry.jsonl \
    cargo run -q --release -p frost --example quickstart >/dev/null
test -s telemetry.jsonl || {
    echo "ci: telemetry.jsonl missing or empty" >&2
    exit 1
}
cargo run -q --release -p frost-bench --bin repro -- --validate-trace telemetry.jsonl

echo "==> §6 sweep with tracing on (emits telemetry.jsonl artifact)"
FROST_TRACE_FILE=telemetry.jsonl \
    cargo run -q --release -p frost-bench --bin repro -- \
    --experiment optfuzz --budget 200 --trace --counters

echo "==> full unsampled 2-inst exhaustive sweep (wall-clock budget)"
# The complete 2,661,792-function i2 arithmetic space through fixed
# InstCombine on Engine::Auto — ~20 seconds at the measured ~150k fn/s.
# The deadline is a parachute, not a sample: if the box is slow enough
# to hit it, the checkpoint line below fails the gate loudly instead of
# silently shipping a partial sweep. Its summary must equal the
# EXPERIMENTS.md line byte for byte. The run also emits the
# machine-readable BENCH_sweep.json benchmark record, which must pass
# the telemetry validator.
rm -f sweep-ci.jsonl BENCH_sweep.json
cargo run -q --release -p frost-bench --bin repro -- \
    --experiment sweep --seconds 600 --checkpoint sweep-ci.jsonl \
    --bench-json BENCH_sweep.json \
    | tee sweep-ci.out
grep -q "complete=true" sweep-ci.out || {
    echo "ci: full 2-inst sweep did not complete within budget" >&2
    exit 1
}
grep -q "violations=0" sweep-ci.out || {
    echo "ci: full 2-inst sweep found violations in fixed mode" >&2
    exit 1
}
grep "^sweep:" sweep-ci.out > sweep-summary.out
echo "sweep: checked=2661792 changed=2512612 refined=2661792 violations=0 inconclusive=0 complete=true" \
    > sweep-expected.out
cmp sweep-summary.out sweep-expected.out || {
    echo "ci: full 2-inst sweep summary diverges from EXPERIMENTS.md" >&2
    diff sweep-summary.out sweep-expected.out >&2 || true
    exit 1
}
rm -f sweep-summary.out sweep-expected.out
cargo run -q --release -p frost-bench --bin repro -- \
    --validate-trace BENCH_sweep.json

echo "==> memory-domain exhaustive sweep (4-inst, every initial memory)"
# The block-based memory domain enters the perf trajectory: the whole
# 4-instruction memory-program space (alloca/load/store/gep/casts ×
# every {0x00,0x01,0xFF,poison} initial memory) through the fixed
# alias-aware GVN must complete with zero violations (0.4 s on 2
# vCPU; 8.5-10.2 s before runs were shared across memories), and its
# BENCH_mem.json record must pass the telemetry validator. Its summary must equal the EXPERIMENTS.md row byte for
# byte, so a verdict flip anywhere in the space fails the gate.
rm -f BENCH_mem.json
cargo run -q --release -p frost-bench --bin repro -- \
    --experiment sweep --mem --insts 4 --seconds 600 \
    --bench-json BENCH_mem.json \
    | tee sweep-mem-ci.out
grep -q "complete=true" sweep-mem-ci.out || {
    echo "ci: 4-inst memory sweep did not complete within budget" >&2
    exit 1
}
grep -q "violations=0" sweep-mem-ci.out || {
    echo "ci: memory sweep found violations in fixed alias-aware mode" >&2
    exit 1
}
grep "^sweep:" sweep-mem-ci.out > sweep-mem-summary.out
echo "sweep: checked=32903 changed=25885 refined=32903 violations=0 inconclusive=0 complete=true" \
    > sweep-mem-expected.out
cmp sweep-mem-summary.out sweep-mem-expected.out || {
    echo "ci: 4-inst memory sweep summary diverges from EXPERIMENTS.md" >&2
    diff sweep-mem-summary.out sweep-mem-expected.out >&2 || true
    exit 1
}
cargo run -q --release -p frost-bench --bin repro -- \
    --validate-trace BENCH_mem.json
rm -f sweep-mem-ci.out sweep-mem-summary.out sweep-mem-expected.out

echo "==> memory-domain exhaustive sweep (5-inst, every initial memory)"
# The same gate one instruction deeper: 869,113 memory programs, each
# over all 256 initial memories (13.1-13.3 s and 102 MB peak RSS on 2
# vCPU; 17.5-18.0 s before a run took its whole byte class, 255 s and
# 2.4 GB before runs were shared across memories).
# Its summary must equal the EXPERIMENTS.md line byte for byte.
rm -f BENCH_mem5.json
cargo run -q --release -p frost-bench --bin repro -- \
    --experiment sweep --mem --insts 5 --seconds 600 \
    --bench-json BENCH_mem5.json \
    | tee sweep-mem5-ci.out
grep -q "complete=true" sweep-mem5-ci.out || {
    echo "ci: 5-inst memory sweep did not complete within budget" >&2
    exit 1
}
grep "^sweep:" sweep-mem5-ci.out > sweep-mem5-summary.out
echo "sweep: checked=869113 changed=741726 refined=869113 violations=0 inconclusive=0 complete=true" \
    > sweep-mem5-expected.out
cmp sweep-mem5-summary.out sweep-mem5-expected.out || {
    echo "ci: 5-inst memory sweep summary diverges from EXPERIMENTS.md" >&2
    diff sweep-mem5-summary.out sweep-mem5-expected.out >&2 || true
    exit 1
}
cargo run -q --release -p frost-bench --bin repro -- \
    --validate-trace BENCH_mem5.json
rm -f sweep-mem5-ci.out sweep-mem5-summary.out sweep-mem5-expected.out

echo "==> guarded-program exhaustive sweep (2-inst, assume/unreachable)"
# The guarded domain: every 2-instruction program over raw, compared,
# and frozen assume facts (poison constants included) through the fixed
# assume-simplify + guard-dce band must complete with zero violations,
# and its BENCH_guard.json record must pass the telemetry validator.
# Its summary must equal the EXPERIMENTS.md line byte for byte.
# Most guarded functions are bit-sliced; the few with a guard the
# engine cannot lower (939 of 59,143 enumerations in this space,
# frost.core.bitslice.guard_rejects) exercise the Engine::Auto plan
# fallback.
rm -f BENCH_guard.json
cargo run -q --release -p frost-bench --bin repro -- \
    --experiment sweep --guards --seconds 600 \
    --bench-json BENCH_guard.json \
    | tee sweep-guard-ci.out
grep -q "complete=true" sweep-guard-ci.out || {
    echo "ci: 2-inst guarded sweep did not complete within budget" >&2
    exit 1
}
grep -q "violations=0" sweep-guard-ci.out || {
    echo "ci: guarded sweep found violations in the fixed guard band" >&2
    exit 1
}
grep "^sweep:" sweep-guard-ci.out > sweep-guard-summary.out
echo "sweep: checked=58880 changed=43733 refined=58880 violations=0 inconclusive=0 complete=true" \
    > sweep-guard-expected.out
cmp sweep-guard-summary.out sweep-guard-expected.out || {
    echo "ci: 2-inst guarded sweep summary diverges from EXPERIMENTS.md" >&2
    diff sweep-guard-summary.out sweep-guard-expected.out >&2 || true
    exit 1
}
cargo run -q --release -p frost-bench --bin repro -- \
    --validate-trace BENCH_guard.json
rm -f sweep-guard-ci.out sweep-guard-summary.out sweep-guard-expected.out

echo "==> sweep domain refusals (--guards --prune, --mem --guards)"
# Pruning keeps only the arithmetic space's behaviours, and a sweep
# walks one domain: both combinations must exit 1 naming the flag.
for flags in "--guards --prune" "--mem --guards"; do
    status=0
    # shellcheck disable=SC2086
    cargo run -q --release -p frost-bench --bin repro -- \
        --experiment sweep $flags --insts 1 >/dev/null 2>sweep-refusal.err || status=$?
    flag=${flags##* }
    if [ "$status" -ne 1 ] || ! grep -q -- "$flag" sweep-refusal.err; then
        echo "ci: 'repro -e sweep $flags' must exit 1 naming $flag (exit $status)" >&2
        cat sweep-refusal.err >&2
        exit 1
    fi
done
rm -f sweep-refusal.err

echo "==> 3-inst sharded sweep slice + merge smoke, pinned prefixes and stride skips (bounded)"
# A bounded slice of the 3-instruction space (6.3B functions unpruned,
# 87.5M after generation-time pruning) as a 2-process campaign: each
# shard sweeps its residue class under a per-shard budget, then the
# coordinator merges the checkpoints. The merged summary must be
# byte-identical to a single-process sweep of the same 2N-function
# prefix — the union-equals-whole guarantee the campaign tests prove,
# exercised end-to-end through the CLI. Stays well inside the
# 10-minute parachute (~1 s of checking per leg at measured rates).
rm -f sweep-shard0.jsonl sweep-shard1.jsonl sweep-merged.jsonl
cargo run -q --release -p frost-bench --bin repro -- \
    --experiment sweep --insts 3 --prune --budget 20000 \
    --shards 2 --shard-id 0 --checkpoint sweep-shard0.jsonl >/dev/null
cargo run -q --release -p frost-bench --bin repro -- \
    --experiment sweep --insts 3 --prune --budget 20000 \
    --shards 2 --shard-id 1 --checkpoint sweep-shard1.jsonl >/dev/null
cargo run -q --release -p frost-bench --bin repro -- \
    --experiment sweep --merge sweep-shard0.jsonl --merge sweep-shard1.jsonl \
    --checkpoint sweep-merged.jsonl \
    | grep "^sweep:" > sweep-merged.out
cargo run -q --release -p frost-bench --bin repro -- \
    --experiment sweep --insts 3 --prune --budget 40000 \
    | grep "^sweep:" > sweep-single3.out
cmp sweep-merged.out sweep-single3.out || {
    echo "ci: merged 2-shard sweep diverges from single-process reference" >&2
    diff sweep-merged.out sweep-single3.out >&2 || true
    exit 1
}
# A budget prefix moves whenever the generator's walk order does, even
# when whole-space counts stay put, so the single-process prefix line
# and a 3-inst guarded prefix are pinned byte for byte as well.
echo "sweep: checked=40000 changed=19204 refined=40000 violations=0 inconclusive=0 complete=false" \
    > sweep-expected3.out
cmp sweep-single3.out sweep-expected3.out || {
    echo "ci: 3-inst pruned 40000-function prefix diverges from its pinned line" >&2
    diff sweep-single3.out sweep-expected3.out >&2 || true
    exit 1
}
cargo run -q --release -p frost-bench --bin repro -- \
    --experiment sweep --guards --insts 3 --budget 40000 \
    | grep "^sweep:" > sweep-guard3.out
echo "sweep: checked=40000 changed=36098 refined=40000 violations=0 inconclusive=0 complete=false" \
    > sweep-expected3.out
cmp sweep-guard3.out sweep-expected3.out || {
    echo "ci: 3-inst guarded 40000-function prefix diverges from its pinned line" >&2
    diff sweep-guard3.out sweep-expected3.out >&2 || true
    exit 1
}
# Large-stride residue classes: a shard of K=48 fast-forwards across
# a carry every few functions, so these pin the walk's cursor through
# those carries (the option lists it looks up rather than rebuilds),
# byte for byte, in both the summary and the checkpoint.
pin_stride() {
    flags=$1 line=$2 cursor=$3
    rm -f sweep-stride.jsonl
    # shellcheck disable=SC2086
    cargo run -q --release -p frost-bench --bin repro -- \
        --experiment sweep $flags --checkpoint sweep-stride.jsonl \
        | grep "^sweep:" > sweep-stride.out
    echo "$line" > sweep-expected3.out
    if ! cmp -s sweep-stride.out sweep-expected3.out ||
        ! grep -qF "\"cursor\":$cursor,\"done\":false" sweep-stride.jsonl; then
        echo "ci: 'repro -e sweep $flags' moved from its pinned line or cursor" >&2
        diff sweep-stride.out sweep-expected3.out >&2 || true
        exit 1
    fi
}
pin_stride "--guards --insts 3 --shards 48 --shard-id 1 --budget 20000" \
    "sweep: checked=20000 changed=18136 refined=20000 violations=0 inconclusive=0 complete=false" \
    '[8,100,246],"counter":"959954"'
pin_stride "--insts 3 --prune --shards 48 --shard-id 5 --budget 5000" \
    "sweep: checked=5000 changed=2221 refined=5000 violations=0 inconclusive=0 complete=false" \
    '[1,303,369],"counter":"239958"'
pin_stride "--mem --insts 5 --shards 48 --shard-id 7 --budget 5000" \
    "sweep: checked=5000 changed=4157 refined=5000 violations=0 inconclusive=0 complete=false" \
    '[2,4,11,15,8],"counter":"239960"'
# stride_skips counts the positions a shard crosses and none past the
# end of the space: 1,224 for the last of 7 shards of the 1,428-function
# 1-inst space, and 6,276,505,535 for a shard of 10^17 that checks
# position 0 of the 6,276,505,536-function 3-inst space.
pin_skips() {
    skips=$1
    shift
    rm -f sweep-stride.json
    cargo run -q --release -p frost-bench --bin repro -- \
        --experiment sweep "$@" --bench-json sweep-stride.json >/dev/null
    grep -qF "\"stride_skips\":$skips," sweep-stride.json || {
        echo "ci: 'repro -e sweep $*' must record stride_skips $skips" >&2
        cat sweep-stride.json >&2
        exit 1
    }
}
pin_skips 1224 --insts 1 --shards 7 --shard-id 6
# That 204-function slice is one chunk, so the pool is one worker: a
# campaign never starts more workers than it has chunks.
grep -qF '"workers":1,"chunks":1,' sweep-stride.json || {
    echo "ci: a one-chunk sweep must record one worker and one chunk" >&2
    cat sweep-stride.json >&2
    exit 1
}
pin_skips 6276505535 --insts 3 --shards 100000000000000000 --shard-id 0 --budget 2
rm -f sweep-shard0.jsonl sweep-shard1.jsonl sweep-merged.jsonl \
    sweep-merged.out sweep-single3.out sweep-guard3.out sweep-expected3.out \
    sweep-stride.jsonl sweep-stride.out sweep-stride.json

echo "==> textual IR roundtrip fidelity (full §6 corpus + 10k fuzz sample)"
# Every function of the unsampled §6 exhaustive spaces, a 10k random
# sample of the deeper spaces, and every workload module (pre- and
# post-O2) must survive print -> parse with its FunctionKey intact.
cargo run -q --release -p frost-bench --bin repro -- \
    --experiment roundtrip --fuzz 10000 \
    | tee roundtrip-ci.out
grep -q "^roundtrip: checked=" roundtrip-ci.out || {
    echo "ci: roundtrip gate produced no summary" >&2
    exit 1
}
grep "^roundtrip: " roundtrip-ci.out | grep -q "mismatches=0" || {
    echo "ci: print->parse roundtrip mismatches found" >&2
    exit 1
}
rm -f roundtrip-ci.out

echo "==> doc examples parse (README / IR_REFERENCE / DESIGN + examples/*.fir)"
# Every fenced fir block in the documentation and every committed
# example module must parse; crates/ir/tests/doc_examples.rs is the
# checker, so the gate needs no extra tooling.
cargo test -q --release -p frost-ir --test doc_examples

echo "==> repro --input smoke (5.4 load widening, callee swap, freeze removal, store swap, malformed modules)"
# The sound vector widening and the intentionally-UNSOUND scalar one
# must both run to a verdict (exit 0 — verdicts are results, not
# errors) and land on the expected sides.
cargo run -q --release -p frost-bench --bin repro -- \
    --input examples/load_widen_vector.fir | tee input-ci.out
grep -q "@widen -> @widen.tgt: sound" input-ci.out || {
    echo "ci: vector load widening no longer validates as sound" >&2
    exit 1
}
cargo run -q --release -p frost-bench --bin repro -- \
    --input examples/load_widen_scalar.fir | tee input-ci.out
grep -q "@widen -> @widen.tgt: UNSOUND" input-ci.out || {
    echo "ci: scalar load widening no longer caught as unsound" >&2
    exit 1
}
# A pair whose bodies differ only in the helper they call: the verdict
# must come from the callee's body, so each side's call closure is
# compiled and checked through the CLI.
cargo run -q --release -p frost-bench --bin repro -- \
    --input examples/callee_swap.fir | tee input-ci.out
grep -q "@f -> @f.tgt: UNSOUND" input-ci.out || {
    echo "ci: swapping in the nsw helper no longer caught as unsound" >&2
    exit 1
}
# An i2 freeze removal, bit-sliced on both sides: the two sides are
# compared in lane masks and only the violating lane becomes outcome
# sets. Its four counterexample lines are pinned byte for byte.
cargo run -q --release -p frost-bench --bin repro -- \
    --input examples/freeze_removal.fir | tee input-ci.out
grep -A3 "@f -> @f.tgt: UNSOUND" input-ci.out > input-ce.out || true
cat > input-ce-expected.out <<'EOF'
  @f -> @f.tgt: UNSOUND — args = (poison)
        source can: {ret i2 0 | ret i2 1 | ret i2 2 | ret i2 3}
        target can: {ret poison}
        unjustified target behavior: ret poison
EOF
cmp input-ce.out input-ce-expected.out || {
    echo "ci: freeze-removal counterexample text changed" >&2
    diff input-ce.out input-ce-expected.out >&2 || true
    exit 1
}
# Two sides that differ only in the byte they store: the returns agree,
# so the counterexample must show both final memories.
cargo run -q --release -p frost-bench --bin repro -- \
    --input examples/store_mismatch.fir | tee input-ci.out
grep -q "@f -> @f.tgt: UNSOUND" input-ci.out &&
    grep -q "source final memory: b0 = \[0x00 " input-ci.out &&
    grep -q "target final memory: b0 = \[0x01 " input-ci.out || {
    echo "ci: a store-only difference must print UNSOUND with both final memories" >&2
    exit 1
}
rm -f input-ci.out input-ce.out input-ce-expected.out
# Malformed modules are errors, not panics: a definition after an
# instruction on its line, a label after a terminator on its line, and
# a vector length past u32. Each must exit 1 with a diagnostic.
bad=$(mktemp)
bad_input() {
    printf '%s\n' "$@" >"$bad"
    status=0
    cargo run -q --release -p frost-bench --bin repro -- \
        --input "$bad" >/dev/null 2>"$bad.err" || status=$?
    if [ "$status" -ne 1 ] || ! grep -q "error:" "$bad.err"; then
        echo "ci: a malformed module must exit 1 with an error (exit $status):" >&2
        cat "$bad" "$bad.err" >&2
        exit 1
    fi
}
bad_input 'define i2 @f(i2 %x) {' 'entry:' '  %a = add i2 %x, 1 %b = mul i2 %x, 0' \
    '  %c = add i2 %a, 1' '  ret i2 %c' '}'
bad_input 'define i32 @f() {' 'entry:' '  ret i32 0 b:' '}'
bad_input 'define i8 @f(<4294967296 x i8> %v) {' 'entry:' \
    '  %e = extractelement <4294967296 x i8> %v, i32 0' '  ret i8 %e' '}'
rm -f "$bad" "$bad.err"

echo "==> checkpoint kill/resume determinism smoke"
# Interrupt a small sweep mid-flight with a tight budget, resume it
# from the checkpoint, and require the final summary to be identical
# to a single uninterrupted run (the summary excludes wall-clock
# columns by construction).
rm -f sweep-resume.jsonl
cargo run -q --release -p frost-bench --bin repro -- \
    --experiment sweep --insts 1 --budget 100 --checkpoint sweep-resume.jsonl \
    >/dev/null
grep -q '"done":false' sweep-resume.jsonl || {
    echo "ci: interrupted sweep checkpoint claims completion" >&2
    exit 1
}
cargo run -q --release -p frost-bench --bin repro -- \
    --experiment sweep --insts 1 --checkpoint sweep-resume.jsonl \
    | grep "^sweep:" > sweep-resumed.out
cargo run -q --release -p frost-bench --bin repro -- \
    --experiment sweep --insts 1 \
    | grep "^sweep:" > sweep-oneshot.out
cmp sweep-resumed.out sweep-oneshot.out || {
    echo "ci: resumed sweep diverges from uninterrupted run" >&2
    diff sweep-resumed.out sweep-oneshot.out >&2 || true
    exit 1
}
# A checkpoint of another space is refused with an error (exit 1, the
# reason on stderr), not a panic and not a silently mixed tally.
status=0
cargo run -q --release -p frost-bench --bin repro -- \
    --experiment sweep --insts 2 --checkpoint sweep-resume.jsonl \
    >/dev/null 2>sweep-mismatch.err || status=$?
if [ "$status" -ne 1 ] || ! grep -q checkpoint sweep-mismatch.err; then
    echo "ci: resuming a 1-inst checkpoint as a 2-inst sweep must exit 1 naming the checkpoint (exit $status)" >&2
    cat sweep-mismatch.err >&2
    exit 1
fi
rm -f sweep-ci.jsonl sweep-ci.out sweep-resume.jsonl sweep-resumed.out sweep-oneshot.out \
    sweep-mismatch.err

echo "ci: all green"
