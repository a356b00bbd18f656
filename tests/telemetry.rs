//! Cross-crate telemetry guarantees (docs/OBSERVABILITY.md):
//!
//! 1. the always-on counters are *deterministic under parallelism* —
//!    a campaign reports identical verdict totals, and the same count
//!    of comparisons that left lane masks, whether it ran on 1,
//!    2, or 8 workers (the counters of the outcome-cache miss path are
//!    explicitly excluded: two workers may race a key and both count a
//!    miss — and both compile, lower, and run the racing entry);
//! 2. those miss-path work counters are pinned separately: exact across
//!    1-worker runs, with one plan compile per cache miss, and never
//!    below the 1-worker count with more workers (a race only adds
//!    work); the memory campaigns' plan runs, shared pairs and compiles
//!    at one worker are pinned to fixed values;
//! 3. traced spans are *well-formed* — per-thread stack discipline,
//!    every stop matches a start, and the rendered JSONL artifact
//!    validates with zero unmatched events;
//! 4. a process shard's stride skips stop at the end of the space.
//!
//! Telemetry state (the counter registry, the trace collector) is
//! process-global, so these tests serialize on one mutex. Other test
//! binaries run as separate processes and cannot interfere.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::Mutex;

use frost::prelude::*;
use frost::telemetry;

static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

/// Locks even when a previous test panicked (the registry itself is
/// fine; poisoning only marks that a holder died).
fn telemetry_lock() -> std::sync::MutexGuard<'static, ()> {
    TELEMETRY_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn run_campaign(workers: usize) -> ValidationReport {
    Campaign::new(Semantics::proposed())
        .with_workers(workers)
        .run_random(&GenConfig::arithmetic(2), 97, 160, |m| {
            o2_pipeline(PipelineMode::Fixed).run(m);
        })
}

/// A small memory campaign: every check crosses its programs with all
/// four one-byte initial memories, so the memory model's counters and
/// the bit-sliced engine's memory rejections move.
fn run_memory_campaign(workers: usize) -> ValidationReport {
    let inputs = InputOptions::new()
        .with_bytes_per_pointer(1)
        .with_memory_values(true);
    Campaign::with_options(CheckOptions::new(Semantics::proposed()).with_inputs(inputs))
        .with_workers(workers)
        .run_random(&GenConfig::memory(3), 97, 60, |m| {
            o2_pipeline(PipelineMode::Fixed).run(m);
        })
}

/// The memory campaign at the mem sweep's block size: four bytes per
/// pointer, so all 256 initial memories differ in bytes a run may or
/// may not touch.
fn run_wide_memory_campaign(workers: usize) -> ValidationReport {
    let inputs = InputOptions::new()
        .with_bytes_per_pointer(4)
        .with_memory_values(true);
    Campaign::with_options(CheckOptions::new(Semantics::proposed()).with_inputs(inputs))
        .with_workers(workers)
        .run_random(&GenConfig::memory(4), 97, 40, |m| {
            o2_pipeline(PipelineMode::Fixed).run(m);
        })
}

/// Work counters of the outcome-cache miss path that the equality
/// contract leaves out: plan/bitslice compiles and runs and the
/// allocas/concretizations they execute happen once per enumeration,
/// so a raced key double-counts them like the cache miss itself.
fn is_miss_path(name: &str) -> bool {
    [
        "frost.core.cache.",
        "frost.core.plan.",
        "frost.core.bitslice.",
        "frost.core.mem.",
    ]
    .iter()
    .any(|family| name.starts_with(family))
}

fn counters_where(
    snap: &telemetry::Snapshot,
    keep: impl Fn(&str) -> bool,
) -> BTreeMap<String, u64> {
    snap.counters
        .iter()
        .filter(|(k, _)| keep(k))
        .map(|(k, &v)| (k.clone(), v))
        .collect()
}

/// The counter names the determinism contract covers: everything frost
/// registers except the miss-path work counters and the run/shard shape
/// counters that legitimately vary with the worker count.
fn deterministic_counters(snap: &telemetry::Snapshot) -> BTreeMap<String, u64> {
    counters_where(snap, |k| {
        k.starts_with("frost.") && !is_miss_path(k) && !k.ends_with(".shards")
    })
}

#[test]
fn counter_totals_are_worker_count_invariant() {
    let _guard = telemetry_lock();
    let mut per_workers: Vec<(usize, BTreeMap<String, u64>)> = Vec::new();
    for workers in [1, 2, 8] {
        let before = telemetry::snapshot();
        let report = run_campaign(workers);
        // The campaign may clamp the requested count to the machine's
        // parallelism; determinism must hold at whatever it used.
        assert!(report.stats.workers >= 1);
        let delta = telemetry::snapshot().delta(&before);
        let counters = deterministic_counters(&delta);
        for (verdict, tally) in [
            ("checked", report.total),
            ("changed", report.changed),
            ("refined", report.refined),
            ("violations", report.violations.len()),
            ("inconclusive", report.inconclusive),
        ] {
            assert_eq!(
                counters
                    .get(&format!("frost.fuzz.campaign.{verdict}"))
                    .copied()
                    .unwrap_or(0),
                tally as u64,
                "global counter {verdict} must mirror the report"
            );
        }
        assert!(
            counters.get("frost.refine.checks").copied().unwrap_or(0) >= report.total as u64,
            "every campaign check goes through the refinement checker"
        );
        per_workers.push((workers, counters));
    }
    let (_, baseline) = &per_workers[0];
    for (workers, counters) in &per_workers[1..] {
        assert_eq!(
            counters, baseline,
            "counter totals with {workers} workers diverge from the 1-worker run"
        );
    }
}

/// `frost.core.plan.*`, `frost.core.bitslice.*` and `frost.core.mem.*`
/// are off the equality surface, but a worker-count dependence in them
/// must still show: the same campaigns on one worker count them
/// identically every time, and more workers may only add to them — a
/// raced key is enumerated twice, never zero times. Every campaign
/// function is self-contained, so on one worker each cache miss is
/// exactly one plan compile. Cache hits are not pinned: a race turns a
/// hit into a miss.
#[test]
fn miss_path_counters_are_exact_at_one_worker_and_only_grow_with_more() {
    let _guard = telemetry_lock();
    let run = |workers| {
        let before = telemetry::snapshot();
        assert!(run_campaign(workers).is_clean());
        assert!(run_memory_campaign(workers).is_clean());
        let delta = telemetry::snapshot().delta(&before);
        let pinned = counters_where(&delta, |k| {
            is_miss_path(k) && !k.starts_with("frost.core.cache.")
        });
        (pinned, delta.counter("frost.core.cache.misses"))
    };
    let (baseline, misses) = run(1);
    for moved in [
        "frost.core.plan.compiles",
        "frost.core.plan.shared",
        "frost.core.bitslice.compiles",
        "frost.core.bitslice.mem_rejects",
        "frost.core.mem.allocas",
    ] {
        assert!(
            baseline.contains_key(moved),
            "{moved} must move: {baseline:?}"
        );
    }
    assert_eq!(
        baseline["frost.core.plan.compiles"], misses,
        "one plan compile per cache miss"
    );
    assert_eq!(run(1).0, baseline, "two 1-worker runs diverge");
    for workers in [2, 8] {
        let (counters, _) = run(workers);
        for (name, &one) in &baseline {
            let got = counters.get(name).copied().unwrap_or(0);
            assert!(
                got >= one,
                "{name}: {got} with {workers} workers, below the 1-worker {one}"
            );
        }
    }
}

/// How the plan engine shares runs across initial memories is pinned by
/// its work on both memory campaigns at one worker: runs made, pairs
/// answered from another memory's run, and compiles. A different way of
/// sharing may pick another run for a pair, but may not make one run
/// more or share one pair fewer.
#[test]
fn memory_campaign_plan_work_is_pinned_at_one_worker() {
    let _guard = telemetry_lock();
    let plan_work = |campaign: fn(usize) -> ValidationReport| {
        let before = telemetry::snapshot();
        assert!(campaign(1).is_clean());
        let delta = telemetry::snapshot().delta(&before);
        ["runs", "shared", "compiles"].map(|name| delta.counter(&format!("frost.core.plan.{name}")))
    };
    assert_eq!(plan_work(run_memory_campaign), [335, 345, 85]);
    assert_eq!(plan_work(run_wide_memory_campaign), [320, 33984, 67]);
}

/// `frost.fuzz.campaign.skip.stride` counts the positions a process
/// shard fast-forwards across, none past the end of the space: each of
/// 7 shards of the 1,428-function 1-inst arithmetic space checks 204
/// functions and skips the 1,224 the other shards own.
#[test]
fn stride_skips_stop_at_the_end_of_the_space() {
    let _guard = telemetry_lock();
    for shard in 0..7 {
        let before = telemetry::snapshot();
        let (report, _) = Campaign::new(Semantics::proposed())
            .with_process_shard(shard, 7)
            .run_exhaustive(&GenConfig::arithmetic(1), None, |_| {});
        let delta = telemetry::snapshot().delta(&before);
        assert_eq!(report.total, 204, "shard {shard}");
        assert_eq!(
            delta.counter("frost.fuzz.campaign.skip.stride"),
            1_428 - 204,
            "shard {shard}"
        );
    }
}

/// `frost.refine.compare.materialized` counts the checks whose
/// comparison left lane masks. That is a property of each (source,
/// target) pair, not of who enumerated it, so the counter is on the
/// equality surface. The memory campaign's sides are plan-only, so its
/// checks are compared set by set and the counter moves.
#[test]
fn materialized_comparisons_are_worker_count_invariant() {
    let _guard = telemetry_lock();
    let counts: Vec<(u64, u64)> = [1, 2, 8]
        .into_iter()
        .map(|workers| {
            let before = telemetry::snapshot();
            assert!(run_memory_campaign(workers).is_clean());
            let delta = telemetry::snapshot().delta(&before);
            (
                delta.counter("frost.refine.compare.materialized"),
                delta.counter("frost.refine.checks"),
            )
        })
        .collect();
    let (materialized, checks) = counts[0];
    assert!(
        0 < materialized && materialized <= checks,
        "plan-only sides are compared set by set: {counts:?}"
    );
    assert!(counts.iter().all(|&c| c == counts[0]), "{counts:?}");
}

#[test]
fn spans_nest_and_the_artifact_validates() {
    let _guard = telemetry_lock();
    telemetry::enable(telemetry::TraceFormat::Jsonl);
    telemetry::drain();
    let report = run_campaign(2);
    telemetry::disable();
    let events = telemetry::drain();
    assert!(report.is_clean(), "{report}");
    assert!(!events.is_empty(), "a traced campaign must record spans");

    // Per-thread stack discipline: every stop closes the innermost
    // open span of its thread.
    let mut stacks: HashMap<u64, Vec<u64>> = HashMap::new();
    for ev in &events {
        let stack = stacks.entry(ev.tid).or_default();
        match ev.kind {
            telemetry::TraceEventKind::Start => stack.push(ev.span),
            telemetry::TraceEventKind::Stop => {
                assert_eq!(
                    stack.pop(),
                    Some(ev.span),
                    "span {} on thread {} stopped out of order",
                    ev.span,
                    ev.tid
                );
            }
            telemetry::TraceEventKind::Point => {}
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "thread {tid} left spans open: {stack:?}");
    }

    // The rendered artifact round-trips through the validator with
    // nothing unmatched, and the campaign spans are present.
    let stats = telemetry::validate_jsonl(&telemetry::render_jsonl(&events)).expect("valid JSONL");
    assert_eq!(stats.unmatched, 0);
    assert_eq!(stats.starts, stats.stops);
    assert!(stats.by_key.contains_key("fuzz.campaign.run"));
    assert!(stats.by_key.contains_key("fuzz.campaign.shard"));
    assert!(stats.by_key.contains_key("refine.check.run"));
    assert!(
        stats.by_key.keys().any(|k| k.starts_with("opt.pass.run[")),
        "per-pass keys expected, got {:?}",
        stats.by_key.keys().collect::<Vec<_>>()
    );
}

#[test]
fn disabled_tracing_records_nothing() {
    let _guard = telemetry_lock();
    telemetry::disable();
    telemetry::drain();
    let report = run_campaign(2);
    assert!(report.is_clean(), "{report}");
    assert!(
        telemetry::drain().is_empty(),
        "spans must be inert while tracing is off"
    );
}
