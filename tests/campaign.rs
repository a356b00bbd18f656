//! Integration tests for the parallel validation-campaign engine:
//! reproducibility across worker counts, cache correctness against the
//! uncached checker, and budget/observer behavior (DESIGN.md, campaign
//! architecture).

use frost::opt::{Dce, InstCombine};
use frost::prelude::*;

/// A corpus config whose legacy-InstCombine run is known to produce
/// violations: §3.1's `mul x, 2 -> add x, x` fires on undef operands.
fn violating_cfg(num_insts: usize) -> GenConfig {
    GenConfig {
        ops: vec![frost::ir::BinOp::Mul],
        consts: vec![2],
        poison_const: false,
        flags: false,
        freeze: false,
        ..GenConfig::arithmetic(num_insts)
    }
    .with_undef()
}

fn legacy_instcombine(m: &mut Module) {
    for f in &mut m.functions {
        InstCombine::new(PipelineMode::Legacy).apply(f);
        Dce::new().apply(f);
        f.compact();
    }
}

/// Same seed ⇒ byte-identical violation sets, independent of how many
/// workers the campaign runs on (the ISSUE's determinism guarantee).
#[test]
fn same_seed_same_violations_at_1_2_8_workers() {
    let cfg = violating_cfg(2);
    let seed = 0xF005_BA11;
    let run = |workers: usize| {
        Campaign::new(Semantics::legacy_gvn())
            .with_workers(workers)
            .with_shard_size(7)
            .run_random(&cfg, seed, 300, legacy_instcombine)
    };
    let one = run(1);
    assert!(
        !one.is_clean(),
        "the corpus must produce violations for the test to mean anything: {one}"
    );
    for workers in [2, 8] {
        let multi = run(workers);
        assert_eq!(
            one.violations, multi.violations,
            "violation set diverged at {workers} workers"
        );
        assert_eq!(one.total, multi.total);
        assert_eq!(one.changed, multi.changed);
        assert_eq!(one.refined, multi.refined);
        assert_eq!(one.inconclusive, multi.inconclusive);
    }
}

/// The exhaustive corpus is deterministic too — no seed involved, but
/// shard claiming must not reorder or drop verdicts.
#[test]
fn exhaustive_corpus_is_stable_across_worker_counts() {
    let cfg = violating_cfg(1);
    let run = |workers: usize| {
        Campaign::new(Semantics::legacy_gvn())
            .with_workers(workers)
            .with_shard_size(3)
            .run(enumerate_functions(cfg.clone()), legacy_instcombine)
    };
    let one = run(1);
    let eight = run(8);
    assert!(!one.is_clean());
    assert_eq!(one.violations, eight.violations);
    assert_eq!(one.total, eight.total);
}

/// The memoizing checker agrees verdict-for-verdict with the uncached
/// one over a whole corpus, and actually hits its cache while doing so.
#[test]
fn cached_checker_agrees_with_fresh_over_a_corpus() {
    let cache = OutcomeCache::new();
    let opts = CheckOptions::new(Semantics::legacy_gvn());
    let mut compared = 0;
    for f in enumerate_functions(violating_cfg(2)) {
        let name = f.name.clone();
        let mut before = frost::ir::Module::new();
        before.functions.push(f);
        let mut after = before.clone();
        legacy_instcombine(&mut after);

        let fresh = check_refinement(&before, &name, &after, &name, &opts);
        let cached = check_refinement_cached(&before, &name, &after, &name, &opts, &cache);
        assert_eq!(
            format!("{fresh:?}"),
            format!("{cached:?}"),
            "verdicts diverged on:\n{before}"
        );
        compared += 1;
    }
    assert!(
        compared > 20,
        "corpus too small to be meaningful: {compared}"
    );
    assert!(
        cache.hits() > 0,
        "a corpus of near-duplicate functions must hit the cache"
    );
}

/// A budget of N checks exactly the first N corpus entries: the report
/// is the prefix of the unbudgeted run.
#[test]
fn budget_checks_exactly_the_corpus_prefix() {
    let cfg = violating_cfg(2);
    let seed = 99;
    let full = Campaign::new(Semantics::legacy_gvn())
        .with_workers(2)
        .run_random(&cfg, seed, 200, legacy_instcombine);
    let budget = 80;
    let capped = Campaign::new(Semantics::legacy_gvn())
        .with_workers(2)
        .with_budget(budget)
        .run_random(&cfg, seed, 200, legacy_instcombine);
    assert_eq!(capped.total, budget);
    assert!(capped.stats.budget_hit);
    assert!(!full.stats.budget_hit);
    let expected: Vec<_> = full
        .violations
        .iter()
        .filter(|v| v.index < budget)
        .cloned()
        .collect();
    assert_eq!(capped.violations, expected);
}

/// A K-process sweep partitions the exhaustive space by residue class;
/// merging the per-shard checkpoints must reproduce the single-process
/// checkpoint **byte-for-byte** — same tallies, same violations, same
/// dedup set, same cursor — at K=2 and K=4.
#[test]
fn sharded_sweep_union_matches_single_process_byte_for_byte() {
    let cfg = violating_cfg(2);
    let opts = CheckOptions::new(Semantics::legacy_gvn());
    let (single, single_cp) =
        Campaign::with_options(opts)
            .with_workers(1)
            .run_exhaustive(&cfg, None, legacy_instcombine);
    assert!(single_cp.done);
    assert!(
        !single.is_clean(),
        "the corpus must produce violations for the merge to be meaningful"
    );
    for k in [2, 4] {
        let parts: Vec<CampaignCheckpoint> = (0..k)
            .map(|i| {
                let (_r, cp) = Campaign::with_options(opts)
                    .with_workers(1)
                    .with_process_shard(i, k)
                    .run_exhaustive(&cfg, None, legacy_instcombine);
                assert!(cp.done, "shard {i}/{k} must finish its residue class");
                assert_eq!((cp.shard_id, cp.shards), (i, k));
                cp
            })
            .collect();
        let merged = CampaignCheckpoint::merge(&parts).expect("complete shard set");
        assert_eq!(
            merged.to_jsonl(),
            single_cp.to_jsonl(),
            "merged artifact diverged from the single-process sweep at K={k}"
        );
    }
}

/// Killing one shard mid-leg, round-tripping its checkpoint through
/// disk, and resuming it must not perturb the merged result.
#[test]
fn killed_shard_resumes_and_merge_still_matches() {
    let cfg = violating_cfg(2);
    let opts = CheckOptions::new(Semantics::legacy_gvn());
    let (_single, single_cp) =
        Campaign::with_options(opts)
            .with_workers(1)
            .run_exhaustive(&cfg, None, legacy_instcombine);

    let (_r0, cp0) = Campaign::with_options(opts)
        .with_workers(2)
        .with_process_shard(0, 2)
        .run_exhaustive(&cfg, None, legacy_instcombine);

    // Shard 1 dies after 37 functions...
    let (r1a, cp1a) = Campaign::with_options(opts)
        .with_workers(1)
        .with_process_shard(1, 2)
        .with_budget(37)
        .run_exhaustive(&cfg, None, legacy_instcombine);
    assert_eq!(r1a.total, 37);
    assert!(!cp1a.done && r1a.stats.budget_hit);

    // ...its checkpoint survives on disk...
    let dir = std::env::temp_dir().join("frost-shard-resume-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("shard1.jsonl");
    cp1a.save_jsonl(&path).unwrap();
    let restored = CampaignCheckpoint::load_jsonl(&path).unwrap();
    assert_eq!(restored, cp1a);
    std::fs::remove_file(&path).ok();

    // ...and the restarted worker finishes the residue class.
    let (_r1b, cp1) = Campaign::with_options(opts)
        .with_workers(1)
        .with_process_shard(1, 2)
        .run_exhaustive(&cfg, Some(&restored), legacy_instcombine);
    assert!(cp1.done);

    let merged = CampaignCheckpoint::merge(&[cp0, cp1]).expect("complete shard set");
    assert_eq!(
        merged.to_jsonl(),
        single_cp.to_jsonl(),
        "kill/resume of shard 1 perturbed the merged artifact"
    );
}

/// Sharding composes with generation-time pruning: the merged pruned
/// sweep equals the single-process pruned sweep.
#[test]
fn pruned_sharded_sweep_matches_pruned_single_process() {
    let cfg = violating_cfg(2).with_pruning(Pruning::FULL);
    let opts = CheckOptions::new(Semantics::legacy_gvn());
    let (single, single_cp) =
        Campaign::with_options(opts)
            .with_workers(1)
            .run_exhaustive(&cfg, None, legacy_instcombine);
    assert!(single_cp.done && single.total > 0);
    let parts: Vec<CampaignCheckpoint> = (0..2)
        .map(|i| {
            Campaign::with_options(opts)
                .with_workers(1)
                .with_process_shard(i, 2)
                .run_exhaustive(&cfg, None, legacy_instcombine)
                .1
        })
        .collect();
    let merged = CampaignCheckpoint::merge(&parts).expect("complete shard set");
    assert_eq!(merged.to_jsonl(), single_cp.to_jsonl());
}

/// The prelude's sequential entry point and an explicit multi-worker
/// campaign agree on a clean corpus (fixed pipeline finds nothing).
#[test]
fn sequential_wrapper_matches_parallel_campaign_when_clean() {
    let cfg = GenConfig::arithmetic(2);
    let seq = validate_transform(
        random_functions(cfg.clone(), 5, 120),
        Semantics::proposed(),
        |m| {
            o2_pipeline(PipelineMode::Fixed).run(m);
        },
    );
    let par = Campaign::new(Semantics::proposed())
        .with_workers(4)
        .run_random(&cfg, 5, 120, |m| {
            o2_pipeline(PipelineMode::Fixed).run(m);
        });
    assert!(seq.is_clean() && par.is_clean());
    assert_eq!(seq.total, par.total);
    assert_eq!(seq.changed, par.changed);
    assert_eq!(seq.refined, par.refined);
    assert_eq!(seq.violations, par.violations);
}

/// Every worker builds its chunks' functions from its own walk, re-seated
/// at the cursor the shared walk recorded: across worker counts and chunk
/// sizes the functions checked must be exactly the shard's residue class
/// of a serial walk — same positions, same `fz{n}` names, same bodies —
/// and every run must end at the 1-worker run's checkpoint.
#[test]
fn workers_build_exactly_the_walks_residue_class() {
    use frost::fuzz::ExhaustiveFunctions;
    use std::sync::Mutex;

    type Seen = Vec<(usize, String, FunctionKey)>;
    // (space, shards K, shard id, budget): budgets end mid-chunk at
    // every chunk size but 1; the memory and K = 1 runs go to the end.
    let cases = [
        (GenConfig::arithmetic(2), 48, 5, Some(100)),
        (GenConfig::guards(2), 7, 3, Some(41)),
        (GenConfig::memory(3), 5, 2, None),
        (violating_cfg(1), 1, 0, None),
    ];
    for (cfg, shards, shard_id, budget) in cases {
        let serial: Seen = ExhaustiveFunctions::new(cfg.clone())
            .enumerate()
            .skip(shard_id)
            .step_by(shards)
            .take(budget.unwrap_or(usize::MAX))
            .map(|(i, f)| (i, f.name.clone(), FunctionKey::of(&f)))
            .collect();
        assert!(serial.len() > 1, "{cfg:?}");
        let mut one_worker_cp = None;
        for workers in [1, 2, 8] {
            for shard_size in [1, 3, 64] {
                let seen = Mutex::new(Seen::new());
                let mut campaign = Campaign::new(Semantics::proposed())
                    .with_workers(workers)
                    .with_shard_size(shard_size)
                    .with_process_shard(shard_id, shards);
                if let Some(b) = budget {
                    campaign = campaign.with_budget(b);
                }
                let (report, cp) = campaign.run_exhaustive(&cfg, None, |m: &mut Module| {
                    let f = &m.functions[0];
                    let index = f.name.strip_prefix("fz").unwrap().parse().unwrap();
                    let key = FunctionKey::of(f);
                    seen.lock().unwrap().push((index, f.name.clone(), key));
                });
                let mut seen = seen.into_inner().unwrap();
                seen.sort_by_key(|s| s.0);
                let at = format!("{cfg:?} K={shards} at {workers} workers, chunks of {shard_size}");
                assert!(seen == serial, "functions diverged from the walk: {at}");
                assert_eq!(report.total, serial.len(), "{at}");
                assert_eq!(cp.done, budget.is_none(), "{at}");
                assert!(report.stats.workers <= report.stats.chunks, "{at}");
                match &one_worker_cp {
                    None => one_worker_cp = Some(cp),
                    Some(first) => assert_eq!(first, &cp, "checkpoint diverged: {at}"),
                }
            }
        }
    }
}

/// A worker that unwinds stops the others pulling: with four workers
/// on one-function chunks and a transform that panics on one spawned
/// worker's first call, the campaign fails after at most one chunk per
/// worker. The other workers finish their chunk only once the panicking
/// worker's thread has exited, so after its unwinding stopped the pulls.
#[test]
fn a_panicking_worker_stops_the_pulls() {
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Condvar, Mutex};

    static EXITED: (Mutex<bool>, Condvar) = (Mutex::new(false), Condvar::new());
    struct SignalOnExit;
    impl Drop for SignalOnExit {
        fn drop(&mut self) {
            *EXITED.0.lock().unwrap() = true;
            EXITED.1.notify_all();
        }
    }
    thread_local! {
        static ON_EXIT: RefCell<Option<SignalOnExit>> = const { RefCell::new(None) };
    }

    let caller = std::thread::current().id();
    let (panicked, calls) = (AtomicBool::new(false), AtomicUsize::new(0));
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Campaign::new(Semantics::proposed())
            .with_workers(4)
            .with_shard_size(1)
            .run_exhaustive(&GenConfig::arithmetic(1), None, |_m: &mut Module| {
                calls.fetch_add(1, Ordering::SeqCst);
                if std::thread::current().id() != caller && !panicked.swap(true, Ordering::SeqCst) {
                    ON_EXIT.with_borrow_mut(|e| *e = Some(SignalOnExit));
                    panic!("transform bug");
                }
                let mut exited = EXITED.0.lock().unwrap();
                while !*exited {
                    exited = EXITED.1.wait(exited).unwrap();
                }
            })
    }));
    assert!(run.is_err(), "the panic must fail the campaign");
    let calls = calls.load(Ordering::SeqCst);
    assert!(calls <= 4, "{calls} chunks checked after a worker died");
}
