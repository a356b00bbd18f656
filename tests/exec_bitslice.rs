//! Differential tests for the bit-sliced execution backend behind the
//! unified [`frost::core::Engine`] API: over §6-shaped corpora the
//! reference tree-walk, the plan machine, and the bit-sliced evaluator
//! must produce byte-identical outcome sets — including
//! division-by-zero UB, poison, and legacy undef — and checkpointed
//! exhaustive campaigns must survive a kill/resume at any worker count.

use std::collections::BTreeSet;

use frost::core::{
    enumerate_function, enumerate_function_mems, uninit_fill, Batch, Engine, Limits, Memories,
    Memory, Outcome, OutcomeCache, Semantics, Val,
};
use frost::fuzz::{
    enumerate_functions, random_functions, Campaign, CampaignCheckpoint, GenConfig,
    ValidationReport,
};
use frost::ir::{Function, Module};
use frost::opt::{o2_pipeline, PipelineMode};
use frost::refine::{
    check_refinement, check_refinement_cached, enumerate_inputs, CheckOptions, CheckResult,
    InputOptions,
};

/// Checks one function three ways: the full §6 input space enumerated
/// by every engine, all outcome sets (and errors) byte-identical. The
/// strict bit-sliced engine must accept every function these corpora
/// produce — a silent fallback would hollow the test out.
fn assert_three_way(f: &Function, sem: Semantics) {
    let name = f.name.clone();
    let mut module = Module::new();
    module.functions.push(f.clone());

    let opts = InputOptions::new().with_undef(sem.has_undef);
    let (tuples, block_sizes) =
        enumerate_inputs(module.function(&name).unwrap(), &opts).expect("§6 inputs enumerate");
    let mem = Memory::with_initial_blocks(&block_sizes, uninit_fill(&sem));
    let limits = Limits::default();

    let run = |engine| enumerate_function(&module, &name, &tuples, &mem, sem, limits, engine);
    let reference = run(Engine::Reference);
    for engine in [Engine::Plan, Engine::BitSliced, Engine::Auto] {
        let got = run(engine);
        assert_eq!(
            reference, got,
            "{engine:?} diverged from reference under {} for:\n{module}",
            sem.name
        );
    }
    assert!(
        run(Engine::BitSliced).iter().all(|r| r.is_ok()),
        "§6 corpus function must be bit-slice eligible:\n{module}"
    );
}

fn both_semantics() -> [Semantics; 2] {
    [Semantics::proposed(), Semantics::legacy_gvn()]
}

/// A stride of the §6 arithmetic space — all binary opcodes with
/// flags, so the corpus is dense in division UB (`udiv %a, 0`,
/// `sdiv INT_MIN, -1`) and poison-producing wraps.
#[test]
fn section6_arithmetic_stride_agrees_three_ways() {
    for sem in both_semantics() {
        for f in enumerate_functions(GenConfig::arithmetic(2))
            .step_by(991)
            .take(30)
        {
            assert_three_way(&f, sem);
        }
    }
}

/// The select/icmp/freeze space, with undef operands under legacy
/// semantics — every §3.4 select shape plus the §3.1 hunting ground.
#[test]
fn section6_select_space_agrees_three_ways() {
    for sem in both_semantics() {
        let cfg = if sem.has_undef {
            GenConfig::with_selects(2).with_undef()
        } else {
            GenConfig::with_selects(2)
        };
        for f in enumerate_functions(cfg).step_by(457).take(60) {
            assert_three_way(&f, sem);
        }
    }
}

/// Fuzz-generated three-instruction functions, the shape campaigns
/// feed the engine; undef constants enabled under legacy semantics so
/// undef plane expansion is exercised end to end.
#[test]
fn random_ub_triggering_functions_agree_three_ways() {
    for sem in both_semantics() {
        let cfg = if sem.has_undef {
            GenConfig::arithmetic(3).with_undef()
        } else {
            GenConfig::arithmetic(3)
        };
        for f in random_functions(cfg, 0x51D3, 40) {
            assert_three_way(&f, sem);
        }
    }
}

/// The cached `Engine::Auto` checker compares two bit-sliced sides in
/// lane masks; `check_refinement` on `Engine::Plan` compares per-tuple
/// outcome sets. Over every ordered same-signature pair of a stride of
/// the one-instruction space, under all four presets, both must give
/// the same verdict and the same counterexample text, and the pairs
/// must be unsound in every way a lane can be: target UB, poison,
/// undef and a wrong value. One side returns a poison constant, which
/// has no width of its own. One side is guarded, hence plan-only, so
/// its pairs take the set-by-set fallback.
#[test]
fn lane_checker_matches_set_checker_on_function_pairs() {
    let guarded = frost::ir::parse_module(
        "define i2 @guarded(i2 %a, i2 %b) {\nentry:\n  %c = icmp ult i2 %a, 2\n  \
         assume i1 %c\n  %r = add i2 %a, %b\n  ret i2 %r\n}\n\
         define i2 @poison(i2 %a, i2 %b) {\nentry:\n  ret i2 poison\n}",
    )
    .unwrap();
    let mut witnesses = BTreeSet::new();
    for sem in [
        Semantics::proposed(),
        Semantics::legacy_gvn(),
        Semantics::legacy_unswitch(),
        Semantics::legacy_undef_overflow(),
    ] {
        let cfg = if sem.has_undef {
            GenConfig::arithmetic(1).with_undef()
        } else {
            GenConfig::arithmetic(1)
        };
        let mut module = guarded.clone();
        module
            .functions
            .extend(enumerate_functions(cfg).step_by(11).take(48));
        let opts = CheckOptions::new(sem);
        let (tuples, block_sizes) = enumerate_inputs(&module.functions[0], &opts.inputs).unwrap();
        let mem = Memory::with_initial_blocks(&block_sizes, uninit_fill(&sem));
        for f in &module.functions {
            let batch = enumerate_function_mems(
                &module,
                &f.name,
                &tuples,
                Memories::One(&mem),
                sem,
                opts.limits,
                Engine::Auto,
            );
            assert_eq!(
                matches!(batch, Batch::Lanes(_)),
                f.name != "guarded",
                "only the guarded side leaves lanes:\n{f}"
            );
        }
        let cache = OutcomeCache::new();
        for src in &module.functions {
            for tgt in &module.functions {
                let (s, t) = (src.name.as_str(), tgt.name.as_str());
                if src.ret_ty != tgt.ret_ty || src.params.len() != tgt.params.len() {
                    continue;
                }
                let lanes = check_refinement_cached(&module, s, &module, t, &opts, &cache);
                let sets = check_refinement(&module, s, &module, t, &opts.engine(Engine::Plan));
                let what = format!("@{s} -> @{t} under {}", sem.name);
                match (&lanes, &sets) {
                    (CheckResult::Refines, CheckResult::Refines) => {}
                    (CheckResult::CounterExample(a), CheckResult::CounterExample(b)) => {
                        assert_eq!(a.to_string(), b.to_string(), "{what}");
                        witnesses.insert(match &a.witness {
                            Outcome::Ub => "target UB",
                            Outcome::Ret {
                                val: Some(Val::Poison),
                                ..
                            } => "poison",
                            Outcome::Ret {
                                val: Some(Val::Undef(_)),
                                ..
                            } => "undef",
                            Outcome::Ret { .. } => "wrong value",
                        });
                    }
                    _ => panic!("{what}: lanes {lanes:?} vs sets {sets:?}"),
                }
            }
        }
    }
    let want: BTreeSet<_> = ["target UB", "poison", "undef", "wrong value"].into();
    assert_eq!(witnesses, want);
}

/// The corpus a checkpointed sweep runs over: one-instruction mul/add
/// space with undef, where legacy InstCombine produces §3.1 violations.
fn sweep_cfg() -> GenConfig {
    GenConfig {
        ops: vec![frost::ir::BinOp::Mul, frost::ir::BinOp::Add],
        consts: vec![2],
        poison_const: false,
        flags: false,
        freeze: false,
        ..GenConfig::arithmetic(1)
    }
    .with_undef()
}

fn sweep(
    workers: usize,
    budget: Option<usize>,
    resume: Option<&CampaignCheckpoint>,
) -> (ValidationReport, CampaignCheckpoint) {
    let pm = o2_pipeline(PipelineMode::Legacy);
    let mut campaign =
        Campaign::with_options(CheckOptions::new(Semantics::legacy_gvn()).engine(Engine::Auto))
            .with_workers(workers)
            .with_shard_size(3);
    if let Some(b) = budget {
        campaign = campaign.with_budget(b);
    }
    campaign.run_exhaustive(&sweep_cfg(), resume, |m| {
        pm.run(m);
    })
}

fn assert_same_verdicts(a: &ValidationReport, b: &ValidationReport, what: &str) {
    assert_eq!(a.total, b.total, "{what}");
    assert_eq!(a.changed, b.changed, "{what}");
    assert_eq!(a.refined, b.refined, "{what}");
    assert_eq!(a.inconclusive, b.inconclusive, "{what}");
    assert_eq!(a.violations, b.violations, "{what}");
}

/// Kill an exhaustive sweep after a budget of 7 functions, round-trip
/// the checkpoint through its JSONL artifact (save → load → validate),
/// and resume — at 1, 2, and 8 workers. Every interrupted run must end
/// with the identical cumulative report and checkpoint the
/// uninterrupted single-worker sweep produces.
#[test]
fn checkpointed_sweep_survives_kill_and_resume_at_1_2_8_workers() {
    let (full, full_cp) = sweep(1, None, None);
    assert!(full_cp.done, "tiny space must be exhausted");
    assert!(
        !full.is_clean(),
        "legacy InstCombine must trip §3.1 in the sweep space"
    );

    let dir = std::env::temp_dir().join("frost-exec-bitslice-test");
    std::fs::create_dir_all(&dir).unwrap();
    for workers in [1usize, 2, 8] {
        let (partial, cp) = sweep(workers, Some(7), None);
        assert_eq!(partial.total, 7, "budget cuts after 7 at {workers} workers");
        assert!(partial.stats.budget_hit && !cp.done);

        let path = dir.join(format!("cp-{workers}.jsonl"));
        cp.save_jsonl(&path).unwrap();
        let restored = CampaignCheckpoint::load_jsonl(&path).unwrap();
        assert_eq!(restored, cp, "JSONL round trip at {workers} workers");
        std::fs::remove_file(&path).ok();

        let (resumed, resumed_cp) = sweep(workers, None, Some(&restored));
        assert_same_verdicts(
            &full,
            &resumed,
            &format!("resumed sweep at {workers} workers"),
        );
        assert_eq!(full_cp, resumed_cp, "checkpoints at {workers} workers");
    }
}

/// The strict engines disagree on *errors* only where they should:
/// a branching function is plan-only, and Auto silently covers it.
#[test]
fn engine_selection_is_observable_but_auto_is_total() {
    let module = frost::ir::parse_module(
        "define i2 @f(i1 %c) {\nentry:\n  br i1 %c, label %a, label %b\na:\n  ret i2 1\nb:\n  ret i2 0\n}",
    )
    .unwrap();
    let tuples = vec![
        vec![frost::core::Val::int(1, 0)],
        vec![frost::core::Val::int(1, 1)],
    ];
    let mem = Memory::zeroed(0);
    let run = |engine| {
        enumerate_function(
            &module,
            "f",
            &tuples,
            &mem,
            Semantics::proposed(),
            Limits::default(),
            engine,
        )
    };
    assert!(run(Engine::BitSliced).iter().all(|r| r.is_err()));
    assert_eq!(run(Engine::Auto), run(Engine::Plan));
    assert_eq!(run(Engine::Plan), run(Engine::Reference));
}

/// Memory programs are plan-only by design: plane representation is
/// per-value, not per-byte, so the bit-sliced engine rejects them and
/// `Auto` falls back to the plan loop with reference-identical
/// outcomes. The rejection is metered as
/// `frost.core.bitslice.mem_rejects` exactly once per compile, whether
/// a memory step or a pointer argument alone turns the compile away.
#[test]
fn memory_operations_are_rejected_by_the_bitsliced_engine() {
    // i2 everywhere so nothing *else* (wide constants, wide return) is
    // ineligible — the memory operation must be the rejection.
    let alloca = "define i2 @f() {\nentry:\n  %a = alloca i2\n  store i2 1, i2* %a\n  \
                  %v = load i2, i2* %a\n  ret i2 %v\n}";
    let pointer_param = "define i2 @f(i8* %p) {\nentry:\n  ret i2 1\n}";
    let mem_rejects = frost::telemetry::counter("frost.core.bitslice.mem_rejects");
    for src in [alloca, pointer_param] {
        let module = frost::ir::parse_module(src).unwrap();
        let opts = InputOptions::new().with_bytes_per_pointer(1);
        let (tuples, block_sizes) = enumerate_inputs(module.function("f").unwrap(), &opts).unwrap();
        let sem = Semantics::proposed();
        let mem = Memory::with_initial_blocks(&block_sizes, uninit_fill(&sem));
        let run = |engine| {
            enumerate_function(&module, "f", &tuples, &mem, sem, Limits::default(), engine)
        };
        let before = mem_rejects.get();
        assert!(run(Engine::BitSliced).iter().all(|r| r.is_err()));
        assert_eq!(
            mem_rejects.get(),
            before + 1,
            "one compile, one metered rejection:\n{module}"
        );
        let before = mem_rejects.get();
        assert_eq!(run(Engine::Auto), run(Engine::Plan));
        assert_eq!(
            mem_rejects.get(),
            before + 1,
            "Auto probes the bit-sliced compile exactly once before falling back:\n{module}"
        );
        assert_eq!(run(Engine::Plan), run(Engine::Reference));
        assert!(run(Engine::Auto).iter().all(|r| r.is_ok()));
    }
}

/// Guarded programs are plan-only by design: `assume` turns a per-lane
/// fact into *immediate* UB, which the shared-register-file passes of
/// the bit-sliced engine cannot express. `Engine::Auto` on a guarded
/// function must fall back to the plan loop with reference-identical
/// outcomes, metering `frost.core.bitslice.guard_rejects` exactly once
/// per compile.
#[test]
fn guarded_functions_are_rejected_by_the_bitsliced_engine() {
    // i2 everywhere so nothing *else* (wide constants, wide return) is
    // ineligible — the guard must be the rejection.
    let module = frost::ir::parse_module(
        "define i2 @f(i1 %c) {\nentry:\n  %v = zext i1 %c to i2\n  assume i1 %c\n  \
         ret i2 %v\n}",
    )
    .unwrap();
    let tuples = vec![
        vec![frost::core::Val::int(1, 0)],
        vec![frost::core::Val::int(1, 1)],
        vec![frost::core::Val::Poison],
    ];
    let mem = Memory::zeroed(0);
    let run = |engine| {
        enumerate_function(
            &module,
            "f",
            &tuples,
            &mem,
            Semantics::proposed(),
            Limits::default(),
            engine,
        )
    };
    let guard_rejects = frost::telemetry::counter("frost.core.bitslice.guard_rejects");
    let before = guard_rejects.get();
    assert!(run(Engine::BitSliced).iter().all(|r| r.is_err()));
    assert_eq!(
        guard_rejects.get(),
        before + 1,
        "one compile, one metered rejection"
    );
    let before = guard_rejects.get();
    assert_eq!(run(Engine::Auto), run(Engine::Plan));
    assert_eq!(
        guard_rejects.get(),
        before + 1,
        "Auto probes the bit-sliced compile exactly once before falling back"
    );
    assert_eq!(run(Engine::Plan), run(Engine::Reference));
    assert!(run(Engine::Auto).iter().all(|r| r.is_ok()));
}
