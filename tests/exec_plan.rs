//! Differential tests for the plan-based execution engine: outcome
//! sets produced by [`frost::core::plan`] must be byte-identical to the
//! retained [`frost::core::exec::reference`] tree-walk — same sets,
//! same limit errors, same error messages — over §6-style corpora
//! under both semantics, and campaign results built on plans must stay
//! deterministic across worker counts.

use frost::core::exec::reference;
use frost::core::OutcomeCache;
use frost::core::{
    enumerate_function_mems, enumerate_outcomes, uninit_fill, Bit, Engine, ExecError, Limits,
    Machine, Memories, Memory, MemoryList, ModulePlan, Ptr, Semantics, Val,
};
use frost::fuzz::{enumerate_functions, random_functions, Campaign, GenConfig};
use frost::ir::{parse_module, Function, Inst, Module, Ty, Value};
use frost::opt::{Dce, InstCombine, Pass, PipelineMode};
use frost::refine::{
    check_refinement, check_refinement_cached, enumerate_inputs, enumerate_memories, CheckOptions,
    CheckResult, InputOptions,
};

/// Checks one function: every enumerable input's full outcome set (or
/// enumeration error) must agree exactly between the plan engine and
/// the reference interpreter.
fn assert_plan_matches_reference(f: &Function, sem: Semantics) {
    let name = f.name.clone();
    let mut module = Module::new();
    module.functions.push(f.clone());

    let opts = InputOptions::new().with_undef(sem.has_undef);
    let (tuples, block_sizes) =
        enumerate_inputs(module.function(&name).unwrap(), &opts).expect("§6 inputs enumerate");
    let mem = Memory::with_initial_blocks(&block_sizes, uninit_fill(&sem));
    let limits = Limits::default();

    let plan = ModulePlan::compile(&module, sem);
    let idx = plan.function_index(&name).unwrap();
    let mut machine = Machine::new();
    for args in &tuples {
        let via_plan = plan.enumerate(idx, args, &mem, limits, &mut machine);
        let via_reference = reference::enumerate_outcomes(&module, &name, args, &mem, sem, limits);
        assert_eq!(
            via_plan, via_reference,
            "engines diverged under {} on args {args:?} for:\n{module}",
            sem.name
        );
    }
}

fn both_semantics() -> [Semantics; 2] {
    [Semantics::proposed(), Semantics::legacy_gvn()]
}

/// The quick gate run by ci.sh: a thin stride of the §6 arithmetic
/// space through both engines under both semantics.
#[test]
fn differential_smoke_over_section6_stride() {
    for sem in both_semantics() {
        for f in enumerate_functions(GenConfig::arithmetic(2))
            .step_by(997)
            .take(30)
        {
            assert_plan_matches_reference(&f, sem);
        }
    }
}

/// A denser stride over the select/icmp/freeze space, including undef
/// operands under the legacy semantics (the §3.1 hunting ground).
#[test]
fn section6_select_space_stride_matches_reference() {
    for sem in both_semantics() {
        let cfg = if sem.has_undef {
            GenConfig::with_selects(2).with_undef()
        } else {
            GenConfig::with_selects(2)
        };
        for f in enumerate_functions(cfg).step_by(463).take(60) {
            assert_plan_matches_reference(&f, sem);
        }
    }
}

/// The tiny-memory differential gate run by ci.sh: memory programs
/// (alloca, load, store, gep, the int↔ptr casts) through both engines
/// under both semantics, with every argument tuple crossed against
/// **every** ≤2-byte initial memory — each byte of the pointer
/// parameter's block ranges over the reduced alphabet {0x00, 0x01,
/// 0xFF, poison}. Outcome sets must be byte-identical, including
/// deferred-UB poison and immediate-UB verdicts from out-of-bounds
/// accesses. The batched entry (`enumerate_function_mems`, every memory
/// in one call, which shares one run among the memories that agree on
/// the bytes it touched) must read back the same per-(memory, tuple)
/// results, memory-major, under every engine; the strict bit-sliced
/// one refuses each pair instead.
#[test]
fn memory_programs_match_reference_over_every_tiny_memory() {
    for sem in both_semantics() {
        memory_programs_match_reference(sem);
    }
}

fn memory_programs_match_reference(sem: Semantics) {
    let opts = InputOptions::new()
        .with_undef(sem.has_undef)
        .with_bytes_per_pointer(2)
        .with_memory_values(true);
    let check = |f: &Function| {
        let name = f.name.clone();
        let mut module = Module::new();
        module.functions.push(f.clone());
        let (tuples, block_sizes) =
            enumerate_inputs(&module.functions[0], &opts).expect("memory inputs enumerate");
        let mems = enumerate_memories(&block_sizes, &opts, frost::core::uninit_fill(&sem))
            .map(MemoryList::new)
            .expect("4^2 initial memories fit the cap");
        let limits = Limits::default();
        let plan = ModulePlan::compile(&module, sem);
        let idx = plan.function_index(&name).unwrap();
        let mut machine = Machine::new();
        let mut expected = Vec::new();
        for mem in mems.iter() {
            for args in &tuples {
                let via_plan = plan.enumerate(idx, args, mem, limits, &mut machine);
                let via_reference =
                    reference::enumerate_outcomes(&module, &name, args, mem, sem, limits);
                assert_eq!(
                    via_plan, via_reference,
                    "engines diverged under {} on args {args:?}, memory {mem:?} for:\n{module}",
                    sem.name
                );
                expected.push(via_reference);
            }
        }
        let batch = |engine| {
            enumerate_function_mems(
                &module,
                &name,
                &tuples,
                Memories::List(&mems),
                sem,
                limits,
                engine,
            )
            .pairs(&mems)
        };
        for engine in [Engine::Reference, Engine::Plan, Engine::Auto] {
            assert_eq!(
                batch(engine),
                expected,
                "batched {engine:?} diverged under {} for:\n{module}",
                sem.name
            );
        }
        let strict = batch(Engine::BitSliced);
        assert_eq!(strict.len(), expected.len());
        assert!(
            strict
                .iter()
                .all(|r| matches!(r, Err(ExecError::Unsupported(_)))),
            "a pointer-parameter function is not bit-slice eligible:\n{module}"
        );
    };
    // The whole two-instruction space, then a stride of the three-
    // instruction space.
    for f in enumerate_functions(GenConfig::memory(2)) {
        check(&f);
    }
    for f in enumerate_functions(GenConfig::memory(3))
        .step_by(97)
        .take(40)
    {
        check(&f);
    }
}

/// The batched cached checker (one probe per side over every initial
/// memory, `Engine::Auto`) against the uncached per-memory checker on
/// the reference tree-walk, over the 3-instruction memory space with
/// memory contents enumerated. The transform is deliberately unsound —
/// every integer load's uses read 0 instead — so counterexamples hinge
/// on the initial memory: verdict kind, args, rendered initial memory
/// and witness must all match.
#[test]
fn batched_cached_checker_matches_uncached_reference_over_memories() {
    // The sweep's shape: one 4-byte block, 256 initial memories.
    let inputs = InputOptions::new().with_memory_values(true);
    let opts = CheckOptions::new(Semantics::proposed()).with_inputs(inputs);
    let reference_opts = opts.engine(Engine::Reference);
    let cache = OutcomeCache::new();
    let (mut violations, mut nonzero_mems) = (0, 0);
    for f in enumerate_functions(GenConfig::memory(3)) {
        let name = f.name.clone();
        let mut before = Module::new();
        before.functions.push(f);
        let mut after = before.clone();
        let g = after.function_mut(&name).unwrap();
        let loads: Vec<_> = g
            .blocks
            .iter()
            .flat_map(|b| b.insts.iter().copied())
            .filter_map(|id| match g.inst(id) {
                Inst::Load {
                    ty: Ty::Int(bits), ..
                } => Some((id, *bits)),
                _ => None,
            })
            .collect();
        for (id, bits) in loads {
            g.replace_all_uses(id, &Value::int(bits, 0));
        }

        let cached = check_refinement_cached(&before, &name, &after, &name, &opts, &cache);
        let uncached = check_refinement(&before, &name, &after, &name, &reference_opts);
        match (&cached, &uncached) {
            (CheckResult::Refines, CheckResult::Refines) => {}
            (CheckResult::Inconclusive(a), CheckResult::Inconclusive(b)) => assert_eq!(a, b),
            (CheckResult::CounterExample(a), CheckResult::CounterExample(b)) => {
                assert_eq!(a.args, b.args, "args for:\n{before}");
                assert_eq!(
                    a.initial_mem, b.initial_mem,
                    "initial memory for:\n{before}"
                );
                assert_eq!(a.witness, b.witness, "witness for:\n{before}");
                assert_eq!(a.to_string(), b.to_string());
                violations += 1;
                if a.initial_mem.as_deref() != Some("b0 = [0x00 0x00 0x00 0x00]") {
                    nonzero_mems += 1;
                }
            }
            _ => panic!("cached {cached:?} vs uncached {uncached:?} for:\n{before}"),
        }
    }
    assert!(violations > 0, "reading 0 for every load must be caught");
    assert!(
        nonzero_mems > 0,
        "some counterexample must need a memory other than the first"
    );
}

/// The differential gate for shared runs: `check_refinement_cached` on
/// `Engine::Auto`, where one plan run answers every initial memory that
/// agrees with it on the bytes the run touched and each (source run,
/// target run) combination is compared once, against the unshared
/// `check_refinement` on `Engine::Reference`. It covers the whole
/// 3-instruction memory space under both semantics, with 4-byte
/// memories whose contents are enumerated. Two unsound transforms
/// alternate: one deletes every store, the other makes one integer
/// load's uses read 1. The verdicts must match to the last character.
#[test]
fn shared_runs_give_the_reference_verdict_text_over_memories() {
    let (mut violations, mut nonzero_mems) = (0, 0);
    for sem in both_semantics() {
        let inputs = InputOptions::new()
            .with_undef(sem.has_undef)
            .with_memory_values(true);
        let opts = CheckOptions::new(sem).with_inputs(inputs);
        let reference_opts = opts.engine(Engine::Reference);
        let cache = OutcomeCache::new();
        for (k, f) in enumerate_functions(GenConfig::memory(3)).enumerate() {
            let name = f.name.clone();
            let mut before = Module::new();
            before.functions.push(f);
            let mut after = before.clone();
            let g = after.function_mut(&name).unwrap();
            let placed: Vec<_> = g.blocks.iter().flat_map(|b| b.insts.clone()).collect();
            if k % 2 == 0 {
                let stores: Vec<_> = placed
                    .into_iter()
                    .filter(|&id| matches!(g.inst(id), Inst::Store { .. }))
                    .collect();
                for b in &mut g.blocks {
                    b.insts.retain(|id| !stores.contains(id));
                }
            } else if let Some((id, bits)) = placed.into_iter().find_map(|id| match g.inst(id) {
                Inst::Load {
                    ty: Ty::Int(bits), ..
                } => Some((id, *bits)),
                _ => None,
            }) {
                g.replace_all_uses(id, &Value::int(bits, 1));
            }

            let cached = check_refinement_cached(&before, &name, &after, &name, &opts, &cache);
            let oracle = check_refinement(&before, &name, &after, &name, &reference_opts);
            assert_eq!(
                format!("{cached:?}"),
                format!("{oracle:?}"),
                "under {} for:\n{before}\n{after}",
                sem.name
            );
            if let Some(ce) = oracle.counterexample() {
                violations += 1;
                if ce.initial_mem.as_deref() != Some("b0 = [0x00 0x00 0x00 0x00]") {
                    nonzero_mems += 1;
                }
            }
        }
    }
    assert!(violations > 0, "both transforms are unsound");
    assert!(
        nonzero_mems > 0,
        "some counterexample must need a memory other than the first"
    );
}

/// Byte classes are interned from each byte's exact bits. On a memory
/// list no enumerator builds — bytes holding pointer bits, bytes that
/// differ only in an undef vs a poison bit, and repeated memories —
/// every (memory, tuple) pair the shared plan engine reads back must be
/// the reference's, under both semantics, and a memory must share the
/// run of its twin.
#[test]
fn hand_built_memory_lists_read_back_like_the_reference() {
    let module = parse_module(
        "define i8 @byte(i8* %p) {\nentry:\n  %v = load i8, i8* %p\n  ret i8 %v\n}\n\
         define i16 @wide(i8* %p) {\nentry:\n  %g = getelementptr inbounds i8, i8* %p, i32 1\n  \
         %w = bitcast i8* %g to i16*\n  %v = load i16, i16* %w\n  ret i16 %v\n}\n\
         define i8 @through(i8* %p) {\nentry:\n  %pp = bitcast i8* %p to i8**\n  \
         %q = load i8*, i8** %pp\n  %v = load i8, i8* %q\n  ret i8 %v\n}\n\
         define i32 @addr(i8* %p) {\nentry:\n  %pp = bitcast i8* %p to i8**\n  \
         %q = load i8*, i8** %pp\n  %a = ptrtoint i8* %q to i32\n  ret i32 %a\n}\n\
         define i8 @branch(i8* %p) {\nentry:\n  %v = load i8, i8* %p\n  %f = freeze i8 %v\n  \
         %c = icmp eq i8 %f, 0\n  br i1 %c, label %a, label %b\na:\n  \
         %g = getelementptr inbounds i8, i8* %p, i32 3\n  %w = load i8, i8* %g\n  ret i8 %w\n\
         b:\n  store i8 1, i8* %p\n  ret i8 %f\n}",
    )
    .expect("the module parses");
    let int = |v: u32| frost::core::lower(&Ty::i32(), &Val::int(32, u128::from(v)));
    let ptr = |off: u32| {
        frost::core::lower(
            &Ty::ptr_to(Ty::i8()),
            &Val::Ptr(Ptr::Block { block: 0, off }),
        )
    };
    let with_bit = |bit: Bit| {
        let mut bits = int(0x00FF_0100);
        bits[2] = bit;
        bits
    };
    let with_byte0 = |bit: Bit| {
        let mut bits = int(0x00FF_0100);
        bits[..8].fill(bit);
        bits
    };
    let mut half_ptr = ptr(1);
    half_ptr[16..].copy_from_slice(&int(0)[16..]);
    let images = [
        int(0x00FF_0100),
        ptr(1),
        ptr(2),
        with_bit(Bit::Undef),
        with_bit(Bit::Poison),
        ptr(1),
        int(0x00FF_0100),
        with_byte0(Bit::Undef),
        with_byte0(Bit::Poison),
        half_ptr,
    ];
    let twins = [(0, 6), (1, 5)];
    for sem in both_semantics() {
        let list = MemoryList::new(
            images
                .iter()
                .map(|bits| {
                    let mut m = Memory::with_initial_blocks(&[4], uninit_fill(&sem));
                    assert!(m.store_ptr(Ptr::Block { block: 0, off: 0 }, bits));
                    m
                })
                .collect(),
        );
        for f in &module.functions {
            let opts = InputOptions::new().with_undef(sem.has_undef);
            let (tuples, block_sizes) = enumerate_inputs(f, &opts).expect("inputs enumerate");
            assert_eq!(block_sizes, [4]);
            let batch = |engine| {
                enumerate_function_mems(
                    &module,
                    &f.name,
                    &tuples,
                    Memories::List(&list),
                    sem,
                    Limits::default(),
                    engine,
                )
            };
            let reference = batch(Engine::Reference).pairs(&list);
            for engine in [Engine::Plan, Engine::Auto] {
                let shared = batch(engine);
                assert_eq!(
                    shared.pairs(&list),
                    reference,
                    "{engine:?} under {} for:\n{f}",
                    sem.name
                );
                let n = tuples.len();
                for (i, (a, b)) in (0..n).flat_map(|i| twins.map(|twin| (i, twin))) {
                    assert_eq!(shared.run_index(a * n + i), shared.run_index(b * n + i));
                }
            }
        }
    }
}

/// Random three-instruction functions from the seeded generator — the
/// corpus shape `Campaign::run_random` feeds the engine.
#[test]
fn random_functions_match_reference() {
    for sem in both_semantics() {
        let cfg = if sem.has_undef {
            GenConfig::arithmetic(3).with_undef()
        } else {
            GenConfig::arithmetic(3)
        };
        for f in random_functions(cfg, 0xD1FF, 40) {
            assert_plan_matches_reference(&f, sem);
        }
    }
}

/// Every function of `src`, on every enumerable input, through three
/// paths: its call closure (`ModulePlan::compile_entry`), the whole
/// module (`ModulePlan::compile`), and the reference tree-walk. Outcome
/// sets and errors must be identical. Returns each entry's closure size.
fn assert_closure_matches_whole_module(src: &str) -> Vec<(String, usize)> {
    let module = parse_module(src).expect("parses");
    let limits = Limits::default();
    let mut sizes = Vec::new();
    for sem in both_semantics() {
        let whole = ModulePlan::compile(&module, sem);
        sizes.clear();
        for f in &module.functions {
            let name = &f.name;
            let (closure, idx) = ModulePlan::compile_entry(&module, name, sem).expect("defined");
            assert_eq!(closure.function_index(name), Some(idx));
            sizes.push((name.clone(), closure.num_functions()));
            let whole_idx = whole.function_index(name).unwrap();
            let opts = InputOptions::new().with_undef(sem.has_undef);
            let (tuples, block_sizes) = enumerate_inputs(f, &opts).expect("inputs enumerate");
            let mem = Memory::with_initial_blocks(&block_sizes, uninit_fill(&sem));
            let mut machine = Machine::new();
            for args in &tuples {
                let via_closure = closure.enumerate(idx, args, &mem, limits, &mut machine);
                let via_whole = whole.enumerate(whole_idx, args, &mem, limits, &mut machine);
                let via_reference =
                    reference::enumerate_outcomes(&module, name, args, &mem, sem, limits);
                assert_eq!(
                    via_closure, via_whole,
                    "closure and whole module diverged under {} on @{name}{args:?}",
                    sem.name
                );
                assert_eq!(
                    via_closure, via_reference,
                    "closure and reference diverged under {} on @{name}{args:?}",
                    sem.name
                );
            }
        }
    }
    sizes
}

fn closure_size(sizes: &[(String, usize)], name: &str) -> usize {
    sizes.iter().find(|(n, _)| n == name).expect("entry").1
}

#[test]
fn entry_closure_of_a_call_chain_matches_the_whole_module() {
    let sizes = assert_closure_matches_whole_module(
        r#"
define i4 @leaf(i4 %x) {
entry:
  %r = add nsw i4 %x, 1
  ret i4 %r
}
define i4 @mid(i4 %x) {
entry:
  %r = call i4 @leaf(i4 %x)
  %f = freeze i4 %r
  ret i4 %f
}
define i4 @top(i4 %x) {
entry:
  %r = call i4 @mid(i4 %x)
  %s = call i4 @leaf(i4 %r)
  ret i4 %s
}
define i4 @bystander(i4 %x) {
entry:
  %r = udiv i4 1, %x
  ret i4 %r
}
"#,
    );
    assert_eq!(closure_size(&sizes, "top"), 3);
    assert_eq!(closure_size(&sizes, "mid"), 2);
    assert_eq!(closure_size(&sizes, "leaf"), 1);
    assert_eq!(closure_size(&sizes, "bystander"), 1);
}

#[test]
fn entry_closure_walk_terminates_on_recursion() {
    let sizes = assert_closure_matches_whole_module(
        r#"
define i2 @count(i2 %n) {
entry:
  %z = icmp eq i2 %n, 0
  br i1 %z, label %done, label %step
done:
  ret i2 0
step:
  %m = sub i2 %n, 1
  %r = call i2 @count(i2 %m)
  %s = add i2 %r, 1
  ret i2 %s
}
define i1 @even(i2 %n) {
entry:
  %z = icmp eq i2 %n, 0
  br i1 %z, label %yes, label %step
yes:
  ret i1 true
step:
  %m = sub i2 %n, 1
  %r = call i1 @odd(i2 %m)
  ret i1 %r
}
define i1 @odd(i2 %n) {
entry:
  %z = icmp eq i2 %n, 0
  br i1 %z, label %no, label %step
no:
  ret i1 false
step:
  %m = sub i2 %n, 1
  %r = call i1 @even(i2 %m)
  ret i1 %r
}
define void @forever() {
entry:
  call void @forever()
  ret void
}
"#,
    );
    assert_eq!(closure_size(&sizes, "count"), 1);
    assert_eq!(closure_size(&sizes, "even"), 2);
    assert_eq!(closure_size(&sizes, "odd"), 2);
    assert_eq!(closure_size(&sizes, "forever"), 1);
}

#[test]
fn entry_closure_resolves_declared_unknown_and_misarity_calls_like_the_module() {
    let src = r#"
declare i2 @ext(i2)
declare i2 @pure(i2) readnone
define i2 @calls_decls(i2 %x) {
entry:
  %a = call i2 @ext(i2 %x)
  %b = call i2 @pure(i2 %a)
  ret i2 %b
}
define i2 @calls_unknown(i2 %x) {
entry:
  %r = call i2 @nowhere(i2 %x)
  ret i2 %r
}
define i2 @add2(i2 %x, i2 %y) {
entry:
  %r = add i2 %x, %y
  ret i2 %r
}
define i2 @bad_arity(i2 %x) {
entry:
  %r = call i2 @add2(i2 %x)
  ret i2 %r
}
"#;
    let sizes = assert_closure_matches_whole_module(src);
    assert_eq!(closure_size(&sizes, "calls_decls"), 1);
    assert_eq!(closure_size(&sizes, "calls_unknown"), 1);
    assert_eq!(closure_size(&sizes, "bad_arity"), 2);
    // The shared assertion above compares errors too; pin that the
    // error paths really are reached.
    let module = parse_module(src).unwrap();
    let run = |name: &str| {
        enumerate_outcomes(
            &module,
            name,
            &[Val::int(2, 1)],
            &Memory::zeroed(0),
            Semantics::proposed(),
            Limits::default(),
        )
    };
    assert_eq!(
        run("calls_unknown"),
        Err(ExecError::BadFunction("unknown callee @nowhere".into()))
    );
    assert_eq!(
        run("bad_arity"),
        Err(ExecError::BadFunction(
            "@add2 expects 2 arguments, got 1".into()
        ))
    );
    assert_eq!(
        run("missing"),
        Err(ExecError::BadFunction("no function @missing".into()))
    );
    assert_eq!(
        ModulePlan::compile_entry(&module, "missing", Semantics::proposed()).err(),
        Some(ExecError::BadFunction("no function @missing".into()))
    );
}

/// The guard against checking one function costing the whole module: a
/// call-free entry among hundreds of functions compiles alone.
#[test]
fn call_free_entry_compiles_alone_in_a_large_module() {
    let mut module = Module::new();
    module.functions = random_functions(GenConfig::arithmetic(3), 0xC105, 400);
    assert_eq!(module.functions.len(), 400);
    for f in module.functions.iter().step_by(37) {
        let (plan, idx) =
            ModulePlan::compile_entry(&module, &f.name, Semantics::proposed()).unwrap();
        assert_eq!(
            plan.num_functions(),
            1,
            "@{} compiled more than itself",
            f.name
        );
        assert_eq!(idx, 0);
    }
}

/// Campaigns run entirely on the plan engine; a corpus with known
/// legacy-InstCombine violations must report the identical violation
/// set at 1, 2, and 8 workers.
#[test]
fn plan_backed_campaign_is_deterministic_at_1_2_8_workers() {
    let cfg = GenConfig {
        ops: vec![frost::ir::BinOp::Mul],
        consts: vec![2],
        poison_const: false,
        flags: false,
        freeze: false,
        ..GenConfig::arithmetic(2)
    }
    .with_undef();
    let run = |workers: usize| {
        Campaign::new(Semantics::legacy_gvn())
            .with_workers(workers)
            .with_shard_size(5)
            .run_random(&cfg, 0xBEEF, 250, |m| {
                for f in &mut m.functions {
                    InstCombine::new(PipelineMode::Legacy).apply(f);
                    Dce::new().apply(f);
                    f.compact();
                }
            })
    };
    let one = run(1);
    assert!(
        !one.is_clean(),
        "corpus must produce violations for the determinism check to bite"
    );
    for workers in [2, 8] {
        let multi = run(workers);
        assert_eq!(
            one.violations, multi.violations,
            "plan-backed campaign diverged at {workers} workers"
        );
        assert_eq!(one.total, multi.total);
        assert_eq!(one.refined, multi.refined);
        assert_eq!(one.inconclusive, multi.inconclusive);
    }
}
