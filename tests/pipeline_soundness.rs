//! Pipeline-level soundness: the §6 validation methodology applied to
//! whole pass pipelines, plus the phase-ordering interactions the paper
//! worries about (§10.2: "an optimization took advantage of it,
//! resulting in end-to-end miscompilations").

use frost::core::Semantics;
use frost::fuzz::{enumerate_functions, random_functions, validate_transform, GenConfig};
use frost::ir::{module_to_string, FunctionAnalysisManager, FunctionBuilder};
use frost::opt::{cleanup_pipeline, o2_pipeline, PipelineMode};

#[test]
fn fixed_o2_is_sound_on_exhaustive_single_instruction_space() {
    // Every 1-instruction i2 function (thousands), the whole pipeline.
    let cfg = GenConfig::arithmetic(1);
    let pm = o2_pipeline(PipelineMode::Fixed);
    let report = validate_transform(enumerate_functions(cfg), Semantics::proposed(), |m| {
        pm.run(m);
    });
    assert!(
        report.is_clean(),
        "violation: {}",
        report
            .violations
            .first()
            .map(|v| format!("{}\n=>\n{}\n{}", v.before, v.after, v.counterexample))
            .unwrap_or_default()
    );
    assert!(report.total > 1000, "the space is exhaustive: {report}");
}

#[test]
fn fixed_o2_is_sound_on_sampled_two_instruction_space() {
    let cfg = GenConfig::arithmetic(2);
    let space = enumerate_functions(cfg.clone()).approx_size();
    let stride = (space / 250).max(1) as usize;
    let pm = o2_pipeline(PipelineMode::Fixed);
    let report = validate_transform(
        enumerate_functions(cfg).step_by(stride).take(250),
        Semantics::proposed(),
        |m| {
            pm.run(m);
        },
    );
    assert!(
        report.is_clean(),
        "violation: {}",
        report
            .violations
            .first()
            .map(|v| format!("{}\n=>\n{}\n{}", v.before, v.after, v.counterexample))
            .unwrap_or_default()
    );
}

#[test]
fn fixed_o2_is_sound_on_random_select_heavy_functions() {
    let cfg = GenConfig::with_selects(4);
    let pm = o2_pipeline(PipelineMode::Fixed);
    let report = validate_transform(
        random_functions(cfg, 0xf05, 80),
        Semantics::proposed(),
        |m| {
            pm.run(m);
        },
    );
    assert!(
        report.is_clean(),
        "violation: {}",
        report
            .violations
            .first()
            .map(|v| format!("{}\n=>\n{}\n{}", v.before, v.after, v.counterexample))
            .unwrap_or_default()
    );
}

#[test]
fn legacy_o2_produces_at_least_one_miscompilation_with_undef() {
    // The point of the exercise: the legacy pipeline as a whole — not
    // just individual rules — miscompiles programs containing undef.
    let cfg = GenConfig {
        ops: vec![
            frost::ir::BinOp::Mul,
            frost::ir::BinOp::Add,
            frost::ir::BinOp::Sub,
        ],
        consts: vec![0, 1, 2],
        flags: false,
        freeze: false,
        poison_const: false,
        ..GenConfig::arithmetic(2)
    }
    .with_undef();
    let pm = o2_pipeline(PipelineMode::Legacy);
    let report = validate_transform(
        enumerate_functions(cfg).step_by(7).take(400),
        Semantics::legacy_gvn(),
        |m| {
            pm.run(m);
        },
    );
    assert!(
        !report.is_clean(),
        "expected the legacy pipeline to miscompile something: {report}"
    );
}

#[test]
fn pipelines_are_idempotent_on_their_own_output() {
    // Running -O2 twice must be a no-op the second time for the sampled
    // space (a fixpoint sanity check; catches pass ping-pong).
    let cfg = GenConfig::with_selects(3);
    for f in random_functions(cfg, 7, 20) {
        let mut m = frost::ir::Module::new();
        m.functions.push(f);
        let pm = o2_pipeline(PipelineMode::Fixed);
        pm.run(&mut m);
        let once = frost::ir::module_to_string(&m);
        pm.run(&mut m);
        let twice = frost::ir::module_to_string(&m);
        assert_eq!(once, twice, "pipeline is not idempotent");
    }
}

#[test]
fn per_function_o2_equals_module_o2() {
    // `repro --input` runs O2 function by function, which matches the
    // module pipeline only while every O2 pass is function-local. The
    // module mixes the 4-instruction arith, guard and memory spaces, and
    // every fifth function has a caller, so a module-level pass (an
    // inliner, say) added to O2 changes the module run alone.
    let spaces = [
        ("a", GenConfig::arithmetic(4)),
        ("g", GenConfig::guards(4)),
        ("m", GenConfig::memory(4)),
    ];
    let mut m = frost::ir::Module::new();
    for (s, (prefix, cfg)) in spaces.into_iter().enumerate() {
        for (i, mut f) in random_functions(cfg, 27 + s as u64, 70)
            .into_iter()
            .enumerate()
        {
            f.name = format!("{prefix}{i}");
            m.functions.push(f);
        }
    }
    let callers: Vec<_> = (m.functions.iter().step_by(5))
        .map(|f| {
            let params: Vec<_> = (f.params.iter())
                .map(|p| (p.name.as_str(), p.ty.clone()))
                .collect();
            let name = format!("call.{}", f.name);
            let mut b = FunctionBuilder::new(&name, &params, f.ret_ty.clone());
            let args = (0..params.len() as u32).map(|i| b.arg(i)).collect();
            let r = b.call(f.ret_ty.clone(), &f.name, args);
            if f.ret_ty.is_void() {
                b.ret_void();
            } else {
                b.ret(r);
            }
            b.finish()
        })
        .collect();
    m.functions.extend(callers);
    assert!(m.functions.len() >= 250);

    for mode in [
        PipelineMode::Legacy,
        PipelineMode::Fixed,
        PipelineMode::FixedFreezeBlind,
    ] {
        let pm = o2_pipeline(mode);
        let mut whole = m.clone();
        pm.run(&mut whole);
        let mut each = m.clone();
        let mut fam = FunctionAnalysisManager::new();
        for f in &mut each.functions {
            pm.run_on_function_with(f, &mut fam);
        }
        assert_eq!(
            module_to_string(&whole),
            module_to_string(&each),
            "{mode:?}: per-function O2 diverged from module O2"
        );
    }
}

#[test]
fn cleanup_pipeline_preserves_verification() {
    let cfg = GenConfig::with_selects(3);
    for f in random_functions(cfg, 99, 40) {
        let mut m = frost::ir::Module::new();
        m.functions.push(f);
        cleanup_pipeline(PipelineMode::Fixed).run(&mut m);
        frost::ir::verify::verify_module(&m, frost::ir::VerifyMode::Proposed)
            .unwrap_or_else(|e| panic!("{}: {}", frost::ir::module_to_string(&m), e.join("; ")));
    }
}

#[test]
fn modes_never_panic_across_the_generator_space() {
    for mode in [
        PipelineMode::Legacy,
        PipelineMode::Fixed,
        PipelineMode::FixedFreezeBlind,
    ] {
        let cfg = GenConfig::with_selects(3);
        for f in random_functions(cfg, 3, 30) {
            let mut m = frost::ir::Module::new();
            m.functions.push(f);
            o2_pipeline(mode).run(&mut m);
            let vm = if mode == PipelineMode::Legacy {
                frost::ir::VerifyMode::Legacy
            } else {
                // The fixed pipelines may still carry undef constants
                // fed in by the generator; structural checks only.
                frost::ir::VerifyMode::Legacy
            };
            frost::ir::verify::verify_module(&m, vm).unwrap_or_else(|e| {
                panic!(
                    "mode {mode:?}: {}: {}",
                    frost::ir::module_to_string(&m),
                    e.join("; ")
                )
            });
        }
    }
}
