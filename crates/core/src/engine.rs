//! Unified selection of the execution backend.
//!
//! Three evaluators can enumerate a function's behaviors: the retained
//! tree-walk ([`crate::exec::reference`]), the compiled plan machine
//! ([`crate::plan`]), and the bit-sliced backend ([`crate::bitslice`]).
//! All three produce byte-identical [`OutcomeSet`](crate::OutcomeSet)s on the programs
//! they support; they differ only in cost. Downstream code (the
//! refinement checker, campaigns, benches) selects one with [`Engine`]
//! and calls [`enumerate_function`] — never a concrete evaluator.

use frost_ir::Module;

use crate::bitslice::BitslicePlan;
use crate::cache::EnumeratedOutcomes;
use crate::exec::{reference, Limits};
use crate::mem::Memory;
use crate::plan::{Machine, ModulePlan};
use crate::sem::Semantics;
use crate::val::Val;

/// Which evaluator enumerates function behaviors.
///
/// The default is [`Engine::Auto`]: bit-sliced whenever the (function,
/// inputs, limits) combination is eligible (straight-line all-i2-ish
/// scalar code — the §6 corpus shape), the plan machine otherwise.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Engine {
    /// The tree-walk interpreter retained for differential testing.
    /// Slowest; supports everything.
    Reference,
    /// The compiled step-stream machine with prefix-resuming
    /// enumeration. Supports everything.
    Plan,
    /// The bit-sliced backend: every input tuple evaluated at once as
    /// lanes of word-wide plane operations. *Strict*: inputs it cannot
    /// slice report
    /// [`ExecError::Unsupported`](crate::exec::ExecError::Unsupported)
    /// rather than falling back — useful for tests and benches that
    /// must not silently change engines.
    BitSliced,
    /// Bit-sliced when eligible, plan otherwise.
    #[default]
    Auto,
}

/// Enumerates every behavior of `name` on each input tuple using the
/// chosen `engine`. One entry per tuple, in order; failures stay
/// per-tuple so callers reproduce the sequential checker's verdicts
/// exactly.
///
/// This is the single entry point behind `frost_refine::check` and
/// `frost_fuzz` validation — the concrete evaluators are
/// implementation detail.
pub fn enumerate_function(
    module: &Module,
    name: &str,
    inputs: &[Vec<Val>],
    mem: &Memory,
    sem: Semantics,
    limits: Limits,
    engine: Engine,
) -> EnumeratedOutcomes {
    if engine == Engine::Reference {
        return inputs
            .iter()
            .map(|args| reference::enumerate_outcomes(module, name, args, mem, sem, limits))
            .collect();
    }
    match ModulePlan::compile_entry(module, name, sem) {
        Ok((plan, idx)) => run_compiled(&plan, idx, inputs, mem, limits, engine),
        Err(e) => inputs.iter().map(|_| Err(e.clone())).collect(),
    }
}

/// Runs an already-compiled plan over every input under a plan-backed
/// engine ([`Engine::Plan`], [`Engine::BitSliced`], or [`Engine::Auto`]
/// — never [`Engine::Reference`], which has no compiled form).
pub(crate) fn run_compiled(
    plan: &ModulePlan,
    idx: usize,
    inputs: &[Vec<Val>],
    mem: &Memory,
    limits: Limits,
    engine: Engine,
) -> EnumeratedOutcomes {
    match engine {
        Engine::Reference => unreachable!("reference engine has no compiled form"),
        Engine::Plan => plan_loop(plan, idx, inputs, mem, limits),
        Engine::BitSliced => match BitslicePlan::compile(plan, idx, inputs, limits) {
            Ok(bp) => bp.evaluate(mem).into_iter().map(Ok).collect(),
            Err(e) => inputs.iter().map(|_| Err(e.clone())).collect(),
        },
        Engine::Auto => match BitslicePlan::compile(plan, idx, inputs, limits) {
            Ok(bp) => bp.evaluate(mem).into_iter().map(Ok).collect(),
            Err(_) => plan_loop(plan, idx, inputs, mem, limits),
        },
    }
}

fn plan_loop(
    plan: &ModulePlan,
    idx: usize,
    inputs: &[Vec<Val>],
    mem: &Memory,
    limits: Limits,
) -> EnumeratedOutcomes {
    let mut machine = Machine::new();
    inputs
        .iter()
        .map(|args| plan.enumerate(idx, args, mem, limits, &mut machine))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecError;
    use frost_ir::{parse_module, Ty};

    fn i2_space() -> Vec<Vec<Val>> {
        let mut vals: Vec<Val> = (0..4).map(|v| Val::int(2, v)).collect();
        vals.push(Val::Poison);
        vals.push(Val::Undef(Ty::Int(2)));
        vals.iter().map(|v| vec![v.clone()]).collect()
    }

    #[test]
    fn all_engines_agree_on_an_eligible_function() {
        let m = parse_module(
            "define i2 @f(i2 %x) {\nentry:\n  %a = add nsw i2 %x, 1\n  %b = freeze i2 %a\n  ret i2 %b\n}",
        )
        .unwrap();
        let run = |engine| {
            enumerate_function(
                &m,
                "f",
                &i2_space(),
                &Memory::zeroed(0),
                Semantics::legacy_gvn(),
                Limits::default(),
                engine,
            )
        };
        let reference = run(Engine::Reference);
        for engine in [Engine::Plan, Engine::BitSliced, Engine::Auto] {
            assert_eq!(reference, run(engine), "{engine:?} diverged");
        }
    }

    #[test]
    fn strict_bitsliced_reports_ineligibility_while_auto_falls_back() {
        let m = parse_module(
            "define i2 @f(i1 %c) {\nentry:\n  br i1 %c, label %a, label %b\na:\n  ret i2 1\nb:\n  ret i2 0\n}",
        )
        .unwrap();
        let inputs = vec![vec![Val::int(1, 0)], vec![Val::int(1, 1)]];
        let run = |engine| {
            enumerate_function(
                &m,
                "f",
                &inputs,
                &Memory::zeroed(0),
                Semantics::proposed(),
                Limits::default(),
                engine,
            )
        };
        assert!(run(Engine::BitSliced)
            .iter()
            .all(|r| matches!(r, Err(ExecError::Unsupported(_)))));
        assert_eq!(run(Engine::Auto), run(Engine::Plan));
    }
}
