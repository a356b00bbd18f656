//! Unified selection of the execution backend.
//!
//! Three evaluators can enumerate a function's behaviors: the retained
//! tree-walk ([`crate::exec::reference`]), the compiled plan machine
//! ([`crate::plan`]), and the bit-sliced backend ([`crate::bitslice`]).
//! All three produce byte-identical [`OutcomeSet`]s on the programs
//! they support; they differ only in cost. Downstream code (the
//! refinement checker, campaigns, benches) selects one with [`Engine`]
//! and calls [`enumerate_function`] — never a concrete evaluator.

use frost_ir::Module;

use crate::bitslice::BitslicePlan;
use crate::cache::EnumeratedOutcomes;
use crate::exec::{reference, ExecError, Limits};
use crate::mem::Memory;
use crate::outcome::OutcomeSet;
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
    /// slice report [`ExecError::Unsupported`] rather than falling back
    /// — useful for tests and benches that must not silently change
    /// engines.
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
/// implementation detail. It is [`enumerate_function_mems`] over the
/// one memory `mem`.
pub fn enumerate_function(
    module: &Module,
    name: &str,
    inputs: &[Vec<Val>],
    mem: &Memory,
    sem: Semantics,
    limits: Limits,
    engine: Engine,
) -> EnumeratedOutcomes {
    enumerate_function_mems(
        module,
        name,
        inputs,
        std::slice::from_ref(mem),
        sem,
        limits,
        engine,
    )
}

/// [`enumerate_function`] over every initial memory in `mems` at once:
/// the function is compiled, and the bit-sliced lowering attempted,
/// once for the whole batch. The result is memory-major — entry
/// `mi * inputs.len() + i` holds memory `mi`, tuple `i`.
///
/// A function `module` does not define yields one
/// [`ExecError::BadFunction`] per pair.
pub fn enumerate_function_mems(
    module: &Module,
    name: &str,
    inputs: &[Vec<Val>],
    mems: &[Memory],
    sem: Semantics,
    limits: Limits,
    engine: Engine,
) -> EnumeratedOutcomes {
    let pairs = mems.len() * inputs.len();
    if engine == Engine::Reference {
        return each_pair(mems, inputs, |mem, args| {
            reference::enumerate_outcomes(module, name, args, mem, sem, limits)
        });
    }
    let (plan, idx) = match ModulePlan::compile_entry(module, name, sem) {
        Ok(compiled) => compiled,
        Err(e) => return vec![Err(e); pairs],
    };
    let plan_loop = || {
        let mut machine = Machine::new();
        each_pair(mems, inputs, |mem, args| {
            plan.enumerate(idx, args, mem, limits, &mut machine)
        })
    };
    if engine == Engine::Plan {
        return plan_loop();
    }
    // The lowering depends on the inputs only, never on the memory:
    // eligible programs cannot touch memory, which reaches their
    // outcomes only through the `Ret` snapshot.
    match BitslicePlan::compile(&plan, idx, inputs, limits) {
        Ok(bp) => {
            let mut all = Vec::with_capacity(pairs);
            for mem in mems {
                all.extend(bp.evaluate(mem).into_iter().map(Ok));
            }
            all
        }
        Err(e) if engine == Engine::BitSliced => vec![Err(e); pairs],
        Err(_) => plan_loop(),
    }
}

/// `run` on every (memory, input) pair, memory-major, into one
/// allocation.
fn each_pair(
    mems: &[Memory],
    inputs: &[Vec<Val>],
    mut run: impl FnMut(&Memory, &[Val]) -> Result<OutcomeSet, ExecError>,
) -> EnumeratedOutcomes {
    let mut all = Vec::with_capacity(mems.len() * inputs.len());
    for mem in mems {
        all.extend(inputs.iter().map(|args| run(mem, args)));
    }
    all
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
