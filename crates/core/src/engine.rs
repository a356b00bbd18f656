//! Unified selection of the execution backend.
//!
//! Three evaluators can enumerate a function's behaviors: the retained
//! tree-walk ([`crate::exec::reference`]), the compiled plan machine
//! ([`crate::plan`]), and the bit-sliced backend ([`crate::bitslice`]).
//! All three produce byte-identical [`OutcomeSet`]s on the programs
//! they support; they differ only in cost. Downstream code (the
//! refinement checker, campaigns, benches) selects one with [`Engine`]
//! and calls [`enumerate_function_mems`] (or its per-pair wrapper
//! [`enumerate_function`]) — never a concrete evaluator.

use std::borrow::Cow;

use frost_ir::Module;

use crate::bitslice::{BitslicePlan, Lanes};
use crate::cache::EnumeratedOutcomes;
use crate::exec::{reference, ExecError, Limits};
use crate::mem::Memory;
use crate::outcome::OutcomeSet;
use crate::plan::{Machine, ModulePlan};
use crate::sem::Semantics;
use crate::val::{Bits, Val};

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

/// Every (initial memory, input tuple) pair of one function, as
/// [`enumerate_function_mems`] returns it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Batch {
    /// The bit-sliced engine's lane masks. An eligible program never
    /// touches memory, so one mask set serves every memory; `mems`
    /// holds each memory's final snapshot (its initial one), in order.
    Lanes {
        /// Outcome codes per tuple, as lane masks.
        lanes: Lanes,
        /// Final memory snapshot per initial memory.
        mems: Vec<Bits>,
    },
    /// Per-pair results, memory-major: entry `mi * inputs.len() + i`
    /// holds memory `mi`, tuple `i`. Failures stay per pair so callers
    /// reproduce the sequential checker's verdicts exactly.
    Pairs(EnumeratedOutcomes),
}

impl Batch {
    /// The per-pair results, memory-major: borrowed from a
    /// [`Batch::Pairs`], materialized from a [`Batch::Lanes`].
    pub fn pairs(&self) -> Cow<'_, [Result<OutcomeSet, ExecError>]> {
        match self {
            Batch::Lanes { lanes, mems } => Cow::Owned(
                mems.iter()
                    .flat_map(|mem| lanes.sets(mem).into_iter().map(Ok))
                    .collect(),
            ),
            Batch::Pairs(all) => Cow::Borrowed(all),
        }
    }

    /// [`Batch::pairs`], by value.
    pub fn into_pairs(self) -> EnumeratedOutcomes {
        match self {
            Batch::Pairs(all) => all,
            lanes => lanes.pairs().into_owned(),
        }
    }
}

/// Enumerates every behavior of `name` on each input tuple using the
/// chosen `engine`. One entry per tuple, in order; failures stay
/// per-tuple so callers reproduce the sequential checker's verdicts
/// exactly.
///
/// It is [`enumerate_function_mems`] over the one memory `mem`, with
/// the batch materialized per tuple.
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
    .into_pairs()
}

/// Enumerates every behavior of `name` on every (memory, input) pair
/// using the chosen `engine`: the function is compiled, and the
/// bit-sliced lowering attempted, once for the whole batch.
///
/// This is the single entry point behind `frost_refine::check` and
/// `frost_fuzz` validation — the concrete evaluators are
/// implementation detail. A bit-sliced program runs once for all of
/// `mems` and answers with [`Batch::Lanes`]; every other path answers
/// with [`Batch::Pairs`]. A function `module` does not define yields
/// one [`ExecError::BadFunction`] per pair.
pub fn enumerate_function_mems(
    module: &Module,
    name: &str,
    inputs: &[Vec<Val>],
    mems: &[Memory],
    sem: Semantics,
    limits: Limits,
    engine: Engine,
) -> Batch {
    let pairs = mems.len() * inputs.len();
    if engine == Engine::Reference {
        return each_pair(mems, inputs, |mem, args| {
            reference::enumerate_outcomes(module, name, args, mem, sem, limits)
        });
    }
    let (plan, idx) = match ModulePlan::compile_entry(module, name, sem) {
        Ok(compiled) => compiled,
        Err(e) => return Batch::Pairs(vec![Err(e); pairs]),
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
        Ok(bp) => Batch::Lanes {
            lanes: bp.evaluate(),
            mems: mems.iter().map(Memory::snapshot).collect(),
        },
        Err(e) if engine == Engine::BitSliced => Batch::Pairs(vec![Err(e); pairs]),
        Err(_) => plan_loop(),
    }
}

/// `run` on every (memory, input) pair, memory-major, into one
/// allocation.
fn each_pair(
    mems: &[Memory],
    inputs: &[Vec<Val>],
    mut run: impl FnMut(&Memory, &[Val]) -> Result<OutcomeSet, ExecError>,
) -> Batch {
    let mut all = Vec::with_capacity(mems.len() * inputs.len());
    for mem in mems {
        all.extend(inputs.iter().map(|args| run(mem, args)));
    }
    Batch::Pairs(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecError;
    use crate::val::{Bit, Ptr};
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
    fn one_lane_evaluation_serves_every_memory() {
        let m = parse_module("define i2 @f(i2 %x) {\nentry:\n  %a = udiv i2 2, %x\n  ret i2 %a\n}")
            .unwrap();
        let zero = Memory::with_initial_blocks(&[1], Bit::Zero);
        let mut ones = zero.clone();
        assert!(ones.store_ptr(Ptr::Block { block: 0, off: 0 }, &[Bit::One; 8]));
        let mems = [zero, ones];
        let run = |engine| {
            enumerate_function_mems(
                &m,
                "f",
                &i2_space(),
                &mems,
                Semantics::legacy_gvn(),
                Limits::default(),
                engine,
            )
        };
        let lanes = run(Engine::Auto);
        let Batch::Lanes {
            mems: snapshots, ..
        } = &lanes
        else {
            panic!("an eligible function answers in lanes: {lanes:?}");
        };
        assert_eq!(snapshots, &[vec![Bit::Zero; 8], vec![Bit::One; 8]]);
        assert_eq!(lanes.pairs(), run(Engine::Plan).pairs());
        assert_eq!(lanes.into_pairs(), run(Engine::Reference).into_pairs());
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
