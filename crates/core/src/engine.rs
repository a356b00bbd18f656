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
use crate::mem::{positions, ByteClasses, Memories, Memory, MemoryList};
use crate::outcome::{Outcome, OutcomeSet};
use crate::plan::{plan_counters, Machine, ModulePlan};
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
    /// Slowest; supports everything, and runs every (memory, tuple)
    /// pair on its own.
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
/// [`enumerate_function_mems`] returns it. A batch holds no memory list: it
/// is read back ([`Batch::pair`]) against the memory list it was
/// enumerated on, or one with the same contents.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Batch {
    /// The bit-sliced engine's lane masks. An eligible program never
    /// touches memory, so one mask set serves every memory: a pair's
    /// returns carry its own initial memory as their final one.
    Lanes(Lanes),
    /// The distinct runs, and which one answers each pair.
    Pairs {
        /// One enumeration each of some tuple on some memory.
        runs: Vec<Run>,
        /// Per pair, memory-major (`mi * tuples + i` is memory `mi`,
        /// tuple `i`): the index of the run that answers it.
        index: Vec<u32>,
    },
}

/// One enumeration of a tuple on a memory, which also answers every
/// other memory of its batch that agrees with that one on the bytes the
/// run touched.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Run {
    /// The outcome set, its final memories as seen from the run's own
    /// memory, or the enumeration failure. Failures stay per pair so
    /// callers reproduce the sequential checker's verdicts exactly.
    pub result: Result<OutcomeSet, ExecError>,
    /// The memory the run was made on, as an index into the list.
    mem: u32,
    /// The initial-region bytes any branch loaded or stored
    /// ([`Machine`] records them), as a mask over byte positions.
    touched: u64,
}

impl Batch {
    /// The distinct run answering pair `pair` (memory-major). A lane
    /// batch has one run per tuple, shared by every memory. Two pairs
    /// of one tuple with the same run have the same outcomes, up to
    /// bytes no branch of that run touched.
    pub fn run_index(&self, pair: usize) -> usize {
        match self {
            Batch::Lanes(lanes) => pair % lanes.lanes(),
            Batch::Pairs { index, .. } => index[pair] as usize,
        }
    }

    /// How many distinct runs the batch holds: every
    /// [`Batch::run_index`] is below it.
    pub fn run_count(&self) -> usize {
        match self {
            Batch::Lanes(lanes) => lanes.lanes(),
            Batch::Pairs { runs, .. } => runs.len(),
        }
    }

    /// Pair `pair` (memory-major) read back against `mems`, the memory
    /// list the batch was enumerated on or one with the same contents:
    /// borrowed when its run was made on that pair's memory; otherwise
    /// the run's outcomes with the pair's own memory standing in on
    /// every byte the run did not touch. That is exact: no branch of
    /// the run read or wrote those bytes, and it read equal ones
    /// everywhere else.
    pub fn pair<'a>(
        &'a self,
        mems: &[Memory],
        pair: usize,
    ) -> Cow<'a, Result<OutcomeSet, ExecError>> {
        match self {
            Batch::Lanes(lanes) => {
                let n = lanes.lanes();
                let snapshot = mems[pair / n].snapshot();
                Cow::Owned(Ok(lanes.outcomes(pair % n, &snapshot)))
            }
            Batch::Pairs { runs, index } => {
                let run = &runs[index[pair] as usize];
                let mi = pair / (index.len() / mems.len());
                match &run.result {
                    Ok(set) if run.mem as usize != mi => {
                        Cow::Owned(Ok(restamp(set, &mems[mi], run.touched)))
                    }
                    result => Cow::Borrowed(result),
                }
            }
        }
    }

    /// Every pair read back against `mems` ([`Batch::pair`]),
    /// memory-major.
    pub fn pairs(&self, mems: &[Memory]) -> EnumeratedOutcomes {
        let len = match self {
            Batch::Lanes(lanes) => lanes.lanes() * mems.len(),
            Batch::Pairs { index, .. } => index.len(),
        };
        (0..len).map(|j| self.pair(mems, j).into_owned()).collect()
    }
}

/// `set` with `mem` standing in on every byte outside `touched`. The
/// outcomes of one run agree on those bytes, so their order holds.
fn restamp(set: &OutcomeSet, mem: &Memory, touched: u64) -> OutcomeSet {
    let outcomes = set.iter().map(|o| match o {
        Outcome::Ret {
            val,
            mem: final_mem,
            trace,
        } => {
            let mut final_mem = final_mem.clone();
            mem.fill_outside(&mut final_mem, touched);
            Outcome::Ret {
                val: val.clone(),
                mem: final_mem,
                trace: trace.clone(),
            }
        }
        Outcome::Ub => Outcome::Ub,
    });
    OutcomeSet::from_sorted(outcomes.collect())
}

/// Enumerates every behavior of `name` on each input tuple using the
/// chosen `engine`. One entry per tuple, in order; failures stay
/// per-tuple so callers reproduce the sequential checker's verdicts
/// exactly.
///
/// It is [`enumerate_function_mems`] over the one memory `mem`, read
/// back per tuple.
pub fn enumerate_function(
    module: &Module,
    name: &str,
    inputs: &[Vec<Val>],
    mem: &Memory,
    sem: Semantics,
    limits: Limits,
    engine: Engine,
) -> EnumeratedOutcomes {
    let mems = Memories::One(mem);
    enumerate_function_mems(module, name, inputs, mems, sem, limits, engine).pairs(&mems)
}

/// Enumerates every behavior of `name` on every (memory, input) pair
/// using the chosen `engine`: the function is compiled, and the
/// bit-sliced lowering attempted, once for the whole batch.
///
/// This is the single entry point behind `frost_refine::check` and
/// `frost_fuzz` validation — the concrete evaluators are
/// implementation detail. A bit-sliced program runs once for all of
/// `mems` and answers with [`Batch::Lanes`]; every other path answers
/// with [`Batch::Pairs`]. On a [`MemoryList`] with byte classes, the
/// plan machine runs a tuple on a memory only if no earlier run of the
/// tuple was made on a memory that agrees with it on the bytes that run
/// touched; the lowest such run answers it ([`Batch::pair`]). Any other
/// memories, [`Engine::Reference`], and every failure that precedes
/// running (a function `module` does not define yields one
/// [`ExecError::BadFunction`] per pair) make one run per pair.
pub fn enumerate_function_mems(
    module: &Module,
    name: &str,
    inputs: &[Vec<Val>],
    mems: Memories<'_>,
    sem: Semantics,
    limits: Limits,
    engine: Engine,
) -> Batch {
    if engine == Engine::Reference {
        return each_pair(&mems, inputs, |mem, args| {
            reference::enumerate_outcomes(module, name, args, mem, sem, limits)
        });
    }
    let (plan, idx) = match ModulePlan::compile_entry(module, name, sem) {
        Ok(compiled) => compiled,
        Err(e) => return each_pair(&mems, inputs, |_, _| Err(e.clone())),
    };
    if engine != Engine::Plan {
        // The lowering depends on the inputs only, never on the memory:
        // eligible programs cannot touch memory, which reaches their
        // outcomes only through the `Ret` snapshot.
        match BitslicePlan::compile(&plan, idx, inputs, limits) {
            Ok(bp) => return Batch::Lanes(bp.evaluate()),
            Err(e) if engine == Engine::BitSliced => {
                return each_pair(&mems, inputs, |_, _| Err(e.clone()))
            }
            Err(_) => {}
        }
    }
    let mut machine = Machine::new();
    let mut run = |mem: &Memory, args: &[Val]| {
        let result = plan.enumerate(idx, args, mem, limits, &mut machine);
        (result, machine.touched())
    };
    match mems {
        Memories::List(MemoryList {
            mems,
            classes: Some(classes),
        }) => shared_runs(mems, classes, inputs, run),
        _ => each_pair(&mems, inputs, |mem, args| run(mem, args).0),
    }
}

/// `run` on every (memory, input) pair, memory-major: one run per pair.
fn each_pair(
    mems: &[Memory],
    inputs: &[Vec<Val>],
    mut run: impl FnMut(&Memory, &[Val]) -> Result<OutcomeSet, ExecError>,
) -> Batch {
    let mut runs = Vec::with_capacity(mems.len() * inputs.len());
    for (mi, mem) in mems.iter().enumerate() {
        runs.extend(inputs.iter().map(|args| Run {
            result: run(mem, args),
            mem: mi as u32,
            touched: u64::MAX,
        }));
    }
    let index = (0..runs.len() as u32).collect();
    Batch::Pairs { runs, index }
}

/// `run` on each tuple, lowest unanswered memory first: each run answers
/// every memory not yet answered that agrees with the run's own on the
/// bytes it touched ([`ByteClasses`]), so a memory is run only when no
/// earlier run of the tuple was made on a memory that agrees with it
/// there.
fn shared_runs(
    mems: &[Memory],
    classes: &ByteClasses,
    inputs: &[Vec<Val>],
    mut run: impl FnMut(&Memory, &[Val]) -> (Result<OutcomeSet, ExecError>, u64),
) -> Batch {
    let n = inputs.len();
    let mut runs: Vec<Run> = Vec::new();
    let mut index = vec![0; mems.len() * n];
    // Every memory, as a bitset over the list.
    let all: Vec<u64> = (0..mems.len().div_ceil(64))
        .map(|w| u64::MAX >> (64 - (mems.len() - 64 * w).min(64)))
        .collect();
    let mut cover = all.clone();
    for (i, args) in inputs.iter().enumerate() {
        let mut open = all.clone();
        while let Some(w) = open.iter().position(|&word| word != 0) {
            let mi = 64 * w + open[w].trailing_zeros() as usize;
            let (result, touched) = run(&mems[mi], args);
            let r = runs.len() as u32;
            runs.push(Run {
                result,
                mem: mi as u32,
                touched,
            });
            cover.copy_from_slice(&open);
            classes.keep_agreeing(mi, touched, &mut cover);
            for (w, (&answered, word)) in cover.iter().zip(&mut open).enumerate() {
                *word &= !answered;
                for bit in positions(answered) {
                    index[(64 * w + bit) * n + i] = r;
                }
            }
        }
    }
    plan_counters()
        .shared
        .add((index.len() - runs.len()) as u64);
    Batch::Pairs { runs, index }
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
        let mems = MemoryList::new(vec![zero, ones]);
        let run = |engine| {
            enumerate_function_mems(
                &m,
                "f",
                &i2_space(),
                Memories::List(&mems),
                Semantics::legacy_gvn(),
                Limits::default(),
                engine,
            )
        };
        let lanes = run(Engine::Auto);
        assert!(
            matches!(lanes, Batch::Lanes(_)),
            "an eligible function answers in lanes: {lanes:?}"
        );
        // Each memory reads the lanes back with itself as every
        // return's final memory.
        let pairs = lanes.pairs(&mems);
        let n = i2_space().len();
        for (j, pair) in pairs.iter().enumerate() {
            let snapshot = mems[j / n].snapshot();
            let set = pair.as_ref().expect("no failure");
            assert!(set.iter().all(|o| match o {
                Outcome::Ret { mem, .. } => *mem == snapshot,
                Outcome::Ub => true,
            }));
        }
        assert_eq!(pairs, run(Engine::Plan).pairs(&mems));
        assert_eq!(pairs, run(Engine::Reference).pairs(&mems));
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
