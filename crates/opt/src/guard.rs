//! Guard-driven passes: assume-driven simplification and a freeze-aware
//! DCE over `unreachable`-doomed code.
//!
//! Two ingredients, each in legacy and fixed variants:
//!
//! 1. **[`AssumeSimplify`]**: an executed `assume i1 %c` proves that
//!    `%c` is `true` *and non-poison* on every execution that gets past
//!    it (the guard promotes deferred UB to immediate UB, so a poison
//!    fact never survives the assume). The pass cashes that in: uses of
//!    `%c` dominated by the guard become `true`; an asserted
//!    `icmp eq %v, C` rewrites dominated uses of `%v` to `C`; an
//!    asserted `icmp ult %v, C` (`C` a power of two) proves the high
//!    bits of `%v` are zero, so a dominated `and %v, m` with
//!    `m ⊇ C-1` is just `%v`. The *legacy* variant is dominance-blind —
//!    it applies the fact everywhere in the function, including on
//!    paths that never execute the guard, which the refinement checker
//!    pins with a concrete miscompilation.
//!
//! 2. **[`GuardDce`]**: deleting guarded-dead code. Code in an
//!    `unreachable`-terminated block only runs on executions that are
//!    already doomed to immediate UB, so the whole block body — even
//!    side-effecting stores — may go; `assume true` is a no-op and
//!    `assume false`/`assume poison` dooms the rest of its block, which
//!    collapses to `unreachable`. All of that is sound in *both*
//!    variants: removing or weakening a guard only removes UB, and
//!    target behaviors on source-UB executions are unconstrained. The
//!    *legacy* defect is freeze-blindness: it treats a `freeze` that
//!    only feeds optimizer facts as a redundant copy and forwards its
//!    operand — un-laundering deferred UB straight into the guard,
//!    which turns a defined source execution into target UB.
//!
//! Neither pass ever *moves* a computation, so nothing is sunk past (or
//! hoisted over) a guard; the only edits are value rewrites and
//! deletions of provably-doomed code.

use std::collections::HashMap;

use frost_ir::builder::bool_const;
use frost_ir::{
    BinOp, BlockId, Cond, DomTreeAnalysis, Function, FunctionAnalysisManager, Inst, InstId,
    PreservedAnalyses, Terminator, Value,
};

use crate::dce::remove_unreachable_blocks;
use crate::pass::{Pass, PipelineMode};
use crate::util::erase_inst;

/// The assume-driven simplification pass.
#[derive(Debug)]
pub struct AssumeSimplify {
    mode: PipelineMode,
}

impl AssumeSimplify {
    /// Creates the pass in the given mode.
    pub fn new(mode: PipelineMode) -> AssumeSimplify {
        AssumeSimplify { mode }
    }
}

/// One thing an executed `assume` proves.
enum Fact {
    /// Every use of the first value in the guarded region is the second.
    Replace(Value, Value),
    /// The value is known `< c` (`c` a power of two), so an
    /// `and value, m` with `m & (c-1) == c-1` in the region *is* the
    /// value.
    LowBits(Value, u128),
}

impl Pass for AssumeSimplify {
    fn name(&self) -> &'static str {
        "assume-simplify"
    }

    fn run_on_function(
        &self,
        func: &mut Function,
        fam: &mut FunctionAnalysisManager,
    ) -> PreservedAnalyses {
        // Collect the guard sites up front; the rewrites below only
        // edit operands (never move, add, or remove instructions), so
        // the recorded positions stay valid throughout.
        let mut sites: Vec<(BlockId, usize, Value)> = Vec::new();
        for bb in func.block_ids() {
            for (pos, &id) in func.block(bb).insts.iter().enumerate() {
                if let Inst::Assume { cond } = func.inst(id) {
                    sites.push((bb, pos, cond.clone()));
                }
            }
        }
        // No guard, no fact: skip the dominator tree.
        if sites.is_empty() {
            return PreservedAnalyses::all();
        }
        let dt = fam.get::<DomTreeAnalysis>(func);
        let mut changed = false;

        for (site_bb, pos, cond) in sites {
            let mut facts: Vec<Fact> = Vec::new();
            // The asserted fact itself: past the guard, `%c` is `true`
            // (and non-poison — poison would have been immediate UB at
            // the guard, so the rewrite never weakens a use).
            if matches!(cond, Value::Inst(_) | Value::Arg(_)) {
                facts.push(Fact::Replace(cond.clone(), bool_const(true)));
            }
            // Look through an asserted comparison for richer facts.
            if let Value::Inst(cid) = &cond {
                if let Inst::Icmp {
                    cond: cc, lhs, rhs, ..
                } = func.inst(*cid)
                {
                    match cc {
                        Cond::Eq => {
                            // Prefer replacing a computed value by a
                            // constant or argument representative.
                            let pick = match (lhs, rhs) {
                                (v @ (Value::Inst(_) | Value::Arg(_)), c @ Value::Const(_))
                                | (c @ Value::Const(_), v @ (Value::Inst(_) | Value::Arg(_))) => {
                                    Some((v.clone(), c.clone()))
                                }
                                (v @ Value::Inst(_), o) | (o, v @ Value::Inst(_)) => {
                                    Some((v.clone(), o.clone()))
                                }
                                _ => None,
                            };
                            if let Some((from, to)) = pick {
                                facts.push(Fact::Replace(from, to));
                            }
                        }
                        Cond::Ult => {
                            if let Some(c) = rhs.as_int_const() {
                                if c.is_power_of_two() {
                                    facts.push(Fact::LowBits(lhs.clone(), c));
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }

            // The guarded region: program points that only execute
            // after the fact has been checked. `None` = outside; the
            // payload is the first eligible instruction position (the
            // terminator is always past every position).
            let region = |user_bb: BlockId| -> Option<usize> {
                match self.mode {
                    // The legacy defect: dominance-blind. The fact is
                    // applied everywhere, including on paths that never
                    // reach the guard.
                    PipelineMode::Legacy => Some(0),
                    _ => {
                        if user_bb == site_bb {
                            Some(pos + 1)
                        } else if dt.strictly_dominates(site_bb, user_bb) {
                            Some(0)
                        } else {
                            None
                        }
                    }
                }
            };

            for fact in facts {
                match fact {
                    Fact::Replace(from, to) => {
                        let from_id = from.as_inst();
                        for user_bb in func.block_ids().collect::<Vec<_>>() {
                            let Some(start) = region(user_bb) else {
                                continue;
                            };
                            let ids: Vec<InstId> = func.block(user_bb).insts[start..].to_vec();
                            for uid in ids {
                                if Some(uid) == from_id {
                                    continue;
                                }
                                // Phi operands are evaluated on the
                                // incoming edge, not at this point.
                                if matches!(func.inst(uid), Inst::Phi { .. }) {
                                    continue;
                                }
                                let (from2, to2) = (from.clone(), to.clone());
                                func.inst_mut(uid).for_each_operand_mut(|v| {
                                    if *v == from2 {
                                        *v = to2.clone();
                                        changed = true;
                                    }
                                });
                            }
                            let (from2, to2) = (from.clone(), to.clone());
                            func.block_mut(user_bb).term.for_each_operand_mut(|v| {
                                if *v == from2 {
                                    *v = to2.clone();
                                    changed = true;
                                }
                            });
                        }
                    }
                    Fact::LowBits(val, c) => {
                        // A masked copy whose *definition* sits in the
                        // guarded region equals `val` on every
                        // execution that evaluates it, so all its uses
                        // (necessarily dominated by the definition) may
                        // be rewritten; the dead `and` is left for DCE.
                        let low = c - 1;
                        let mut masked: Vec<InstId> = Vec::new();
                        for user_bb in func.block_ids().collect::<Vec<_>>() {
                            let Some(start) = region(user_bb) else {
                                continue;
                            };
                            for &uid in &func.block(user_bb).insts[start..] {
                                if let Inst::Bin {
                                    op: BinOp::And,
                                    flags,
                                    lhs,
                                    rhs,
                                    ..
                                } = func.inst(uid)
                                {
                                    let mask = match (lhs, rhs) {
                                        (v, m) if *v == val => m.as_int_const(),
                                        (m, v) if *v == val => m.as_int_const(),
                                        _ => None,
                                    };
                                    if flags.is_none() && mask.is_some_and(|m| m & low == low) {
                                        masked.push(uid);
                                    }
                                }
                            }
                        }
                        for uid in masked {
                            func.replace_all_uses(uid, &val);
                            changed = true;
                        }
                    }
                }
            }
        }

        if changed {
            PreservedAnalyses::cfg()
        } else {
            PreservedAnalyses::all()
        }
    }
}

/// The guard-aware dead code elimination pass.
#[derive(Debug)]
pub struct GuardDce {
    mode: PipelineMode,
}

impl GuardDce {
    /// Creates the pass in the given mode.
    pub fn new(mode: PipelineMode) -> GuardDce {
        GuardDce { mode }
    }
}

impl Pass for GuardDce {
    fn name(&self) -> &'static str {
        "guard-dce"
    }

    fn run_on_function(
        &self,
        func: &mut Function,
        _fam: &mut FunctionAnalysisManager,
    ) -> PreservedAnalyses {
        let mut changed = false;
        let mut changed_cfg = false;

        // The legacy defect: a freeze whose only consumers are
        // optimizer facts looks redundant — "the fact is advisory, why
        // spend an instruction on it" — so legacy forwards the operand
        // and drops the freeze. Under the proposed semantics the freeze
        // was load-bearing: the guard promotes a poison fact to
        // *immediate* UB, and forwarding re-exposes the unlaundered
        // value to it.
        if self.mode == PipelineMode::Legacy {
            changed |= forward_fact_freezes(func);
        }

        // Fold constant facts: `assume true` is a no-op; `assume false`
        // and `assume poison` are immediate UB, dooming the rest of the
        // block. (`assume undef` is left alone — undef may choose
        // `true`, so the source is not necessarily UB.)
        for bb in 0..func.blocks.len() {
            let mut doomed_at: Option<usize> = None;
            let mut noop: Vec<InstId> = Vec::new();
            for (i, &id) in func.blocks[bb].insts.iter().enumerate() {
                if let Inst::Assume { cond } = func.inst(id) {
                    let Some(c) = cond.as_const() else { continue };
                    if c.contains_poison() || c.as_int() == Some(0) {
                        doomed_at = Some(i);
                        break;
                    }
                    if c.as_int() == Some(1) {
                        noop.push(id);
                    }
                }
            }
            if let Some(i) = doomed_at {
                func.blocks[bb].insts.truncate(i);
                func.blocks[bb].term = Terminator::Unreachable;
                changed_cfg = true;
            }
            if !noop.is_empty() {
                func.blocks[bb].insts.retain(|id| !noop.contains(id));
                changed = true;
            }
        }

        // Delete guarded-dead code. Blocks that became CFG-unreachable
        // are gutted first (fixing up phis); then every reachable
        // `unreachable`-terminated block loses its body — each of its
        // instructions only runs on executions the terminator dooms to
        // immediate UB, so even stores may go. No successor exists, so
        // no live value or phi can depend on the deleted code.
        changed_cfg |= remove_unreachable_blocks(func);
        for bb in 0..func.blocks.len() {
            if matches!(func.blocks[bb].term, Terminator::Unreachable)
                && !func.blocks[bb].insts.is_empty()
            {
                func.blocks[bb].insts.clear();
                changed = true;
            }
        }

        if changed_cfg {
            PreservedAnalyses::none()
        } else if changed {
            PreservedAnalyses::cfg()
        } else {
            PreservedAnalyses::all()
        }
    }
}

/// Forwards every placed `freeze` whose result is consumed only by
/// guard facts — directly by `assume`, or through a pure instruction
/// whose own uses are all `assume`s. Returns `true` on change.
///
/// This is the legacy miscompilation, kept verbatim so the refinement
/// checker can pin it: `%f = freeze i1 %c; %t = or i1 %f, 1;
/// assume i1 %t` is UB-free for every input (`or` of a *concrete* bit
/// with `1` is `1`), but after forwarding, `%t = or i1 %c, 1` is poison
/// when `%c` is, and the guard turns that into immediate UB.
fn forward_fact_freezes(func: &mut Function) -> bool {
    // Users of each placed instruction, and whether a terminator uses
    // it (terminator uses are never fact-only).
    let mut users: HashMap<InstId, Vec<InstId>> = HashMap::new();
    let mut term_used: Vec<InstId> = Vec::new();
    for bb in func.block_ids() {
        for &id in &func.block(bb).insts {
            for v in func.inst(id).operands() {
                if let Value::Inst(op) = v {
                    users.entry(op).or_default().push(id);
                }
            }
        }
        func.block(bb).term.for_each_operand(|v| {
            if let Value::Inst(op) = v {
                term_used.push(*op);
            }
        });
    }

    let only_feeds_facts = |id: InstId| -> bool {
        if term_used.contains(&id) {
            return false;
        }
        let Some(us) = users.get(&id) else {
            return false; // dead; plain DCE's job
        };
        us.iter().all(|&u| match func.inst(u) {
            Inst::Assume { .. } => true,
            inst => {
                !inst.has_side_effects()
                    && !term_used.contains(&u)
                    && users.get(&u).is_some_and(|uu| {
                        uu.iter()
                            .all(|&g| matches!(func.inst(g), Inst::Assume { .. }))
                    })
            }
        })
    };

    let mut forward: Vec<(InstId, Value)> = Vec::new();
    for bb in func.block_ids() {
        for &id in &func.block(bb).insts {
            if let Inst::Freeze { val, .. } = func.inst(id) {
                if only_feeds_facts(id) {
                    forward.push((id, val.clone()));
                }
            }
        }
    }
    let changed = !forward.is_empty();
    for (id, val) in forward {
        func.replace_all_uses(id, &val);
        erase_inst(func, id);
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use frost_core::Semantics;
    use frost_ir::{function_to_string, parse_module, Module};
    use frost_refine::{check_refinement, CheckOptions};

    fn run(src: &str, pass: &dyn Pass) -> (Module, Module) {
        let before = parse_module(src).unwrap();
        let mut after = before.clone();
        for f in &mut after.functions {
            pass.apply(f);
            f.compact();
        }
        (before, after)
    }

    fn refines(before: &Module, after: &Module) {
        check_refinement(
            before,
            "f",
            after,
            "f",
            &CheckOptions::new(Semantics::proposed()),
        )
        .assert_refines();
    }

    #[test]
    fn fixed_assume_propagates_dominated_equalities() {
        let (before, after) = run(
            r#"
define i4 @f(i4 %x) {
entry:
  %c = icmp eq i4 %x, 1
  assume i1 %c
  %r = add i4 %x, 3
  ret i4 %r
}
"#,
            &AssumeSimplify::new(PipelineMode::Fixed),
        );
        let text = function_to_string(after.function("f").unwrap());
        assert!(text.contains("add i4 1, 3"), "{text}");
        refines(&before, &after);
    }

    #[test]
    fn fixed_assume_strengthens_known_bits() {
        let (before, after) = run(
            r#"
define i4 @f(i4 %x) {
entry:
  %c = icmp ult i4 %x, 2
  assume i1 %c
  %m = and i4 %x, 1
  ret i4 %m
}
"#,
            &AssumeSimplify::new(PipelineMode::Fixed),
        );
        let text = function_to_string(after.function("f").unwrap());
        assert!(text.contains("ret i4 %x"), "{text}");
        refines(&before, &after);
    }

    /// The §3.3-style region discipline, for guards: the fact from
    /// `assume (icmp eq %x, 1)` holds only *past the guard*. The exit
    /// block is reachable without executing the guard, so its uses of
    /// `%x` must not be rewritten.
    const BRANCHY_GUARD: &str = r#"
define i4 @f(i1 %p, i4 %x) {
entry:
  br i1 %p, label %guarded, label %exit
guarded:
  %c = icmp eq i4 %x, 1
  assume i1 %c
  br label %exit
exit:
  %r = add i4 %x, 3
  ret i4 %r
}
"#;

    #[test]
    fn legacy_assume_is_dominance_blind_and_miscompiles() {
        let (before, after) = run(BRANCHY_GUARD, &AssumeSimplify::new(PipelineMode::Legacy));
        let text = function_to_string(after.function("f").unwrap());
        assert!(
            text.contains("add i4 1, 3"),
            "legacy applies the fact outside the guarded region: {text}"
        );
        let r = check_refinement(
            &before,
            "f",
            &after,
            "f",
            &CheckOptions::new(Semantics::proposed()),
        );
        assert!(
            r.counterexample().is_some(),
            "p=false, x=0: source returns 3, target returns 4"
        );
    }

    #[test]
    fn fixed_assume_respects_the_guarded_region() {
        let (before, after) = run(BRANCHY_GUARD, &AssumeSimplify::new(PipelineMode::Fixed));
        let text = function_to_string(after.function("f").unwrap());
        assert!(
            text.contains("add i4 %x, 3"),
            "the exit block is not dominated by the guard: {text}"
        );
        refines(&before, &after);
    }

    #[test]
    fn assume_free_functions_build_no_dominator_tree() {
        // Only a guard site needs the tree; a function without one
        // leaves the analysis cache untouched.
        let cached_dom_tree = |src: &str| {
            let mut m = parse_module(src).unwrap();
            let mut fam = FunctionAnalysisManager::new();
            let pass = AssumeSimplify::new(PipelineMode::Fixed);
            pass.run_on_function(&mut m.functions[0], &mut fam);
            fam.cached::<DomTreeAnalysis>().is_some()
        };
        assert!(!cached_dom_tree(
            "define i4 @f(i4 %x) {\nentry:\n  %r = add i4 %x, 3\n  ret i4 %r\n}"
        ));
        assert!(cached_dom_tree(BRANCHY_GUARD));
    }

    #[test]
    fn guard_dce_folds_assume_false_to_unreachable() {
        let (before, after) = run(
            r#"
define i4 @f(i4 %x) {
entry:
  %r = add i4 %x, 1
  assume i1 0
  %s = add i4 %r, 1
  ret i4 %s
}
"#,
            &GuardDce::new(PipelineMode::Fixed),
        );
        let f = after.function("f").unwrap();
        assert_eq!(f.placed_inst_count(), 0, "{}", function_to_string(f));
        assert!(matches!(
            f.block(frost_ir::BlockId::ENTRY).term,
            Terminator::Unreachable
        ));
        refines(&before, &after);
    }

    #[test]
    fn guard_dce_deletes_assume_true() {
        let (before, after) = run(
            r#"
define i4 @f(i4 %x) {
entry:
  assume i1 1
  %r = add i4 %x, 1
  ret i4 %r
}
"#,
            &GuardDce::new(PipelineMode::Fixed),
        );
        let f = after.function("f").unwrap();
        assert_eq!(f.placed_inst_count(), 1, "{}", function_to_string(f));
        refines(&before, &after);
    }

    #[test]
    fn guard_dce_leaves_assume_undef_alone() {
        // undef may choose true, so the source is not necessarily UB —
        // folding to unreachable would manufacture UB on a defined
        // execution.
        let (_, after) = run(
            "define i4 @f() {\nentry:\n  assume i1 undef\n  ret i4 3\n}",
            &GuardDce::new(PipelineMode::Fixed),
        );
        let f = after.function("f").unwrap();
        assert_eq!(f.placed_inst_count(), 1, "{}", function_to_string(f));
    }

    #[test]
    fn guard_dce_deletes_unreachable_guarded_stores() {
        let (before, after) = run(
            r#"
define i4 @f(i1 %c, i4* %p) {
entry:
  br i1 %c, label %doomed, label %ok
doomed:
  store i4 7, i4* %p
  unreachable
ok:
  ret i4 3
}
"#,
            &GuardDce::new(PipelineMode::Fixed),
        );
        let f = after.function("f").unwrap();
        assert_eq!(
            f.placed_inst_count(),
            0,
            "even the store goes — every execution reaching it is doomed: {}",
            function_to_string(f)
        );
        refines(&before, &after);
    }

    /// The freeze here is load-bearing: `or` of a *concrete* bit with
    /// `1` is `1`, so the source passes the guard on every input,
    /// poison included. Forwarding the freeze rebuilds the fact from
    /// the raw value — `or poison, 1` is poison — and the guard turns
    /// that into immediate UB on an execution the source defined.
    const LAUNDERED_FACT: &str = r#"
define i4 @f(i1 %c) {
entry:
  %f = freeze i1 %c
  %t = or i1 %f, 1
  assume i1 %t
  ret i4 1
}
"#;

    #[test]
    fn legacy_guard_dce_unlaunders_facts_and_miscompiles() {
        let (before, after) = run(LAUNDERED_FACT, &GuardDce::new(PipelineMode::Legacy));
        let text = function_to_string(after.function("f").unwrap());
        assert!(
            text.contains("or i1 %c, 1"),
            "legacy forwards the fact-only freeze: {text}"
        );
        let r = check_refinement(
            &before,
            "f",
            &after,
            "f",
            &CheckOptions::new(Semantics::proposed()),
        );
        assert!(
            r.counterexample().is_some(),
            "c=poison: source returns 1, target is UB"
        );
    }

    #[test]
    fn fixed_guard_dce_keeps_laundering_freezes() {
        let (before, after) = run(LAUNDERED_FACT, &GuardDce::new(PipelineMode::Fixed));
        assert_eq!(after.function("f").unwrap().placed_inst_count(), 3);
        refines(&before, &after);
    }
}
