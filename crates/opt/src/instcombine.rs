//! InstCombine: the peephole optimizer.
//!
//! Two rule sets coexist, selected by [`PipelineMode`]:
//!
//! * the **legacy** set reproduces the unsound select rules of §3.4 —
//!   `select %c, true, %x → or %c, %x` (wrong when the not-chosen arm is
//!   poison) and `select %c, %x, undef → %x` (wrong because poison is
//!   stronger than undef);
//! * the **fixed** set repairs them with `freeze` and adds the §6 freeze
//!   cleanups (`freeze(freeze x) → freeze x`, `freeze(const) → const`,
//!   `freeze x → x` when `x` is provably non-poison).
//!
//! Every fixed-mode rule is validated against the exhaustive refinement
//! checker in this crate's test suite and by `frost-fuzz`.

use frost_core::ops::{eval_binop, eval_cast, ScalarResult};
use frost_ir::value::truncate;
use frost_ir::{
    BinOp, CastKind, Cond, Constant, Flags, Function, FunctionAnalysisManager, Inst, InstId,
    PreservedAnalyses, Ty, Value,
};

use crate::pass::{Pass, PipelineMode};
use crate::util::{erase_inst, guaranteed_not_poison};

/// The peephole-optimization pass.
#[derive(Debug)]
pub struct InstCombine {
    mode: PipelineMode,
}

impl InstCombine {
    /// Creates the pass in the given mode.
    pub fn new(mode: PipelineMode) -> InstCombine {
        InstCombine { mode }
    }
}

impl Pass for InstCombine {
    fn name(&self) -> &'static str {
        "instcombine"
    }

    fn run_on_function(
        &self,
        func: &mut Function,
        _fam: &mut FunctionAnalysisManager,
    ) -> PreservedAnalyses {
        let mut changed = false;
        // Bounded fixpoint: each round scans all placed instructions.
        for _ in 0..8 {
            let mut round_changed = false;
            let placed: Vec<InstId> = func
                .blocks
                .iter()
                .flat_map(|b| b.insts.iter().copied())
                .collect();
            for id in placed {
                // The instruction may have been erased by an earlier
                // rewrite this round.
                if !func.blocks.iter().any(|b| b.insts.contains(&id)) {
                    continue;
                }
                if let Some(action) = simplify(func, id, self.mode) {
                    apply(func, id, action);
                    round_changed = true;
                }
            }
            changed |= round_changed;
            if !round_changed {
                break;
            }
        }
        if changed {
            // Instruction-level rewrites only; the block graph is
            // untouched.
            PreservedAnalyses::cfg()
        } else {
            PreservedAnalyses::all()
        }
    }
}

/// A deferred rewrite that may reference freshly inserted instructions
/// through the placeholder ids it is handed.
type RewriteWithIds = Box<dyn FnOnce(&[InstId]) -> Inst>;

/// The outcome of matching one instruction.
enum Action {
    /// Replace all uses of the instruction with a value and erase it.
    Replace(Value),
    /// Rewrite the instruction in place.
    Rewrite(Inst),
    /// Insert the given new instructions immediately before this one
    /// (they receive fresh ids in order) and then rewrite this one; the
    /// rewrite may reference the fresh instructions through the
    /// placeholder ids returned by the closure.
    ExpandAndRewrite(Vec<Inst>, RewriteWithIds),
}

fn apply(func: &mut Function, id: InstId, action: Action) {
    match action {
        Action::Replace(v) => {
            func.replace_all_uses(id, &v);
            erase_inst(func, id);
        }
        Action::Rewrite(inst) => {
            *func.inst_mut(id) = inst;
        }
        Action::ExpandAndRewrite(new_insts, build) => {
            let bb = func.block_of(id).expect("instruction is placed");
            let pos = func
                .block(bb)
                .insts
                .iter()
                .position(|&i| i == id)
                .expect("instruction is in its block");
            let mut ids = Vec::with_capacity(new_insts.len());
            for (k, inst) in new_insts.into_iter().enumerate() {
                let new_id = func.add_inst(inst);
                func.block_mut(bb).insts.insert(pos + k, new_id);
                ids.push(new_id);
            }
            *func.inst_mut(id) = build(&ids);
        }
    }
}

fn int_const(v: &Value) -> Option<(u32, u128)> {
    match v.as_const() {
        Some(Constant::Int { bits, value }) => Some((*bits, *value)),
        _ => None,
    }
}

fn is_poison_const(v: &Value) -> bool {
    v.as_const().is_some_and(Constant::contains_poison)
}

fn is_undef_const(v: &Value) -> bool {
    v.as_const().is_some_and(Constant::contains_undef)
}

fn simplify(func: &Function, id: InstId, mode: PipelineMode) -> Option<Action> {
    let inst = func.inst(id).clone();
    match &inst {
        Inst::Bin {
            op,
            flags,
            ty,
            lhs,
            rhs,
        } => simplify_bin(func, *op, *flags, ty, lhs, rhs, mode),
        Inst::Icmp { cond, ty, lhs, rhs } => simplify_icmp(func, *cond, ty, lhs, rhs),
        Inst::Select {
            cond,
            ty,
            tval,
            fval,
        } => simplify_select(func, cond, ty, tval, fval, mode),
        Inst::Freeze { ty, val } => simplify_freeze(func, ty, val, mode),
        Inst::Cast {
            kind,
            from_ty,
            to_ty,
            val,
        } => simplify_cast(func, *kind, from_ty, to_ty, val),
        Inst::Bitcast {
            from_ty,
            to_ty,
            val,
        } => {
            if from_ty == to_ty {
                return Some(Action::Replace(val.clone()));
            }
            None
        }
        _ => None,
    }
}

fn simplify_bin(
    func: &Function,
    op: BinOp,
    flags: Flags,
    ty: &Ty,
    lhs: &Value,
    rhs: &Value,
    mode: PipelineMode,
) -> Option<Action> {
    let bits = ty.int_bits()?; // scalar rules only; vector rules below could be added
    let all_ones = truncate(u128::MAX, bits);

    // Canonicalize: constant to the right for commutative ops.
    if op.is_commutative() && int_const(lhs).is_some() && int_const(rhs).is_none() {
        return Some(Action::Rewrite(Inst::Bin {
            op,
            flags,
            ty: ty.clone(),
            lhs: rhs.clone(),
            rhs: lhs.clone(),
        }));
    }

    // Constant folding (fully defined operands; never folds away
    // immediate UB).
    if let (Some((_, a)), Some((_, b))) = (int_const(lhs), int_const(rhs)) {
        match eval_binop(op, flags, bits, a, b) {
            ScalarResult::Val(v) => return Some(Action::Replace(Value::int(bits, v))),
            ScalarResult::Poison => {
                return Some(Action::Replace(Value::poison(ty.clone())));
            }
            ScalarResult::Ub => return None, // preserve the trap
        }
    }

    // Poison propagation at compile time: `op x, poison -> poison`
    // (except division, where a poison divisor is UB, preserved).
    if !op.may_have_immediate_ub() && (is_poison_const(lhs) || is_poison_const(rhs)) {
        return Some(Action::Replace(Value::poison(ty.clone())));
    }

    let rhs_c = int_const(rhs).map(|(_, v)| v);
    match (op, rhs_c) {
        // Identities.
        (BinOp::Add, Some(0))
        | (BinOp::Sub, Some(0))
        | (BinOp::Or, Some(0))
        | (BinOp::Xor, Some(0)) => return Some(Action::Replace(lhs.clone())),
        (BinOp::Mul, Some(1)) | (BinOp::UDiv, Some(1)) | (BinOp::SDiv, Some(1)) => {
            return Some(Action::Replace(lhs.clone()))
        }
        (BinOp::Shl | BinOp::LShr | BinOp::AShr, Some(0)) => {
            return Some(Action::Replace(lhs.clone()))
        }
        (BinOp::And, Some(c)) if c == all_ones => return Some(Action::Replace(lhs.clone())),
        // Annihilators. Replacing a possibly-poison expression with a
        // constant is a refinement (the constant refines poison).
        (BinOp::And, Some(0)) | (BinOp::Mul, Some(0)) => {
            return Some(Action::Replace(Value::int(bits, 0)))
        }
        (BinOp::Or, Some(c)) if c == all_ones => {
            return Some(Action::Replace(Value::int(bits, all_ones)))
        }
        (BinOp::URem, Some(1)) => return Some(Action::Replace(Value::int(bits, 0))),
        // §3.1: x * 2 -> x + x. Sound under the proposed semantics
        // (poison in = poison out on both sides); UNSOUND under legacy
        // undef, where each use of x may differ — kept in both modes
        // precisely because the paper's point is that the *semantics*,
        // not the rule, was at fault. The refinement checker flags it
        // under legacy and passes it under proposed.
        (BinOp::Mul, Some(2)) => {
            return Some(Action::Rewrite(Inst::Bin {
                op: BinOp::Add,
                flags: Flags::NONE,
                ty: ty.clone(),
                lhs: lhs.clone(),
                rhs: lhs.clone(),
            }));
        }
        // §3.4: udiv %a, C -> "icmp ult %a, C ? 0 : 1" for C with the
        // top bit set (any a / C is 0 or 1).
        (BinOp::UDiv, Some(c)) if c >> (bits - 1) == 1 && !flags.exact => {
            let lhs = lhs.clone();
            let ty2 = ty.clone();
            let bits2 = bits;
            return Some(Action::ExpandAndRewrite(
                vec![Inst::Icmp {
                    cond: Cond::Ult,
                    ty: ty.clone(),
                    lhs,
                    rhs: Value::int(bits, c),
                }],
                Box::new(move |ids| Inst::Select {
                    cond: Value::Inst(ids[0]),
                    ty: ty2,
                    tval: Value::int(bits2, 0),
                    fval: Value::int(bits2, 1),
                }),
            ));
        }
        _ => {}
    }

    // x - x -> 0, x ^ x -> 0 (sound: 0 refines poison and any
    // undef-resolution superset includes 0).
    if lhs == rhs {
        match op {
            BinOp::Sub | BinOp::Xor => return Some(Action::Replace(Value::int(bits, 0))),
            BinOp::And | BinOp::Or => return Some(Action::Replace(lhs.clone())),
            _ => {}
        }
    }

    let _ = (mode, func);
    None
}

fn simplify_icmp(func: &Function, cond: Cond, ty: &Ty, lhs: &Value, rhs: &Value) -> Option<Action> {
    let bits = ty.int_bits()?;
    // Constant fold.
    if let (Some((_, a)), Some((_, b))) = (int_const(lhs), int_const(rhs)) {
        return Some(Action::Replace(Value::bool(cond.eval(bits, a, b))));
    }
    if is_poison_const(lhs) || is_poison_const(rhs) {
        return Some(Action::Replace(Value::poison(Ty::i1())));
    }
    // x == x -> true etc. (replacing possibly-poison by a constant is a
    // refinement).
    if lhs == rhs {
        let v = match cond {
            Cond::Eq | Cond::Uge | Cond::Ule | Cond::Sge | Cond::Sle => true,
            Cond::Ne | Cond::Ugt | Cond::Ult | Cond::Sgt | Cond::Slt => false,
        };
        return Some(Action::Replace(Value::bool(v)));
    }
    // Range tautologies with a constant RHS.
    if let Some((_, c)) = int_const(rhs) {
        let umax = truncate(u128::MAX, bits);
        let smax = (1u128 << (bits - 1)) - 1;
        let smin = 1u128 << (bits - 1);
        let fold = match (cond, c) {
            (Cond::Ult, 0) => Some(false),
            (Cond::Uge, 0) => Some(true),
            (Cond::Ugt, c2) if c2 == umax => Some(false),
            (Cond::Ule, c2) if c2 == umax => Some(true),
            (Cond::Sgt, c2) if c2 == smax => Some(false),
            (Cond::Sle, c2) if c2 == smax => Some(true),
            (Cond::Slt, c2) if c2 == smin => Some(false),
            (Cond::Sge, c2) if c2 == smin => Some(true),
            _ => None,
        };
        if let Some(v) = fold {
            return Some(Action::Replace(Value::bool(v)));
        }
    }
    // §2.3: icmp sgt (add nsw %a, %b), %a -> icmp sgt %b, 0 (and the
    // slt/sge/sle variants). Justified by nsw-overflow-is-poison.
    if let Value::Inst(add_id) = lhs {
        if let Inst::Bin {
            op: BinOp::Add,
            flags,
            lhs: a,
            rhs: b,
            ..
        } = func.inst(*add_id)
        {
            if flags.nsw && matches!(cond, Cond::Sgt | Cond::Sge | Cond::Slt | Cond::Sle) {
                let other = if a == rhs {
                    Some(b.clone())
                } else if b == rhs {
                    Some(a.clone())
                } else {
                    None
                };
                if let Some(bv) = other {
                    return Some(Action::Rewrite(Inst::Icmp {
                        cond,
                        ty: ty.clone(),
                        lhs: bv,
                        rhs: Value::int(bits, 0),
                    }));
                }
            }
        }
    }
    None
}

fn simplify_select(
    func: &Function,
    cond: &Value,
    ty: &Ty,
    tval: &Value,
    fval: &Value,
    mode: PipelineMode,
) -> Option<Action> {
    // select c, x, x -> x.
    if tval == fval {
        return Some(Action::Replace(tval.clone()));
    }
    // select true/false, a, b -> a/b. (Folding on a *constant* condition
    // is sound in every mode: the condition is not poison.)
    if let Some((_, c)) = int_const(cond) {
        return Some(Action::Replace(if c == 1 {
            tval.clone()
        } else {
            fval.clone()
        }));
    }
    if is_poison_const(cond) {
        return Some(Action::Replace(Value::poison(ty.clone())));
    }

    let is_true = |v: &Value| v.is_int_const(1) && *ty == Ty::i1();
    let is_false = |v: &Value| v.is_int_const(0) && *ty == Ty::i1();

    match mode {
        PipelineMode::Legacy => {
            // §3.4 (unsound): select %c, true, %x -> or %c, %x.
            if is_true(tval) {
                return Some(Action::Rewrite(Inst::Bin {
                    op: BinOp::Or,
                    flags: Flags::NONE,
                    ty: Ty::i1(),
                    lhs: cond.clone(),
                    rhs: fval.clone(),
                }));
            }
            // §3.4 (unsound): select %c, %x, false -> and %c, %x.
            if is_false(fval) {
                return Some(Action::Rewrite(Inst::Bin {
                    op: BinOp::And,
                    flags: Flags::NONE,
                    ty: Ty::i1(),
                    lhs: cond.clone(),
                    rhs: tval.clone(),
                }));
            }
            // §3.4 (unsound even in legacy): select %c, %x, undef -> %x.
            // Poison is stronger than undef, so this can strengthen the
            // result. LLVM performed it; we reproduce it.
            if is_undef_const(fval) {
                return Some(Action::Replace(tval.clone()));
            }
            if is_undef_const(tval) {
                return Some(Action::Replace(fval.clone()));
            }
        }
        PipelineMode::Fixed | PipelineMode::FixedFreezeBlind => {
            // Fixed variants: freeze the arm that may leak poison into
            // the arithmetic form (§6 "a safe version requires
            // freezing").
            if is_true(tval) {
                let fv = fval.clone();
                let cv = cond.clone();
                if guaranteed_not_poison(func, &fv, 8) {
                    return Some(Action::Rewrite(Inst::Bin {
                        op: BinOp::Or,
                        flags: Flags::NONE,
                        ty: Ty::i1(),
                        lhs: cv,
                        rhs: fv,
                    }));
                }
                return Some(Action::ExpandAndRewrite(
                    vec![Inst::Freeze {
                        ty: Ty::i1(),
                        val: fv,
                    }],
                    Box::new(move |ids| Inst::Bin {
                        op: BinOp::Or,
                        flags: Flags::NONE,
                        ty: Ty::i1(),
                        lhs: cv,
                        rhs: Value::Inst(ids[0]),
                    }),
                ));
            }
            if is_false(fval) {
                let tv = tval.clone();
                let cv = cond.clone();
                if guaranteed_not_poison(func, &tv, 8) {
                    return Some(Action::Rewrite(Inst::Bin {
                        op: BinOp::And,
                        flags: Flags::NONE,
                        ty: Ty::i1(),
                        lhs: cv,
                        rhs: tv,
                    }));
                }
                return Some(Action::ExpandAndRewrite(
                    vec![Inst::Freeze {
                        ty: Ty::i1(),
                        val: tv,
                    }],
                    Box::new(move |ids| Inst::Bin {
                        op: BinOp::And,
                        flags: Flags::NONE,
                        ty: Ty::i1(),
                        lhs: cv,
                        rhs: Value::Inst(ids[0]),
                    }),
                ));
            }
        }
    }
    None
}

fn simplify_freeze(func: &Function, ty: &Ty, val: &Value, mode: PipelineMode) -> Option<Action> {
    if !mode.freeze_aware() {
        // Legacy has no freeze; freeze-blind mode conservatively leaves
        // them alone (§7.2's performance-regression mechanism).
        return None;
    }
    // freeze(defined const) -> const.
    if let Some(c) = val.as_const() {
        if !c.contains_poison() && !c.contains_undef() {
            return Some(Action::Replace(val.clone()));
        }
    }
    // freeze(freeze x) -> freeze x.
    if let Value::Inst(inner) = val {
        if func.inst(*inner).is_freeze() {
            return Some(Action::Replace(val.clone()));
        }
    }
    // freeze(x) -> x when x can't be poison.
    if guaranteed_not_poison(func, val, 8) {
        return Some(Action::Replace(val.clone()));
    }
    let _ = ty;
    None
}

fn simplify_cast(
    func: &Function,
    kind: CastKind,
    from_ty: &Ty,
    to_ty: &Ty,
    val: &Value,
) -> Option<Action> {
    let from_bits = from_ty.int_bits()?;
    let to_bits = to_ty.int_bits()?;
    if let Some((_, v)) = int_const(val) {
        return Some(Action::Replace(Value::int(
            to_bits,
            eval_cast(kind, from_bits, to_bits, v),
        )));
    }
    if is_poison_const(val) {
        return Some(Action::Replace(Value::poison(to_ty.clone())));
    }
    // trunc(zext x to W) to w -> x when widths round-trip.
    if kind == CastKind::Trunc {
        if let Value::Inst(inner) = val {
            if let Inst::Cast {
                kind: CastKind::Zext | CastKind::Sext,
                from_ty: f2,
                val: v2,
                ..
            } = func.inst(*inner)
            {
                if f2 == to_ty {
                    return Some(Action::Replace(v2.clone()));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use frost_core::Semantics;
    use frost_ir::{function_to_string, parse_module, Module};
    use frost_refine::{check_refinement, CheckOptions};

    fn combine(src: &str, mode: PipelineMode) -> (Module, Module) {
        let before = parse_module(src).expect("parses");
        let mut after = before.clone();
        let pass = InstCombine::new(mode);
        for f in &mut after.functions {
            pass.apply(f);
            crate::dce::Dce::new().apply(f);
            f.compact();
        }
        (before, after)
    }

    /// Runs InstCombine and checks the result refines the input under
    /// the matching semantics.
    fn combine_checked(src: &str, mode: PipelineMode, sem: Semantics) -> Module {
        let (before, after) = combine(src, mode);
        check_refinement(&before, "f", &after, "f", &CheckOptions::new(sem)).assert_refines();
        after
    }

    #[test]
    fn folds_constants() {
        let after = combine_checked(
            "define i4 @f() {\nentry:\n  %a = add i4 3, 4\n  ret i4 %a\n}",
            PipelineMode::Fixed,
            Semantics::proposed(),
        );
        let text = function_to_string(after.function("f").unwrap());
        assert!(text.contains("ret i4 7"), "{text}");
    }

    #[test]
    fn does_not_fold_division_by_zero() {
        let (_, after) = combine(
            "define i4 @f() {\nentry:\n  %a = udiv i4 3, 0\n  ret i4 %a\n}",
            PipelineMode::Fixed,
        );
        let text = function_to_string(after.function("f").unwrap());
        assert!(text.contains("udiv"), "the trap must be preserved: {text}");
    }

    #[test]
    fn identities_and_annihilators() {
        let after = combine_checked(
            r#"
define i4 @f(i4 %x) {
entry:
  %a = add i4 %x, 0
  %b = mul i4 %a, 1
  %c = or i4 %b, 0
  %d = and i4 %c, 15
  %e = xor i4 %d, 0
  ret i4 %e
}
"#,
            PipelineMode::Fixed,
            Semantics::proposed(),
        );
        assert_eq!(after.function("f").unwrap().placed_inst_count(), 0);
    }

    #[test]
    fn mul_two_becomes_add_and_is_sound_under_proposed() {
        let after = combine_checked(
            "define i4 @f(i4 %x) {\nentry:\n  %y = mul i4 %x, 2\n  ret i4 %y\n}",
            PipelineMode::Fixed,
            Semantics::proposed(),
        );
        let text = function_to_string(after.function("f").unwrap());
        assert!(text.contains("add i4 %x, %x"), "{text}");
    }

    #[test]
    fn mul_two_rule_is_unsound_under_legacy_undef() {
        // §3.1 reproduced mechanically: the same rewrite fails refinement
        // when the multiplicand is undef.
        let (before, after) = combine(
            "define i4 @f() {\nentry:\n  %y = mul i4 undef, 2\n  ret i4 %y\n}",
            PipelineMode::Legacy,
        );
        let r = check_refinement(
            &before,
            "f",
            &after,
            "f",
            &CheckOptions::new(Semantics::legacy_gvn()),
        );
        assert!(
            r.counterexample().is_some(),
            "mul undef, 2 -> add undef, undef must fail under legacy undef"
        );
    }

    #[test]
    fn select_to_or_uses_freeze_in_fixed_mode() {
        let after = combine_checked(
            "define i1 @f(i1 %c, i1 %x) {\nentry:\n  %r = select i1 %c, i1 true, i1 %x\n  ret i1 %r\n}",
            PipelineMode::Fixed,
            Semantics::proposed(),
        );
        let text = function_to_string(after.function("f").unwrap());
        assert!(
            text.contains("freeze"),
            "fixed mode freezes the arm: {text}"
        );
        assert!(text.contains("or i1 %c"), "{text}");
    }

    #[test]
    fn legacy_select_to_or_is_unsound_under_proposed() {
        // The §3.4 rule without freeze leaks poison through the
        // not-taken arm.
        let src = "define i1 @f(i1 %c, i1 %x) {\nentry:\n  %r = select i1 %c, i1 true, i1 %x\n  ret i1 %r\n}";
        let (before, after) = combine(src, PipelineMode::Legacy);
        let text = function_to_string(after.function("f").unwrap());
        assert!(text.contains("or i1 %c, %x"), "{text}");
        let r = check_refinement(
            &before,
            "f",
            &after,
            "f",
            &CheckOptions::new(Semantics::proposed()),
        );
        let ce = r
            .counterexample()
            .expect("select->or without freeze is unsound");
        // Witness: c = true, x = poison.
        assert!(ce.args.contains(&frost_core::Val::Poison));
    }

    #[test]
    fn select_x_undef_rule_is_unsound_even_in_legacy() {
        // §3.4's last example: select %c, %x, undef -> %x is wrong
        // because %x may be poison (poison is stronger than undef).
        // The defect needs the phi-like select reading (chosen arm
        // only), i.e. the legacy-unswitch interpretation: with c = false
        // the source yields undef while the target yields %p, which may
        // be poison — and poison does not refine undef.
        let src = "define i1 @f(i1 %c, i4 %a) {\nentry:\n  %x = add nsw i4 %a, 1\n  %p = icmp sgt i4 %x, 0\n  %r = select i1 %c, i1 %p, i1 undef\n  ret i1 %r\n}";
        let (before, after) = combine(src, PipelineMode::Legacy);
        let r = check_refinement(
            &before,
            "f",
            &after,
            "f",
            &CheckOptions::new(Semantics::legacy_unswitch()),
        );
        assert!(r.counterexample().is_some(), "PR31633 reproduced");
    }

    #[test]
    fn freeze_folds_in_fixed_mode() {
        let after = combine_checked(
            r#"
define i4 @f(i4 %x) {
entry:
  %a = freeze i4 7
  %b = freeze i4 %x
  %c = freeze i4 %b
  %d = add i4 %a, %c
  ret i4 %d
}
"#,
            PipelineMode::Fixed,
            Semantics::proposed(),
        );
        let text = function_to_string(after.function("f").unwrap());
        // freeze(7) folded; freeze(freeze x) collapsed to one freeze.
        assert_eq!(text.matches("freeze").count(), 1, "{text}");
    }

    #[test]
    fn freeze_left_alone_in_freeze_blind_mode() {
        let (_, after) = combine(
            "define i4 @f() {\nentry:\n  %a = freeze i4 7\n  ret i4 %a\n}",
            PipelineMode::FixedFreezeBlind,
        );
        let text = function_to_string(after.function("f").unwrap());
        assert!(
            text.contains("freeze"),
            "freeze-blind mode does not fold: {text}"
        );
    }

    #[test]
    fn nsw_comparison_fold() {
        // §2.3: (a + b > a) with nsw -> b > 0.
        let after = combine_checked(
            "define i1 @f(i4 %a, i4 %b) {\nentry:\n  %add = add nsw i4 %a, %b\n  %cmp = icmp sgt i4 %add, %a\n  ret i1 %cmp\n}",
            PipelineMode::Fixed,
            Semantics::proposed(),
        );
        let text = function_to_string(after.function("f").unwrap());
        assert!(text.contains("icmp sgt i4 %b, 0"), "{text}");
    }

    #[test]
    fn udiv_by_big_constant_becomes_select() {
        let after = combine_checked(
            "define i4 @f(i4 %a) {\nentry:\n  %r = udiv i4 %a, 12\n  ret i4 %r\n}",
            PipelineMode::Fixed,
            Semantics::proposed(),
        );
        let text = function_to_string(after.function("f").unwrap());
        assert!(text.contains("icmp ult i4 %a, 12"), "{text}");
        assert!(text.contains("select"), "{text}");
        assert!(!text.contains("udiv"), "{text}");
    }

    #[test]
    fn icmp_tautologies() {
        let after = combine_checked(
            r#"
define i1 @f(i4 %x) {
entry:
  %a = icmp ult i4 %x, 0
  %b = icmp eq i4 %x, %x
  %c = and i1 %a, %b
  ret i1 %c
}
"#,
            PipelineMode::Fixed,
            Semantics::proposed(),
        );
        let text = function_to_string(after.function("f").unwrap());
        assert!(text.contains("ret i1 0"), "{text}");
    }

    #[test]
    fn trunc_of_zext_round_trip() {
        let after = combine_checked(
            "define i4 @f(i4 %x) {\nentry:\n  %a = zext i4 %x to i8\n  %b = trunc i8 %a to i4\n  ret i4 %b\n}",
            PipelineMode::Fixed,
            Semantics::proposed(),
        );
        assert_eq!(after.function("f").unwrap().placed_inst_count(), 0);
    }

    #[test]
    fn poison_constant_propagation() {
        let after = combine_checked(
            "define i4 @f(i4 %x) {\nentry:\n  %a = add i4 %x, poison\n  ret i4 %a\n}",
            PipelineMode::Fixed,
            Semantics::proposed(),
        );
        let text = function_to_string(after.function("f").unwrap());
        assert!(text.contains("ret i4 poison"), "{text}");
    }

    #[test]
    fn every_fixed_rule_refines_on_i2_samples() {
        // A grab-bag of patterns, each checked exhaustively at i2.
        let cases = [
            "define i2 @f(i2 %x) {\nentry:\n  %a = sub i2 %x, %x\n  ret i2 %a\n}",
            "define i2 @f(i2 %x) {\nentry:\n  %a = xor i2 %x, %x\n  ret i2 %a\n}",
            "define i2 @f(i2 %x) {\nentry:\n  %a = and i2 %x, %x\n  ret i2 %a\n}",
            "define i2 @f(i2 %x) {\nentry:\n  %a = or i2 %x, 3\n  ret i2 %a\n}",
            "define i2 @f(i2 %x) {\nentry:\n  %a = udiv i2 %x, 2\n  ret i2 %a\n}",
            "define i2 @f(i2 %x) {\nentry:\n  %a = mul i2 %x, 2\n  ret i2 %a\n}",
            "define i1 @f(i2 %x) {\nentry:\n  %a = icmp ne i2 %x, %x\n  ret i1 %a\n}",
            "define i2 @f(i2 %x, i1 %c) {\nentry:\n  %a = select i1 %c, i2 %x, i2 %x\n  ret i2 %a\n}",
            "define i2 @f(i2 %x) {\nentry:\n  %a = freeze i2 %x\n  %b = freeze i2 %a\n  ret i2 %b\n}",
        ];
        for src in cases {
            combine_checked(src, PipelineMode::Fixed, Semantics::proposed());
        }
    }
}
