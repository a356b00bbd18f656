//! The refinement order on values, bits, events, and outcomes.
//!
//! Refinement (written `t ⊑ s`, "t refines s") is the correctness
//! criterion for transformations: every behavior of the target must be
//! allowed by the source. Deferred UB values sit at the top:
//!
//! * anything refines `poison`;
//! * any *defined* value (or `undef`) refines `undef` — but `poison`
//!   does **not** (poison is strictly stronger than undef, §3.4's
//!   `select %c, %x, undef` bug is exactly a violation of this);
//! * a defined value refines only itself.
//!
//! [`lanes_unjustified`] decides [`set_refines`] for every lane of two
//! bit-sliced batches at once, with word operations on their lane masks.

use frost_core::{Bit, Code, Lanes, Outcome, OutcomeSet, Val};

/// Returns `true` if value `tgt` refines value `src`.
pub fn val_refines(tgt: &Val, src: &Val) -> bool {
    match (tgt, src) {
        (_, Val::Poison) => true,
        (Val::Poison, _) => false,
        // undef admits any defined value *of the same type* and undef
        // itself.
        (Val::Undef(a), Val::Undef(b)) => a == b,
        (t, Val::Undef(ty)) => t.is_defined() && inhabits(t, ty),
        (Val::Undef(_), _) => false,
        (Val::Vec(t), Val::Vec(s)) => {
            t.len() == s.len() && t.iter().zip(s).all(|(a, b)| val_refines(a, b))
        }
        (a, b) => a == b,
    }
}

/// Returns `true` if a defined value belongs to `ty` (width check for
/// integers, kind check for pointers).
fn inhabits(v: &Val, ty: &frost_ir::Ty) -> bool {
    match (v, ty) {
        (Val::Int { bits, .. }, frost_ir::Ty::Int(b)) => bits == b,
        (Val::Ptr(_), frost_ir::Ty::Ptr(_)) => true,
        _ => false,
    }
}

/// Returns `true` if bit `tgt` refines bit `src`.
pub fn bit_refines(tgt: Bit, src: Bit) -> bool {
    match (tgt, src) {
        (_, Bit::Poison) => true,
        (Bit::Poison, _) => false,
        (_, Bit::Undef) => true, // Zero, One, Undef all refine Undef
        (a, b) => a == b,
    }
}

/// Returns `true` if memory snapshot `tgt` refines `src` bit-wise.
pub fn mem_refines(tgt: &[Bit], src: &[Bit]) -> bool {
    tgt.len() == src.len() && tgt.iter().zip(src).all(|(a, b)| bit_refines(*a, *b))
}

/// Returns `true` if outcome `tgt` refines outcome `src`.
///
/// `src = UB` is refined by anything. A returning target refines a
/// returning source when the returned value, the final memory, and the
/// observable call trace all refine point-wise; call events must agree
/// on callee and environment-chosen return value, and target arguments
/// must refine source arguments.
pub fn outcome_refines(tgt: &Outcome, src: &Outcome) -> bool {
    match (tgt, src) {
        (_, Outcome::Ub) => true,
        (Outcome::Ub, _) => false,
        (
            Outcome::Ret {
                val: tv,
                mem: tm,
                trace: tt,
            },
            Outcome::Ret {
                val: sv,
                mem: sm,
                trace: st,
            },
        ) => {
            let val_ok = match (tv, sv) {
                (None, None) => true,
                (Some(a), Some(b)) => val_refines(a, b),
                _ => false,
            };
            val_ok
                && mem_refines(tm, sm)
                && tt.len() == st.len()
                && tt.iter().zip(st).all(|(a, b)| {
                    a.callee == b.callee
                        && a.ret == b.ret
                        && a.args.len() == b.args.len()
                        && a.args.iter().zip(&b.args).all(|(x, y)| val_refines(x, y))
                })
        }
    }
}

/// Returns `true` if every target behavior is allowed by the source:
/// either the source may exhibit UB (total freedom), or each target
/// outcome refines some source outcome.
pub fn set_refines(tgt: &OutcomeSet, src: &OutcomeSet) -> bool {
    if src.may_ub() {
        return true;
    }
    tgt.iter()
        .all(|t| src.iter().any(|s| outcome_refines(t, s)))
}

/// The lanes where `tgt` does not refine `src`: `!set_refines` of
/// every lane's outcome sets at once, as a lane mask. `mems_refine`
/// says whether the target's final memory refines the source's
/// ([`mem_refines`]); lanes carry no call traces.
///
/// Both batches must cover the same tuples at the same return width
/// ([`Lanes::ret_bits`]), unless one width is 0: a `void` or
/// poison-constant return has no value or undef code, the only codes
/// whose meaning depends on the width. The justification table, per
/// target code:
///
/// * a source UB lane accepts anything;
/// * target UB needs source UB;
/// * `ret void` needs source `ret void`;
/// * a value `v` needs source `v`, undef or poison;
/// * undef needs source undef or poison;
/// * poison needs source poison;
/// * if the final memories do not refine, no `ret` is justified.
pub fn lanes_unjustified(tgt: &Lanes, src: &Lanes, mems_refine: bool) -> u64 {
    debug_assert_eq!(tgt.lanes(), src.lanes());
    let ret = if mems_refine { u64::MAX } else { 0 };
    let (poison, undef) = (src.mask(Code::Poison), src.mask(Code::Undef));
    let mut bad = tgt.mask(Code::Ub)
        | tgt.mask(Code::RetVoid) & !(src.mask(Code::RetVoid) & ret)
        | tgt.mask(Code::Poison) & !(poison & ret)
        | tgt.mask(Code::Undef) & !((undef | poison) & ret);
    for v in 0..1u8 << tgt.ret_bits() {
        bad |= tgt.mask(Code::Val(v)) & !((src.mask(Code::Val(v)) | undef | poison) & ret);
    }
    bad & !src.mask(Code::Ub)
}

/// The target outcomes not justified by any source outcome (empty iff
/// the set refines). Used for counterexample reporting.
pub fn unjustified<'a>(tgt: &'a OutcomeSet, src: &OutcomeSet) -> Vec<&'a Outcome> {
    if src.may_ub() {
        return Vec::new();
    }
    tgt.iter()
        .filter(|t| !src.iter().any(|s| outcome_refines(t, s)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use frost_ir::Ty;

    fn ret(v: Val) -> Outcome {
        Outcome::Ret {
            val: Some(v),
            mem: Vec::new(),
            trace: Vec::new(),
        }
    }

    #[test]
    fn poison_is_top() {
        assert!(val_refines(&Val::int(8, 3), &Val::Poison));
        assert!(val_refines(&Val::Undef(Ty::i8()), &Val::Poison));
        assert!(val_refines(&Val::Poison, &Val::Poison));
        assert!(!val_refines(&Val::Poison, &Val::int(8, 3)));
    }

    #[test]
    fn undef_admits_defined_but_not_poison() {
        let u = Val::Undef(Ty::i8());
        assert!(val_refines(&Val::int(8, 9), &u));
        assert!(val_refines(&u, &u));
        assert!(
            !val_refines(&Val::Poison, &u),
            "poison is stronger than undef (§3.4)"
        );
        assert!(!val_refines(&u, &Val::int(8, 9)));
    }

    #[test]
    fn defined_values_refine_only_themselves() {
        assert!(val_refines(&Val::int(8, 3), &Val::int(8, 3)));
        assert!(!val_refines(&Val::int(8, 3), &Val::int(8, 4)));
        assert!(!val_refines(&Val::int(8, 3), &Val::int(16, 3)));
    }

    #[test]
    fn vector_refinement_is_element_wise() {
        let s = Val::Vec(vec![Val::Poison, Val::int(8, 2)]);
        let t = Val::Vec(vec![Val::int(8, 7), Val::int(8, 2)]);
        assert!(val_refines(&t, &s));
        assert!(!val_refines(&s, &t));
    }

    #[test]
    fn refinement_is_reflexive_and_transitive_on_samples() {
        let samples = [
            Val::Poison,
            Val::Undef(Ty::i8()),
            Val::int(8, 0),
            Val::int(8, 255),
            Val::Vec(vec![Val::Poison, Val::int(8, 1)]),
            Val::Vec(vec![Val::Undef(Ty::i8()), Val::int(8, 1)]),
            Val::Vec(vec![Val::int(8, 0), Val::int(8, 1)]),
        ];
        for a in &samples {
            assert!(val_refines(a, a), "reflexive: {a}");
            for b in &samples {
                for c in &samples {
                    if val_refines(a, b) && val_refines(b, c) {
                        assert!(val_refines(a, c), "transitive: {a} ⊑ {b} ⊑ {c}");
                    }
                }
            }
        }
    }

    #[test]
    fn ub_source_allows_everything() {
        let mut src = OutcomeSet::new();
        src.insert(Outcome::Ub);
        let mut tgt = OutcomeSet::new();
        tgt.insert(ret(Val::int(8, 1)));
        tgt.insert(Outcome::Ub);
        assert!(set_refines(&tgt, &src));
    }

    #[test]
    fn target_ub_needs_source_ub() {
        let mut src = OutcomeSet::new();
        src.insert(ret(Val::int(8, 1)));
        let mut tgt = OutcomeSet::new();
        tgt.insert(Outcome::Ub);
        assert!(!set_refines(&tgt, &src));
        assert_eq!(unjustified(&tgt, &src).len(), 1);
    }

    #[test]
    fn narrowing_outcomes_is_refinement() {
        // Source can return 1 or 2; target always returns 1: fine.
        let mut src = OutcomeSet::new();
        src.insert(ret(Val::int(8, 1)));
        src.insert(ret(Val::int(8, 2)));
        let mut tgt = OutcomeSet::new();
        tgt.insert(ret(Val::int(8, 1)));
        assert!(set_refines(&tgt, &src));
        // Widening is not.
        assert!(!set_refines(&src, &tgt));
    }

    #[test]
    fn bit_refinement() {
        assert!(bit_refines(Bit::One, Bit::Poison));
        assert!(bit_refines(Bit::Zero, Bit::Undef));
        assert!(!bit_refines(Bit::Poison, Bit::Undef));
        assert!(!bit_refines(Bit::Zero, Bit::One));
        assert!(bit_refines(Bit::Undef, Bit::Undef));
    }

    /// Every pair of single-lane code subsets of one signature — `void`,
    /// i1 and i2 returns, each also against a returned poison constant
    /// (width 0), under equal, refining and differing final memories —
    /// gets the verdict [`set_refines`] gives their materialized sets.
    #[test]
    fn lane_verdict_equals_set_verdict() {
        // Every nonempty subset of `codes`, as one lane of width `bits`.
        let subsets = |bits: u32, codes: &[Code]| -> Vec<Lanes> {
            (1u32..1 << codes.len())
                .map(|pick| {
                    let mut lanes = Lanes::new(1, bits);
                    for (i, &code) in codes.iter().enumerate() {
                        if pick >> i & 1 == 1 {
                            lanes.insert(0, code);
                        }
                    }
                    lanes
                })
                .collect()
        };
        let mems = [
            (vec![Bit::Zero; 8], vec![Bit::Zero; 8]),
            (vec![Bit::Zero; 8], vec![Bit::Poison; 8]),
            (vec![Bit::One; 8], vec![Bit::Zero; 8]),
        ];
        let mut pairs = 0;
        for bits in [0, 1, 2] {
            let mut codes = vec![Code::Ub];
            if bits == 0 {
                codes.push(Code::RetVoid);
            } else {
                codes.extend((0..1u8 << bits).map(Code::Val));
                codes.extend([Code::Poison, Code::Undef]);
            }
            let mut sides = subsets(bits, &codes);
            sides.extend(subsets(0, &[Code::Ub, Code::Poison]));
            for (tm, sm) in &mems {
                for tgt in &sides {
                    for src in &sides {
                        let sets = (tgt.outcomes(0, tm), src.outcomes(0, sm));
                        let want = !set_refines(&sets.0, &sets.1);
                        let got = lanes_unjustified(tgt, src, mem_refines(tm, sm)) != 0;
                        assert_eq!(got, want, "target {} source {}", sets.0, sets.1);
                        pairs += 1;
                    }
                }
            }
        }
        assert_eq!(pairs, 3 * (6 * 6 + 34 * 34 + 130 * 130));
    }

    #[test]
    fn trace_mismatch_blocks_refinement() {
        use frost_core::Event;
        let mk = |callee: &str, arg: Val| Outcome::Ret {
            val: None,
            mem: Vec::new(),
            trace: vec![Event {
                callee: callee.into(),
                args: vec![arg],
                ret: None,
            }],
        };
        let mut src = OutcomeSet::new();
        src.insert(mk("use", Val::int(8, 1)));
        let mut tgt = OutcomeSet::new();
        tgt.insert(mk("use", Val::int(8, 2)));
        assert!(!set_refines(&tgt, &src), "different observable argument");
        let mut tgt2 = OutcomeSet::new();
        tgt2.insert(mk("other", Val::int(8, 1)));
        assert!(!set_refines(&tgt2, &src), "different callee");
        // Target passing a defined arg where source passed undef is ok.
        let mut src3 = OutcomeSet::new();
        src3.insert(mk("use", Val::Undef(Ty::i8())));
        let mut tgt3 = OutcomeSet::new();
        tgt3.insert(mk("use", Val::int(8, 5)));
        assert!(set_refines(&tgt3, &src3));
    }
}
