//! The executable operational semantics (Figure 5 of the paper).
//!
//! The interpreter is deterministic given a *choice script*: whenever a
//! rule is non-deterministic — `freeze` of poison, a use of `undef`,
//! branch-on-poison under the legacy-unswitch semantics, the return
//! value of an external call — the interpreter consumes the next entry
//! of the script. [`enumerate_outcomes`] drives the interpreter over all
//! scripts and collects the [`OutcomeSet`]; [`run_concrete`] resolves
//! every choice to 0 for a single deterministic run.
//!
//! Two implementations share these entry points:
//!
//! * [`crate::plan`] — the default: the function is compiled once into
//!   a slot-indexed [`ModulePlan`] and executed on a reusable
//!   [`Machine`], with enumeration resuming sibling branches from
//!   snapshots instead of restarting. The convenience functions in this
//!   module compile the entry's call closure per call; batch drivers
//!   ([`crate::cache`], `frost-refine`) compile once and reuse the plan.
//! * [`mod@reference`] — the original tree-walk, retained as the executable
//!   specification for differential testing.
//!
//! Both produce byte-identical [`OutcomeSet`]s, step counts, and limit
//! errors; `tests/exec_plan.rs` and the ci.sh smoke gate enforce this.

pub mod reference;

use frost_ir::Module;

use crate::mem::Memory;
use crate::outcome::{Outcome, OutcomeSet};
use crate::plan::{Machine, ModulePlan};
use crate::sem::Semantics;
use crate::val::{Bit, Val};

/// Resource limits for execution and enumeration.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Limits {
    /// Maximum instructions executed in a single run.
    pub max_steps: u64,
    /// Maximum number of scripts explored by [`enumerate_outcomes`].
    pub max_states: u64,
    /// Maximum number of options at a single choice point during
    /// enumeration (a `freeze` of an `i8` needs 256).
    pub max_fanout: u64,
    /// Maximum call depth for calls to defined functions.
    pub max_call_depth: u32,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_steps: 20_000,
            max_states: 200_000,
            max_fanout: 256,
            max_call_depth: 16,
        }
    }
}

impl Limits {
    /// Generous limits for long-running concrete executions (workload
    /// simulation).
    pub fn generous() -> Limits {
        Limits {
            max_steps: 200_000_000,
            max_states: 1,
            max_fanout: 1,
            max_call_depth: 64,
        }
    }
}

/// A non-UB failure of execution or enumeration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExecError {
    /// The per-run step limit was exceeded (possible divergence).
    Fuel,
    /// Enumeration exceeded the state limit.
    StateExplosion,
    /// A choice point had more options than `max_fanout`.
    FanoutTooLarge(u64),
    /// The input program used a feature the executor cannot handle
    /// (e.g. enumerating every pointer value).
    Unsupported(String),
    /// The named function does not exist or arguments mismatch.
    BadFunction(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Fuel => write!(f, "step limit exceeded"),
            ExecError::StateExplosion => write!(f, "enumeration state limit exceeded"),
            ExecError::FanoutTooLarge(n) => {
                write!(f, "choice with {n} options exceeds fanout limit")
            }
            ExecError::Unsupported(s) => write!(f, "unsupported: {s}"),
            ExecError::BadFunction(s) => write!(f, "bad function: {s}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Result of a single scripted run.
#[derive(Clone, Debug)]
pub enum RunResult {
    /// The run completed with the given behavior.
    Done(Outcome),
    /// The script was exhausted at a choice point with this many
    /// options; the driver should fork.
    NeedChoice(u64),
}

/// Runs `name` on `args` with the given choice script.
///
/// Compiles `name`'s call closure ([`ModulePlan::compile_entry`]) per
/// call; callers running the same function repeatedly should compile
/// once and use [`ModulePlan::run_with_script`].
///
/// # Errors
///
/// Returns an [`ExecError`] on resource exhaustion or unsupported
/// programs; UB is a *successful* run with [`Outcome::Ub`].
pub fn run_with_script(
    module: &Module,
    name: &str,
    args: &[Val],
    mem: &Memory,
    sem: Semantics,
    limits: Limits,
    script: &[u64],
) -> Result<RunResult, ExecError> {
    let (plan, idx) = ModulePlan::compile_entry(module, name, sem)?;
    plan.run_with_script(idx, args, mem, limits, script, &mut Machine::new())
}

/// Enumerates *every* behavior of `name` on `args` by exploring all
/// choice scripts.
///
/// Compiles `name`'s call closure ([`ModulePlan::compile_entry`]) per
/// call; batch callers should compile once (or use
/// [`crate::cache::OutcomeCache`]) and call [`ModulePlan::enumerate`]
/// with a reused [`Machine`].
///
/// # Errors
///
/// Returns an [`ExecError`] if the search exceeds [`Limits`] or the
/// program draws from an unenumerable domain (e.g. freezing a pointer).
pub fn enumerate_outcomes(
    module: &Module,
    name: &str,
    args: &[Val],
    mem: &Memory,
    sem: Semantics,
    limits: Limits,
) -> Result<OutcomeSet, ExecError> {
    let (plan, idx) = ModulePlan::compile_entry(module, name, sem)?;
    plan.enumerate(idx, args, mem, limits, &mut Machine::new())
}

/// Runs `name` once, resolving every non-deterministic choice to 0
/// (freeze-of-poison picks 0, a branch-on-poison under legacy-unswitch
/// takes the else edge, external calls return 0).
///
/// Returns the behavior and the number of steps executed. Compiles
/// `name`'s call closure ([`ModulePlan::compile_entry`]) per call.
///
/// # Errors
///
/// Returns an [`ExecError`] on resource exhaustion or unsupported
/// programs.
pub fn run_concrete(
    module: &Module,
    name: &str,
    args: &[Val],
    mem: &Memory,
    sem: Semantics,
    limits: Limits,
) -> Result<(Outcome, u64), ExecError> {
    let (plan, idx) = ModulePlan::compile_entry(module, name, sem)?;
    plan.run_concrete(idx, args, mem, limits, &mut Machine::new())
}

/// The memory-fill bit matching a semantics' treatment of uninitialized
/// memory (§5.3): poison under the proposal, undef under legacy.
pub fn uninit_fill(sem: &Semantics) -> Bit {
    if sem.uninit_is_poison {
        Bit::Poison
    } else {
        Bit::Undef
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frost_ir::parse_module;
    use frost_ir::Ty;

    fn empty_mem() -> Memory {
        Memory::zeroed(0)
    }

    fn outcomes_of(src: &str, fname: &str, args: Vec<Val>, sem: Semantics) -> OutcomeSet {
        let m = parse_module(src).expect("parses");
        enumerate_outcomes(&m, fname, &args, &empty_mem(), sem, Limits::default())
            .expect("enumerates")
    }

    fn ret_vals(set: &OutcomeSet) -> Vec<Option<Val>> {
        set.iter()
            .filter_map(|o| match o {
                Outcome::Ret { val, .. } => Some(val.clone()),
                Outcome::Ub => None,
            })
            .collect()
    }

    #[test]
    fn straight_line_arithmetic() {
        let set = outcomes_of(
            "define i8 @f(i8 %x) {\nentry:\n  %a = add i8 %x, 1\n  ret i8 %a\n}",
            "f",
            vec![Val::int(8, 41)],
            Semantics::proposed(),
        );
        assert_eq!(set.len(), 1);
        assert_eq!(ret_vals(&set), vec![Some(Val::int(8, 42))]);
    }

    #[test]
    fn nsw_overflow_returns_poison() {
        let set = outcomes_of(
            "define i8 @f(i8 %x) {\nentry:\n  %a = add nsw i8 %x, 1\n  ret i8 %a\n}",
            "f",
            vec![Val::int(8, 127)],
            Semantics::proposed(),
        );
        assert_eq!(ret_vals(&set), vec![Some(Val::Poison)]);
    }

    #[test]
    fn division_by_zero_is_ub() {
        let set = outcomes_of(
            "define i8 @f(i8 %x) {\nentry:\n  %a = udiv i8 1, %x\n  ret i8 %a\n}",
            "f",
            vec![Val::int(8, 0)],
            Semantics::proposed(),
        );
        assert!(set.may_ub());
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn freeze_of_poison_enumerates_all_values() {
        let set = outcomes_of(
            "define i2 @f() {\nentry:\n  %a = freeze i2 poison\n  ret i2 %a\n}",
            "f",
            vec![],
            Semantics::proposed(),
        );
        assert_eq!(set.len(), 4, "freeze i2 poison has 4 possible results");
        assert!(!set.may_ub());
    }

    #[test]
    fn freeze_of_defined_is_identity() {
        let set = outcomes_of(
            "define i8 @f(i8 %x) {\nentry:\n  %a = freeze i8 %x\n  ret i8 %a\n}",
            "f",
            vec![Val::int(8, 7)],
            Semantics::proposed(),
        );
        assert_eq!(ret_vals(&set), vec![Some(Val::int(8, 7))]);
    }

    #[test]
    fn all_uses_of_one_freeze_agree() {
        // xor(freeze(p), freeze-same-register) is always 0.
        let set = outcomes_of(
            "define i2 @f() {\nentry:\n  %a = freeze i2 poison\n  %b = xor i2 %a, %a\n  ret i2 %b\n}",
            "f",
            vec![],
            Semantics::proposed(),
        );
        assert_eq!(ret_vals(&set), vec![Some(Val::int(2, 0))]);
    }

    #[test]
    fn undef_uses_are_independent_in_legacy() {
        // %b = xor undef, undef can be anything: each use picks its own
        // value (§3.1).
        let set = outcomes_of(
            "define i2 @f() {\nentry:\n  %b = xor i2 undef, undef\n  ret i2 %b\n}",
            "f",
            vec![],
            Semantics::legacy_gvn(),
        );
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn mul_by_two_of_undef_is_even_only() {
        // §3.1: mul %x, 2 with x undef yields only even values...
        let mul = outcomes_of(
            "define i8 @f() {\nentry:\n  %y = mul i8 undef, 2\n  ret i8 %y\n}",
            "f",
            vec![],
            Semantics::legacy_gvn(),
        );
        let vals: Vec<u128> = ret_vals(&mul)
            .into_iter()
            .map(|v| v.unwrap().as_int().unwrap())
            .collect();
        assert!(vals.iter().all(|v| v % 2 == 0));
        assert_eq!(vals.len(), 128);
        // ...but add %x, %x yields every value (each use independent).
        let add = outcomes_of(
            "define i8 @f() {\nentry:\n  %x = add i8 undef, 0\n  ret i8 %x\n}",
            "f",
            vec![],
            Semantics::legacy_gvn(),
        );
        assert_eq!(add.len(), 256);
    }

    #[test]
    fn branch_on_poison_is_ub_under_proposed() {
        let src = "define i8 @f() {\nentry:\n  br i1 poison, label %a, label %b\na:\n  ret i8 1\nb:\n  ret i8 2\n}";
        let set = outcomes_of(src, "f", vec![], Semantics::proposed());
        assert!(set.may_ub());
        assert_eq!(set.len(), 1);

        // Under legacy-unswitch it's a nondeterministic choice.
        let set = outcomes_of(src, "f", vec![], Semantics::legacy_unswitch());
        assert!(!set.may_ub());
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn select_on_poison_condition_is_poison_under_proposed() {
        let src = "define i8 @f(i8 %x, i8 %y) {\nentry:\n  %r = select i1 poison, i8 %x, i8 %y\n  ret i8 %r\n}";
        let set = outcomes_of(
            src,
            "f",
            vec![Val::int(8, 1), Val::int(8, 2)],
            Semantics::proposed(),
        );
        assert_eq!(ret_vals(&set), vec![Some(Val::Poison)]);
    }

    #[test]
    fn select_ignores_unselected_poison_under_proposed() {
        // Figure 5: only the chosen arm matters.
        let src =
            "define i8 @f() {\nentry:\n  %r = select i1 true, i8 3, i8 poison\n  ret i8 %r\n}";
        let set = outcomes_of(src, "f", vec![], Semantics::proposed());
        assert_eq!(ret_vals(&set), vec![Some(Val::int(8, 3))]);
        // The LangRef/legacy-gvn reading poisons the result.
        let set = outcomes_of(src, "f", vec![], Semantics::legacy_gvn());
        assert_eq!(ret_vals(&set), vec![Some(Val::Poison)]);
    }

    #[test]
    fn phi_and_loop_execution() {
        // Sum 0..n on i8.
        let src = r#"
define i8 @sum(i8 %n) {
entry:
  br label %head
head:
  %i = phi i8 [ 0, %entry ], [ %i1, %body ]
  %s = phi i8 [ 0, %entry ], [ %s1, %body ]
  %c = icmp ult i8 %i, %n
  br i1 %c, label %body, label %exit
body:
  %s1 = add i8 %s, %i
  %i1 = add i8 %i, 1
  br label %head
exit:
  ret i8 %s
}
"#;
        let set = outcomes_of(src, "sum", vec![Val::int(8, 5)], Semantics::proposed());
        assert_eq!(ret_vals(&set), vec![Some(Val::int(8, 10))]);
    }

    #[test]
    fn memory_store_then_load() {
        let m = parse_module(
            r#"
define i8 @f(i8* %p) {
entry:
  store i8 7, i8* %p
  %v = load i8, i8* %p
  ret i8 %v
}
"#,
        )
        .unwrap();
        let mem = Memory::uninit(4, Bit::Poison);
        let set = enumerate_outcomes(
            &m,
            "f",
            &[Val::ptr(Memory::BASE)],
            &mem,
            Semantics::proposed(),
            Limits::default(),
        )
        .unwrap();
        assert_eq!(ret_vals(&set), vec![Some(Val::int(8, 7))]);
    }

    #[test]
    fn uninitialized_load_is_poison_under_proposed() {
        let m =
            parse_module("define i8 @f(i8* %p) {\nentry:\n  %v = load i8, i8* %p\n  ret i8 %v\n}")
                .unwrap();
        let sem = Semantics::proposed();
        let mem = Memory::uninit(1, uninit_fill(&sem));
        let set = enumerate_outcomes(
            &m,
            "f",
            &[Val::ptr(Memory::BASE)],
            &mem,
            sem,
            Limits::default(),
        )
        .unwrap();
        assert_eq!(ret_vals(&set), vec![Some(Val::Poison)]);

        // Legacy: undef.
        let sem = Semantics::legacy_gvn();
        let mem = Memory::uninit(1, uninit_fill(&sem));
        let set = enumerate_outcomes(
            &m,
            "f",
            &[Val::ptr(Memory::BASE)],
            &mem,
            sem,
            Limits::default(),
        )
        .unwrap();
        assert_eq!(ret_vals(&set), vec![Some(Val::Undef(Ty::i8()))]);
    }

    #[test]
    fn out_of_bounds_access_is_ub() {
        let m =
            parse_module("define void @f(i8* %p) {\nentry:\n  store i8 1, i8* %p\n  ret void\n}")
                .unwrap();
        let mem = Memory::zeroed(4);
        let set = enumerate_outcomes(
            &m,
            "f",
            &[Val::ptr(Memory::BASE + 4)],
            &mem,
            Semantics::proposed(),
            Limits::default(),
        )
        .unwrap();
        assert!(set.may_ub());
        // Null too.
        let set = enumerate_outcomes(
            &m,
            "f",
            &[Val::ptr(0)],
            &mem,
            Semantics::proposed(),
            Limits::default(),
        )
        .unwrap();
        assert!(set.may_ub());
    }

    #[test]
    fn store_of_poison_pointer_is_ub() {
        let m = parse_module("define void @f() {\nentry:\n  store i8 1, i8* poison\n  ret void\n}")
            .unwrap();
        let set = enumerate_outcomes(
            &m,
            "f",
            &[],
            &Memory::zeroed(4),
            Semantics::proposed(),
            Limits::default(),
        )
        .unwrap();
        assert!(set.may_ub());
    }

    #[test]
    fn external_calls_are_traced_and_poison_args_are_ub() {
        let src = r#"
declare void @use(i8)
define void @f(i8 %x) {
entry:
  call void @use(i8 %x)
  ret void
}
"#;
        let m = parse_module(src).unwrap();
        let set = enumerate_outcomes(
            &m,
            "f",
            &[Val::int(8, 3)],
            &empty_mem(),
            Semantics::proposed(),
            Limits::default(),
        )
        .unwrap();
        let Outcome::Ret { trace, .. } = set.iter().next().unwrap() else {
            panic!()
        };
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].callee, "use");
        assert_eq!(trace[0].args, vec![Val::int(8, 3)]);

        let set = enumerate_outcomes(
            &m,
            "f",
            &[Val::Poison],
            &empty_mem(),
            Semantics::proposed(),
            Limits::default(),
        )
        .unwrap();
        assert!(set.may_ub(), "poison reaching a side-effecting call is UB");
    }

    #[test]
    fn defined_function_calls_execute() {
        let src = r#"
define i8 @double(i8 %x) {
entry:
  %r = add i8 %x, %x
  ret i8 %r
}
define i8 @f(i8 %x) {
entry:
  %r = call i8 @double(i8 %x)
  %r2 = call i8 @double(i8 %r)
  ret i8 %r2
}
"#;
        let set = outcomes_of(src, "f", vec![Val::int(8, 3)], Semantics::proposed());
        assert_eq!(ret_vals(&set), vec![Some(Val::int(8, 12))]);
    }

    #[test]
    fn infinite_recursion_hits_depth_limit() {
        let src = "define void @f() {\nentry:\n  call void @f()\n  ret void\n}";
        let m = parse_module(src).unwrap();
        let err = enumerate_outcomes(
            &m,
            "f",
            &[],
            &empty_mem(),
            Semantics::proposed(),
            Limits::default(),
        )
        .unwrap_err();
        assert_eq!(err, ExecError::Fuel);
    }

    #[test]
    fn infinite_loop_hits_fuel() {
        let src = "define void @f() {\nentry:\n  br label %entry2\nentry2:\n  br label %entry2\n}";
        let m = parse_module(src).unwrap();
        let err = enumerate_outcomes(
            &m,
            "f",
            &[],
            &empty_mem(),
            Semantics::proposed(),
            Limits::default(),
        )
        .unwrap_err();
        assert_eq!(err, ExecError::Fuel);
    }

    #[test]
    fn gep_inbounds_overflow_is_poison() {
        let src = r#"
define i8* @f(i8* %p, i32 %i) {
entry:
  %q = getelementptr inbounds i8, i8* %p, i32 %i
  ret i8* %q
}
"#;
        let m = parse_module(src).unwrap();
        // Address near the top of the space; a positive index overflows.
        let set = enumerate_outcomes(
            &m,
            "f",
            &[Val::ptr(u32::MAX - 1), Val::int(32, 100)],
            &empty_mem(),
            Semantics::proposed(),
            Limits::default(),
        )
        .unwrap();
        assert_eq!(ret_vals(&set), vec![Some(Val::Poison)]);
        // In-range index is fine.
        let set = enumerate_outcomes(
            &m,
            "f",
            &[Val::ptr(0x1000), Val::int(32, 4)],
            &empty_mem(),
            Semantics::proposed(),
            Limits::default(),
        )
        .unwrap();
        assert_eq!(ret_vals(&set), vec![Some(Val::ptr(0x1004))]);
    }

    #[test]
    fn gep_scales_by_element_size() {
        let src = r#"
define i32* @f(i32* %p, i32 %i) {
entry:
  %q = getelementptr i32, i32* %p, i32 %i
  ret i32* %q
}
"#;
        let m = parse_module(src).unwrap();
        let set = enumerate_outcomes(
            &m,
            "f",
            &[Val::ptr(0x1000), Val::int(32, 3)],
            &empty_mem(),
            Semantics::proposed(),
            Limits::default(),
        )
        .unwrap();
        assert_eq!(ret_vals(&set), vec![Some(Val::ptr(0x100c))]);
        // Negative index.
        let set = enumerate_outcomes(
            &m,
            "f",
            &[Val::ptr(0x1000), Val::int(32, 0xffff_ffff)],
            &empty_mem(),
            Semantics::proposed(),
            Limits::default(),
        )
        .unwrap();
        assert_eq!(ret_vals(&set), vec![Some(Val::ptr(0x0ffc))]);
    }

    #[test]
    fn concrete_run_resolves_choices_to_zero() {
        let m = parse_module("define i8 @f() {\nentry:\n  %a = freeze i8 poison\n  ret i8 %a\n}")
            .unwrap();
        let (o, steps) = run_concrete(
            &m,
            "f",
            &[],
            &empty_mem(),
            Semantics::proposed(),
            Limits::default(),
        )
        .unwrap();
        assert_eq!(o.ret_val(), Some(&Val::int(8, 0)));
        assert!(steps >= 1);
    }

    #[test]
    fn vector_ops_are_element_wise() {
        let src = r#"
define <2 x i8> @f(<2 x i8> %v) {
entry:
  %r = add <2 x i8> %v, <i8 1, i8 poison>
  ret <2 x i8> %r
}
"#;
        let set = outcomes_of(
            src,
            "f",
            vec![Val::Vec(vec![Val::int(8, 1), Val::int(8, 2)])],
            Semantics::proposed(),
        );
        assert_eq!(
            ret_vals(&set),
            vec![Some(Val::Vec(vec![Val::int(8, 2), Val::Poison]))]
        );
    }

    #[test]
    fn bitcast_respects_bit_level_semantics() {
        // <2 x i8> with one poison element, bitcast to i16 -> whole
        // thing poison; bitcast to <2 x i8> of a defined i16 round
        // trips.
        let src = r#"
define i16 @f(<2 x i8> %v) {
entry:
  %r = bitcast <2 x i8> %v to i16
  ret i16 %r
}
"#;
        let set = outcomes_of(
            src,
            "f",
            vec![Val::Vec(vec![Val::Poison, Val::int(8, 2)])],
            Semantics::proposed(),
        );
        assert_eq!(ret_vals(&set), vec![Some(Val::Poison)]);

        let set = outcomes_of(
            src,
            "f",
            vec![Val::Vec(vec![Val::int(8, 0x34), Val::int(8, 0x12)])],
            Semantics::proposed(),
        );
        assert_eq!(ret_vals(&set), vec![Some(Val::int(16, 0x1234))]);
    }

    #[test]
    fn sext_of_poison_is_poison() {
        let set = outcomes_of(
            "define i64 @f() {\nentry:\n  %r = sext i32 poison to i64\n  ret i64 %r\n}",
            "f",
            vec![],
            Semantics::proposed(),
        );
        assert_eq!(ret_vals(&set), vec![Some(Val::Poison)]);
    }

    #[test]
    fn sext_of_undef_has_correlated_bits() {
        // §2.4: sext(undef) has all high bits equal -> max value is
        // bounded. On i2 -> i4: results are sext of {0,1,2,3} =
        // {0,1,0b1110,0b1111}.
        let set = outcomes_of(
            "define i4 @f() {\nentry:\n  %r = sext i2 undef to i4\n  ret i4 %r\n}",
            "f",
            vec![],
            Semantics::legacy_gvn(),
        );
        let mut vals: Vec<u128> = ret_vals(&set)
            .into_iter()
            .map(|v| v.unwrap().as_int().unwrap())
            .collect();
        vals.sort_unstable();
        assert_eq!(vals, vec![0, 1, 0b1110, 0b1111]);
    }
}
