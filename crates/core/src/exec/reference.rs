//! The reference tree-walk interpreter (Figure 5, executed directly on
//! the [`Function`] tree).
//!
//! This is the original implementation of the operational semantics: a
//! recursive walk over blocks and instructions that re-resolves every
//! [`Value`] operand and re-consults the [`Semantics`] table on each
//! visit, restarting from scratch for every choice script. The fast
//! path lives in [`crate::plan`], which compiles the function once and
//! resumes enumeration from snapshots; this module is deliberately
//! retained as the *executable specification* the plan engine is
//! differentially tested against (`tests/exec_plan.rs` and the ci.sh
//! smoke gate compare outcome sets byte-for-byte). Keep it simple: any
//! optimization applied here weakens the oracle.
//!
//! Two hot-path fixes are shared with the plan engine because they do
//! not change observable behavior:
//!
//! * enumeration drives a single shared script buffer (truncate to the
//!   fork point and push the sibling's choice) instead of cloning the
//!   full script per fork — same DFS order, same state accounting, no
//!   O(depth²) copying;
//! * each run borrows the caller's initial [`Memory`] and clones it
//!   only on the first store, so read-only runs never copy memory.

use frost_ir::{
    BinOp, BlockId, Cond, Flags, Function, Inst, InstId, Module, Terminator, Ty, Value,
};

use crate::exec::{ExecError, Limits, RunResult};
use crate::mem::Memory;
use crate::ops::{eval_binop, eval_cast, eval_icmp, ScalarResult};
use crate::outcome::{Event, Outcome, OutcomeSet};
use crate::sem::{PoisonAction, Semantics};
use crate::val::{lower, poison_of, raise, Ptr, Val};

/// Reasons to abort the current run.
enum Stop {
    NeedChoice(u64),
    Err(ExecError),
}

/// Non-local exits of instruction evaluation.
enum Exc {
    Ub,
    Stop(Stop),
}

impl From<Stop> for Exc {
    fn from(s: Stop) -> Exc {
        Exc::Stop(s)
    }
}

enum FlowResult {
    Ret(Option<Val>),
    Ub,
}

/// How choices are resolved.
#[derive(Clone, Copy, Debug)]
enum Policy<'s> {
    Script(&'s [u64]),
    Concrete,
}

struct Interp<'a, 's> {
    module: &'a Module,
    sem: Semantics,
    limits: Limits,
    policy: Policy<'s>,
    next_choice: usize,
    steps: u64,
    /// The run's initial memory, owned by the caller.
    init_mem: &'a Memory,
    /// Copy-on-write working memory: `None` until the first store.
    mem: Option<Memory>,
    trace: Vec<Event>,
}

impl<'a> Interp<'a, '_> {
    fn choose(&mut self, n: u64) -> Result<u64, Stop> {
        if n == 0 {
            return Err(Stop::Err(ExecError::Unsupported(
                "empty choice domain".into(),
            )));
        }
        if n == 1 {
            return Ok(0);
        }
        match self.policy {
            Policy::Concrete => Ok(0),
            Policy::Script(script) => {
                if n > self.limits.max_fanout {
                    return Err(Stop::Err(ExecError::FanoutTooLarge(n)));
                }
                match script.get(self.next_choice) {
                    Some(&v) => {
                        self.next_choice += 1;
                        debug_assert!(v < n, "script entry within domain");
                        Ok(v)
                    }
                    None => Err(Stop::NeedChoice(n)),
                }
            }
        }
    }

    /// Chooses an arbitrary defined value of a scalar type (freeze of
    /// poison, use of undef).
    fn choose_scalar(&mut self, ty: &Ty) -> Result<Val, Stop> {
        match ty {
            Ty::Int(bits) => {
                let n = if *bits >= 63 { u64::MAX } else { 1u64 << *bits };
                let idx = self.choose(n)?;
                Ok(Val::int(*bits, u128::from(idx)))
            }
            Ty::Ptr(_) => {
                // The pointer domain is 2^32 addresses; enumerating it is
                // never feasible, but a concrete run can pick null.
                let idx = self.choose(1u64 << 32)?;
                Ok(Val::ptr(idx as u32))
            }
            other => Err(Stop::Err(ExecError::Unsupported(format!(
                "cannot choose a value of type {other}"
            )))),
        }
    }

    /// Resolves `undef` at a *use*: each use of an undef register may
    /// yield a different value (§3.1). Element-wise for vectors. Poison
    /// and defined values pass through.
    fn resolve_use(&mut self, v: Val) -> Result<Val, Stop> {
        match v {
            Val::Undef(ty) => self.choose_scalar(&ty),
            Val::Vec(elems) => {
                let mut out = Vec::with_capacity(elems.len());
                for e in elems {
                    out.push(self.resolve_use(e)?);
                }
                Ok(Val::Vec(out))
            }
            other => Ok(other),
        }
    }

    fn exec_function(
        &mut self,
        func: &'a Function,
        args: &[Val],
        depth: u32,
    ) -> Result<FlowResult, Stop> {
        if args.len() != func.params.len() {
            return Err(Stop::Err(ExecError::BadFunction(format!(
                "@{} expects {} arguments, got {}",
                func.name,
                func.params.len(),
                args.len()
            ))));
        }
        let mut regs: Vec<Option<Val>> = vec![None; func.insts.len()];
        let mut cur = BlockId::ENTRY;
        let mut prev: Option<BlockId> = None;

        'blocks: loop {
            // Charge a step per block visit so empty infinite loops
            // (e.g. `bb: br label %bb`) still exhaust fuel.
            self.steps += 1;
            if self.steps > self.limits.max_steps {
                return Err(Stop::Err(ExecError::Fuel));
            }
            let block = func.block(cur);

            // Evaluate all phis simultaneously against the incoming edge.
            let mut phi_updates: Vec<(InstId, Val)> = Vec::new();
            for &id in &block.insts {
                let Inst::Phi { incoming, .. } = func.inst(id) else {
                    break;
                };
                let from = prev.expect("phi in entry block rejected by verifier");
                let (v, _) = incoming
                    .iter()
                    .find(|(_, bb)| *bb == from)
                    .expect("verifier guarantees an incoming value per predecessor");
                phi_updates.push((id, self.operand(func, &regs, args, v)));
            }
            for (id, v) in phi_updates {
                self.steps += 1;
                regs[id.index()] = Some(v);
            }

            for &id in &block.insts {
                if matches!(func.inst(id), Inst::Phi { .. }) {
                    continue;
                }
                self.steps += 1;
                if self.steps > self.limits.max_steps {
                    return Err(Stop::Err(ExecError::Fuel));
                }
                match self.eval_inst(func, &regs, args, id, depth) {
                    Ok(v) => regs[id.index()] = Some(v),
                    Err(Exc::Ub) => return Ok(FlowResult::Ub),
                    Err(Exc::Stop(s)) => return Err(s),
                }
            }

            match &block.term {
                Terminator::Ret(v) => {
                    let val = v.as_ref().map(|v| self.operand(func, &regs, args, v));
                    return Ok(FlowResult::Ret(val));
                }
                Terminator::Jmp(dest) => {
                    prev = Some(cur);
                    cur = *dest;
                }
                Terminator::Br {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    let c = self.operand(func, &regs, args, cond);
                    let c = self.resolve_use(c)?;
                    let taken = match c {
                        Val::Int { v, .. } => v == 1,
                        Val::Poison => match self.sem.branch_on_poison {
                            PoisonAction::Ub => return Ok(FlowResult::Ub),
                            PoisonAction::Nondet | PoisonAction::Propagate => self.choose(2)? == 1,
                        },
                        other => {
                            return Err(Stop::Err(ExecError::Unsupported(format!(
                                "branch on {other}"
                            ))))
                        }
                    };
                    prev = Some(cur);
                    cur = if taken { *then_bb } else { *else_bb };
                }
                Terminator::Unreachable => return Ok(FlowResult::Ub),
            }
            continue 'blocks;
        }
    }

    fn operand(&self, _func: &Function, regs: &[Option<Val>], args: &[Val], v: &Value) -> Val {
        match v {
            Value::Inst(id) => regs[id.index()]
                .clone()
                .expect("SSA dominance guarantees the register is written"),
            Value::Arg(i) => args[*i as usize].clone(),
            Value::Const(c) => Val::from_const(c),
        }
    }

    fn eval_inst(
        &mut self,
        func: &'a Function,
        regs: &[Option<Val>],
        args: &[Val],
        id: InstId,
        depth: u32,
    ) -> Result<Val, Exc> {
        let inst = func.inst(id);
        match inst {
            Inst::Bin {
                op,
                flags,
                ty,
                lhs,
                rhs,
            } => {
                let a = self.resolve_use(self.operand(func, regs, args, lhs))?;
                let b = self.resolve_use(self.operand(func, regs, args, rhs))?;
                self.eval_bin_val(*op, *flags, ty, a, b)
            }
            Inst::Icmp { cond, ty, lhs, rhs } => {
                let a = self.resolve_use(self.operand(func, regs, args, lhs))?;
                let b = self.resolve_use(self.operand(func, regs, args, rhs))?;
                self.eval_icmp_val(*cond, ty, a, b)
            }
            Inst::Select {
                cond,
                ty,
                tval,
                fval,
            } => {
                let c = self.resolve_use(self.operand(func, regs, args, cond))?;
                let tv = self.operand(func, regs, args, tval);
                let fv = self.operand(func, regs, args, fval);
                let taken = match c {
                    Val::Int { v, .. } => v == 1,
                    Val::Poison => match self.sem.select.poison_cond {
                        PoisonAction::Propagate => return Ok(poison_of(ty)),
                        PoisonAction::Ub => return Err(Exc::Ub),
                        PoisonAction::Nondet => self.choose(2)? == 1,
                    },
                    other => {
                        return Err(Exc::Stop(Stop::Err(ExecError::Unsupported(format!(
                            "select on {other}"
                        )))))
                    }
                };
                if self.sem.select.propagate_unselected
                    && (tv.contains_poison() || fv.contains_poison())
                {
                    return Ok(poison_of(ty));
                }
                Ok(if taken { tv } else { fv })
            }
            Inst::Phi { .. } => unreachable!("phis are evaluated at block entry"),
            Inst::Freeze { ty, val } => {
                let v = self.operand(func, regs, args, val);
                self.freeze_val(ty, v)
            }
            Inst::Cast {
                kind,
                from_ty,
                to_ty,
                val,
            } => {
                let v = self.resolve_use(self.operand(func, regs, args, val))?;
                let from_bits = from_ty.scalar_ty().int_bits().expect("verified int cast");
                let to_bits = to_ty.scalar_ty().int_bits().expect("verified int cast");
                Ok(map_elements(&v, to_ty, |e| match e.as_int() {
                    Some(x) => Val::int(to_bits, eval_cast(*kind, from_bits, to_bits, x)),
                    None => Val::Poison,
                }))
            }
            Inst::Bitcast {
                from_ty,
                to_ty,
                val,
            } => {
                let v = self.operand(func, regs, args, val);
                Ok(raise(to_ty, &lower(from_ty, &v)))
            }
            Inst::Gep {
                elem_ty,
                base,
                idx,
                inbounds,
                idx_ty,
                ..
            } => {
                let b = self.resolve_use(self.operand(func, regs, args, base))?;
                let i = self.resolve_use(self.operand(func, regs, args, idx))?;
                let (Val::Ptr(p), Val::Int { .. }) = (&b, &i) else {
                    // Poison base or index -> poison pointer.
                    return Ok(Val::Poison);
                };
                let idx_bits = idx_ty.int_bits().expect("verified gep index");
                let offset = i.as_signed().expect("int");
                let _ = idx_bits;
                let stride = i128::from(elem_ty.byte_size());
                match *p {
                    Ptr::Addr(addr) => {
                        let full = i128::from(addr) + offset * stride;
                        if *inbounds && (full < 0 || full > i128::from(u32::MAX)) {
                            // Pointer arithmetic overflow is deferred UB (§2.4).
                            return Ok(Val::Poison);
                        }
                        Ok(Val::ptr(full.rem_euclid(1i128 << 32) as u32))
                    }
                    Ptr::Block { block, off } => {
                        let full = i128::from(off) + offset * stride;
                        if *inbounds {
                            let mem = self.mem.as_ref().unwrap_or(self.init_mem);
                            // Deferred UB: an inbounds gep may only move
                            // within the block (one-past-the-end allowed).
                            if full < 0 || full > i128::from(mem.block_size(block)) {
                                return Ok(Val::Poison);
                            }
                        }
                        Ok(Val::Ptr(Ptr::Block {
                            block,
                            off: full.rem_euclid(1i128 << 32) as u32,
                        }))
                    }
                }
            }
            Inst::Load { ty, ptr } => {
                let p = self.resolve_use(self.operand(func, regs, args, ptr))?;
                let Val::Ptr(p) = p else {
                    return Err(Exc::Ub);
                };
                let mem = self.mem.as_ref().unwrap_or(self.init_mem);
                match mem.load_ptr(p, ty.bitwidth()) {
                    Some(bits) => Ok(raise(ty, &bits)),
                    None => Err(Exc::Ub),
                }
            }
            Inst::Store { ty, val, ptr } => {
                let v = self.operand(func, regs, args, val);
                let p = self.resolve_use(self.operand(func, regs, args, ptr))?;
                let Val::Ptr(p) = p else {
                    return Err(Exc::Ub);
                };
                let bits = lower(ty, &v);
                // First store of the run: fault in a private copy of the
                // initial memory.
                let mem = self.mem.get_or_insert_with(|| self.init_mem.clone());
                if !mem.store_ptr(p, &bits) {
                    return Err(Exc::Ub);
                }
                Ok(Val::int(1, 0)) // dummy; stores define no register
            }
            Inst::Alloca { ty } => {
                // Allocation mutates the (copy-on-write) memory even
                // though nothing is written yet: the block table grows.
                let fill = crate::exec::uninit_fill(&self.sem);
                let mem = self.mem.get_or_insert_with(|| self.init_mem.clone());
                let block = mem.alloca(ty.byte_size(), fill);
                Ok(Val::Ptr(Ptr::Block { block, off: 0 }))
            }
            Inst::PtrToInt { val, .. } => {
                let v = self.resolve_use(self.operand(func, regs, args, val))?;
                // Observing an address forces the finite phase even when
                // the operand is poison — the cast itself is the
                // observation, and the unconditional rule keeps both
                // executors trivially in agreement.
                let mem = self.mem.get_or_insert_with(|| self.init_mem.clone());
                mem.concretize();
                match v {
                    Val::Ptr(p) => {
                        let addr = mem.ptr_addr(p);
                        Ok(Val::int(frost_ir::PTR_BITS, u128::from(addr)))
                    }
                    _ => Ok(Val::Poison),
                }
            }
            Inst::IntToPtr { val, .. } => {
                let v = self.resolve_use(self.operand(func, regs, args, val))?;
                let mem = self.mem.get_or_insert_with(|| self.init_mem.clone());
                mem.concretize();
                match v.as_int() {
                    Some(x) => Ok(Val::ptr(x as u32)),
                    None => Ok(Val::Poison),
                }
            }
            Inst::Assume { cond } => {
                // The guard consumes its fact: a false *or poison*
                // fact is immediate UB (deferred UB is promoted here,
                // exactly as `br` does under the proposed semantics).
                // Freezing the condition first launders the poison
                // half away.
                let c = self.resolve_use(self.operand(func, regs, args, cond))?;
                match c {
                    Val::Poison => Err(Exc::Ub),
                    Val::Int { v, .. } => {
                        if v == 1 {
                            Ok(Val::int(1, 0)) // dummy; guards define no register
                        } else {
                            Err(Exc::Ub)
                        }
                    }
                    other => Err(Exc::Stop(Stop::Err(ExecError::Unsupported(format!(
                        "assume on {other}"
                    ))))),
                }
            }
            Inst::ExtractElement { vec, idx, len, .. } => {
                let v = self.operand(func, regs, args, vec);
                let i = idx.as_int_const().expect("verified constant lane") as usize;
                Ok(vector_elems(&v, *len as usize)[i].clone())
            }
            Inst::InsertElement {
                vec, elt, idx, len, ..
            } => {
                let v = self.operand(func, regs, args, vec);
                let e = self.operand(func, regs, args, elt);
                let i = idx.as_int_const().expect("verified constant lane") as usize;
                let mut elems = vector_elems(&v, *len as usize);
                elems[i] = e;
                Ok(Val::Vec(elems))
            }
            Inst::Call {
                ret_ty,
                callee,
                args: call_args,
                ..
            } => {
                let mut vals = Vec::with_capacity(call_args.len());
                for a in call_args {
                    vals.push(self.operand(func, regs, args, a));
                }
                self.eval_call(ret_ty, callee, vals, depth)
            }
        }
    }

    fn eval_call(
        &mut self,
        ret_ty: &Ty,
        callee: &str,
        vals: Vec<Val>,
        depth: u32,
    ) -> Result<Val, Exc> {
        if let Some(f) = self.module.function(callee) {
            if depth >= self.limits.max_call_depth {
                return Err(Exc::Stop(Stop::Err(ExecError::Fuel)));
            }
            return match self.exec_function(f, &vals, depth + 1)? {
                FlowResult::Ub => Err(Exc::Ub),
                FlowResult::Ret(Some(v)) => Ok(v),
                FlowResult::Ret(None) => Ok(Val::int(1, 0)),
            };
        }
        let Some(decl) = self.module.declaration(callee) else {
            return Err(Exc::Stop(Stop::Err(ExecError::BadFunction(format!(
                "unknown callee @{callee}"
            )))));
        };
        if decl.attrs.readnone {
            // A pure external function: poison in, poison out; otherwise
            // an arbitrary (environment-chosen) result. Not observable.
            if vals.iter().any(Val::contains_poison) {
                return Ok(poison_of(ret_ty));
            }
            if ret_ty.is_void() {
                return Ok(Val::int(1, 0));
            }
            return Ok(self.choose_scalar(ret_ty.scalar_ty())?);
        }
        // Side-effecting external call: poison reaching it is UB (§1:
        // poison "triggers immediate UB if it reaches a side-effecting
        // operation").
        if self.sem.poison_call_arg_is_ub && vals.iter().any(Val::contains_poison) {
            return Err(Exc::Ub);
        }
        let ret = if ret_ty.is_void() {
            None
        } else {
            Some(self.choose_scalar(ret_ty.scalar_ty())?)
        };
        self.trace.push(Event {
            callee: callee.to_string(),
            args: vals,
            ret: ret.clone(),
        });
        Ok(ret.unwrap_or(Val::int(1, 0)))
    }

    fn eval_bin_val(
        &mut self,
        op: BinOp,
        flags: Flags,
        ty: &Ty,
        a: Val,
        b: Val,
    ) -> Result<Val, Exc> {
        let bits = ty.scalar_ty().int_bits().expect("verified integer binop");
        let len = ty.vector_len();
        match len {
            None => self.bin_scalar(op, flags, bits, &a, &b),
            Some(n) => {
                let av = vector_elems(&a, n as usize);
                let bv = vector_elems(&b, n as usize);
                let mut out = Vec::with_capacity(n as usize);
                for (x, y) in av.iter().zip(&bv) {
                    out.push(self.bin_scalar(op, flags, bits, x, y)?);
                }
                Ok(Val::Vec(out))
            }
        }
    }

    fn bin_scalar(
        &mut self,
        op: BinOp,
        flags: Flags,
        bits: u32,
        a: &Val,
        b: &Val,
    ) -> Result<Val, Exc> {
        if op.may_have_immediate_ub() {
            // Division: a poison divisor, or zero, is immediate UB; a
            // poison dividend yields poison unless the divisor makes
            // the signed-overflow case reachable.
            let bv = match b {
                Val::Poison => return Err(Exc::Ub),
                Val::Int { v, .. } => *v,
                other => {
                    return Err(Exc::Stop(Stop::Err(ExecError::Unsupported(format!(
                        "divide by {other}"
                    )))))
                }
            };
            if bv == 0 {
                return Err(Exc::Ub);
            }
            if a.contains_poison() {
                let divisor_is_minus1 = Val::int(bits, bv).as_signed() == Some(-1);
                if matches!(op, BinOp::SDiv | BinOp::SRem) && divisor_is_minus1 {
                    // poison could be INT_MIN: the UB case is reachable.
                    return Err(Exc::Ub);
                }
                return Ok(Val::Poison);
            }
        } else if a.contains_poison() || b.contains_poison() {
            return Ok(Val::Poison);
        }
        let (Some(x), Some(y)) = (a.as_int(), b.as_int()) else {
            return Err(Exc::Stop(Stop::Err(ExecError::Unsupported(format!(
                "binop on {a} and {b}"
            )))));
        };
        match eval_binop(op, flags, bits, x, y) {
            ScalarResult::Val(v) => Ok(Val::int(bits, v)),
            ScalarResult::Poison => {
                // §2.4 strawman semantics: deferred binop UB yields
                // undef instead of poison.
                if self.sem.wrap_flags_produce_undef {
                    Ok(Val::Undef(Ty::Int(bits)))
                } else {
                    Ok(Val::Poison)
                }
            }
            ScalarResult::Ub => Err(Exc::Ub),
        }
    }

    fn eval_icmp_val(&mut self, cond: Cond, ty: &Ty, a: Val, b: Val) -> Result<Val, Exc> {
        let mem = self.mem.as_ref().unwrap_or(self.init_mem);
        let scalar = |x: &Val, y: &Val| -> Val {
            match (x, y) {
                (Val::Poison, _) | (_, Val::Poison) => Val::Poison,
                (Val::Int { bits, v: xa }, Val::Int { v: xb, .. }) => {
                    Val::bool(eval_icmp(cond, *bits, *xa, *xb))
                }
                // Pointers compare by concrete address. Layout is
                // deterministic, so this is well-defined even in the
                // infinite phase (and does not force the finite one).
                (Val::Ptr(pa), Val::Ptr(pb)) => Val::bool(eval_icmp(
                    cond,
                    frost_ir::PTR_BITS,
                    u128::from(mem.ptr_addr(*pa)),
                    u128::from(mem.ptr_addr(*pb)),
                )),
                _ => Val::Poison,
            }
        };
        match ty.vector_len() {
            None => Ok(scalar(&a, &b)),
            Some(n) => {
                let av = vector_elems(&a, n as usize);
                let bv = vector_elems(&b, n as usize);
                Ok(Val::Vec(
                    av.iter().zip(&bv).map(|(x, y)| scalar(x, y)).collect(),
                ))
            }
        }
    }

    /// Figure 5's freeze rules: identity on defined values; an arbitrary
    /// defined value for poison (and undef); element-wise for vectors.
    fn freeze_val(&mut self, ty: &Ty, v: Val) -> Result<Val, Exc> {
        match (ty, v) {
            (Ty::Vector { elems, elem }, v) => {
                let vals = vector_elems(&v, *elems as usize);
                let mut out = Vec::with_capacity(vals.len());
                for e in vals {
                    out.push(self.freeze_scalar(elem, e)?);
                }
                Ok(Val::Vec(out))
            }
            (_, v) => self.freeze_scalar(ty, v),
        }
    }

    fn freeze_scalar(&mut self, ty: &Ty, v: Val) -> Result<Val, Exc> {
        match v {
            Val::Poison | Val::Undef(_) => Ok(self.choose_scalar(ty)?),
            defined => Ok(defined),
        }
    }

    /// The run's final memory image for an outcome: the private copy if
    /// a store faulted one in, the untouched initial memory otherwise.
    fn final_mem(&self) -> crate::val::Bits {
        match &self.mem {
            Some(m) => m.snapshot(),
            None => self.init_mem.snapshot(),
        }
    }
}

/// Splits a vector value into elements; scalar poison expands to
/// all-poison (defensive — constants are already element-wise).
fn vector_elems(v: &Val, len: usize) -> Vec<Val> {
    match v {
        Val::Vec(elems) => {
            debug_assert_eq!(elems.len(), len);
            elems.clone()
        }
        Val::Poison => vec![Val::Poison; len],
        other => vec![other.clone(); len],
    }
}

/// Maps a scalar function over a value that may be a vector.
fn map_elements(v: &Val, result_ty: &Ty, f: impl Fn(&Val) -> Val) -> Val {
    match result_ty.vector_len() {
        None => f(v),
        Some(n) => Val::Vec(vector_elems(v, n as usize).iter().map(f).collect()),
    }
}

/// Runs `func`, a function of `module`, on `args` with the given
/// choice script — tree-walk implementation.
///
/// # Errors
///
/// Returns an [`ExecError`] on resource exhaustion or unsupported
/// programs; UB is a *successful* run with [`Outcome::Ub`].
pub fn run_with_script(
    module: &Module,
    func: &Function,
    args: &[Val],
    mem: &Memory,
    sem: Semantics,
    limits: Limits,
    script: &[u64],
) -> Result<RunResult, ExecError> {
    let mut interp = Interp {
        module,
        sem,
        limits,
        policy: Policy::Script(script),
        next_choice: 0,
        steps: 0,
        init_mem: mem,
        mem: None,
        trace: Vec::new(),
    };
    match interp.exec_function(func, args, 0) {
        Ok(FlowResult::Ub) => Ok(RunResult::Done(Outcome::Ub)),
        Ok(FlowResult::Ret(val)) => Ok(RunResult::Done(Outcome::Ret {
            mem: interp.final_mem(),
            trace: interp.trace,
            val,
        })),
        Err(Stop::NeedChoice(n)) => Ok(RunResult::NeedChoice(n)),
        Err(Stop::Err(e)) => Err(e),
    }
}

/// Enumerates *every* behavior of `func`, a function of `module`, on
/// `args` by exploring all choice scripts, restarting the interpreter
/// per script (model-checker style) — tree-walk implementation.
///
/// The scripts share one growable buffer: a fork records the buffer
/// length and counts its sibling choices down, and each exploration
/// truncates back to the fork point and pushes one value. This is the
/// same DFS (values `n-1..0`, deepest fork first) and the same state
/// accounting as the historical clone-per-fork driver, without the
/// quadratic script copying.
///
/// # Errors
///
/// Returns an [`ExecError`] if the search exceeds [`Limits`] or the
/// program draws from an unenumerable domain (e.g. freezing a pointer).
pub fn enumerate_outcomes(
    module: &Module,
    func: &Function,
    args: &[Val],
    mem: &Memory,
    sem: Semantics,
    limits: Limits,
) -> Result<OutcomeSet, ExecError> {
    let mut outcomes = OutcomeSet::new();
    let mut script: Vec<u64> = Vec::new();
    /// One unexplored fork: the script length at the choice point and
    /// the sibling values still to try (counting down).
    struct Branch {
        fork_len: usize,
        next: u64,
    }
    let mut stack: Vec<Branch> = Vec::new();
    let mut states: u64 = 0;

    states += 1;
    if states > limits.max_states {
        return Err(ExecError::StateExplosion);
    }
    match run_with_script(module, func, args, mem, sem, limits, &script)? {
        RunResult::Done(outcome) => {
            outcomes.insert(outcome);
        }
        RunResult::NeedChoice(n) => stack.push(Branch {
            fork_len: 0,
            next: n,
        }),
    }

    while let Some(top) = stack.last_mut() {
        if top.next == 0 {
            stack.pop();
            continue;
        }
        top.next -= 1;
        let v = top.next;
        let fork_len = top.fork_len;
        states += 1;
        if states > limits.max_states {
            return Err(ExecError::StateExplosion);
        }
        script.truncate(fork_len);
        script.push(v);
        match run_with_script(module, func, args, mem, sem, limits, &script)? {
            RunResult::Done(outcome) => {
                outcomes.insert(outcome);
            }
            RunResult::NeedChoice(n) => stack.push(Branch {
                fork_len: script.len(),
                next: n,
            }),
        }
    }
    Ok(outcomes)
}

/// Runs `name` once, resolving every non-deterministic choice to 0 —
/// tree-walk implementation. Returns the behavior and the number of
/// steps executed.
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
    let func = super::entry(module, name)?;
    let mut interp = Interp {
        module,
        sem,
        limits,
        policy: Policy::Concrete,
        next_choice: 0,
        steps: 0,
        init_mem: mem,
        mem: None,
        trace: Vec::new(),
    };
    match interp.exec_function(func, args, 0) {
        Ok(FlowResult::Ub) => Ok((Outcome::Ub, interp.steps)),
        Ok(FlowResult::Ret(val)) => Ok((
            Outcome::Ret {
                mem: interp.final_mem(),
                trace: interp.trace,
                val,
            },
            interp.steps,
        )),
        Err(Stop::NeedChoice(_)) => unreachable!("concrete policy never forks"),
        Err(Stop::Err(e)) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frost_ir::parse_module;

    /// The historical clone-per-fork enumeration driver, kept here as
    /// the oracle for the shared-prefix rewrite.
    fn enumerate_naive(
        module: &Module,
        name: &str,
        args: &[Val],
        mem: &Memory,
        sem: Semantics,
        limits: Limits,
    ) -> Result<OutcomeSet, ExecError> {
        let func = module.function(name).expect("the test defines it");
        let mut outcomes = OutcomeSet::new();
        let mut stack: Vec<Vec<u64>> = vec![Vec::new()];
        let mut states: u64 = 0;
        while let Some(script) = stack.pop() {
            states += 1;
            if states > limits.max_states {
                return Err(ExecError::StateExplosion);
            }
            match run_with_script(module, func, args, mem, sem, limits, &script)? {
                RunResult::Done(outcome) => {
                    outcomes.insert(outcome);
                }
                RunResult::NeedChoice(n) => {
                    for i in 0..n {
                        let mut s = script.clone();
                        s.push(i);
                        stack.push(s);
                    }
                }
            }
        }
        Ok(outcomes)
    }

    // A function with nested forks of different widths: freeze i2
    // (4-way) feeding a branch (taken/not), plus an independent freeze
    // i1 — deep enough to exercise truncation across fork levels.
    const FORKY: &str = "define i8 @f() {\nentry:\n  %a = freeze i2 poison\n  %b = freeze i1 poison\n  %c = icmp eq i2 %a, 2\n  br i1 %c, label %t, label %e\nt:\n  %za = zext i2 %a to i8\n  ret i8 %za\ne:\n  %zb = zext i1 %b to i8\n  ret i8 %zb\n}";

    #[test]
    fn shared_prefix_enumeration_matches_clone_per_fork() {
        let m = parse_module(FORKY).unwrap();
        for sem in [Semantics::proposed(), Semantics::legacy_gvn()] {
            let shared = enumerate_outcomes(
                &m,
                &m.functions[0],
                &[],
                &Memory::zeroed(0),
                sem,
                Limits::default(),
            )
            .unwrap();
            let naive =
                enumerate_naive(&m, "f", &[], &Memory::zeroed(0), sem, Limits::default()).unwrap();
            assert_eq!(shared, naive, "under {}", sem.name);
        }
    }

    #[test]
    fn shared_prefix_state_accounting_is_unchanged() {
        // The drivers must explode at exactly the same budget.
        let m = parse_module(FORKY).unwrap();
        let mem = Memory::zeroed(0);
        let sem = Semantics::proposed();
        let mut boundary = None;
        for max_states in 1..64 {
            let limits = Limits {
                max_states,
                ..Limits::default()
            };
            let shared = enumerate_outcomes(&m, &m.functions[0], &[], &mem, sem, limits);
            let naive = enumerate_naive(&m, "f", &[], &mem, sem, limits);
            assert_eq!(
                shared.is_ok(),
                naive.is_ok(),
                "divergent state accounting at max_states = {max_states}"
            );
            if shared.is_ok() && boundary.is_none() {
                boundary = Some(max_states);
            }
        }
        assert!(boundary.is_some(), "enumeration fits in the sweep");
    }

    #[test]
    fn read_only_runs_return_the_initial_memory_image() {
        let m =
            parse_module("define i8 @f(i8* %p) {\nentry:\n  %v = load i8, i8* %p\n  ret i8 %v\n}")
                .unwrap();
        let mut init = Memory::zeroed(2);
        assert!(init.store(Memory::BASE, &lower(&Ty::i8(), &Val::int(8, 0x5a))));
        let set = enumerate_outcomes(
            &m,
            &m.functions[0],
            &[Val::ptr(Memory::BASE)],
            &init,
            Semantics::proposed(),
            Limits::default(),
        )
        .unwrap();
        let Outcome::Ret { val, mem, .. } = set.iter().next().unwrap() else {
            panic!("run returns");
        };
        assert_eq!(val.as_ref(), Some(&Val::int(8, 0x5a)));
        assert_eq!(
            mem,
            &init.snapshot(),
            "no store: outcome mem is the input image"
        );
    }

    #[test]
    fn stores_copy_on_write_and_never_leak_into_the_callers_memory() {
        let m =
            parse_module("define void @f(i8* %p) {\nentry:\n  store i8 9, i8* %p\n  ret void\n}")
                .unwrap();
        let init = Memory::zeroed(1);
        let before = init.snapshot();
        let set = enumerate_outcomes(
            &m,
            &m.functions[0],
            &[Val::ptr(Memory::BASE)],
            &init,
            Semantics::proposed(),
            Limits::default(),
        )
        .unwrap();
        let Outcome::Ret { mem, .. } = set.iter().next().unwrap() else {
            panic!("run returns");
        };
        assert_ne!(mem, &before, "the store is visible in the outcome");
        assert_eq!(init.snapshot(), before, "the caller's memory is untouched");
    }
}
