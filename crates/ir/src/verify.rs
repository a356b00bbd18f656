//! The IR verifier: structural, type, and SSA-dominance checking.
//!
//! The verifier has two modes mirroring the paper: the *legacy* mode
//! accepts both `undef` and `poison` constants, while the *proposed* mode
//! rejects `undef` (the paper's semantics removes it, §4).

use std::collections::{HashMap, HashSet};

use crate::dom::DomTree;
use crate::function::{Function, Module};
use crate::inst::{Inst, Operand, Rule, Terminator, Visit, Want};
use crate::types::Ty;
use crate::value::{BlockId, Constant, InstId, Value};

/// Which deferred-UB values the verifier admits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VerifyMode {
    /// Accept `undef` and `poison` (pre-taming LLVM).
    Legacy,
    /// Accept only `poison`; `undef` is a verifier error (§4 of the
    /// paper).
    Proposed,
}

/// Verifies a function under the proposed (undef-free) semantics.
///
/// # Errors
///
/// Returns the list of diagnostics if the function is ill-formed.
pub fn verify_function(func: &Function) -> Result<(), Vec<String>> {
    verify_function_mode(func, VerifyMode::Proposed)
}

/// Verifies a function under the legacy semantics (undef admitted).
///
/// # Errors
///
/// Returns the list of diagnostics if the function is ill-formed.
pub fn verify_function_legacy(func: &Function) -> Result<(), Vec<String>> {
    verify_function_mode(func, VerifyMode::Legacy)
}

/// Verifies a function under an explicit mode.
///
/// # Errors
///
/// Returns the list of diagnostics if the function is ill-formed.
pub fn verify_function_mode(func: &Function, mode: VerifyMode) -> Result<(), Vec<String>> {
    let errors = Verifier::run(func, mode).errors;
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Verifies every function in a module plus cross-function call
/// signatures.
///
/// # Errors
///
/// Returns diagnostics prefixed with the offending function's name.
pub fn verify_module(module: &Module, mode: VerifyMode) -> Result<(), Vec<String>> {
    verify_module_uses_undef(module, mode).map(drop)
}

/// [`verify_module`], also telling whether an operand was an
/// `undef`-bearing constant. The modes differ only in rejecting those,
/// so a [`VerifyMode::Legacy`] walk that returns `Ok(false)` means
/// [`VerifyMode::Proposed`] accepts the module too.
///
/// # Errors
///
/// Returns [`verify_module`]'s diagnostics.
pub fn verify_module_uses_undef(module: &Module, mode: VerifyMode) -> Result<bool, Vec<String>> {
    let mut errors = Vec::new();
    let mut uses_undef = false;
    let mut names = HashSet::new();
    for f in &module.functions {
        if !names.insert(f.name.as_str()) {
            errors.push(format!("duplicate definition of @{}", f.name));
        }
        let v = Verifier::run(f, mode);
        uses_undef |= v.uses_undef;
        errors.extend(v.errors.into_iter().map(|e| format!("@{}: {e}", f.name)));
        // Check call signatures against the module.
        for bb in f.block_ids() {
            for &id in &f.block(bb).insts {
                if let Inst::Call {
                    ret_ty,
                    callee,
                    arg_tys,
                    ..
                } = f.inst(id)
                {
                    match module.callee_signature(callee) {
                        None => {
                            errors.push(format!("@{}: call to unknown @{callee}", f.name));
                        }
                        Some((params, ret)) => {
                            if params != *arg_tys || ret != *ret_ty {
                                errors.push(format!(
                                    "@{}: call to @{callee} does not match its signature",
                                    f.name
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
    for d in &module.declarations {
        if !names.insert(d.name.as_str()) {
            errors.push(format!("duplicate symbol @{}", d.name));
        }
    }
    if errors.is_empty() {
        Ok(uses_undef)
    } else {
        Err(errors)
    }
}

struct Verifier<'a> {
    func: &'a Function,
    mode: VerifyMode,
    errors: Vec<String>,
    /// An operand was a constant containing `undef`.
    uses_undef: bool,
}

impl<'a> Verifier<'a> {
    fn err(&mut self, msg: String) {
        self.errors.push(msg);
    }

    fn run(func: &'a Function, mode: VerifyMode) -> Verifier<'a> {
        let mut v = Verifier {
            func,
            mode,
            errors: Vec::new(),
            uses_undef: false,
        };
        if func.blocks.is_empty() {
            v.err("function has no blocks".to_string());
            return v;
        }
        v.check_block_structure();
        v.check_types();
        if v.errors.is_empty() {
            // Dominance checking assumes structure/types are sane.
            v.check_dominance();
        }
        v
    }

    fn check_block_structure(&mut self) {
        let mut names = HashSet::new();
        let mut placement: HashMap<InstId, BlockId> = HashMap::new();
        for bb in self.func.block_ids() {
            let block = self.func.block(bb);
            if block.name.is_empty() {
                self.err(format!("block {bb} has an empty name"));
            }
            if !names.insert(block.name.clone()) {
                self.err(format!("duplicate block name '{}'", block.name));
            }
            for &id in &block.insts {
                if id.index() >= self.func.insts.len() {
                    self.err(format!(
                        "{id} referenced by block '{}' is out of bounds",
                        block.name
                    ));
                    continue;
                }
                if let Some(prev) = placement.insert(id, bb) {
                    self.err(format!("{id} placed in both {prev} and {bb}"));
                }
            }
            for succ in block.term.successors() {
                if succ.index() >= self.func.blocks.len() {
                    self.err(format!(
                        "block '{}' branches to out-of-bounds {succ}",
                        block.name
                    ));
                }
            }
            // Phis must be a prefix of the block.
            let mut seen_non_phi = false;
            for &id in &block.insts {
                if id.index() >= self.func.insts.len() {
                    continue;
                }
                match self.func.inst(id) {
                    Inst::Phi { .. } if seen_non_phi => {
                        self.err(format!(
                            "phi {id} is not at the start of block '{}'",
                            block.name
                        ));
                    }
                    Inst::Phi { .. } => {}
                    _ => seen_non_phi = true,
                }
            }
        }
    }

    fn operand_ty(&mut self, where_: &str, v: &Value) -> Option<Ty> {
        match v {
            Value::Inst(id) => {
                if id.index() >= self.func.insts.len() {
                    self.err(format!("{where_}: operand {id} is out of bounds"));
                    return None;
                }
                let ty = self.func.inst(*id).result_ty();
                if ty.is_void() {
                    self.err(format!("{where_}: operand {id} has void type"));
                    return None;
                }
                Some(ty)
            }
            Value::Arg(i) => {
                if *i as usize >= self.func.params.len() {
                    self.err(format!("{where_}: argument index {i} out of range"));
                    return None;
                }
                Some(self.func.params[*i as usize].ty.clone())
            }
            Value::Const(c) => {
                self.uses_undef |= c.contains_undef();
                if self.mode == VerifyMode::Proposed && c.contains_undef() {
                    self.err(format!(
                        "{where_}: undef constant is not permitted under the proposed semantics"
                    ));
                }
                if let Constant::Null(ty) = c {
                    if !ty.is_ptr() {
                        self.err(format!("{where_}: null constant must have pointer type"));
                    }
                }
                Some(c.ty())
            }
        }
    }

    fn expect_ty(&mut self, where_: &str, v: &Value, expected: Want<'_>) {
        if let Some(actual) = self.operand_ty(where_, v) {
            if !expected.matches(&actual) {
                self.err(format!(
                    "{where_}: expected type {expected}, found {actual}"
                ));
            }
        }
    }

    fn check_types(&mut self) {
        let preds = self.func.predecessors();
        for bb in self.func.block_ids() {
            let block = self.func.block(bb);
            for &id in &block.insts {
                if id.index() >= self.func.insts.len() {
                    continue;
                }
                self.check_inst(id, bb, &preds);
            }
            let where_ = format!("terminator of '{}'", block.name);
            match &block.term {
                Terminator::Ret(Some(v)) => {
                    let ret_ty = &self.func.ret_ty;
                    if ret_ty.is_void() {
                        self.err(format!("{where_}: ret with value in a void function"));
                    } else {
                        self.expect_ty(&where_, v, Want::Is(ret_ty));
                    }
                }
                Terminator::Ret(None) => {
                    if !self.func.ret_ty.is_void() {
                        self.err(format!("{where_}: ret void in a non-void function"));
                    }
                }
                Terminator::Br { cond, .. } => {
                    self.expect_ty(&where_, cond, Want::Is(&Ty::i1()));
                }
                Terminator::Jmp(_) | Terminator::Unreachable => {}
            }
        }
    }

    /// Checks one instruction: its operand types and type-field rules
    /// through the walk, then the rules the walk cannot state.
    fn check_inst(&mut self, id: InstId, bb: BlockId, preds: &[Vec<BlockId>]) {
        let inst = self.func.inst(id);
        let where_ = format!("{id} ({})", inst.mnemonic());
        inst.walk(&mut Typing {
            v: self,
            where_: &where_,
            mnemonic: inst.mnemonic(),
        });
        match inst {
            Inst::Bin { op, flags, .. } => {
                if (flags.nsw || flags.nuw) && !op.supports_wrap_flags() {
                    self.err(format!("{where_}: nsw/nuw not supported by {op}"));
                }
                if flags.exact && !op.supports_exact() {
                    self.err(format!("{where_}: exact not supported by {op}"));
                }
            }
            Inst::Icmp { ty, .. } if !ty.scalar_ty().is_int() && !ty.scalar_ty().is_ptr() => {
                self.err(format!("{where_}: cannot compare values of type {ty}"));
            }
            Inst::Phi { incoming, .. } => {
                let expected: HashSet<BlockId> = preds[bb.index()].iter().copied().collect();
                let mut seen = HashSet::new();
                for (_, from) in incoming {
                    if !expected.contains(from) {
                        self.err(format!(
                            "{where_}: incoming block {from} is not a predecessor of {bb}"
                        ));
                    }
                    if !seen.insert(*from) {
                        self.err(format!("{where_}: duplicate incoming block {from}"));
                    }
                }
                for p in &expected {
                    if !seen.contains(p) {
                        self.err(format!(
                            "{where_}: missing incoming value for predecessor {p}"
                        ));
                    }
                }
            }
            Inst::Cast {
                kind,
                from_ty,
                to_ty,
                ..
            } => {
                let ok = match (from_ty.scalar_ty(), to_ty.scalar_ty()) {
                    (Ty::Int(a), Ty::Int(b)) => match kind {
                        crate::inst::CastKind::Trunc => b < a,
                        _ => b > a,
                    },
                    _ => false,
                };
                let same_shape = from_ty.vector_len() == to_ty.vector_len();
                if !ok || !same_shape {
                    self.err(format!(
                        "{where_}: invalid {kind} from {from_ty} to {to_ty}"
                    ));
                }
            }
            Inst::Bitcast { from_ty, to_ty, .. } if from_ty.bitwidth() != to_ty.bitwidth() => {
                self.err(format!(
                    "{where_}: bitcast between different widths ({} vs {})",
                    from_ty.bitwidth(),
                    to_ty.bitwidth()
                ));
            }
            Inst::Gep { idx_ty, .. } if !idx_ty.is_int() => {
                self.err(format!(
                    "{where_}: gep index must be an integer, got {idx_ty}"
                ));
            }
            Inst::ExtractElement { len, idx, .. } | Inst::InsertElement { len, idx, .. } => {
                self.check_lane_index(&where_, idx, *len);
            }
            Inst::Call { args, arg_tys, .. } if args.len() != arg_tys.len() => {
                self.err(format!("{where_}: argument count mismatch"));
            }
            _ => {}
        }
    }

    fn check_lane_index(&mut self, where_: &str, idx: &Value, len: u32) {
        match idx.as_int_const() {
            Some(i) if i < u128::from(len) => {}
            Some(i) => self.err(format!("{where_}: lane index {i} out of range (< {len})")),
            None => self.err(format!("{where_}: lane index must be an integer constant")),
        }
    }

    fn check_dominance(&mut self) {
        let dt = DomTree::compute(self.func);
        // Map each placed instruction to (block, position).
        let mut place: HashMap<InstId, (BlockId, usize)> = HashMap::new();
        for bb in self.func.block_ids() {
            for (i, &id) in self.func.block(bb).insts.iter().enumerate() {
                place.insert(id, (bb, i));
            }
        }

        let check_use = |v: &Value,
                         user_bb: BlockId,
                         user_pos: usize,
                         errors: &mut Vec<String>,
                         label: &str| {
            let Value::Inst(def) = v else { return };
            let Some(&(def_bb, def_pos)) = place.get(def) else {
                errors.push(format!("{label}: uses unplaced instruction {def}"));
                return;
            };
            if !dt.is_reachable(user_bb) {
                return; // uses in unreachable code are not constrained
            }
            let ok = if def_bb == user_bb {
                def_pos < user_pos
            } else {
                dt.strictly_dominates(def_bb, user_bb)
            };
            if !ok {
                errors.push(format!(
                    "{label}: use of {def} is not dominated by its definition"
                ));
            }
        };

        for bb in self.func.block_ids() {
            let block = self.func.block(bb);
            for (pos, &id) in block.insts.iter().enumerate() {
                let inst = self.func.inst(id);
                let label = format!("{id} ({})", inst.mnemonic());
                if let Inst::Phi { incoming, .. } = inst {
                    // A phi use must dominate the end of the incoming
                    // block, not the phi itself.
                    for (v, from) in incoming {
                        let Value::Inst(def) = v else { continue };
                        let Some(&(def_bb, _)) = place.get(def) else {
                            self.errors
                                .push(format!("{label}: uses unplaced instruction {def}"));
                            continue;
                        };
                        if !dt.is_reachable(*from) {
                            continue;
                        }
                        if !dt.dominates(def_bb, *from) {
                            self.errors.push(format!(
                                "{label}: incoming value {def} does not dominate edge from {from}"
                            ));
                        }
                    }
                } else {
                    inst.for_each_operand(|v| {
                        check_use(v, bb, pos, &mut self.errors, &label);
                    });
                }
            }
            let n = block.insts.len();
            block.term.for_each_operand(|v| {
                check_use(
                    v,
                    bb,
                    n,
                    &mut self.errors,
                    &format!("terminator of '{}'", block.name),
                );
            });
        }
    }
}

/// The operand-type half of [`Verifier::check_inst`]: every operand
/// against the type the walk says it must have, every type field
/// against its rule.
struct Typing<'v, 'a> {
    v: &'v mut Verifier<'a>,
    where_: &'v str,
    mnemonic: &'static str,
}

impl Visit for Typing<'_, '_> {
    fn ty(&mut self, ty: &Ty, rule: Rule) {
        if let Some(why) = rule.violation(self.mnemonic, ty) {
            self.v.err(format!("{}: {why}", self.where_));
        }
    }
    fn operand(&mut self, val: &Value, how: Operand<'_>) {
        match how {
            Operand::After(ty) | Operand::Own(Some(ty)) => {
                self.v.expect_ty(self.where_, val, Want::Is(ty))
            }
            Operand::Again(want, _) => self.v.expect_ty(self.where_, val, want),
            Operand::Own(None) => {}
        }
    }
    fn vector(&mut self, len: &u32, elem: &Ty, val: &Value) {
        self.v.expect_ty(self.where_, val, Want::Vector(*len, elem));
    }
    fn incoming(&mut self, ty: &Ty, incoming: &Vec<(Value, BlockId)>) {
        for (val, _) in incoming {
            self.v.expect_ty(self.where_, val, Want::Is(ty));
        }
    }
    fn args(&mut self, tys: &Vec<Ty>, args: &Vec<Value>) {
        for (val, ty) in args.iter().zip(tys) {
            self.v.expect_ty(self.where_, val, Want::Is(ty));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, Cond, Flags};

    fn assert_error_containing(result: Result<(), Vec<String>>, needle: &str) {
        match result {
            Ok(()) => panic!("expected verification failure mentioning '{needle}'"),
            Err(errs) => assert!(
                errs.iter().any(|e| e.contains(needle)),
                "no diagnostic contains '{needle}': {errs:?}"
            ),
        }
    }

    #[test]
    fn accepts_well_formed_function() {
        let mut b = FunctionBuilder::new("f", &[("x", Ty::i32())], Ty::i32());
        let a = b.add_flags(Flags::NSW, b.arg(0), b.const_int(32, 1));
        b.ret(a);
        assert!(verify_function(&b.finish()).is_ok());
    }

    #[test]
    fn rejects_undef_in_proposed_mode() {
        let mut b = FunctionBuilder::new("f", &[], Ty::i32());
        let u = b.undef(Ty::i32());
        let a = b.add(u, b.const_int(32, 1));
        b.ret(a);
        let f = b.finish();
        assert!(verify_function_legacy(&f).is_ok());
        assert_error_containing(verify_function(&f), "undef");
    }

    #[test]
    fn rejects_type_mismatch() {
        let mut b = FunctionBuilder::new("f", &[("x", Ty::i32())], Ty::i32());
        // Manually construct an add with mismatched operand types.
        let id = b.func().insts.len();
        assert_eq!(id, 0);
        let a = b.add(b.arg(0), b.const_int(8, 1));
        b.ret(a);
        assert_error_containing(verify_function(&b.finish()), "expected type i32");
    }

    #[test]
    fn rejects_flags_on_unsupported_op() {
        let mut b = FunctionBuilder::new("f", &[("x", Ty::i32())], Ty::i32());
        let a = b.bin(BinOp::And, Flags::NSW, b.arg(0), b.const_int(32, 1));
        b.ret(a);
        assert_error_containing(verify_function(&b.finish()), "nsw/nuw not supported");
    }

    #[test]
    fn rejects_use_before_def() {
        use crate::inst::Inst;
        use crate::value::InstId;
        let mut f = Function::new(
            "f",
            vec![crate::function::Param {
                name: "x".into(),
                ty: Ty::i32(),
            }],
            Ty::i32(),
        );
        // %t0 uses %t1 which is defined after it.
        let t0 = f.add_inst(Inst::Bin {
            op: BinOp::Add,
            flags: Flags::NONE,
            ty: Ty::i32(),
            lhs: Value::Inst(InstId(1)),
            rhs: Value::int(32, 1),
        });
        let t1 = f.add_inst(Inst::Bin {
            op: BinOp::Add,
            flags: Flags::NONE,
            ty: Ty::i32(),
            lhs: Value::Arg(0),
            rhs: Value::int(32, 2),
        });
        f.block_mut(BlockId::ENTRY).insts = vec![t0, t1];
        f.block_mut(BlockId::ENTRY).term = Terminator::Ret(Some(Value::Inst(t1)));
        assert_error_containing(verify_function(&f), "not dominated");
    }

    #[test]
    fn rejects_bad_phi_edges() {
        let mut b = FunctionBuilder::new("f", &[("c", Ty::i1())], Ty::i32());
        let t = b.block("t");
        let j = b.block("j");
        b.br(b.arg(0), t, j);
        b.switch_to(t);
        b.jmp(j);
        b.switch_to(j);
        // Missing the incoming edge from entry.
        let p = b.phi(Ty::i32(), vec![(Value::int(32, 1), t)]);
        b.ret(p);
        assert_error_containing(verify_function(&b.finish()), "missing incoming");
    }

    #[test]
    fn rejects_branch_on_non_bool() {
        let mut b = FunctionBuilder::new("f", &[("x", Ty::i32())], Ty::Void);
        let t = b.block("t");
        b.br(b.arg(0), t, t);
        b.switch_to(t);
        b.ret_void();
        assert_error_containing(verify_function(&b.finish()), "expected type i1");
    }

    #[test]
    fn rejects_lane_index_out_of_range() {
        let vty = Ty::vector(2, Ty::Int(16));
        let mut b = FunctionBuilder::new("f", &[("v", vty)], Ty::Int(16));
        let e = b.extractelement(b.arg(0), b.const_int(32, 5));
        b.ret(e);
        assert_error_containing(verify_function(&b.finish()), "lane index 5 out of range");
    }

    #[test]
    fn rejects_invalid_cast_direction() {
        let mut b = FunctionBuilder::new("f", &[("x", Ty::i32())], Ty::i64());
        let t = b.trunc(b.arg(0), Ty::i64());
        b.ret(t);
        assert_error_containing(verify_function(&b.finish()), "invalid trunc");
    }

    #[test]
    fn rejects_phi_after_non_phi() {
        let mut b = FunctionBuilder::new("f", &[("x", Ty::i32())], Ty::i32());
        let a = b.add(b.arg(0), b.const_int(32, 1));
        let p = b.phi(Ty::i32(), vec![]);
        let _ = p;
        b.ret(a);
        assert_error_containing(verify_function(&b.finish()), "not at the start");
    }

    #[test]
    fn module_checks_call_signatures() {
        let mut b = FunctionBuilder::new("caller", &[("x", Ty::i32())], Ty::Void);
        let _ = b.call(Ty::i32(), "g", vec![b.arg(0)]);
        b.ret_void();
        let mut m = Module::new();
        m.functions.push(b.finish());
        assert_error_containing(verify_module(&m, VerifyMode::Proposed), "unknown @g");

        m.declarations.push(crate::function::FuncDecl {
            name: "g".into(),
            params: vec![Ty::i32()],
            ret_ty: Ty::i32(),
            attrs: Default::default(),
        });
        assert!(verify_module(&m, VerifyMode::Proposed).is_ok());

        m.declarations[0].ret_ty = Ty::i64();
        assert_error_containing(
            verify_module(&m, VerifyMode::Proposed),
            "does not match its signature",
        );
    }

    #[test]
    fn accepts_memory_instructions() {
        let mut b = FunctionBuilder::new("f", &[], Ty::i8());
        let p = b.alloca(Ty::i8());
        b.store(b.const_int(8, 7), p.clone());
        let addr = b.ptrtoint(p, Ty::i32());
        let q = b.inttoptr(addr, Ty::ptr_to(Ty::i8()));
        let v = b.load(Ty::i8(), q);
        b.ret(v);
        assert!(verify_function(&b.finish()).is_ok());
    }

    #[test]
    fn rejects_bad_cast_widths_for_memory_casts() {
        // ptrtoint must produce exactly the pointer width (i32).
        let mut b = FunctionBuilder::new("f", &[], Ty::i64());
        let p = b.alloca(Ty::i8());
        let a = b.ptrtoint(p, Ty::i64());
        b.ret(a);
        assert_error_containing(verify_function(&b.finish()), "ptrtoint result must be i32");

        // inttoptr must consume exactly the pointer width (i32).
        let mut b = FunctionBuilder::new("g", &[("x", Ty::i64())], Ty::i8());
        let q = b.inttoptr(b.arg(0), Ty::ptr_to(Ty::i8()));
        let v = b.load(Ty::i8(), q);
        b.ret(v);
        assert_error_containing(verify_function(&b.finish()), "inttoptr source must be i32");

        // ptrtoint source must be a pointer.
        let mut b = FunctionBuilder::new("h", &[("x", Ty::i32())], Ty::i32());
        let id = b.func().insts.len();
        assert_eq!(id, 0);
        let a = b.ptrtoint(b.arg(0), Ty::i32());
        b.ret(a);
        assert_error_containing(
            verify_function(&b.finish()),
            "ptrtoint source must be a pointer",
        );
    }

    #[test]
    fn rejects_alloca_of_unsized_type() {
        let mut b = FunctionBuilder::new("f", &[], Ty::Void);
        let _ = b.alloca(Ty::Void);
        b.ret_void();
        assert_error_containing(verify_function(&b.finish()), "cannot allocate unsized");
    }

    #[test]
    fn verifies_icmp_result_used_as_branch() {
        let mut b = FunctionBuilder::new("f", &[("x", Ty::i32())], Ty::i32());
        let t = b.block("t");
        let e = b.block("e");
        let c = b.icmp(Cond::Sgt, b.arg(0), b.const_int(32, 0));
        b.br(c, t, e);
        b.switch_to(t);
        b.ret(b.const_int(32, 1));
        b.switch_to(e);
        b.ret(b.const_int(32, 0));
        assert!(verify_function(&b.finish()).is_ok());
    }
}
