//! Instructions and terminators.
//!
//! The instruction set follows Figure 4 of the paper — binary arithmetic
//! with the `nsw`/`nuw`/`exact` poison-producing attributes, conversions,
//! `bitcast`, `select`, `icmp`, `phi`, the new `freeze`, `getelementptr`,
//! `load`/`store`, and vector element access — extended with the handful
//! of operations (`sub`, `mul`, `xor`, right shifts, remainders, `call`)
//! the paper's examples and evaluation rely on.

use std::fmt;

use crate::types::Ty;
use crate::value::{BlockId, InstId, Value};

pub mod descriptor;
pub mod walk;

pub use descriptor::{Descriptor, Opcode, ResultKind, UbClass};
pub use walk::{Operand, Rule, Sep, SubOpcode, Visit, VisitMut, Want};

/// A binary integer opcode.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Integer addition. Supports `nsw`/`nuw`.
    Add,
    /// Integer subtraction. Supports `nsw`/`nuw`.
    Sub,
    /// Integer multiplication. Supports `nsw`/`nuw`.
    Mul,
    /// Unsigned division. Division by zero is immediate UB. Supports
    /// `exact`.
    UDiv,
    /// Signed division. Division by zero and `INT_MIN / -1` are immediate
    /// UB. Supports `exact`.
    SDiv,
    /// Unsigned remainder. Remainder by zero is immediate UB.
    URem,
    /// Signed remainder. Remainder by zero and `INT_MIN % -1` are
    /// immediate UB.
    SRem,
    /// Left shift. Shift past bitwidth produces poison (the paper keeps
    /// LLVM's deferred UB for shift-past-bitwidth, §2.2). Supports
    /// `nsw`/`nuw`.
    Shl,
    /// Logical right shift. Shift past bitwidth produces poison. Supports
    /// `exact`.
    LShr,
    /// Arithmetic right shift. Shift past bitwidth produces poison.
    /// Supports `exact`.
    AShr,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
}

impl BinOp {
    /// All binary opcodes, in a fixed order (used by the exhaustive
    /// fuzzer).
    pub const ALL: [BinOp; 13] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::UDiv,
        BinOp::SDiv,
        BinOp::URem,
        BinOp::SRem,
        BinOp::Shl,
        BinOp::LShr,
        BinOp::AShr,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
    ];

    /// The instruction mnemonic, e.g. `"add"`.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::UDiv => "udiv",
            BinOp::SDiv => "sdiv",
            BinOp::URem => "urem",
            BinOp::SRem => "srem",
            BinOp::Shl => "shl",
            BinOp::LShr => "lshr",
            BinOp::AShr => "ashr",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
        }
    }

    /// Returns `true` if the opcode can trigger *immediate* UB for some
    /// defined operand values (division/remainder by zero, signed
    /// overflow of division). Such instructions may not be speculated
    /// without a non-poison, non-zero-divisor proof (§3.2, §5.6).
    pub fn may_have_immediate_ub(self) -> bool {
        matches!(self, BinOp::UDiv | BinOp::SDiv | BinOp::URem | BinOp::SRem)
    }

    /// Returns `true` if the `nsw`/`nuw` attributes are meaningful for
    /// this opcode.
    pub fn supports_wrap_flags(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Shl)
    }

    /// Returns `true` if the `exact` attribute is meaningful for this
    /// opcode.
    pub fn supports_exact(self) -> bool {
        matches!(self, BinOp::UDiv | BinOp::SDiv | BinOp::LShr | BinOp::AShr)
    }

    /// Returns `true` if `a op b == b op a` for all defined values.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
        )
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Poison-producing attributes on binary instructions (the paper's
/// `attr ::= nsw | nuw | exact`).
///
/// When the annotated condition is violated at run time, the instruction
/// produces `poison` instead of a wrapped/rounded result.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Flags {
    /// No signed wrap: signed overflow produces poison.
    pub nsw: bool,
    /// No unsigned wrap: unsigned overflow produces poison.
    pub nuw: bool,
    /// Exact division/shift: a non-zero remainder / shifted-out bit
    /// produces poison.
    pub exact: bool,
}

impl Flags {
    /// No attributes: the operation wraps/truncates.
    pub const NONE: Flags = Flags {
        nsw: false,
        nuw: false,
        exact: false,
    };
    /// `nsw` only.
    pub const NSW: Flags = Flags {
        nsw: true,
        nuw: false,
        exact: false,
    };
    /// `nuw` only.
    pub const NUW: Flags = Flags {
        nsw: false,
        nuw: true,
        exact: false,
    };
    /// `nsw nuw`.
    pub const NSW_NUW: Flags = Flags {
        nsw: true,
        nuw: true,
        exact: false,
    };
    /// `exact` only.
    pub const EXACT: Flags = Flags {
        nsw: false,
        nuw: false,
        exact: true,
    };

    /// Returns `true` if no attribute is set.
    pub fn is_none(self) -> bool {
        !self.nsw && !self.nuw && !self.exact
    }

    /// The intersection of two attribute sets (used when merging
    /// equivalent instructions: keeping only common attributes is always
    /// sound, since fewer attributes means fewer poison outcomes).
    pub fn intersect(self, other: Flags) -> Flags {
        Flags {
            nsw: self.nsw && other.nsw,
            nuw: self.nuw && other.nuw,
            exact: self.exact && other.exact,
        }
    }
}

impl fmt::Display for Flags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut put = |f: &mut fmt::Formatter<'_>, s: &str| -> fmt::Result {
            if !first {
                f.write_str(" ")?;
            }
            first = false;
            f.write_str(s)
        };
        if self.nsw {
            put(f, "nsw")?;
        }
        if self.nuw {
            put(f, "nuw")?;
        }
        if self.exact {
            put(f, "exact")?;
        }
        Ok(())
    }
}

/// An `icmp` condition code.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Unsigned greater than.
    Ugt,
    /// Unsigned greater or equal.
    Uge,
    /// Unsigned less than.
    Ult,
    /// Unsigned less or equal.
    Ule,
    /// Signed greater than.
    Sgt,
    /// Signed greater or equal.
    Sge,
    /// Signed less than.
    Slt,
    /// Signed less or equal.
    Sle,
}

impl Cond {
    /// All condition codes, in a fixed order.
    pub const ALL: [Cond; 10] = [
        Cond::Eq,
        Cond::Ne,
        Cond::Ugt,
        Cond::Uge,
        Cond::Ult,
        Cond::Ule,
        Cond::Sgt,
        Cond::Sge,
        Cond::Slt,
        Cond::Sle,
    ];

    /// The condition mnemonic, e.g. `"slt"`.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Ugt => "ugt",
            Cond::Uge => "uge",
            Cond::Ult => "ult",
            Cond::Ule => "ule",
            Cond::Sgt => "sgt",
            Cond::Sge => "sge",
            Cond::Slt => "slt",
            Cond::Sle => "sle",
        }
    }

    /// The condition with operands swapped: `a cond b == b cond.swapped() a`.
    pub fn swapped(self) -> Cond {
        match self {
            Cond::Eq => Cond::Eq,
            Cond::Ne => Cond::Ne,
            Cond::Ugt => Cond::Ult,
            Cond::Uge => Cond::Ule,
            Cond::Ult => Cond::Ugt,
            Cond::Ule => Cond::Uge,
            Cond::Sgt => Cond::Slt,
            Cond::Sge => Cond::Sle,
            Cond::Slt => Cond::Sgt,
            Cond::Sle => Cond::Sge,
        }
    }

    /// The logical negation: `a cond b == !(a cond.inverted() b)`.
    pub fn inverted(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Ugt => Cond::Ule,
            Cond::Uge => Cond::Ult,
            Cond::Ult => Cond::Uge,
            Cond::Ule => Cond::Ugt,
            Cond::Sgt => Cond::Sle,
            Cond::Sge => Cond::Slt,
            Cond::Slt => Cond::Sge,
            Cond::Sle => Cond::Sgt,
        }
    }

    /// Evaluates the condition on two defined `bits`-wide payloads.
    pub fn eval(self, bits: u32, a: u128, b: u128) -> bool {
        use crate::value::to_signed;
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Ugt => a > b,
            Cond::Uge => a >= b,
            Cond::Ult => a < b,
            Cond::Ule => a <= b,
            Cond::Sgt => to_signed(a, bits) > to_signed(b, bits),
            Cond::Sge => to_signed(a, bits) >= to_signed(b, bits),
            Cond::Slt => to_signed(a, bits) < to_signed(b, bits),
            Cond::Sle => to_signed(a, bits) <= to_signed(b, bits),
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A width-changing conversion kind (`conv ::= zext | sext | trunc`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CastKind {
    /// Zero extension to a wider integer.
    Zext,
    /// Sign extension to a wider integer.
    Sext,
    /// Truncation to a narrower integer.
    Trunc,
}

impl CastKind {
    /// All conversion kinds, in a fixed order.
    pub const ALL: [CastKind; 3] = [CastKind::Zext, CastKind::Sext, CastKind::Trunc];

    /// The instruction mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CastKind::Zext => "zext",
            CastKind::Sext => "sext",
            CastKind::Trunc => "trunc",
        }
    }
}

impl fmt::Display for CastKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A non-terminator instruction.
///
/// Every instruction carries enough type information to compute its
/// result type without consulting the enclosing function (see
/// [`Inst::result_ty`]).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Inst {
    /// `r = <op> <flags> <ty> lhs, rhs`
    Bin {
        /// Opcode.
        op: BinOp,
        /// Poison-producing attributes.
        flags: Flags,
        /// Operand/result type (integer or integer vector).
        ty: Ty,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// `r = icmp <cond> <ty> lhs, rhs` — result is `i1` (or a vector of
    /// `i1` for vector operands).
    Icmp {
        /// Condition code.
        cond: Cond,
        /// Operand type.
        ty: Ty,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// `r = select i1 cond, <ty> tval, fval`
    Select {
        /// The `i1` condition.
        cond: Value,
        /// Type of both arms and of the result.
        ty: Ty,
        /// Value if the condition is true.
        tval: Value,
        /// Value if the condition is false.
        fval: Value,
    },
    /// `r = phi <ty> [v, bb], ...`
    Phi {
        /// Result type.
        ty: Ty,
        /// One `(value, predecessor)` pair per incoming edge.
        incoming: Vec<(Value, BlockId)>,
    },
    /// `r = freeze <ty> v` — the paper's new instruction (§4): a no-op on
    /// defined values; on poison, non-deterministically picks an
    /// arbitrary defined value, the *same* one for all uses of `r`.
    Freeze {
        /// Operand/result type.
        ty: Ty,
        /// The value to freeze.
        val: Value,
    },
    /// `r = zext/sext/trunc <from_ty> v to <to_ty>`
    Cast {
        /// Which conversion.
        kind: CastKind,
        /// Operand type.
        from_ty: Ty,
        /// Result type.
        to_ty: Ty,
        /// The value to convert.
        val: Value,
    },
    /// `r = bitcast <from_ty> v to <to_ty>` — reinterprets the low-level
    /// bit representation (§4.2: `ty2↑(ty1↓(v))`).
    Bitcast {
        /// Operand type.
        from_ty: Ty,
        /// Result type; must have the same bitwidth as `from_ty`.
        to_ty: Ty,
        /// The value to reinterpret.
        val: Value,
    },
    /// `r = getelementptr <elem_ty>* base, <idx_ty> idx` — pointer
    /// arithmetic: `base + idx * sizeof(elem_ty)`.
    Gep {
        /// Pointee type determining the stride.
        elem_ty: Ty,
        /// Base pointer of type `elem_ty*`.
        base: Value,
        /// Index type (integer).
        idx_ty: Ty,
        /// Index operand.
        idx: Value,
        /// `inbounds`: out-of-bounds/overflowing arithmetic produces
        /// poison (this is the "pointer arithmetic overflow is undefined"
        /// behaviour that justifies Figure 3's widening).
        inbounds: bool,
    },
    /// `r = load <ty>, <ty>* ptr`
    Load {
        /// Loaded type.
        ty: Ty,
        /// Pointer operand.
        ptr: Value,
    },
    /// `store <ty> val, <ty>* ptr` — produces no value.
    Store {
        /// Stored type.
        ty: Ty,
        /// Stored value.
        val: Value,
        /// Pointer operand.
        ptr: Value,
    },
    /// `r = extractelement <N x ty> vec, idx` — `idx` must be a constant
    /// (Figure 4).
    ExtractElement {
        /// Vector element type (the result type).
        elem_ty: Ty,
        /// Vector length.
        len: u32,
        /// Vector operand.
        vec: Value,
        /// Constant element index.
        idx: Value,
    },
    /// `r = insertelement <N x ty> vec, ty elt, idx` — `idx` must be a
    /// constant (Figure 4).
    InsertElement {
        /// Vector element type.
        elem_ty: Ty,
        /// Vector length (the result is `<len x elem_ty>`).
        len: u32,
        /// Vector operand.
        vec: Value,
        /// Replacement element.
        elt: Value,
        /// Constant element index.
        idx: Value,
    },
    /// `r = call <ret_ty> @callee(args...)` — direct call to a function
    /// declared or defined in the module.
    Call {
        /// Return type (`void` for no result).
        ret_ty: Ty,
        /// Callee symbol name (without the `@`).
        callee: String,
        /// Argument types.
        arg_tys: Vec<Ty>,
        /// Argument operands.
        args: Vec<Value>,
    },
    /// `r = alloca <ty>` — allocates a fresh logical block of
    /// `sizeof(ty)` bytes and yields a pointer to its first byte. In
    /// the two-phase memory model the block initially has an identity
    /// but no observable address (the *infinite* phase); a `ptrtoint`
    /// or `inttoptr` anywhere in the run forces concretization. The
    /// block's bytes start uninitialized (per-byte poison under the
    /// proposed semantics, undef under the legacy ones).
    Alloca {
        /// Allocated (pointee) type; the result is `ty*`.
        ty: Ty,
    },
    /// `r = ptrtoint <ty>* v to <to_ty>` — observes the concrete
    /// address of a pointer, forcing the whole memory into the finite
    /// phase (every block receives its deterministic base address).
    PtrToInt {
        /// Pointer operand type.
        from_ty: Ty,
        /// Integer result type (must be exactly `i32` = `PTR_BITS`).
        to_ty: Ty,
        /// The pointer whose address is taken.
        val: Value,
    },
    /// `r = inttoptr <from_ty> v to <ty>*` — forges a pointer from an
    /// integer address, forcing the finite phase. The result carries no
    /// block provenance; accesses through it resolve against whatever
    /// block the address lands in.
    IntToPtr {
        /// Integer operand type (must be exactly `i32` = `PTR_BITS`).
        from_ty: Ty,
        /// Pointer result type.
        to_ty: Ty,
        /// The address to reinterpret.
        val: Value,
    },
    /// `assume i1 %c` — asserts a fact to the optimizer; produces no
    /// value. Executing `assume` on `false` *or on poison* is
    /// immediate UB (the guard consumes the fact, so deferred UB in
    /// the condition becomes immediate here — the same promotion a
    /// `br` performs under the proposed semantics). `freeze` on the
    /// condition launders the poison half away, leaving only the
    /// false-fact UB.
    Assume {
        /// The asserted `i1` fact.
        cond: Value,
    },
}

impl Inst {
    /// The type of the instruction's result. `void` for `store` and
    /// void calls.
    pub fn result_ty(&self) -> Ty {
        match self {
            Inst::Bin { ty, .. } | Inst::Select { ty, .. } | Inst::Phi { ty, .. } => ty.clone(),
            Inst::Freeze { ty, .. } => ty.clone(),
            Inst::Icmp { ty, .. } => match ty {
                Ty::Vector { elems, .. } => Ty::vector(*elems, Ty::i1()),
                _ => Ty::i1(),
            },
            Inst::Cast { to_ty, .. } | Inst::Bitcast { to_ty, .. } => to_ty.clone(),
            Inst::Gep { elem_ty, .. } => Ty::ptr_to(elem_ty.clone()),
            Inst::Load { ty, .. } => ty.clone(),
            Inst::ExtractElement { elem_ty, .. } => elem_ty.clone(),
            Inst::InsertElement { elem_ty, len, .. } => Ty::vector(*len, elem_ty.clone()),
            Inst::Call { ret_ty, .. } => ret_ty.clone(),
            Inst::Alloca { ty } => Ty::ptr_to(ty.clone()),
            Inst::PtrToInt { to_ty, .. } | Inst::IntToPtr { to_ty, .. } => to_ty.clone(),
            // Everything else is a `ResultKind::Void` row of the
            // descriptor table (store, assume).
            _ => {
                debug_assert_eq!(self.descriptor().result, ResultKind::Void);
                Ty::Void
            }
        }
    }

    /// The instruction mnemonic for diagnostics. Sub-opcodes carry
    /// their own spelling; every other variant reads the descriptor
    /// table's row.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Inst::Bin { op, .. } => op.mnemonic(),
            Inst::Cast { kind, .. } => kind.mnemonic(),
            _ => self
                .descriptor()
                .mnemonic
                .expect("non-sub-opcode rows carry a mnemonic"),
        }
    }

    /// Returns `true` if this instruction writes memory, calls a
    /// function, or otherwise changes the memory state (and therefore
    /// may not be removed even if its result is unused).
    ///
    /// `alloca` and the int↔ptr casts are included: an alloca advances
    /// the deterministic block layout (removing one shifts every later
    /// block's base), and the casts flip the memory into the finite
    /// phase, which makes strictly more raw-address accesses defined —
    /// deleting a "dead" cast could turn a defined run into UB. So is
    /// `assume`: the asserted fact is observable (dropping it erases a
    /// UB condition), though the guard-aware DCE may still delete one
    /// when the fact is provably laundered.
    pub fn has_side_effects(&self) -> bool {
        self.descriptor().side_effects
    }

    /// Returns `true` if this instruction can trigger *immediate* UB and
    /// therefore may not be hoisted past control flow without a safety
    /// proof (§3.2). Guards count: `assume` on a false or poison fact
    /// is immediate UB.
    pub fn may_have_immediate_ub(&self) -> bool {
        match self {
            Inst::Bin { op, .. } => op.may_have_immediate_ub(),
            _ => self.descriptor().ub != UbClass::Deferred,
        }
    }

    /// Returns `true` if this is a `freeze` instruction.
    ///
    /// Freeze is special in two ways the optimizer must respect: it may
    /// not be *duplicated* (each copy could pick a different value, §5.5)
    /// and distinct freezes of the same operand are not equivalent (GVN,
    /// §6).
    pub fn is_freeze(&self) -> bool {
        matches!(self, Inst::Freeze { .. })
    }

    /// Visits every operand, in textual order.
    pub fn for_each_operand(&self, f: impl FnMut(&Value)) {
        self.walk(&mut walk::Operands(f));
    }

    /// Visits every operand mutably (used by passes when rewriting
    /// operands).
    pub fn for_each_operand_mut(&mut self, f: impl FnMut(&mut Value)) {
        self.walk_mut(&mut walk::Operands(f));
    }

    /// Collects the operands into a vector.
    pub fn operands(&self) -> Vec<Value> {
        let mut out = Vec::new();
        self.for_each_operand(|v| out.push(v.clone()));
        out
    }

    /// Returns `true` if any operand mentions the result of instruction
    /// `id`.
    pub fn uses_inst(&self, id: InstId) -> bool {
        let mut found = false;
        self.for_each_operand(|v| {
            if *v == Value::Inst(id) {
                found = true;
            }
        });
        found
    }
}

/// A block terminator.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Terminator {
    /// `ret <ty> v` or `ret void`.
    Ret(Option<Value>),
    /// `br i1 cond, label %then, label %else`. Branching on poison is
    /// immediate UB under the proposed semantics (§4), a
    /// non-deterministic choice under the legacy loop-unswitching
    /// interpretation (§3.3).
    Br {
        /// The `i1` condition.
        cond: Value,
        /// Successor when true.
        then_bb: BlockId,
        /// Successor when false.
        else_bb: BlockId,
    },
    /// `br label %dest` — unconditional branch.
    Jmp(BlockId),
    /// `unreachable` — executing this is immediate UB.
    Unreachable,
}

impl Terminator {
    /// Successor blocks of this terminator, in branch order.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Ret(_) | Terminator::Unreachable => Vec::new(),
            Terminator::Br {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            Terminator::Jmp(dest) => vec![*dest],
        }
    }

    /// Visits the value operand of the terminator, if any.
    pub fn for_each_operand(&self, mut f: impl FnMut(&Value)) {
        match self {
            Terminator::Ret(Some(v)) => f(v),
            Terminator::Br { cond, .. } => f(cond),
            _ => {}
        }
    }

    /// Visits the value operand of the terminator mutably, if any.
    pub fn for_each_operand_mut(&mut self, mut f: impl FnMut(&mut Value)) {
        match self {
            Terminator::Ret(Some(v)) => f(v),
            Terminator::Br { cond, .. } => f(cond),
            _ => {}
        }
    }

    /// Rewrites successor block ids through `f`.
    pub fn map_successors(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Terminator::Br {
                then_bb, else_bb, ..
            } => {
                *then_bb = f(*then_bb);
                *else_bb = f(*else_bb);
            }
            Terminator::Jmp(dest) => *dest = f(*dest),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cond_eval_signed_vs_unsigned() {
        // On i2: 0b11 is 3 unsigned, -1 signed.
        assert!(Cond::Ugt.eval(2, 0b11, 0b01));
        assert!(!Cond::Sgt.eval(2, 0b11, 0b01));
        assert!(Cond::Slt.eval(2, 0b11, 0b00));
        assert!(Cond::Sle.eval(8, 0x80, 0x7f)); // -128 <= 127
    }

    #[test]
    fn cond_swapped_is_consistent_with_eval() {
        for c in Cond::ALL {
            for a in 0..4u128 {
                for b in 0..4u128 {
                    assert_eq!(c.eval(2, a, b), c.swapped().eval(2, b, a), "{c} {a} {b}");
                }
            }
        }
    }

    #[test]
    fn cond_inverted_is_negation() {
        for c in Cond::ALL {
            for a in 0..4u128 {
                for b in 0..4u128 {
                    assert_eq!(c.eval(2, a, b), !c.inverted().eval(2, a, b));
                }
            }
        }
    }

    #[test]
    fn flags_display() {
        assert_eq!(Flags::NSW.to_string(), "nsw");
        assert_eq!(Flags::NSW_NUW.to_string(), "nsw nuw");
        assert_eq!(Flags::NONE.to_string(), "");
        assert_eq!(Flags::EXACT.to_string(), "exact");
    }

    #[test]
    fn flags_intersect_keeps_common() {
        assert_eq!(Flags::NSW.intersect(Flags::NSW_NUW), Flags::NSW);
        assert_eq!(Flags::NSW.intersect(Flags::NUW), Flags::NONE);
    }

    #[test]
    fn result_types() {
        let add = Inst::Bin {
            op: BinOp::Add,
            flags: Flags::NONE,
            ty: Ty::i32(),
            lhs: Value::Arg(0),
            rhs: Value::Arg(1),
        };
        assert_eq!(add.result_ty(), Ty::i32());

        let cmp = Inst::Icmp {
            cond: Cond::Eq,
            ty: Ty::vector(4, Ty::i32()),
            lhs: Value::Arg(0),
            rhs: Value::Arg(1),
        };
        assert_eq!(cmp.result_ty(), Ty::vector(4, Ty::i1()));

        let store = Inst::Store {
            ty: Ty::i8(),
            val: Value::Arg(0),
            ptr: Value::Arg(1),
        };
        assert_eq!(store.result_ty(), Ty::Void);

        let gep = Inst::Gep {
            elem_ty: Ty::i32(),
            base: Value::Arg(0),
            idx_ty: Ty::i32(),
            idx: Value::Arg(1),
            inbounds: true,
        };
        assert_eq!(gep.result_ty(), Ty::ptr_to(Ty::i32()));
    }

    #[test]
    fn operand_visiting() {
        let sel = Inst::Select {
            cond: Value::Arg(0),
            ty: Ty::i8(),
            tval: Value::Inst(InstId(1)),
            fval: Value::int(8, 3),
        };
        assert_eq!(sel.operands().len(), 3);
        assert!(sel.uses_inst(InstId(1)));
        assert!(!sel.uses_inst(InstId(2)));
    }

    #[test]
    fn terminator_successors() {
        let br = Terminator::Br {
            cond: Value::Arg(0),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert_eq!(br.successors(), vec![BlockId(1), BlockId(2)]);
        assert_eq!(Terminator::Jmp(BlockId(3)).successors(), vec![BlockId(3)]);
        assert!(Terminator::Ret(None).successors().is_empty());
    }

    #[test]
    fn wrap_flag_support() {
        assert!(BinOp::Add.supports_wrap_flags());
        assert!(BinOp::Shl.supports_wrap_flags());
        assert!(!BinOp::UDiv.supports_wrap_flags());
        assert!(BinOp::UDiv.supports_exact());
        assert!(BinOp::AShr.supports_exact());
        assert!(!BinOp::Add.supports_exact());
    }

    #[test]
    fn memory_inst_classification() {
        let a = Inst::Alloca { ty: Ty::i32() };
        assert_eq!(a.result_ty(), Ty::ptr_to(Ty::i32()));
        assert!(a.has_side_effects(), "layout is observable");
        assert!(a.operands().is_empty());
        let p2i = Inst::PtrToInt {
            from_ty: Ty::ptr_to(Ty::i8()),
            to_ty: Ty::i32(),
            val: Value::Arg(0),
        };
        assert_eq!(p2i.result_ty(), Ty::i32());
        assert!(p2i.has_side_effects(), "phase flip is observable");
        let i2p = Inst::IntToPtr {
            from_ty: Ty::i32(),
            to_ty: Ty::ptr_to(Ty::i8()),
            val: Value::Arg(0),
        };
        assert_eq!(i2p.result_ty(), Ty::ptr_to(Ty::i8()));
        assert_eq!(i2p.operands().len(), 1);
        assert!(!i2p.may_have_immediate_ub());
    }

    #[test]
    fn immediate_ub_classification() {
        assert!(BinOp::SDiv.may_have_immediate_ub());
        assert!(!BinOp::Add.may_have_immediate_ub());
        let ld = Inst::Load {
            ty: Ty::i8(),
            ptr: Value::Arg(0),
        };
        assert!(ld.may_have_immediate_ub());
        let fr = Inst::Freeze {
            ty: Ty::i8(),
            val: Value::Arg(0),
        };
        assert!(!fr.may_have_immediate_ub());
        assert!(fr.is_freeze());
    }
}
