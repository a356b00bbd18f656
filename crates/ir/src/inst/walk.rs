//! The field walk: every instruction's fields, written down once.
//!
//! `add nsw i8 %x, 1` is the sub-opcode `add`, the flags `nsw`, the
//! type `i8` (which must be an integer) and the operands `%x` and `1`,
//! both of that type, with a comma between them. [`Inst::walk`] and
//! [`Inst::walk_mut`] visit exactly those fields in exactly that order,
//! together with the separators, the type each operand must have and
//! the rule each type field obeys. Both are generated from the one arm
//! list below (the `walks!` invocation), and so are [`Inst::blank`] and
//! [`Inst::opcode`].
//!
//! Every layer that used to keep its own per-variant match is a small
//! visitor over this one shape: the printer, the parser (the mnemonic
//! picks a blank instance that `walk_mut` fills from the tokens), the
//! [`FunctionKey`](crate::FunctionKey) encoder, the operand visitors
//! and the verifier's operand-type checks.

use std::fmt;

use super::{BinOp, CastKind, Cond, Flags, Inst, Opcode};
use crate::types::{Ty, PTR_BITS};
use crate::value::{BlockId, Value};

/// A sub-opcode that is spelled as the instruction's mnemonic (`add`,
/// `zext`): the mnemonic picks both the variant and the sub-opcode.
pub trait SubOpcode: Copy + 'static {
    /// Every sub-opcode of the variant.
    const ALL: &'static [Self];
    /// The mnemonic.
    fn mnemonic(self) -> &'static str;
    /// The word the [`FunctionKey`](crate::FunctionKey) encodes.
    fn code(self) -> u64;
}

impl SubOpcode for BinOp {
    const ALL: &'static [BinOp] = &BinOp::ALL;
    fn mnemonic(self) -> &'static str {
        BinOp::mnemonic(self)
    }
    fn code(self) -> u64 {
        self as u64
    }
}

impl SubOpcode for CastKind {
    const ALL: &'static [CastKind] = &CastKind::ALL;
    fn mnemonic(self) -> &'static str {
        CastKind::mnemonic(self)
    }
    fn code(self) -> u64 {
        self as u64
    }
}

/// A rule a type field obeys. The parser checks it with the caret on
/// the spelled type, the verifier on the built instruction, and both
/// report the same [`violation`](Rule::violation).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rule {
    /// No rule beyond the type grammar, which reads no `void` here.
    Any,
    /// Any type, `void` included (a call's return type).
    MaybeVoid,
    /// An integer or a vector of integers.
    Int,
    /// A type with a non-zero size (`alloca`).
    Sized,
    /// A pointer; the string names the field (`source`, `result`).
    Ptr(&'static str),
    /// Exactly `i32`, the pointer width; the string names the field.
    PtrWidth(&'static str),
}

impl Rule {
    /// Why `ty` breaks this rule in a `mnemonic` instruction, or `None`
    /// if it holds.
    pub fn violation(self, mnemonic: &str, ty: &Ty) -> Option<String> {
        match self {
            Rule::Int if !ty.scalar_ty().is_int() => {
                Some(format!("operand type {ty} is not integer"))
            }
            Rule::Sized if ty.is_void() || ty.byte_size() == 0 => {
                Some(format!("cannot allocate unsized type {ty}"))
            }
            Rule::Ptr(field) if !ty.is_ptr() => {
                Some(format!("{mnemonic} {field} must be a pointer, got {ty}"))
            }
            Rule::PtrWidth(field) if *ty != Ty::Int(PTR_BITS) => Some(format!(
                "{mnemonic} {field} must be i{PTR_BITS} (the pointer width), got {ty}"
            )),
            _ => None,
        }
    }
}

/// A required operand type, described without building it.
#[derive(Clone, Copy, Debug)]
pub enum Want<'a> {
    /// Exactly this type.
    Is(&'a Ty),
    /// A pointer to this type.
    PtrTo(&'a Ty),
    /// `<len x elem>`.
    Vector(u32, &'a Ty),
}

impl Want<'_> {
    /// Returns `true` if `ty` is the wanted type.
    pub fn matches(self, ty: &Ty) -> bool {
        match (self, ty) {
            (Want::Is(want), _) => want == ty,
            (Want::PtrTo(want), Ty::Ptr(pointee)) => **pointee == *want,
            (Want::Vector(len, want), Ty::Vector { elems, elem }) => {
                *elems == len && **elem == *want
            }
            _ => false,
        }
    }
}

impl fmt::Display for Want<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Want::Is(ty) => write!(f, "{ty}"),
            Want::PtrTo(ty) => write!(f, "{ty}*"),
            Want::Vector(len, ty) => write!(f, "<{len} x {ty}>"),
        }
    }
}

/// How an operand's type reaches the text, and what it must be.
#[derive(Clone, Copy, Debug)]
pub enum Operand<'a> {
    /// Typed by the field spelled just before it: the `%x` of
    /// `add i8 %x, 1`.
    After(&'a Ty),
    /// Its required type is spelled again in front of it: the `i8*` of
    /// `load i8, i8* %p`. The string names that spelling in diagnostics.
    Again(Want<'a>, &'static str),
    /// Spelled with its own type, which must be the given one if any:
    /// the `i1 %c` of `assume`, the `i32 0` lane index of
    /// `extractelement`.
    Own(Option<&'a Ty>),
}

/// Punctuation between two fields.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Sep {
    /// `,`
    Comma,
    /// `to`
    To,
}

/// The `i1` that conditions and guard facts must have.
static I1: Ty = Ty::Int(1);

macro_rules! visitor {
    ($(#[$doc:meta])* $Visit:ident $($mut:ident)?) => {
        $(#[$doc])*
        ///
        /// Every event has an empty default, so a visitor implements only
        /// the fields it reads.
        // The parser grows the phi and call lists, so they are passed as
        // vectors in both traits.
        #[allow(unused_variables, clippy::ptr_arg)]
        pub trait $Visit {
            /// The sub-opcode the mnemonic spells (`add`, `zext`).
            fn opcode<S: SubOpcode>(&mut self, op: &$($mut)? S) {}
            /// The `icmp` condition word.
            fn cond(&mut self, cond: &$($mut)? Cond) {}
            /// Poison-producing attributes.
            fn flags(&mut self, flags: &$($mut)? Flags) {}
            /// An optional keyword (`inbounds`), present when `on` is set.
            fn keyword(&mut self, word: &'static str, on: &$($mut)? bool) {}
            /// A type field obeying `rule`.
            fn ty(&mut self, ty: &$($mut)? Ty, rule: Rule) {}
            /// A value operand.
            fn operand(&mut self, val: &$($mut)? Value, how: Operand<'_>) {}
            /// A vector operand spelled `<len x elem> val`, whose type is
            /// the two fields `len` and `elem`.
            fn vector(&mut self, len: &$($mut)? u32, elem: &$($mut)? Ty, val: &$($mut)? Value) {}
            /// Phi incomings `[ v, %label ], ...`, each value of type `ty`.
            fn incoming(&mut self, ty: &Ty, incoming: &$($mut)? Vec<(Value, BlockId)>) {}
            /// The callee `@name`.
            fn callee(&mut self, name: &$($mut)? String) {}
            /// The argument list `(ty v, ...)`, each value of its type.
            fn args(&mut self, tys: &$($mut)? Vec<Ty>, args: &$($mut)? Vec<Value>) {}
            /// Punctuation.
            fn sep(&mut self, sep: Sep) {}
        }
    };
}

visitor!(
    /// A reader of [`Inst::walk`].
    Visit
);
visitor!(
    /// A writer of [`Inst::walk_mut`].
    VisitMut mut
);

/// A placeholder value for a field the parser has not read yet.
trait Blank {
    fn blank() -> Self;
}

macro_rules! blank {
    ($($t:ty = $v:expr),* $(,)?) => {
        $(impl Blank for $t {
            fn blank() -> Self {
                $v
            }
        })*
    };
}

blank!(
    BinOp = BinOp::Add,
    CastKind = CastKind::Zext,
    Cond = Cond::Eq,
    Flags = Flags::NONE,
    Ty = Ty::Void,
    Value = Value::Arg(0),
    u32 = 0,
    bool = false,
    String = String::new(),
);

impl<T> Blank for Vec<T> {
    fn blank() -> Self {
        Vec::new()
    }
}

/// Generates `walk`, `walk_mut`, `blank` and `opcode` from one arm per
/// variant. Each arm binds every field (the pattern has no `..`), so a
/// new field cannot be left out of the walk.
macro_rules! walks {
    ($v:ident; $($Variant:ident { $($field:ident),* } => $body:block)*) => {
        impl Inst {
            /// Visits the fields in canonical textual order.
            #[inline]
            pub fn walk<V: Visit>(&self, $v: &mut V) {
                match self {
                    $(Inst::$Variant { $($field),* } => $body)*
                }
            }

            /// Visits the fields in canonical textual order, writably.
            #[inline]
            pub fn walk_mut<V: VisitMut>(&mut self, $v: &mut V) {
                match self {
                    $(Inst::$Variant { $($field),* } => $body)*
                }
            }

            /// An `opcode` instruction whose fields are placeholders, for
            /// [`walk_mut`](Inst::walk_mut) to fill.
            pub fn blank(opcode: Opcode) -> Inst {
                match opcode {
                    $(Opcode::$Variant => Inst::$Variant { $($field: Blank::blank()),* },)*
                }
            }

            /// The variant-level opcode of this instruction.
            pub fn opcode(&self) -> Opcode {
                match self {
                    $(Inst::$Variant { .. } => Opcode::$Variant,)*
                }
            }
        }
    };
}

walks! { v;
    Bin { op, flags, ty, lhs, rhs } => {
        v.opcode(op);
        v.flags(flags);
        v.ty(ty, Rule::Int);
        v.operand(lhs, Operand::After(ty));
        v.sep(Sep::Comma);
        v.operand(rhs, Operand::After(ty));
    }
    Icmp { cond, ty, lhs, rhs } => {
        v.cond(cond);
        v.ty(ty, Rule::Any);
        v.operand(lhs, Operand::After(ty));
        v.sep(Sep::Comma);
        v.operand(rhs, Operand::After(ty));
    }
    Select { cond, ty, tval, fval } => {
        v.operand(cond, Operand::Own(Some(&I1)));
        v.sep(Sep::Comma);
        v.ty(ty, Rule::Any);
        v.operand(tval, Operand::After(ty));
        v.sep(Sep::Comma);
        v.operand(fval, Operand::Again(Want::Is(ty), "arms"));
    }
    Phi { ty, incoming } => {
        v.ty(ty, Rule::Any);
        v.incoming(ty, incoming);
    }
    Freeze { ty, val } => {
        v.ty(ty, Rule::Any);
        v.operand(val, Operand::After(ty));
    }
    Cast { kind, from_ty, to_ty, val } => {
        v.opcode(kind);
        v.ty(from_ty, Rule::Any);
        v.operand(val, Operand::After(from_ty));
        v.sep(Sep::To);
        v.ty(to_ty, Rule::Any);
    }
    Bitcast { from_ty, to_ty, val } => {
        v.ty(from_ty, Rule::Any);
        v.operand(val, Operand::After(from_ty));
        v.sep(Sep::To);
        v.ty(to_ty, Rule::Any);
    }
    Gep { elem_ty, base, idx_ty, idx, inbounds } => {
        v.keyword("inbounds", inbounds);
        v.ty(elem_ty, Rule::Any);
        v.sep(Sep::Comma);
        v.operand(base, Operand::Again(Want::PtrTo(elem_ty), "pointer"));
        v.sep(Sep::Comma);
        v.ty(idx_ty, Rule::Any);
        v.operand(idx, Operand::After(idx_ty));
    }
    Load { ty, ptr } => {
        v.ty(ty, Rule::Any);
        v.sep(Sep::Comma);
        v.operand(ptr, Operand::Again(Want::PtrTo(ty), "pointer"));
    }
    Store { ty, val, ptr } => {
        v.ty(ty, Rule::Any);
        v.operand(val, Operand::After(ty));
        v.sep(Sep::Comma);
        v.operand(ptr, Operand::Again(Want::PtrTo(ty), "pointer"));
    }
    ExtractElement { elem_ty, len, vec, idx } => {
        v.vector(len, elem_ty, vec);
        v.sep(Sep::Comma);
        v.operand(idx, Operand::Own(None));
    }
    InsertElement { elem_ty, len, vec, elt, idx } => {
        v.vector(len, elem_ty, vec);
        v.sep(Sep::Comma);
        v.operand(elt, Operand::Again(Want::Is(elem_ty), "element and lanes"));
        v.sep(Sep::Comma);
        v.operand(idx, Operand::Own(None));
    }
    Call { ret_ty, callee, arg_tys, args } => {
        v.ty(ret_ty, Rule::MaybeVoid);
        v.callee(callee);
        v.args(arg_tys, args);
    }
    Alloca { ty } => {
        v.ty(ty, Rule::Sized);
    }
    PtrToInt { from_ty, to_ty, val } => {
        v.ty(from_ty, Rule::Ptr("source"));
        v.operand(val, Operand::After(from_ty));
        v.sep(Sep::To);
        v.ty(to_ty, Rule::PtrWidth("result"));
    }
    IntToPtr { from_ty, to_ty, val } => {
        v.ty(from_ty, Rule::PtrWidth("source"));
        v.operand(val, Operand::After(from_ty));
        v.sep(Sep::To);
        v.ty(to_ty, Rule::Ptr("result"));
    }
    Assume { cond } => {
        v.operand(cond, Operand::Own(Some(&I1)));
    }
}

/// Hands every operand to a closure: the walker behind
/// [`Inst::for_each_operand`] and [`Inst::for_each_operand_mut`].
pub(super) struct Operands<F>(pub(super) F);

impl<F: FnMut(&Value)> Visit for Operands<F> {
    fn operand(&mut self, val: &Value, _: Operand<'_>) {
        (self.0)(val)
    }
    fn vector(&mut self, _: &u32, _: &Ty, val: &Value) {
        (self.0)(val)
    }
    fn incoming(&mut self, _: &Ty, incoming: &Vec<(Value, BlockId)>) {
        incoming.iter().for_each(|(val, _)| (self.0)(val))
    }
    fn args(&mut self, _: &Vec<Ty>, args: &Vec<Value>) {
        args.iter().for_each(&mut self.0)
    }
}

impl<F: FnMut(&mut Value)> VisitMut for Operands<F> {
    fn operand(&mut self, val: &mut Value, _: Operand<'_>) {
        (self.0)(val)
    }
    fn vector(&mut self, _: &mut u32, _: &mut Ty, val: &mut Value) {
        (self.0)(val)
    }
    fn incoming(&mut self, _: &Ty, incoming: &mut Vec<(Value, BlockId)>) {
        incoming.iter_mut().for_each(|(val, _)| (self.0)(val))
    }
    fn args(&mut self, _: &mut Vec<Ty>, args: &mut Vec<Value>) {
        args.iter_mut().for_each(&mut self.0)
    }
}
