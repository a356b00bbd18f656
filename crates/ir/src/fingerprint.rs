//! Structural function fingerprints for cache keys.
//!
//! A [`FunctionKey`] is an exact canonical encoding of a function body
//! as a word sequence. Two functions receive equal keys if and only if
//! they are α-equivalent: identical up to the spelling of the function
//! name, parameter names, block labels, and the numbering of the
//! instruction arena (instructions are renumbered by placement order).
//! Everything that affects execution — types, opcodes, attributes,
//! constants, operand wiring, block structure, callee names — is
//! encoded verbatim, so key equality is structural equality and
//! collisions are impossible. None of the α-renamed parts can be
//! observed by the executable semantics, which makes the key safe to
//! use for memoizing *semantic* artifacts (outcome enumerations,
//! compiled execution plans).
//!
//! The encoding is a prefix code: every variant is tagged and every
//! variable-length list is preceded by its length, so distinct bodies
//! cannot serialize to the same word sequence. A 64-bit mix of the
//! words is precomputed and used as the `Hash` value, making hash-map
//! probes O(1) in the body size; full-word comparison only happens on
//! bucket collisions.

use std::hash::{Hash, Hasher};

use crate::function::Function;
use crate::inst::{Cond, Flags, Inst, Operand, Rule, SubOpcode, Terminator, Visit};
use crate::types::Ty;
use crate::value::{BlockId, Constant, Value};

/// The exact structural fingerprint of one [`Function`] body. See the
/// [module docs](self) for the equivalence it induces.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FunctionKey {
    /// Precomputed mix of `data`; equal data implies equal hash.
    hash: u64,
    /// The canonical prefix-coded encoding of the body.
    data: Box<[u64]>,
}

impl FunctionKey {
    /// Computes the fingerprint of `f`.
    pub fn of(f: &Function) -> FunctionKey {
        let mut enc = Encoder {
            out: Vec::with_capacity(16 + 6 * f.insts.len()),
            remap: vec![u64::MAX; f.insts.len()],
        };
        // Renumber instructions by placement order so arena numbering
        // (which passes churn) does not leak into the key.
        let mut next = 0u64;
        for b in &f.blocks {
            for id in &b.insts {
                if let Some(slot) = enc.remap.get_mut(id.index()) {
                    if *slot == u64::MAX {
                        *slot = next;
                        next += 1;
                    }
                }
            }
        }
        enc.type_words(&f.ret_ty);
        enc.push(f.params.len() as u64);
        for p in &f.params {
            enc.type_words(&p.ty);
        }
        enc.push(f.blocks.len() as u64);
        for b in &f.blocks {
            enc.push(b.insts.len() as u64);
            for id in &b.insts {
                enc.inst(f.inst(*id));
            }
            enc.term(&b.term);
        }
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &w in &enc.out {
            hash = mix(hash ^ w);
        }
        FunctionKey {
            hash,
            data: enc.out.into_boxed_slice(),
        }
    }

    /// Length of the encoding in 64-bit words (size diagnostics).
    pub fn words(&self) -> usize {
        self.data.len()
    }
}

impl Hash for FunctionKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // `hash` is a pure function of `data`, so equal keys write equal
        // words — the `Eq`/`Hash` contract holds.
        state.write_u64(self.hash);
    }
}

/// The 64-bit finalizer of splitmix64 — a full-avalanche mix.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

struct Encoder {
    out: Vec<u64>,
    /// Arena index → placement order, `u64::MAX` for unplaced slots.
    remap: Vec<u64>,
}

impl Encoder {
    fn push(&mut self, w: u64) {
        self.out.push(w);
    }

    fn type_words(&mut self, ty: &Ty) {
        match ty {
            Ty::Int(bits) => {
                self.push(0);
                self.push(*bits as u64);
            }
            Ty::Ptr(pointee) => {
                self.push(1);
                self.type_words(pointee);
            }
            Ty::Vector { elems, elem } => {
                self.push(2);
                self.push(*elems as u64);
                self.type_words(elem);
            }
            Ty::Void => self.push(3),
        }
    }

    fn constant(&mut self, c: &Constant) {
        match c {
            Constant::Int { bits, value } => {
                self.push(0);
                self.push(*bits as u64);
                self.push(*value as u64);
                self.push((*value >> 64) as u64);
            }
            Constant::Null(ty) => {
                self.push(1);
                self.type_words(ty);
            }
            Constant::Poison(ty) => {
                self.push(2);
                self.type_words(ty);
            }
            Constant::Undef(ty) => {
                self.push(3);
                self.type_words(ty);
            }
            Constant::Vector(elems) => {
                self.push(4);
                self.push(elems.len() as u64);
                for e in elems {
                    self.constant(e);
                }
            }
        }
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Inst(id) => {
                self.push(0);
                // Placement numbers are below the arena size; unplaced
                // or out-of-range ids (malformed IR) are kept distinct
                // by offsetting the raw id past that range.
                let placed = self.remap.get(id.index()).copied().unwrap_or(u64::MAX);
                if placed != u64::MAX {
                    self.push(placed);
                } else {
                    self.push((1 << 32) | id.0 as u64);
                }
            }
            Value::Arg(i) => {
                self.push(1);
                self.push(*i as u64);
            }
            Value::Const(c) => {
                self.push(2);
                self.constant(c);
            }
        }
    }

    fn str_bytes(&mut self, s: &str) {
        let bytes = s.as_bytes();
        self.push(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut w = 0u64;
            for (i, &b) in chunk.iter().enumerate() {
                w |= (b as u64) << (8 * i);
            }
            self.push(w);
        }
    }

    fn inst(&mut self, inst: &Inst) {
        // The opcode discriminant tags the variant; the walk encodes its
        // fields in textual order. Spelled-again and own operand types
        // are not encoded: the operand's value determines them.
        self.push(inst.opcode() as u64);
        inst.walk(self);
    }

    fn term(&mut self, t: &Terminator) {
        match t {
            Terminator::Ret(None) => self.push(0),
            Terminator::Ret(Some(v)) => {
                self.push(1);
                self.value(v);
            }
            Terminator::Br {
                cond,
                then_bb,
                else_bb,
            } => {
                self.push(2);
                self.value(cond);
                self.push(then_bb.0 as u64);
                self.push(else_bb.0 as u64);
            }
            Terminator::Jmp(bb) => {
                self.push(3);
                self.push(bb.0 as u64);
            }
            Terminator::Unreachable => self.push(4),
        }
    }
}

impl Visit for Encoder {
    fn opcode<S: SubOpcode>(&mut self, op: &S) {
        self.push(op.code());
    }
    fn cond(&mut self, cond: &Cond) {
        self.push(*cond as u64);
    }
    fn flags(&mut self, flags: &Flags) {
        self.push(flags.nsw as u64 | (flags.nuw as u64) << 1 | (flags.exact as u64) << 2);
    }
    fn keyword(&mut self, _: &'static str, on: &bool) {
        self.push(*on as u64);
    }
    fn ty(&mut self, ty: &Ty, _: Rule) {
        self.type_words(ty);
    }
    fn operand(&mut self, val: &Value, _: Operand<'_>) {
        self.value(val);
    }
    fn vector(&mut self, len: &u32, elem: &Ty, val: &Value) {
        self.type_words(elem);
        self.push(*len as u64);
        self.value(val);
    }
    fn incoming(&mut self, _: &Ty, incoming: &Vec<(Value, BlockId)>) {
        self.push(incoming.len() as u64);
        for (val, bb) in incoming {
            self.value(val);
            self.push(bb.0 as u64);
        }
    }
    fn callee(&mut self, name: &String) {
        // Callee names are symbol references into the enclosing module,
        // not α-renamable locals: keep them verbatim.
        self.str_bytes(name);
    }
    fn args(&mut self, tys: &Vec<Ty>, args: &Vec<Value>) {
        self.push(tys.len() as u64);
        for ty in tys {
            self.type_words(ty);
        }
        self.push(args.len() as u64);
        for val in args {
            self.value(val);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::text::parse_function;

    fn key(src: &str) -> FunctionKey {
        FunctionKey::of(&parse_function(src).expect("parses"))
    }

    #[test]
    fn alpha_renaming_is_canonicalized_away() {
        let a = key("define i2 @f(i2 %x) {\nentry:\n  %a = add i2 %x, 1\n  ret i2 %a\n}");
        let b = key("define i2 @renamed(i2 %y) {\nstart:\n  %t = add i2 %y, 1\n  ret i2 %t\n}");
        assert_eq!(a, b);
    }

    #[test]
    fn arena_numbering_is_canonicalized_away() {
        use crate::function::{Function, Param};
        use crate::inst::{BinOp, Flags};
        use crate::value::{BlockId, Value};
        // Same placed program, arena slots filled in opposite orders.
        let build = |reversed: bool| {
            let mut f = Function::new(
                "f",
                vec![Param {
                    name: "x".into(),
                    ty: Ty::i8(),
                }],
                Ty::i8(),
            );
            let bin = |rhs: u128| Inst::Bin {
                op: BinOp::Add,
                flags: Flags::NONE,
                ty: Ty::i8(),
                lhs: Value::Arg(0),
                rhs: Value::int(8, rhs),
            };
            let (first, second) = if reversed {
                let b = f.add_inst(bin(2));
                let a = f.add_inst(bin(1));
                (a, b)
            } else {
                let a = f.add_inst(bin(1));
                let b = f.add_inst(bin(2));
                (a, b)
            };
            let entry = f.block_mut(BlockId::ENTRY);
            entry.insts = vec![first, second];
            entry.term = Terminator::Ret(Some(Value::Inst(second)));
            f
        };
        assert_eq!(
            FunctionKey::of(&build(false)),
            FunctionKey::of(&build(true))
        );
    }

    #[test]
    fn semantic_differences_separate_keys() {
        let base = key("define i2 @f(i2 %x) {\nentry:\n  %a = add i2 %x, 1\n  ret i2 %a\n}");
        for other in [
            // different opcode
            "define i2 @f(i2 %x) {\nentry:\n  %a = sub i2 %x, 1\n  ret i2 %a\n}",
            // different flags
            "define i2 @f(i2 %x) {\nentry:\n  %a = add nsw i2 %x, 1\n  ret i2 %a\n}",
            // different constant
            "define i2 @f(i2 %x) {\nentry:\n  %a = add i2 %x, 2\n  ret i2 %a\n}",
            // different operand wiring
            "define i2 @f(i2 %x) {\nentry:\n  %a = add i2 1, %x\n  ret i2 %a\n}",
            // different type
            "define i4 @f(i4 %x) {\nentry:\n  %a = add i4 %x, 1\n  ret i4 %a\n}",
            // poison constant instead of an int
            "define i2 @f(i2 %x) {\nentry:\n  %a = add i2 %x, poison\n  ret i2 %a\n}",
        ] {
            assert_ne!(base, key(other), "{other}");
        }
    }

    #[test]
    fn control_flow_and_phis_are_encoded() {
        let a = key(
            "define i8 @f(i1 %c) {\nentry:\n  br i1 %c, label %t, label %e\nt:\n  br label %j\ne:\n  br label %j\nj:\n  %p = phi i8 [ 1, %t ], [ 2, %e ]\n  ret i8 %p\n}",
        );
        let b = key(
            "define i8 @f(i1 %c) {\nentry:\n  br i1 %c, label %t, label %e\nt:\n  br label %j\ne:\n  br label %j\nj:\n  %p = phi i8 [ 2, %t ], [ 1, %e ]\n  ret i8 %p\n}",
        );
        assert_ne!(a, b, "swapped phi incomings must not collide");
    }

    #[test]
    fn callee_names_stay_significant() {
        let a = key("define void @f() {\nentry:\n  call void @g()\n  ret void\n}");
        let b = key("define void @f() {\nentry:\n  call void @h()\n  ret void\n}");
        assert_ne!(a, b);
    }

    #[test]
    fn hash_is_stable_across_recomputation() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let src = "define i2 @f(i2 %x) {\nentry:\n  %a = add i2 %x, 1\n  ret i2 %a\n}";
        let h = |k: &FunctionKey| {
            let mut s = DefaultHasher::new();
            k.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&key(src)), h(&key(src)));
        assert!(key(src).words() > 0);
    }
}
