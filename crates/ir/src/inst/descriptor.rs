//! The per-instruction descriptor table.
//!
//! One static [`Descriptor`] row per [`Inst`] variant holds what the
//! non-executor layers know about an opcode beyond its fields: the
//! canonical mnemonic, whether it yields a value, its UB class and
//! whether it has side effects. The fields themselves, their textual
//! order and their typing rules are the [field walk](super::walk); an
//! instruction's layout is written down there once and its facts here
//! once. A new instruction is one row here, one arm of the walk, and its
//! semantics in the executors. The bit-sliced engine decides on its own
//! which bodies it can lower (from the plan steps), so the table says
//! nothing about engines.

use super::{BinOp, CastKind, Inst};

/// A stable opcode identifying one [`Inst`] variant (not one mnemonic:
/// all thirteen binary opcodes share [`Opcode::Bin`], the three
/// conversions share [`Opcode::Cast`]). The discriminant is the
/// variant's [`FunctionKey`](crate::FunctionKey) tag.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Opcode {
    /// Binary integer arithmetic ([`Inst::Bin`]).
    Bin,
    /// Integer/pointer comparison ([`Inst::Icmp`]).
    Icmp,
    /// Two-way select ([`Inst::Select`]).
    Select,
    /// SSA merge ([`Inst::Phi`]).
    Phi,
    /// Poison laundering ([`Inst::Freeze`]).
    Freeze,
    /// Width-changing conversion ([`Inst::Cast`]).
    Cast,
    /// Bit reinterpretation ([`Inst::Bitcast`]).
    Bitcast,
    /// Pointer arithmetic ([`Inst::Gep`]).
    Gep,
    /// Memory read ([`Inst::Load`]).
    Load,
    /// Memory write ([`Inst::Store`]).
    Store,
    /// Vector element read ([`Inst::ExtractElement`]).
    ExtractElement,
    /// Vector element replace ([`Inst::InsertElement`]).
    InsertElement,
    /// Direct call ([`Inst::Call`]).
    Call,
    /// Stack allocation ([`Inst::Alloca`]).
    Alloca,
    /// Address observation ([`Inst::PtrToInt`]).
    PtrToInt,
    /// Pointer forging ([`Inst::IntToPtr`]).
    IntToPtr,
    /// Deferred-UB guard ([`Inst::Assume`]).
    Assume,
}

/// Whether an instruction yields a value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ResultKind {
    /// Always produces a (nameable) value.
    Value,
    /// Produces a value or `void` depending on the instance (`call`).
    MaybeVoid,
    /// Never produces a value; the textual form is an unnamed
    /// statement.
    Void,
}

/// How an instruction participates in the deferred/immediate UB story
/// (§3 of the paper, extended with the guard class of the unreachable-
/// code calculus).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UbClass {
    /// Total on defined operands; violated attributes or poison
    /// operands defer UB by producing poison. Safe to speculate.
    Deferred,
    /// May raise *immediate* UB for some defined operand values
    /// (division by zero, out-of-bounds access, an arbitrary callee).
    /// May not be hoisted past control flow without a safety proof.
    Immediate,
    /// A guard: consumes a fact instead of producing a value. A false
    /// or poison fact (`assume`), or reaching the guard at all
    /// (`unreachable`), is immediate UB — but `freeze` on the operand
    /// launders the poison half away.
    Guard,
}

/// One row of the table: what the non-executor layers know about an
/// instruction variant beyond its fields.
#[derive(Debug)]
pub struct Descriptor {
    /// Which variant this row describes.
    pub opcode: Opcode,
    /// The canonical text mnemonic, or `None` when the sub-opcode
    /// carries it (`Bin` prints `add`/`sub`/…, `Cast` prints
    /// `zext`/`sext`/`trunc`).
    pub mnemonic: Option<&'static str>,
    /// Whether the instruction yields a value.
    pub result: ResultKind,
    /// Deferred/immediate/guard UB classification.
    pub ub: UbClass,
    /// `true` if the instruction changes observable state even when
    /// its result is unused (memory writes, layout, phase flips,
    /// guard facts) and therefore may not be dropped by DCE.
    pub side_effects: bool,
}

impl Descriptor {
    /// Returns `true` for the guard class (`assume`; the `unreachable`
    /// terminator shares the semantics but lives outside this table).
    pub fn is_guard(&self) -> bool {
        self.ub == UbClass::Guard
    }
}

/// The table, indexed by [`Opcode`] discriminant order.
pub static TABLE: [Descriptor; 17] = [
    Descriptor {
        opcode: Opcode::Bin,
        mnemonic: None,
        result: ResultKind::Value,
        ub: UbClass::Deferred, // div/rem immediate UB is per-BinOp
        side_effects: false,
    },
    Descriptor {
        opcode: Opcode::Icmp,
        mnemonic: Some("icmp"),
        result: ResultKind::Value,
        ub: UbClass::Deferred,
        side_effects: false,
    },
    Descriptor {
        opcode: Opcode::Select,
        mnemonic: Some("select"),
        result: ResultKind::Value,
        ub: UbClass::Deferred,
        side_effects: false,
    },
    Descriptor {
        opcode: Opcode::Phi,
        mnemonic: Some("phi"),
        result: ResultKind::Value,
        ub: UbClass::Deferred,
        side_effects: false,
    },
    Descriptor {
        opcode: Opcode::Freeze,
        mnemonic: Some("freeze"),
        result: ResultKind::Value,
        ub: UbClass::Deferred,
        side_effects: false,
    },
    Descriptor {
        opcode: Opcode::Cast,
        mnemonic: None,
        result: ResultKind::Value,
        ub: UbClass::Deferred,
        side_effects: false,
    },
    Descriptor {
        opcode: Opcode::Bitcast,
        mnemonic: Some("bitcast"),
        result: ResultKind::Value,
        ub: UbClass::Deferred,
        side_effects: false,
    },
    Descriptor {
        opcode: Opcode::Gep,
        mnemonic: Some("getelementptr"),
        result: ResultKind::Value,
        ub: UbClass::Deferred, // OOB arithmetic is poison, not UB
        side_effects: false,
    },
    Descriptor {
        opcode: Opcode::Load,
        mnemonic: Some("load"),
        result: ResultKind::Value,
        ub: UbClass::Immediate,
        side_effects: false,
    },
    Descriptor {
        opcode: Opcode::Store,
        mnemonic: Some("store"),
        result: ResultKind::Void,
        ub: UbClass::Immediate,
        side_effects: true,
    },
    Descriptor {
        opcode: Opcode::ExtractElement,
        mnemonic: Some("extractelement"),
        result: ResultKind::Value,
        ub: UbClass::Deferred,
        side_effects: false,
    },
    Descriptor {
        opcode: Opcode::InsertElement,
        mnemonic: Some("insertelement"),
        result: ResultKind::Value,
        ub: UbClass::Deferred,
        side_effects: false,
    },
    Descriptor {
        opcode: Opcode::Call,
        mnemonic: Some("call"),
        result: ResultKind::MaybeVoid,
        ub: UbClass::Immediate,
        side_effects: true,
    },
    Descriptor {
        opcode: Opcode::Alloca,
        mnemonic: Some("alloca"),
        result: ResultKind::Value,
        ub: UbClass::Deferred,
        side_effects: true, // the deterministic block layout is observable
    },
    Descriptor {
        opcode: Opcode::PtrToInt,
        mnemonic: Some("ptrtoint"),
        result: ResultKind::Value,
        ub: UbClass::Deferred,
        side_effects: true, // flips memory into the finite phase
    },
    Descriptor {
        opcode: Opcode::IntToPtr,
        mnemonic: Some("inttoptr"),
        result: ResultKind::Value,
        ub: UbClass::Deferred,
        side_effects: true,
    },
    Descriptor {
        opcode: Opcode::Assume,
        mnemonic: Some("assume"),
        result: ResultKind::Void,
        ub: UbClass::Guard,
        side_effects: true, // the asserted fact constrains later code
    },
];

impl Opcode {
    /// The descriptor row for this opcode.
    pub fn descriptor(self) -> &'static Descriptor {
        let d = &TABLE[self as usize];
        debug_assert_eq!(d.opcode, self, "TABLE must be in Opcode order");
        d
    }
}

/// Looks a statement-starting word up in the table, resolving
/// sub-opcode mnemonics (`add`, `zext`, …) to their variant row. This
/// is the textual front end's single source of mnemonic knowledge:
/// both the void-statement prescan and the guard parse path go through
/// it.
pub fn by_mnemonic(word: &str) -> Option<&'static Descriptor> {
    if BinOp::ALL.iter().any(|op| op.mnemonic() == word) {
        return Some(Opcode::Bin.descriptor());
    }
    if CastKind::ALL.iter().any(|kind| kind.mnemonic() == word) {
        return Some(Opcode::Cast.descriptor());
    }
    TABLE.iter().find(|d| d.mnemonic == Some(word))
}

impl Inst {
    /// The descriptor row for this instruction's variant.
    pub fn descriptor(&self) -> &'static Descriptor {
        self.opcode().descriptor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_in_opcode_order_with_unique_tags() {
        // The FunctionKey tag is the opcode discriminant, so table order
        // makes tags unique; each row's blank instance reports its row.
        for (i, d) in TABLE.iter().enumerate() {
            assert_eq!(d.opcode as usize, i, "{:?} out of order", d.opcode);
            assert_eq!(Inst::blank(d.opcode).opcode(), d.opcode);
        }
    }

    #[test]
    fn mnemonic_lookup_resolves_sub_opcodes() {
        assert_eq!(by_mnemonic("add").unwrap().opcode, Opcode::Bin);
        assert_eq!(by_mnemonic("sext").unwrap().opcode, Opcode::Cast);
        assert_eq!(by_mnemonic("assume").unwrap().opcode, Opcode::Assume);
        assert_eq!(by_mnemonic("store").unwrap().opcode, Opcode::Store);
        assert!(by_mnemonic("ret").is_none());
        assert!(by_mnemonic("unreachable").is_none(), "terminator, not inst");
    }

    #[test]
    fn descriptor_agrees_with_inst_queries() {
        use crate::types::Ty;
        use crate::value::Value;
        let assume = Inst::Assume {
            cond: Value::Arg(0),
        };
        let d = assume.descriptor();
        assert_eq!(d.result, ResultKind::Void);
        assert!(assume.result_ty().is_void());
        assert!(assume.has_side_effects());
        assert!(assume.may_have_immediate_ub());
        assert_eq!(assume.operands().len(), 1);
        let store = Inst::Store {
            ty: Ty::i8(),
            val: Value::Arg(0),
            ptr: Value::Arg(1),
        };
        assert_eq!(store.operands().len(), 2);
        assert!(store.descriptor().side_effects);
    }
}
