//! The canonical pretty-printer: IR values → textual IR.
//!
//! This is the *only* textual rendering of the IR: the `Display` impls
//! on [`Module`]/[`Function`] delegate here, so a module has exactly
//! one textual form. The output is canonical — instruction results are
//! named `%t<id>` in definition order — and re-parses through
//! [`super::parse`] to a module whose every function is
//! [`FunctionKey`](crate::FunctionKey)-equal to the original.
//!
//! Every instruction spells out enough types to be unambiguous on its
//! own line; in particular casts always print their *source* type:
//! `zext i16 %x to i64`, never `zext %x to i64`.

use std::fmt::{self, Write as _};

use crate::function::{Function, Module};
use crate::inst::{Cond, Flags, Inst, Operand, Rule, Sep, Terminator, Visit};
use crate::types::Ty;
use crate::value::{BlockId, Constant, Value};

/// Renders a constant with no leading type.
pub fn const_to_string(c: &Constant) -> String {
    match c {
        Constant::Int { value, .. } => format!("{value}"),
        Constant::Null(_) => "null".to_string(),
        Constant::Poison(_) => "poison".to_string(),
        Constant::Undef(_) => "undef".to_string(),
        Constant::Vector(elems) => {
            let mut s = String::from("<");
            for (i, e) in elems.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "{} {}", e.ty(), const_to_string(e));
            }
            s.push('>');
            s
        }
    }
}

/// Renders an operand (without its type) in the context of `f`.
pub fn value_to_string(f: &Function, v: &Value) -> String {
    match v {
        Value::Inst(id) => format!("%t{}", id.0),
        Value::Arg(i) => format!("%{}", f.params[*i as usize].name),
        Value::Const(c) => const_to_string(c),
    }
}

fn typed(f: &Function, v: &Value) -> String {
    format!("{} {}", f.value_ty(v), value_to_string(f, v))
}

fn block_label(f: &Function, bb: BlockId) -> &str {
    &f.blocks[bb.index()].name
}

/// Renders a single instruction line (without leading indentation):
/// the mnemonic, then the fields of [`Inst::walk`], each after a space.
pub fn inst_to_string(f: &Function, inst: &Inst, def: Option<&str>) -> String {
    let mut s = String::new();
    if let Some(name) = def {
        let _ = write!(s, "{name} = ");
    }
    s.push_str(inst.mnemonic());
    inst.walk(&mut Fields { f, s: &mut s });
    s
}

/// Writes the walked fields of one instruction of `f` into `s`.
struct Fields<'a> {
    f: &'a Function,
    s: &'a mut String,
}

impl Fields<'_> {
    fn value(&mut self, v: &Value) {
        let _ = write!(self.s, "{}", value_to_string(self.f, v));
    }
}

impl Visit for Fields<'_> {
    // The mnemonic spells the sub-opcode, so `opcode` prints nothing.
    fn cond(&mut self, cond: &Cond) {
        let _ = write!(self.s, " {cond}");
    }
    fn flags(&mut self, flags: &Flags) {
        if !flags.is_none() {
            let _ = write!(self.s, " {flags}");
        }
    }
    fn keyword(&mut self, word: &'static str, on: &bool) {
        if *on {
            let _ = write!(self.s, " {word}");
        }
    }
    fn ty(&mut self, ty: &Ty, _: Rule) {
        let _ = write!(self.s, " {ty}");
    }
    fn operand(&mut self, val: &Value, how: Operand<'_>) {
        match how {
            Operand::After(_) => self.s.push(' '),
            Operand::Again(want, _) => {
                let _ = write!(self.s, " {want} ");
            }
            Operand::Own(_) => {
                let _ = write!(self.s, " {} ", self.f.value_ty(val));
            }
        }
        self.value(val);
    }
    fn vector(&mut self, len: &u32, elem: &Ty, val: &Value) {
        let _ = write!(self.s, " <{len} x {elem}> ");
        self.value(val);
    }
    fn incoming(&mut self, _: &Ty, incoming: &Vec<(Value, BlockId)>) {
        for (i, (v, bb)) in incoming.iter().enumerate() {
            self.s.push_str(if i == 0 { " [ " } else { ", [ " });
            self.value(v);
            let _ = write!(self.s, ", %{} ]", block_label(self.f, *bb));
        }
    }
    fn callee(&mut self, name: &String) {
        let _ = write!(self.s, " @{name}");
    }
    fn args(&mut self, tys: &Vec<Ty>, args: &Vec<Value>) {
        self.s.push('(');
        for (i, (ty, a)) in tys.iter().zip(args).enumerate() {
            if i > 0 {
                self.s.push_str(", ");
            }
            let _ = write!(self.s, "{ty} ");
            self.value(a);
        }
        self.s.push(')');
    }
    fn sep(&mut self, sep: Sep) {
        self.s.push_str(match sep {
            Sep::Comma => ",",
            Sep::To => " to",
        });
    }
}

/// Renders a terminator line (without leading indentation).
pub fn term_to_string(f: &Function, term: &Terminator) -> String {
    match term {
        Terminator::Ret(Some(v)) => format!("ret {}", typed(f, v)),
        Terminator::Ret(None) => "ret void".to_string(),
        Terminator::Br {
            cond,
            then_bb,
            else_bb,
        } => format!(
            "br i1 {}, label %{}, label %{}",
            value_to_string(f, cond),
            block_label(f, *then_bb),
            block_label(f, *else_bb)
        ),
        Terminator::Jmp(dest) => format!("br label %{}", block_label(f, *dest)),
        Terminator::Unreachable => "unreachable".to_string(),
    }
}

/// Writes the full textual form of a function.
pub fn print_function(func: &Function, out: &mut impl fmt::Write) -> fmt::Result {
    write!(out, "define {} @{}(", func.ret_ty, func.name)?;
    for (i, p) in func.params.iter().enumerate() {
        if i > 0 {
            out.write_str(", ")?;
        }
        write!(out, "{} %{}", p.ty, p.name)?;
    }
    out.write_str(") {\n")?;
    for bb in func.block_ids() {
        let block = func.block(bb);
        writeln!(out, "{}:", block.name)?;
        for &id in &block.insts {
            let inst = func.inst(id);
            let def = format!("%t{}", id.0);
            let def = if inst.result_ty().is_void() {
                None
            } else {
                Some(def.as_str())
            };
            writeln!(out, "  {}", inst_to_string(func, inst, def))?;
        }
        writeln!(out, "  {}", term_to_string(func, &block.term))?;
    }
    out.write_str("}\n")
}

/// Writes the full textual form of a module.
pub fn print_module(module: &Module, out: &mut impl fmt::Write) -> fmt::Result {
    let mut first = true;
    for d in &module.declarations {
        first = false;
        write!(out, "declare {} @{}(", d.ret_ty, d.name)?;
        for (i, ty) in d.params.iter().enumerate() {
            if i > 0 {
                out.write_str(", ")?;
            }
            write!(out, "{ty}")?;
        }
        out.write_str(")")?;
        if d.attrs.readnone {
            out.write_str(" readnone")?;
        }
        if d.attrs.willreturn {
            out.write_str(" willreturn")?;
        }
        out.write_str("\n")?;
    }
    for f in &module.functions {
        if !first {
            out.write_str("\n")?;
        }
        first = false;
        print_function(f, out)?;
    }
    Ok(())
}

/// Renders a function to a `String`.
pub fn function_to_string(func: &Function) -> String {
    let mut s = String::new();
    print_function(func, &mut s).expect("string formatting cannot fail");
    s
}

/// Renders a module to a `String`.
pub fn module_to_string(module: &Module) -> String {
    let mut s = String::new();
    print_module(module, &mut s).expect("string formatting cannot fail");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{CastKind, Cond, Flags};
    use crate::text::parse_function;
    use crate::types::Ty;
    use crate::value::InstId;

    #[test]
    fn prints_figure_one_loop() {
        let mut b = FunctionBuilder::new(
            "store_loop",
            &[
                ("n", Ty::i32()),
                ("x", Ty::i32()),
                ("a", Ty::ptr_to(Ty::i32())),
            ],
            Ty::Void,
        );
        let head = b.block("head");
        let body = b.block("body");
        let exit = b.block("exit");
        b.jmp(head);
        b.switch_to(head);
        let i = b.phi(Ty::i32(), vec![(b.const_int(32, 0), BlockId::ENTRY)]);
        let c = b.icmp(Cond::Slt, i.clone(), b.arg(0));
        b.br(c, body, exit);
        b.switch_to(body);
        let x1 = b.add_flags(Flags::NSW, b.arg(1), b.const_int(32, 1));
        let ptr = b.gep(b.arg(2), i.clone(), true);
        b.store(x1, ptr);
        let i1 = b.add_flags(Flags::NSW, i.clone(), b.const_int(32, 1));
        b.phi_add_incoming(&i, i1, body);
        b.jmp(head);
        b.switch_to(exit);
        b.ret_void();
        let f = b.finish();

        let text = function_to_string(&f);
        assert!(text.contains("define void @store_loop(i32 %n, i32 %x, i32* %a)"));
        assert!(text.contains("%t0 = phi i32 [ 0, %entry ], [ %t5, %body ]"));
        assert!(text.contains("%t1 = icmp slt i32 %t0, %n"));
        assert!(text.contains("br i1 %t1, label %body, label %exit"));
        assert!(text.contains("%t2 = add nsw i32 %x, 1"));
        assert!(text.contains("%t3 = getelementptr inbounds i32, i32* %a, i32 %t0"));
        assert!(text.contains("store i32 %t2, i32* %t3"));
        assert!(text.contains("ret void"));
    }

    #[test]
    fn prints_constants() {
        assert_eq!(const_to_string(&Constant::Poison(Ty::i8())), "poison");
        assert_eq!(const_to_string(&Constant::Undef(Ty::i8())), "undef");
        assert_eq!(
            const_to_string(&Constant::Null(Ty::ptr_to(Ty::i8()))),
            "null"
        );
        let v = Constant::Vector(vec![Constant::int(16, 1), Constant::Poison(Ty::Int(16))]);
        assert_eq!(const_to_string(&v), "<i16 1, i16 poison>");
    }

    #[test]
    fn prints_select_and_freeze() {
        let mut b = FunctionBuilder::new("s", &[("c", Ty::i1()), ("x", Ty::i8())], Ty::i8());
        let fr = b.freeze(b.arg(1));
        let sel = b.select(b.arg(0), fr, b.const_int(8, 0));
        b.ret(sel);
        let text = function_to_string(&b.finish());
        assert!(text.contains("%t0 = freeze i8 %x"));
        assert!(text.contains("%t1 = select i1 %c, i8 %t0, i8 0"));
    }

    /// Every cast variant must print its *source* type (`<op> <from_ty>
    /// <val> to <to_ty>`): `zext %x to i64` would not re-parse, and a
    /// form without the operand width would be ambiguous. Each printed
    /// line is also required to re-parse to the identical instruction,
    /// which pins `Display` and the parser to one textual form.
    #[test]
    fn cast_display_always_includes_source_type() {
        let cases: &[(Inst, &str)] = &[
            (
                Inst::Cast {
                    kind: CastKind::Zext,
                    from_ty: Ty::Int(16),
                    to_ty: Ty::Int(64),
                    val: Value::Arg(0),
                },
                "zext i16 %x to i64",
            ),
            (
                Inst::Cast {
                    kind: CastKind::Sext,
                    from_ty: Ty::Int(3),
                    to_ty: Ty::Int(5),
                    val: Value::Arg(0),
                },
                "sext i3 %x to i5",
            ),
            (
                Inst::Cast {
                    kind: CastKind::Trunc,
                    from_ty: Ty::Int(32),
                    to_ty: Ty::Int(16),
                    val: Value::Arg(0),
                },
                "trunc i32 %x to i16",
            ),
            (
                Inst::Cast {
                    kind: CastKind::Zext,
                    from_ty: Ty::vector(2, Ty::Int(8)),
                    to_ty: Ty::vector(2, Ty::Int(16)),
                    val: Value::Arg(0),
                },
                "zext <2 x i8> %x to <2 x i16>",
            ),
            (
                Inst::Bitcast {
                    from_ty: Ty::vector(2, Ty::Int(16)),
                    to_ty: Ty::Int(32),
                    val: Value::Arg(0),
                },
                "bitcast <2 x i16> %x to i32",
            ),
            (
                Inst::Bitcast {
                    from_ty: Ty::ptr_to(Ty::Int(16)),
                    to_ty: Ty::ptr_to(Ty::vector(2, Ty::Int(16))),
                    val: Value::Arg(0),
                },
                "bitcast i16* %x to <2 x i16>*",
            ),
        ];
        for (inst, want) in cases {
            let mut f = Function {
                name: "c".into(),
                params: vec![crate::function::Param {
                    name: "x".into(),
                    ty: match inst {
                        Inst::Cast { from_ty, .. } | Inst::Bitcast { from_ty, .. } => {
                            from_ty.clone()
                        }
                        _ => unreachable!(),
                    },
                }],
                ret_ty: inst.result_ty(),
                blocks: vec![Block::new("entry")],
                insts: Vec::new(),
            };
            let line = inst_to_string(&f, inst, None);
            assert_eq!(&line, want);
            // The line re-parses to the identical instruction.
            let id = f.add_inst(inst.clone());
            f.blocks[0].insts.push(id);
            f.blocks[0].term = Terminator::Ret(Some(Value::Inst(id)));
            let reparsed = parse_function(&function_to_string(&f)).unwrap();
            assert_eq!(reparsed.inst(InstId(0)), inst, "cast roundtrip: {want}");
        }
    }

    /// The memory instructions print in their canonical one-line forms
    /// and roundtrip through the parser.
    #[test]
    fn prints_memory_instructions() {
        let mut b = FunctionBuilder::new("m", &[], Ty::i8());
        let p = b.alloca(Ty::i8());
        b.store(b.const_int(8, 1), p.clone());
        let a = b.ptrtoint(p.clone(), Ty::i32());
        let q = b.inttoptr(a, Ty::ptr_to(Ty::i8()));
        let v = b.load(Ty::i8(), q);
        b.ret(v);
        let f = b.finish_verified();
        let text = function_to_string(&f);
        assert!(text.contains("%t0 = alloca i8"));
        assert!(text.contains("%t2 = ptrtoint i8* %t0 to i32"));
        assert!(text.contains("%t3 = inttoptr i32 %t2 to i8*"));
        let reparsed = parse_function(&text).unwrap();
        assert_eq!(
            crate::FunctionKey::of(&reparsed),
            crate::FunctionKey::of(&f),
            "memory-inst roundtrip"
        );
    }

    use crate::function::Block;

    /// `Display` and the canonical printer are the same code path —
    /// there is exactly one textual form.
    #[test]
    fn display_is_the_canonical_printer() {
        let f =
            parse_function("define i8 @d(i8 %x) {\nentry:\n  %t0 = add i8 %x, 1\n  ret i8 %t0\n}")
                .unwrap();
        assert_eq!(format!("{f}"), function_to_string(&f));
        let m = crate::text::parse_module(
            "declare i8 @e(i8)\ndefine i8 @d(i8 %x) {\nentry:\n  ret i8 %x\n}",
        )
        .unwrap();
        assert_eq!(format!("{m}"), module_to_string(&m));
    }
}
