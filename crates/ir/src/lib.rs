//! # frost-ir
//!
//! The intermediate representation of the *frost* compiler — a from-scratch
//! reproduction of the IR studied in *"Taming Undefined Behavior in LLVM"*
//! (Lee et al., PLDI 2017).
//!
//! The IR is LLVM-flavoured SSA over arbitrary-bitwidth integers, typed
//! pointers, and fixed-length vectors (Figure 4 of the paper). Its
//! distinguishing feature is first-class *deferred undefined behavior*:
//!
//! * the [`poison`](value::Constant::Poison) value — the single deferred-UB
//!   value of the paper's proposed semantics;
//! * the legacy [`undef`](value::Constant::Undef) value — retained so the
//!   pre-taming semantics, and the §3 inconsistencies between them, can be
//!   expressed and mechanically checked;
//! * the [`freeze`](inst::Inst::Freeze) instruction — the paper's new
//!   instruction that stops poison propagation by non-deterministically
//!   picking a defined value;
//! * the `nsw`/`nuw`/`exact` [attributes](inst::Flags) that turn overflow
//!   into poison.
//!
//! This crate holds the data model and the static side: types,
//! instructions, functions/modules, a [builder], a [verifier](verify),
//! the [textual form](text) (a byte-spanned lexer, a parser whose
//! errors render caret-underlined excerpts, and the canonical
//! pretty-printer, held to a `FunctionKey`-exact roundtrip), and the
//! analyses the optimizer needs ([CFG utilities](mod@cfg), [dominators](dom),
//! [natural loops](loops), [known bits](analysis::known_bits), and a small
//! [scalar evolution](analysis::scev)). The executable semantics live in
//! `frost-core`.
//!
//! ## Example
//!
//! ```
//! use frost_ir::{parse_function, Ty};
//!
//! let f = parse_function(
//!     r#"
//! define i32 @add_sat16(i32 %a, i32 %b) {
//! entry:
//!   %t0 = and i32 %a, 65535
//!   %t1 = and i32 %b, 65535
//!   %t2 = add nsw nuw i32 %t0, %t1
//!   ret i32 %t2
//! }
//! "#,
//! )?;
//! assert_eq!(f.ret_ty, Ty::i32());
//! assert_eq!(f.placed_inst_count(), 3);
//! # Ok::<(), frost_ir::ParseError>(())
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod builder;
pub mod cfg;
pub mod dom;
pub mod fingerprint;
pub mod function;
pub mod inst;
pub mod loops;
pub mod text;
pub mod types;
pub mod value;
pub mod verify;

pub use analysis::manager::{
    Analysis, AnalysisId, Cfg, CfgAnalysis, DomTreeAnalysis, FunctionAnalysisManager,
    LoopInfoAnalysis, ModuleAnalysisManager, PreservedAnalyses, UseCountsAnalysis,
};
pub use builder::FunctionBuilder;
pub use fingerprint::FunctionKey;
pub use function::{Block, DeclAttrs, FuncDecl, Function, Module, Param, UseCounts};
pub use inst::{
    BinOp, CastKind, Cond, Descriptor, Flags, Inst, Opcode, ResultKind, Terminator, UbClass,
};
pub use text::{
    check_roundtrip, function_to_string, module_to_string, parse_function, parse_module,
    print_function, print_module, ParseError, RoundtripError, Span,
};
pub use types::{Ty, MAX_INT_BITS, PTR_BITS};
pub use value::{BlockId, Constant, InstId, Value};
pub use verify::{
    verify_function, verify_function_legacy, verify_module, verify_module_uses_undef, VerifyMode,
};
