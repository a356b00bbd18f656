//! # frost-refine
//!
//! Alive-style refinement checking for frost IR transformations, by
//! exhaustive enumeration.
//!
//! The paper validates its semantics by exhaustively generating small
//! functions (opt-fuzz) and checking each optimized result against the
//! original with Alive (§6, "Testing the prototype"), over 2-bit integer
//! arithmetic. This crate is the checking half: where Alive discharges
//! refinement queries with an SMT solver, `frost-refine` *enumerates* —
//! all inputs (including poison and, under legacy semantics, undef), all
//! non-deterministic behaviors of source and target — and compares
//! outcome sets under the refinement order. At the paper's bitwidths the
//! enumeration is complete, so a [`CheckResult::Refines`] verdict is a
//! proof over the enumerated domain, and every failure comes with a
//! concrete [`CounterExample`].
//!
//! ```
//! use frost_core::Semantics;
//! use frost_ir::parse_module;
//! use frost_refine::{check_refinement, CheckOptions};
//!
//! // §2.3 of the paper: with nsw, `a + b > a` may be folded to `b > 0`.
//! let src = parse_module(
//!     "define i1 @f(i4 %a, i4 %b) {\nentry:\n  %s = add nsw i4 %a, %b\n  %c = icmp sgt i4 %s, %a\n  ret i1 %c\n}",
//! )?;
//! let tgt = parse_module(
//!     "define i1 @f(i4 %a, i4 %b) {\nentry:\n  %c = icmp sgt i4 %b, 0\n  ret i1 %c\n}",
//! )?;
//! let verdict = check_refinement(&src, "f", &tgt, "f", &CheckOptions::new(Semantics::proposed()));
//! assert!(verdict.is_refinement());
//! # Ok::<(), frost_ir::ParseError>(())
//! ```

#![warn(missing_docs)]

pub mod check;
pub mod inputs;
pub mod lattice;

pub use check::{
    check_refinement, check_refinement_cached, check_refinement_cached_policy, check_refinement_fn,
    check_transform, CheckOptions, CheckPolicy, CheckResult, CounterExample,
};
pub use inputs::{
    enumerate_inputs, enumerate_inputs_cached, enumerate_memories, InputOptions, SharedInputs,
};
pub use lattice::{
    bit_refines, lanes_unjustified, mem_refines, outcome_refines, set_refines, val_refines,
};
