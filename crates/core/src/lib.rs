//! # frost-core
//!
//! The executable semantics of the frost IR — a reproduction of §4 of
//! *"Taming Undefined Behavior in LLVM"* (Lee et al., PLDI 2017).
//!
//! The crate provides:
//!
//! * the semantic [value domain](val) `⟦ty⟧` with poison, legacy undef,
//!   and per-element vector values, plus the `ty↓`/`ty↑` bit-level
//!   lowering of §4.2 ([`val::lower`]/[`val::raise`]);
//! * the bit-wise [memory](mem) of §4.2;
//! * pluggable [undefined-behavior models](sem): the paper's
//!   [proposal](sem::Semantics::proposed) and the two mutually
//!   inconsistent legacy interpretations of §3.3
//!   ([`sem::Semantics::legacy_gvn`],
//!   [`sem::Semantics::legacy_unswitch`]);
//! * an [interpreter](exec) implementing Figure 5, with exhaustive
//!   enumeration of all non-deterministic behaviors
//!   ([`exec::enumerate_outcomes`]) — the engine behind the Alive-style
//!   refinement checker in `frost-refine`;
//! * [execution plans](plan): functions compiled once into a dense
//!   slot-indexed program ([`plan::ModulePlan`]) and executed on a
//!   reusable [`plan::Machine`] with prefix-resuming enumeration;
//!   the tree-walk survives as [`exec::reference`] for differential
//!   testing;
//! * [bit-sliced evaluation](bitslice): straight-line §6-shaped
//!   functions lowered to bitplane programs that evaluate every input
//!   tuple in one pass ([`bitslice::BitslicePlan`]);
//! * a unified [engine selector](engine): downstream code names an
//!   [`engine::Engine`] (default [`engine::Engine::Auto`]) and calls
//!   [`engine::enumerate_function`] instead of a concrete evaluator.
//!
//! ## Example: freeze stops poison
//!
//! ```
//! use frost_core::{enumerate_outcomes, Limits, Memory, Semantics, Val};
//! use frost_ir::parse_module;
//!
//! let m = parse_module(
//!     "define i2 @f() {\nentry:\n  %a = freeze i2 poison\n  ret i2 %a\n}",
//! )?;
//! let outcomes = enumerate_outcomes(
//!     &m, "f", &[], &Memory::zeroed(0), Semantics::proposed(), Limits::default(),
//! )?;
//! // freeze i2 poison can yield any of the four i2 values, never UB.
//! assert_eq!(outcomes.len(), 4);
//! assert!(!outcomes.may_ub());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod bitslice;
pub mod cache;
pub mod engine;
pub mod error;
pub mod exec;
pub mod fasthash;
pub mod mem;
pub mod ops;
pub mod outcome;
pub mod plan;
pub mod sem;
pub mod val;

pub use bitslice::{BitslicePlan, Code, Lanes};
pub use cache::{EnumeratedOutcomes, OutcomeCache};
pub use engine::{enumerate_function, enumerate_function_mems, Batch, Engine};
pub use error::FrostError;
pub use exec::{enumerate_outcomes, run_concrete, uninit_fill, ExecError, Limits, RunResult};
pub use fasthash::{FastBuildHasher, FastHashMap, FastHashSet, FastHasher};
pub use mem::{Memories, Memory, MemoryList};
pub use outcome::{Event, Outcome, OutcomeSet};
pub use plan::{is_self_contained, Machine, ModulePlan};
pub use sem::{PoisonAction, SelectSemantics, Semantics};
pub use val::{enumerate_scalar, lower, poison_of, raise, undef_of, Bit, Bits, Ptr, Val};
