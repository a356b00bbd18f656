//! # frost-bench
//!
//! The evaluation harness: regenerates every table and figure of
//! *"Taming Undefined Behavior in LLVM"* (PLDI 2017, §6–§7) against the
//! frost implementation. See DESIGN.md's per-experiment index (E1–E9)
//! for the mapping from paper artifact to module, and EXPERIMENTS.md
//! for paper-vs-measured results.
//!
//! The `repro` binary prints the tables:
//!
//! ```text
//! repro --experiment fig6          # Figure 6 (run time)
//! repro --experiment all --quick   # everything, reduced sizes
//! ```

#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod input;
pub mod microbench;
pub mod profile;
pub mod table;

pub use experiments::Domain;
pub use harness::{compile_workload, pct_improvement, run_workload, RunMetrics};
pub use input::{run_input, run_input_text, InputError};
pub use microbench::{BenchResult, Runner};
pub use profile::{counters_table, profile_table};
pub use table::Table;
