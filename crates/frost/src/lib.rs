//! # frost
//!
//! A from-scratch reproduction of *"Taming Undefined Behavior in LLVM"*
//! (Lee, Kim, Song, Hur, Das, Majnemer, Regehr, Lopes — PLDI 2017):
//! an LLVM-flavoured compiler whose IR carries the paper's *proposed*
//! undefined-behavior semantics — a single deferred-UB value
//! (`poison`), the new `freeze` instruction, and branch-on-poison as
//! immediate UB — together with the machinery to *evaluate* that
//! proposal the way the paper does.
//!
//! This crate is the facade: it re-exports the workspace's crates under
//! one roof.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`ir`] | `frost-ir` | types, instructions, parser/printer, verifier, analyses |
//! | [`core`](mod@core) | `frost-core` | Figure 5 operational semantics, pluggable UB models, outcome enumeration |
//! | [`refine`] | `frost-refine` | Alive-style exhaustive refinement checking |
//! | [`opt`] | `frost-opt` | the optimizer: every §3/§5 pass in legacy and fixed variants |
//! | [`fuzz`] | `frost-fuzz` | opt-fuzz: exhaustive/random function generation + validation |
//! | [`backend`] | `frost-backend` | isel (freeze→copy, poison→pinned undef reg), regalloc, simulator |
//! | [`cc`] | `frost-cc` | mini-C frontend with the §5.3 bit-field freeze lowering |
//! | [`workloads`] | `frost-workloads` | SPEC-/LNT-shaped synthetic benchmark programs |
//! | [`telemetry`] | `frost-telemetry` | structured tracing, counters, JSONL artifact tooling |
//!
//! ## Quickstart
//!
//! ```
//! use frost::core::{enumerate_outcomes, Limits, Memory, Semantics};
//! use frost::ir::parse_module;
//! use frost::refine::{check_refinement, CheckOptions};
//!
//! // The §2.3 example: with nsw, `a + b > a` folds to `b > 0`.
//! let src = parse_module(
//!     "define i1 @f(i4 %a, i4 %b) {\nentry:\n  %s = add nsw i4 %a, %b\n  %c = icmp sgt i4 %s, %a\n  ret i1 %c\n}",
//! )?;
//! let tgt = parse_module(
//!     "define i1 @f(i4 %a, i4 %b) {\nentry:\n  %c = icmp sgt i4 %b, 0\n  ret i1 %c\n}",
//! )?;
//! assert!(check_refinement(&src, "f", &tgt, "f", &CheckOptions::new(Semantics::proposed()))
//!     .is_refinement());
//!
//! // freeze stops poison: all four i2 values are possible, never UB.
//! let m = parse_module("define i2 @g() {\nentry:\n  %x = freeze i2 poison\n  ret i2 %x\n}")?;
//! let outcomes =
//!     enumerate_outcomes(&m, "g", &[], &Memory::zeroed(0), Semantics::proposed(), Limits::default())?;
//! assert_eq!(outcomes.len(), 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

/// The IR: types, instructions, parser, printer, verifier, analyses.
pub use frost_ir as ir;

/// The executable semantics: Figure 5, UB models, outcome enumeration.
pub use frost_core as core;

/// Exhaustive refinement checking (translation validation).
pub use frost_refine as refine;

/// The optimizer: legacy and fixed pass variants.
pub use frost_opt as opt;

/// opt-fuzz: function generation and validation campaigns.
pub use frost_fuzz as fuzz;

/// The backend: instruction selection, register allocation, simulator.
pub use frost_backend as backend;

/// The mini-C frontend.
pub use frost_cc as cc;

/// Synthetic benchmark programs.
pub use frost_workloads as workloads;

/// The observability layer: spans, counters, telemetry artifacts (see
/// docs/OBSERVABILITY.md for the contract).
pub use frost_telemetry as telemetry;

/// The one-import working set: everything a typical check-an-optimization
/// or run-a-campaign program needs.
///
/// ```
/// use frost::prelude::*;
///
/// let report = Campaign::new(Semantics::proposed())
///     .with_workers(1)
///     .run_random(&GenConfig::arithmetic(2), 7, 20, |m| {
///         o2_pipeline(PipelineMode::Fixed).run(m);
///     });
/// assert!(report.is_clean(), "{report}");
///
/// // Everything above was metered: the campaign and every pass bumped
/// // their always-on counters (see docs/OBSERVABILITY.md).
/// assert!(telemetry::snapshot().counter("frost.fuzz.campaign.checked") >= 20);
/// ```
pub mod prelude {
    pub use frost_core::{
        enumerate_function, enumerate_outcomes, Engine, FrostError, Limits, Machine, Memory,
        ModulePlan, OutcomeCache, Semantics, Val,
    };
    pub use frost_fuzz::{
        enumerate_functions, random_functions, validate_transform, Campaign, CampaignCheckpoint,
        CampaignStats, GenConfig, Pruning, ValidationReport,
    };
    pub use frost_ir::{
        check_roundtrip, function_to_string, module_to_string, parse_function, parse_module,
        print_function, print_module, FunctionAnalysisManager, FunctionKey, Module,
        ModuleAnalysisManager, ParseError, PreservedAnalyses,
    };
    pub use frost_opt::{cleanup_pipeline, o2_pipeline, Pass, PassManager, PipelineMode};
    pub use frost_refine::{
        check_refinement, check_refinement_cached, check_transform, CheckOptions, CheckResult,
        InputOptions,
    };
    pub use frost_telemetry as telemetry;
}
