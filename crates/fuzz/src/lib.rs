//! # frost-fuzz
//!
//! The opt-fuzz analogue for frost (§6 of *"Taming Undefined Behavior in
//! LLVM"*): exhaustive and random generation of small IR functions over
//! narrow integer types, plus a [validation driver](validate) that runs
//! optimization passes over the generated corpus and checks every result
//! against the original with the exhaustive refinement checker
//! (`frost-refine`) — the same methodology the paper used to "increase
//! confidence that Alive and LLVM agree on the semantics of the IR".
//!
//! ```
//! use frost_core::Semantics;
//! use frost_fuzz::{enumerate_functions, validate_transform, GenConfig};
//! use frost_opt::{Dce, InstCombine, Pass, PipelineMode};
//!
//! let cfg = GenConfig::arithmetic(1);
//! let report = validate_transform(
//!     enumerate_functions(cfg).take(200),
//!     Semantics::proposed(),
//!     |m| {
//!         for f in &mut m.functions {
//!             InstCombine::new(PipelineMode::Fixed).apply(f);
//!             Dce::new().apply(f);
//!             f.compact();
//!         }
//!     },
//! );
//! assert!(report.is_clean(), "{report}");
//! ```

#![warn(missing_docs)]

pub mod campaign;
pub mod checkpoint;
pub mod gen;
pub mod validate;

pub use campaign::{pull_chunks, Campaign, CampaignStats, Progress};
pub use checkpoint::CampaignCheckpoint;
pub use gen::{
    enumerate_functions, random_functions, random_functions_range, ExhaustiveFunctions, GenConfig,
    Pruning,
};
pub use validate::{validate_transform, ValidationReport, Violation};
