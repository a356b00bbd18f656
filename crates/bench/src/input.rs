//! The `repro --input <file.fir>` driver: check, optimize, and
//! validate a *textual* IR module.
//!
//! This is the first externally-drivable entry point of the checker —
//! a module no Rust code constructed flows through the same pipeline
//! the §6/§7 experiments use:
//!
//! 1. parse (`frost_ir::text`), reporting caret-underlined
//!    [`ParseError`]s on malformed input;
//! 2. verify (legacy mode, so `undef`-bearing modules are admitted);
//! 3. for every pair `@f` / `@f.tgt`, run an exhaustive refinement
//!    check `@f ⊑ @f.tgt` — the way the §5.4 load-widening examples
//!    under `examples/*.fir` express a proposed transformation;
//! 4. for every other function, apply the fixed O2 pipeline and
//!    translation-validate the result against the original;
//! 5. print the canonical form of the optimized module.
//!
//! Soundness verdicts (including `UNSOUND`) are *results*, not errors:
//! the driver only fails on I/O, parse, or verifier problems.

use std::collections::HashSet;
use std::fmt::Write as _;

use frost_core::Semantics;
use frost_ir::{module_to_string, parse_module, verify_module, Module, ParseError, VerifyMode};
use frost_opt::{o2_pipeline, PipelineMode};
use frost_refine::{check_refinement, CheckOptions, CheckResult, InputOptions};

/// Why `--input` failed (verdicts are not failures; see module docs).
#[derive(Debug)]
pub enum InputError {
    /// The file could not be read.
    Io(String),
    /// The module did not parse; the payload renders the
    /// caret-underlined excerpt.
    Parse(ParseError),
    /// The module parsed but failed the verifier.
    Verify(Vec<String>),
}

impl std::fmt::Display for InputError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InputError::Io(e) => write!(f, "{e}"),
            InputError::Parse(e) => write!(f, "{e}"),
            InputError::Verify(errs) => {
                write!(f, "module failed to verify:")?;
                for e in errs {
                    write!(f, "\n  {e}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for InputError {}

/// The suffix that marks a function as the proposed-transformation
/// target of its unsuffixed partner.
const TGT_SUFFIX: &str = ".tgt";

fn verdict_line(r: &CheckResult) -> String {
    match r {
        CheckResult::Refines => "sound".into(),
        CheckResult::CounterExample(ce) => {
            format!("UNSOUND — {}", ce.to_string().replace('\n', "\n      "))
        }
        CheckResult::Inconclusive(why) => format!("inconclusive: {why}"),
    }
}

/// Runs the full `--input` pipeline on already-loaded source text.
/// `name` is only used in the report header.
///
/// # Errors
///
/// Returns [`InputError`] on parse or verifier failure (never on an
/// unsound verdict).
pub fn run_input_text(name: &str, src: &str) -> Result<String, InputError> {
    let module = parse_module(src).map_err(InputError::Parse)?;
    verify_module(&module, VerifyMode::Legacy).map_err(InputError::Verify)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "module {name}: {} function(s), {} declaration(s)",
        module.functions.len(),
        module.declarations.len()
    );
    let proposed_clean = verify_module(&module, VerifyMode::Proposed).is_ok();
    let _ = writeln!(
        out,
        "verify: ok ({})",
        if proposed_clean {
            "proposed mode"
        } else {
            "legacy mode — module uses undef"
        }
    );

    // Split the module into explicit src/tgt refinement pairs and
    // plain functions to push through the optimizer.
    let defined: HashSet<&str> = module.functions.iter().map(|f| f.name.as_str()).collect();
    let (mut pairs, mut plain) = (Vec::new(), Vec::new());
    for f in &module.functions {
        let n = f.name.as_str();
        if defined.contains(format!("{n}{TGT_SUFFIX}").as_str()) {
            pairs.push(n);
        } else if !n.ends_with(TGT_SUFFIX) {
            plain.push(n);
        }
    }
    let opts = CheckOptions::new(Semantics::proposed())
        .with_inputs(InputOptions::new().with_bytes_per_pointer(4));

    if !pairs.is_empty() {
        let _ = writeln!(
            out,
            "\nrefinement pairs (@f -> @f{TGT_SUFFIX}, proposed semantics, 4 bytes/pointer):"
        );
        for name in &pairs {
            let tgt = format!("{name}{TGT_SUFFIX}");
            let verdict = check_refinement(&module, name, &module, &tgt, &opts);
            let _ = writeln!(out, "  @{name} -> @{tgt}: {}", verdict_line(&verdict));
        }
    }

    let mut optimized: Module = module.clone();
    if !plain.is_empty() {
        let pm = o2_pipeline(PipelineMode::Fixed);
        pm.run(&mut optimized);
        let _ = writeln!(
            out,
            "\noptimized (fixed O2 pipeline, translation-validated):"
        );
        for name in &plain {
            let before = module.function(name).expect("name from module");
            let after = optimized.function(name).expect("name survives O2");
            let verdict = check_refinement(&module, name, &optimized, name, &opts);
            let _ = writeln!(
                out,
                "  @{name}: insts {} -> {}, {}",
                before.placed_inst_count(),
                after.placed_inst_count(),
                verdict_line(&verdict)
            );
        }
    }

    let _ = writeln!(out, "\n; canonical form after optimization");
    let _ = write!(out, "{}", module_to_string(&optimized));
    Ok(out)
}

/// Reads `path` and runs [`run_input_text`] on its contents.
///
/// # Errors
///
/// Returns [`InputError`] if the file cannot be read, does not parse,
/// or does not verify.
pub fn run_input(path: &str) -> Result<String, InputError> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| InputError::Io(format!("cannot read {path}: {e}")))?;
    run_input_text(path, &src)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_refinement_pair_verdicts() {
        let src = "\
define i2 @f(i2 %x) {\nentry:\n  %a = add nsw i2 %x, 1\n  ret i2 %a\n}\n\
define i2 @f.tgt(i2 %x) {\nentry:\n  %a = add i2 %x, 1\n  ret i2 %a\n}\n";
        let report = run_input_text("pair.fir", src).unwrap();
        assert!(report.contains("@f -> @f.tgt: sound"), "{report}");
    }

    #[test]
    fn reports_unsound_pairs_without_failing() {
        // Dropping nsw is sound; *adding* nsw is not.
        let src = "\
define i2 @f(i2 %x) {\nentry:\n  %a = add i2 %x, 1\n  ret i2 %a\n}\n\
define i2 @f.tgt(i2 %x) {\nentry:\n  %a = add nsw i2 %x, 1\n  ret i2 %a\n}\n";
        let report = run_input_text("pair.fir", src).unwrap();
        assert!(report.contains("@f -> @f.tgt: UNSOUND"), "{report}");
    }

    #[test]
    fn optimizes_and_validates_plain_functions() {
        let src = "define i2 @g(i2 %x) {\nentry:\n  %a = add i2 %x, 0\n  ret i2 %a\n}\n";
        let report = run_input_text("plain.fir", src).unwrap();
        assert!(report.contains("@g: insts 1 -> 0, sound"), "{report}");
        assert!(report.contains("canonical form"), "{report}");
    }

    #[test]
    fn parse_failures_render_carets() {
        let err =
            run_input_text("bad.fir", "define i2 @f() {\nentry:\n  ret i2 %nope\n}").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown local"), "{msg}");
        assert!(msg.contains("^^^^^"), "{msg}");
    }
}
