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
//! O2 (function-local, so each function to its own fixpoint), then the
//! checks, run function by function on the campaign's pull loop
//! ([`pull_chunks`]); the report is joined in module order.
//!
//! Soundness verdicts (including `UNSOUND`) are *results*, not errors:
//! the driver only fails on I/O, parse, or verifier problems.

use std::collections::HashMap;
use std::fmt::Write as _;

use frost_core::Semantics;
use frost_fuzz::pull_chunks;
use frost_ir::{module_to_string, parse_module, verify_module_uses_undef, ParseError, VerifyMode};
use frost_opt::{o2_pipeline, PipelineMode};
use frost_refine::{check_refinement_fn, CheckOptions, CheckResult, InputOptions};

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
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    run_input_pooled(name, src, workers, MIN_CHUNK)
}

/// The fewest functions a chunk of O2 or checks holds.
const MIN_CHUNK: usize = 4;

/// Chunks a stage aims for per worker, so that a 150-function module
/// feeds two workers and a worker finishing early idles at most one.
const CHUNKS_PER_WORKER: usize = 16;

/// [`run_input_text`] on at most `workers` threads, in chunks of at
/// least `min_chunk` functions. The report depends on neither.
pub(crate) fn run_input_pooled(
    name: &str,
    src: &str,
    workers: usize,
    min_chunk: usize,
) -> Result<String, InputError> {
    let module = parse_module(src).map_err(InputError::Parse)?;
    let uses_undef =
        verify_module_uses_undef(&module, VerifyMode::Legacy).map_err(InputError::Verify)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "module {name}: {} function(s), {} declaration(s)",
        module.functions.len(),
        module.declarations.len()
    );
    let _ = writeln!(
        out,
        "verify: ok ({})",
        if uses_undef {
            "legacy mode — module uses undef"
        } else {
            "proposed mode"
        }
    );

    // Each check by position: `@f` against its `@f.tgt`, or a plain
    // function (no target) against its optimized self. A verified
    // module defines each name once.
    let position: HashMap<&str, usize> = (module.functions.iter().enumerate())
        .map(|(i, f)| (f.name.as_str(), i))
        .collect();
    let (mut checks, mut plain) = (Vec::new(), Vec::new());
    for (i, f) in module.functions.iter().enumerate() {
        let n = f.name.as_str();
        if let Some(&t) = position.get(format!("{n}{TGT_SUFFIX}").as_str()) {
            checks.push((i, Some(t)));
        } else if !n.ends_with(TGT_SUFFIX) {
            plain.push((i, None));
        }
    }
    let pairs = checks.len();
    checks.append(&mut plain);
    let size = (module.functions.len() / (workers * CHUNKS_PER_WORKER)).max(min_chunk.max(1));

    let (mut optimized, no_halt) = (module.clone(), || false);
    if pairs < checks.len() {
        let pm = o2_pipeline(PipelineMode::Fixed);
        let chunks = optimized.functions.chunks_mut(size);
        pull_chunks(workers, chunks, no_halt, |fam, (_, funcs, _)| {
            for f in funcs {
                pm.run_on_function_with(f, fam);
            }
        });
    }

    let opts = CheckOptions::new(Semantics::proposed())
        .with_inputs(InputOptions::new().with_bytes_per_pointer(4));
    let check = |&(i, tgt): &(usize, Option<usize>)| {
        let src = &module.functions[i];
        let Some(t) = tgt else {
            let after = &optimized.functions[i];
            let verdict =
                verdict_line(&check_refinement_fn(&module, src, &optimized, after, &opts));
            let (n, m) = (src.placed_inst_count(), after.placed_inst_count());
            return format!("  @{}: insts {n} -> {m}, {verdict}\n", src.name);
        };
        let tgt = &module.functions[t];
        let verdict = verdict_line(&check_refinement_fn(&module, src, &module, tgt, &opts));
        format!("  @{} -> @{}: {verdict}\n", src.name, tgt.name)
    };
    let mut lines = vec![String::new(); checks.len()];
    let chunks = checks.chunks(size).zip(lines.chunks_mut(size));
    pull_chunks(workers, chunks, no_halt, |(), (_, (checks, lines), _)| {
        for (c, line) in checks.iter().zip(lines) {
            *line = check(c);
        }
    });

    let (pair_lines, plain_lines) = lines.split_at(pairs);
    let pair_head = "refinement pairs (@f -> @f.tgt, proposed semantics, 4 bytes/pointer)";
    let plain_head = "optimized (fixed O2 pipeline, translation-validated)";
    for (head, lines) in [(pair_head, pair_lines), (plain_head, plain_lines)] {
        if !lines.is_empty() {
            let _ = writeln!(out, "\n{head}:");
            out.extend(lines.iter().map(String::as_str));
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
    use frost_fuzz::{random_functions, GenConfig};
    use frost_ir::{verify_module, Module};
    use frost_refine::check_refinement;
    use std::collections::HashSet;

    /// The report as the whole-module algorithm builds it: two verify
    /// walks, one O2 fixpoint over the module, and every check's
    /// functions looked up by name.
    fn module_report(name: &str, src: &str) -> String {
        let module = parse_module(src).unwrap();
        verify_module(&module, VerifyMode::Legacy).unwrap();
        let mut out = format!(
            "module {name}: {} function(s), {} declaration(s)\nverify: ok ({})\n",
            module.functions.len(),
            module.declarations.len(),
            if verify_module(&module, VerifyMode::Proposed).is_ok() {
                "proposed mode"
            } else {
                "legacy mode — module uses undef"
            }
        );
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
            out += "\nrefinement pairs (@f -> @f.tgt, proposed semantics, 4 bytes/pointer):\n";
            for n in &pairs {
                let tgt = format!("{n}{TGT_SUFFIX}");
                let verdict = check_refinement(&module, n, &module, &tgt, &opts);
                let _ = writeln!(out, "  @{n} -> @{tgt}: {}", verdict_line(&verdict));
            }
        }
        let mut optimized = module.clone();
        if !plain.is_empty() {
            o2_pipeline(PipelineMode::Fixed).run(&mut optimized);
            out += "\noptimized (fixed O2 pipeline, translation-validated):\n";
            for n in &plain {
                let (before, after) = (module.function(n), optimized.function(n));
                let verdict = check_refinement(&module, n, &optimized, n, &opts);
                let _ = writeln!(
                    out,
                    "  @{n}: insts {} -> {}, {}",
                    before.unwrap().placed_inst_count(),
                    after.unwrap().placed_inst_count(),
                    verdict_line(&verdict)
                );
            }
        }
        out + "\n; canonical form after optimization\n" + &module_to_string(&optimized)
    }

    #[test]
    fn the_report_does_not_depend_on_workers_or_chunks() {
        // A callee-swap pair, callers of optimized callees, and 24
        // plain functions of the perfbench spaces: many chunks of each
        // kind at the smallest chunk sizes.
        let mut generated = Module::new();
        for (prefix, cfg) in [
            ("a", GenConfig::arithmetic(4)),
            ("g", GenConfig::guards(4)),
            ("m", GenConfig::memory(4)),
        ] {
            for (i, mut f) in random_functions(cfg, 11, 8).into_iter().enumerate() {
                f.name = format!("{prefix}{i}");
                generated.functions.push(f);
            }
        }
        let src = format!(
            "{}{}\
             define i8 @twice(i8 %x) {{\nentry:\n  %a = call i8 @add_one(i8 %x)\n  \
             %b = call i8 @add_one_nsw(i8 %a)\n  ret i8 %b\n}}\n",
            include_str!("../../../examples/callee_swap.fir"),
            module_to_string(&generated)
        );
        let with_undef = format!(
            "{src}define i2 @u(i2 %x) {{\nentry:\n  %a = or i2 %x, undef\n  ret i2 %a\n}}\n"
        );
        for (src, verify) in [
            (&src, "verify: ok (proposed mode)"),
            (&with_undef, "verify: ok (legacy mode — module uses undef)"),
        ] {
            let want = module_report("mixed.fir", src);
            assert_eq!(want.lines().nth(1), Some(verify));
            assert!(want.contains("@f -> @f.tgt: UNSOUND"), "{want}");
            for (workers, min_chunk) in [(1, MIN_CHUNK), (4, 1), (4, 3)] {
                let got = run_input_pooled("mixed.fir", src, workers, min_chunk).unwrap();
                assert_eq!(got, want, "{workers} worker(s), chunks of {min_chunk}+");
            }
        }
    }

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
