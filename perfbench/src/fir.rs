//! The `input` workload's inputs and output checks: seeded `.fir`
//! modules, and the verification of the reports `repro --input` prints
//! for them.

use frost_fuzz::{random_functions_range, GenConfig};
use frost_ir::{parse_module, FunctionKey, Module};
use frost_opt::{o2_pipeline, PipelineMode};
use frost_rng::{splitmix64, SmallRng};

/// Modules per seed.
pub const FILES: usize = 100;
/// Function count of the smallest module.
pub const MIN_FNS: usize = 150;
/// Function count of the largest module.
pub const MAX_FNS: usize = 600;

/// The function count of each module of `seed`'s set: an even ladder
/// from [`MIN_FNS`] to [`MAX_FNS`], shuffled by the seed. Every seed
/// holds the same sizes, so the total work of a pass does not depend on
/// the seed; only the order and the function bodies do.
pub fn module_sizes(seed: u64) -> Vec<usize> {
    let mut sizes: Vec<usize> = (0..FILES)
        .map(|i| MIN_FNS + (MAX_FNS - MIN_FNS) * i / (FILES - 1))
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..sizes.len()).rev() {
        sizes.swap(i, rng.gen_range(0..i + 1));
    }
    sizes
}

/// Module `index` of `seed`'s set: `count` plain functions drawn in
/// turn from the 4-instruction arithmetic, guarded and memory spaces,
/// named `a<i>`, `g<i>` and `m<i>`.
pub fn module(seed: u64, index: usize, count: usize) -> Module {
    let spaces = [
        ("a", GenConfig::arithmetic(4)),
        ("g", GenConfig::guards(4)),
        ("m", GenConfig::memory(4)),
    ];
    let stream = splitmix64(seed ^ splitmix64(index as u64 + 1));
    let mut m = Module::new();
    for i in 0..count {
        let (prefix, cfg) = &spaces[i % spaces.len()];
        let mut f = random_functions_range(cfg, stream, i, 1)
            .pop()
            .expect("one function requested");
        f.name = format!("{prefix}{i}");
        m.functions.push(f);
    }
    m
}

/// One function's line of a `repro --input` report.
#[derive(Debug, PartialEq)]
pub struct VerdictLine {
    /// The function name, without `@`.
    pub name: String,
    /// The verdict text: `sound`, `UNSOUND — …` or `inconclusive: …`.
    pub verdict: String,
}

/// The parts of a `repro --input` report the benchmark checks.
#[derive(Debug)]
pub struct Report {
    /// The translation-validation verdict of every plain function, in
    /// module order.
    pub verdicts: Vec<VerdictLine>,
    /// The canonical text of the optimized module.
    pub canonical: String,
}

const OPTIMIZED_HEADER: &str = "optimized (fixed O2 pipeline, translation-validated):";
const CANONICAL_HEADER: &str = "; canonical form after optimization\n";

/// Parses the report `repro --input` prints for a module of plain
/// functions.
///
/// # Errors
///
/// Returns a message when a section is missing or a verdict line is
/// malformed.
pub fn parse_report(text: &str) -> Result<Report, String> {
    let (head, canonical) = text
        .split_once(CANONICAL_HEADER)
        .ok_or("report has no canonical form")?;
    let (_, body) = head
        .split_once(OPTIMIZED_HEADER)
        .ok_or("report has no optimized section")?;
    let mut verdicts = Vec::new();
    for line in body.lines() {
        // Continuation lines of a counterexample are indented deeper.
        let Some(rest) = line.strip_prefix("  @") else {
            continue;
        };
        let (name, rest) = rest
            .split_once(": insts ")
            .ok_or_else(|| format!("malformed verdict line: {line}"))?;
        let (_, verdict) = rest
            .split_once(", ")
            .ok_or_else(|| format!("malformed verdict line: {line}"))?;
        verdicts.push(VerdictLine {
            name: name.to_string(),
            verdict: verdict.to_string(),
        });
    }
    Ok(Report {
        verdicts,
        canonical: canonical.to_string(),
    })
}

/// Checks one report against its source module: every function reads
/// `sound`, and the printed canonical module re-parses to the same
/// [`FunctionKey`]s as the fixed O2 pipeline gives the source here.
/// Returns the number of functions whose check failed.
///
/// # Errors
///
/// Returns a message when the source or the report as a whole is
/// unusable: unparsable, or listing other functions than the source.
pub fn check_report(src: &str, report: &str) -> Result<usize, String> {
    let module = parse_module(src).map_err(|e| format!("source does not parse: {e}"))?;
    let report = parse_report(report)?;
    let names: Vec<&str> = module.functions.iter().map(|f| f.name.as_str()).collect();
    let reported: Vec<&str> = report.verdicts.iter().map(|v| v.name.as_str()).collect();
    if names != reported {
        return Err(format!(
            "report lists {} functions, the module holds {}",
            reported.len(),
            names.len()
        ));
    }
    let printed = parse_module(&report.canonical)
        .map_err(|e| format!("canonical form does not re-parse: {e}"))?;
    let mut optimized = module.clone();
    o2_pipeline(PipelineMode::Fixed).run(&mut optimized);
    if printed.functions.len() != optimized.functions.len() {
        return Err("canonical form has a different function count".to_string());
    }
    let mut failed = 0;
    for (v, f) in report.verdicts.iter().zip(&optimized.functions) {
        let same_key = printed
            .function(&f.name)
            .is_some_and(|p| FunctionKey::of(p) == FunctionKey::of(f));
        if v.verdict != "sound" || !same_key {
            failed += 1;
        }
    }
    Ok(failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use frost_ir::module_to_string;

    #[test]
    fn sizes_are_a_shuffled_fixed_ladder() {
        let a = module_sizes(7);
        assert_eq!(a, module_sizes(7));
        assert_ne!(a, module_sizes(8));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        let mut other = module_sizes(8);
        other.sort_unstable();
        assert_eq!(sorted, other);
        assert_eq!((sorted[0], sorted[FILES - 1]), (MIN_FNS, MAX_FNS));
    }

    #[test]
    fn seed_fixes_the_module_text() {
        let text = |seed, index| module_to_string(&module(seed, index, 12));
        assert_eq!(text(3, 1), text(3, 1));
        assert_ne!(text(3, 1), text(4, 1));
        assert_ne!(text(3, 1), text(3, 2));
        let m = module(3, 1, 12);
        let names: Vec<&str> = m.functions.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(&names[..4], ["a0", "g1", "m2", "a3"]);
        assert_eq!(
            parse_module(&text(3, 1)).expect("generated text parses"),
            parse_module(&text(3, 1)).expect("generated text parses")
        );
    }

    const REPORT: &str = "module x.fir: 2 function(s), 0 declaration(s)\n\
        verify: ok (proposed mode)\n\
        \n\
        optimized (fixed O2 pipeline, translation-validated):\n\
        \x20 @g: insts 1 -> 0, sound\n\
        \x20 @h: insts 2 -> 2, UNSOUND — args = (0)\n\
        \x20     source can: ret 0\n\
        \n\
        ; canonical form after optimization\n\
        define i2 @g(i2 %x) {\nentry:\n  ret i2 %x\n}\n";

    #[test]
    fn parses_verdicts_and_canonical_form() {
        let r = parse_report(REPORT).expect("well-formed report");
        assert_eq!(
            r.verdicts,
            [
                VerdictLine {
                    name: "g".into(),
                    verdict: "sound".into()
                },
                VerdictLine {
                    name: "h".into(),
                    verdict: "UNSOUND — args = (0)".into()
                },
            ]
        );
        assert!(r.canonical.starts_with("define i2 @g"));
        assert!(parse_report("module x.fir: 0 function(s)\n").is_err());
    }

    #[test]
    fn checks_the_product_report() {
        let src = "define i2 @g(i2 %x) {\nentry:\n  %a = add i2 %x, 0\n  ret i2 %a\n}\n";
        let report = frost_bench::run_input_text("g.fir", src).expect("module checks");
        assert_eq!(check_report(src, &report), Ok(0));
        let unsound = report.replace(", sound", ", UNSOUND");
        assert_eq!(check_report(src, &unsound), Ok(1));
        let other = src.replace("add i2 %x, 0", "add i2 %x, 1");
        assert_eq!(check_report(&other, &report), Ok(1));
    }
}
