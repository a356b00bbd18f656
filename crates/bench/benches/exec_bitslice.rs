//! Bit-sliced evaluator vs. plan machine on the §6 inner loop: one
//! all-i2 function, every enumerated input tuple. The plan machine
//! pays an interpreter pass per tuple (times each nondeterministic
//! choice script); the bit-sliced backend evaluates all tuples per
//! bitplane operation, so its advantage grows with the number of
//! choice scripts. Rows cover both regimes:
//!
//! * `arith` / `selects` — deterministic (`scripts = 1`): one
//!   bitplane pass replaces 25 interpreter passes (~5× per tuple;
//!   the shared `OutcomeSet` materialization cost bounds it there).
//! * `freeze_*` / `undef_legacy` — nondeterminism-bearing (`freeze` of
//!   a possibly-poison value, `undef` under the legacy semantics):
//!   the plan machine re-interprets the function per script while the
//!   bit-sliced backend re-runs only the suffix after each choice
//!   site (~5-7× per tuple, growing with script count).
//!
//! Per row the harness prints plan time, bit-sliced lowering time
//! (a per-*function* cost, reported separately), bit-sliced evaluation
//! time, and the per-tuple speedup `plan / evaluate`.

use frost_bench::Runner;
use frost_core::{
    uninit_fill, BitslicePlan, Limits, Machine, Memory, ModulePlan, OutcomeSet, Semantics,
};
use frost_fuzz::{enumerate_functions, GenConfig};
use frost_ir::{parse_module, Module};
use frost_refine::{enumerate_inputs, InputOptions};

/// One §6-shaped benchmark row.
struct Row {
    label: &'static str,
    module: Module,
    sem: Semantics,
    /// Enumerate `undef` input lanes too (the legacy-semantics rows).
    with_undef: bool,
}

impl Row {
    fn parsed(label: &'static str, src: &str, sem: Semantics, with_undef: bool) -> Row {
        Row {
            label,
            module: parse_module(src).expect("row parses"),
            sem,
            with_undef,
        }
    }

    fn generated(label: &'static str, cfg: GenConfig, nth: usize) -> Row {
        let f = enumerate_functions(cfg)
            .nth(nth)
            .expect("space is larger than that");
        let mut module = Module::new();
        module.functions.push(f);
        Row {
            label,
            module,
            sem: Semantics::proposed(),
            with_undef: false,
        }
    }
}

/// Deterministic rows from the exhaustive generator plus hand-picked
/// nondeterminism-bearing shapes (`freeze`, `undef`) that dominate the
/// §6 all-i2 space once poison-producing flags are in play.
fn corpus() -> Vec<Row> {
    vec![
        Row::generated("arith", GenConfig::arithmetic(2), 12_345),
        Row::generated("selects", GenConfig::with_selects(2), 23_456),
        Row::parsed(
            "freeze_nsw",
            "define i2 @f(i2 %a, i2 %b) {\nentry:\n  %t0 = add nsw i2 %a, %b\n  \
             %t1 = freeze i2 %t0\n  ret i2 %t1\n}",
            Semantics::proposed(),
            false,
        ),
        Row::parsed(
            "freeze_param",
            "define i2 @f(i2 %a, i2 %b) {\nentry:\n  %t0 = freeze i2 %a\n  \
             %t1 = mul i2 %t0, %b\n  ret i2 %t1\n}",
            Semantics::proposed(),
            false,
        ),
        Row::parsed(
            "undef_legacy",
            "define i2 @f(i2 %a, i2 %b) {\nentry:\n  %t0 = add i2 %a, undef\n  \
             %t1 = xor i2 %t0, %b\n  ret i2 %t1\n}",
            Semantics::legacy_gvn(),
            true,
        ),
    ]
}

fn main() {
    let r = Runner::new();
    let limits = Limits::default();

    for row in corpus() {
        let Row {
            label,
            module,
            sem,
            with_undef,
        } = row;
        let f = &module.functions[0];
        let name = f.name.clone();
        let (tuples, block_sizes) =
            enumerate_inputs(f, &InputOptions::new().with_undef(with_undef)).expect("enumerable");
        let mem = Memory::with_initial_blocks(&block_sizes, uninit_fill(&sem));
        let plan = ModulePlan::compile(&module, sem);
        let idx = plan.function_index(&name).unwrap();
        let mut machine = Machine::new();

        // The two engines must agree byte-for-byte before their
        // throughput is worth comparing.
        let slice = BitslicePlan::compile(&plan, idx, &tuples, limits).expect("eligible");
        let snapshot = mem.snapshot();
        let sliced = slice.evaluate().sets(&snapshot);
        let looped: Vec<OutcomeSet> = tuples
            .iter()
            .map(|args| {
                plan.enumerate(idx, args, &mem, limits, &mut machine)
                    .expect("enumerates")
            })
            .collect();
        assert_eq!(sliced, looped, "engines diverge on {label}:\n{module}");

        let n = tuples.len();
        println!("{label}: tuples={n} scripts={}", slice.scripts());
        let plan_t = r.bench(&format!("plan_{label}"), || {
            tuples
                .iter()
                .map(|args| {
                    plan.enumerate(idx, args, &mem, limits, &mut machine)
                        .expect("enumerates")
                        .len()
                })
                .sum::<usize>()
        });
        // Lowering runs once per (function, input set) under
        // `Engine::Auto` — a fixed per-function cost, reported on its
        // own line rather than folded into the per-tuple ratio.
        r.bench(&format!("bitslice_compile_{label}"), || {
            BitslicePlan::compile(&plan, idx, &tuples, limits)
                .expect("eligible")
                .scripts()
        });
        let eval_t = r.bench(&format!("bitslice_eval_{label}"), || {
            slice
                .evaluate()
                .sets(&snapshot)
                .iter()
                .map(OutcomeSet::len)
                .sum::<usize>()
        });
        let ratio = plan_t.best.as_nanos() as f64 / eval_t.best.as_nanos().max(1) as f64;
        println!("{label}: per-tuple speedup {ratio:.1}x");
        // Regression guard, deliberately below the measured margins
        // (4.9-5.1x deterministic, 5.2-6.9x nondeterministic) so
        // scheduler noise on a loaded CI box cannot flake it.
        let floor = if slice.scripts() > 1 { 3.0 } else { 2.0 };
        assert!(
            ratio >= floor,
            "bit-sliced evaluation regressed on {label}: {ratio:.2}x < {floor}x"
        );
    }
}
