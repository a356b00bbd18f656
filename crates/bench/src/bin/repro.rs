//! Regenerates the paper's tables and figures, and drives textual IR
//! files through the checker. Usage:
//!
//! ```text
//! repro [--experiment NAME] [--quick] [--budget N]
//!       [--insts N] [--seconds N] [--checkpoint FILE] [--fuzz N]
//!       [--prune] [--mem] [--guards] [--shards K] [--shard-id I] [--merge FILE]...
//!       [--bench-json FILE]
//!       [--trace] [--counters] [--validate-trace FILE]
//! repro --input FILE.fir
//! ```
//!
//! `--input FILE.fir` parses a textual frost IR module (see
//! docs/IR_REFERENCE.md), verifies it, exhaustively checks every
//! `@f` / `@f.tgt` refinement pair, optimizes the remaining functions
//! with the fixed O2 pipeline (translation-validating the result), and
//! prints the canonical form. Exit 1 on parse/verifier errors — with a
//! caret-underlined excerpt — never on an UNSOUND verdict.
//!
//! Experiments: fig6, compile-time, memory, objsize, optfuzz,
//! inconsistencies, widening, loadwiden, queens, all (default),
//! roundtrip (explicit-only: the print→parse→`FunctionKey`
//! roundtrip-fidelity gate over the full §6 corpus plus a `--fuzz`-sized
//! random sample), and sweep (explicit-only: the full unsampled §6
//! exhaustive sweep; `--checkpoint` makes it resumable across restarts,
//! `--seconds`/`--budget` bound one run, `--prune` enumerates only
//! canonical live functions, `--shards K --shard-id I` runs one
//! residue class of a K-process campaign, `--merge FILE` (repeated)
//! folds per-shard checkpoints into the whole-space summary instead of
//! sweeping, and `--bench-json FILE` writes a machine-readable
//! benchmark record).
//!
//! Observability (see docs/OBSERVABILITY.md): `--trace` records every
//! span of the run, writes the JSONL artifact to `telemetry.jsonl` (or
//! `$FROST_TRACE_FILE`), validates it, and prints a top-k profile
//! table. `--counters` prints the counter deltas the run produced.
//! `--validate-trace FILE` checks an existing artifact against the
//! schema and exits (0 valid, 1 malformed). The `FROST_TRACE` env var
//! also enables tracing, for processes whose flags you don't control.

use frost_bench::{counters_table, experiments, profile_table, Domain};

/// Rows shown by the `--trace` profile table.
const PROFILE_TOP_K: usize = 15;

fn validate_trace_file(path: &str) -> ! {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    match frost_telemetry::validate_jsonl(&text) {
        Ok(stats) => {
            println!(
                "{path}: valid ({} lines: {} starts, {} stops, {} points, {} bench, \
                 {} unmatched, {} span keys)",
                stats.lines,
                stats.starts,
                stats.stops,
                stats.points,
                stats.bench,
                stats.unmatched,
                stats.by_key.len()
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("{path}: malformed telemetry: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    frost_telemetry::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = "all".to_string();
    let mut quick = false;
    let mut budget = 400usize;
    let mut budget_given = false;
    let mut insts = 2usize;
    let mut seconds: Option<u64> = None;
    let mut checkpoint: Option<String> = None;
    let mut trace = false;
    let mut counters = false;
    let mut fuzz = 10_000usize;
    let mut input: Option<String> = None;
    let mut prune = false;
    let mut shards = 1usize;
    let mut shard_id = 0usize;
    let mut merge: Vec<std::path::PathBuf> = Vec::new();
    let mut bench_json: Option<String> = None;
    let mut mem = false;
    let mut guards = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--input" => {
                i += 1;
                input = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--input needs a .fir file");
                    std::process::exit(2);
                }));
            }
            "--fuzz" => {
                i += 1;
                fuzz = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--fuzz needs a number");
                    std::process::exit(2);
                });
            }
            "--experiment" | "-e" => {
                i += 1;
                experiment = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--experiment needs a value");
                    std::process::exit(2);
                });
            }
            "--quick" | "-q" => quick = true,
            "--budget" | "-b" => {
                i += 1;
                budget = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--budget needs a number");
                    std::process::exit(2);
                });
                if budget == 0 {
                    eprintln!("--budget must be at least 1");
                    std::process::exit(2);
                }
                budget_given = true;
            }
            "--insts" => {
                i += 1;
                insts = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--insts needs a number");
                    std::process::exit(2);
                });
                if insts == 0 {
                    eprintln!("--insts must be at least 1");
                    std::process::exit(2);
                }
            }
            "--seconds" => {
                i += 1;
                seconds = Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seconds needs a number");
                    std::process::exit(2);
                }));
            }
            "--checkpoint" => {
                i += 1;
                checkpoint = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--checkpoint needs a file");
                    std::process::exit(2);
                }));
            }
            "--prune" => prune = true,
            "--mem" => mem = true,
            "--guards" => guards = true,
            "--shards" => {
                i += 1;
                shards = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--shards needs a number");
                    std::process::exit(2);
                });
                if shards == 0 {
                    eprintln!("--shards must be at least 1");
                    std::process::exit(2);
                }
            }
            "--shard-id" => {
                i += 1;
                shard_id = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--shard-id needs a number");
                    std::process::exit(2);
                });
            }
            "--merge" => {
                i += 1;
                merge.push(args.get(i).cloned().map(Into::into).unwrap_or_else(|| {
                    eprintln!("--merge needs a checkpoint file (repeat for each shard)");
                    std::process::exit(2);
                }));
            }
            "--bench-json" => {
                i += 1;
                bench_json = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--bench-json needs a file");
                    std::process::exit(2);
                }));
            }
            "--trace" => trace = true,
            "--counters" => counters = true,
            "--validate-trace" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    eprintln!("--validate-trace needs a file");
                    std::process::exit(2);
                };
                validate_trace_file(path);
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--experiment fig6|compile-time|memory|objsize|optfuzz|\
                     inconsistencies|widening|loadwiden|queens|roundtrip|sweep|all] [--quick] \
                     [--budget N]\n\
                     \x20            [--insts N] [--seconds N] [--checkpoint FILE] [--fuzz N]\n\
                     \x20            [--prune] [--shards K] [--shard-id I] [--merge FILE]...\n\
                     \x20            [--bench-json FILE]\n\
                     \x20            [--trace] [--counters] [--validate-trace FILE]\n\
                     \x20      repro --input FILE.fir\n\
                     \n\
                     --input FILE.fir  parse, verify, check @f/@f.tgt refinement pairs,\n\
                     \x20                 optimize + translation-validate the rest, print the\n\
                     \x20                 canonical form (exit 1 only on parse/verify errors)\n\
                     --fuzz N          roundtrip only: random-sample size (default 10000)\n\
                     --trace           record spans, write + validate telemetry.jsonl\n\
                     \x20                 (or $FROST_TRACE_FILE), print a profile table\n\
                     --counters        print the counter deltas of the run\n\
                     --validate-trace  check an existing telemetry.jsonl and exit\n\
                     \n\
                     sweep only (not part of 'all' — the full unsampled §6 space):\n\
                     --insts N         instructions per generated function (default 2)\n\
                     --seconds N       wall-clock deadline; checkpoint + resume to continue\n\
                     --budget N        max functions this run (default: unbounded for sweep)\n\
                     --checkpoint F    load cursor from F if it exists, save it on exit\n\
                     \x20                 (with --merge: where the merged artifact lands)\n\
                     --prune           enumerate only canonical live functions (skip\n\
                     \x20                 commutative mirrors, const-position mirrors, dead\n\
                     \x20                 intermediates; arithmetic domain only)\n\
                     --mem             sweep the §5 memory domain instead: tiny\n\
                     \x20                 alloca/load/store/gep/ptrtoint/inttoptr programs,\n\
                     \x20                 each over every initial memory content, against the\n\
                     \x20                 fixed alias-aware GVN\n\
                     --guards          sweep the guarded domain instead: assume over raw,\n\
                     \x20                 compared, and frozen facts (poison included),\n\
                     \x20                 against the fixed assume-simplify + guard-dce band\n\
                     --shards K        partition the space over K worker processes\n\
                     --shard-id I      which residue class this process sweeps (0-based)\n\
                     --merge F         fold per-shard checkpoints (repeat per shard) into\n\
                     \x20                 the whole-space summary instead of sweeping\n\
                     --bench-json F    write a one-line machine-readable benchmark record"
                );
                return;
            }
            other => {
                eprintln!("unknown argument '{other}' (try --help)");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if shard_id >= shards {
        eprintln!("--shard-id {shard_id} out of range for --shards {shards}");
        std::process::exit(2);
    }

    if let Some(path) = input {
        match frost_bench::run_input(&path) {
            Ok(report) => {
                println!("{report}");
                return;
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
    }

    if trace {
        frost_telemetry::enable(frost_telemetry::TraceFormat::Jsonl);
        frost_telemetry::drain();
    }
    let before = counters.then(frost_telemetry::snapshot);

    let mut matched = false;
    let mut run = |name: &str| -> bool {
        let hit = experiment == "all" || experiment == name;
        matched |= hit;
        hit
    };
    let mut failures = 0;
    let mut print = |r: Result<frost_bench::Table, frost_core::FrostError>| match r {
        Ok(t) => println!("{t}"),
        Err(e) => {
            eprintln!("experiment failed: {e}");
            failures += 1;
        }
    };

    if run("inconsistencies") {
        println!("{}", experiments::inconsistencies());
    }
    if run("optfuzz") {
        println!("{}", experiments::optfuzz(budget));
    }
    // Explicit-only: minutes of work, meant for ci.sh and releases.
    if experiment == "roundtrip" && run("roundtrip") {
        match experiments::roundtrip(fuzz, quick) {
            Ok((t, summary)) => {
                println!("{t}");
                println!("{summary}");
            }
            Err(e) => print(Err(e)),
        }
    }
    // Explicit-only: the full space is too large for the `all` sweep.
    if experiment == "sweep" && run("sweep") {
        // With --merge files the coordinator folds per-shard
        // checkpoints instead of sweeping; --checkpoint then names
        // where the merged artifact lands.
        let result = if merge.is_empty() {
            let domain = match (mem, guards) {
                (false, false) => Ok(Domain::Arith),
                (false, true) => Ok(Domain::Guard),
                (true, false) => Ok(Domain::Mem),
                (true, true) => Err(frost_core::FrostError::stage(
                    "config",
                    "sweep",
                    "--mem and --guards sweep different domains; pick one".to_string(),
                )),
            };
            domain.and_then(|domain| {
                experiments::sweep(
                    domain,
                    &experiments::SweepRun {
                        insts,
                        budget: budget_given.then_some(budget),
                        seconds,
                        checkpoint: checkpoint.as_deref().map(std::path::Path::new),
                        prune,
                        shard: (shards > 1).then_some((shard_id, shards)),
                        bench_json: bench_json.as_deref().map(std::path::Path::new),
                    },
                )
            })
        } else {
            experiments::sweep_merge(&merge, checkpoint.as_deref().map(std::path::Path::new))
        };
        match result {
            Ok((t, summary)) => {
                println!("{t}");
                println!("{summary}");
            }
            Err(e) => print(Err(e)),
        }
    }
    if run("widening") {
        print(experiments::widening());
    }
    if run("loadwiden") {
        print(experiments::loadwiden());
    }
    if run("queens") {
        print(experiments::queens_anecdote());
    }
    if run("fig6") {
        print(experiments::fig6(quick));
    }
    if run("compile-time") {
        print(experiments::compile_time(quick));
    }
    if run("memory") {
        print(experiments::memory(quick));
    }
    if run("objsize") {
        print(experiments::objsize(quick));
    }
    if !matched {
        eprintln!("unknown experiment '{experiment}' (try --help)");
        std::process::exit(2);
    }

    if let Some(before) = before {
        println!(
            "{}",
            counters_table(&frost_telemetry::snapshot().delta(&before))
        );
    }
    if trace {
        let events = frost_telemetry::drain();
        let jsonl = frost_telemetry::render_jsonl(&events);
        let path =
            std::env::var("FROST_TRACE_FILE").unwrap_or_else(|_| "telemetry.jsonl".to_string());
        if let Err(e) = std::fs::write(&path, &jsonl) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        match frost_telemetry::validate_jsonl(&jsonl) {
            Ok(stats) => {
                println!("{}", profile_table(&stats, PROFILE_TOP_K));
                println!(
                    "wrote {path}: {} events ({} dropped by the ring buffer)",
                    stats.lines,
                    frost_telemetry::dropped_events()
                );
            }
            Err(e) => {
                eprintln!("internal error: emitted malformed telemetry: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
