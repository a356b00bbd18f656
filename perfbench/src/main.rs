//! Helper of the verdict-pipeline benchmark, driven by `run.py` (see
//! NOTES.md). Each subcommand prints one JSON line:
//!
//! ```text
//! perfbench env
//! perfbench gen-input --seed N --out DIR
//! perfbench check-input --dir DIR
//! perfbench trace-sweep --domain arith|guard|mem --insts N --shards K --shard-id I --limit L
//! perfbench trace-input --seed N --files F
//! ```

mod fir;
mod layers;

use std::path::Path;
use std::str::FromStr;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn flag<T: FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let i = args
        .iter()
        .position(|a| a == name)
        .ok_or_else(|| format!("missing {name}"))?;
    args.get(i + 1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{name} needs a value"))
}

fn run(args: &[String]) -> Result<String, String> {
    match args.first().map(String::as_str) {
        Some("env") => {
            let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
            Ok(format!("{{\"available_parallelism\":{workers}}}"))
        }
        Some("gen-input") => gen_input(flag(args, "--seed")?, &flag::<String>(args, "--out")?),
        Some("check-input") => check_input(&flag::<String>(args, "--dir")?),
        Some("trace-sweep") => {
            let domain: String = flag(args, "--domain")?;
            let slice = layers::SweepSlice {
                domain: layers::Domain::parse(&domain)
                    .ok_or_else(|| format!("unknown domain {domain}"))?,
                insts: flag(args, "--insts")?,
                shards: flag(args, "--shards")?,
                shard_id: flag(args, "--shard-id")?,
                limit: flag(args, "--limit")?,
            };
            if slice.shards == 0 || slice.shard_id >= slice.shards || slice.insts == 0 {
                return Err("need --insts >= 1 and --shard-id < --shards".to_string());
            }
            Ok(traced_json(&layers::trace_sweep(&slice)))
        }
        Some("trace-input") => {
            let files: usize = flag(args, "--files")?;
            if files == 0 || files > fir::FILES {
                return Err(format!("--files must be 1..={}", fir::FILES));
            }
            Ok(traced_json(&layers::trace_input(
                flag(args, "--seed")?,
                files,
            )))
        }
        _ => Err("usage: perfbench env|gen-input|check-input|trace-sweep|trace-input".to_string()),
    }
}

/// Writes the seed's modules as `inNNN.fir`, plus the one-function
/// module `one.fir` that set-up probes check, and lists them.
fn gen_input(seed: u64, out: &str) -> Result<String, String> {
    let dir = Path::new(out);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {out}: {e}"))?;
    let write = |name: &str, m: &frost_ir::Module| {
        std::fs::write(dir.join(name), frost_ir::module_to_string(m))
            .map_err(|e| format!("cannot write {name}: {e}"))
    };
    let mut files = Vec::new();
    for (i, n) in fir::module_sizes(seed).into_iter().enumerate() {
        let name = format!("in{i:03}.fir");
        write(&name, &fir::module(seed, i, n))?;
        files.push(format!("{{\"name\":\"{name}\",\"functions\":{n}}}"));
    }
    write("one.fir", &fir::module(seed, fir::FILES, 1))?;
    Ok(format!(
        "{{\"files\":[{}],\"one\":\"one.fir\"}}",
        files.join(",")
    ))
}

/// Checks every `inNNN.out` report in `dir` against its `inNNN.fir`.
fn check_input(dir: &str) -> Result<String, String> {
    let dir = Path::new(dir);
    let (mut files, mut functions, mut failed) = (0, 0, 0);
    let mut errors = Vec::new();
    for i in 0..fir::FILES {
        let Ok(report) = std::fs::read_to_string(dir.join(format!("in{i:03}.out"))) else {
            continue;
        };
        let src = std::fs::read_to_string(dir.join(format!("in{i:03}.fir")))
            .map_err(|e| format!("cannot read in{i:03}.fir: {e}"))?;
        let n = frost_ir::parse_module(&src).map_or(1, |m| m.functions.len());
        files += 1;
        functions += n;
        match fir::check_report(&src, &report) {
            Ok(f) => failed += f,
            Err(e) => {
                failed += n;
                errors.push(json_string(&format!("in{i:03}: {e}")));
            }
        }
    }
    Ok(format!(
        "{{\"files\":{files},\"functions\":{functions},\"failed\":{failed},\"errors\":[{}]}}",
        errors.join(",")
    ))
}

fn traced_json(t: &layers::Traced) -> String {
    let metrics: Vec<String> = t
        .metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    format!(
        "{{\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        t.attempted,
        t.failed,
        metrics.join(",")
    )
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
