//! One function per table/figure of the paper's evaluation (see
//! DESIGN.md's per-experiment index E1–E9). Each returns a rendered
//! [`Table`]; `repro` prints them.

use std::path::{Path, PathBuf};
use std::time::Duration;

use frost_backend::{compile_module, lea_base_registers, CostModel, Simulator, MEM_BASE};
use frost_core::{Engine, FrostError, Semantics};
use frost_fuzz::{
    enumerate_functions, random_functions, Campaign, CampaignCheckpoint, GenConfig, Pruning,
    ValidationReport,
};
use frost_ir::{check_roundtrip, parse_module, Function, Module, ModuleAnalysisManager};
use frost_opt::{
    o2_pipeline, Dce, Gvn, Licm, LoopUnswitch, Pass, PipelineMode, Reassociate, Sccp, SimplifyCfg,
};
use frost_refine::{check_refinement, CheckOptions, CheckResult, InputOptions};
use frost_telemetry::json::Writer;
use frost_workloads::{all_workloads, spec_cfp, spec_cint, Workload};

use crate::harness::{compile_workload, pct_improvement, run_workload, RunMetrics};
use crate::table::Table;

fn fmt_pct(v: f64) -> String {
    format!("{v:+.2}%")
}

/// E1 / Figure 6: run-time change (%) for the SPEC-shaped suites on
/// both machine models, freeze prototype vs legacy baseline.
pub fn fig6(quick: bool) -> Result<Table, FrostError> {
    let mut t = Table::new(
        "Figure 6: SPEC CPU 2006 run-time change (%) — freeze prototype vs baseline",
        &[
            "benchmark",
            "suite",
            "machine1",
            "machine2",
            "blind m1",
            "result match",
        ],
    );
    let mut workloads: Vec<Workload> = spec_cint();
    workloads.extend(spec_cfp());
    if quick {
        workloads.truncate(4);
    }
    for w in &workloads {
        let base1 = run_workload(w, PipelineMode::Legacy, CostModel::machine1())?;
        let new1 = run_workload(w, PipelineMode::Fixed, CostModel::machine1())?;
        let blind1 = run_workload(w, PipelineMode::FixedFreezeBlind, CostModel::machine1())?;
        let base2 = run_workload(w, PipelineMode::Legacy, CostModel::machine2())?;
        let new2 = run_workload(w, PipelineMode::Fixed, CostModel::machine2())?;
        let ok = base1.result == new1.result && base1.result == blind1.result;
        t.row(vec![
            w.name.to_string(),
            w.suite.name().to_string(),
            fmt_pct(pct_improvement(base1.cycles, new1.cycles)),
            fmt_pct(pct_improvement(base2.cycles, new2.cycles)),
            fmt_pct(pct_improvement(base1.cycles, blind1.cycles)),
            if ok { "yes".into() } else { "MISMATCH".into() },
        ]);
    }
    t.note("positive = prototype faster (the paper reports ±1.6%)");
    t.note("'blind' = freeze emitted but passes not yet freeze-aware (§7.2's measured state)");
    Ok(t)
}

/// E2 / §7.2 compile time: wall-clock compilation change, with the
/// "Shootout nestedloop" jump-threading outlier.
pub fn compile_time(quick: bool) -> Result<Table, FrostError> {
    let mut t = Table::new(
        "§7.2 compile time: freeze prototype vs baseline (best of 9, warmed)",
        &["benchmark", "suite", "fixed Δ%", "blind Δ%"],
    );
    let mut workloads = all_workloads();
    if quick {
        workloads.retain(|w| w.suite == frost_workloads::Suite::Lnt);
        workloads.truncate(6);
    }
    let best_of = |w: &Workload, mode: PipelineMode| -> Result<u128, FrostError> {
        // Warm up once, then take the best of 9: single compilations
        // run in ~1 ms, so wall-clock jitter dominates raw samples.
        // The pipeline and analysis manager are hoisted so repeated
        // samples don't re-resolve telemetry handles.
        let pipeline = o2_pipeline(mode);
        let mut mam = ModuleAnalysisManager::new();
        let _ = crate::harness::compile_workload_with(w, mode, &pipeline, &mut mam)?;
        let mut best = u128::MAX;
        for _ in 0..9 {
            let (_, ns, _) = crate::harness::compile_workload_with(w, mode, &pipeline, &mut mam)?;
            best = best.min(ns);
        }
        Ok(best)
    };
    for w in &workloads {
        let base = best_of(w, PipelineMode::Legacy)?;
        let fixed = best_of(w, PipelineMode::Fixed)?;
        let blind = best_of(w, PipelineMode::FixedFreezeBlind)?;
        t.row(vec![
            w.name.to_string(),
            w.suite.name().to_string(),
            fmt_pct(pct_improvement(base as u64, fixed as u64)),
            fmt_pct(pct_improvement(base as u64, blind as u64)),
        ]);
    }
    t.note("negative = prototype compiles slower (paper: mostly ±1%, nestedloop +19% slower)");
    Ok(t)
}

/// E3 / §7.2 memory: peak IR working set during compilation.
pub fn memory(quick: bool) -> Result<Table, FrostError> {
    let mut t = Table::new(
        "§7.2 peak compiler memory (IR arena estimate)",
        &["benchmark", "baseline B", "fixed B", "Δ%"],
    );
    let mut workloads = all_workloads();
    if quick {
        workloads.truncate(8);
    }
    for w in &workloads {
        let (_, _, base) = crate::harness::compile_workload(w, PipelineMode::Legacy)?;
        let (_, _, fixed) = crate::harness::compile_workload(w, PipelineMode::Fixed)?;
        t.row(vec![
            w.name.to_string(),
            base.to_string(),
            fixed.to_string(),
            fmt_pct(pct_improvement(base as u64, fixed as u64)),
        ]);
    }
    t.note("paper: unchanged for most benchmarks, max +2% increase");
    Ok(t)
}

/// E4 / §7.2 object size and freeze counts.
pub fn objsize(quick: bool) -> Result<Table, FrostError> {
    let mut t = Table::new(
        "§7.2 object size and freeze counts",
        &[
            "benchmark",
            "base bytes",
            "fixed bytes",
            "Δ%",
            "freezes",
            "freeze % of IR",
        ],
    );
    let mut workloads = all_workloads();
    if quick {
        workloads.truncate(8);
    }
    for w in &workloads {
        let base = run_workload(w, PipelineMode::Legacy, CostModel::machine1())?;
        let fixed = run_workload(w, PipelineMode::Fixed, CostModel::machine1())?;
        let frac = if fixed.ir_insts > 0 {
            100.0 * fixed.freezes as f64 / fixed.ir_insts as f64
        } else {
            0.0
        };
        t.row(vec![
            w.name.to_string(),
            base.obj_bytes.to_string(),
            fixed.obj_bytes.to_string(),
            fmt_pct(pct_improvement(
                base.obj_bytes as u64,
                fixed.obj_bytes as u64,
            )),
            fixed.freezes.to_string(),
            format!("{frac:.2}%"),
        ]);
    }
    t.note("paper: size ±0.5%; freeze 0.04–0.06% of IR, gcc 0.29% (bit-fields)");
    Ok(t)
}

/// E5 / §6 "Testing the prototype": opt-fuzz × refinement checking,
/// run as parallel [`Campaign`]s sharing per-sweep outcome caches.
/// Every sweep runs twice — once pinned to the plan machine, once on
/// [`Engine::Auto`] (bit-sliced) — and must produce identical verdicts;
/// the two fn/s columns are the engine before/after.
pub fn optfuzz(budget: usize) -> Table {
    let mut t = Table::new(
        "§6 validation: exhaustive i2 functions × passes × refinement checking",
        &[
            "pass",
            "mode",
            "semantics",
            "functions",
            "changed",
            "violations",
            "inconclusive",
            "fn/s plan",
            "fn/s auto",
            "cache hit%",
            "engines agree",
        ],
    );
    struct Sweep {
        pass: &'static str,
        mode: PipelineMode,
        sem: Semantics,
        undef: bool,
    }
    let sweeps = [
        Sweep {
            pass: "instcombine",
            mode: PipelineMode::Fixed,
            sem: Semantics::proposed(),
            undef: false,
        },
        Sweep {
            pass: "instcombine",
            mode: PipelineMode::Legacy,
            sem: Semantics::legacy_gvn(),
            undef: true,
        },
        Sweep {
            pass: "gvn",
            mode: PipelineMode::Fixed,
            sem: Semantics::proposed(),
            undef: false,
        },
        Sweep {
            pass: "reassociate",
            mode: PipelineMode::Fixed,
            sem: Semantics::proposed(),
            undef: false,
        },
        Sweep {
            pass: "reassociate",
            mode: PipelineMode::Legacy,
            sem: Semantics::proposed(),
            undef: false,
        },
        Sweep {
            pass: "sccp",
            mode: PipelineMode::Fixed,
            sem: Semantics::proposed(),
            undef: false,
        },
        Sweep {
            pass: "o2",
            mode: PipelineMode::Fixed,
            sem: Semantics::proposed(),
            undef: false,
        },
    ];
    for c in sweeps {
        let mut cfg = GenConfig::arithmetic(2);
        if c.undef {
            cfg = cfg.with_undef();
        }
        let space = enumerate_functions(cfg.clone());
        let total_space = space.approx_size();
        let stride = (total_space / budget as u128).max(1) as usize;
        let fns: Vec<frost_ir::Function> = enumerate_functions(cfg)
            .step_by(stride)
            .take(budget)
            .collect();
        let mode = c.mode;
        // Hoisted out of the per-module closure: pipeline construction
        // resolves telemetry handles (a lock per pass), which would
        // otherwise run once per enumerated module on every worker.
        let pipeline = (c.pass == "o2").then(|| o2_pipeline(mode));
        let single: Option<Box<dyn Pass>> = match c.pass {
            "instcombine" => Some(Box::new(frost_opt::InstCombine::new(mode))),
            "gvn" => Some(Box::new(Gvn::new(mode))),
            "reassociate" => Some(Box::new(Reassociate::new(mode))),
            "sccp" => Some(Box::new(Sccp::new(mode))),
            _ => None,
        };
        let dce = Dce::new();
        let transform = |m: &mut Module| {
            // Per-module analysis manager: analyses computed by one pass
            // (GVN's dominator tree, say) are served from cache to the
            // loop passes downstream instead of being recomputed.
            let mut mam = ModuleAnalysisManager::new();
            if let Some(pm) = &pipeline {
                pm.run_with(m, &mut mam);
            } else if let Some(p) = &single {
                p.run_on_module(m, &mut mam);
            }
            for (i, f) in m.functions.iter_mut().enumerate() {
                let fam = mam.function(i);
                let pa = dce.run_on_function(f, fam);
                fam.invalidate(f, &pa);
                f.compact();
            }
        };
        let run = |engine: Engine| {
            Campaign::with_options(CheckOptions::new(c.sem).engine(engine))
                .run(fns.clone(), transform)
        };
        let plan = run(Engine::Plan);
        let auto = run(Engine::Auto);
        let agree = plan.total == auto.total
            && plan.changed == auto.changed
            && plan.violations == auto.violations
            && plan.inconclusive == auto.inconclusive;
        t.row(vec![
            c.pass.to_string(),
            format!("{:?}", c.mode),
            c.sem.name.to_string(),
            auto.total.to_string(),
            auto.changed.to_string(),
            auto.violations.len().to_string(),
            auto.inconclusive.to_string(),
            format!("{:.0}", plan.stats.functions_per_sec),
            format!("{:.0}", auto.stats.functions_per_sec),
            format!("{:.0}%", auto.stats.cache_hit_rate() * 100.0),
            if agree {
                "yes".into()
            } else {
                "MISMATCH".into()
            },
        ]);
    }
    t.note("fixed-mode campaigns must report 0 violations; legacy campaigns reproduce the §3 bugs");
    t.note("each sweep runs twice: 'fn/s plan' pins the plan machine, 'fn/s auto' bit-slices eligible functions");
    t.note("'engines agree' asserts byte-identical verdicts between the two runs");
    t
}

/// One swept function space, checked against one fixed transform
/// under the proposed semantics on [`Engine::Auto`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Domain {
    /// §6: i2 arithmetic ([`GenConfig::arithmetic`]) against the fixed
    /// InstCombine.
    Arith,
    /// Guarded programs ([`GenConfig::guards`]: `assume` over raw,
    /// compared and frozen facts, poison constants included) against
    /// the fixed guard band, `assume-simplify` + `guard-dce`.
    Guard,
    /// §5 memory programs ([`GenConfig::memory`]: alloca / load /
    /// store / gep / ptrtoint / inttoptr over one pointer parameter),
    /// each over every initial memory of the tiny address domain,
    /// against the fixed alias-aware GVN.
    Mem,
}

impl Domain {
    /// The generator of this domain's `num_insts`-instruction space.
    pub fn config(self, num_insts: usize) -> GenConfig {
        match self {
            Domain::Arith => GenConfig::arithmetic(num_insts),
            Domain::Guard => GenConfig::guards(num_insts),
            Domain::Mem => GenConfig::memory(num_insts),
        }
    }

    /// The check options: the memory domain also exhausts initial
    /// memory contents (programs × memories).
    pub fn options(self) -> CheckOptions {
        let opts = CheckOptions::new(Semantics::proposed()).engine(Engine::Auto);
        match self {
            Domain::Mem => opts.with_inputs(opts.inputs.with_memory_values(true)),
            Domain::Arith | Domain::Guard => opts,
        }
    }

    /// The fixed transform: the domain's passes in `Fixed` mode, then
    /// DCE and `compact`, on every function of the module.
    pub fn transform(self) -> impl Fn(&mut Module) + Sync {
        let mode = PipelineMode::Fixed;
        let passes: Vec<Box<dyn Pass>> = match self {
            Domain::Arith => vec![Box::new(frost_opt::InstCombine::new(mode))],
            Domain::Guard => vec![
                Box::new(frost_opt::AssumeSimplify::new(mode)),
                Box::new(frost_opt::GuardDce::new(mode)),
            ],
            Domain::Mem => vec![Box::new(Gvn::new(mode))],
        };
        move |m: &mut Module| {
            for f in &mut m.functions {
                for pass in &passes {
                    pass.apply(f);
                }
                Dce::new().apply(f);
                f.compact();
            }
        }
    }

    /// `true` if generation-time [`Pruning`] keeps this space's
    /// behaviours: its liveness model covers integer instructions only
    /// and assumes the last slot's result is the return value.
    pub fn prunable(self) -> bool {
        self == Domain::Arith
    }

    /// The `domain` field of the sweep's benchmark record.
    pub fn label(self) -> &'static str {
        match self {
            Domain::Arith => "arith",
            Domain::Guard => "guard",
            Domain::Mem => "mem",
        }
    }

    /// The sweep table's title.
    pub fn title(self) -> &'static str {
        match self {
            Domain::Arith => {
                "§6 full sweep: every i2 arithmetic function × fixed InstCombine (Engine::Auto)"
            }
            Domain::Guard => {
                "guard sweep: every guarded program (assume over raw/compared/frozen facts) × \
                 fixed guard band (Engine::Auto)"
            }
            Domain::Mem => {
                "§5 memory sweep: every tiny memory program × every initial memory × fixed GVN \
                 (Engine::Auto)"
            }
        }
    }

    /// The sweep table's note on what a clean run means.
    pub fn note(self) -> &'static str {
        match self {
            Domain::Arith => {
                "fixed-mode InstCombine over the proposed semantics must stay at 0 violations"
            }
            Domain::Guard => {
                "fixed-mode assume-simplify + guard-dce over the proposed semantics must stay at \
                 0 violations"
            }
            Domain::Mem => {
                "fixed-mode alias-aware GVN over the proposed semantics must stay at 0 violations"
            }
        }
    }
}

/// How much of a [`Domain`] one [`sweep`] call covers, and the files
/// it records to.
#[derive(Clone, Debug, Default)]
pub struct SweepRun<'a> {
    /// Instructions per generated function (at least 1).
    pub insts: usize,
    /// Most functions this call checks.
    pub budget: Option<usize>,
    /// Wall-clock deadline of this call, in seconds.
    pub seconds: Option<u64>,
    /// Resume from this checkpoint file if it exists, then save to it.
    pub checkpoint: Option<&'a Path>,
    /// Walk only [`Pruning::FULL`]'s canonical live functions; refused
    /// unless the domain is [`Domain::prunable`].
    pub prune: bool,
    /// `(shard_id, shards)`: one residue class of a `K`-process sweep,
    /// whose per-shard checkpoints [`sweep_merge`] folds together.
    pub shard: Option<(usize, usize)>,
    /// Write the one-line benchmark record here (docs/OBSERVABILITY.md).
    pub bench_json: Option<&'a Path>,
}

/// E10 / §6 full space: the complete, *unsampled* exhaustive sweep of
/// `domain` — what the paper calls "all LLVM functions with \[n\]
/// instructions" — run as a checkpointed [`Campaign::run_exhaustive`]
/// on [`Engine::Auto`] against the domain's fixed transform, resumable
/// across process restarts via [`SweepRun::checkpoint`].
///
/// Returns the table plus a deterministic one-line summary (no
/// wall-clock columns), so scripts can diff an interrupted-and-resumed
/// sweep — or a merged `K`-shard sweep — against an uninterrupted
/// single-process one.
pub fn sweep(domain: Domain, run: &SweepRun) -> Result<(Table, String), FrostError> {
    if run.prune && !domain.prunable() {
        return Err(FrostError::stage(
            "config",
            "sweep",
            "--prune applies to the arithmetic domain only".to_string(),
        ));
    }
    let mut cfg = domain.config(run.insts);
    if run.prune {
        cfg = cfg.with_pruning(Pruning::FULL);
    }
    let space_estimate = enumerate_functions(cfg.clone()).approx_size();
    let (shard_id, shards) = run.shard.unwrap_or((0, 1));
    if shards == 0 || shard_id >= shards {
        return Err(FrostError::stage(
            "shard",
            "sweep",
            format!("shard {shard_id}/{shards} out of range"),
        ));
    }
    let resume = match run.checkpoint {
        Some(p) if p.exists() => {
            let cp = CampaignCheckpoint::load_jsonl(p)
                .map_err(|e| FrostError::stage("checkpoint", "sweep", e.to_string()))?;
            cp.resume(&cfg, (shard_id, shards))
                .map_err(|e| FrostError::stage("checkpoint", "sweep", e))?;
            Some(cp)
        }
        _ => None,
    };
    let mut campaign = Campaign::with_options(domain.options())
        // On 2 vCPUs, chunks of 256 ran every perfbench sweep faster
        // than 4096: guard3 +9% fn/s (4 of 4 pairs), arith2 +10% (4 of
        // 4) and mem4 +13% (8 of 8; its 6,581-function slice is two
        // 4096-chunks, one per worker). 4096 stays until the long CI
        // sweeps are measured too. Checkpoints land on chunk
        // boundaries either way.
        .with_shard_size(4096)
        .with_process_shard(shard_id, shards);
    if let Some(b) = run.budget {
        campaign = campaign.with_budget(b);
    }
    if let Some(s) = run.seconds {
        campaign = campaign.with_deadline(Duration::from_secs(s));
    }
    let before = frost_telemetry::snapshot();
    let (report, cp) = campaign.run_exhaustive(&cfg, resume.as_ref(), domain.transform());
    let delta = frost_telemetry::snapshot().delta(&before);
    if let Some(p) = run.checkpoint {
        cp.save_jsonl(p)
            .map_err(|e| FrostError::stage("checkpoint", "sweep", format!("cannot save: {e}")))?;
    }
    if let Some(p) = run.bench_json {
        let line = sweep_bench_json(domain, run, space_estimate, &report, &cp, &delta);
        std::fs::write(p, line)
            .map_err(|e| FrostError::stage("bench-json", "sweep", format!("cannot save: {e}")))?;
    }

    let mut t = Table::new(
        domain.title(),
        &[
            "insts",
            "space_estimate",
            "shard",
            "checked",
            "changed",
            "violations",
            "inconclusive",
            "fn/s",
            "complete",
        ],
    );
    t.row(vec![
        run.insts.to_string(),
        if run.prune {
            format!("{space_estimate} (pruned)")
        } else {
            space_estimate.to_string()
        },
        format!("{shard_id}/{shards}"),
        report.total.to_string(),
        report.changed.to_string(),
        report.violations.len().to_string(),
        report.inconclusive.to_string(),
        format!("{:.0}", report.stats.functions_per_sec),
        if cp.done { "yes".into() } else { "no".into() },
    ]);
    t.note(
        "complete=no means the budget/deadline cut the sweep; rerun with --checkpoint to resume",
    );
    t.note(domain.note());
    let summary = sweep_summary(&cp);
    Ok((t, summary))
}

/// Folds the per-shard checkpoints of a `K`-process [`sweep`] into one
/// whole-space summary with [`CampaignCheckpoint::merge`], optionally
/// saving the merged artifact to `save`. The summary line of a
/// complete merge is byte-identical to the summary of a
/// single-process sweep of the same space — scripts diff the two to
/// smoke-test the sharding.
///
/// # Errors
///
/// Propagates unreadable/invalid checkpoint files and incomplete or
/// mismatched shard sets (see [`CampaignCheckpoint::merge`]).
pub fn sweep_merge(paths: &[PathBuf], save: Option<&Path>) -> Result<(Table, String), FrostError> {
    let mut parts = Vec::with_capacity(paths.len());
    for p in paths {
        parts.push(CampaignCheckpoint::load_jsonl(p).map_err(|e| {
            FrostError::stage("checkpoint", "sweep-merge", format!("{}: {e}", p.display()))
        })?);
    }
    let merged = CampaignCheckpoint::merge(&parts)
        .map_err(|e| FrostError::stage("merge", "sweep-merge", e))?;
    if let Some(out) = save {
        merged.save_jsonl(out).map_err(|e| {
            FrostError::stage("checkpoint", "sweep-merge", format!("cannot save: {e}"))
        })?;
    }
    let mut t = Table::new(
        "§6 sweep merge: per-shard checkpoints folded into one whole-space summary",
        &[
            "shards",
            "checked",
            "changed",
            "violations",
            "inconclusive",
            "complete",
        ],
    );
    t.row(vec![
        parts.len().to_string(),
        merged.total.to_string(),
        merged.changed.to_string(),
        merged.violations.len().to_string(),
        merged.inconclusive.to_string(),
        if merged.done {
            "yes".into()
        } else {
            "no".into()
        },
    ]);
    t.note("a complete merge's summary line is byte-identical to the single-process sweep's");
    let summary = sweep_summary(&merged);
    Ok((t, summary))
}

/// The deterministic one-line summary of a [`sweep`] run or a
/// [`sweep_merge`], for scripts that diff interrupted-and-resumed (or
/// sharded-and-merged) sweeps against uninterrupted ones — wall-clock
/// columns excluded by construction. `complete=` and `violations=`
/// keep their historical spelling; new fields append after them.
fn sweep_summary(cp: &CampaignCheckpoint) -> String {
    format!(
        "sweep: checked={} changed={} refined={} violations={} inconclusive={} complete={}",
        cp.total,
        cp.changed,
        cp.refined,
        cp.violations.len(),
        cp.inconclusive,
        cp.done,
    )
}

/// One `{"kind":"bench","experiment":"sweep",...}` JSONL line: the
/// machine-readable benchmark record `--bench-json` writes, accepted
/// by `frost_telemetry::validate_jsonl`. `space_estimate`
/// ([`frost_fuzz::ExhaustiveFunctions::approx_size`]) rides as a
/// decimal string (the 3-instruction space overflows a double);
/// throughput, wall-clock, `peak_rss_mb` and the counter deltas
/// (`plan_runs`, `plan_shared` and the rest) are this run's, tallies
/// are cumulative. `domain` is [`Domain::label`].
fn sweep_bench_json(
    domain: Domain,
    run: &SweepRun,
    space_estimate: u128,
    report: &ValidationReport,
    cp: &CampaignCheckpoint,
    delta: &frost_telemetry::Snapshot,
) -> String {
    let (shard_id, shards) = run.shard.unwrap_or((0, 1));
    let stats = &report.stats;
    let bitslice_passes = delta.counter("frost.core.bitslice.compiles");
    let tuples = delta.counter("frost.core.bitslice.tuples_per_pass");
    let round = |x: f64, places: i32| (x * 10f64.powi(places)).round() / 10f64.powi(places);
    let mut out = String::new();
    let mut record = Writer::new(&mut out);
    record
        .field("kind", "bench")
        .field("experiment", "sweep")
        .field("domain", domain.label())
        .field("insts", run.insts)
        .field("space_estimate", space_estimate.to_string())
        .field("prune", run.prune)
        .field("shards", shards)
        .field("shard_id", shard_id)
        .field("checked", cp.total)
        .field("changed", cp.changed)
        .field("refined", cp.refined)
        .field("violations", cp.violations.len())
        .field("inconclusive", cp.inconclusive)
        .field("complete", cp.done)
        .field("wall_secs", round(stats.wall.as_secs_f64(), 3))
        .field("fns_per_sec", round(stats.functions_per_sec, 1));
    if let Some(mb) = peak_rss_mb() {
        record.field("peak_rss_mb", round(mb, 1));
    }
    record
        .field("cache_hits", stats.cache_hits)
        .field("cache_misses", stats.cache_misses)
        .field("plan_runs", delta.counter("frost.core.plan.runs"))
        .field("plan_shared", delta.counter("frost.core.plan.shared"))
        .field(
            "tuples_per_pass",
            round(tuples as f64 / bitslice_passes.max(1) as f64, 1),
        )
        .field(
            "pruned_commutative",
            delta.counter("frost.fuzz.gen.pruned.commutative"),
        )
        .field(
            "pruned_const_position",
            delta.counter("frost.fuzz.gen.pruned.const_position"),
        )
        .field("pruned_dead", delta.counter("frost.fuzz.gen.pruned.dead"))
        .field(
            "stride_skips",
            delta.counter("frost.fuzz.campaign.skip.stride"),
        )
        .field("option_lists", delta.counter("frost.fuzz.gen.lists"))
        .finish();
    out
}

/// This process's peak resident set size in MB, read from `VmHWM` in
/// `/proc/self/status`; `None` where that is unreadable.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// E6 / §3: the inconsistency matrix — each transformation checked
/// under each semantics preset.
pub fn inconsistencies() -> Table {
    let mut t = Table::new(
        "§3 inconsistency matrix: transformation soundness per semantics",
        &[
            "transformation",
            "proposed",
            "legacy-gvn",
            "legacy-unswitch",
        ],
    );

    // Each case: (name, before-module, transform).
    type Xform = (&'static str, &'static str, Box<dyn Fn(&mut Module)>);
    let run_fn = |pass: Box<dyn Pass>| -> Box<dyn Fn(&mut Module)> {
        Box::new(move |m: &mut Module| {
            pass.apply_to_module(m);
            for f in &mut m.functions {
                Dce::new().apply(f);
                f.compact();
            }
        })
    };

    let cases: Vec<Xform> = vec![
        (
            "§3.1 mul undef,2 -> add x,x (InstCombine legacy)",
            "define i4 @f() {\nentry:\n  %y = mul i4 undef, 2\n  ret i4 %y\n}",
            run_fn(Box::new(frost_opt::InstCombine::new(PipelineMode::Legacy))),
        ),
        (
            "§3.2 hoist guarded udiv (LICM legacy)",
            r#"
declare void @use(i4)
define void @f(i1 %c, i4 %k) {
entry:
  %nz = icmp ne i4 %k, 0
  br i1 %nz, label %ph, label %done
ph:
  br label %head
head:
  %cont = phi i1 [ %c, %ph ], [ false, %body ]
  br i1 %cont, label %body, label %exit
body:
  %d = udiv i4 1, %k
  call void @use(i4 %d)
  br label %head
exit:
  br label %done
done:
  ret void
}
"#,
            run_fn(Box::new(Licm::new(PipelineMode::Legacy))),
        ),
        (
            "§3.3 GVN equality propagation",
            r#"
declare void @foo(i4)
define void @f(i4 %x, i4 %y) {
entry:
  %t = add i4 %x, 1
  %c = icmp eq i4 %t, %y
  br i1 %c, label %then, label %exit
then:
  %w = add i4 %x, 1
  call void @foo(i4 %w)
  br label %exit
exit:
  ret void
}
"#,
            run_fn(Box::new(Gvn::new(PipelineMode::Fixed))),
        ),
        (
            "§3.3 loop unswitch without freeze",
            UNSWITCH_SRC,
            run_fn(Box::new(LoopUnswitch::new(PipelineMode::Legacy))),
        ),
        (
            "§5.1 loop unswitch with freeze",
            UNSWITCH_SRC,
            run_fn(Box::new(LoopUnswitch::new(PipelineMode::Fixed))),
        ),
        (
            "§3.4 phi -> select (SimplifyCFG)",
            r#"
define i4 @f(i1 %c, i4 %a, i4 %b) {
entry:
  br i1 %c, label %t, label %e
t:
  br label %m
e:
  br label %m
m:
  %x = phi i4 [ %a, %t ], [ %b, %e ]
  ret i4 %x
}
"#,
            run_fn(Box::new(SimplifyCfg::new(PipelineMode::Fixed))),
        ),
        (
            "§3.4 select c,true,x -> or c,x (no freeze)",
            "define i1 @f(i1 %c, i1 %x) {\nentry:\n  %r = select i1 %c, i1 true, i1 %x\n  ret i1 %r\n}",
            run_fn(Box::new(frost_opt::InstCombine::new(PipelineMode::Legacy))),
        ),
        (
            "§3.4 select c,true,x -> or c,freeze(x)",
            "define i1 @f(i1 %c, i1 %x) {\nentry:\n  %r = select i1 %c, i1 true, i1 %x\n  ret i1 %r\n}",
            run_fn(Box::new(frost_opt::InstCombine::new(PipelineMode::Fixed))),
        ),
        (
            "§10.2 reassociate keeping nsw",
            "define i4 @f(i4 %x) {\nentry:\n  %a = add nsw i4 %x, 7\n  %b = add nsw i4 %a, 7\n  ret i4 %b\n}",
            run_fn(Box::new(Reassociate::new(PipelineMode::Legacy))),
        ),
        (
            "§10.2 reassociate dropping nsw",
            "define i4 @f(i4 %x) {\nentry:\n  %a = add nsw i4 %x, 7\n  %b = add nsw i4 %a, 7\n  ret i4 %b\n}",
            run_fn(Box::new(Reassociate::new(PipelineMode::Fixed))),
        ),
        (
            // The guard fact holds only *past* the assume; the legacy
            // pass applies it on the guard-free path too.
            "assume fact, dominance-blind (legacy)",
            BRANCHY_GUARD_SRC,
            run_fn(Box::new(frost_opt::AssumeSimplify::new(
                PipelineMode::Legacy,
            ))),
        ),
        (
            "assume fact, dominated region (fixed)",
            "define i4 @f(i4 %x) {\nentry:\n  %c = icmp eq i4 %x, 1\n  assume i1 %c\n  \
             %r = add i4 %x, 3\n  ret i4 %r\n}",
            run_fn(Box::new(frost_opt::AssumeSimplify::new(
                PipelineMode::Fixed,
            ))),
        ),
        (
            // `or` of a *concrete* bit with 1 is 1, so the source passes
            // the guard on every input; forwarding the freeze rebuilds
            // the fact from the raw value and re-exposes poison to it.
            "freeze forwarded into guard fact (guard-dce legacy)",
            LAUNDERED_FACT_SRC,
            run_fn(Box::new(frost_opt::GuardDce::new(PipelineMode::Legacy))),
        ),
        (
            // Every execution reaching the doomed block is immediate UB,
            // so even its store may go.
            "unreachable-guarded deletion (guard-dce fixed)",
            r#"
define i4 @f(i1 %c, i4* %p) {
entry:
  br i1 %c, label %doomed, label %ok
doomed:
  store i4 7, i4* %p
  unreachable
ok:
  ret i4 3
}
"#,
            run_fn(Box::new(frost_opt::GuardDce::new(PipelineMode::Fixed))),
        ),
    ];

    for (name, src, xform) in cases {
        let before = parse_module(src).expect("case parses");
        let mut after = before.clone();
        xform(&mut after);
        let mut cells = vec![name.to_string()];
        for sem in Semantics::all_presets() {
            if after == before {
                cells.push("no-op".to_string());
                continue;
            }
            let verdict = check_refinement(&before, "f", &after, "f", &CheckOptions::new(sem));
            cells.push(match verdict {
                CheckResult::Refines => "sound".to_string(),
                CheckResult::CounterExample(_) => "UNSOUND".to_string(),
                CheckResult::Inconclusive(_) => "inconclusive".to_string(),
            });
        }
        t.row(cells);
    }
    t.note("the §3.3 pair shows the conflict: GVN needs branch-on-poison=UB, unswitch-without-freeze needs nondet");
    t
}

const BRANCHY_GUARD_SRC: &str = r#"
define i4 @f(i1 %p, i4 %x) {
entry:
  br i1 %p, label %guarded, label %exit
guarded:
  %c = icmp eq i4 %x, 1
  assume i1 %c
  br label %exit
exit:
  %r = add i4 %x, 3
  ret i4 %r
}
"#;

const LAUNDERED_FACT_SRC: &str = r#"
define i4 @f(i1 %c) {
entry:
  %f = freeze i1 %c
  %t = or i1 %f, 1
  assume i1 %t
  ret i4 1
}
"#;

const UNSWITCH_SRC: &str = r#"
declare void @foo()
declare void @bar()
define void @f(i1 %c, i1 %c2) {
entry:
  br label %head
head:
  %cont = phi i1 [ %c, %entry ], [ false, %latch ]
  br i1 %cont, label %body, label %exit
body:
  br i1 %c2, label %t, label %e
t:
  call void @foo()
  br label %latch
e:
  call void @bar()
  br label %latch
latch:
  br label %head
exit:
  ret void
}
"#;

/// E7 / §2.4, Figure 3: induction-variable widening — measured speedup
/// and the semantic justification matrix.
pub fn widening() -> Result<Table, FrostError> {
    let mut t = Table::new(
        "Figure 3: induction-variable widening (sext removal)",
        &[
            "configuration",
            "cycles m1",
            "cycles m2",
            "speedup m1",
            "verdict",
        ],
    );
    // A store loop with a narrow IV, Figure 3's shape, over 512 i32s.
    let narrow = r#"
define void @f(i32* %a, i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %i1, %body ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %iext = sext i32 %i to i64
  %p = getelementptr inbounds i32, i32* %a, i64 %iext
  store i32 42, i32* %p
  %i1 = add nsw i32 %i, 1
  br label %head
exit:
  ret void
}
"#;
    let before = parse_module(narrow)?;
    let mut widened = before.clone();
    frost_opt::IndVarWiden::new(PipelineMode::Fixed).apply_to_module(&mut widened);
    for f in &mut widened.functions {
        Dce::new().apply(f);
        f.compact();
    }

    let cycles = |m: &Module, cost: CostModel| -> Result<u64, FrostError> {
        let mm = compile_module(m).map_err(|e| FrostError::stage("backend", "widening", e))?;
        let mut sim = Simulator::new(&mm, cost, 2048);
        Ok(sim
            .run("f", &[MEM_BASE, 512])
            .map_err(|e| FrostError::stage("simulation", "widening", e))?
            .cycles)
    };
    let n1 = cycles(&before, CostModel::machine1())?;
    let n2 = cycles(&before, CostModel::machine2())?;
    let w1 = cycles(&widened, CostModel::machine1())?;
    let w2 = cycles(&widened, CostModel::machine2())?;
    t.row(vec![
        "narrow IV (sext per iteration)".into(),
        n1.to_string(),
        n2.to_string(),
        "-".into(),
        "-".into(),
    ]);
    // The i32 loop cannot be checked exhaustively; verify the identical
    // transformation at i3/i5 widths (same shape, checkable domain).
    let small = parse_module(
        "declare void @use(i5)\ndefine void @f(i3 %n) {\nentry:\n  br label %head\nhead:\n  %i = phi i3 [ 0, %entry ], [ %i1, %body ]\n  %c = icmp slt i3 %i, %n\n  br i1 %c, label %body, label %exit\nbody:\n  %iext = sext i3 %i to i5\n  call void @use(i5 %iext)\n  %i1 = add nsw i3 %i, 1\n  br label %head\nexit:\n  ret void\n}",
    )?;
    let mut small_widened = small.clone();
    frost_opt::IndVarWiden::new(PipelineMode::Fixed).apply_to_module(&mut small_widened);
    for f in &mut small_widened.functions {
        Dce::new().apply(f);
        f.compact();
    }
    let verdict = check_refinement(
        &small,
        "f",
        &small_widened,
        "f",
        &CheckOptions::new(Semantics::proposed()),
    );
    t.row(vec![
        "widened IV".into(),
        w1.to_string(),
        w2.to_string(),
        fmt_pct(pct_improvement(n1, w1)),
        match verdict {
            CheckResult::Refines => "sound under poison (verified at i3)".into(),
            other => format!("{other:?}"),
        },
    ]);
    // The semantic crux, on checkable widths (matches the indvar tests).
    let src = parse_module(
        "define i1 @f(i3 %i, i3 %n) {\nentry:\n  %i1 = add nsw i3 %i, 1\n  %iext = sext i3 %i1 to i5\n  %next = sext i3 %n to i5\n  %c = icmp sle i5 %iext, %next\n  ret i1 %c\n}",
    )?;
    let tgt = parse_module(
        "define i1 @f(i3 %i, i3 %n) {\nentry:\n  %iw = sext i3 %i to i5\n  %i1w = add nsw i5 %iw, 1\n  %next = sext i3 %n to i5\n  %c = icmp sle i5 %i1w, %next\n  ret i1 %c\n}",
    )?;
    let under_poison = check_refinement(
        &src,
        "f",
        &tgt,
        "f",
        &CheckOptions::new(Semantics::proposed()),
    );
    let under_undef = check_refinement(
        &src,
        "f",
        &tgt,
        "f",
        &CheckOptions::new(Semantics::legacy_undef_overflow()),
    );
    t.row(vec![
        "widening step, overflow = poison".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        if under_poison.is_refinement() {
            "sound".into()
        } else {
            "UNSOUND".into()
        },
    ]);
    t.row(vec![
        "widening step, overflow = undef (§2.4 strawman)".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        if under_undef.counterexample().is_some() {
            "UNSOUND (n = INT_MAX witness)".into()
        } else {
            "unexpectedly sound".into()
        },
    ]);
    t.note(
        "paper: up to 39% faster depending on microarchitecture; justified only by nsw = poison",
    );
    Ok(t)
}

/// E8 / §5.4: load widening must use vector loads.
pub fn loadwiden() -> Result<Table, FrostError> {
    let mut t = Table::new(
        "§5.4 load widening: scalar vs vector",
        &["transformation", "verdict under proposed"],
    );
    // Memory is uninitialized except the i16 the program itself stores.
    let src = r#"
define i16 @f(i16* %p) {
entry:
  store i16 7, i16* %p
  %v = load i16, i16* %p
  ret i16 %v
}
"#;
    // Scalar widening: load 32 bits, truncate.
    let tgt_scalar = r#"
define i16 @f(i16* %p) {
entry:
  store i16 7, i16* %p
  %p32 = bitcast i16* %p to i32*
  %w = load i32, i32* %p32
  %v = trunc i32 %w to i16
  ret i16 %v
}
"#;
    // Vector widening (§5.4's fix): load <2 x i16>, extract lane 0.
    let tgt_vector = r#"
define i16 @f(i16* %p) {
entry:
  store i16 7, i16* %p
  %pv = bitcast i16* %p to <2 x i16>*
  %w = load <2 x i16>, <2 x i16>* %pv
  %v = extractelement <2 x i16> %w, i32 0
  ret i16 %v
}
"#;
    let s = parse_module(src)?;
    for (name, tgt) in [
        ("widen 16->32 scalar", tgt_scalar),
        ("widen via <2 x i16>", tgt_vector),
    ] {
        let tm = parse_module(tgt)?;
        // 4 bytes per pointer: room for the wide load.
        let opts = CheckOptions::new(Semantics::proposed())
            .with_inputs(InputOptions::new().with_bytes_per_pointer(4));
        let verdict = check_refinement(&s, "f", &tm, "f", &opts);
        t.row(vec![
            name.to_string(),
            match verdict {
                CheckResult::Refines => "sound".into(),
                CheckResult::CounterExample(_) => "UNSOUND (poison bytes contaminate)".into(),
                CheckResult::Inconclusive(why) => format!("inconclusive: {why}"),
            },
        ]);
    }
    t.note(
        "paper: the adjacent bits 'should not poison the value the program was originally loading'",
    );
    Ok(t)
}

/// E9 / §7.2: the Stanford Queens anecdote — the freeze changes
/// register allocation, shifting an LEA on/off a slow register.
pub fn queens_anecdote() -> Result<Table, FrostError> {
    let mut t = Table::new(
        "§7.2 Stanford Queens: register allocation and LEA latency",
        &["mode", "cycles m1", "cycles m2", "slow-LEA bases", "result"],
    );
    let w = frost_workloads::queens();
    for mode in [PipelineMode::Legacy, PipelineMode::Fixed] {
        let metrics: RunMetrics = run_workload(&w, mode, CostModel::machine1())?;
        let m2 = run_workload(&w, mode, CostModel::machine2())?;
        // Count LEAs whose base landed on a slow register.
        let (module, _, _) = crate::harness::compile_workload(&w, mode)?;
        let mm = compile_module(&module).map_err(|e| FrostError::stage("backend", w.name, e))?;
        let slow: usize = mm
            .functions
            .iter()
            .flat_map(lea_base_registers)
            .filter(|r| r.lea_is_slow())
            .count();
        t.row(vec![
            format!("{mode:?}"),
            metrics.cycles.to_string(),
            m2.cycles.to_string(),
            slow.to_string(),
            metrics.result.map(|r| r.to_string()).unwrap_or_default(),
        ]);
    }
    // Mechanism check: the same loop with its LEA base pinned to a
    // fast vs a slow register, demonstrating the latency quirk the
    // paper's anecdote traces the speedup to.
    for (label, base) in [
        (
            "mechanism: lea base = r12 (fast)",
            frost_backend::PhysReg::R12,
        ),
        (
            "mechanism: lea base = r13 (slow)",
            frost_backend::PhysReg::R13,
        ),
    ] {
        let mm = lea_microkernel(base);
        let c1 = Simulator::new(&mm, CostModel::machine1(), 0)
            .run("k", &[20_000])
            .map_err(|e| FrostError::stage("simulation", label, e))?;
        let c2 = Simulator::new(&mm, CostModel::machine2(), 0)
            .run("k", &[20_000])
            .map_err(|e| FrostError::stage("simulation", label, e))?;
        t.row(vec![
            label.to_string(),
            c1.cycles.to_string(),
            c2.cycles.to_string(),
            if base.lea_is_slow() {
                "1".into()
            } else {
                "0".into()
            },
            c1.ret.map(|r| r.to_string()).unwrap_or_default(),
        ]);
    }
    t.note("paper: a single freeze changed allocation (r13 vs r14), 6–8% speedup via LEA latency");
    t.note("at queens' register pressure our allocator never reaches the slow registers; the mechanism rows isolate the quirk");
    Ok(t)
}

/// A hand-built MIR loop whose hot LEA uses the given base register:
/// `for i in 0..n { acc += i via lea }`.
fn lea_microkernel(base: frost_backend::PhysReg) -> frost_backend::MModule {
    use frost_backend::{AluOp, Cc, MBlock, MFunc, MInst, Operand, PhysReg, Reg, Width};
    let b = Reg::P(base);
    let i = Reg::P(PhysReg::Rcx);
    let n = Reg::P(PhysReg::Rdx);
    let acc = Reg::P(PhysReg::Rax);
    let entry = MBlock {
        name: "entry".into(),
        insts: vec![
            MInst::GetArg { dst: n, index: 0 },
            MInst::Mov {
                dst: i,
                src: Operand::Imm(0),
                width: Width::W64,
            },
            MInst::Mov {
                dst: acc,
                src: Operand::Imm(0),
                width: Width::W64,
            },
            MInst::Mov {
                dst: b,
                src: Operand::Imm(0),
                width: Width::W64,
            },
            MInst::Jmp { target: 1 },
        ],
    };
    let body = MBlock {
        name: "body".into(),
        insts: vec![
            // The hot LEA: acc-relevant address arithmetic on `base`.
            MInst::Lea {
                dst: acc,
                base: b,
                index: Some((acc, 1)),
                disp: 1,
            },
            MInst::Alu {
                op: AluOp::Add,
                dst: i,
                lhs: i,
                rhs: Operand::Imm(1),
                width: Width::W64,
                signed: false,
            },
            MInst::Cmp {
                lhs: i,
                rhs: Operand::R(n),
                width: Width::W64,
                signed: false,
            },
            MInst::Jcc {
                cc: Cc::B,
                target: 1,
            },
            MInst::Jmp { target: 2 },
        ],
    };
    let exit = MBlock {
        name: "exit".into(),
        insts: vec![MInst::Ret { src: Some(acc) }],
    };
    frost_backend::MModule {
        functions: vec![MFunc {
            name: "k".into(),
            num_params: 1,
            blocks: vec![entry, body, exit],
            num_vregs: 0,
            num_slots: 0,
            frame_bytes: 0,
            undef_vregs: vec![],
        }],
    }
}

/// Pulls functions off a shared stream and roundtrips each one
/// (print → parse → [`frost_ir::FunctionKey`] compare) across
/// `workers` scoped threads. Returns `(checked, mismatches)` plus the
/// first failure's rendered detail, if any.
fn roundtrip_stream(
    fns: impl Iterator<Item = Function> + Send,
    workers: usize,
) -> (u64, u64, Option<String>) {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    /// Functions a worker claims per lock acquisition.
    const BATCH: usize = 256;

    let stream = Mutex::new(fns);
    let checked = AtomicU64::new(0);
    let mismatches = AtomicU64::new(0);
    let first_failure: Mutex<Option<String>> = Mutex::new(None);
    std::thread::scope(|s| {
        for _ in 0..workers.max(1) {
            s.spawn(|| {
                let mut batch = Vec::with_capacity(BATCH);
                loop {
                    {
                        let mut it = stream.lock().unwrap();
                        batch.extend(it.by_ref().take(BATCH));
                    }
                    if batch.is_empty() {
                        return;
                    }
                    for f in batch.drain(..) {
                        checked.fetch_add(1, Ordering::Relaxed);
                        if let Err(e) = check_roundtrip(&f) {
                            mismatches.fetch_add(1, Ordering::Relaxed);
                            let mut slot = first_failure.lock().unwrap();
                            if slot.is_none() {
                                *slot = Some(format!("@{}: {e}", f.name));
                            }
                        }
                    }
                }
            });
        }
    });
    (
        checked.into_inner(),
        mismatches.into_inner(),
        first_failure.into_inner().unwrap(),
    )
}

/// The roundtrip-fidelity gate: every function of the §6 corpus (the
/// full exhaustive i2 arithmetic spaces, with and without `undef`), a
/// `fuzz`-sized random sample of deeper/wider spaces, and every
/// workload module (before and after O2 — loads, stores, geps, phis,
/// casts, calls, vectors) is printed, re-parsed, and compared by
/// [`frost_ir::FunctionKey`]. One textual form, zero drift: any
/// mismatch is a bug in the printer or the parser.
///
/// Returns the per-corpus table plus a deterministic one-line summary
/// (`roundtrip: checked=N mismatches=M`) for scripts to grep. `quick`
/// strides the multi-instruction exhaustive spaces instead of walking
/// them whole; ci.sh runs the full gate.
pub fn roundtrip(fuzz: usize, quick: bool) -> Result<(Table, String), FrostError> {
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(1);
    let mut t = Table::new(
        "roundtrip fidelity: print → parse → FunctionKey equality",
        &["corpus", "functions", "mismatches", "status"],
    );
    let mut total_checked = 0u64;
    let mut total_mismatches = 0u64;
    let mut failures: Vec<String> = Vec::new();
    let mut corpus =
        |t: &mut Table, name: &str, (checked, bad, first): (u64, u64, Option<String>)| {
            total_checked += checked;
            total_mismatches += bad;
            if let Some(f) = first {
                failures.push(format!("{name}: {f}"));
            }
            t.row(vec![
                name.to_string(),
                checked.to_string(),
                bad.to_string(),
                if bad == 0 {
                    "ok".into()
                } else {
                    "MISMATCH".into()
                },
            ]);
        };

    // The full §6 exhaustive spaces — unsampled, like the sweep.
    let exhaustive = [
        ("§6 exhaustive i2, 1 inst", GenConfig::arithmetic(1)),
        ("§6 exhaustive i2, 2 insts", GenConfig::arithmetic(2)),
        (
            "§6 exhaustive i2 + undef, 1 inst",
            GenConfig::arithmetic(1).with_undef(),
        ),
        (
            "§6 exhaustive i2 + select, 1 inst",
            GenConfig::with_selects(1),
        ),
        (
            "exhaustive guarded (assume/frozen facts), 1 inst",
            GenConfig::guards(1),
        ),
    ];
    // Prime, so a quick-mode stride doesn't resonate with the
    // generator's mixed-radix counter and skip whole dimensions.
    let stride = if quick { 1009 } else { 1 };
    for (name, cfg) in exhaustive {
        let multi_inst = cfg.num_insts > 1;
        corpus(
            &mut t,
            name,
            roundtrip_stream(
                enumerate_functions(cfg).step_by(if multi_inst { stride } else { 1 }),
                workers,
            ),
        );
    }

    // Random samples of the spaces too large to exhaust.
    let per_corpus = fuzz.div_ceil(4);
    let sampled = [
        ("fuzz: i2 arithmetic, 3 insts", GenConfig::arithmetic(3)),
        ("fuzz: i2 + select, 3 insts", GenConfig::with_selects(3)),
        (
            "fuzz: i2 + undef + select, 3 insts",
            GenConfig::with_selects(3).with_undef(),
        ),
        ("fuzz: guarded, 3 insts", GenConfig::guards(3)),
    ];
    for (name, cfg) in sampled {
        corpus(
            &mut t,
            name,
            roundtrip_stream(
                random_functions(cfg, 0xF1305, per_corpus).into_iter(),
                workers,
            ),
        );
    }

    // Workload modules exercise the rest of the instruction surface
    // (memory, geps, phis across loops, casts, calls, vectors), both
    // straight out of the frontend and after the fixed O2 pipeline.
    for w in all_workloads() {
        let raw = w
            .compile(&crate::harness::frontend_options(PipelineMode::Fixed))
            .map_err(|e| FrostError::stage("frontend", w.name, e))?;
        let (opt, _, _) = compile_workload(&w, PipelineMode::Fixed)?;
        corpus(
            &mut t,
            &format!("workload {}", w.name),
            roundtrip_stream(raw.functions.into_iter().chain(opt.functions), workers),
        );
    }

    for f in &failures {
        t.note(format!("first failure — {f}"));
    }
    t.note(
        "the oracle is FunctionKey (α-equivalence-exact), not string equality: the printer renames",
    );
    let summary = format!("roundtrip: checked={total_checked} mismatches={total_mismatches}");
    Ok((t, summary))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inconsistency_matrix_matches_the_paper() {
        let t = inconsistencies();
        let cell = |row_contains: &str, col: usize| -> String {
            t.rows
                .iter()
                .find(|r| r[0].contains(row_contains))
                .unwrap_or_else(|| panic!("row {row_contains}"))[col]
                .clone()
        };
        // Columns: 1 = proposed, 2 = legacy-gvn, 3 = legacy-unswitch.
        assert_eq!(cell("GVN equality", 1), "sound");
        assert_eq!(cell("GVN equality", 3), "UNSOUND");
        assert_eq!(cell("unswitch without freeze", 1), "UNSOUND");
        assert_eq!(cell("unswitch without freeze", 3), "sound");
        assert_eq!(cell("unswitch with freeze", 1), "sound");
        assert_eq!(cell("select c,true,x -> or c,freeze(x)", 1), "sound");
        assert_eq!(cell("select c,true,x -> or c,x (no freeze)", 1), "UNSOUND");
        assert_eq!(cell("reassociate keeping nsw", 1), "UNSOUND");
        assert_eq!(cell("reassociate dropping nsw", 1), "sound");
        assert_eq!(cell("phi -> select", 1), "sound");
        assert_eq!(cell("phi -> select", 2), "UNSOUND");
        // The guard band: the fact is real (fixed rows are sound) but
        // scoped (dominance-blind application miscompiles), and the
        // freeze in front of a fact is load-bearing (forwarding it
        // re-exposes poison to the guard).
        assert_eq!(cell("assume fact, dominance-blind", 1), "UNSOUND");
        assert_eq!(cell("assume fact, dominance-blind", 3), "UNSOUND");
        assert_eq!(cell("assume fact, dominated region", 1), "sound");
        assert_eq!(cell("freeze forwarded into guard fact", 1), "UNSOUND");
        assert_eq!(cell("unreachable-guarded deletion", 1), "sound");
    }

    #[test]
    fn loadwiden_shows_the_section_5_4_split() {
        let t = loadwiden().unwrap();
        assert!(t.rows[0][1].contains("UNSOUND"), "{t}");
        assert_eq!(t.rows[1][1], "sound", "{t}");
    }

    #[test]
    fn widening_is_profitable_and_sound() {
        let t = widening().unwrap();
        // Row 1 is the widened configuration.
        let speedup: f64 = t.rows[1][3].trim_end_matches('%').parse().unwrap();
        assert!(speedup > 0.0, "widening must save cycles: {t}");
        assert!(t.rows[1][4].contains("sound"), "{t}");
        assert!(t.rows[2][4].contains("sound"), "{t}");
        assert!(t.rows[3][4].contains("UNSOUND"), "{t}");
    }

    #[test]
    fn fig6_quick_runs_and_results_match() {
        let t = fig6(true).unwrap();
        assert!(t.rows.len() >= 4);
        for r in &t.rows {
            assert_eq!(r[5], "yes", "cross-mode result mismatch in {}: {t}", r[0]);
        }
    }

    #[test]
    fn optfuzz_campaigns_have_expected_shape() {
        let t = optfuzz(40);
        for r in &t.rows {
            let violations: usize = r[5].parse().unwrap();
            if r[1] == "Fixed" {
                assert_eq!(violations, 0, "fixed-mode campaign must be clean: {t}");
            }
            assert_eq!(r[10], "yes", "plan/auto engines must agree: {t}");
        }
        // The legacy instcombine campaign (row 1) hunts undef bugs; with
        // a small stride it may or may not hit one, so only the fixed
        // rows are asserted here. The full run is asserted in repro.
    }

    #[test]
    fn sweep_refuses_a_checkpoint_from_another_space_or_shard() {
        let dir = std::env::temp_dir().join("frost-sweep-mismatch-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp.jsonl");
        std::fs::remove_file(&path).ok();
        let cp = Some(path.as_path());
        let run = |insts, budget, shard| SweepRun {
            insts,
            budget,
            checkpoint: cp,
            shard,
            ..SweepRun::default()
        };
        let (_, summary) = sweep(Domain::Arith, &run(1, Some(20), None)).unwrap();
        assert!(summary.contains("checked=20 "), "{summary}");
        for (insts, shard, domain, mismatch) in [
            (2, None, Domain::Arith, "config"),
            (1, Some((1, 2)), Domain::Arith, "shard"),
            (1, None, Domain::Guard, "config"),
        ] {
            let err = sweep(domain, &run(insts, None, shard))
                .unwrap_err()
                .to_string();
            assert!(
                err.contains("checkpoint") && err.contains(mismatch),
                "{err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sweep_refuses_pruning_outside_the_arithmetic_domain() {
        // The liveness prune drops guarded functions whose behaviour
        // no smaller pruned space has, so a pruned guard sweep would
        // check the wrong space.
        for domain in [Domain::Guard, Domain::Mem] {
            let run = SweepRun {
                insts: 2,
                prune: true,
                ..SweepRun::default()
            };
            let err = sweep(domain, &run).unwrap_err().to_string();
            assert!(
                err.contains("--prune applies to the arithmetic domain only"),
                "{domain:?}: {err}"
            );
        }
    }
}
