//! The traced per-layer split. One refinement check is rebuilt here from
//! the public layer functions, and every call is timed from this file;
//! nothing inside the program is instrumented. Engine counts are
//! deltas of the program's own always-on telemetry counters.
//!
//! Each traced run has three passes over the same functions, on one
//! thread so that counts repeat exactly:
//!
//! 1. the traced loop, which records each function's verdict;
//! 2. the program's own untraced path over the same functions, whose
//!    CPU time is the base of `trace.overhead`;
//! 3. a cross-check that the program's check gives every function the
//!    verdict the traced loop recomposed. It runs outside all timing.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;
use std::time::Instant;

use frost_core::{
    enumerate_function, uninit_fill, Bit, Engine, EnumeratedOutcomes, ExecError, Memory,
    OutcomeCache, Ptr, Semantics, Val,
};
use frost_fuzz::{Campaign, ExhaustiveFunctions, GenConfig};
use frost_ir::{
    module_to_string, parse_module, verify_module, Function, FunctionKey, Module, VerifyMode,
};
use frost_opt::{o2_pipeline, AssumeSimplify, Dce, GuardDce, Gvn, InstCombine, Pass, PipelineMode};
use frost_refine::{
    check_refinement_cached_policy, enumerate_inputs_cached, enumerate_memories, set_refines,
    CheckOptions, CheckPolicy, CheckResult, InputOptions,
};

use crate::fir;

/// Per-layer metrics by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// The result of one traced run.
pub struct Traced {
    /// Functions checked in the traced loop.
    pub attempted: u64,
    /// Functions whose recomposed verdict differs from the program's.
    pub failed: u64,
    /// Every per-layer metric; layers a workload does not run read 0.
    pub metrics: Metrics,
}

/// A swept function space, as `repro -e sweep` selects it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Domain {
    /// i2 arithmetic against the fixed InstCombine.
    Arith,
    /// The guarded space against the fixed assume-simplify + guard-dce.
    Guard,
    /// The memory space, over every initial memory, against the fixed
    /// alias-aware GVN.
    Mem,
}

impl Domain {
    /// Parses `arith`, `guard` or `mem`.
    pub fn parse(s: &str) -> Option<Domain> {
        match s {
            "arith" => Some(Domain::Arith),
            "guard" => Some(Domain::Guard),
            "mem" => Some(Domain::Mem),
            _ => None,
        }
    }

    fn config(self, insts: usize) -> GenConfig {
        match self {
            Domain::Arith => GenConfig::arithmetic(insts),
            Domain::Guard => GenConfig::guards(insts),
            Domain::Mem => GenConfig::memory(insts),
        }
    }

    fn options(self) -> CheckOptions {
        let opts = CheckOptions::new(Semantics::proposed()).engine(Engine::Auto);
        match self {
            Domain::Mem => opts.with_inputs(opts.inputs.with_memory_values(true)),
            Domain::Arith | Domain::Guard => opts,
        }
    }
}

/// The fixed transform `repro -e sweep` applies in each domain.
struct Transform {
    domain: Domain,
    ic: InstCombine,
    gvn: Gvn,
    asim: AssumeSimplify,
    gdce: GuardDce,
    dce: Dce,
}

impl Transform {
    fn new(domain: Domain) -> Transform {
        let mode = PipelineMode::Fixed;
        Transform {
            domain,
            ic: InstCombine::new(mode),
            gvn: Gvn::new(mode),
            asim: AssumeSimplify::new(mode),
            gdce: GuardDce::new(mode),
            dce: Dce::new(),
        }
    }

    fn apply(&self, m: &mut Module) {
        for f in &mut m.functions {
            match self.domain {
                Domain::Mem => {
                    self.gvn.apply(f);
                }
                Domain::Guard => {
                    self.asim.apply(f);
                    self.gdce.apply(f);
                }
                Domain::Arith => {
                    self.ic.apply(f);
                }
            }
            self.dce.apply(f);
            f.compact();
        }
    }
}

/// One residue class of the exhaustive walk, aligned the way
/// `Campaign::with_process_shard` aligns it.
struct Slicer {
    gen: ExhaustiveFunctions,
    shards: u64,
    shard_id: u64,
}

impl Iterator for Slicer {
    type Item = Function;

    fn next(&mut self) -> Option<Function> {
        let pos = self.gen.position();
        let ahead = (self.shard_id + self.shards - pos % self.shards) % self.shards;
        if ahead > 0 {
            self.gen.fast_forward(ahead);
        }
        self.gen.next()
    }
}

/// A stopwatch whose laps tile time: each lap starts where the last
/// ended, so the layers account for the loop without gaps.
struct Lap(Instant);

impl Lap {
    fn start() -> Lap {
        Lap(Instant::now())
    }

    fn take(&mut self) -> u64 {
        let now = Instant::now();
        let ns = now.duration_since(self.0).as_nanos() as u64;
        self.0 = now;
        ns
    }
}

/// Nanoseconds per layer and the counts the ratios are built from.
#[derive(Default)]
struct Ledger {
    gen: u64,
    transform: u64,
    key: u64,
    inputs: u64,
    hit: u64,
    miss: u64,
    compare: u64,
    parse: u64,
    verify: u64,
    glue: u64,
    o2: u64,
    engine: u64,
    print: u64,
    /// Inclusive time of the uncached checks (inputs, engine, compare).
    check_uncached: u64,
    changed: u64,
    memories: u64,
    hits: u64,
    misses: u64,
    /// Outcome enumerations run, and those `Engine::Auto` ran on the
    /// plan engine because the bitslice compiler declined.
    enumerations: u64,
    plan_enumerations: u64,
    check_ns: Vec<u64>,
}

impl Ledger {
    /// Books one outcome enumeration, given the bitslice compile count
    /// read before it.
    fn enumerated(&mut self, compiles_before: u64) {
        self.enumerations += 1;
        self.plan_enumerations += u64::from(bitslice_compiles() == compiles_before);
    }

    fn layers_ns(&self) -> u64 {
        self.gen
            + self.transform
            + self.key
            + self.inputs
            + self.hit
            + self.miss
            + self.compare
            + self.parse
            + self.verify
            + self.glue
            + self.o2
            + self.engine
            + self.print
    }

    /// Every per-layer metric. `loop_ns` is the traced loop's wall time;
    /// `cpu_ratio` is traced over untraced CPU for the same functions.
    fn metrics(
        &mut self,
        loop_ns: u64,
        cpu_ratio: f64,
        delta: &frost_telemetry::Snapshot,
        cache_entries: usize,
    ) -> Metrics {
        let fns = self.check_ns.len() as f64;
        let per_fn = |x: u64| ratio(x as f64, fns);
        let compiles = delta.counter("frost.core.bitslice.compiles");
        let rejects = delta.counter("frost.core.bitslice.guard_rejects")
            + delta.counter("frost.core.bitslice.mem_rejects");
        self.check_ns.sort_unstable();
        let mut m = Metrics::new();
        m.insert("gen.ns_per_fn", per_fn(self.gen));
        m.insert("opt.transform.ns_per_fn", per_fn(self.transform));
        m.insert("opt.changed_frac", per_fn(self.changed));
        m.insert("ir.key.ns_per_fn", per_fn(self.key));
        m.insert("refine.inputs.ns_per_fn", per_fn(self.inputs));
        m.insert("refine.memories_per_fn", per_fn(self.memories));
        m.insert("cache.probes_per_fn", per_fn(self.hits + self.misses));
        m.insert(
            "cache.hit_frac",
            ratio(self.hits as f64, (self.hits + self.misses) as f64),
        );
        m.insert("cache.hit_ns", ratio(self.hit as f64, self.hits as f64));
        m.insert("cache.miss_ns", ratio(self.miss as f64, self.misses as f64));
        m.insert("cache.entries", cache_entries as f64);
        m.insert("bitslice.compiles", compiles as f64);
        m.insert(
            "bitslice.rejects_frac",
            ratio(rejects as f64, (compiles + rejects) as f64),
        );
        m.insert(
            "engine.plan_frac",
            ratio(self.plan_enumerations as f64, self.enumerations as f64),
        );
        m.insert(
            "bitslice.plane_ops_per_fn",
            per_fn(delta.counter("frost.core.bitslice.plane_ops")),
        );
        m.insert(
            "plan.compiles",
            delta.counter("frost.core.plan.compiles") as f64,
        );
        m.insert("refine.compare.ns_per_fn", per_fn(self.compare));
        m.insert("check.p50_us", nearest_rank(&self.check_ns, 50.0) / 1e3);
        m.insert("check.p99_us", nearest_rank(&self.check_ns, 99.0) / 1e3);
        m.insert("ir.parse.ns_per_fn", per_fn(self.parse));
        m.insert("ir.verify.ns_per_fn", per_fn(self.verify));
        m.insert("input.glue.ns_per_fn", per_fn(self.glue));
        m.insert("opt.o2.ns_per_fn", per_fn(self.o2));
        m.insert(
            "refine.check_uncached.us_per_fn",
            per_fn(self.check_uncached) / 1e3,
        );
        m.insert("ir.print.ns_per_fn", per_fn(self.print));
        m.insert("trace.fns", fns);
        m.insert(
            "trace.coverage",
            ratio(self.layers_ns() as f64, loop_ns as f64),
        );
        m.insert("trace.overhead", cpu_ratio);
        m
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The nearest-rank `p`th percentile of sorted `samples` (0 when empty).
fn nearest_rank(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// The program's count of successful bitslice compilations.
/// `Engine::Auto` tries one per enumeration, so an enumeration that
/// leaves it unchanged ran on the plan engine.
fn bitslice_compiles() -> u64 {
    static COUNTER: OnceLock<&'static frost_telemetry::Counter> = OnceLock::new();
    COUNTER
        .get_or_init(|| frost_telemetry::counter("frost.core.bitslice.compiles"))
        .get()
}

/// User plus system CPU seconds of this process so far, from
/// `/proc/self/stat` (fields 14 and 15, in USER_HZ = 100 ticks).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    let (_, rest) = stat.rsplit_once(')').expect("stat has a command field");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric stat field");
    // `rest` starts at field 3, the state.
    (ticks(11) + ticks(12)) / 100.0
}

/// A verdict in comparable form.
#[derive(Debug, PartialEq)]
enum Verdict {
    Refines,
    Violation {
        args: Vec<String>,
        mem: Option<String>,
    },
    Inconclusive(String),
}

impl Verdict {
    fn of(r: &CheckResult) -> Verdict {
        match r {
            CheckResult::Refines => Verdict::Refines,
            CheckResult::CounterExample(ce) => Verdict::Violation {
                args: ce.args.iter().map(Val::to_string).collect(),
                mem: ce.initial_mem.clone(),
            },
            CheckResult::Inconclusive(why) => Verdict::Inconclusive(why.clone()),
        }
    }

    /// The verdict as a `repro --input` report line reduces it.
    fn report_kind(&self) -> String {
        match self {
            Verdict::Refines => "sound".to_string(),
            Verdict::Violation { .. } => "UNSOUND".to_string(),
            Verdict::Inconclusive(why) => format!("inconclusive: {why}"),
        }
    }
}

fn inconclusive(e: &ExecError, args: &[Val], which: &str) -> Verdict {
    let args: Vec<String> = args.iter().map(Val::to_string).collect();
    Verdict::Inconclusive(format!(
        "{which} evaluation failed on ({}): {e}",
        args.join(", ")
    ))
}

fn signatures_match(a: &Function, b: &Function) -> bool {
    a.ret_ty == b.ret_ty
        && a.params.len() == b.params.len()
        && a.params.iter().zip(&b.params).all(|(x, y)| x.ty == y.ty)
}

/// The cache salt the checker derives for memory `mem_idx`.
fn input_salt(opts: &InputOptions, block_sizes: &[u32], mem_idx: usize) -> u64 {
    let mut h = DefaultHasher::new();
    opts.hash(&mut h);
    block_sizes.hash(&mut h);
    mem_idx.hash(&mut h);
    h.finish()
}

/// The checker's rendering of an initial memory, which it builds for
/// every memory before comparing.
fn render_initial_mem(mem: &Memory, block_sizes: &[u32]) -> String {
    let mut s = String::new();
    for (bi, &size) in block_sizes.iter().enumerate() {
        if bi > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "b{bi} = [");
        for off in 0..size {
            if off > 0 {
                s.push(' ');
            }
            let block = bi as u32;
            let bits = mem
                .load_ptr(Ptr::Block { block, off }, 8)
                .expect("initial-block byte is in bounds");
            if bits.iter().any(|b| matches!(b, Bit::Poison)) {
                s.push_str("poison");
            } else if bits.iter().any(|b| matches!(b, Bit::Undef)) {
                s.push_str("undef");
            } else if bits.iter().any(|b| matches!(b, Bit::Ptr { .. })) {
                s.push_str("ptr");
            } else {
                let v = bits
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| matches!(b, Bit::One))
                    .fold(0u8, |v, (i, _)| v | 1 << i);
                let _ = write!(s, "{v:#04x}");
            }
        }
        s.push(']');
    }
    s
}

/// The per-input comparison of one memory's source and target outcomes;
/// `None` when the target refines the source on every input.
fn compare(
    src_all: &EnumeratedOutcomes,
    tgt_all: &EnumeratedOutcomes,
    tuples: &[Vec<Val>],
    mem: Option<String>,
) -> Option<Verdict> {
    for (i, args) in tuples.iter().enumerate() {
        let src = match &src_all[i] {
            Ok(s) => s,
            Err(e) => return Some(inconclusive(e, args, "source")),
        };
        if src.may_ub() {
            continue;
        }
        let tgt = match &tgt_all[i] {
            Ok(s) => s,
            Err(e) => return Some(inconclusive(e, args, "target")),
        };
        if !set_refines(tgt, src) {
            return Some(Verdict::Violation {
                args: args.iter().map(Val::to_string).collect(),
                mem,
            });
        }
    }
    None
}

/// Input tuples and initial memories of a check.
struct Inputs {
    shared: frost_refine::SharedInputs,
    src_mems: Vec<Memory>,
    tgt_mems: Vec<Memory>,
}

/// The check's inputs, or the inconclusive verdict the checker gives
/// when they cannot be enumerated.
fn enumerate_check_inputs(
    sf: &Function,
    tf: &Function,
    opts: &CheckOptions,
) -> Result<Inputs, Verdict> {
    if !signatures_match(sf, tf) {
        return Err(Verdict::Inconclusive("signature mismatch".to_string()));
    }
    let Some(shared) = enumerate_inputs_cached(sf, &opts.inputs) else {
        return Err(Verdict::Inconclusive(
            "input space too large to enumerate".to_string(),
        ));
    };
    let block_sizes = shared.1.as_slice();
    let Some(src_mems) = enumerate_memories(block_sizes, &opts.inputs, uninit_fill(&opts.src_sem))
    else {
        return Err(Verdict::Inconclusive(
            "initial-memory space too large to enumerate".to_string(),
        ));
    };
    let tgt_mems = enumerate_memories(block_sizes, &opts.inputs, uninit_fill(&opts.tgt_sem))
        .expect("target memory shape matches the source's");
    Ok(Inputs {
        shared,
        src_mems,
        tgt_mems,
    })
}

/// `check_refinement_cached_policy` with a transient source, rebuilt
/// from its layer calls: inputs and memories, fingerprints, one cache
/// probe per side and memory, and the comparison.
fn cached_check(
    before: &Module,
    after: &Module,
    name: &str,
    opts: &CheckOptions,
    cache: &OutcomeCache,
    lap: &mut Lap,
    l: &mut Ledger,
) -> Verdict {
    let (Some(sf), Some(tf)) = (before.function(name), after.function(name)) else {
        return Verdict::Inconclusive("function not found".to_string());
    };
    let inputs = enumerate_check_inputs(sf, tf, opts);
    l.inputs += lap.take();
    let inputs = match inputs {
        Ok(i) => i,
        Err(v) => return v,
    };
    let (tuples, block_sizes) = (&inputs.shared.0, inputs.shared.1.as_slice());
    l.memories += inputs.src_mems.len() as u64;
    let src_key = FunctionKey::of(sf);
    let tgt_key = FunctionKey::of(tf);
    l.key += lap.take();

    // One cache probe, booked as a hit or a miss by the cache's own
    // tally; a miss includes plan or bitslice compilation and evaluation.
    let probe = |key: &FunctionKey,
                 module: &Module,
                 mem: &Memory,
                 sem: Semantics,
                 mi: usize,
                 store: bool,
                 lap: &mut Lap,
                 l: &mut Ledger| {
        let (hits, compiles) = (cache.hits(), bitslice_compiles());
        let salt = input_salt(&opts.inputs, block_sizes, mi);
        let all = cache.enumerate_keyed(
            key,
            module,
            name,
            tuples,
            mem,
            sem,
            opts.limits,
            opts.engine,
            salt,
            store,
        );
        let ns = lap.take();
        if cache.hits() > hits {
            l.hits += 1;
            l.hit += ns;
        } else {
            l.misses += 1;
            l.miss += ns;
            l.enumerated(compiles);
        }
        all
    };

    // The identity fast path of an unchanged body, stored under the
    // source's (transient) rule.
    if opts.src_sem == opts.tgt_sem && src_key == tgt_key {
        let mut verdict = Verdict::Refines;
        for (mi, tgt_mem) in inputs.tgt_mems.iter().enumerate() {
            let all = probe(&tgt_key, after, tgt_mem, opts.tgt_sem, mi, false, lap, l);
            let failed = tuples
                .iter()
                .zip(all.iter())
                .find_map(|(args, r)| r.as_ref().err().map(|e| inconclusive(e, args, "source")));
            if let Some(v) = failed {
                verdict = v;
                break;
            }
        }
        l.compare += lap.take();
        return verdict;
    }

    for (mi, (src_mem, tgt_mem)) in inputs.src_mems.iter().zip(&inputs.tgt_mems).enumerate() {
        let src_all = probe(&src_key, before, src_mem, opts.src_sem, mi, false, lap, l);
        let tgt_all = probe(&tgt_key, after, tgt_mem, opts.tgt_sem, mi, true, lap, l);
        let mem = opts
            .inputs
            .memory_values
            .then(|| render_initial_mem(src_mem, block_sizes));
        let verdict = compare(&src_all, &tgt_all, tuples, mem);
        l.compare += lap.take();
        if let Some(v) = verdict {
            return v;
        }
    }
    Verdict::Refines
}

/// `check_refinement` rebuilt from its layer calls: inputs and
/// memories, one uncached whole-module enumeration per side and memory,
/// and the comparison.
fn uncached_check(
    before: &Module,
    after: &Module,
    name: &str,
    opts: &CheckOptions,
    lap: &mut Lap,
    l: &mut Ledger,
) -> Verdict {
    let (Some(sf), Some(tf)) = (before.function(name), after.function(name)) else {
        return Verdict::Inconclusive("function not found".to_string());
    };
    let inputs = enumerate_check_inputs(sf, tf, opts);
    l.inputs += lap.take();
    let inputs = match inputs {
        Ok(i) => i,
        Err(v) => return v,
    };
    let (tuples, block_sizes) = (&inputs.shared.0, inputs.shared.1.as_slice());
    l.memories += inputs.src_mems.len() as u64;
    for (src_mem, tgt_mem) in inputs.src_mems.iter().zip(&inputs.tgt_mems) {
        let mut run = |module: &Module, mem: &Memory, sem: Semantics| {
            let compiles = bitslice_compiles();
            let all = enumerate_function(module, name, tuples, mem, sem, opts.limits, opts.engine);
            l.enumerated(compiles);
            all
        };
        let src_all = run(before, src_mem, opts.src_sem);
        let tgt_all = run(after, tgt_mem, opts.tgt_sem);
        l.engine += lap.take();
        let mem = opts
            .inputs
            .memory_values
            .then(|| render_initial_mem(src_mem, block_sizes));
        let verdict = compare(&src_all, &tgt_all, tuples, mem);
        l.compare += lap.take();
        if let Some(v) = verdict {
            return v;
        }
    }
    Verdict::Refines
}

/// One residue class of a sweep, cut to its first `limit` functions.
pub struct SweepSlice {
    /// The swept space.
    pub domain: Domain,
    /// Instructions per function.
    pub insts: usize,
    /// Residue classes the space is split into.
    pub shards: usize,
    /// This slice's class.
    pub shard_id: usize,
    /// Functions traced.
    pub limit: usize,
}

impl SweepSlice {
    fn walk(&self, cfg: &GenConfig) -> Slicer {
        Slicer {
            gen: ExhaustiveFunctions::new(cfg.clone()),
            shards: self.shards as u64,
            shard_id: self.shard_id as u64,
        }
    }
}

/// Wraps `f` in a module and returns it with its transformed copy.
fn transformed(f: Function, transform: &Transform) -> (String, Module, Module) {
    let name = f.name.clone();
    let mut before = Module::new();
    before.functions.push(f);
    let mut after = before.clone();
    transform.apply(&mut after);
    (name, before, after)
}

/// The traced split of one sweep slice, checked as `repro -e sweep`
/// checks it: generate, transform, then a cached check with a
/// transient source.
pub fn trace_sweep(s: &SweepSlice) -> Traced {
    let cfg = s.domain.config(s.insts);
    let opts = s.domain.options();
    let transform = Transform::new(s.domain);

    let mut l = Ledger::default();
    let mut verdicts = Vec::with_capacity(s.limit.min(1 << 20));
    l.check_ns.reserve(s.limit.min(1 << 20));
    let cache = OutcomeCache::new();
    let mut walk = s.walk(&cfg);
    let counters = frost_telemetry::snapshot();
    let cpu = cpu_seconds();
    let start = Instant::now();
    while verdicts.len() < s.limit {
        let mut lap = Lap::start();
        let Some(f) = walk.next() else { break };
        l.gen += lap.take();
        let (name, before, after) = transformed(f, &transform);
        l.changed += u64::from(after != before);
        l.transform += lap.take();
        let check_start = lap.0;
        let verdict = cached_check(&before, &after, &name, &opts, &cache, &mut lap, &mut l);
        // The check's own teardown (outcome vectors, memories).
        l.compare += lap.take();
        let check_ns = lap.0.duration_since(check_start).as_nanos() as u64;
        drop((name, before, after));
        l.transform += lap.take();
        verdicts.push(verdict);
        l.check_ns.push(check_ns);
    }
    let loop_ns = start.elapsed().as_nanos() as u64;
    let traced_cpu = cpu_seconds() - cpu;
    let delta = frost_telemetry::snapshot().delta(&counters);

    let cpu = cpu_seconds();
    let (report, _) = Campaign::with_options(opts)
        .with_shard_size(4096)
        .with_dedup(false)
        .with_process_shard(s.shard_id, s.shards)
        .with_workers(1)
        .with_budget(verdicts.len())
        .run_exhaustive(&cfg, None, |m| transform.apply(m));
    let untraced_cpu = cpu_seconds() - cpu;

    let check_cache = OutcomeCache::new();
    let policy = CheckPolicy {
        transient_src: true,
    };
    let mut walk = s.walk(&cfg);
    let mut failed = 0u64;
    for v in &verdicts {
        let f = walk
            .next()
            .expect("the second walk yields the same functions");
        let (name, before, after) = transformed(f, &transform);
        let r = check_refinement_cached_policy(
            &before,
            &name,
            &after,
            &name,
            &opts,
            &check_cache,
            policy,
        );
        failed += u64::from(Verdict::of(&r) != *v);
    }
    let refined = verdicts.iter().filter(|v| **v == Verdict::Refines).count();
    if (report.total, report.changed as u64, report.refined) != (verdicts.len(), l.changed, refined)
    {
        failed = verdicts.len() as u64;
    }

    let metrics = l.metrics(
        loop_ns,
        ratio(traced_cpu, untraced_cpu),
        &delta,
        cache.len(),
    );
    Traced {
        attempted: verdicts.len() as u64,
        failed,
        metrics,
    }
}

/// The traced split of the `input` workload's first `files` modules,
/// each driven as `repro --input` drives it: parse, verify, fixed O2,
/// an uncached check per function, then the printed report.
pub fn trace_input(seed: u64, files: usize) -> Traced {
    let texts: Vec<String> = fir::module_sizes(seed)
        .into_iter()
        .take(files)
        .enumerate()
        .map(|(i, n)| module_to_string(&fir::module(seed, i, n)))
        .collect();
    let opts = CheckOptions::new(Semantics::proposed())
        .with_inputs(InputOptions::new().with_bytes_per_pointer(4));

    let mut l = Ledger::default();
    let mut verdicts: Vec<Vec<String>> = Vec::new();
    let counters = frost_telemetry::snapshot();
    let cpu = cpu_seconds();
    let start = Instant::now();
    for src in &texts {
        let mut lap = Lap::start();
        let module = parse_module(src).expect("generated modules parse");
        l.parse += lap.take();
        let legacy_ok = verify_module(&module, VerifyMode::Legacy).is_ok();
        let proposed_ok = verify_module(&module, VerifyMode::Proposed).is_ok();
        l.verify += lap.take();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "module: {} function(s), {} declaration(s)\nverify: {legacy_ok} {proposed_ok}",
            module.functions.len(),
            module.declarations.len()
        );
        let names: Vec<String> = module.functions.iter().map(|f| f.name.clone()).collect();
        let pairs: Vec<&String> = names
            .iter()
            .filter(|n| names.iter().any(|m| *m == format!("{n}.tgt")))
            .collect();
        let plain: Vec<&String> = names
            .iter()
            .filter(|n| !pairs.contains(n) && !n.ends_with(".tgt"))
            .collect();
        l.glue += lap.take();
        let mut optimized = module.clone();
        o2_pipeline(PipelineMode::Fixed).run(&mut optimized);
        l.o2 += lap.take();
        let mut kinds = Vec::with_capacity(plain.len());
        for name in plain {
            let before = module.function(name).expect("name from module");
            let after = optimized.function(name).expect("name survives O2");
            l.changed += u64::from(before != after);
            l.glue += lap.take();
            let check_start = lap.0;
            let verdict = uncached_check(&module, &optimized, name, &opts, &mut lap, &mut l);
            l.compare += lap.take();
            let kind = verdict.report_kind();
            let check_ns = lap.0.duration_since(check_start).as_nanos() as u64;
            l.check_ns.push(check_ns);
            l.check_uncached += check_ns;
            let _ = writeln!(
                out,
                "  @{name}: insts {} -> {}, {kind}",
                before.placed_inst_count(),
                after.placed_inst_count(),
            );
            kinds.push(kind);
            l.glue += lap.take();
        }
        let _ = write!(out, "{}", module_to_string(&optimized));
        std::hint::black_box(&out);
        drop((module, optimized, out));
        l.print += lap.take();
        verdicts.push(kinds);
    }
    let loop_ns = start.elapsed().as_nanos() as u64;
    let traced_cpu = cpu_seconds() - cpu;
    let delta = frost_telemetry::snapshot().delta(&counters);

    let cpu = cpu_seconds();
    let reports: Vec<Result<String, String>> = texts
        .iter()
        .map(|src| frost_bench::run_input_text("trace.fir", src).map_err(|e| e.to_string()))
        .collect();
    let untraced_cpu = cpu_seconds() - cpu;

    let mut failed = 0u64;
    for (kinds, report) in verdicts.iter().zip(&reports) {
        let product: Vec<String> = match report.as_deref().map(fir::parse_report) {
            Ok(Ok(r)) => r
                .verdicts
                .into_iter()
                .map(|v| {
                    if v.verdict.starts_with("UNSOUND") {
                        "UNSOUND".to_string()
                    } else {
                        v.verdict
                    }
                })
                .collect(),
            _ => Vec::new(),
        };
        if product.len() == kinds.len() {
            failed += kinds.iter().zip(&product).filter(|(a, b)| a != b).count() as u64;
        } else {
            failed += kinds.len() as u64;
        }
    }

    let metrics = l.metrics(loop_ns, ratio(traced_cpu, untraced_cpu), &delta, 0);
    Traced {
        attempted: l.check_ns.len() as u64,
        failed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&s, 50.0), 50.0);
        assert_eq!(nearest_rank(&s, 99.0), 99.0);
        assert_eq!(nearest_rank(&[7], 99.0), 7.0);
        assert_eq!(nearest_rank(&[], 50.0), 0.0);
    }

    #[test]
    fn recomposed_sweep_check_agrees_with_the_program() {
        for (domain, insts) in [(Domain::Arith, 2), (Domain::Guard, 2), (Domain::Mem, 3)] {
            let t = trace_sweep(&SweepSlice {
                domain,
                insts,
                shards: 3,
                shard_id: 2,
                limit: 300,
            });
            assert_eq!(t.attempted, 300, "{domain:?}");
            assert_eq!(t.failed, 0, "{domain:?}");
            assert!(t.metrics["trace.coverage"] <= 1.0, "{domain:?}");
            assert!(t.metrics["cache.probes_per_fn"] >= 1.0, "{domain:?}");
        }
    }

    #[test]
    fn recomposed_input_check_agrees_with_the_program() {
        let t = trace_input(5, 1);
        assert_eq!(t.failed, 0);
        assert!(t.attempted >= fir::MIN_FNS as u64);
        assert!(t.metrics["refine.check_uncached.us_per_fn"] > 0.0);
        assert_eq!(t.metrics["gen.ns_per_fn"], 0.0);
    }
}
