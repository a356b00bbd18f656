//! End-to-end refinement checking of function pairs (translation
//! validation, à la Alive).
//!
//! Every check is metered through `frost-telemetry` (see
//! docs/OBSERVABILITY.md): the counters `frost.refine.checks`,
//! `.refines`, `.counterexamples`, and `.inconclusive` tally checks by
//! verdict, `frost.refine.compare.materialized` counts the comparisons
//! that could not stay in lane masks, and — when tracing is enabled —
//! each check runs inside a `refine.check.run` span carrying whether it
//! went through the cache and how it concluded.

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use frost_telemetry::Counter;

use frost_core::{
    enumerate_function_mems, is_self_contained, uninit_fill, Batch, Bit, Engine, Limits, Outcome,
    OutcomeCache, OutcomeSet, Semantics, Val,
};
use frost_ir::{Function, FunctionKey, Module};

use crate::inputs::{check_memories, enumerate_inputs_cached, CheckMemories, InputOptions};
use crate::lattice::{lanes_unjustified, mem_refines, set_refines, unjustified};

/// Configuration of a refinement check.
///
/// Build with [`CheckOptions::new`] (one semantics for both sides) or
/// [`CheckOptions::between`] (migration questions), then chain the
/// `with_*` knobs:
///
/// ```
/// use frost_core::{Limits, Semantics};
/// use frost_refine::CheckOptions;
/// let opts = CheckOptions::new(Semantics::proposed())
///     .with_limits(Limits { max_states: 1 << 20, ..Limits::default() });
/// assert_eq!(opts.limits.max_states, 1 << 20);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct CheckOptions {
    /// Semantics the *source* function is evaluated under.
    pub src_sem: Semantics,
    /// Semantics the *target* function is evaluated under (usually the
    /// same; differing semantics express migration questions).
    pub tgt_sem: Semantics,
    /// Execution limits per enumeration.
    pub limits: Limits,
    /// Input enumeration options. `include_undef` defaults to following
    /// `src_sem.has_undef`; see [`CheckOptions::new`].
    pub inputs: InputOptions,
    /// Which execution backend enumerates outcomes. Defaults to
    /// [`Engine::Auto`]: bit-sliced for eligible all-small-int
    /// signatures, the plan machine otherwise.
    pub engine: Engine,
}

impl CheckOptions {
    /// Checks source and target under the same semantics, with undef
    /// inputs exactly when that semantics has undef.
    pub fn new(sem: Semantics) -> CheckOptions {
        CheckOptions::between(sem, sem)
    }

    /// Checks the source under `src_sem` and the target under
    /// `tgt_sem` — the migration question of §7: is code compiled under
    /// one model still correct under another? Undef inputs follow the
    /// *source* semantics (inputs are fed to both sides).
    pub fn between(src_sem: Semantics, tgt_sem: Semantics) -> CheckOptions {
        CheckOptions {
            src_sem,
            tgt_sem,
            limits: Limits::default(),
            inputs: InputOptions::new().with_undef(src_sem.has_undef),
            engine: Engine::Auto,
        }
    }

    /// Returns these options with the given per-enumeration execution
    /// limits.
    #[must_use]
    pub fn with_limits(self, limits: Limits) -> CheckOptions {
        CheckOptions { limits, ..self }
    }

    /// Returns these options with the given input-enumeration options.
    #[must_use]
    pub fn with_inputs(self, inputs: InputOptions) -> CheckOptions {
        CheckOptions { inputs, ..self }
    }

    /// Returns these options with the given execution [`Engine`].
    /// Downstream code selects a backend here instead of naming a
    /// concrete evaluator.
    #[must_use]
    pub fn engine(self, engine: Engine) -> CheckOptions {
        CheckOptions { engine, ..self }
    }
}

impl Default for CheckOptions {
    fn default() -> CheckOptions {
        CheckOptions::new(Semantics::proposed())
    }
}

/// How a cached check treats the shapes it encounters — the knob that
/// keeps exhaustive campaigns from growing the outcome cache linearly
/// with the enumerated space.
///
/// The default policy stores both sides (right for random corpora and
/// repeated queries, where any shape may recur). Exhaustive sweeps set
/// [`CheckPolicy::transient_src`]: the odometer visits each source
/// exactly once, so caching source enumerations only inflates the
/// working set; targets are still stored because transforms funnel
/// thousands of sources onto a few canonical forms.
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckPolicy {
    /// The source function of each pair is seen once and never
    /// revisited: probe the cache for it, but do not store it.
    pub transient_src: bool,
}

/// A concrete witness that the target does not refine the source.
#[derive(Clone, Debug)]
pub struct CounterExample {
    /// The argument values.
    pub args: Vec<Val>,
    /// The initial memory contents the violation was found under, when
    /// memory contents were enumerated
    /// ([`InputOptions::memory_values`]); `None` under the default
    /// single uninitialized memory.
    pub initial_mem: Option<String>,
    /// Everything the source may do on these arguments.
    pub src_outcomes: OutcomeSet,
    /// Everything the target may do.
    pub tgt_outcomes: OutcomeSet,
    /// A target behavior no source behavior justifies.
    pub witness: Outcome,
    /// The final memories, rendered byte by byte like
    /// [`CounterExample::initial_mem`], when the witness's differs from
    /// a returning source behavior's: `(source, target)`, the source's
    /// distinct memories joined by ` | `. `None` when every memory
    /// agrees, so value-only counterexamples print as before.
    pub final_mems: Option<(String, String)>,
}

impl fmt::Display for CounterExample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "args = (")?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        writeln!(f, ")")?;
        if let Some(mem) = &self.initial_mem {
            writeln!(f, "  initial memory: {mem}")?;
        }
        writeln!(f, "  source can: {}", self.src_outcomes)?;
        writeln!(f, "  target can: {}", self.tgt_outcomes)?;
        write!(f, "  unjustified target behavior: {}", self.witness)?;
        if let Some((src, tgt)) = &self.final_mems {
            write!(f, "\n  source final memory: {src}")?;
            write!(f, "\n  target final memory: {tgt}")?;
        }
        Ok(())
    }
}

/// Renders a snapshot of the initial blocks
/// ([`frost_core::Memory::snapshot`]) byte
/// by byte, e.g. `b0 = [0x01 poison]`.
fn render_blocks(snapshot: &[Bit], block_sizes: &[u32]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let mut bytes = snapshot.chunks(8);
    for (bi, &size) in block_sizes.iter().enumerate() {
        if bi > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "b{bi} = [");
        for (off, bits) in bytes.by_ref().take(size as usize).enumerate() {
            if off > 0 {
                s.push(' ');
            }
            s.push_str(&render_byte(bits));
        }
        s.push(']');
    }
    s
}

fn render_byte(bits: &[Bit]) -> String {
    if bits.iter().any(|b| matches!(b, Bit::Poison)) {
        return "poison".to_string();
    }
    if bits.iter().any(|b| matches!(b, Bit::Undef)) {
        return "undef".to_string();
    }
    if bits.iter().any(|b| matches!(b, Bit::Ptr { .. })) {
        return "ptr".to_string();
    }
    let mut v = 0u8;
    for (i, b) in bits.iter().enumerate() {
        if matches!(b, Bit::One) {
            v |= 1 << i;
        }
    }
    format!("{v:#04x}")
}

/// The verdict of a refinement check.
#[derive(Clone, Debug)]
pub enum CheckResult {
    /// Every target behavior is allowed by the source, on every
    /// enumerated input.
    Refines,
    /// A concrete input where the target misbehaves.
    CounterExample(Box<CounterExample>),
    /// The check could not complete (resource limits, unenumerable
    /// domain).
    Inconclusive(String),
}

impl CheckResult {
    /// Returns `true` for [`CheckResult::Refines`].
    pub fn is_refinement(&self) -> bool {
        matches!(self, CheckResult::Refines)
    }

    /// Returns the counterexample if there is one.
    pub fn counterexample(&self) -> Option<&CounterExample> {
        match self {
            CheckResult::CounterExample(ce) => Some(ce),
            _ => None,
        }
    }

    /// Panics with a report unless the result is a refinement.
    ///
    /// # Panics
    ///
    /// Panics on counterexamples and inconclusive checks (useful in
    /// tests).
    pub fn assert_refines(&self) {
        match self {
            CheckResult::Refines => {}
            CheckResult::CounterExample(ce) => panic!("refinement violated:\n{ce}"),
            CheckResult::Inconclusive(why) => panic!("refinement check inconclusive: {why}"),
        }
    }
}

fn signatures_match(a: &Function, b: &Function) -> bool {
    a.ret_ty == b.ret_ty
        && a.params.len() == b.params.len()
        && a.params.iter().zip(&b.params).all(|(x, y)| x.ty == y.ty)
}

/// Process-wide per-verdict check tallies and the comparison-path
/// count, resolved once.
struct RefineCounters {
    checks: &'static Counter,
    refines: &'static Counter,
    counterexamples: &'static Counter,
    inconclusive: &'static Counter,
    materialized: &'static Counter,
}

fn refine_counters() -> &'static RefineCounters {
    static CTRS: OnceLock<RefineCounters> = OnceLock::new();
    CTRS.get_or_init(|| RefineCounters {
        checks: frost_telemetry::counter("frost.refine.checks"),
        refines: frost_telemetry::counter("frost.refine.refines"),
        counterexamples: frost_telemetry::counter("frost.refine.counterexamples"),
        inconclusive: frost_telemetry::counter("frost.refine.inconclusive"),
        materialized: frost_telemetry::counter("frost.refine.compare.materialized"),
    })
}

/// Bumps the per-verdict counter and stamps the verdict on the span.
fn record_verdict(sp: &mut frost_telemetry::Span, result: &CheckResult) {
    let ctrs = refine_counters();
    let verdict = match result {
        CheckResult::Refines => {
            ctrs.refines.incr();
            "refines"
        }
        CheckResult::CounterExample(_) => {
            ctrs.counterexamples.incr();
            "counterexample"
        }
        CheckResult::Inconclusive(_) => {
            ctrs.inconclusive.incr();
            "inconclusive"
        }
    };
    sp.set("verdict", verdict);
}

/// Counts one check, runs it inside its `refine.check.run` span and
/// tallies its verdict.
fn metered(cached: bool, check: impl FnOnce() -> CheckResult) -> CheckResult {
    refine_counters().checks.incr();
    let mut sp = frost_telemetry::span("refine.check.run").field("cached", cached);
    let result = check();
    record_verdict(&mut sp, &result);
    result
}

/// Checks that `tgt_fn` (in `tgt_module`) refines `src_fn` (in
/// `src_module`) on every enumerable input. Each name means its first
/// definition, the one every engine runs under that name.
///
/// This is [`check_refinement_cached`]'s check with each side
/// enumerated afresh instead of probed, so it never touches an
/// [`OutcomeCache`] or its counters.
pub fn check_refinement(
    src_module: &Module,
    src_fn: &str,
    tgt_module: &Module,
    tgt_fn: &str,
    opts: &CheckOptions,
) -> CheckResult {
    metered(false, || {
        let (sf, tf) = (src_module.function(src_fn), tgt_module.function(tgt_fn));
        check_impl(src_module, sf, tgt_module, tf, opts, None)
    })
}

/// [`check_refinement`] of `tgt`, a function of `tgt_module`, against
/// `src`, a function of `src_module`, with no lookup by name. Each
/// side's calls resolve in its own module.
pub fn check_refinement_fn(
    src_module: &Module,
    src: &Function,
    tgt_module: &Module,
    tgt: &Function,
    opts: &CheckOptions,
) -> CheckResult {
    metered(false, || {
        check_impl(src_module, Some(src), tgt_module, Some(tgt), opts, None)
    })
}

/// [`check_refinement`], but with every outcome enumeration memoized in
/// `cache`. Campaign corpora are massively redundant (no-op transforms,
/// canonical forms shared by thousands of inputs), so a shared cache
/// eliminates most interpreter work; see
/// [`OutcomeCache`].
///
/// The verdict is *identical* to the uncached checker's on every pair —
/// including which input an inconclusive check blames — because both
/// run one check over the same batches; only where a batch comes from
/// differs.
pub fn check_refinement_cached(
    src_module: &Module,
    src_fn: &str,
    tgt_module: &Module,
    tgt_fn: &str,
    opts: &CheckOptions,
    cache: &OutcomeCache,
) -> CheckResult {
    check_refinement_cached_policy(
        src_module,
        src_fn,
        tgt_module,
        tgt_fn,
        opts,
        cache,
        CheckPolicy::default(),
    )
}

/// [`check_refinement_cached`] with an explicit [`CheckPolicy`]. The
/// verdict is identical under every policy — the policy only decides
/// what the cache *retains*, never what the check concludes.
// The seventh parameter is the point of this entry; folding it into
// CheckOptions would make cache policy part of every cache key.
pub fn check_refinement_cached_policy(
    src_module: &Module,
    src_fn: &str,
    tgt_module: &Module,
    tgt_fn: &str,
    opts: &CheckOptions,
    cache: &OutcomeCache,
    policy: CheckPolicy,
) -> CheckResult {
    metered(true, || {
        let (sf, tf) = (src_module.function(src_fn), tgt_module.function(tgt_fn));
        check_impl(src_module, sf, tgt_module, tf, opts, Some((cache, policy)))
    })
}

/// The one check body: each side is one [`Batch`] over every (memory,
/// tuple) pair — probed in `cache` when there is one, enumerated
/// directly otherwise — and the two batches are compared.
fn check_impl(
    src_module: &Module,
    sf: Option<&Function>,
    tgt_module: &Module,
    tf: Option<&Function>,
    opts: &CheckOptions,
    cache: Option<(&OutcomeCache, CheckPolicy)>,
) -> CheckResult {
    let (Some(sf), Some(tf)) = (sf, tf) else {
        return CheckResult::Inconclusive("function not found".to_string());
    };
    if !signatures_match(sf, tf) {
        return CheckResult::Inconclusive("signature mismatch".to_string());
    }
    let Some(shared) = enumerate_inputs_cached(sf, &opts.inputs) else {
        return CheckResult::Inconclusive("input space too large to enumerate".to_string());
    };
    let (tuples, block_sizes) = (&shared.0, shared.1.as_slice());
    let Some(mems) = memories(block_sizes, opts) else {
        return mem_space_too_large();
    };
    let src_key = FunctionKey::of(sf);
    let tgt_key = FunctionKey::of(tf);
    let salt = input_salt(&opts.inputs, block_sizes);
    let store_src = !cache.is_some_and(|(_, policy)| policy.transient_src);
    let batch = |key, module, func, mems, sem, store| match cache {
        Some((cache, _)) => cache.enumerate_keyed_mems(
            key,
            module,
            func,
            tuples,
            mems,
            sem,
            opts.limits,
            opts.engine,
            salt,
            store,
        ),
        None => Arc::new(enumerate_function_mems(
            module,
            func,
            tuples,
            mems,
            sem,
            opts.limits,
            opts.engine,
        )),
    };

    // Identity fast path: α-equivalent bodies under one semantics — the
    // no-op-transform case, which dominates campaign corpora. Refinement
    // is reflexive on every outcome set the engine produces
    // (`set_refines(s, s)` holds: poison justifies poison, undef
    // justifies undef, defined values justify themselves), so the
    // per-input comparison can only say "refines" — all that remains is
    // the verdict the general loop would give a failed enumeration,
    // blaming the source side first. A lane batch has no failures. One
    // enumeration serves both sides; it is stored under the source's
    // retention rule — an untouched pair *is* its own source, and a
    // sweep that stored every unchanged function would grow the cache
    // with the space after all. Equal keys mean equal behavior only
    // when neither side calls into its module.
    if opts.src_sem == opts.tgt_sem
        && src_key == tgt_key
        && is_self_contained(sf)
        && is_self_contained(tf)
    {
        let all = batch(
            &tgt_key,
            tgt_module,
            tf,
            mems.tgt(),
            opts.tgt_sem,
            store_src,
        );
        let Batch::Pairs { runs, index } = all.as_ref() else {
            return CheckResult::Refines;
        };
        let failed = index
            .iter()
            .enumerate()
            .find_map(|(j, &r)| Some((j, runs[r as usize].result.as_ref().err()?)));
        return match failed {
            Some((j, e)) => inconclusive(e, &tuples[j % tuples.len()], "source"),
            None => CheckResult::Refines,
        };
    }

    let src_all = batch(
        &src_key,
        src_module,
        sf,
        mems.src(),
        opts.src_sem,
        store_src,
    );
    let tgt_all = batch(&tgt_key, tgt_module, tf, mems.tgt(), opts.tgt_sem, true);
    compare(&src_all, &tgt_all, tuples, block_sizes, &mems, |mi| {
        opts.inputs
            .memory_values
            .then(|| render_blocks(&mems.src()[mi].snapshot(), block_sizes))
    })
    .unwrap_or(CheckResult::Refines)
}

/// Both sides' candidate initial memories for a check's block shape.
fn memories(block_sizes: &[u32], opts: &CheckOptions) -> Option<CheckMemories> {
    check_memories(
        block_sizes,
        &opts.inputs,
        uninit_fill(&opts.src_sem),
        uninit_fill(&opts.tgt_sem),
    )
}

fn mem_space_too_large() -> CheckResult {
    CheckResult::Inconclusive("initial-memory space too large to enumerate".to_string())
}

/// The verdict of two batches in the sequential checker's order —
/// memories outermost, tuples inner — or `None` if every pair refines.
/// Each batch is read back against its side of `mems`; `initial_mem(mi)`
/// describes memory `mi`, and runs only for the violation returned.
///
/// Two lane batches over the same tuples whose return widths agree are
/// compared in lane masks ([`lanes_unjustified`]) on memory 0 alone:
/// it is either the only memory, or one of a shared list in which
/// every memory refines itself. The lowest bad lane is the first
/// violating tuple, and only that lane is materialized. Any other pair
/// of batches is compared set by set, and counted under
/// `frost.refine.compare.materialized`.
///
/// When both sides read one list ([`CheckMemories::is_shared`]), a
/// pair's verdict depends only on its (source run, target run)
/// combination, which also fixes its tuple: on a byte either run
/// touched, every memory that run answers agrees with the memory it was
/// made on, and on any other byte both sides read back the pair's own
/// memory, which refines itself. So each combination is decided once,
/// at its first pair ([`first_pairs`]), which is where the per-pair loop
/// would first meet it; the first violation, and the input an
/// inconclusive verdict blames, stay the per-pair loop's.
fn compare(
    src: &Batch,
    tgt: &Batch,
    tuples: &[Vec<Val>],
    block_sizes: &[u32],
    mems: &CheckMemories,
    initial_mem: impl FnOnce(usize) -> Option<String>,
) -> Option<CheckResult> {
    let (src_mems, tgt_mems) = (mems.src(), mems.tgt());
    if let (Batch::Lanes(s), Batch::Lanes(t)) = (src, tgt) {
        // Width 0 is `void` or a returned poison constant: no value or
        // undef code, the only ones whose meaning depends on the width.
        let (sw, tw) = (s.ret_bits(), t.ret_bits());
        if s.lanes() == t.lanes() && (sw == tw || sw == 0 || tw == 0) {
            let (sm, tm) = (src_mems[0].snapshot(), tgt_mems[0].snapshot());
            let bad = lanes_unjustified(t, s, mem_refines(&tm, &sm));
            if bad == 0 {
                return None;
            }
            let l = bad.trailing_zeros() as usize;
            let (src, tgt) = (s.outcomes(l, &sm), t.outcomes(l, &tm));
            return Some(violation(&tuples[l], initial_mem(0), src, tgt, block_sizes));
        }
    }
    refine_counters().materialized.incr();
    let n = tuples.len();
    let pairs = src_mems.len() * n;
    let first = mems.is_shared().then(|| first_pairs(src, tgt, pairs));
    for pair in 0..pairs {
        let args = &tuples[pair % n];
        if first.as_ref().is_some_and(|first| !first[pair]) {
            continue;
        }
        let src_pair = src.pair(&src_mems, pair);
        let src = match src_pair.as_ref() {
            Ok(s) => s,
            Err(e) => return Some(inconclusive(e, args, "source")),
        };
        if src.may_ub() {
            continue; // source UB grants total freedom on this input
        }
        let tgt_pair = tgt.pair(&tgt_mems, pair);
        let tgt = match tgt_pair.as_ref() {
            Ok(s) => s,
            Err(e) => return Some(inconclusive(e, args, "target")),
        };
        if !set_refines(tgt, src) {
            let mem = initial_mem(pair / n);
            let (src, tgt) = (src.clone(), tgt.clone());
            return Some(violation(args, mem, src, tgt, block_sizes));
        }
    }
    None
}

/// Whether each pair is the first, in pair order, of its (source run,
/// target run) combination: walking each source run's pairs in order,
/// a target run not yet stamped with that source run is met first. The
/// scratch is a word per pair and per run.
fn first_pairs(src: &Batch, tgt: &Batch, pairs: usize) -> Vec<bool> {
    const END: usize = usize::MAX;
    let mut head = vec![END; src.run_count()];
    let mut next = vec![END; pairs];
    for pair in (0..pairs).rev() {
        let s = src.run_index(pair);
        next[pair] = head[s];
        head[s] = pair;
    }
    let mut stamp = vec![END; tgt.run_count()];
    let mut first = vec![false; pairs];
    for (s, &head) in head.iter().enumerate() {
        let mut pair = head;
        while pair != END {
            let t = tgt.run_index(pair);
            first[pair] = stamp[t] != s;
            stamp[t] = s;
            pair = next[pair];
        }
    }
    first
}

/// Fingerprint of everything that shapes enumeration besides the
/// (function, semantics, limits) cache key: the input options and the
/// initial-block shape. Those and the semantics' uninitialized fill
/// determine the memory list, so it needs no part of its own.
fn input_salt(opts: &InputOptions, block_sizes: &[u32]) -> u64 {
    let mut h = DefaultHasher::new();
    opts.hash(&mut h);
    block_sizes.hash(&mut h);
    h.finish()
}

fn violation(
    args: &[Val],
    initial_mem: Option<String>,
    src: OutcomeSet,
    tgt: OutcomeSet,
    block_sizes: &[u32],
) -> CheckResult {
    let witness = unjustified(&tgt, &src)
        .first()
        .map(|o| (*o).clone())
        .expect("non-refining set has an unjustified outcome");
    let final_mems = final_mems(&src, &witness, block_sizes);
    CheckResult::CounterExample(Box::new(CounterExample {
        args: args.to_vec(),
        initial_mem,
        src_outcomes: src,
        tgt_outcomes: tgt,
        witness,
        final_mems,
    }))
}

/// [`CounterExample::final_mems`]: both sides' final memories, when a
/// returning source behavior's differs from the returning witness's.
fn final_mems(
    src: &OutcomeSet,
    witness: &Outcome,
    block_sizes: &[u32],
) -> Option<(String, String)> {
    let Outcome::Ret { mem: tgt_mem, .. } = witness else {
        return None;
    };
    let mut src_mems: Vec<&[Bit]> = src
        .iter()
        .filter_map(|o| match o {
            Outcome::Ret { mem, .. } => Some(mem.as_slice()),
            Outcome::Ub => None,
        })
        .collect();
    if src_mems.iter().all(|m| *m == tgt_mem.as_slice()) {
        return None;
    }
    src_mems.sort_unstable();
    src_mems.dedup();
    let src_text: Vec<String> = src_mems
        .iter()
        .map(|m| render_blocks(m, block_sizes))
        .collect();
    Some((src_text.join(" | "), render_blocks(tgt_mem, block_sizes)))
}

fn inconclusive(e: &impl fmt::Display, args: &[Val], which: &str) -> CheckResult {
    let args: Vec<String> = args.iter().map(Val::to_string).collect();
    CheckResult::Inconclusive(format!(
        "{which} evaluation failed on ({}): {e}",
        args.join(", ")
    ))
}

/// Checks that applying `transform` to the single function named
/// `fname` of `module` produces a refinement under `sem`. Returns the
/// transformed module with the verdict.
pub fn check_transform(
    module: &Module,
    fname: &str,
    sem: Semantics,
    transform: impl FnOnce(&mut Module),
) -> (Module, CheckResult) {
    let mut after = module.clone();
    transform(&mut after);
    let result = check_refinement(module, fname, &after, fname, &CheckOptions::new(sem));
    (after, result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use frost_ir::parse_module;

    fn check_src_tgt(src: &str, tgt: &str, sem: Semantics) -> CheckResult {
        let sm = parse_module(src).expect("source parses");
        let tm = parse_module(tgt).expect("target parses");
        check_refinement(&sm, "f", &tm, "f", &CheckOptions::new(sem))
    }

    #[test]
    fn identity_refines() {
        let src = "define i2 @f(i2 %x) {\nentry:\n  %a = add i2 %x, 1\n  ret i2 %a\n}";
        check_src_tgt(src, src, Semantics::proposed()).assert_refines();
    }

    #[test]
    fn constant_folding_refines() {
        let src = "define i2 @f(i2 %x) {\nentry:\n  %a = add i2 1, 1\n  ret i2 %a\n}";
        let tgt = "define i2 @f(i2 %x) {\nentry:\n  ret i2 2\n}";
        check_src_tgt(src, tgt, Semantics::proposed()).assert_refines();
    }

    #[test]
    fn the_paper_section2_3_example_needs_nsw() {
        // a + b > a  ==>  b > 0 requires nsw (§2.3).
        let src_nsw = "define i1 @f(i4 %a, i4 %b) {\nentry:\n  %add = add nsw i4 %a, %b\n  %cmp = icmp sgt i4 %add, %a\n  ret i1 %cmp\n}";
        let src_wrap = "define i1 @f(i4 %a, i4 %b) {\nentry:\n  %add = add i4 %a, %b\n  %cmp = icmp sgt i4 %add, %a\n  ret i1 %cmp\n}";
        let tgt =
            "define i1 @f(i4 %a, i4 %b) {\nentry:\n  %cmp = icmp sgt i4 %b, 0\n  ret i1 %cmp\n}";
        check_src_tgt(src_nsw, tgt, Semantics::proposed()).assert_refines();
        let r = check_src_tgt(src_wrap, tgt, Semantics::proposed());
        assert!(
            r.counterexample().is_some(),
            "without nsw the transform is wrong"
        );
    }

    #[test]
    fn undef_makes_x_plus_x_not_equal_2x() {
        // §3.1: mul %x, 2 -> add %x, %x is invalid under legacy undef...
        let src = "define i2 @f() {\nentry:\n  %y = mul i2 undef, 2\n  ret i2 %y\n}";
        let tgt = "define i2 @f() {\nentry:\n  %y = add i2 undef, undef\n  ret i2 %y\n}";
        let r = check_src_tgt(src, tgt, Semantics::legacy_gvn());
        let ce = r.counterexample().expect("counterexample expected");
        // The target can produce an odd value; the source cannot.
        assert!(ce.witness.ret_val().is_some());
        // ...and the reverse direction (add -> mul) is a refinement.
        let r = check_src_tgt(tgt, src, Semantics::legacy_gvn());
        r.assert_refines();
    }

    #[test]
    fn freeze_can_be_added_but_not_removed() {
        let plain = "define i2 @f(i2 %x) {\nentry:\n  ret i2 %x\n}";
        let frozen = "define i2 @f(i2 %x) {\nentry:\n  %y = freeze i2 %x\n  ret i2 %y\n}";
        check_src_tgt(plain, frozen, Semantics::proposed()).assert_refines();
        let r = check_src_tgt(frozen, plain, Semantics::proposed());
        assert!(
            r.counterexample().is_some(),
            "removing freeze reintroduces poison: not a refinement"
        );
    }

    #[test]
    fn source_ub_grants_freedom() {
        let src = "define i2 @f(i2 %x) {\nentry:\n  %a = udiv i2 1, 0\n  ret i2 %a\n}";
        let tgt = "define i2 @f(i2 %x) {\nentry:\n  ret i2 3\n}";
        check_src_tgt(src, tgt, Semantics::proposed()).assert_refines();
    }

    #[test]
    fn introducing_ub_is_caught() {
        let src = "define i2 @f(i2 %x) {\nentry:\n  ret i2 %x\n}";
        let tgt = "define i2 @f(i2 %x) {\nentry:\n  %a = udiv i2 1, %x\n  ret i2 %x\n}";
        let r = check_src_tgt(src, tgt, Semantics::proposed());
        let ce = r
            .counterexample()
            .expect("x = 0 triggers UB only in target");
        assert!(ce.tgt_outcomes.may_ub());
    }

    #[test]
    fn check_transform_wrapper_works() {
        let m = parse_module("define i2 @f(i2 %x) {\nentry:\n  %a = add i2 %x, 0\n  ret i2 %a\n}")
            .unwrap();
        let (after, result) = check_transform(&m, "f", Semantics::proposed(), |m| {
            // Fold add x, 0 -> x by rewriting the return.
            let f = m.function_mut("f").unwrap();
            f.block_mut(frost_ir::BlockId::ENTRY).term =
                frost_ir::Terminator::Ret(Some(frost_ir::Value::Arg(0)));
            f.block_mut(frost_ir::BlockId::ENTRY).insts.clear();
        });
        result.assert_refines();
        assert_eq!(after.function("f").unwrap().placed_inst_count(), 0);
    }

    #[test]
    fn cached_checker_matches_uncached_verdicts() {
        use frost_core::OutcomeCache;
        let pairs = [
            // refinement
            (
                "define i2 @f(i2 %x) {\nentry:\n  %a = add i2 %x, 0\n  ret i2 %a\n}",
                "define i2 @f(i2 %x) {\nentry:\n  ret i2 %x\n}",
            ),
            // violation (freeze removal)
            (
                "define i2 @f(i2 %x) {\nentry:\n  %y = freeze i2 %x\n  ret i2 %y\n}",
                "define i2 @f(i2 %x) {\nentry:\n  ret i2 %x\n}",
            ),
            // identity (exercises the fingerprint hit across pairs)
            (
                "define i2 @f(i2 %x) {\nentry:\n  ret i2 %x\n}",
                "define i2 @f(i2 %x) {\nentry:\n  ret i2 %x\n}",
            ),
        ];
        let cache = OutcomeCache::new();
        let opts = CheckOptions::new(Semantics::proposed());
        for (src, tgt) in pairs {
            let sm = parse_module(src).unwrap();
            let tm = parse_module(tgt).unwrap();
            let fresh = check_refinement(&sm, "f", &tm, "f", &opts);
            let cached = check_refinement_cached(&sm, "f", &tm, "f", &opts, &cache);
            assert_eq!(fresh.is_refinement(), cached.is_refinement());
            match (fresh.counterexample(), cached.counterexample()) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.args, b.args);
                    assert_eq!(a.witness, b.witness);
                }
                _ => panic!("cached and uncached disagree"),
            }
        }
        // `ret i2 %x` appears as source and target: the cache must hit.
        assert!(cache.hits() > 0);
    }

    #[test]
    fn cached_checker_sees_a_changed_callee() {
        // Same body for @f on both sides; only the callee differs. The
        // entry's fingerprint is identical, so neither the identity fast
        // path nor a cache hit may decide this pair.
        let a = parse_module(
            "define i2 @g() {\nentry:\n  ret i2 1\n}\n\
             define i2 @f() {\nentry:\n  %r = call i2 @g()\n  ret i2 %r\n}",
        )
        .unwrap();
        let b = parse_module(
            "define i2 @g() {\nentry:\n  ret i2 2\n}\n\
             define i2 @f() {\nentry:\n  %r = call i2 @g()\n  ret i2 %r\n}",
        )
        .unwrap();
        let opts = CheckOptions::new(Semantics::proposed());
        let fresh = check_refinement(&a, "f", &b, "f", &opts);
        assert!(fresh.counterexample().is_some(), "@g changed 1 -> 2");
        let cache = OutcomeCache::new();
        let cached = check_refinement_cached(&a, "f", &b, "f", &opts, &cache);
        assert!(cached.counterexample().is_some(), "got {cached:?}");
        // A warm cache must not answer for the other module either.
        check_refinement_cached(&a, "f", &a, "f", &opts, &cache).assert_refines();
        let cached = check_refinement_cached(&a, "f", &b, "f", &opts, &cache);
        assert!(cached.counterexample().is_some(), "got {cached:?}");
        assert!(
            cache.is_empty(),
            "callers of other functions are not stored"
        );
    }

    #[test]
    fn one_probe_per_side_covers_every_memory() {
        // One pointer, 4 bytes, contents enumerated: 4^4 = 256 memories,
        // all behind a single probe and a single entry per side.
        let src = "define i8 @f(i8* %p) {\nentry:\n  %v = load i8, i8* %p\n  ret i8 %v\n}";
        let tgt = "define i8 @f(i8* %p) {\nentry:\n  %v = load i8, i8* %p\n  \
                   %w = freeze i8 %v\n  ret i8 %w\n}";
        let (sm, tm) = (parse_module(src).unwrap(), parse_module(tgt).unwrap());
        let inputs = InputOptions::new().with_memory_values(true);
        let opts = CheckOptions::new(Semantics::proposed()).with_inputs(inputs);
        let cache = OutcomeCache::new();
        check_refinement_cached(&sm, "f", &tm, "f", &opts, &cache).assert_refines();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.hits() + cache.misses(), 2);
    }

    /// A store on one branch only must count among the bytes a run
    /// touches. On memory 0 the store rewrites the byte already there,
    /// so that run has one outcome; were only loads recorded, it would
    /// answer every memory, and removing the store would refine.
    #[test]
    fn a_store_on_one_branch_is_touched_for_every_memory() {
        use crate::inputs::{enumerate_inputs, enumerate_memories};
        use frost_core::{enumerate_function_mems, Limits, Memories, MemoryList};
        let f = "define void @f(i8* %p) {\nentry:\n  %c = freeze i1 poison\n  \
                 br i1 %c, label %s, label %done\ns:\n  store i8 0, i8* %p\n  \
                 br label %done\ndone:\n  ret void\n}";
        let sm = parse_module("define void @f(i8* %p) {\nentry:\n  ret void\n}").unwrap();
        let tm = parse_module(f).unwrap();
        let sem = Semantics::proposed();
        // A poison pointer makes the store UB on every memory; leave it
        // out so the verdict hinges on the initial memory.
        let inputs = InputOptions::new()
            .with_poison(false)
            .with_memory_values(true);
        let (tuples, blocks) = enumerate_inputs(tm.function("f").unwrap(), &inputs).unwrap();
        let mems =
            MemoryList::new(enumerate_memories(&blocks, &inputs, uninit_fill(&sem)).unwrap());
        let run = |engine| {
            let all = enumerate_function_mems(
                &tm,
                &tm.functions[0],
                &tuples,
                Memories::List(&mems),
                sem,
                Limits::default(),
                engine,
            );
            all.pairs(&mems)
        };
        let reference = run(Engine::Reference);
        // Memory-major, byte 0 varying fastest over {0x00, 0x01, 0xFF,
        // poison}: memory 0 is all 0x00.
        for (mi, pair) in reference.iter().enumerate() {
            let want = if mi % 4 == 0 { 1 } else { 2 };
            assert_eq!(pair.as_ref().unwrap().len(), want, "memory {mi}");
        }
        for engine in [Engine::Plan, Engine::Auto] {
            assert_eq!(run(engine), reference, "{engine:?}");
        }
        let opts = CheckOptions::new(sem).with_inputs(inputs);
        let cache = OutcomeCache::new();
        let cached = check_refinement_cached(&sm, "f", &tm, "f", &opts, &cache);
        let oracle = check_refinement(&sm, "f", &tm, "f", &opts.engine(Engine::Reference));
        let ce = oracle
            .counterexample()
            .expect("the store can change byte 0");
        assert_eq!(
            ce.initial_mem.as_deref(),
            Some("b0 = [0x01 0x00 0x00 0x00]")
        );
        assert_eq!(format!("{cached:?}"), format!("{oracle:?}"));
    }

    /// A target that reads a byte the source does not splits each source
    /// run's memories across several target runs, and every such (source
    /// run, target run) combination must be decided: only those where
    /// byte 1 is 0x01 or poison are violations.
    #[test]
    fn every_combination_of_a_source_run_is_decided() {
        let src = "define i8 @f(i8* %p) {\nentry:\n  %v = load i8, i8* %p\n  ret i8 %v\n}";
        let tgt = "define i8 @f(i8* %p) {\nentry:\n  %v = load i8, i8* %p\n  \
                   %g = getelementptr inbounds i8, i8* %p, i32 1\n  %w = load i8, i8* %g\n  \
                   %c = icmp eq i8 %w, 1\n  %r = select i1 %c, i8 7, i8 %v\n  ret i8 %r\n}";
        let (sm, tm) = (parse_module(src).unwrap(), parse_module(tgt).unwrap());
        let inputs = InputOptions::new().with_memory_values(true);
        let opts = CheckOptions::new(Semantics::proposed()).with_inputs(inputs);
        let cached = check_refinement_cached(&sm, "f", &tm, "f", &opts, &OutcomeCache::new());
        let oracle = check_refinement(&sm, "f", &tm, "f", &opts.engine(Engine::Reference));
        let ce = oracle.counterexample().expect("byte 1 = 0x01 returns 7");
        assert_eq!(
            ce.initial_mem.as_deref(),
            Some("b0 = [0x00 0x01 0x00 0x00]")
        );
        assert_eq!(format!("{cached:?}"), format!("{oracle:?}"));
    }

    #[test]
    fn between_separates_source_and_target_semantics() {
        let opts = CheckOptions::between(Semantics::legacy_gvn(), Semantics::proposed());
        assert!(opts.src_sem.has_undef);
        assert!(!opts.tgt_sem.has_undef);
        assert!(opts.inputs.include_undef, "undef inputs follow the source");
    }

    #[test]
    fn every_engine_checks_the_first_of_two_definitions() {
        // `parse_module` admits a name defined twice; only the verifier
        // rejects it, and these entry points do not verify. Each pair
        // below refines when every name means its first definition and
        // is UNSOUND when @f or the callee @h means its nsw second.
        let m = parse_module(
            "define i2 @f(i2 %x) {\nentry:\n  %a = add i2 %x, 1\n  %b = or i2 %a, 0\n  ret i2 %b\n}\n\
             define i2 @f(i2 %x) {\nentry:\n  %a = add nsw i2 %x, 1\n  ret i2 %a\n}\n\
             define i2 @h(i2 %x) {\nentry:\n  %a = add i2 %x, 1\n  ret i2 %a\n}\n\
             define i2 @h(i2 %x) {\nentry:\n  %a = add nsw i2 %x, 1\n  ret i2 %a\n}\n\
             define i2 @c(i2 %x) {\nentry:\n  %r = call i2 @h(i2 %x)\n  ret i2 %r\n}\n\
             define i2 @g(i2 %x) {\nentry:\n  %a = add i2 %x, 1\n  ret i2 %a\n}",
        )
        .unwrap();
        let verdict = |tgt, engine| {
            let opts = CheckOptions::new(Semantics::proposed()).engine(engine);
            match check_refinement(&m, "g", &m, tgt, &opts) {
                CheckResult::Refines => "sound".to_string(),
                CheckResult::CounterExample(ce) => format!("UNSOUND — {ce}"),
                CheckResult::Inconclusive(why) => format!("inconclusive: {why}"),
            }
        };
        for tgt in ["f", "c"] {
            for engine in [Engine::Reference, Engine::Plan, Engine::Auto] {
                assert_eq!(
                    verdict(tgt, engine),
                    "sound",
                    "@g -> @{tgt} under {engine:?}"
                );
            }
        }
    }

    #[test]
    fn signature_mismatch_is_inconclusive() {
        let a = parse_module("define i2 @f(i2 %x) {\nentry:\n  ret i2 %x\n}").unwrap();
        let b = parse_module("define i4 @f(i4 %x) {\nentry:\n  ret i4 %x\n}").unwrap();
        let r = check_refinement(&a, "f", &b, "f", &CheckOptions::default());
        assert!(matches!(r, CheckResult::Inconclusive(_)));
    }

    #[test]
    fn pointer_functions_check_memory_effects() {
        // Storing a different value is caught via the memory snapshot.
        let src = "define void @f(i8* %p) {\nentry:\n  store i8 1, i8* %p\n  ret void\n}";
        let tgt = "define void @f(i8* %p) {\nentry:\n  store i8 2, i8* %p\n  ret void\n}";
        let r = check_src_tgt(src, tgt, Semantics::proposed());
        assert!(r.counterexample().is_some());
        // Dead-store-then-overwrite is a refinement.
        let src2 = "define void @f(i8* %p) {\nentry:\n  store i8 9, i8* %p\n  store i8 1, i8* %p\n  ret void\n}";
        let tgt2 = "define void @f(i8* %p) {\nentry:\n  store i8 1, i8* %p\n  ret void\n}";
        check_src_tgt(src2, tgt2, Semantics::proposed()).assert_refines();
    }
}
