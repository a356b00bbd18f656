//! Sharded, pull-based parallel validation campaigns.
//!
//! The §6 methodology — generate millions of tiny functions, optimize
//! each, check refinement — is embarrassingly parallel: every function
//! is validated independently. [`Campaign`] is the engine that
//! exploits this. A campaign splits the corpus into *chunks* (shards)
//! of consecutive function positions; every worker, the calling thread
//! included, pulls the next chunk under one short lock and builds,
//! transforms, checks and drops its functions itself, so fast workers
//! take work that slow workers never reach. A chunk is a range of
//! indices, or for an exhaustive sweep a walk cursor plus a count.
//! Every entry point runs this one chunk loop. All workers share one
//! [`OutcomeCache`], so each distinct (canonical function, semantics)
//! pair is enumerated once per campaign, no matter which worker sees it
//! first, and one verdict tally, which feeds both [`Progress`] and the
//! final report.
//!
//! ## Determinism
//!
//! A campaign's verdicts are a pure function of (corpus, seed, check
//! options): the same campaign produces the *same*
//! [`ValidationReport`] — byte-identical violations in the same order —
//! at any worker count. Two mechanisms guarantee this:
//!
//! * random corpora derive each function's RNG from its global index
//!   ([`random_functions_range`]),
//!   so which worker generates function *i* is irrelevant;
//! * every [`Violation`] carries its global index, and the final tally
//!   sorts by it, erasing shard-completion order.
//!
//! Only the wall-clock numbers in [`CampaignStats`] (and anything cut
//! off by a [`deadline`](Campaign::with_deadline)) vary between runs.

use std::ops::Range;
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use frost_core::{OutcomeCache, Semantics};
use frost_ir::{function_to_string, Function, Module};
use frost_refine::{check_refinement_cached_policy, CheckOptions, CheckPolicy, CheckResult};
use frost_telemetry::{Counter, Histogram};

use crate::checkpoint::CampaignCheckpoint;
use crate::gen::{random_functions_range, ExhaustiveFunctions, GenConfig};
use crate::validate::{ValidationReport, Violation};

/// The engine's process-wide telemetry (see docs/OBSERVABILITY.md):
/// always-on verdict counters under `frost.fuzz.campaign.*`, the
/// shard-claim latency histogram, and the skip-reason tallies. Handles
/// are resolved once per process.
struct CampaignCounters {
    runs: &'static Counter,
    checked: &'static Counter,
    changed: &'static Counter,
    refined: &'static Counter,
    violations: &'static Counter,
    inconclusive: &'static Counter,
    shards: &'static Counter,
    skip_deadline_fns: &'static Counter,
    skip_budget: &'static Counter,
    skip_stride: &'static Counter,
    resumes: &'static Counter,
    claim_ns: &'static Histogram,
}

fn campaign_counters() -> &'static CampaignCounters {
    static COUNTERS: OnceLock<CampaignCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| CampaignCounters {
        runs: frost_telemetry::counter("frost.fuzz.campaign.runs"),
        checked: frost_telemetry::counter("frost.fuzz.campaign.checked"),
        changed: frost_telemetry::counter("frost.fuzz.campaign.changed"),
        refined: frost_telemetry::counter("frost.fuzz.campaign.refined"),
        violations: frost_telemetry::counter("frost.fuzz.campaign.violations"),
        inconclusive: frost_telemetry::counter("frost.fuzz.campaign.inconclusive"),
        shards: frost_telemetry::counter("frost.fuzz.campaign.shards"),
        skip_deadline_fns: frost_telemetry::counter("frost.fuzz.campaign.skip.deadline_fns"),
        skip_budget: frost_telemetry::counter("frost.fuzz.campaign.skip.budget"),
        skip_stride: frost_telemetry::counter("frost.fuzz.campaign.skip.stride"),
        resumes: frost_telemetry::counter("frost.fuzz.campaign.resumes"),
        claim_ns: frost_telemetry::histogram("frost.fuzz.campaign.claim_ns"),
    })
}

/// Wall-clock statistics of a finished campaign, folded into its
/// [`ValidationReport`]. Unlike the verdict counters these are *not*
/// deterministic — they describe one particular run.
#[derive(Clone, Debug, Default)]
pub struct CampaignStats {
    /// Workers that ran, the calling thread included: never more than
    /// [`CampaignStats::chunks`], and 0 only when no chunk was pulled.
    pub workers: usize,
    /// Chunks pulled this call.
    pub chunks: usize,
    /// Wall-clock duration of the campaign.
    pub wall: Duration,
    /// Functions validated per second of wall-clock time.
    pub functions_per_sec: f64,
    /// Outcome-cache lookups answered from the table.
    pub cache_hits: u64,
    /// Outcome-cache lookups that had to enumerate.
    pub cache_misses: u64,
    /// Distinct (function, semantics) entries the cache ended with.
    pub cache_entries: usize,
    /// `true` if the corpus was truncated by [`Campaign::with_budget`].
    pub budget_hit: bool,
    /// `true` if the [`Campaign::with_deadline`] expired before the
    /// corpus was exhausted.
    pub deadline_hit: bool,
    /// Functions left unchecked when the deadline expired.
    pub skipped: usize,
}

impl CampaignStats {
    /// `hits / (hits + misses)`, or 0 when the cache was off or unused.
    pub fn cache_hit_rate(&self) -> f64 {
        hit_rate(self.cache_hits, self.cache_misses)
    }
}

/// The boxed callback installed by [`Campaign::with_observer`].
pub type ProgressObserver = Box<dyn Fn(&Progress) + Send + Sync>;

/// A live snapshot of a running campaign, handed to the observer
/// installed with [`Campaign::with_observer`] after each completed
/// shard. `checked` and the verdict counts cover the current call
/// only: a resumed [`Campaign::run_exhaustive`] starts them at zero.
#[derive(Clone, Copy, Debug)]
pub struct Progress {
    /// Functions validated so far.
    pub checked: usize,
    /// Total functions the campaign will validate.
    pub total: usize,
    /// Functions the transform changed, so far.
    pub changed: usize,
    /// Refinements verified, so far.
    pub refined: usize,
    /// Violations found, so far.
    pub violations: usize,
    /// Inconclusive checks, so far.
    pub inconclusive: usize,
    /// Wall-clock time since the campaign started.
    pub elapsed: Duration,
    /// Throughput so far, in functions per second.
    pub functions_per_sec: f64,
    /// Outcome-cache hit rate so far.
    pub cache_hit_rate: f64,
}

/// A configured validation campaign: the parallel, cached successor of
/// the sequential `validate_transform` loop.
///
/// ```
/// use frost_core::Semantics;
/// use frost_fuzz::{Campaign, GenConfig};
/// use frost_opt::{o2_pipeline, PipelineMode};
///
/// let pm = o2_pipeline(PipelineMode::Fixed);
/// let report = Campaign::new(Semantics::proposed())
///     .with_workers(2)
///     .run_random(&GenConfig::arithmetic(2), 42, 40, |m| {
///         pm.run(m);
///     });
/// assert!(report.is_clean(), "{report}");
/// assert_eq!(report.total, 40);
/// ```
pub struct Campaign {
    opts: CheckOptions,
    workers: usize,
    shard_size: usize,
    budget: Option<usize>,
    deadline: Option<Duration>,
    observer: Option<ProgressObserver>,
    /// `(shard_id, shards)` — the residue class of the exhaustive walk
    /// this process owns. `(0, 1)` means the whole space.
    process_shard: (usize, usize),
}

impl Campaign {
    /// A campaign checking source and target under `sem`, with
    /// auto-detected worker count, shards of 64 functions, no budget
    /// and no deadline.
    pub fn new(sem: Semantics) -> Campaign {
        Campaign::with_options(CheckOptions::new(sem))
    }

    /// A campaign with fully explicit check options (differing
    /// source/target semantics, custom limits or input enumeration).
    pub fn with_options(opts: CheckOptions) -> Campaign {
        Campaign {
            opts,
            workers: 0,
            shard_size: 64,
            budget: None,
            deadline: None,
            observer: None,
            process_shard: (0, 1),
        }
    }

    /// Returns this campaign with a fixed worker-thread count. `0`
    /// (the default) auto-detects [`std::thread::available_parallelism`];
    /// `1` runs entirely on the calling thread.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Campaign {
        self.workers = workers;
        self
    }

    /// Returns this campaign with the given shard granularity: the
    /// most functions a chunk holds. Chunks are sized from the work,
    /// about 32 per worker and at least 256 functions, within this cap.
    /// The default is 64.
    #[must_use]
    pub fn with_shard_size(mut self, shard_size: usize) -> Campaign {
        self.shard_size = shard_size.max(1);
        self
    }

    /// Returns this campaign with an upper bound on functions checked.
    /// The corpus is truncated *before* sharding, so a budget never
    /// affects which verdicts the surviving prefix produces.
    #[must_use]
    pub fn with_budget(mut self, budget: usize) -> Campaign {
        self.budget = Some(budget);
        self
    }

    /// Returns this campaign with a wall-clock deadline, checked each
    /// time a worker pulls a chunk: once it expires no new chunk is
    /// handed out (those already pulled are still checked), and
    /// [`CampaignStats::skipped`] counts what was left. Deadlines
    /// trade determinism for predictable latency — cut-off campaigns
    /// may differ between runs.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Campaign {
        self.deadline = Some(deadline);
        self
    }

    /// Returns this campaign unchanged: campaigns keep no structural
    /// dedup set, because the exhaustive odometer never revisits a
    /// structure and residue-class shards never overlap. Kept for
    /// callers that still pass a setting.
    #[must_use]
    pub fn with_dedup(self, _dedup: bool) -> Campaign {
        self
    }

    /// Returns this campaign restricted to one residue class of a
    /// `K`-process exhaustive sweep: [`Campaign::run_exhaustive`]
    /// checks only the functions whose corpus position satisfies
    /// `position % shards == shard_id`, fast-forwarding the generator
    /// through foreign residues (cheap index arithmetic, no function
    /// building). `K` cooperating processes, one per shard id,
    /// partition the space exactly; their checkpoints combine with
    /// [`CampaignCheckpoint::merge`]. Each shard resumes
    /// independently, and over a duplicate-free space budgets compose:
    /// `K` shards × budget `N` check the same functions as one
    /// unsharded budget-`K·N` prefix.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or `shard_id` is out of range.
    #[must_use]
    pub fn with_process_shard(mut self, shard_id: usize, shards: usize) -> Campaign {
        assert!(
            shards >= 1 && shard_id < shards,
            "shard {shard_id}/{shards} out of range"
        );
        self.process_shard = (shard_id, shards);
        self
    }

    /// Returns this campaign with a live-progress observer, invoked
    /// after each shard by the thread that checked it (so the callback
    /// must be `Sync`). Calls are serialized on the campaign's tally,
    /// so snapshots arrive in order and the last one carries the whole
    /// call's tallies.
    #[must_use]
    pub fn with_observer(
        mut self,
        observer: impl Fn(&Progress) + Send + Sync + 'static,
    ) -> Campaign {
        self.observer = Some(Box::new(observer));
        self
    }

    /// Validates `transform` over a materialized corpus (applies the
    /// budget while collecting it).
    pub fn run(
        &self,
        functions: impl IntoIterator<Item = Function>,
        transform: impl Fn(&mut Module) + Sync,
    ) -> ValidationReport {
        let mut corpus: Vec<Function> = Vec::new();
        let mut budget_hit = false;
        for f in functions {
            if self.budget == Some(corpus.len()) {
                budget_hit = true;
                break;
            }
            corpus.push(f);
        }
        self.run_indexed(corpus.len(), budget_hit, &|i| corpus[i].clone(), &transform)
    }

    /// Validates `transform` over `count` randomly generated functions
    /// without materializing the corpus: each worker generates exactly
    /// the functions of the shards it claims, from the per-index RNG
    /// stream. The verdicts equal `self.run(random_functions(cfg, seed,
    /// count), ..)` at any worker count.
    pub fn run_random(
        &self,
        cfg: &GenConfig,
        seed: u64,
        count: usize,
        transform: impl Fn(&mut Module) + Sync,
    ) -> ValidationReport {
        let checked = self.budget.map_or(count, |b| b.min(count));
        let budget_hit = checked < count;
        self.run_indexed(
            checked,
            budget_hit,
            &|i| {
                random_functions_range(cfg, seed, i, 1)
                    .pop()
                    .expect("count is 1")
            },
            &transform,
        )
    }

    /// Validates `transform` over the *entire* exhaustive function
    /// space of `cfg` — the paper's full sweep, not a sample — with a
    /// resumable checkpoint.
    ///
    /// One shared walk decides every chunk, in walk order, under the
    /// pull lock: it records its cursor, then fast-forwards over the
    /// chunk's positions (aligning to this process's residue class
    /// under [`Campaign::with_process_shard`]) without building a
    /// function. The worker that pulled the chunk re-seats its own walk
    /// at that cursor and builds exactly those functions, so the set of
    /// functions checked — and therefore every verdict — is identical
    /// at any worker count, and no function crosses threads.
    ///
    /// `resume` continues a previous sweep: the generator restarts at
    /// the checkpoint's cursor (so `fz{n}` names stay globally stable)
    /// and the returned report is **cumulative** — an
    /// interrupted-and-resumed sweep ends with byte-identical
    /// violations and tallies to an uninterrupted one.
    /// [`Campaign::with_budget`] bounds the functions checked *this
    /// call* (the natural sharding unit for cross-process sweeps);
    /// [`Campaign::with_deadline`] stops pulling new chunks when it
    /// expires. Either way the returned [`CampaignCheckpoint`] points
    /// at the exact next unchecked function.
    ///
    /// Only [`ValidationReport::stats`] and the [`Progress`] snapshots
    /// describe this call alone (wall-clock, throughput, cache behavior
    /// of this process).
    ///
    /// # Panics
    ///
    /// Panics if `resume` belongs to another sweep: it was recorded
    /// with a different `cfg` or under a different
    /// [`Campaign::with_process_shard`] identity, or its cursor does not
    /// fit this space. [`CampaignCheckpoint::resume`] reports the same
    /// mismatches as an error, for callers that check first.
    pub fn run_exhaustive(
        &self,
        cfg: &GenConfig,
        resume: Option<&CampaignCheckpoint>,
        transform: impl Fn(&mut Module) + Sync,
    ) -> (ValidationReport, CampaignCheckpoint) {
        let ctrs = campaign_counters();
        if resume.is_some() {
            ctrs.resumes.incr();
        }
        let (shard_id, shards) = self.process_shard;
        let (mut generator, mut cp) = match resume {
            Some(cp) => (
                cp.resume(cfg, self.process_shard)
                    .unwrap_or_else(|e| panic!("cannot resume: {e}")),
                cp.clone(),
            ),
            None => (
                ExhaustiveFunctions::new(cfg.clone()),
                CampaignCheckpoint {
                    config: format!("{cfg:?}"),
                    shards,
                    shard_id,
                    ..CampaignCheckpoint::default()
                },
            ),
        };
        let est_total =
            (generator.approx_size() / shards.max(1) as u128).min(usize::MAX as u128) as usize;
        let mut run_span = frost_telemetry::span("fuzz.campaign.exhaustive")
            .field("resumed", resume.is_some())
            .field("chunk_cap", self.shard_size)
            .field("shards", shards)
            .field("shard_id", shard_id);

        // The shared walk, stride alignment included, is the
        // determinism anchor: it alone decides which positions a chunk
        // checks, and it alone counts the stride skips.
        let stride = shards as u64;
        let chunk_len = self.chunk_len(self.budget.unwrap_or(est_total));
        // Each worker's walk starts as a copy of the shared one, with the
        // option lists it has built.
        let template = generator.clone();
        let mut pulled = 0usize;
        let mut budget_hit = false;
        let chunks = std::iter::from_fn(|| {
            let left = self.budget.map_or(usize::MAX, |b| b.saturating_sub(pulled));
            if left == 0 {
                budget_hit = true;
                return None;
            }
            let (mut first, mut count) = (None, 0);
            while count < chunk_len.min(left) {
                if shards > 1 {
                    // Self-align to this process's residue class:
                    // jump over positions owned by other shards.
                    let at = generator.position();
                    let ahead = (shard_id as u64 + stride - at % stride) % stride;
                    if ahead > 0 {
                        // The walk may end short of `ahead`, or be over.
                        generator.fast_forward(ahead);
                        ctrs.skip_stride.add(generator.position() - at);
                    }
                }
                if generator.is_done() {
                    break;
                }
                first.get_or_insert_with(|| generator.cursor());
                generator.fast_forward(1);
                count += 1;
            }
            pulled += count;
            let (indices, counter, _) = first?;
            Some((indices, counter, count))
        });
        // A worker's walk yields each chunk's positions, which lie
        // `stride` apart: the shared walk aligned between them.
        let build = |walk: &mut Option<ExhaustiveFunctions>,
                     (indices, counter, count): (Vec<usize>, u64, usize),
                     each: &mut dyn FnMut(usize, Function)| {
            let walk = walk.get_or_insert_with(|| template.clone());
            walk.seat(&indices, counter, false)
                .expect("a chunk starts at a cursor of the shared walk");
            for k in 0..count {
                if k > 0 {
                    walk.fast_forward(stride - 1);
                }
                // Not `Iterator::position`, which a `&mut` walk reaches first.
                let index = ExhaustiveFunctions::position(walk) as usize;
                let f = walk.next().expect("the shared walk took this position");
                each(index, f);
            }
        };
        // Exhaustive sources are transient: the odometer never
        // revisits a shape, so caching source enumerations would grow
        // the campaign's working set with the space instead of the
        // (tiny) set of canonical target forms.
        let policy = CheckPolicy {
            transient_src: true,
        };
        let run = self.run_chunks(est_total, policy, &transform, chunks, build);

        cp.total += run.total;
        cp.changed += run.changed;
        cp.refined += run.refined;
        cp.inconclusive += run.inconclusive;
        cp.violations.extend(run.violations);
        // Cross-run appends are index-monotone already; the sort keeps
        // a resumed report canonical.
        cp.violations.sort_by_key(|v| v.index);
        let (cursor, counter, done) = generator.cursor();
        cp.cursor = cursor;
        cp.counter = counter;
        cp.done = done;
        let budget_hit = budget_hit && !done;
        if budget_hit {
            ctrs.skip_budget.incr();
        }
        run_span.set("checked", run.total);
        run_span.set("violations", cp.violations.len());
        run_span.set("done", done);
        drop(run_span);

        let report = ValidationReport {
            total: cp.total,
            changed: cp.changed,
            refined: cp.refined,
            inconclusive: cp.inconclusive,
            violations: cp.violations.clone(),
            stats: CampaignStats {
                budget_hit,
                ..run.stats
            },
        };
        (report, cp)
    }

    fn run_indexed(
        &self,
        count: usize,
        budget_hit: bool,
        make: &(impl Fn(usize) -> Function + Sync),
        transform: &(impl Fn(&mut Module) + Sync),
    ) -> ValidationReport {
        let size = self.chunk_len(count);
        let mut run_span = frost_telemetry::span("fuzz.campaign.run")
            .field("count", count)
            .field("shards", count.div_ceil(size));
        // A chunk is a range of indices; the worker that takes it
        // builds its functions.
        let chunks = (0..count)
            .step_by(size)
            .map(|lo| lo..(lo + size).min(count));
        let build = |_: &mut (), range: Range<usize>, each: &mut dyn FnMut(usize, Function)| {
            range.for_each(|i| each(i, make(i)));
        };
        let mut report = self.run_chunks(count, CheckPolicy::default(), transform, chunks, build);

        let ctrs = campaign_counters();
        report.stats.budget_hit = budget_hit;
        report.stats.skipped = count - report.total;
        if report.stats.deadline_hit {
            ctrs.skip_deadline_fns.add(report.stats.skipped as u64);
        }
        if budget_hit {
            ctrs.skip_budget.incr();
        }
        run_span.set("workers", report.stats.workers);
        run_span.set("checked", report.total);
        run_span.set("violations", report.violations.len());
        run_span.set("deadline_hit", report.stats.deadline_hit);
        report
    }

    /// The chunk loop behind [`run_indexed`](Campaign::run_indexed) and
    /// [`run_exhaustive`](Campaign::run_exhaustive). Every worker loops
    /// on one pull: lock `chunks`, check the stop flag and the deadline,
    /// take the next chunk and its sequence number, unlock; `build` then
    /// yields the chunk's functions from the worker's own state `W`.
    /// The calling thread pulls each worker's first chunk before
    /// starting it, and works as the last. A worker that unwinds stops
    /// the pulls, and the campaign fails with its panic.
    ///
    /// Each chunk is tallied locally, then folded into the campaign's
    /// one shared tally and added to the `frost.fuzz.campaign.*`
    /// counters. The observer sees that tally, under its lock, so
    /// snapshots arrive in order and the last one equals the returned
    /// report: this call's tallies, violations sorted by corpus index,
    /// and its [`CampaignStats`] bar `budget_hit` and `skipped`.
    fn run_chunks<C: Send, W: Default>(
        &self,
        total: usize,
        policy: CheckPolicy,
        transform: &(impl Fn(&mut Module) + Sync),
        chunks: impl Iterator<Item = C> + Send,
        build: impl Fn(&mut W, C, &mut dyn FnMut(usize, Function)) + Sync,
    ) -> ValidationReport {
        let start = Instant::now();
        let ctrs = campaign_counters();
        ctrs.runs.incr();
        let cache = OutcomeCache::new();
        let tally = Mutex::new(ValidationReport::default());
        let source = Mutex::new(ChunkSource {
            chunks,
            pulled: 0,
            stopped: false,
            deadline_hit: false,
        });
        let pull = || {
            let claim = Instant::now();
            // A poisoned source means a pull panicked: stop.
            let mut src = source.lock().ok()?;
            if src.stopped {
                return None;
            }
            src.deadline_hit = self.deadline.is_some_and(|d| start.elapsed() >= d);
            let next = (!src.deadline_hit).then(|| src.chunks.next()).flatten();
            let Some(chunk) = next else {
                src.stopped = true;
                return None;
            };
            src.pulled += 1;
            Some((src.pulled - 1, chunk, claim.elapsed().as_nanos() as u64))
        };
        let check_chunk = |state: &mut W, (seq, chunk, claim_ns): (usize, C, u64)| {
            ctrs.shards.incr();
            ctrs.claim_ns.record(claim_ns);
            let mut span = frost_telemetry::span("fuzz.campaign.shard")
                .field("shard", seq)
                .field("claim_ns", claim_ns);
            let mut local = ValidationReport::default();
            let (mut lo, mut hi) = (usize::MAX, 0);
            build(state, chunk, &mut |index, f| {
                (lo, hi) = (lo.min(index), index + 1);
                self.check_fn(index, f, transform, &cache, policy, &mut local);
            });
            span.set("lo", lo);
            span.set("hi", hi);
            drop(span);
            ctrs.checked.add(local.total as u64);
            ctrs.changed.add(local.changed as u64);
            ctrs.refined.add(local.refined as u64);
            ctrs.violations.add(local.violations.len() as u64);
            ctrs.inconclusive.add(local.inconclusive as u64);
            let mut shared = tally.lock().expect("a worker panicked holding the tally");
            shared.total += local.total;
            shared.changed += local.changed;
            shared.refined += local.refined;
            shared.inconclusive += local.inconclusive;
            shared.violations.extend(local.violations);
            if let Some(obs) = &self.observer {
                let elapsed = start.elapsed();
                obs(&Progress {
                    checked: shared.total,
                    total,
                    changed: shared.changed,
                    refined: shared.refined,
                    violations: shared.violations.len(),
                    inconclusive: shared.inconclusive,
                    elapsed,
                    functions_per_sec: per_sec(shared.total, elapsed),
                    cache_hit_rate: hit_rate(cache.hits(), cache.misses()),
                });
            }
        };
        let work = |first| {
            let _stop = StopOnUnwind(&source);
            let mut state = W::default();
            let mut next = Some(first);
            while let Some(chunk) = next {
                check_chunk(&mut state, chunk);
                next = pull();
            }
        };

        // One chunk per worker is pulled before any starts, so the pool
        // never outnumbers the chunks.
        let mut firsts: Vec<_> = std::iter::from_fn(&pull)
            .take(self.requested_workers())
            .collect();
        let workers = firsts.len();
        std::thread::scope(|s| {
            let mine = firsts.pop();
            for chunk in firsts {
                let work = &work;
                s.spawn(move || work(chunk));
            }
            if let Some(chunk) = mine {
                work(chunk);
            }
        });

        let src = source.into_inner().expect("a pull's panic ends the scope");
        let mut report = tally
            .into_inner()
            .expect("a worker panicked holding the tally");
        // Erase chunk-completion order: verdicts come out in corpus
        // order regardless of which worker produced them.
        report.violations.sort_by_key(|v| v.index);
        let wall = start.elapsed();
        report.stats = CampaignStats {
            workers,
            chunks: src.pulled,
            wall,
            functions_per_sec: per_sec(report.total, wall),
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            cache_entries: cache.len(),
            deadline_hit: src.deadline_hit,
            ..CampaignStats::default()
        };
        report
    }

    /// Checks one already-generated function, counting its verdict
    /// into `tally`.
    fn check_fn(
        &self,
        index: usize,
        f: Function,
        transform: &(impl Fn(&mut Module) + Sync),
        cache: &OutcomeCache,
        policy: CheckPolicy,
        tally: &mut ValidationReport,
    ) {
        let name = f.name.clone();
        let mut before = Module::new();
        before.functions.push(f);
        let mut after = before.clone();
        transform(&mut after);

        tally.total += 1;
        if after != before {
            tally.changed += 1;
        }
        match check_refinement_cached_policy(
            &before, &name, &after, &name, &self.opts, cache, policy,
        ) {
            CheckResult::Refines => tally.refined += 1,
            CheckResult::CounterExample(ce) => tally.violations.push(Violation {
                index,
                before: function_to_string(before.function(&name).expect("exists")),
                after: function_to_string(after.function(&name).expect("exists")),
                counterexample: ce.to_string(),
            }),
            CheckResult::Inconclusive(_) => tally.inconclusive += 1,
        }
    }

    /// [`Campaign::with_workers`], or the available parallelism.
    fn requested_workers(&self) -> usize {
        match self.workers {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
    }

    /// Functions per chunk for `left` checks: [`CHUNKS_PER_WORKER`] per
    /// worker, within [`MIN_CHUNK`]..=[`Campaign::with_shard_size`].
    fn chunk_len(&self, left: usize) -> usize {
        (left / (self.requested_workers() * CHUNKS_PER_WORKER))
            .max(MIN_CHUNK)
            .min(self.shard_size)
    }
}

/// Chunks per worker. A worker idles for at most one chunk at the end
/// of a run, so more chunks balance the finish times better. The count
/// allows for `approx_size` running high: the 4-instruction memory
/// space holds 32,903 functions against an estimate of 76,560, so its
/// slices get under half the chunks asked for.
const CHUNKS_PER_WORKER: usize = 32;

/// The fewest functions a sized chunk holds: a small run stays on few
/// workers, and a pull stays rare next to its checks.
const MIN_CHUNK: usize = 256;

/// The chunk source and pull state the workers share under one lock.
struct ChunkSource<I> {
    chunks: I,
    /// Chunks handed out: the next chunk's sequence number.
    pulled: usize,
    /// No more pulls: chunks out, deadline passed or a worker unwound.
    stopped: bool,
    deadline_hit: bool,
}

/// Stops the pulls when its worker unwinds, so the other workers
/// finish the chunk in hand and the campaign fails with the panic.
struct StopOnUnwind<'a, I>(&'a Mutex<ChunkSource<I>>);

impl<I> Drop for StopOnUnwind<'_, I> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // The flag is valid whatever a panicking pull left.
            self.0
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .stopped = true;
        }
    }
}

/// `n` per second of `wall`, or 0 for an instantaneous run.
fn per_sec(n: usize, wall: Duration) -> f64 {
    let secs = wall.as_secs_f64();
    if secs > 0.0 {
        n as f64 / secs
    } else {
        0.0
    }
}

/// `hits / (hits + misses)`, or 0 when the cache was unused.
fn hit_rate(hits: u64, misses: u64) -> f64 {
    let (h, m) = (hits as f64, misses as f64);
    if h + m == 0.0 {
        0.0
    } else {
        h / (h + m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::enumerate_functions;
    use frost_opt::{o2_pipeline, PipelineMode};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn pipeline_transform(mode: PipelineMode) -> impl Fn(&mut Module) + Sync {
        let pm = o2_pipeline(mode);
        move |m: &mut Module| {
            pm.run(m);
        }
    }

    #[test]
    fn parallel_matches_sequential_on_exhaustive_corpus() {
        let cfg = GenConfig::arithmetic(2);
        let corpus: Vec<Function> = enumerate_functions(cfg).step_by(457).take(120).collect();
        let seq = Campaign::new(Semantics::proposed())
            .with_workers(1)
            .run(corpus.clone(), pipeline_transform(PipelineMode::Fixed));
        let par = Campaign::new(Semantics::proposed())
            .with_workers(4)
            .with_shard_size(8)
            .run(corpus, pipeline_transform(PipelineMode::Fixed));
        assert_eq!(seq.total, par.total);
        assert_eq!(seq.changed, par.changed);
        assert_eq!(seq.refined, par.refined);
        assert_eq!(seq.inconclusive, par.inconclusive);
        assert_eq!(seq.violations.len(), par.violations.len());
        assert_eq!(par.stats.workers, 4);
    }

    #[test]
    fn budget_truncates_deterministically() {
        let cfg = GenConfig::arithmetic(2);
        let report = Campaign::new(Semantics::proposed())
            .with_budget(25)
            .with_workers(2)
            .with_shard_size(4)
            .run_random(&cfg, 3, 100, pipeline_transform(PipelineMode::Fixed));
        assert_eq!(report.total, 25);
        assert!(report.stats.budget_hit);
        let full = Campaign::new(Semantics::proposed())
            .with_workers(2)
            .run_random(&cfg, 3, 25, pipeline_transform(PipelineMode::Fixed));
        assert!(!full.stats.budget_hit);
        assert_eq!(report.refined, full.refined);
    }

    #[test]
    fn observer_sees_monotone_progress() {
        let cfg = GenConfig::arithmetic(2);
        let calls = std::sync::Arc::new(AtomicUsize::new(0));
        let calls2 = std::sync::Arc::clone(&calls);
        let report = Campaign::new(Semantics::proposed())
            .with_workers(2)
            .with_shard_size(5)
            .with_observer(move |p: &Progress| {
                assert!(p.checked <= p.total);
                calls2.fetch_add(1, Ordering::Relaxed);
            })
            .run_random(&cfg, 11, 40, pipeline_transform(PipelineMode::Fixed));
        assert_eq!(report.total, 40);
        assert!(
            calls.load(Ordering::Relaxed) >= 40 / 5,
            "one call per shard"
        );

        // The legacy campaign over the tiny undef space finds
        // violations, so the last snapshot is compared on every tally.
        let cfg = tiny_undef_cfg();
        for workers in [1, 4] {
            for exhaustive in [false, true] {
                let last = std::sync::Arc::new(Mutex::new(None::<Progress>));
                let calls = std::sync::Arc::new(AtomicUsize::new(0));
                let (last2, calls2) = (std::sync::Arc::clone(&last), std::sync::Arc::clone(&calls));
                let campaign = Campaign::with_options(CheckOptions::new(Semantics::legacy_gvn()))
                    .with_workers(workers)
                    .with_shard_size(5)
                    .with_observer(move |p: &Progress| {
                        assert!(p.checked <= p.total);
                        let mut last = last2.lock().unwrap();
                        if let Some(prev) = *last {
                            assert!(prev.checked <= p.checked, "progress went backwards");
                        }
                        *last = Some(*p);
                        calls2.fetch_add(1, Ordering::Relaxed);
                    });
                let report = if exhaustive {
                    campaign.run_exhaustive(&cfg, None, legacy_transform()).0
                } else {
                    let report = campaign.run_random(&cfg, 11, 40, legacy_transform());
                    assert_eq!(report.total, 40);
                    report
                };
                assert!(!report.is_clean(), "{report}");
                assert!(
                    calls.load(Ordering::Relaxed) >= report.total.div_ceil(5),
                    "one call per shard"
                );
                let last = last.lock().unwrap().expect("the observer ran");
                assert_eq!(
                    (
                        last.checked,
                        last.total,
                        last.changed,
                        last.refined,
                        last.violations,
                        last.inconclusive
                    ),
                    (
                        report.total,
                        report.total,
                        report.changed,
                        report.refined,
                        report.violations.len(),
                        report.inconclusive
                    ),
                    "the last snapshot must equal the report ({workers} workers, \
                     exhaustive: {exhaustive})"
                );
            }
        }
    }

    #[test]
    #[should_panic]
    fn a_panicking_worker_fails_the_campaign_instead_of_hanging() {
        // Both workers, the calling thread included, die on their first
        // function; the campaign must fail with the panic, not hang.
        Campaign::new(Semantics::proposed())
            .with_workers(2)
            .with_shard_size(1)
            .run_random(&GenConfig::arithmetic(1), 1, 64, |_m| {
                panic!("transform bug")
            });
    }

    #[test]
    fn deadline_cuts_off_and_reports_skips() {
        let cfg = GenConfig::arithmetic(3);
        let report = Campaign::new(Semantics::proposed())
            .with_workers(2)
            .with_shard_size(1)
            .with_deadline(Duration::ZERO)
            .run_random(&cfg, 5, 50, pipeline_transform(PipelineMode::Fixed));
        assert!(report.stats.deadline_hit);
        assert_eq!(report.total + report.stats.skipped, 50);
    }

    fn tiny_undef_cfg() -> GenConfig {
        // 32 one-instruction functions over {a, b, 2, undef}: small
        // enough to sweep in tests, rich enough that the legacy
        // InstCombine pipeline produces §3.1 violations under
        // legacy-GVN semantics.
        GenConfig {
            ops: vec![frost_ir::BinOp::Mul, frost_ir::BinOp::Add],
            consts: vec![2],
            poison_const: false,
            flags: false,
            freeze: false,
            ..GenConfig::arithmetic(1)
        }
        .with_undef()
    }

    fn legacy_transform() -> impl Fn(&mut Module) + Sync {
        let pm = o2_pipeline(PipelineMode::Legacy);
        move |m: &mut Module| {
            pm.run(m);
        }
    }

    fn assert_same_verdicts(a: &ValidationReport, b: &ValidationReport) {
        assert_eq!(a.total, b.total);
        assert_eq!(a.changed, b.changed);
        assert_eq!(a.refined, b.refined);
        assert_eq!(a.inconclusive, b.inconclusive);
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn exhaustive_sweep_is_deterministic_across_worker_counts() {
        let cfg = tiny_undef_cfg();
        let opts = CheckOptions::new(Semantics::legacy_gvn());
        let (base, base_cp) = Campaign::with_options(opts).with_workers(1).run_exhaustive(
            &cfg,
            None,
            legacy_transform(),
        );
        assert!(base.total > 0 && base_cp.done);
        assert!(!base.is_clean(), "the tiny space must surface §3.1");
        for workers in [2, 8] {
            let (r, cp) = Campaign::with_options(opts)
                .with_workers(workers)
                .with_shard_size(3)
                .run_exhaustive(&cfg, None, legacy_transform());
            assert_same_verdicts(&base, &r);
            assert_eq!(base_cp, cp, "checkpoints must agree at {workers} workers");
        }
    }

    #[test]
    fn interrupted_sweep_resumes_to_identical_final_report() {
        let cfg = tiny_undef_cfg();
        let opts = CheckOptions::new(Semantics::legacy_gvn());
        let (full, full_cp) = Campaign::with_options(opts).with_workers(2).run_exhaustive(
            &cfg,
            None,
            legacy_transform(),
        );

        // Kill after 10 functions, round-trip the checkpoint through
        // its JSONL artifact, resume to the end.
        let (partial, cp) = Campaign::with_options(opts)
            .with_workers(1)
            .with_budget(10)
            .run_exhaustive(&cfg, None, legacy_transform());
        assert_eq!(partial.total, 10);
        assert!(partial.stats.budget_hit && !cp.done);
        let dir = std::env::temp_dir().join("frost-campaign-resume-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp.jsonl");
        cp.save_jsonl(&path).unwrap();
        let restored = CampaignCheckpoint::load_jsonl(&path).unwrap();
        assert_eq!(restored, cp);
        std::fs::remove_file(&path).ok();

        let (resumed, resumed_cp) = Campaign::with_options(opts).with_workers(8).run_exhaustive(
            &cfg,
            Some(&restored),
            legacy_transform(),
        );
        assert_same_verdicts(&full, &resumed);
        assert_eq!(full_cp, resumed_cp);
        assert!(resumed_cp.done);
    }

    #[test]
    fn campaign_cache_sees_redundant_corpus() {
        // An identical source/target pair costs exactly one cache
        // lookup (the checker's identity fast path), so a corpus that
        // repeats every function must answer the second round entirely
        // from the cache.
        let cfg = GenConfig::arithmetic(1);
        let mut corpus: Vec<Function> = random_functions_range(&cfg, 9, 0, 15);
        corpus.extend(random_functions_range(&cfg, 9, 0, 15));
        let report = Campaign::new(Semantics::proposed())
            .with_workers(1)
            .run(corpus, |_m| {});
        assert_eq!(report.changed, 0);
        assert_eq!(report.total, 30);
        assert!(
            report.stats.cache_hits >= 15,
            "the repeated half must hit: {:?}",
            report.stats
        );
        assert!(report.stats.cache_hit_rate() > 0.4);
    }
}
