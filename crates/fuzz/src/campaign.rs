//! Sharded, work-stealing parallel validation campaigns.
//!
//! The §6 methodology — generate millions of tiny functions, optimize
//! each, check refinement — is embarrassingly parallel: every function
//! is validated independently. [`Campaign`] is the engine that
//! exploits this. A campaign splits the corpus into fixed-size *shards*
//! of consecutive function indices; workers (scoped threads) claim
//! shards off a shared atomic counter, so fast workers steal work that
//! slow workers never reach. All workers share one
//! [`OutcomeCache`], so each distinct
//! (canonical function, semantics) pair is enumerated once per
//! campaign, no matter which worker sees it first.
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
//! * every [`Violation`] carries its global index, and the merge step
//!   sorts by it, erasing shard-completion order.
//!
//! Only the wall-clock numbers in [`CampaignStats`] (and anything cut
//! off by a [`deadline`](Campaign::with_deadline)) vary between runs.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use frost_core::{Engine, OutcomeCache, Semantics};
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
    /// Worker threads used.
    pub workers: usize,
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
        let (h, m) = (self.cache_hits as f64, self.cache_misses as f64);
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

/// The boxed callback installed by [`Campaign::with_observer`].
pub type ProgressObserver = Box<dyn Fn(&Progress) + Send + Sync>;

/// A live snapshot of a running campaign, handed to the observer
/// installed with [`Campaign::with_observer`] after each completed
/// shard.
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

    /// Returns this campaign with an explicit execution [`Engine`] for
    /// every refinement check (the default is [`Engine::Auto`], which
    /// bit-slices eligible all-i2 functions and falls back to the plan
    /// machine for everything else).
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> Campaign {
        self.opts.engine = engine;
        self
    }

    /// Returns this campaign with a fixed worker-thread count. `0`
    /// (the default) auto-detects [`std::thread::available_parallelism`];
    /// `1` runs entirely on the calling thread.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Campaign {
        self.workers = workers;
        self
    }

    /// Returns this campaign with the given shard granularity
    /// (functions claimed per steal). Smaller shards balance better;
    /// larger shards contend less. The default is 64.
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

    /// Returns this campaign with a wall-clock deadline. Workers stop
    /// claiming shards once it expires; [`CampaignStats::skipped`]
    /// counts what was left. Deadlines trade determinism for
    /// predictable latency — cut-off campaigns may differ between runs.
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

    /// Returns this campaign with a live-progress observer, invoked by
    /// whichever worker finishes a shard (concurrently — the callback
    /// must be `Sync`).
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
    /// The calling thread pulls `shard_size`-function chunks from the
    /// enumeration *sequentially* (aligning to this process's residue
    /// class under [`Campaign::with_process_shard`]) and feeds them to
    /// the workers through a bounded hand-off queue, so generation
    /// overlaps checking without unbounded buffering. Because the
    /// generator walk happens on one thread, the set of functions
    /// checked — and therefore every verdict — is identical at any
    /// worker count.
    ///
    /// `resume` continues a previous sweep: the generator restarts at
    /// the checkpoint's cursor (so `fz{n}` names stay globally stable)
    /// and the returned report is **cumulative** — an
    /// interrupted-and-resumed sweep ends with byte-identical
    /// violations and tallies to an uninterrupted one.
    /// [`Campaign::with_budget`] bounds the functions checked *this
    /// call* (the natural sharding unit for cross-process sweeps);
    /// [`Campaign::with_deadline`] stops pulling new batches when it
    /// expires. Either way the returned [`CampaignCheckpoint`] points
    /// at the exact next unchecked function.
    ///
    /// Only [`ValidationReport::stats`] describes this call alone
    /// (wall-clock, throughput, cache behavior of this process).
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
        let start = Instant::now();
        let ctrs = campaign_counters();
        ctrs.runs.incr();
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

        let cache = OutcomeCache::new();
        let live = LiveCounters::default();
        let chunk_cap = self.shard_size.max(1);
        let workers = self.effective_workers(usize::MAX);
        let mut run_span = frost_telemetry::span("fuzz.campaign.exhaustive")
            .field("resumed", resume.is_some())
            .field("chunk_cap", chunk_cap)
            .field("shards", shards)
            .field("shard_id", shard_id);

        let mut checked_this_run = 0usize;
        let mut budget_hit = false;
        let mut deadline_hit = false;
        let partials: Vec<Partial> = {
            // Sequential chunk pulling: the single-threaded generator
            // walk, stride alignment included, is the determinism
            // anchor, so the set of functions checked is identical at
            // any worker count.
            let generator = &mut generator;
            let (deadline_hit, budget_hit) = (&mut deadline_hit, &mut budget_hit);
            let checked = &mut checked_this_run;
            let mut pull_chunk = move || -> Vec<(usize, Function)> {
                let cap = match self.budget {
                    Some(b) => {
                        let left = b.saturating_sub(*checked);
                        if left == 0 {
                            *budget_hit = true;
                            return Vec::new();
                        }
                        chunk_cap.min(left)
                    }
                    None => chunk_cap,
                };
                let mut chunk = Vec::with_capacity(cap);
                while chunk.len() < cap {
                    if let Some(d) = self.deadline {
                        if start.elapsed() >= d {
                            *deadline_hit = true;
                            break;
                        }
                    }
                    if shards > 1 {
                        // Self-align to this process's residue class:
                        // jump over positions owned by other shards.
                        let stride = shards as u64;
                        // NB: explicit deref — on `&mut _` a bare
                        // `.position()` resolves to `Iterator::position`.
                        let pos = (*generator).position();
                        let ahead = (shard_id as u64 + stride - pos % stride) % stride;
                        if ahead > 0 {
                            generator.fast_forward(ahead);
                            ctrs.skip_stride.add(ahead);
                        }
                    }
                    let index = (*generator).position() as usize;
                    let Some(f) = generator.next() else { break };
                    chunk.push((index, f));
                }
                *checked += chunk.len();
                chunk
            };
            // Exhaustive sources are transient: the odometer never
            // revisits a shape, so caching source enumerations would
            // grow the campaign's working set with the space instead
            // of the (tiny) set of canonical target forms.
            let policy = CheckPolicy {
                transient_src: true,
            };
            let run_chunk = |chunk: Vec<(usize, Function)>, p: &mut Partial| {
                ctrs.shards.incr();
                for (index, f) in chunk {
                    self.check_fn(index, f, &transform, &cache, policy, p, &live, ctrs);
                }
                if let Some(obs) = &self.observer {
                    obs(&live.snapshot(est_total, start, &cache));
                }
            };
            if workers <= 1 {
                let mut p = Partial::default();
                loop {
                    let chunk = pull_chunk();
                    if chunk.is_empty() {
                        break;
                    }
                    run_chunk(chunk, &mut p);
                }
                vec![p]
            } else {
                // Generation overlaps checking: workers drain a
                // bounded hand-off queue while the calling thread
                // keeps pulling, so neither side buffers more than
                // `2 × workers` chunks ahead.
                let queue: HandoffQueue<Vec<(usize, Function)>> = HandoffQueue::new(workers * 2);
                std::thread::scope(|s| {
                    let handles: Vec<_> = (0..workers)
                        .map(|_| {
                            s.spawn(|| {
                                let mut p = Partial::default();
                                while let Some(chunk) = queue.pop() {
                                    run_chunk(chunk, &mut p);
                                }
                                p
                            })
                        })
                        .collect();
                    loop {
                        let chunk = pull_chunk();
                        if chunk.is_empty() {
                            break;
                        }
                        queue.push(chunk);
                    }
                    queue.close();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("validation worker panicked"))
                        .collect()
                })
            }
        };
        for p in partials {
            cp.total += p.total;
            cp.changed += p.changed;
            cp.refined += p.refined;
            cp.inconclusive += p.inconclusive;
            cp.violations.extend(p.violations);
        }

        // Erase chunk-completion order; cross-run appends are already
        // index-monotone, so this also keeps resumed reports canonical.
        cp.violations.sort_by_key(|v| v.index);
        let (cursor, counter, done) = generator.cursor();
        cp.cursor = cursor;
        cp.counter = counter;
        cp.done = done;
        let budget_hit = budget_hit && !done;
        if budget_hit {
            ctrs.skip_budget.incr();
        }
        run_span.set("checked", checked_this_run);
        run_span.set("violations", cp.violations.len());
        run_span.set("done", done);
        drop(run_span);

        let wall = start.elapsed();
        let secs = wall.as_secs_f64();
        let report = ValidationReport {
            total: cp.total,
            changed: cp.changed,
            refined: cp.refined,
            inconclusive: cp.inconclusive,
            violations: cp.violations.clone(),
            stats: CampaignStats {
                workers: self.effective_workers(usize::MAX),
                wall,
                functions_per_sec: if secs > 0.0 {
                    checked_this_run as f64 / secs
                } else {
                    0.0
                },
                cache_hits: cache.hits(),
                cache_misses: cache.misses(),
                cache_entries: cache.len(),
                budget_hit,
                deadline_hit,
                skipped: 0,
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
        let start = Instant::now();
        let num_shards = count.div_ceil(self.shard_size.max(1));
        let workers = self.effective_workers(num_shards);
        let cache = OutcomeCache::new();
        let next_shard = AtomicUsize::new(0);
        let deadline_expired = AtomicBool::new(false);
        let live = LiveCounters::default();
        let ctrs = campaign_counters();
        ctrs.runs.incr();
        let mut run_span = frost_telemetry::span("fuzz.campaign.run")
            .field("count", count)
            .field("shards", num_shards)
            .field("workers", workers);

        let work = || {
            let mut p = Partial::default();
            loop {
                let claim_start = Instant::now();
                if let Some(d) = self.deadline {
                    if start.elapsed() >= d {
                        deadline_expired.store(true, Ordering::Relaxed);
                        break;
                    }
                }
                let shard = next_shard.fetch_add(1, Ordering::Relaxed);
                if shard >= num_shards {
                    break;
                }
                let claim_ns = claim_start.elapsed().as_nanos() as u64;
                ctrs.shards.incr();
                ctrs.claim_ns.record(claim_ns);
                let lo = shard * self.shard_size;
                let hi = (lo + self.shard_size).min(count);
                {
                    let _shard_span = frost_telemetry::span("fuzz.campaign.shard")
                        .field("shard", shard)
                        .field("lo", lo)
                        .field("hi", hi)
                        .field("claim_ns", claim_ns);
                    for i in lo..hi {
                        self.check_fn(
                            i,
                            make(i),
                            transform,
                            &cache,
                            CheckPolicy::default(),
                            &mut p,
                            &live,
                            ctrs,
                        );
                    }
                }
                if let Some(obs) = &self.observer {
                    obs(&live.snapshot(count, start, &cache));
                }
            }
            p
        };

        let partials: Vec<Partial> = if workers <= 1 {
            vec![work()]
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers).map(|_| s.spawn(work)).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("validation worker panicked"))
                    .collect()
            })
        };

        let mut report = ValidationReport::default();
        for p in partials {
            report.total += p.total;
            report.changed += p.changed;
            report.refined += p.refined;
            report.inconclusive += p.inconclusive;
            report.violations.extend(p.violations);
        }
        // Erase shard-completion order: verdicts come out in corpus
        // order regardless of which worker produced them.
        report.violations.sort_by_key(|v| v.index);

        let deadline_hit = deadline_expired.load(Ordering::Relaxed);
        let skipped = count - report.total;
        if deadline_hit {
            ctrs.skip_deadline_fns.add(skipped as u64);
        }
        if budget_hit {
            ctrs.skip_budget.incr();
        }
        run_span.set("checked", report.total);
        run_span.set("violations", report.violations.len());
        run_span.set("deadline_hit", deadline_hit);
        drop(run_span);

        let wall = start.elapsed();
        let secs = wall.as_secs_f64();
        report.stats = CampaignStats {
            workers,
            wall,
            functions_per_sec: if secs > 0.0 {
                report.total as f64 / secs
            } else {
                0.0
            },
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            cache_entries: cache.len(),
            budget_hit,
            deadline_hit,
            skipped,
        };
        report
    }

    /// Checks one already-generated function; the shared verdict path
    /// of [`run_indexed`](Campaign::run_indexed) and
    /// [`run_exhaustive`](Campaign::run_exhaustive).
    #[allow(clippy::too_many_arguments)]
    fn check_fn(
        &self,
        index: usize,
        f: Function,
        transform: &(impl Fn(&mut Module) + Sync),
        cache: &OutcomeCache,
        policy: CheckPolicy,
        p: &mut Partial,
        live: &LiveCounters,
        ctrs: &CampaignCounters,
    ) {
        let name = f.name.clone();
        let mut before = Module::new();
        before.functions.push(f);
        let mut after = before.clone();
        transform(&mut after);

        p.total += 1;
        live.checked.fetch_add(1, Ordering::Relaxed);
        ctrs.checked.incr();
        if after != before {
            p.changed += 1;
            live.changed.fetch_add(1, Ordering::Relaxed);
            ctrs.changed.incr();
        }
        match check_refinement_cached_policy(
            &before, &name, &after, &name, &self.opts, cache, policy,
        ) {
            CheckResult::Refines => {
                p.refined += 1;
                live.refined.fetch_add(1, Ordering::Relaxed);
                ctrs.refined.incr();
            }
            CheckResult::CounterExample(ce) => {
                live.violations.fetch_add(1, Ordering::Relaxed);
                ctrs.violations.incr();
                p.violations.push(Violation {
                    index,
                    before: function_to_string(before.function(&name).expect("exists")),
                    after: function_to_string(after.function(&name).expect("exists")),
                    counterexample: ce.to_string(),
                });
            }
            CheckResult::Inconclusive(_) => {
                p.inconclusive += 1;
                live.inconclusive.fetch_add(1, Ordering::Relaxed);
                ctrs.inconclusive.incr();
            }
        }
    }

    fn effective_workers(&self, num_shards: usize) -> usize {
        let requested = if self.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.workers
        };
        requested.clamp(1, num_shards.max(1))
    }
}

/// A bounded single-producer hand-off queue: the generator thread
/// blocks once `cap` chunks are in flight, workers block while it is
/// empty, and [`HandoffQueue::close`] drains the remainder and then
/// releases everyone. Bounding the queue keeps a fast generator from
/// buffering an entire exhaustive space ahead of slow checkers.
struct HandoffQueue<T> {
    state: Mutex<HandoffState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    cap: usize,
}

struct HandoffState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> HandoffQueue<T> {
    fn new(cap: usize) -> HandoffQueue<T> {
        HandoffQueue {
            state: Mutex::new(HandoffState {
                items: VecDeque::with_capacity(cap.max(1)),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Blocks until there is room, then enqueues. Producer-side only;
    /// never called after [`HandoffQueue::close`].
    fn push(&self, item: T) {
        let mut st = self.state.lock().expect("queue poisoned");
        while st.items.len() >= self.cap {
            st = self.not_full.wait(st).expect("queue poisoned");
        }
        st.items.push_back(item);
        drop(st);
        self.not_empty.notify_one();
    }

    /// Marks the stream complete: blocked poppers drain what is left
    /// and then observe the close.
    fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.not_empty.notify_all();
    }

    /// Blocks for the next chunk; `None` once the queue is closed and
    /// empty.
    fn pop(&self) -> Option<T> {
        let mut st = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(item) = st.items.pop_front() {
                drop(st);
                self.not_full.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).expect("queue poisoned");
        }
    }
}

/// One worker's share of the report, merged after the join.
#[derive(Default)]
struct Partial {
    total: usize,
    changed: usize,
    refined: usize,
    inconclusive: usize,
    violations: Vec<Violation>,
}

/// Shared atomics behind the live [`Progress`] snapshots.
#[derive(Default)]
struct LiveCounters {
    checked: AtomicUsize,
    changed: AtomicUsize,
    refined: AtomicUsize,
    violations: AtomicUsize,
    inconclusive: AtomicUsize,
    _pad: AtomicU64,
}

impl LiveCounters {
    fn snapshot(&self, total: usize, start: Instant, cache: &OutcomeCache) -> Progress {
        let checked = self.checked.load(Ordering::Relaxed);
        let elapsed = start.elapsed();
        let secs = elapsed.as_secs_f64();
        let (h, m) = (cache.hits() as f64, cache.misses() as f64);
        Progress {
            checked,
            total,
            changed: self.changed.load(Ordering::Relaxed),
            refined: self.refined.load(Ordering::Relaxed),
            violations: self.violations.load(Ordering::Relaxed),
            inconclusive: self.inconclusive.load(Ordering::Relaxed),
            elapsed,
            functions_per_sec: if secs > 0.0 {
                checked as f64 / secs
            } else {
                0.0
            },
            cache_hit_rate: if h + m == 0.0 { 0.0 } else { h / (h + m) },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::enumerate_functions;
    use frost_opt::{o2_pipeline, PipelineMode};
    use std::sync::atomic::AtomicUsize;

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
