//! Outcome-enumeration memoization for validation campaigns.
//!
//! The §6 methodology checks millions of tiny functions, and the hot
//! loop is [`enumerate_function_mems`], run once per check side over
//! every (initial memory, input) pair of the source and of the target.
//! Campaign corpora are massively redundant: a no-op
//! transform leaves the target textually identical to the source, and
//! aggressive pipelines fold thousands of distinct inputs to the same
//! handful of canonical forms (`ret 0`, `ret %a`, …). [`OutcomeCache`]
//! memoizes the *whole [`Batch`]* of a function under a given
//! semantics — every input tuple under every candidate initial memory
//! in one entry — so each distinct (function shape, semantics)
//! combination is enumerated exactly once per campaign, with one probe
//! per check side. An entry holds no memory list: a bit-sliced one is its
//! lane masks (twelve words), and a plan one is its distinct runs plus
//! one run index per (memory, tuple) pair — a memory that agrees with
//! another on every byte a run touched shares that run. Either is read
//! back against the caller's memory list ([`Batch::pair`]).
//!
//! ## Cache key
//!
//! `(structural fingerprint, semantics, limits, engine, salt)` where
//! the fingerprint is [`FunctionKey`] — an exact, name-independent
//! encoding of the function body. Generated corpora name every function
//! differently (`fz0`, `fz1`, …) and the name is semantically
//! irrelevant, so α-equivalent bodies share one entry; because the key
//! stores the full encoding, equality is structural and collisions are
//! impossible. The [`Engine`] is part of the key because engines may
//! legitimately differ on *errors* (the strict bit-sliced engine
//! reports ineligible programs as unsupported). The `salt` is a
//! caller-supplied fingerprint of everything else that shapes the
//! result (input-enumeration options, initial-block shape); callers that
//! enumerate inputs differently must use different salts. The memory
//! list needs no salt of its own when it follows from those options,
//! the block shape and the semantics (see
//! [`OutcomeCache::enumerate_keyed_mems`]).
//!
//! The fingerprint covers one body, so only functions whose behavior
//! that body fixes are memoized: a function that calls anything but
//! itself ([`is_self_contained`] is false) resolves those calls against
//! its module, and is enumerated afresh on every call — never probed,
//! never stored.
//!
//! A miss is one [`enumerate_function_mems`] call, which compiles the
//! function's call closure afresh; compiled plans are not memoized.
//! Within one campaign the limits and engine are fixed and the salt
//! follows from the options and the function's signature, so a
//! `(fingerprint, semantics)` pair has one outcome key: once its first
//! miss is stored, later probes hit, and it is compiled again only when
//! two workers race the same key.
//!
//! The cache is thread-safe and shared by all workers of a parallel
//! campaign: lock stripes picked by the fingerprint's hash each hold a
//! share of the map and count their own hits and misses, so workers
//! probing different keys share no lock and no counter. The
//! maps hash with [`crate::fasthash::FastHasher`]: keys are in-process
//! fingerprints of generated IR, so the keyed DoS resistance of the
//! default hasher buys nothing on this hot path.

use std::hash::BuildHasher;
use std::sync::{Arc, Mutex};

use frost_ir::{Function, FunctionKey, Module};

use crate::engine::{each_pair, enumerate_function_mems, Batch, Engine};
use crate::exec::{entry, ExecError, Limits};
use crate::fasthash::{FastBuildHasher, FastHashMap};
use crate::mem::{Memories, Memory};
use crate::outcome::OutcomeSet;
use crate::plan::is_self_contained;
use crate::sem::Semantics;
use crate::val::Val;

/// The result of enumerating one function on a fixed input list, per
/// tuple: one entry per input tuple, each either the outcome set or the
/// enumeration failure on that input. Keeping failures *per input*
/// (rather than aborting the vector) lets a refinement check reproduce
/// the sequential checker's verdict exactly — including which input it
/// reports as inconclusive.
pub type EnumeratedOutcomes = Vec<Result<OutcomeSet, ExecError>>;

#[derive(Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    key: FunctionKey,
    sem: Semantics,
    limits: Limits,
    engine: Engine,
    salt: u64,
}

/// Lock stripes per [`OutcomeCache`].
const STRIPES: usize = 16;

/// One lock stripe: its share of the entries and of the probe tallies.
#[derive(Default)]
#[repr(align(128))]
struct Stripe {
    map: FastHashMap<CacheKey, Arc<Batch>>,
    hits: u64,
    misses: u64,
}

/// A thread-safe memoization table for whole-function outcome
/// enumeration. See the [module docs](self) for the key structure.
#[derive(Default)]
pub struct OutcomeCache {
    stripes: [Mutex<Stripe>; STRIPES],
}

/// Process-wide mirrors of the per-cache hit/miss tallies, registered
/// once (`frost.core.cache.hits` / `frost.core.cache.misses` — see
/// docs/OBSERVABILITY.md). Per-cache counts stay exact; under parallel
/// campaigns two workers may race on one key and both count a miss, so
/// the global counters are throughput telemetry, not a determinism
/// surface.
fn global_cache_counters() -> (
    &'static frost_telemetry::Counter,
    &'static frost_telemetry::Counter,
) {
    use std::sync::OnceLock;
    static COUNTERS: OnceLock<(
        &'static frost_telemetry::Counter,
        &'static frost_telemetry::Counter,
    )> = OnceLock::new();
    *COUNTERS.get_or_init(|| {
        (
            frost_telemetry::counter("frost.core.cache.hits"),
            frost_telemetry::counter("frost.core.cache.misses"),
        )
    })
}

impl OutcomeCache {
    /// An empty cache.
    pub fn new() -> OutcomeCache {
        OutcomeCache::default()
    }

    /// The one-memory case of [`OutcomeCache::enumerate_keyed_mems`] for
    /// `name`'s first definition, whose docs cover `salt`, `store` and
    /// `fkey`, read back per tuple ([`Batch::pairs`]). An undefined
    /// `name` yields one [`ExecError::BadFunction`] per tuple.
    // perfbench (perfbench/src/layers.rs) calls this with these ten
    // arguments, so the signature stays until that caller changes.
    #[allow(clippy::too_many_arguments)]
    pub fn enumerate_keyed(
        &self,
        fkey: &FunctionKey,
        module: &Module,
        name: &str,
        inputs: &[Vec<Val>],
        mem: &Memory,
        sem: Semantics,
        limits: Limits,
        engine: Engine,
        salt: u64,
        store: bool,
    ) -> Arc<EnumeratedOutcomes> {
        let mems = Memories::One(mem);
        let batch = match entry(module, name) {
            Ok(func) => self.enumerate_keyed_mems(
                fkey, module, func, inputs, mems, sem, limits, engine, salt, store,
            ),
            Err(e) => Arc::new(each_pair(&mems, inputs, |_, _| Err(e.clone()))),
        };
        Arc::new(batch.pairs(&mems))
    }

    /// Memoized [`enumerate_function_mems`]: every (memory, input) pair
    /// of `func`, a function of `module`, under one probe and one entry,
    /// the stored [`Batch`] itself. A miss compiles the function once
    /// for the whole batch.
    ///
    /// `salt` must fingerprint everything that shapes `inputs` and
    /// `mems` beyond the key. The memory list need not be part of it
    /// when it is a function of the inputs' block shape, the input
    /// options, and the semantics' uninitialized fill — as every
    /// checker's is: the block shape and options are in the salt, and
    /// the semantics is in the key. A stored batch holds run indices
    /// into the memory list it was enumerated on, so a hit is read back
    /// against the prober's `mems`, which that contract makes the same
    /// list in content.
    ///
    /// `store = false` is for *transient* functions — exhaustive-sweep
    /// sources, which the odometer visits exactly once. The probe still
    /// runs (the shape may coincide with a canonical form some target
    /// check stored), but a miss enumerates without inserting, keeping
    /// the campaign's memory footprint bounded by the *target* shape
    /// count instead of the full enumerated space.
    ///
    /// `fkey` must be `FunctionKey::of(func)`; a mismatched key silently
    /// poisons the cache for that fingerprint. A function that is not
    /// [self-contained](is_self_contained) is enumerated without a probe
    /// and never stored.
    // The twin of `enumerate_keyed`, whose ten arguments are fixed by
    // perfbench; the two signatures change together.
    #[allow(clippy::too_many_arguments)]
    pub fn enumerate_keyed_mems(
        &self,
        fkey: &FunctionKey,
        module: &Module,
        func: &Function,
        inputs: &[Vec<Val>],
        mems: Memories<'_>,
        sem: Semantics,
        limits: Limits,
        engine: Engine,
        salt: u64,
        store: bool,
    ) -> Arc<Batch> {
        let enumerate = || enumerate_function_mems(module, func, inputs, mems, sem, limits, engine);
        if !is_self_contained(func) {
            return Arc::new(enumerate());
        }
        let key = CacheKey {
            key: fkey.clone(),
            sem,
            limits,
            engine,
            salt,
        };
        let stripe = &self.stripes[FastBuildHasher.hash_one(fkey) as usize % STRIPES];
        let mut st = stripe.lock().expect("cache lock");
        if let Some(entry) = st.map.get(&key).map(Arc::clone) {
            st.hits += 1;
            drop(st);
            global_cache_counters().0.incr();
            return entry;
        }
        st.misses += 1;
        drop(st);
        // Enumerate outside the lock: enumeration is the expensive part
        // and holding the lock across it would serialize every worker.
        // Two workers may race on the same key and both enumerate; the
        // result is identical and the second insert is a harmless
        // overwrite.
        global_cache_counters().1.incr();
        let entry = Arc::new(enumerate());
        if store {
            stripe
                .lock()
                .expect("cache lock")
                .map
                .insert(key, Arc::clone(&entry));
        }
        entry
    }

    /// The sum of `f` over the stripes.
    fn sum<T: std::iter::Sum>(&self, f: impl Fn(&Stripe) -> T) -> T {
        self.stripes
            .iter()
            .map(|s| f(&s.lock().expect("cache lock")))
            .sum()
    }

    /// Lookups answered from the table.
    pub fn hits(&self) -> u64 {
        self.sum(|s| s.hits)
    }

    /// Lookups that had to enumerate.
    pub fn misses(&self) -> u64 {
        self.sum(|s| s.misses)
    }

    /// Distinct (function, semantics) combinations stored.
    pub fn len(&self) -> usize {
        self.sum(|s| s.map.len())
    }

    /// Returns `true` if nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::enumerate_function;
    use frost_ir::parse_module;

    const F: &str = "define i2 @g(i2 %x) {\nentry:\n  %a = add i2 %x, 1\n  ret i2 %a\n}";

    fn inputs() -> Vec<Vec<Val>> {
        (0..4).map(|v| vec![Val::int(2, v)]).collect()
    }

    /// A stored probe of `name` on the empty memory, keyed on its body.
    fn probe(
        cache: &OutcomeCache,
        m: &Module,
        name: &str,
        inputs: &[Vec<Val>],
        sem: Semantics,
        salt: u64,
    ) -> Arc<EnumeratedOutcomes> {
        let key = FunctionKey::of(m.function(name).expect("function exists"));
        cache.enumerate_keyed(
            &key,
            m,
            name,
            inputs,
            &Memory::zeroed(0),
            sem,
            Limits::default(),
            Engine::Plan,
            salt,
            true,
        )
    }

    fn fresh(m: &Module, name: &str, inputs: &[Vec<Val>]) -> EnumeratedOutcomes {
        enumerate_function(
            m,
            name,
            inputs,
            &Memory::zeroed(0),
            Semantics::proposed(),
            Limits::default(),
            Engine::Plan,
        )
    }

    #[test]
    fn memoized_matches_fresh() {
        let m = parse_module(F).unwrap();
        let cache = OutcomeCache::new();
        let sem = Semantics::proposed();
        let fresh = fresh(&m, "g", &inputs());
        let cached = probe(&cache, &m, "g", &inputs(), sem, 0);
        assert!(fresh.iter().all(Result::is_ok));
        assert_eq!(&fresh, cached.as_ref());
        assert_eq!(cache.misses(), 1);
        let again = probe(&cache, &m, "g", &inputs(), sem, 0);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cached, again);
        // A hit hands out the stored batch itself, not a copy.
        let g = m.function("g").unwrap();
        let key = FunctionKey::of(g);
        let stored = |engine| {
            cache.enumerate_keyed_mems(
                &key,
                &m,
                g,
                &inputs(),
                Memories::One(&Memory::zeroed(0)),
                sem,
                Limits::default(),
                engine,
                0,
                true,
            )
        };
        for engine in [Engine::Plan, Engine::Auto] {
            assert!(Arc::ptr_eq(&stored(engine), &stored(engine)), "{engine:?}");
        }
        assert_eq!(stored(Engine::Auto).pairs(&[Memory::zeroed(0)]), fresh);
    }

    #[test]
    fn name_is_canonicalized_away() {
        let a = parse_module(F).unwrap();
        let b = parse_module(&F.replace("@g", "@differently_named")).unwrap();
        let cache = OutcomeCache::new();
        let sem = Semantics::proposed();
        probe(&cache, &a, "g", &inputs(), sem, 0);
        probe(&cache, &b, "differently_named", &inputs(), sem, 0);
        assert_eq!(cache.hits(), 1, "same body under a new name must hit");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn semantics_and_salt_separate_entries() {
        let m = parse_module(F).unwrap();
        let cache = OutcomeCache::new();
        probe(&cache, &m, "g", &inputs(), Semantics::proposed(), 0);
        probe(&cache, &m, "g", &inputs(), Semantics::legacy_gvn(), 0);
        probe(&cache, &m, "g", &inputs(), Semantics::proposed(), 1);
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn callers_are_keyed_by_module_not_by_body() {
        // @f's body is identical in both modules; only its callee differs.
        let caller = "define i2 @f() {\nentry:\n  %r = call i2 @g()\n  ret i2 %r\n}";
        let a = parse_module(&format!(
            "define i2 @g() {{\nentry:\n  ret i2 1\n}}\n{caller}"
        ))
        .unwrap();
        let b = parse_module(&format!(
            "define i2 @g() {{\nentry:\n  ret i2 2\n}}\n{caller}"
        ))
        .unwrap();
        let cache = OutcomeCache::new();
        let sem = Semantics::proposed();
        let run = |m: &Module, name: &str| probe(&cache, m, name, &[vec![]], sem, 0);
        assert_eq!(run(&a, "f").as_ref(), &fresh(&a, "f", &[vec![]]));
        assert_eq!(
            run(&b, "f").as_ref(),
            &fresh(&b, "f", &[vec![]]),
            "B must not get A's outcomes"
        );
        assert_ne!(fresh(&a, "f", &[vec![]]), fresh(&b, "f", &[vec![]]));
        assert!(cache.is_empty());
        assert_eq!(cache.hits() + cache.misses(), 0, "never probed");
        // The self-contained callee is cached as usual.
        run(&a, "g");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn striped_tallies_stay_exact_under_concurrency() {
        // Eight threads probe the same 24 keys (four bodies, so several
        // stripes, times six salts) in different orders; each key is
        // stored on its first miss.
        let bodies: Vec<Module> = [
            "add i2 %x, 1",
            "add i2 %x, 2",
            "sub i2 %x, 1",
            "mul i2 %x, 3",
        ]
        .iter()
        .map(|inst| parse_module(&F.replace("add i2 %x, 1", inst)).unwrap())
        .collect();
        let cache = OutcomeCache::new();
        let sem = Semantics::proposed();
        let probes_per_thread = 240;
        std::thread::scope(|s| {
            for t in 0..8 {
                let (bodies, cache) = (&bodies, &cache);
                s.spawn(move || {
                    for i in 0..probes_per_thread {
                        let k = (i + 5 * t) % 24;
                        probe(cache, &bodies[k % 4], "g", &inputs(), sem, k as u64 / 4);
                    }
                });
            }
        });
        assert_eq!(cache.hits() + cache.misses(), 8 * probes_per_thread as u64);
        assert_eq!(cache.len(), 24);
        assert!(cache.misses() >= 24, "every key misses once");
    }

    #[test]
    fn missing_function_is_an_error_not_a_panic() {
        let m = parse_module(F).unwrap();
        let cache = OutcomeCache::new();
        // Any key will do: a missing function is never probed.
        let key = FunctionKey::of(m.function("g").unwrap());
        let r = cache.enumerate_keyed(
            &key,
            &m,
            "nope",
            &inputs(),
            &Memory::zeroed(0),
            Semantics::proposed(),
            Limits::default(),
            Engine::Plan,
            0,
            true,
        );
        assert_eq!(
            r.len(),
            inputs().len(),
            "one entry per (memory, input) pair"
        );
        assert!(r
            .iter()
            .all(|e| matches!(e, Err(ExecError::BadFunction(_)))));
        assert!(cache.is_empty());
    }
}
