//! Outcome-enumeration memoization for validation campaigns.
//!
//! The §6 methodology checks millions of tiny functions, and the hot
//! loop is [`crate::exec::enumerate_outcomes`] run
//! once per (function, input) pair for both the source and the target
//! of every check. Campaign corpora are massively redundant: a no-op
//! transform leaves the target textually identical to the source, and
//! aggressive pipelines fold thousands of distinct inputs to the same
//! handful of canonical forms (`ret 0`, `ret %a`, …). [`OutcomeCache`]
//! memoizes the *entire per-input outcome vector* of a function under a
//! given semantics, so each distinct (function shape, semantics)
//! combination is enumerated exactly once per campaign.
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
//! result (input-enumeration options, test-memory size); callers that
//! enumerate inputs differently must use different salts.
//!
//! The fingerprint covers one body, so only functions whose behavior
//! that body fixes are memoized: a function that calls anything but
//! itself ([`is_self_contained`] is false) resolves those calls against
//! its module, and is enumerated afresh on every call — never probed,
//! never stored.
//!
//! The cache is thread-safe (a mutexed map plus atomic hit/miss
//! counters) and is shared by all workers of a parallel campaign. The
//! map hashes with [`crate::fasthash::FastHasher`]: keys are in-process
//! fingerprints of generated IR, so the keyed DoS resistance of the
//! default hasher buys nothing on this hot path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use frost_ir::{FunctionKey, Module};

use crate::engine::{enumerate_function, run_compiled, Engine};
use crate::exec::{reference, ExecError, Limits};
use crate::fasthash::FastHashMap;
use crate::mem::Memory;
use crate::outcome::OutcomeSet;
use crate::plan::{is_self_contained, PlanCache};
use crate::sem::Semantics;
use crate::val::Val;

/// The memoized result of enumerating one function on a fixed input
/// list: one entry per input tuple, each either the outcome set or the
/// enumeration failure on that input. Keeping failures *per input*
/// (rather than aborting the vector) lets a cached refinement check
/// reproduce the sequential checker's verdict exactly — including
/// which input it reports as inconclusive.
pub type EnumeratedOutcomes = Vec<Result<OutcomeSet, ExecError>>;

#[derive(Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    key: FunctionKey,
    sem: Semantics,
    limits: Limits,
    engine: Engine,
    salt: u64,
}

/// Enumerates every behavior of `name` in `module` on each input tuple
/// in turn (no caching — see [`OutcomeCache::enumerate`] for the
/// memoized variant).
///
/// Runs on the plan engine: the function is compiled once and all
/// inputs execute on one reused machine, so per-input cost is
/// execution only. For engine selection use
/// [`crate::engine::enumerate_function`].
pub fn enumerate_all_inputs(
    module: &Module,
    name: &str,
    inputs: &[Vec<Val>],
    mem: &Memory,
    sem: Semantics,
    limits: Limits,
) -> EnumeratedOutcomes {
    crate::engine::enumerate_function(module, name, inputs, mem, sem, limits, Engine::Plan)
}

/// A thread-safe memoization table for whole-function outcome
/// enumeration. See the [module docs](self) for the key structure.
#[derive(Default)]
pub struct OutcomeCache {
    map: Mutex<FastHashMap<CacheKey, Arc<EnumeratedOutcomes>>>,
    plans: PlanCache,
    hits: AtomicU64,
    misses: AtomicU64,
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

    /// A diagnostic rendering of the fingerprint the cache keys a
    /// function on: [`FunctionKey`]'s debug form (hash plus encoded
    /// body words). This replaces the retired canonical-text path —
    /// keys are structural, never stringly, and the debug rendering is
    /// only for telling cache entries apart in logs and tests.
    pub fn key_debug(module: &Module, name: &str) -> Option<String> {
        Some(format!("{:?}", FunctionKey::of(module.function(name)?)))
    }

    /// Memoized [`enumerate_all_inputs`]. On a hit the stored vector is
    /// returned without touching the interpreter; on a miss the
    /// enumeration runs and the result — including failures, which are
    /// just as expensive to rediscover — is stored.
    ///
    /// `salt` must fingerprint every input-shaping option that is not
    /// part of the key (input-enumeration options, memory size).
    // Every parameter is a distinct cache-key component; bundling them
    // into a struct would just move the field list one call up.
    #[allow(clippy::too_many_arguments)]
    pub fn enumerate(
        &self,
        module: &Module,
        name: &str,
        inputs: &[Vec<Val>],
        mem: &Memory,
        sem: Semantics,
        limits: Limits,
        engine: Engine,
        salt: u64,
    ) -> Arc<EnumeratedOutcomes> {
        let Some(func) = module.function(name) else {
            return Arc::new(vec![Err(ExecError::BadFunction(name.to_string()))]);
        };
        let key = FunctionKey::of(func);
        self.enumerate_keyed(
            &key, module, name, inputs, mem, sem, limits, engine, salt, true,
        )
    }

    /// [`OutcomeCache::enumerate`] for callers that already computed
    /// `name`'s [`FunctionKey`], with an explicit storage policy.
    ///
    /// `store = false` is for *transient* functions — exhaustive-sweep
    /// sources, which the odometer visits exactly once. The probe still
    /// runs (the shape may coincide with a canonical form some target
    /// check stored), but a miss enumerates without inserting into
    /// either the outcome map or the embedded plan cache, keeping the
    /// campaign's memory footprint bounded by the *target* shape count
    /// instead of the full enumerated space.
    ///
    /// `key` must be `FunctionKey::of` of `name`'s body; a mismatched
    /// key silently poisons the cache for that fingerprint.
    // Every parameter is a distinct cache-key component; bundling them
    // into a struct would just move the field list one call up.
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
        let Some(func) = module.function(name) else {
            return Arc::new(vec![Err(ExecError::BadFunction(name.to_string()))]);
        };
        if !is_self_contained(func) {
            return Arc::new(enumerate_function(
                module, name, inputs, mem, sem, limits, engine,
            ));
        }
        let key = CacheKey {
            key: fkey.clone(),
            sem,
            limits,
            engine,
            salt,
        };
        if let Some(entry) = self.map.lock().expect("cache lock").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            global_cache_counters().0.incr();
            return Arc::clone(entry);
        }
        // Enumerate outside the lock: enumeration is the expensive part
        // and holding the lock across it would serialize every worker.
        // Two workers may race on the same key and both enumerate; the
        // result is identical and the second insert is a harmless
        // overwrite.
        self.misses.fetch_add(1, Ordering::Relaxed);
        global_cache_counters().1.incr();
        let entry = Arc::new(if engine == Engine::Reference {
            inputs
                .iter()
                .map(|args| reference::enumerate_outcomes(module, name, args, mem, sem, limits))
                .collect()
        } else {
            // Compiled plans are cached separately from outcome vectors:
            // the plan key ignores limits, engine, and salt, so
            // re-enumerating the same function under different input
            // options still reuses the compilation. The fingerprint
            // computed above is reused as the plan key, under the same
            // storage policy.
            match self
                .plans
                .get_or_compile_keyed_policy(&key.key, module, name, sem, store)
            {
                Some((plan, idx)) => run_compiled(&plan, idx, inputs, mem, limits, engine),
                None => vec![Err(ExecError::BadFunction(name.to_string()))],
            }
        });
        if store {
            self.map
                .lock()
                .expect("cache lock")
                .insert(key, Arc::clone(&entry));
        }
        entry
    }

    /// The embedded plan cache (distinct compiled functions, plan-cache
    /// hit statistics).
    pub fn plans(&self) -> &PlanCache {
        &self.plans
    }

    /// Lookups answered from the table.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to enumerate.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// `hits / (hits + misses)`, or 0 for an unused cache.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits() as f64, self.misses() as f64);
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// Distinct (function, semantics) combinations stored.
    pub fn len(&self) -> usize {
        self.map.lock().expect("cache lock").len()
    }

    /// Returns `true` if nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frost_ir::parse_module;

    const F: &str = "define i2 @g(i2 %x) {\nentry:\n  %a = add i2 %x, 1\n  ret i2 %a\n}";

    fn inputs() -> Vec<Vec<Val>> {
        (0..4).map(|v| vec![Val::int(2, v)]).collect()
    }

    #[test]
    fn memoized_matches_fresh() {
        let m = parse_module(F).unwrap();
        let cache = OutcomeCache::new();
        let sem = Semantics::proposed();
        let fresh = enumerate_all_inputs(
            &m,
            "g",
            &inputs(),
            &Memory::zeroed(0),
            sem,
            Limits::default(),
        );
        let cached = cache.enumerate(
            &m,
            "g",
            &inputs(),
            &Memory::zeroed(0),
            sem,
            Limits::default(),
            Engine::Plan,
            0,
        );
        assert!(fresh.iter().all(Result::is_ok));
        assert_eq!(&fresh, cached.as_ref());
        assert_eq!(cache.misses(), 1);
        let again = cache.enumerate(
            &m,
            "g",
            &inputs(),
            &Memory::zeroed(0),
            sem,
            Limits::default(),
            Engine::Plan,
            0,
        );
        assert_eq!(cache.hits(), 1);
        assert!(Arc::ptr_eq(&cached, &again));
    }

    #[test]
    fn name_is_canonicalized_away() {
        let a = parse_module(F).unwrap();
        let b = parse_module(&F.replace("@g", "@differently_named")).unwrap();
        let cache = OutcomeCache::new();
        let sem = Semantics::proposed();
        cache.enumerate(
            &a,
            "g",
            &inputs(),
            &Memory::zeroed(0),
            sem,
            Limits::default(),
            Engine::Plan,
            0,
        );
        cache.enumerate(
            &b,
            "differently_named",
            &inputs(),
            &Memory::zeroed(0),
            sem,
            Limits::default(),
            Engine::Plan,
            0,
        );
        assert_eq!(cache.hits(), 1, "same body under a new name must hit");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn semantics_and_salt_separate_entries() {
        let m = parse_module(F).unwrap();
        let cache = OutcomeCache::new();
        let mem = Memory::zeroed(0);
        cache.enumerate(
            &m,
            "g",
            &inputs(),
            &mem,
            Semantics::proposed(),
            Limits::default(),
            Engine::Plan,
            0,
        );
        cache.enumerate(
            &m,
            "g",
            &inputs(),
            &mem,
            Semantics::legacy_gvn(),
            Limits::default(),
            Engine::Plan,
            0,
        );
        cache.enumerate(
            &m,
            "g",
            &inputs(),
            &mem,
            Semantics::proposed(),
            Limits::default(),
            Engine::Plan,
            1,
        );
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn plans_are_shared_across_salts() {
        let m = parse_module(F).unwrap();
        let cache = OutcomeCache::new();
        let mem = Memory::zeroed(0);
        let sem = Semantics::proposed();
        cache.enumerate(
            &m,
            "g",
            &inputs(),
            &mem,
            sem,
            Limits::default(),
            Engine::Plan,
            0,
        );
        cache.enumerate(
            &m,
            "g",
            &inputs(),
            &mem,
            sem,
            Limits::default(),
            Engine::Plan,
            1,
        );
        assert_eq!(cache.misses(), 2, "different salts miss the outcome cache");
        assert_eq!(cache.plans().len(), 1, "but share one compiled plan");
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
        let mem = Memory::zeroed(0);
        let run = |m: &Module, name: &str| {
            let inputs = [vec![]];
            cache.enumerate(
                m,
                name,
                &inputs,
                &mem,
                sem,
                Limits::default(),
                Engine::Plan,
                0,
            )
        };
        let fresh =
            |m: &Module| enumerate_all_inputs(m, "f", &[vec![]], &mem, sem, Limits::default());
        assert_eq!(run(&a, "f").as_ref(), &fresh(&a));
        assert_eq!(
            run(&b, "f").as_ref(),
            &fresh(&b),
            "B must not get A's outcomes"
        );
        assert_ne!(fresh(&a), fresh(&b));
        assert!(cache.is_empty() && cache.plans().is_empty());
        assert_eq!(cache.hits() + cache.misses(), 0, "never probed");
        // The self-contained callee is cached as usual.
        run(&a, "g");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn missing_function_is_an_error_not_a_panic() {
        let m = parse_module(F).unwrap();
        let cache = OutcomeCache::new();
        let r = cache.enumerate(
            &m,
            "nope",
            &inputs(),
            &Memory::zeroed(0),
            Semantics::proposed(),
            Limits::default(),
            Engine::Plan,
            0,
        );
        assert!(matches!(r[0], Err(ExecError::BadFunction(_))));
    }
}
