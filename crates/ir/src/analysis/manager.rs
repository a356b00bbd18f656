//! The invalidation-aware analysis manager.
//!
//! This module is frost's analogue of LLVM's *new pass manager* analysis
//! layer: analyses ([`Analysis`]) are computed lazily, cached per
//! function in a [`FunctionAnalysisManager`], and invalidated *precisely*
//! between passes according to the [`PreservedAnalyses`] set each pass
//! reports. The legacy shape — every loop pass calling
//! `DomTree::compute` from scratch — is gone: all analysis access in the
//! optimizer goes through [`FunctionAnalysisManager::get`].
//!
//! ## Staleness model
//!
//! Every manager carries a per-function *modification epoch*
//! ([`FunctionAnalysisManager::epoch`]). Whoever mutates a function is
//! responsible for calling [`FunctionAnalysisManager::invalidate`] with
//! the preserved set of the transformation; invalidation eagerly drops
//! every cache entry that is not preserved and bumps the epoch, so a
//! stale result is structurally impossible to observe through
//! [`FunctionAnalysisManager::get`] — the cache simply no longer holds
//! it. The `ir.analysis.compute` trace span records the epoch each
//! result was computed at for debugging.
//!
//! As a safety net for *lying* passes, debug builds additionally keep a
//! fingerprint of the block graph (block count plus every terminator's
//! successor list) alongside any CFG-dependent cache entry. If a pass
//! mutates the CFG but claims to preserve CFG-dependent analyses,
//! [`FunctionAnalysisManager::invalidate`] panics with the offending
//! function's name instead of letting the stale dominator tree drive the
//! next pass.
//!
//! ## Observability
//!
//! The manager is metered through `frost-telemetry` (see
//! docs/OBSERVABILITY.md): the counters
//! `frost.ir.analysis.<name>.{hits,misses,invalidations}` are always on,
//! and every cache-miss computation is wrapped in an
//! `ir.analysis.compute` span carrying the analysis name, the epoch,
//! and the function's block count when tracing is enabled.
//!
//! ## Example
//!
//! ```
//! use frost_ir::analysis::manager::{DomTreeAnalysis, FunctionAnalysisManager, PreservedAnalyses};
//! use frost_ir::parse_function;
//!
//! let f = parse_function(
//!     "define i32 @id(i32 %x) {\nentry:\n  ret i32 %x\n}\n",
//! ).unwrap();
//! let mut fam = FunctionAnalysisManager::new();
//! let dt = fam.get::<DomTreeAnalysis>(&f); // computed
//! let dt2 = fam.get::<DomTreeAnalysis>(&f); // cached
//! assert!(std::rc::Rc::ptr_eq(&dt, &dt2));
//! fam.invalidate(&f, &PreservedAnalyses::none()); // dropped
//! ```

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use frost_telemetry::{counter, Counter};

use crate::cfg;
use crate::dom::DomTree;
use crate::function::{Function, UseCounts};
use crate::loops::LoopInfo;
use crate::value::BlockId;

/// A stable, process-wide identity for an analysis kind.
///
/// The wrapped name doubles as the telemetry key segment:
/// `frost.ir.analysis.<name>.hits` and friends.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct AnalysisId(&'static str);

impl AnalysisId {
    /// Creates an id from a short, stable, lowercase name.
    pub const fn of(name: &'static str) -> AnalysisId {
        AnalysisId(name)
    }

    /// The analysis name (used in telemetry and reports).
    pub fn name(self) -> &'static str {
        self.0
    }
}

/// A lazily computed, cacheable per-function analysis.
///
/// Implementations are unit structs acting as type-level keys; the
/// payload lives in [`Analysis::Result`]. `compute` receives the manager
/// so analyses can be layered (e.g. [`LoopInfoAnalysis`] requests
/// [`DomTreeAnalysis`] instead of recomputing dominators).
pub trait Analysis: 'static {
    /// The computed result type.
    type Result: 'static;

    /// Stable identity; must be unique among all analyses.
    const ID: AnalysisId;

    /// Whether the result depends on the shape of the block graph.
    /// CFG-dependent entries participate in the debug-mode fingerprint
    /// check that catches passes lying about CFG preservation.
    const CFG_DEPENDENT: bool;

    /// Computes the analysis from scratch.
    fn compute(func: &Function, fam: &FunctionAnalysisManager) -> Self::Result;
}

/// The set of analyses a transformation promises it did not invalidate.
///
/// By convention a pass returns [`PreservedAnalyses::all`] **iff it made
/// no change at all**; any actual rewrite must return a strictly smaller
/// set (e.g. [`PreservedAnalyses::cfg`] for instruction-level rewrites
/// that leave the block graph intact, or [`PreservedAnalyses::none`] for
/// CFG surgery). The pass manager uses `preserves_all()` as its
/// "unchanged" signal for fixpoint detection.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PreservedAnalyses {
    all: bool,
    preserved: Vec<AnalysisId>,
}

impl PreservedAnalyses {
    /// Everything preserved — the transformation changed nothing.
    pub fn all() -> PreservedAnalyses {
        PreservedAnalyses {
            all: true,
            preserved: Vec::new(),
        }
    }

    /// Nothing preserved — every cached analysis is dropped.
    pub fn none() -> PreservedAnalyses {
        PreservedAnalyses {
            all: false,
            preserved: Vec::new(),
        }
    }

    /// The set preserved by instruction-level rewrites that do not touch
    /// the block graph: [`CfgAnalysis`], [`DomTreeAnalysis`] and
    /// [`LoopInfoAnalysis`] survive; value-level analyses (use counts,
    /// known bits) are invalidated.
    pub fn cfg() -> PreservedAnalyses {
        PreservedAnalyses::none()
            .preserve::<CfgAnalysis>()
            .preserve::<DomTreeAnalysis>()
            .preserve::<LoopInfoAnalysis>()
    }

    /// Returns the set with `A` additionally marked preserved.
    #[must_use]
    pub fn preserve<A: Analysis>(mut self) -> PreservedAnalyses {
        if !self.all && !self.preserved.contains(&A::ID) {
            self.preserved.push(A::ID);
        }
        self
    }

    /// Whether every analysis is preserved (the "no change" signal).
    pub fn preserves_all(&self) -> bool {
        self.all
    }

    /// Whether the analysis with `id` is preserved.
    pub fn is_preserved(&self, id: AnalysisId) -> bool {
        self.all || self.preserved.contains(&id)
    }

    /// Narrows `self` to the analyses preserved by *both* sets —
    /// the preserved set of running two transformations in sequence.
    pub fn intersect(&mut self, other: &PreservedAnalyses) {
        if other.all {
            return;
        }
        if self.all {
            *self = other.clone();
            return;
        }
        self.preserved.retain(|id| other.is_preserved(*id));
    }
}

/// One cached analysis result plus the bookkeeping invalidation needs.
struct CacheEntry {
    value: Rc<dyn Any>,
    /// Whether the result depends on the block graph — consulted by the
    /// debug-build lie detector ([`FunctionAnalysisManager::invalidate`]).
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    cfg_dependent: bool,
}

/// Telemetry handles for one analysis kind, resolved once per thread
/// ([`stats`]) so steady-state cache traffic is plain atomic adds.
#[derive(Clone, Copy)]
struct AnalysisStats {
    id: AnalysisId,
    hits: &'static Counter,
    misses: &'static Counter,
    invalidations: &'static Counter,
}

/// `id`'s handles: looked up in the metric registry the first time
/// this thread asks, so a manager built per pass takes no lock.
fn stats(id: AnalysisId) -> AnalysisStats {
    thread_local! {
        static RESOLVED: RefCell<Vec<AnalysisStats>> = const { RefCell::new(Vec::new()) };
    }
    RESOLVED.with_borrow_mut(|resolved| {
        if let Some(s) = resolved.iter().find(|s| s.id == id) {
            return *s;
        }
        let name = id.name();
        let s = AnalysisStats {
            id,
            hits: counter(&format!("frost.ir.analysis.{name}.hits")),
            misses: counter(&format!("frost.ir.analysis.{name}.misses")),
            invalidations: counter(&format!("frost.ir.analysis.{name}.invalidations")),
        };
        resolved.push(s);
        s
    })
}

/// Lazily computes and caches analyses for **one** function.
///
/// The manager does not hold a reference to the function; callers pass
/// it to [`FunctionAnalysisManager::get`] and are responsible for using
/// one manager per function (the pass manager keys its managers by
/// function index — see `ModuleAnalysisManager`).
///
/// Interior mutability (`RefCell`) keeps `get` usable from `&self`, so
/// passes can query analyses while holding `&mut Function`. The manager
/// is deliberately `!Sync`: each validation-campaign worker builds its
/// own.
pub struct FunctionAnalysisManager {
    entries: RefCell<HashMap<AnalysisId, CacheEntry>>,
    epoch: Cell<u64>,
    /// Fingerprint of the block graph at the time a CFG-dependent entry
    /// was last computed (debug-mode lie detection).
    cfg_stamp: Cell<u64>,
    force_recompute: bool,
}

impl FunctionAnalysisManager {
    /// An empty manager.
    pub fn new() -> FunctionAnalysisManager {
        FunctionAnalysisManager {
            entries: RefCell::new(HashMap::new()),
            epoch: Cell::new(0),
            cfg_stamp: Cell::new(0),
            force_recompute: false,
        }
    }

    /// A manager that never serves from cache: every
    /// [`FunctionAnalysisManager::get`] recomputes. This is the
    /// reference configuration the differential tests and the
    /// `analysis_cache` microbench compare against.
    pub fn with_forced_recompute() -> FunctionAnalysisManager {
        FunctionAnalysisManager {
            force_recompute: true,
            ..FunctionAnalysisManager::new()
        }
    }

    /// Whether this manager is in forced-recompute mode.
    pub fn forced_recompute(&self) -> bool {
        self.force_recompute
    }

    /// The modification epoch: bumped on every invalidation.
    pub fn epoch(&self) -> u64 {
        self.epoch.get()
    }

    /// Returns the (possibly cached) result of analysis `A` on `func`.
    ///
    /// On a cache miss the result is computed — inside an
    /// `ir.analysis.compute` span when tracing is enabled — and cached
    /// until an [`FunctionAnalysisManager::invalidate`] call drops it.
    pub fn get<A: Analysis>(&self, func: &Function) -> Rc<A::Result> {
        if !self.force_recompute {
            let cached = self.entries.borrow().get(&A::ID).map(|e| e.value.clone());
            if let Some(value) = cached {
                stats(A::ID).hits.incr();
                return value
                    .downcast::<A::Result>()
                    .expect("analysis id maps to one result type");
            }
        }
        stats(A::ID).misses.incr();
        let value = if frost_telemetry::enabled() {
            let mut sp = frost_telemetry::span("ir.analysis.compute")
                .field("analysis", A::ID.name())
                .field("epoch", self.epoch.get());
            let value = Rc::new(A::compute(func, self));
            sp.set("blocks", func.blocks.len() as u64);
            value
        } else {
            Rc::new(A::compute(func, self))
        };
        if A::CFG_DEPENDENT {
            self.cfg_stamp.set(cfg_fingerprint(func));
        }
        self.entries.borrow_mut().insert(
            A::ID,
            CacheEntry {
                value: value.clone(),
                cfg_dependent: A::CFG_DEPENDENT,
            },
        );
        value
    }

    /// Returns the cached result of `A`, if present (never computes).
    pub fn cached<A: Analysis>(&self) -> Option<Rc<A::Result>> {
        let value = self.entries.borrow().get(&A::ID)?.value.clone();
        value.downcast::<A::Result>().ok()
    }

    /// Drops every cache entry not in `pa` and bumps the epoch.
    ///
    /// This is the *only* way cached results die, so the code that
    /// mutates a function must call it with an honest preserved set. In
    /// debug builds, if a CFG-dependent entry survives (the set claims
    /// the block graph is intact) the current CFG fingerprint is checked
    /// against the one recorded at compute time, catching passes that
    /// mutate the CFG while claiming `PreservedAnalyses::all()` or
    /// [`PreservedAnalyses::cfg`].
    pub fn invalidate(&mut self, func: &Function, pa: &PreservedAnalyses) {
        if !pa.preserves_all() {
            let mut entries = self.entries.borrow_mut();
            let mut dropped: Vec<AnalysisId> = Vec::new();
            entries.retain(|id, _| {
                let keep = pa.is_preserved(*id);
                if !keep {
                    dropped.push(*id);
                }
                keep
            });
            drop(entries);
            for id in dropped {
                stats(id).invalidations.incr();
            }
            self.epoch.set(self.epoch.get() + 1);
        }
        #[cfg(debug_assertions)]
        self.assert_cfg_honest(func);
        #[cfg(not(debug_assertions))]
        let _ = func;
    }

    /// Drops everything (used after `Function::compact`, which renumbers
    /// every `InstId`) and bumps the epoch.
    pub fn clear(&mut self) {
        let dropped: Vec<AnalysisId> = self.entries.borrow().keys().copied().collect();
        if dropped.is_empty() {
            return;
        }
        self.entries.borrow_mut().clear();
        for id in dropped {
            stats(id).invalidations.incr();
        }
        self.epoch.set(self.epoch.get() + 1);
    }

    #[cfg(debug_assertions)]
    fn assert_cfg_honest(&self, func: &Function) {
        let entries = self.entries.borrow();
        if entries.values().any(|e| e.cfg_dependent) {
            assert!(
                self.cfg_stamp.get() == cfg_fingerprint(func),
                "analysis invalidation bug: the CFG of `@{}` changed, but the \
                 preserved set kept a CFG-dependent analysis alive \
                 (a pass claimed PreservedAnalyses::all()/cfg() after mutating \
                 the block graph)",
                func.name
            );
        }
    }
}

impl Default for FunctionAnalysisManager {
    fn default() -> FunctionAnalysisManager {
        FunctionAnalysisManager::new()
    }
}

/// Per-function analysis managers for a module, keyed by function index.
///
/// The pass manager threads one of these through a whole pipeline run so
/// analyses survive across passes (and across fixpoint iterations) for
/// every function in the module.
pub struct ModuleAnalysisManager {
    fams: Vec<FunctionAnalysisManager>,
    force_recompute: bool,
}

impl ModuleAnalysisManager {
    /// An empty manager.
    pub fn new() -> ModuleAnalysisManager {
        ModuleAnalysisManager {
            fams: Vec::new(),
            force_recompute: false,
        }
    }

    /// A manager whose per-function managers never serve from cache
    /// (see [`FunctionAnalysisManager::with_forced_recompute`]).
    pub fn with_forced_recompute() -> ModuleAnalysisManager {
        ModuleAnalysisManager {
            fams: Vec::new(),
            force_recompute: true,
        }
    }

    /// Whether this manager is in forced-recompute mode.
    pub fn forced_recompute(&self) -> bool {
        self.force_recompute
    }

    /// The analysis manager for the function at `index` in the module's
    /// function list (created on first access).
    pub fn function(&mut self, index: usize) -> &mut FunctionAnalysisManager {
        while self.fams.len() <= index {
            self.fams.push(if self.force_recompute {
                FunctionAnalysisManager::with_forced_recompute()
            } else {
                FunctionAnalysisManager::new()
            });
        }
        &mut self.fams[index]
    }

    /// Clears every per-function cache (module-level surgery such as
    /// inlining, or post-pipeline `compact`, invalidates everything).
    pub fn invalidate_all(&mut self) {
        for fam in &mut self.fams {
            fam.clear();
        }
    }
}

impl Default for ModuleAnalysisManager {
    fn default() -> ModuleAnalysisManager {
        ModuleAnalysisManager::new()
    }
}

/// A fingerprint of the block graph: block count plus every terminator's
/// successor list. Instruction-level rewrites leave it unchanged;
/// adding/removing blocks or retargeting edges does not.
pub fn cfg_fingerprint(func: &Function) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    func.blocks.len().hash(&mut h);
    for bb in &func.blocks {
        for succ in bb.term.successors() {
            succ.index().hash(&mut h);
        }
        u32::MAX.hash(&mut h); // block separator
    }
    h.finish()
}

/// The cached CFG shape: predecessors, successors, and a reverse
/// postorder (see [`CfgAnalysis`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Cfg {
    /// Predecessor blocks of each block, indexed by block index.
    pub preds: Vec<Vec<BlockId>>,
    /// Successor blocks of each block, indexed by block index.
    pub succs: Vec<Vec<BlockId>>,
    /// Reachable blocks in reverse postorder.
    pub rpo: Vec<BlockId>,
    /// RPO position of each block (`None` for unreachable blocks).
    pub rpo_number: Vec<Option<usize>>,
}

/// Analysis key for the CFG predecessor/successor maps and RPO.
pub struct CfgAnalysis;

impl Analysis for CfgAnalysis {
    type Result = Cfg;
    const ID: AnalysisId = AnalysisId::of("cfg");
    const CFG_DEPENDENT: bool = true;

    fn compute(func: &Function, _fam: &FunctionAnalysisManager) -> Cfg {
        let succs = func
            .block_ids()
            .map(|bb| func.block(bb).term.successors())
            .collect();
        Cfg {
            preds: func.predecessors(),
            succs,
            rpo: cfg::reverse_postorder(func),
            rpo_number: cfg::rpo_numbers(func),
        }
    }
}

/// Analysis key for the dominator tree ([`DomTree`]).
pub struct DomTreeAnalysis;

impl Analysis for DomTreeAnalysis {
    type Result = DomTree;
    const ID: AnalysisId = AnalysisId::of("domtree");
    const CFG_DEPENDENT: bool = true;

    fn compute(func: &Function, _fam: &FunctionAnalysisManager) -> DomTree {
        DomTree::compute(func)
    }
}

/// Analysis key for natural-loop structure ([`LoopInfo`]); layered on
/// [`DomTreeAnalysis`] through the manager.
pub struct LoopInfoAnalysis;

impl Analysis for LoopInfoAnalysis {
    type Result = LoopInfo;
    const ID: AnalysisId = AnalysisId::of("loopinfo");
    const CFG_DEPENDENT: bool = true;

    fn compute(func: &Function, fam: &FunctionAnalysisManager) -> LoopInfo {
        let dt = fam.get::<DomTreeAnalysis>(func);
        LoopInfo::compute(func, &dt)
    }
}

/// Analysis key for dense per-instruction use counts
/// ([`UseCounts`], a `Vec<u32>` indexed by `InstId`).
pub struct UseCountsAnalysis;

impl Analysis for UseCountsAnalysis {
    type Result = UseCounts;
    const ID: AnalysisId = AnalysisId::of("use_counts");
    const CFG_DEPENDENT: bool = false;

    fn compute(func: &Function, _fam: &FunctionAnalysisManager) -> UseCounts {
        func.use_counts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_function;
    use crate::Terminator;

    fn loopy() -> Function {
        parse_function(
            r#"
define i32 @f(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %i2, %head ]
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, %n
  br i1 %c, label %head, label %exit
exit:
  ret i32 %i2
}
"#,
        )
        .unwrap()
    }

    #[test]
    fn caches_and_layers() {
        let f = loopy();
        let fam = FunctionAnalysisManager::new();
        let li = fam.get::<LoopInfoAnalysis>(&f);
        assert_eq!(li.loops.len(), 1);
        // LoopInfo computed DomTree through the manager: it is cached.
        assert!(fam.cached::<DomTreeAnalysis>().is_some());
        let li2 = fam.get::<LoopInfoAnalysis>(&f);
        assert!(Rc::ptr_eq(&li, &li2));
    }

    #[test]
    fn precise_invalidation() {
        let f = loopy();
        let mut fam = FunctionAnalysisManager::new();
        let _ = fam.get::<DomTreeAnalysis>(&f);
        let _ = fam.get::<UseCountsAnalysis>(&f);
        let epoch = fam.epoch();
        fam.invalidate(&f, &PreservedAnalyses::cfg());
        assert!(fam.cached::<DomTreeAnalysis>().is_some());
        assert!(fam.cached::<UseCountsAnalysis>().is_none());
        assert!(fam.epoch() > epoch);
        fam.invalidate(&f, &PreservedAnalyses::none());
        assert!(fam.cached::<DomTreeAnalysis>().is_none());
    }

    #[test]
    fn preserves_all_keeps_everything() {
        let f = loopy();
        let mut fam = FunctionAnalysisManager::new();
        let dt = fam.get::<DomTreeAnalysis>(&f);
        let epoch = fam.epoch();
        fam.invalidate(&f, &PreservedAnalyses::all());
        assert!(Rc::ptr_eq(&dt, &fam.get::<DomTreeAnalysis>(&f)));
        assert_eq!(fam.epoch(), epoch);
    }

    #[test]
    fn forced_recompute_never_hits() {
        let f = loopy();
        let fam = FunctionAnalysisManager::with_forced_recompute();
        let a = fam.get::<DomTreeAnalysis>(&f);
        let b = fam.get::<DomTreeAnalysis>(&f);
        assert!(!Rc::ptr_eq(&a, &b));
    }

    #[test]
    fn intersect_narrows() {
        let mut pa = PreservedAnalyses::all();
        pa.intersect(&PreservedAnalyses::cfg());
        assert!(!pa.preserves_all());
        assert!(pa.is_preserved(DomTreeAnalysis::ID));
        assert!(!pa.is_preserved(UseCountsAnalysis::ID));
        pa.intersect(&PreservedAnalyses::none());
        assert!(!pa.is_preserved(DomTreeAnalysis::ID));
        let mut pb = PreservedAnalyses::none();
        pb.intersect(&PreservedAnalyses::all());
        assert_eq!(pb, PreservedAnalyses::none());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "analysis invalidation bug")]
    fn lying_preserved_set_is_caught() {
        let mut f = loopy();
        let mut fam = FunctionAnalysisManager::new();
        let _ = fam.get::<DomTreeAnalysis>(&f);
        // Mutate the CFG: cut the back edge.
        f.block_mut(crate::BlockId(1)).term = Terminator::Jmp(crate::BlockId(2));
        // ...but claim nothing changed.
        fam.invalidate(&f, &PreservedAnalyses::all());
    }
}
