//! Bit-sliced exhaustive evaluation: the third execution backend.
//!
//! The plan engine ([`crate::plan`]) runs one input tuple at a time;
//! §6-scale sweeps run the same tiny function on *every* tuple of its
//! input space, so even a compiled plan pays the interpreter loop once
//! per tuple. This module transposes that loop: each SSA value becomes
//! a set of **bitplanes** — one 64-bit word per possible concrete value
//! (a one-hot indicator: bit `l` of plane `v` says "in lane `l` this
//! value is `v`"), plus a poison plane and an undef plane — and each
//! input tuple becomes one *lane* of those words. Every `Step` of a
//! straight-line `FnPlan` lowers to a handful of AND/OR combinations
//! over the planes (binops become compile-time truth tables applied
//! plane-by-plane, so division UB, `nsw`-poison, and shift-overflow all
//! fall out of the same table walk), and a single pass evaluates the
//! function on all ≤64 tuples at once.
//!
//! ## Nondeterminism: plane-set enumeration
//!
//! Undef resolution, freeze, and nondeterministic select are *choice
//! points*. The plan engine demands choices lazily per run; here every
//! static choice site gets a variable with a compile-time domain, and
//! the bitplane program is evaluated once per point of the joint domain
//! (an odometer over the variables). Per lane this is a superset of the
//! lazily-demanded enumeration: a lane that never demands a variable
//! produces the same outcome at every value of it, and the sorted
//! deduplicating `OutcomeSet` absorbs the repeats — so the per-lane
//! union over all scripts equals the plan engine's per-tuple set
//! exactly. Eligibility (see [`BitslicePlan::compile`]) caps the joint
//! domain and rules out every limit error either engine could hit, so
//! agreement is byte-identical, not merely observational.
//!
//! The reference tree-walk and the plan machine survive as differential
//! oracles; `tests/exec_bitslice.rs` gates all three engines against
//! each other over the §6 corpus.

use std::cell::RefCell;
use std::sync::{Arc, OnceLock};

use frost_ir::{BinOp, CastKind, Cond, Flags, Ty};

use crate::exec::{ExecError, Limits};
use crate::fasthash::FastHashMap;
use crate::ops::{eval_binop, eval_cast, eval_icmp, ScalarResult};
use crate::outcome::{Outcome, OutcomeSet};
use crate::plan::{FnPlan, ModulePlan, Opnd, Step};
use crate::sem::PoisonAction;
use crate::val::{Bit, Val};

/// Widest integer the backend slices: `1 << MAX_BITS` value planes.
const MAX_BITS: u32 = 3;
/// Value planes per register (`1 << MAX_BITS`).
const NVALS: usize = 1 << MAX_BITS;
/// Cap on the joint choice domain (scripts per pass); programs beyond
/// it fall back to the plan engine under [`Engine::Auto`].
///
/// [`Engine::Auto`]: crate::engine::Engine::Auto
const SCRIPT_CAP: u64 = 4096;

/// Outcome codes accumulated across scripts. Codes `0..NVALS` are the
/// concrete return values; the rest are below. Accumulation is itself
/// plane-sliced: one lane-mask word per code, OR-merged per script.
const CODE_POISON: u32 = 8;
const CODE_UNDEF: u32 = 9;
const CODE_UB: u32 = 10;
const CODE_RET_VOID: u32 = 11;
const NCODES: usize = 12;

/// One outcome class a lane can reach. A lane's [`OutcomeSet`] holds
/// one [`Outcome`] per code it reaches.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Code {
    /// Immediate UB.
    Ub,
    /// `ret void`.
    RetVoid,
    /// Returns the defined integer `v` at the batch's return width.
    Val(u8),
    /// Returns poison.
    Poison,
    /// Returns undef.
    Undef,
}

impl Code {
    /// Index of this code's lane mask.
    fn index(self) -> usize {
        match self {
            Code::Val(v) => usize::from(v),
            Code::Poison => CODE_POISON as usize,
            Code::Undef => CODE_UNDEF as usize,
            Code::Ub => CODE_UB as usize,
            Code::RetVoid => CODE_RET_VOID as usize,
        }
    }
}

/// What one [`BitslicePlan::evaluate`] pass found: for each outcome
/// [`Code`], the mask of lanes (bit `l` is input tuple `l`) in which
/// some choice script reaches it. Twelve words stand for one
/// [`OutcomeSet`] per tuple; the refinement checker compares two of
/// them with word operations and materializes only a violating lane.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Lanes {
    seen: [u64; NCODES],
    lanes: usize,
    ret_bits: u32,
}

impl Lanes {
    /// `lanes` lanes that reach nothing yet, returning `ret_bits`-wide
    /// integers (0 for `void`).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` exceeds 64.
    pub fn new(lanes: usize, ret_bits: u32) -> Lanes {
        assert!(lanes <= 64, "{lanes} lanes do not fit one word");
        Lanes {
            seen: [0; NCODES],
            lanes,
            ret_bits,
        }
    }

    /// Records that lane `lane` can reach `code`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or `code` is a value of more
    /// than three bits.
    pub fn insert(&mut self, lane: usize, code: Code) {
        assert!(lane < self.lanes, "lane {lane} of {}", self.lanes);
        self.seen[code.index()] |= 1 << lane;
    }

    /// The lanes that can reach `code`.
    ///
    /// # Panics
    ///
    /// Panics if `code` is a value of more than three bits.
    pub fn mask(&self, code: Code) -> u64 {
        self.seen[code.index()]
    }

    /// Number of lanes (input tuples).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Width of the returned integers: 0 for `void`, and for a return
    /// of a poison constant, which has no width of its own.
    pub fn ret_bits(&self) -> u32 {
        self.ret_bits
    }

    /// Lane `lane` as the [`OutcomeSet`] the plan engine enumerates for
    /// its tuple, with `mem` as every return's final memory snapshot.
    pub fn outcomes(&self, lane: usize, mem: &[Bit]) -> OutcomeSet {
        // Gather this lane's bit from each code mask.
        let mut s = 0u16;
        for (c, mask) in self.seen.iter().enumerate() {
            s |= ((mask >> lane & 1) as u16) << c;
        }
        let reaches = |code: Code| s >> code.index() & 1 == 1;
        // Emitted in ascending `Outcome` order (`Ub < Ret`,
        // `None < Some`, `Int < Poison < Undef`) with exact capacity, so
        // no sorting or insertion shifting.
        let mut outcomes = Vec::with_capacity(s.count_ones() as usize);
        if reaches(Code::Ub) {
            outcomes.push(Outcome::Ub);
        }
        let mut ret = |val: Option<Val>| {
            outcomes.push(Outcome::Ret {
                val,
                mem: mem.to_vec(),
                trace: Vec::new(),
            });
        };
        if reaches(Code::RetVoid) {
            ret(None);
        }
        for v in 0..NVALS as u8 {
            if reaches(Code::Val(v)) {
                ret(Some(Val::int(self.ret_bits, u128::from(v))));
            }
        }
        if reaches(Code::Poison) {
            ret(Some(Val::Poison));
        }
        if reaches(Code::Undef) {
            ret(Some(Val::Undef(Ty::Int(self.ret_bits))));
        }
        OutcomeSet::from_sorted(outcomes)
    }

    /// Every lane's [`OutcomeSet`], in tuple order, under one final
    /// memory snapshot.
    pub fn sets(&self, mem: &[Bit]) -> Vec<OutcomeSet> {
        (0..self.lanes).map(|l| self.outcomes(l, mem)).collect()
    }
}

/// One SSA value across every lane: one-hot value-indicator planes plus
/// a poison plane and an undef plane. Invariant: for each live lane
/// exactly one of `val[0..n]`, `poison`, `undef` has the lane bit set.
#[derive(Clone, Copy, Default)]
struct Planes {
    val: [u64; NVALS],
    poison: u64,
    undef: u64,
}

/// Output class of one truth-table entry.
#[derive(Clone, Copy)]
enum Class {
    Val(u8),
    Poison,
    Undef,
    Ub,
}

/// Memoization key for a truth table: tables depend only on the
/// opcode, its attributes, and the operand width — never on the
/// function being lowered — so each worker thread computes each one
/// once per process instead of once per compiled function.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum TabKey {
    Bin {
        op: BinOp,
        flags: Flags,
        bits: u32,
        undef_on_wrap: bool,
    },
    Icmp {
        cond: Cond,
        bits: u32,
    },
    Cast {
        kind: CastKind,
        from_bits: u32,
        to_bits: u32,
    },
}

thread_local! {
    static TABLES: RefCell<FastHashMap<TabKey, Arc<[Class]>>> =
        RefCell::new(FastHashMap::default());
    static TABLE_MRU: RefCell<Vec<(TabKey, Arc<[Class]>)>> = const { RefCell::new(Vec::new()) };
}

/// Entries kept in the move-to-front probe line in front of [`TABLES`].
/// A §6 sweep compiles millions of near-identically shaped functions,
/// so consecutive compiles request the same handful of tables over and
/// over; eight slots cover a whole op/width family and turn the common
/// lookup into a short scan of `Copy` keys instead of a hash probe.
const TABLE_MRU_CAP: usize = 8;

/// Returns the memoized truth table for `key`, building it on first
/// use. `Arc`-shared so cached compiles stay `Send`.
fn memo_table(key: TabKey, build: impl FnOnce() -> Vec<Class>) -> Arc<[Class]> {
    TABLE_MRU.with(|mru| {
        let mut mru = mru.borrow_mut();
        if let Some(i) = mru.iter().position(|(k, _)| *k == key) {
            if i > 0 {
                let entry = mru.remove(i);
                mru.insert(0, entry);
            }
            return mru[0].1.clone();
        }
        let table = TABLES.with(|t| {
            t.borrow_mut()
                .entry(key)
                .or_insert_with(|| build().into())
                .clone()
        });
        mru.insert(0, (key, Arc::clone(&table)));
        mru.truncate(TABLE_MRU_CAP);
        table
    })
}

/// One lowered operation over the register file of [`Planes`].
enum SOp {
    /// Resolve undef at a use (§3.1): lanes with the undef bit set
    /// collapse to the value chosen by `var`; everything else copies.
    Resolve { src: u32, dst: u32, var: u32 },
    /// Binary op or icmp via a `(n+1)²` truth table; row/column `n`
    /// is the poison class. Entries may be UB (division).
    Table2 {
        table: Arc<[Class]>,
        n: usize,
        lhs: u32,
        rhs: u32,
        dst: u32,
    },
    /// Unary op (casts) via a `n+1` truth table; entry `n` is poison.
    Table1 {
        table: Arc<[Class]>,
        n: usize,
        val: u32,
        dst: u32,
    },
    Select {
        poison_cond: PoisonAction,
        propagate_unselected: bool,
        /// Present iff the condition may be poison under `Nondet`.
        nondet_var: Option<u32>,
        cond: u32,
        tval: u32,
        fval: u32,
        dst: u32,
    },
    Freeze {
        /// Present iff the operand may be poison or undef.
        var: Option<u32>,
        n: usize,
        val: u32,
        dst: u32,
    },
}

/// What the final `ret` returns.
enum RetSpec {
    Void,
    Reg(u32),
}

/// A register-file checkpoint taken just before a choice site: the
/// machine state there depends only on earlier variables, so suffix
/// re-execution resumes from it when a later variable advances.
#[derive(Default)]
struct Snap {
    regs: Vec<Planes>,
    ub: u64,
}

/// Per-thread evaluation arena, reused across [`BitslicePlan::evaluate`]
/// calls: generated §6 functions are near-identically shaped, so the
/// buffers reach steady-state capacity after the first few functions
/// and the hot loop stops allocating entirely. (The inner `Snap`
/// register vectors keep their capacity across reuse too.)
#[derive(Default)]
struct Scratch {
    regs: Vec<Planes>,
    snaps: Vec<Snap>,
    choice: Vec<u64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Plane-word operations one execution of `op` performs (telemetry:
/// `frost.core.bitslice.plane_ops` counts operations actually
/// executed, so suffix re-execution is visible as a reduction).
fn op_weight(op: &SOp) -> u64 {
    match op {
        SOp::Resolve { .. } | SOp::Freeze { .. } => NVALS as u64 + 2,
        SOp::Table2 { n, .. } => ((n + 1) * (n + 1)) as u64,
        SOp::Table1 { n, .. } => *n as u64 + 1,
        SOp::Select { .. } => NVALS as u64 + 8,
    }
}

/// A function compiled to a bitplane program over a fixed input-tuple
/// list. Build with [`BitslicePlan::compile`]; run every tuple at once
/// with [`BitslicePlan::evaluate`].
pub struct BitslicePlan {
    ops: Vec<SOp>,
    /// Register-file template: parameter and constant planes filled in,
    /// instruction/scratch registers zeroed (each is written before it
    /// is read — straight-line SSA).
    regs_init: Vec<Planes>,
    reg_bits: Vec<u32>,
    /// Choice-variable domains, in static demand order.
    vars: Vec<u64>,
    /// For each variable, the index of the (unique) op consuming it.
    /// Strictly ascending: variables are allocated in op order.
    var_op: Vec<u32>,
    lanes: usize,
    ret: RetSpec,
}

/// Always-on counters (`frost.core.bitslice.*`; see
/// docs/OBSERVABILITY.md).
struct BitsliceCounters {
    compiles: &'static frost_telemetry::Counter,
    plane_ops: &'static frost_telemetry::Counter,
    tuples_per_pass: &'static frost_telemetry::Counter,
    mem_rejects: &'static frost_telemetry::Counter,
    guard_rejects: &'static frost_telemetry::Counter,
}

fn bitslice_counters() -> &'static BitsliceCounters {
    static COUNTERS: OnceLock<BitsliceCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| BitsliceCounters {
        compiles: frost_telemetry::counter("frost.core.bitslice.compiles"),
        plane_ops: frost_telemetry::counter("frost.core.bitslice.plane_ops"),
        tuples_per_pass: frost_telemetry::counter("frost.core.bitslice.tuples_per_pass"),
        mem_rejects: frost_telemetry::counter("frost.core.bitslice.mem_rejects"),
        guard_rejects: frost_telemetry::counter("frost.core.bitslice.guard_rejects"),
    })
}

fn ineligible(why: impl Into<String>) -> ExecError {
    ExecError::Unsupported(format!("bitslice: {}", why.into()))
}

/// Compile-time state while lowering one `FnPlan`.
struct Lowerer {
    ops: Vec<SOp>,
    regs_init: Vec<Planes>,
    reg_bits: Vec<u32>,
    may_poison: Vec<bool>,
    may_undef: Vec<bool>,
    vars: Vec<u64>,
    var_op: Vec<u32>,
    num_params: usize,
    num_consts: usize,
}

impl Lowerer {
    /// Register index of a plan operand.
    fn reg(&self, o: Opnd) -> u32 {
        match o {
            Opnd::Slot(i) if (i as usize) < self.num_params => i,
            Opnd::Slot(i) => i + self.num_consts as u32,
            Opnd::Const(i) => self.num_params as u32 + i,
        }
    }

    /// Register index of a step's destination slot.
    fn dst_reg(&self, dst: u32) -> u32 {
        dst + self.num_consts as u32
    }

    fn push_reg(&mut self, planes: Planes, bits: u32, mp: bool, mu: bool) -> u32 {
        self.regs_init.push(planes);
        self.reg_bits.push(bits);
        self.may_poison.push(mp);
        self.may_undef.push(mu);
        (self.regs_init.len() - 1) as u32
    }

    fn set_dst(&mut self, reg: u32, bits: u32, mp: bool, mu: bool) {
        let r = reg as usize;
        self.reg_bits[r] = bits;
        self.may_poison[r] = mp;
        self.may_undef[r] = mu;
    }

    /// Allocates a choice variable. Must be called immediately before
    /// pushing the op that consumes it — the suffix re-execution in
    /// [`BitslicePlan::evaluate`] relies on `var_op` naming that op.
    fn push_var(&mut self, domain: u64) -> u32 {
        self.vars.push(domain);
        self.var_op.push(self.ops.len() as u32);
        (self.vars.len() - 1) as u32
    }

    /// Emits an undef-resolving copy for a use site if the operand may
    /// be undef (each *use* resolves independently, as in the plan
    /// engine's `resolve_use`). Returns the register to read instead.
    fn resolve(&mut self, reg: u32) -> Result<u32, ExecError> {
        if !self.may_undef[reg as usize] {
            return Ok(reg);
        }
        let bits = self.reg_bits[reg as usize];
        if bits == 0 || bits > MAX_BITS {
            return Err(ineligible(format!("cannot resolve undef of {bits} bits")));
        }
        let var = self.push_var(1u64 << bits);
        let mp = self.may_poison[reg as usize];
        let dst = self.push_reg(Planes::default(), bits, mp, false);
        self.ops.push(SOp::Resolve { src: reg, dst, var });
        Ok(dst)
    }
}

/// Classifies `eval_binop`'s verdict, applying the §2.4 strawman
/// (`undef_on_wrap`) exactly as the plan engine's `bin_scalar` does.
fn bin_class(op: BinOp, flags: frost_ir::Flags, bits: u32, uow: bool, x: u128, y: u128) -> Class {
    match eval_binop(op, flags, bits, x, y) {
        ScalarResult::Val(v) => Class::Val(v as u8),
        ScalarResult::Poison => {
            if uow {
                Class::Undef
            } else {
                Class::Poison
            }
        }
        ScalarResult::Ub => Class::Ub,
    }
}

impl BitslicePlan {
    /// Lowers function `idx` of `plan` to a bitplane program over
    /// `inputs` (one lane per tuple).
    ///
    /// # Eligibility
    ///
    /// Returns [`ExecError::Unsupported`] unless the function is
    /// straight-line (a single block of `Bin`/`Icmp`/`Select`/`Freeze`/
    /// `Cast` steps ending in `ret`), all values are scalar integers of
    /// ≤ 3 bits, there are at most 64 input tuples (all integers,
    /// poison, or undef), the joint choice domain is small, and
    /// `limits` are generous enough that neither this backend nor the
    /// plan engine could hit a fuel/state/fanout error — which is what
    /// makes the two engines' outcome sets *byte-identical* rather than
    /// merely equivalent.
    ///
    /// # Errors
    ///
    /// All failures are eligibility failures, reported as
    /// [`ExecError::Unsupported`].
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn compile(
        plan: &ModulePlan,
        idx: usize,
        inputs: &[Vec<Val>],
        limits: Limits,
    ) -> Result<BitslicePlan, ExecError> {
        let fp: &FnPlan = plan.fn_plan(idx);
        let lanes = inputs.len();
        if lanes == 0 || lanes > 64 {
            return Err(ineligible(format!("{lanes} input tuples (need 1..=64)")));
        }
        if inputs.iter().any(|t| t.len() != fp.num_params) {
            return Err(ineligible("argument-count mismatch"));
        }

        let mut lo = Lowerer {
            ops: Vec::with_capacity(fp.steps.len() * 2),
            regs_init: Vec::new(),
            reg_bits: Vec::new(),
            may_poison: Vec::new(),
            may_undef: Vec::new(),
            vars: Vec::new(),
            var_op: Vec::new(),
            num_params: fp.num_params,
            num_consts: fp.consts.len(),
        };

        // Parameter planes: transpose the tuple list into lane masks.
        for p in 0..fp.num_params {
            let mut planes = Planes::default();
            let mut bits: Option<u32> = None;
            for (l, tuple) in inputs.iter().enumerate() {
                let lane = 1u64 << l;
                match &tuple[p] {
                    Val::Int { bits: b, v } if *b <= MAX_BITS => {
                        if *bits.get_or_insert(*b) != *b {
                            return Err(ineligible("mixed widths for one parameter"));
                        }
                        planes.val[*v as usize] |= lane;
                    }
                    Val::Poison => planes.poison |= lane,
                    Val::Undef(Ty::Int(b)) if *b <= MAX_BITS => {
                        if *bits.get_or_insert(*b) != *b {
                            return Err(ineligible("mixed widths for one parameter"));
                        }
                        planes.undef |= lane;
                    }
                    // A pointer argument makes this a memory function,
                    // ineligible for the reason its memory steps are
                    // (see `lower_step`); counting it here, once per
                    // compile, is what makes `mem_rejects` see the
                    // memory domain at all.
                    Val::Ptr(_) => {
                        bitslice_counters().mem_rejects.incr();
                        return Err(ineligible(format!("argument {}", tuple[p])));
                    }
                    other => return Err(ineligible(format!("argument {other}"))),
                }
            }
            let Some(bits) = bits else {
                return Err(ineligible("parameter with no defined input value"));
            };
            let (mp, mu) = (planes.poison != 0, planes.undef != 0);
            lo.push_reg(planes, bits, mp, mu);
        }

        // Constant planes: the same class in every lane.
        let all = if lanes == 64 {
            u64::MAX
        } else {
            (1u64 << lanes) - 1
        };
        for c in &fp.consts {
            match c {
                Val::Int { bits, v } if *bits <= MAX_BITS => {
                    let mut planes = Planes::default();
                    planes.val[*v as usize] = all;
                    lo.push_reg(planes, *bits, false, false);
                }
                Val::Poison => {
                    let planes = Planes {
                        poison: all,
                        ..Planes::default()
                    };
                    lo.push_reg(planes, 0, true, false);
                }
                Val::Undef(Ty::Int(bits)) if *bits <= MAX_BITS => {
                    let planes = Planes {
                        undef: all,
                        ..Planes::default()
                    };
                    lo.push_reg(planes, *bits, false, true);
                }
                other => return Err(ineligible(format!("constant {other}"))),
            }
        }
        // Instruction registers: sized to the highest slot any step
        // names (instruction ids may be sparse), poison-filled like the
        // plan's frame — SSA writes every live slot before its first
        // read, so the filler is only ever visible to malformed input.
        let mut max_slot_excl = fp.num_params as u32;
        for step in &fp.steps {
            let mut touch = |o: &Opnd| {
                if let Opnd::Slot(i) = o {
                    max_slot_excl = max_slot_excl.max(i + 1);
                }
            };
            match step {
                Step::Bin { lhs, rhs, dst, .. } | Step::Icmp { lhs, rhs, dst, .. } => {
                    touch(lhs);
                    touch(rhs);
                    max_slot_excl = max_slot_excl.max(dst + 1);
                }
                Step::Select {
                    cond,
                    tval,
                    fval,
                    dst,
                    ..
                } => {
                    touch(cond);
                    touch(tval);
                    touch(fval);
                    max_slot_excl = max_slot_excl.max(dst + 1);
                }
                Step::Freeze { val, dst, .. } | Step::Cast { val, dst, .. } => {
                    touch(val);
                    max_slot_excl = max_slot_excl.max(dst + 1);
                }
                Step::Ret { val: Some(o) } => touch(o),
                Step::Ret { val: None } => {}
                _ => {} // rejected by lower_step below
            }
        }
        let poison_fill = Planes {
            poison: all,
            ..Planes::default()
        };
        for _ in fp.num_params as u32..max_slot_excl {
            lo.push_reg(poison_fill, 0, true, false);
        }

        // Guards are categorically ineligible, like memory: `assume`
        // and `unreachable` turn per-lane facts into *immediate* UB,
        // but one shared pass evaluates all lanes together — a single
        // UB lane would have to poison-taint the whole register file.
        // The plan compiler flags them (via the descriptor table's
        // `UbClass::Guard`); reject before the trailing-ret shape check
        // so that `unreachable`-terminated bodies (which have no
        // trailing ret) still land on this counter, and bump it exactly
        // once per compile so `Engine::Auto` fallbacks are countable.
        if fp.has_guards {
            bitslice_counters().guard_rejects.incr();
            return Err(ineligible("guard instruction"));
        }

        let Some((Step::Ret { val: ret_val }, body)) = fp.steps.split_last() else {
            return Err(ineligible("no trailing ret"));
        };

        for step in body {
            lower_step(&mut lo, step)?;
        }

        let ret = match ret_val {
            None => RetSpec::Void,
            Some(o) => {
                let r = lo.reg(*o);
                let bits = lo.reg_bits[r as usize];
                if bits > MAX_BITS {
                    return Err(ineligible("wide return"));
                }
                RetSpec::Reg(r)
            }
        };

        // Joint choice domain and limit headroom: rule out every path
        // on which either engine could report a limit error, so set
        // equality is guaranteed, not sampled.
        let mut product: u64 = 1;
        for &d in &lo.vars {
            if d > limits.max_fanout {
                return Err(ineligible("choice domain exceeds fanout limit"));
            }
            product = product.saturating_mul(d);
            if product > SCRIPT_CAP {
                return Err(ineligible("joint choice domain too large"));
            }
        }
        // The plan engine charges one entry-block visit plus one step
        // per non-terminator instruction per run.
        if u64::try_from(fp.steps.len()).unwrap_or(u64::MAX) + 1 > limits.max_steps {
            return Err(ineligible("step limit too tight"));
        }
        // Worst-case states per tuple in the plan engine's DFS is
        // bounded by the full choice tree; `1 + depth·product` bounds
        // the prefix-product sum for any demand order.
        let states_bound = 1 + (lo.vars.len() as u64).saturating_mul(product);
        if states_bound > limits.max_states {
            return Err(ineligible("state limit too tight"));
        }

        bitslice_counters().compiles.incr();
        Ok(BitslicePlan {
            ops: lo.ops,
            regs_init: lo.regs_init,
            reg_bits: lo.reg_bits,
            vars: lo.vars,
            var_op: lo.var_op,
            lanes,
            ret,
        })
    }

    /// Number of input tuples (lanes) evaluated per pass.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of choice scripts one [`BitslicePlan::evaluate`] pass
    /// enumerates (the joint nondeterminism domain).
    pub fn scripts(&self) -> u64 {
        self.vars.iter().product::<u64>().max(1)
    }

    /// Evaluates every lane under every choice script and returns the
    /// outcome codes each lane can reach, as lane masks. Materializing
    /// lane `i` ([`Lanes::outcomes`]) is byte-identical to running
    /// [`ModulePlan::enumerate`] on tuple `i`.
    ///
    /// The odometer over the joint choice domain bumps the *last*
    /// variable fastest, and the register file is checkpointed just
    /// before each choice site — machine state there depends only on
    /// earlier variables — so the common step re-executes just the ops
    /// after the final choice site instead of the whole program.
    ///
    /// Eligible programs never touch memory, so one evaluation serves
    /// every initial memory: a memory reaches the outcomes only as the
    /// final snapshot [`Lanes::outcomes`] is given.
    pub fn evaluate(&self) -> Lanes {
        let ctrs = bitslice_counters();
        ctrs.tuples_per_pass.add(self.lanes as u64);

        // §6 sweeps call `evaluate` once per generated function; the
        // register file, the per-variable checkpoints, and the choice
        // odometer are all shaped alike across those calls, so each
        // worker thread reuses one scratch arena instead of paying a
        // malloc/free round-trip (and the allocator's trim churn) per
        // function.
        let seen = SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let Scratch {
                regs,
                snaps,
                choice,
            } = scratch;
            regs.clear();
            regs.extend_from_slice(&self.regs_init);
            let nvars = self.vars.len();
            if snaps.len() < nvars {
                snaps.resize_with(nvars, Snap::default);
            }
            let snaps = &mut snaps[..nvars];
            choice.clear();
            choice.resize(nvars, 0);

            let mut seen = [0u64; NCODES];
            let mut executed: u64 = 0;
            let ub = self.run_range(0, regs, 0, choice, snaps, 0, &mut executed);
            self.record(regs, ub, &mut seen);
            'odometer: loop {
                // Find the last variable with room to advance;
                // everything after it wraps to zero.
                let mut d = nvars;
                loop {
                    if d == 0 {
                        break 'odometer;
                    }
                    d -= 1;
                    choice[d] += 1;
                    if choice[d] < self.vars[d] {
                        break;
                    }
                    choice[d] = 0;
                }
                // Restore the checkpoint taken before variable `d`'s op
                // and re-run the suffix (re-checkpointing later
                // variables).
                let start = self.var_op[d] as usize;
                let start_ub = snaps[d].ub;
                regs.clear();
                regs.extend_from_slice(&snaps[d].regs);
                let ub = self.run_range(start, regs, start_ub, choice, snaps, d + 1, &mut executed);
                self.record(regs, ub, &mut seen);
            }
            ctrs.plane_ops.add(executed);
            seen
        });
        Lanes {
            seen,
            lanes: self.lanes,
            ret_bits: match &self.ret {
                RetSpec::Void => 0,
                RetSpec::Reg(r) => self.reg_bits[*r as usize],
            },
        }
    }

    /// Executes `ops[start..]` under the current choice script, taking
    /// a checkpoint just before each choice site from `next_var` on.
    /// Takes the accumulated UB mask at `start` and returns the final
    /// one; `executed` accrues plane-word operation counts (telemetry).
    #[allow(clippy::too_many_arguments)]
    fn run_range(
        &self,
        start: usize,
        regs: &mut [Planes],
        mut ub: u64,
        choice: &[u64],
        snaps: &mut [Snap],
        mut next_var: usize,
        executed: &mut u64,
    ) -> u64 {
        for (i, op) in self.ops.iter().enumerate().skip(start) {
            if next_var < self.var_op.len() && self.var_op[next_var] as usize == i {
                snaps[next_var].regs.clear();
                snaps[next_var].regs.extend_from_slice(regs);
                snaps[next_var].ub = ub;
                next_var += 1;
            }
            *executed += op_weight(op);
            match op {
                SOp::Resolve { src, dst, var } => {
                    let s = regs[*src as usize];
                    let k = choice[*var as usize] as usize;
                    let mut out = Planes {
                        val: s.val,
                        poison: s.poison,
                        undef: 0,
                    };
                    out.val[k] |= s.undef;
                    regs[*dst as usize] = out;
                }
                SOp::Table2 {
                    table,
                    n,
                    lhs,
                    rhs,
                    dst,
                } => {
                    let a = regs[*lhs as usize];
                    let b = regs[*rhs as usize];
                    let mut out = Planes::default();
                    let sel = |p: &Planes, i: usize| if i == *n { p.poison } else { p.val[i] };
                    for ai in 0..=*n {
                        let am = sel(&a, ai);
                        if am == 0 {
                            continue;
                        }
                        for bi in 0..=*n {
                            let m = am & sel(&b, bi);
                            if m == 0 {
                                continue;
                            }
                            match table[ai * (*n + 1) + bi] {
                                Class::Val(v) => out.val[v as usize] |= m,
                                Class::Poison => out.poison |= m,
                                Class::Undef => out.undef |= m,
                                Class::Ub => ub |= m,
                            }
                        }
                    }
                    regs[*dst as usize] = out;
                }
                SOp::Table1 { table, n, val, dst } => {
                    let s = regs[*val as usize];
                    let mut out = Planes::default();
                    let sel = |p: &Planes, i: usize| if i == *n { p.poison } else { p.val[i] };
                    for i in 0..=*n {
                        let m = sel(&s, i);
                        if m == 0 {
                            continue;
                        }
                        match table[i] {
                            Class::Val(v) => out.val[v as usize] |= m,
                            Class::Poison => out.poison |= m,
                            Class::Undef => out.undef |= m,
                            Class::Ub => ub |= m,
                        }
                    }
                    regs[*dst as usize] = out;
                }
                SOp::Select {
                    poison_cond,
                    propagate_unselected,
                    nondet_var,
                    cond,
                    tval,
                    fval,
                    dst,
                } => {
                    let c = regs[*cond as usize];
                    let t = regs[*tval as usize];
                    let f = regs[*fval as usize];
                    let mut out = Planes::default();
                    // `taken` iff the (resolved) condition is exactly 1,
                    // as in the plan's `v == 1` test.
                    let mut taken = c.val[1];
                    let mut not_taken = 0u64;
                    for (v, plane) in c.val.iter().enumerate() {
                        if v != 1 {
                            not_taken |= plane;
                        }
                    }
                    match poison_cond {
                        PoisonAction::Propagate => out.poison |= c.poison,
                        PoisonAction::Ub => ub |= c.poison,
                        PoisonAction::Nondet => {
                            let k = nondet_var.map_or(0, |v| choice[v as usize]);
                            if k == 1 {
                                taken |= c.poison;
                            } else {
                                not_taken |= c.poison;
                            }
                        }
                    }
                    if *propagate_unselected {
                        let arm_poison = (taken | not_taken) & (t.poison | f.poison);
                        out.poison |= arm_poison;
                        taken &= !arm_poison;
                        not_taken &= !arm_poison;
                    }
                    for v in 0..NVALS {
                        out.val[v] = (t.val[v] & taken) | (f.val[v] & not_taken);
                    }
                    out.poison |= (t.poison & taken) | (f.poison & not_taken);
                    out.undef = (t.undef & taken) | (f.undef & not_taken);
                    regs[*dst as usize] = out;
                }
                SOp::Freeze { var, n, val, dst } => {
                    let s = regs[*val as usize];
                    let k = var.map_or(0, |v| choice[v as usize]) as usize;
                    let mut out = Planes {
                        val: s.val,
                        poison: 0,
                        undef: 0,
                    };
                    debug_assert!(k < *n || (s.poison | s.undef) == 0);
                    out.val[k.min(n - 1)] |= s.poison | s.undef;
                    regs[*dst as usize] = out;
                }
            }
        }
        ub
    }

    /// Folds one script's final state into the per-code lane masks —
    /// a dozen OR-merges, independent of the lane count.
    fn record(&self, regs: &[Planes], ub: u64, seen: &mut [u64; NCODES]) {
        let live = !ub;
        match &self.ret {
            RetSpec::Void => {
                let all = if self.lanes == 64 {
                    u64::MAX
                } else {
                    (1u64 << self.lanes) - 1
                };
                seen[CODE_RET_VOID as usize] |= live & all;
            }
            RetSpec::Reg(r) => {
                let p = &regs[*r as usize];
                for (v, plane) in p.val.iter().enumerate() {
                    seen[v] |= plane & live;
                }
                seen[CODE_POISON as usize] |= p.poison & live;
                seen[CODE_UNDEF as usize] |= p.undef & live;
            }
        }
        seen[CODE_UB as usize] |= ub;
    }
}

/// Lowers one non-terminator plan step, or reports ineligibility.
fn lower_step(lo: &mut Lowerer, step: &Step) -> Result<(), ExecError> {
    match step {
        Step::Bin {
            op,
            flags,
            bits,
            vlen: None,
            undef_on_wrap,
            lhs,
            rhs,
            dst,
        } => {
            if *bits > MAX_BITS {
                return Err(ineligible(format!("i{bits} binop")));
            }
            let l = lo.resolve(lo.reg(*lhs))?;
            let r = lo.resolve(lo.reg(*rhs))?;
            let n = 1usize << *bits;
            let key = TabKey::Bin {
                op: *op,
                flags: *flags,
                bits: *bits,
                undef_on_wrap: *undef_on_wrap,
            };
            let table = memo_table(key, || {
                let mut table = Vec::with_capacity((n + 1) * (n + 1));
                for ai in 0..=n {
                    for bi in 0..=n {
                        table.push(if op.may_have_immediate_ub() {
                            // Division (mirrors the plan's `bin_scalar`):
                            // poison or zero divisor is UB; a poison
                            // dividend is UB only when the signed-overflow
                            // case is reachable (divisor = -1), else poison.
                            if bi == n || bi == 0 {
                                Class::Ub
                            } else if ai == n {
                                let minus1 = Val::int(*bits, bi as u128).as_signed() == Some(-1);
                                if matches!(op, BinOp::SDiv | BinOp::SRem) && minus1 {
                                    Class::Ub
                                } else {
                                    Class::Poison
                                }
                            } else {
                                bin_class(
                                    *op,
                                    *flags,
                                    *bits,
                                    *undef_on_wrap,
                                    ai as u128,
                                    bi as u128,
                                )
                            }
                        } else if ai == n || bi == n {
                            Class::Poison
                        } else {
                            bin_class(*op, *flags, *bits, *undef_on_wrap, ai as u128, bi as u128)
                        });
                    }
                }
                table
            });
            let mp = table.iter().any(|c| matches!(c, Class::Poison));
            let mu = table.iter().any(|c| matches!(c, Class::Undef));
            let d = lo.dst_reg(*dst);
            lo.set_dst(d, *bits, mp, mu);
            lo.ops.push(SOp::Table2 {
                table,
                n,
                lhs: l,
                rhs: r,
                dst: d,
            });
            Ok(())
        }
        Step::Icmp {
            cond,
            vlen: None,
            lhs,
            rhs,
            dst,
        } => {
            let l = lo.resolve(lo.reg(*lhs))?;
            let r = lo.resolve(lo.reg(*rhs))?;
            let bits = lo.reg_bits[l as usize].max(lo.reg_bits[r as usize]);
            if bits > MAX_BITS {
                return Err(ineligible(format!("i{bits} icmp")));
            }
            let n = 1usize << bits;
            let table = memo_table(TabKey::Icmp { cond: *cond, bits }, || {
                let mut table = Vec::with_capacity((n + 1) * (n + 1));
                for ai in 0..=n {
                    for bi in 0..=n {
                        table.push(if ai == n || bi == n {
                            Class::Poison
                        } else {
                            Class::Val(u8::from(eval_icmp(*cond, bits, ai as u128, bi as u128)))
                        });
                    }
                }
                table
            });
            let d = lo.dst_reg(*dst);
            let mp = lo.may_poison[l as usize] || lo.may_poison[r as usize];
            lo.set_dst(d, 1, mp, false);
            lo.ops.push(SOp::Table2 {
                table,
                n,
                lhs: l,
                rhs: r,
                dst: d,
            });
            Ok(())
        }
        Step::Select {
            ty,
            poison_cond,
            propagate_unselected,
            cond,
            tval,
            fval,
            dst,
        } => {
            let Ty::Int(bits) = ty else {
                return Err(ineligible(format!("select of {ty}")));
            };
            if *bits > MAX_BITS {
                return Err(ineligible(format!("i{bits} select")));
            }
            let c = lo.resolve(lo.reg(*cond))?;
            let t = lo.reg(*tval);
            let f = lo.reg(*fval);
            let nondet_var = (matches!(poison_cond, PoisonAction::Nondet)
                && lo.may_poison[c as usize])
                .then(|| lo.push_var(2));
            let mp =
                lo.may_poison[t as usize] || lo.may_poison[f as usize] || lo.may_poison[c as usize];
            let mu = lo.may_undef[t as usize] || lo.may_undef[f as usize];
            let d = lo.dst_reg(*dst);
            lo.set_dst(d, *bits, mp, mu);
            lo.ops.push(SOp::Select {
                poison_cond: *poison_cond,
                propagate_unselected: *propagate_unselected,
                nondet_var,
                cond: c,
                tval: t,
                fval: f,
                dst: d,
            });
            Ok(())
        }
        Step::Freeze { ty, val, dst } => {
            let Ty::Int(bits) = ty else {
                return Err(ineligible(format!("freeze of {ty}")));
            };
            if *bits > MAX_BITS {
                return Err(ineligible(format!("i{bits} freeze")));
            }
            let v = lo.reg(*val);
            let var = (lo.may_poison[v as usize] || lo.may_undef[v as usize])
                .then(|| lo.push_var(1u64 << *bits));
            let d = lo.dst_reg(*dst);
            lo.set_dst(d, *bits, false, false);
            lo.ops.push(SOp::Freeze {
                var,
                n: 1usize << *bits,
                val: v,
                dst: d,
            });
            Ok(())
        }
        Step::Cast {
            kind,
            from_bits,
            to_bits,
            vlen: None,
            val,
            dst,
        } => {
            if *from_bits > MAX_BITS || *to_bits > MAX_BITS {
                return Err(ineligible("wide cast"));
            }
            let v = lo.resolve(lo.reg(*val))?;
            let n = 1usize << *from_bits;
            let key = TabKey::Cast {
                kind: *kind,
                from_bits: *from_bits,
                to_bits: *to_bits,
            };
            let table = memo_table(key, || {
                let mut table = Vec::with_capacity(n + 1);
                for x in 0..n {
                    table.push(Class::Val(
                        eval_cast(*kind, *from_bits, *to_bits, x as u128) as u8,
                    ));
                }
                table.push(Class::Poison);
                table
            });
            let d = lo.dst_reg(*dst);
            let mp = lo.may_poison[v as usize];
            lo.set_dst(d, *to_bits, mp, false);
            lo.ops.push(SOp::Table1 {
                table,
                n,
                val: v,
                dst: d,
            });
            Ok(())
        }
        // Memory operations are categorically ineligible: a bit-sliced
        // evaluation runs all lanes against one shared register file,
        // but each lane would need its own memory image (stores differ
        // per lane, alloca'd block ids and the two-phase flag are
        // per-execution state). Rejecting here — with its own counter —
        // is what routes `Engine::Auto` memory programs to the plan
        // machine.
        Step::Gep { .. }
        | Step::Load { .. }
        | Step::Store { .. }
        | Step::Alloca { .. }
        | Step::PtrToInt { .. }
        | Step::IntToPtr { .. } => {
            bitslice_counters().mem_rejects.incr();
            Err(ineligible("memory operation"))
        }
        other => Err(ineligible(format!("step {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::Memory;
    use crate::plan::Machine;
    use crate::sem::Semantics;
    use frost_ir::parse_module;

    /// Two i2 parameters: all defined values plus poison (and undef on
    /// request) — the §6 input shape.
    fn i2_tuples(with_undef: bool) -> Vec<Vec<Val>> {
        let mut vals: Vec<Val> = (0..4).map(|v| Val::int(2, v)).collect();
        vals.push(Val::Poison);
        if with_undef {
            vals.push(Val::Undef(Ty::Int(2)));
        }
        let mut out = Vec::new();
        for a in &vals {
            for b in &vals {
                out.push(vec![a.clone(), b.clone()]);
            }
        }
        out
    }

    fn assert_matches_plan(src: &str, sem: Semantics, tuples: &[Vec<Val>]) {
        let m = parse_module(src).expect("parses");
        let plan = ModulePlan::compile(&m, sem);
        let idx = plan.function_index("f").expect("f exists");
        let mem = Memory::zeroed(0);
        let bp = BitslicePlan::compile(&plan, idx, tuples, Limits::default())
            .expect("eligible for bit-slicing");
        let sliced = bp.evaluate().sets(&mem.snapshot());
        let mut machine = Machine::new();
        for (args, got) in tuples.iter().zip(&sliced) {
            let want = plan
                .enumerate(idx, args, &mem, Limits::default(), &mut machine)
                .expect("plan enumerates");
            assert_eq!(
                &want, got,
                "bitslice diverged from plan under {} on {args:?} for:\n{src}",
                sem.name
            );
        }
    }

    #[test]
    fn division_ub_matrix_matches_plan() {
        for op in ["udiv", "sdiv", "urem", "srem"] {
            let src = format!(
                "define i2 @f(i2 %a, i2 %b) {{\nentry:\n  %r = {op} i2 %a, %b\n  ret i2 %r\n}}"
            );
            assert_matches_plan(&src, Semantics::proposed(), &i2_tuples(false));
        }
    }

    #[test]
    fn undef_freeze_select_match_plan_under_both_semantics() {
        let srcs = [
            "define i2 @f(i2 %a, i2 %b) {\nentry:\n  %x = mul i2 %a, 2\n  %y = add i2 %x, %b\n  ret i2 %y\n}",
            "define i2 @f(i2 %a, i2 %b) {\nentry:\n  %x = freeze i2 %a\n  %y = sub nsw i2 %x, %b\n  ret i2 %y\n}",
            "define i1 @f(i2 %a, i2 %b) {\nentry:\n  %c = icmp slt i2 %a, %b\n  ret i1 %c\n}",
            "define i2 @f(i2 %a, i2 %b) {\nentry:\n  %c = icmp eq i2 %a, %b\n  %s = select i1 %c, i2 %a, i2 3\n  ret i2 %s\n}",
            "define i2 @f(i2 %a, i2 %b) {\nentry:\n  %x = add i2 undef, %a\n  %y = xor i2 %x, %b\n  ret i2 %y\n}",
        ];
        for sem in [Semantics::proposed(), Semantics::legacy_gvn()] {
            for src in srcs {
                assert_matches_plan(src, sem, &i2_tuples(sem.has_undef));
            }
        }
    }

    #[test]
    fn branching_functions_are_ineligible() {
        let src = "define i2 @f(i1 %c) {\nentry:\n  br i1 %c, label %a, label %b\na:\n  ret i2 1\nb:\n  ret i2 0\n}";
        let m = parse_module(src).unwrap();
        let plan = ModulePlan::compile(&m, Semantics::proposed());
        let idx = plan.function_index("f").unwrap();
        let tuples = vec![vec![Val::int(1, 0)], vec![Val::int(1, 1)]];
        let err = BitslicePlan::compile(&plan, idx, &tuples, Limits::default())
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, ExecError::Unsupported(_)), "{err}");
    }

    #[test]
    fn tight_limits_defer_to_the_plan_engine() {
        let src = "define i2 @f(i2 %a, i2 %b) {\nentry:\n  %x = freeze i2 %a\n  ret i2 %x\n}";
        let m = parse_module(src).unwrap();
        let plan = ModulePlan::compile(&m, Semantics::proposed());
        let idx = plan.function_index("f").unwrap();
        let tight = Limits {
            max_states: 2,
            ..Limits::default()
        };
        assert!(BitslicePlan::compile(&plan, idx, &i2_tuples(false), tight).is_err());
    }
}
