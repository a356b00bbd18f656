//! Exhaustive and random generation of small IR functions, after
//! opt-fuzz (§6 of the paper: "exhaustively generate all LLVM functions
//! with three instructions over 2-bit integer arithmetic").
//!
//! Functions are straight-line over a narrow integer type (i2 by
//! default) with two integer arguments; the generator optionally mixes
//! in `icmp` (producing i1 values), `select`, and `freeze`, with
//! `poison`/`undef` constants. Each slot's options are complete
//! [`Inst`]s, typed from the [`GenConfig`], and everything the
//! generator asks of a chosen instruction — its result type, its
//! operands — goes through the IR's own queries. Enumeration is an
//! odometer over the per-slot option lists, exposed as a lazy iterator
//! so huge spaces can be sampled with `step_by`.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use frost_ir::{BinOp, Cond, Flags, Function, Inst, InstId, Param, Terminator, Ty, Value};
use frost_rng::{splitmix64, SmallRng};

/// Generation-time canonicalization: which structurally redundant
/// shapes the enumerator skips *before* a function is ever built,
/// instead of checking them and deduplicating afterwards. A pruned-out
/// instruction never enters a slot's option list.
///
/// Pruning shrinks the space beyond [`frost_ir::FunctionKey`]
/// equality: a pruned-out function is not α-equivalent to its
/// canonical representative, only equivalent *modulo* operand
/// commutativity or dead-code elimination. The full 2-instruction CI
/// sweep therefore stays unpruned; pruning is the opt-in lever that
/// makes the 3-instruction space tractable (see DESIGN.md).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Pruning {
    /// Enumerate only `lhs ≤ rhs` operand orders for commutative binops
    /// and symmetric icmps. This also normalizes constant position:
    /// non-constants rank before constants, so `add 1, %a` is skipped
    /// in favor of `add %a, 1`.
    pub canonical_operands: bool,
    /// Enumerate only functions in which every intermediate result is
    /// referenced by a later instruction (the last result is returned).
    /// A function with a dead intermediate DCEs to a function of a
    /// smaller space, so sweeping each size with this prune on covers
    /// the same behaviors as the unpruned union of all sizes.
    ///
    /// The prune assumes the last slot's result is the return value,
    /// and counts a void instruction before the last slot as an
    /// intermediate nothing can reference. So a pruned guarded space
    /// holds guards only in its last slot, and drops functions such as
    /// `%t0 = add i2 %a, %a; assume i1 0; ret i2 %t0`, whose behaviour
    /// no smaller pruned space has.
    pub live_intermediates: bool,
}

impl Pruning {
    /// No pruning: the complete raw space (the default).
    pub const NONE: Pruning = Pruning {
        canonical_operands: false,
        live_intermediates: false,
    };
    /// Every prune the enumerator knows.
    pub const FULL: Pruning = Pruning {
        canonical_operands: true,
        live_intermediates: true,
    };

    /// `true` if any prune is enabled.
    pub fn any(self) -> bool {
        self.canonical_operands || self.live_intermediates
    }
}

/// Configuration of the generated function space.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// The narrow integer type (the paper uses i2). N must differ from
    /// 1 and from [`frost_ir::PTR_BITS`] (32): an operand's role is read
    /// off its type, and those are the widths of facts (`i1`) and of
    /// published addresses (`ptrtoint` results). No constructor uses
    /// either.
    pub int_bits: u32,
    /// Number of instructions per function.
    pub num_insts: usize,
    /// Binary opcodes to include.
    pub ops: Vec<BinOp>,
    /// Include `nsw`/`nuw`/`exact` variants where supported.
    pub flags: bool,
    /// Include `icmp` (with these conditions) and `select` over the
    /// resulting booleans.
    pub conds: Vec<Cond>,
    /// Include `freeze`.
    pub freeze: bool,
    /// Integer constants to use as operands.
    pub consts: Vec<u128>,
    /// Include the `poison` constant as an operand.
    pub poison_const: bool,
    /// Include the `undef` constant as an operand (legacy semantics).
    pub undef_const: bool,
    /// Generate memory programs: the function takes a single pointer
    /// parameter `%p: iN*` (instead of two integer arguments) and the
    /// instruction mix becomes `alloca` / `load` / `store` / `gep`
    /// (small constant indices) / `ptrtoint` / `inttoptr`. `inttoptr`
    /// only becomes available once a `ptrtoint` result exists, so every
    /// forged pointer in the space is a laundered round-trip — exactly
    /// the §5 shapes the block-based memory model is about. Memory
    /// spaces are enumerated unpruned ([`Pruning`]'s liveness model
    /// covers integer instructions only).
    pub memory: bool,
    /// Include the `assume` guard: every available `i1` value (icmp
    /// results, frozen booleans, the literals) can be asserted as a
    /// fact. Guards are void, so guarded functions return the most
    /// recent integer result instead of the syntactically last one (or
    /// `void` when every slot is a guard).
    pub guards: bool,
    /// Generation-time canonicalization (default: [`Pruning::NONE`]).
    pub prune: Pruning,
}

impl GenConfig {
    /// The paper's setting, scaled for in-process checking: i2
    /// arithmetic, all binary opcodes with attributes, no comparisons.
    pub fn arithmetic(num_insts: usize) -> GenConfig {
        GenConfig {
            int_bits: 2,
            num_insts,
            ops: BinOp::ALL.to_vec(),
            flags: true,
            conds: Vec::new(),
            freeze: true,
            consts: vec![0, 1, 2, 3],
            poison_const: true,
            undef_const: false,
            memory: false,
            guards: false,
            prune: Pruning::NONE,
        }
    }

    /// A compact space that still exercises every §3.4 select shape.
    pub fn with_selects(num_insts: usize) -> GenConfig {
        GenConfig {
            int_bits: 2,
            num_insts,
            ops: vec![BinOp::Add, BinOp::And, BinOp::Or, BinOp::UDiv],
            flags: true,
            conds: vec![Cond::Eq, Cond::Ult, Cond::Slt],
            freeze: true,
            consts: vec![0, 1, 3],
            poison_const: true,
            undef_const: false,
            memory: false,
            guards: false,
            prune: Pruning::NONE,
        }
    }

    /// The §5 memory space: straight-line i8 programs over one pointer
    /// parameter, mixing `alloca`, `load`, `store`, small-constant
    /// `gep`, and `ptrtoint`/`inttoptr` round-trips. Paired with
    /// initial-memory enumeration (`InputOptions::with_memory_values`
    /// in frost-refine) this exhausts tiny programs × tiny memories,
    /// the memory analogue of the paper's §6 arithmetic sweep.
    pub fn memory(num_insts: usize) -> GenConfig {
        GenConfig {
            int_bits: 8,
            num_insts,
            ops: Vec::new(),
            flags: false,
            conds: Vec::new(),
            freeze: false,
            consts: vec![0, 1],
            poison_const: false,
            undef_const: false,
            memory: true,
            guards: false,
            prune: Pruning::NONE,
        }
    }

    /// The guarded space: i2 arithmetic with comparisons, `freeze`, and
    /// the `assume` guard, so every §3-style shape the guard-driven
    /// pass band reasons about — `assume` on an icmp fact, on a frozen
    /// fact, on a literal, on poison — is enumerated. Kept to one binop
    /// and two conditions so the 2-instruction space stays exhaustible
    /// in CI.
    pub fn guards(num_insts: usize) -> GenConfig {
        GenConfig {
            int_bits: 2,
            num_insts,
            ops: vec![BinOp::Add],
            flags: true,
            conds: vec![Cond::Eq, Cond::Ult],
            freeze: true,
            consts: vec![0, 1],
            poison_const: true,
            undef_const: false,
            memory: false,
            guards: true,
            prune: Pruning::NONE,
        }
    }

    /// Enables `undef` operands (for legacy-semantics hunting).
    pub fn with_undef(mut self) -> GenConfig {
        self.undef_const = true;
        self
    }

    /// Returns this configuration with the given generation-time
    /// [`Pruning`]. The pruned space is a deterministic subsequence of
    /// the unpruned walk, but cursors are *not* interchangeable between
    /// prune settings — resume with the configuration that produced the
    /// checkpoint.
    #[must_use]
    pub fn with_pruning(mut self, prune: Pruning) -> GenConfig {
        self.prune = prune;
        self
    }
}

/// Always-on enumerator telemetry (`frost.fuzz.gen.*`; see
/// docs/OBSERVABILITY.md). `lists` counts the option lists
/// [`slot_options`] builds. Each `pruned_*` counter tallies candidate
/// instructions rejected while a list was being built, so an exhaustive
/// walk, which builds one list per prefix shape, counts a rejection
/// once per shape — these prove the cut is happening (and where), not
/// a function-count delta. An instruction failing several filters is
/// counted once, by the first filter that rejects it (canonical order
/// before liveness).
struct GenCounters {
    lists: &'static frost_telemetry::Counter,
    pruned_commutative: &'static frost_telemetry::Counter,
    pruned_const_position: &'static frost_telemetry::Counter,
    pruned_dead: &'static frost_telemetry::Counter,
}

fn gen_counters() -> &'static GenCounters {
    static COUNTERS: OnceLock<GenCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| GenCounters {
        lists: frost_telemetry::counter("frost.fuzz.gen.lists"),
        pruned_commutative: frost_telemetry::counter("frost.fuzz.gen.pruned.commutative"),
        pruned_const_position: frost_telemetry::counter("frost.fuzz.gen.pruned.const_position"),
        pruned_dead: frost_telemetry::counter("frost.fuzz.gen.pruned.dead"),
    })
}

/// The values available as operands before the next slot, split by
/// type.
struct Avail {
    /// `iN` values: arguments, constants, integer results.
    ints: Vec<Value>,
    /// `i1` facts: the literals, icmp results, frozen facts.
    bools: Vec<Value>,
    /// Pointer-typed values (`iN*`): the pointer parameter, allocas,
    /// geps, forged `inttoptr` results. Memory spaces only.
    ptrs: Vec<Value>,
    /// `i32` addresses published by `ptrtoint`. Memory spaces only.
    addrs: Vec<Value>,
}

/// What a chosen instruction's result is to the slots after it. Read
/// off its type: `int_bits` is neither 1 nor PTR_BITS, so the widths
/// tell the roles apart.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    Int,
    Fact,
    Ptr,
    Addr,
    /// A store or an assume: never an operand.
    Void,
}

fn role(inst: &Inst) -> Role {
    match inst.result_ty() {
        Ty::Int(1) => Role::Fact,
        Ty::Int(frost_ir::PTR_BITS) => Role::Addr,
        Ty::Int(_) => Role::Int,
        Ty::Ptr(_) => Role::Ptr,
        _ => Role::Void,
    }
}

fn available<'a>(cfg: &GenConfig, prefix: impl Iterator<Item = &'a Inst>) -> Avail {
    let int_ty = Ty::Int(cfg.int_bits);
    let mut ints: Vec<Value> = Vec::new();
    let mut ptrs: Vec<Value> = Vec::new();
    let mut addrs: Vec<Value> = Vec::new();
    if cfg.memory {
        ptrs.push(Value::Arg(0));
    } else {
        ints.push(Value::Arg(0));
        ints.push(Value::Arg(1));
    }
    for &c in &cfg.consts {
        ints.push(Value::int(cfg.int_bits, c));
    }
    if cfg.poison_const {
        ints.push(Value::poison(int_ty.clone()));
    }
    if cfg.undef_const {
        ints.push(Value::undef(int_ty));
    }
    let mut bools: Vec<Value> = vec![Value::bool(false), Value::bool(true)];
    for (i, inst) in prefix.enumerate() {
        let v = Value::Inst(InstId(i as u32));
        match role(inst) {
            Role::Int => ints.push(v),
            Role::Fact => bools.push(v),
            Role::Ptr => ptrs.push(v),
            Role::Addr => addrs.push(v),
            Role::Void => {}
        }
    }
    Avail {
        ints,
        bools,
        ptrs,
        addrs,
    }
}

fn flag_variants(cfg: &GenConfig, op: BinOp) -> Vec<Flags> {
    if !cfg.flags {
        return vec![Flags::NONE];
    }
    if op.supports_wrap_flags() {
        vec![Flags::NONE, Flags::NSW, Flags::NUW, Flags::NSW_NUW]
    } else if op.supports_exact() {
        vec![Flags::NONE, Flags::EXACT]
    } else {
        vec![Flags::NONE]
    }
}

/// The operand order key of the canonical-operand prune: non-constants
/// (arguments, instruction results) rank before constants, ties broken
/// by position in the availability list. Commutative/symmetric
/// instructions keep only `rank(lhs) ≤ rank(rhs)`, which both fixes an
/// operand order and pushes constants to the right.
fn operand_rank(avail: &[Value], v: &Value) -> (bool, usize) {
    let pos = avail
        .iter()
        .position(|a| a == v)
        .expect("operand drawn from the availability list");
    (v.as_const().is_some(), pos)
}

/// The operands whose order the canonical-operand prune fixes: those of
/// a commutative binop or a symmetric icmp.
fn symmetric_operands(inst: &Inst) -> Option<(&Value, &Value)> {
    match inst {
        Inst::Bin { op, lhs, rhs, .. } if op.is_commutative() => Some((lhs, rhs)),
        Inst::Icmp {
            cond: Cond::Eq | Cond::Ne,
            lhs,
            rhs,
            ..
        } => Some((lhs, rhs)),
        _ => None,
    }
}

/// State the liveness prune threads through option-list construction:
/// which prefix results are still unreferenced, and how many
/// references one future slot can retire per type.
struct LivePrune {
    /// Indices of unreferenced prefix slots that are not `i1`: integer
    /// and pointer results, and void slots, which nothing can
    /// reference (see [`Pruning::live_intermediates`]).
    unref_ints: Vec<u32>,
    /// Indices of unreferenced `i1` prefix results.
    unref_bools: Vec<u32>,
    /// Max distinct int intermediates one future instruction can use.
    per_slot_ints: usize,
    /// Max distinct bool intermediates one future instruction can use
    /// (a select condition or an assume fact).
    per_slot_bools: usize,
    /// Slots after the one being filled.
    slots_left: usize,
}

impl LivePrune {
    fn of<'a>(cfg: &GenConfig, prefix: impl Iterator<Item = &'a Inst> + Clone) -> LivePrune {
        let mut referenced = Vec::new();
        for inst in prefix.clone() {
            referenced.push(false);
            inst.for_each_operand(|v| {
                if let Value::Inst(id) = v {
                    referenced[id.0 as usize] = true;
                }
            });
        }
        let (mut unref_ints, mut unref_bools) = (Vec::new(), Vec::new());
        for (i, inst) in prefix.enumerate() {
            if !referenced[i] {
                if role(inst) == Role::Fact {
                    unref_bools.push(i as u32);
                } else {
                    unref_ints.push(i as u32);
                }
            }
        }
        let mut per_slot_ints = 0;
        if !cfg.ops.is_empty() || !cfg.conds.is_empty() {
            per_slot_ints = 2; // binop/icmp operands, select arms
        } else if cfg.freeze {
            per_slot_ints = 1;
        }
        LivePrune {
            unref_ints,
            unref_bools,
            per_slot_ints,
            per_slot_bools: usize::from(!cfg.conds.is_empty() || cfg.guards),
            slots_left: cfg.num_insts - referenced.len() - 1,
        }
    }

    /// `true` if choosing `inst` here keeps a fully-live completion
    /// reachable: the final slot must retire every outstanding
    /// intermediate, earlier slots must not let the backlog outgrow
    /// what the remaining slots can reference.
    fn admits(&self, inst: &Inst) -> bool {
        let mut ints_left = self.unref_ints.len();
        let mut bools_left = self.unref_bools.len();
        // Dedupe operands (`xor %0, %0` retires one intermediate, not
        // two); generated instructions have ≤ 3 operands, so a tiny
        // array suffices.
        let mut seen = [u32::MAX; 3];
        let mut n = 0;
        inst.for_each_operand(|v| {
            if let Value::Inst(id) = v {
                if seen[..n].contains(&id.0) {
                    return;
                }
                seen[n] = id.0;
                n += 1;
                if self.unref_ints.contains(&id.0) {
                    ints_left -= 1;
                }
                if self.unref_bools.contains(&id.0) {
                    bools_left -= 1;
                }
            }
        });
        if self.slots_left == 0 {
            return ints_left == 0 && bools_left == 0;
        }
        // This slot's own result joins the backlog — unless it is void
        // (a store or a guard): nothing to retire.
        match inst.result_ty() {
            Ty::Void => {}
            ty if ty.is_bool() => bools_left += 1,
            _ => ints_left += 1,
        }
        ints_left <= self.per_slot_ints * self.slots_left
            && bools_left <= self.per_slot_bools * self.slots_left
    }
}

/// All instructions legal at the slot following `prefix`, with the
/// configured prunes applied (see [`Pruning`]); rejected candidates are
/// tallied on the `frost.fuzz.gen.pruned.*` counters, the list itself
/// on `frost.fuzz.gen.lists`.
fn slot_options<'a>(cfg: &GenConfig, prefix: impl Iterator<Item = &'a Inst> + Clone) -> Vec<Inst> {
    gen_counters().lists.incr();
    let avail = available(cfg, prefix.clone());
    let live = cfg
        .prune
        .live_intermediates
        .then(|| LivePrune::of(cfg, prefix));
    let ty = Ty::Int(cfg.int_bits);
    let mut out = Vec::new();
    let mut keep = |inst: Inst| {
        let symmetric = symmetric_operands(&inst).filter(|_| cfg.prune.canonical_operands);
        if let Some((lhs, rhs)) = symmetric {
            let (lc, lr) = operand_rank(&avail.ints, lhs);
            let (rc, rr) = operand_rank(&avail.ints, rhs);
            if (lc, lr) > (rc, rr) {
                if lc && !rc {
                    gen_counters().pruned_const_position.incr();
                } else {
                    gen_counters().pruned_commutative.incr();
                }
                return;
            }
        }
        if let Some(live) = &live {
            if !live.admits(&inst) {
                gen_counters().pruned_dead.incr();
                return;
            }
        }
        out.push(inst);
    };
    for &op in &cfg.ops {
        for flags in flag_variants(cfg, op) {
            for lhs in &avail.ints {
                for rhs in &avail.ints {
                    keep(Inst::Bin {
                        op,
                        flags,
                        ty: ty.clone(),
                        lhs: lhs.clone(),
                        rhs: rhs.clone(),
                    });
                }
            }
        }
    }
    for &cond in &cfg.conds {
        for lhs in &avail.ints {
            for rhs in &avail.ints {
                keep(Inst::Icmp {
                    cond,
                    ty: ty.clone(),
                    lhs: lhs.clone(),
                    rhs: rhs.clone(),
                });
            }
        }
    }
    if !cfg.conds.is_empty() {
        for cond in &avail.bools {
            for tval in &avail.ints {
                for fval in &avail.ints {
                    keep(Inst::Select {
                        cond: cond.clone(),
                        ty: ty.clone(),
                        tval: tval.clone(),
                        fval: fval.clone(),
                    });
                }
            }
        }
    }
    if cfg.freeze {
        for val in &avail.ints {
            keep(Inst::Freeze {
                ty: ty.clone(),
                val: val.clone(),
            });
        }
        if cfg.guards {
            // Frozen facts: `assume i1 (freeze %c)` is exactly the
            // laundering shape the freeze-aware guard band reasons
            // about, so guarded spaces also freeze booleans. (Gated on
            // `guards` to leave historical select-space walks — and
            // their checkpoints — untouched.)
            for val in &avail.bools {
                keep(Inst::Freeze {
                    ty: Ty::i1(),
                    val: val.clone(),
                });
            }
        }
    }
    if cfg.guards {
        for cond in &avail.bools {
            keep(Inst::Assume { cond: cond.clone() });
        }
    }
    if cfg.memory {
        let ptr_ty = Ty::ptr_to(ty.clone());
        let addr_ty = Ty::Int(frost_ir::PTR_BITS);
        keep(Inst::Alloca { ty: ty.clone() });
        for ptr in &avail.ptrs {
            keep(Inst::Load {
                ty: ty.clone(),
                ptr: ptr.clone(),
            });
            for val in &avail.ints {
                keep(Inst::Store {
                    ty: ty.clone(),
                    val: val.clone(),
                    ptr: ptr.clone(),
                });
            }
            // Indices 0 (identity), 1 (one-past-end of a 1-byte block,
            // inbounds-legal), 2 (out of bounds → deferred poison).
            for idx in [0u128, 1, 2] {
                keep(Inst::Gep {
                    elem_ty: ty.clone(),
                    base: ptr.clone(),
                    idx_ty: ty.clone(),
                    idx: Value::int(cfg.int_bits, idx),
                    inbounds: true,
                });
            }
            keep(Inst::PtrToInt {
                from_ty: ptr_ty.clone(),
                to_ty: addr_ty.clone(),
                val: ptr.clone(),
            });
        }
        for addr in &avail.addrs {
            keep(Inst::IntToPtr {
                from_ty: addr_ty.clone(),
                to_ty: ptr_ty.clone(),
                val: addr.clone(),
            });
        }
    }
    out
}

/// The function `name` whose one block holds `insts`. It returns its
/// most recent integer result: guards and stores are void, and pointer
/// results stay unreturned, because block indices are
/// allocation-order-relative — returning a raw `Ptr` would make
/// behavior depend on how a transform renumbers allocas rather than on
/// what the program computes. A function with no integer result
/// returns `void`.
fn build_function<'a>(
    cfg: &GenConfig,
    insts: impl Iterator<Item = &'a Inst>,
    name: &str,
) -> Function {
    let int_ty = Ty::Int(cfg.int_bits);
    let param = |name: &str, ty: Ty| Param {
        name: name.into(),
        ty,
    };
    let params = if cfg.memory {
        vec![param("p", Ty::ptr_to(int_ty))]
    } else {
        vec![param("a", int_ty.clone()), param("b", int_ty)]
    };
    let mut func = Function::new(name, params, Ty::Void);
    func.insts.reserve_exact(cfg.num_insts);
    for inst in insts {
        let id = func.add_inst(inst.clone());
        func.blocks[0].insts.push(id);
    }
    match func
        .insts
        .iter()
        .rposition(|inst| inst.result_ty().is_int())
    {
        Some(i) => {
            let id = InstId(i as u32);
            func.ret_ty = func.inst(id).result_ty();
            func.blocks[0].term = Terminator::Ret(Some(Value::Inst(id)));
        }
        None => func.blocks[0].term = Terminator::Ret(None),
    }
    func
}

/// The shape bit of a prefix result a later prefix slot references.
const REFERENCED: u8 = 0x80;

/// Lazy exhaustive enumeration of the function space.
pub struct ExhaustiveFunctions {
    cfg: GenConfig,
    /// Odometer indices, one per filled slot: slot `k` holds
    /// `options[k][indices[k]]`.
    indices: Vec<usize>,
    /// Option lists per filled slot, each shared with `lists`.
    options: Vec<Arc<Vec<Inst>>>,
    /// Every option list this walk has built, by the shape of the
    /// prefix it follows: all [`slot_options`] reads of the prefix, one
    /// byte per slot. That is the slot's [`Role`], plus [`REFERENCED`]
    /// under [`Pruning::live_intermediates`] if a later prefix slot
    /// uses it. At most roles^k lists per slot k (×2^k when pruned).
    lists: HashMap<Vec<u8>, Arc<Vec<Inst>>>,
    /// The shape being looked up (kept to reuse its buffer).
    shape: Vec<u8>,
    counter: u64,
    done: bool,
}

impl ExhaustiveFunctions {
    /// Starts enumeration.
    pub fn new(cfg: GenConfig) -> ExhaustiveFunctions {
        let mut e = ExhaustiveFunctions::unfilled(cfg, 0, false);
        if !e.fill_from(0) && !e.advance() {
            e.done = true;
        }
        e
    }

    /// A walk at `counter` with no slot filled.
    fn unfilled(cfg: GenConfig, counter: u64, done: bool) -> ExhaustiveFunctions {
        assert!(cfg.num_insts >= 1, "need at least one instruction");
        ExhaustiveFunctions {
            cfg,
            indices: Vec::new(),
            options: Vec::new(),
            lists: HashMap::new(),
            shape: Vec::new(),
            counter,
            done,
        }
    }

    /// The instructions chosen at the filled slots, in slot order.
    fn chosen(&self) -> impl Iterator<Item = &Inst> + Clone {
        self.options
            .iter()
            .zip(&self.indices)
            .map(|(opts, &ix)| &opts[ix])
    }

    /// The option list of the first unfilled slot: looked up by the
    /// filled prefix's shape, and built by [`slot_options`] the first
    /// time that shape comes up.
    fn next_options(&mut self) -> Arc<Vec<Inst>> {
        self.shape.clear();
        for (opts, &ix) in self.options.iter().zip(&self.indices) {
            if self.cfg.prune.live_intermediates {
                opts[ix].for_each_operand(|v| {
                    if let Value::Inst(id) = v {
                        self.shape[id.0 as usize] |= REFERENCED;
                    }
                });
            }
            self.shape.push(role(&opts[ix]) as u8);
        }
        if let Some(opts) = self.lists.get(self.shape.as_slice()) {
            return opts.clone();
        }
        let opts = Arc::new(slot_options(&self.cfg, self.chosen()));
        self.lists.insert(self.shape.clone(), opts.clone());
        opts
    }

    /// Looks up options and picks index 0 for slots `from..`.
    /// Returns `false` if some slot's (pruned) option list came up
    /// empty — the prefix admits no live completion; the partially
    /// filled slots are left for [`ExhaustiveFunctions::advance`] to
    /// bump past.
    fn fill_from(&mut self, from: usize) -> bool {
        self.indices.truncate(from);
        self.options.truncate(from);
        for k in from..self.cfg.num_insts {
            let opts = self.next_options();
            if opts.is_empty() {
                assert!(
                    self.cfg.prune.any(),
                    "slot {k} has no options in an unpruned space"
                );
                return false;
            }
            self.options.push(opts);
            self.indices.push(0);
        }
        true
    }

    /// Advances the odometer; returns `false` at the end of the space.
    fn advance(&mut self) -> bool {
        loop {
            // Find the deepest *filled* slot with room (a pruned walk
            // may be holding a partial prefix after a failed fill).
            let mut k = self.indices.len();
            loop {
                if k == 0 {
                    return false;
                }
                k -= 1;
                if self.indices[k] + 1 < self.options[k].len() {
                    break;
                }
            }
            self.indices[k] += 1;
            if self.fill_from(k + 1) {
                return true;
            }
        }
    }

    /// Fast-forwards the walk past the next `n` functions, exactly as
    /// if [`Iterator::next`] were called `n` times and the results
    /// discarded — but jumps within the final slot's option list
    /// instead of building functions, so striding over a
    /// cross-process shard's foreign residues costs an index addition
    /// per stride, plus one shape lookup per slot a carry refills
    /// (the walk builds each option list once). The counter advances
    /// with the skip, so `fz{n}` names and global corpus indices stay
    /// exact.
    ///
    /// (Named to dodge [`Iterator::skip`], whose by-value receiver
    /// would win method resolution over an inherent `skip`.)
    pub fn fast_forward(&mut self, n: u64) {
        let mut left = n;
        while left > 0 && !self.done {
            let k = self.cfg.num_insts - 1;
            let room = (self.options[k].len() - 1 - self.indices[k]) as u64;
            if room >= left {
                self.indices[k] += left as usize;
                self.counter += left;
                return;
            }
            // Exhaust the final slot (`room` in-slot steps plus the
            // carry into earlier slots).
            self.indices[k] += room as usize;
            self.counter += room + 1;
            left -= room + 1;
            if !self.advance() {
                self.done = true;
            }
        }
    }

    /// Total size of the space (product of option counts along the
    /// current prefix; exact when option counts do not depend on earlier
    /// choices' *types*, an upper-ballpark otherwise).
    pub fn approx_size(&self) -> u128 {
        self.options.iter().map(|o| o.len() as u128).product()
    }

    /// The odometer position identifying the *next* function this
    /// iterator will yield: `(indices, counter, done)`. Feed it back to
    /// [`ExhaustiveFunctions::resume`] (with the same config) to
    /// continue the walk where it stopped — this is what
    /// `CampaignCheckpoint` serializes.
    pub fn cursor(&self) -> (Vec<usize>, u64, bool) {
        (self.indices.clone(), self.counter, self.done)
    }

    /// The generator counter of the next function (its `fz{n}` name and
    /// its global corpus index).
    pub fn position(&self) -> u64 {
        self.counter
    }

    /// Resumes enumeration at a cursor previously captured with
    /// [`ExhaustiveFunctions::cursor`]. The option lists are looked up
    /// slot by slot, so a resumed iterator is indistinguishable from one
    /// that walked to the cursor itself.
    ///
    /// # Errors
    ///
    /// Returns a message when the cursor does not fit `cfg` — wrong
    /// number of slots or an index out of range for its option list
    /// (both symptoms of resuming with a different configuration).
    pub fn resume(
        cfg: GenConfig,
        indices: &[usize],
        counter: u64,
        done: bool,
    ) -> Result<ExhaustiveFunctions, String> {
        let mut e = ExhaustiveFunctions::unfilled(cfg, counter, done);
        if done {
            return Ok(e);
        }
        if indices.len() != e.cfg.num_insts {
            return Err(format!(
                "cursor has {} slots, config generates {} instructions",
                indices.len(),
                e.cfg.num_insts
            ));
        }
        for (k, &ix) in indices.iter().enumerate() {
            let opts = e.next_options();
            if ix >= opts.len() {
                return Err(format!(
                    "slot {k}: cursor index {ix} out of range (0..{})",
                    opts.len()
                ));
            }
            e.options.push(opts);
            e.indices.push(ix);
        }
        Ok(e)
    }
}

impl Iterator for ExhaustiveFunctions {
    type Item = Function;

    fn next(&mut self) -> Option<Function> {
        if self.done {
            return None;
        }
        let name = format!("fz{}", self.counter);
        let f = build_function(&self.cfg, self.chosen(), &name);
        self.counter += 1;
        if !self.advance() {
            self.done = true;
        }
        Some(f)
    }

    /// Skips `n` functions without building them
    /// ([`ExhaustiveFunctions::fast_forward`]), so `step_by` strides
    /// cost index arithmetic, not discarded functions.
    fn nth(&mut self, n: usize) -> Option<Function> {
        self.fast_forward(n as u64);
        self.next()
    }
}

/// Enumerates every function of the space.
pub fn enumerate_functions(cfg: GenConfig) -> ExhaustiveFunctions {
    ExhaustiveFunctions::new(cfg)
}

/// Generates `count` random functions from the space (uniform over
/// slot options, seeded for reproducibility).
pub fn random_functions(cfg: GenConfig, seed: u64, count: usize) -> Vec<Function> {
    random_functions_range(&cfg, seed, 0, count)
}

/// Generates the functions at indices `start..start + count` of the
/// seeded random stream, with each function drawn from its own
/// index-derived generator.
///
/// Because function `i` depends only on `(seed, i)` — never on how the
/// index range is partitioned — a sharded campaign generating each
/// shard's slice independently produces *exactly* the functions a
/// sequential `random_functions(cfg, seed, n)` call would, regardless
/// of shard size or thread count. This is the determinism anchor of
/// `Campaign::run_random`.
///
/// A pruned prefix can leave the next slot with no live option (the
/// exhaustive walk backtracks past it); such a draw starts that
/// function over on the same generator, so every function drawn is one
/// the walk yields.
///
/// # Panics
///
/// Panics if the space has no functions at all.
pub fn random_functions_range(
    cfg: &GenConfig,
    seed: u64,
    start: usize,
    count: usize,
) -> Vec<Function> {
    let mut out = Vec::with_capacity(count);
    let mut nonempty = false;
    for i in start..start + count {
        let mut rng = SmallRng::seed_from_u64(splitmix64(seed ^ splitmix64(i as u64)));
        let mut chosen: Vec<Inst> = Vec::with_capacity(cfg.num_insts);
        while chosen.len() < cfg.num_insts {
            let mut opts = slot_options(cfg, chosen.iter());
            if opts.is_empty() {
                // Starting over ends when the space has a function,
                // since every restart can reach it; refuse an empty one.
                nonempty = nonempty || !ExhaustiveFunctions::new(cfg.clone()).done;
                assert!(nonempty, "the generated space has no functions");
                chosen.clear();
                continue;
            }
            chosen.push(opts.swap_remove(rng.gen_range(0..opts.len())));
        }
        out.push(build_function(cfg, chosen.iter(), &format!("rf{i}")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerates_single_instruction_space_exactly() {
        let cfg = GenConfig {
            int_bits: 2,
            num_insts: 1,
            ops: vec![BinOp::Add],
            flags: false,
            conds: Vec::new(),
            freeze: false,
            consts: vec![0, 1],
            poison_const: false,
            undef_const: false,
            memory: false,
            guards: false,
            prune: Pruning::NONE,
        };
        // Operands: a, b, 0, 1 -> 16 pairs, one op.
        let fns: Vec<Function> = enumerate_functions(cfg).collect();
        assert_eq!(fns.len(), 16);
        // All distinct.
        let mut texts: Vec<String> = fns.iter().map(frost_ir::function_to_string).collect();
        texts.sort();
        texts.dedup();
        assert_eq!(texts.len(), 16);
    }

    #[test]
    fn generated_functions_verify() {
        let cfg = GenConfig::with_selects(2);
        for f in enumerate_functions(cfg).step_by(97).take(200) {
            frost_ir::verify::verify_function_legacy(&f)
                .unwrap_or_else(|e| panic!("{}\n{e:?}", frost_ir::function_to_string(&f)));
        }
    }

    #[test]
    fn space_size_matches_iteration_for_small_spaces() {
        let cfg = GenConfig {
            int_bits: 2,
            num_insts: 2,
            ops: vec![BinOp::Xor],
            flags: false,
            conds: Vec::new(),
            freeze: false,
            consts: vec![0],
            poison_const: false,
            undef_const: false,
            memory: false,
            guards: false,
            prune: Pruning::NONE,
        };
        let e = enumerate_functions(cfg);
        // slot0: operands {a, b, 0} -> 9; slot1: {a, b, 0, t0} -> 16.
        assert_eq!(e.approx_size(), 9 * 16);
        assert_eq!(e.count(), 9 * 16);
    }

    #[test]
    fn random_functions_are_reproducible() {
        let cfg = GenConfig::arithmetic(3);
        let a = random_functions(cfg.clone(), 42, 10);
        let b = random_functions(cfg, 42, 10);
        let ta: Vec<String> = a.iter().map(frost_ir::function_to_string).collect();
        let tb: Vec<String> = b.iter().map(frost_ir::function_to_string).collect();
        assert_eq!(ta, tb);
        for f in &a {
            assert!(frost_ir::verify::verify_function_legacy(f).is_ok());
        }
    }

    #[test]
    fn range_generation_matches_sequential() {
        // Sharded generation must reproduce the sequential stream no
        // matter where the range is split.
        let cfg = GenConfig::arithmetic(2);
        let seq: Vec<String> = random_functions(cfg.clone(), 11, 12)
            .iter()
            .map(frost_ir::function_to_string)
            .collect();
        let a = random_functions_range(&cfg, 11, 0, 5);
        let b = random_functions_range(&cfg, 11, 5, 7);
        let joined: Vec<String> = a
            .iter()
            .chain(&b)
            .map(frost_ir::function_to_string)
            .collect();
        assert_eq!(joined, seq);
    }

    #[test]
    fn resumed_enumeration_matches_uninterrupted_walk() {
        let cfg = GenConfig::with_selects(2);
        let full: Vec<String> = enumerate_functions(cfg.clone())
            .take(500)
            .map(|f| frost_ir::function_to_string(&f))
            .collect();
        let mut head = enumerate_functions(cfg.clone());
        let mut walked: Vec<String> = head
            .by_ref()
            .take(123)
            .map(|f| frost_ir::function_to_string(&f))
            .collect();
        let (indices, counter, done) = head.cursor();
        assert_eq!(counter, 123);
        let resumed = ExhaustiveFunctions::resume(cfg, &indices, counter, done).unwrap();
        walked.extend(
            resumed
                .take(500 - 123)
                .map(|f| frost_ir::function_to_string(&f)),
        );
        assert_eq!(walked, full, "resume must continue the same walk");
    }

    #[test]
    fn resume_rejects_mismatched_cursors() {
        let cfg = GenConfig::arithmetic(2);
        assert!(ExhaustiveFunctions::resume(cfg.clone(), &[0], 0, false).is_err());
        assert!(ExhaustiveFunctions::resume(cfg.clone(), &[0, usize::MAX], 0, false).is_err());
        // A done cursor resumes to an immediately-exhausted iterator.
        let mut fin = ExhaustiveFunctions::resume(cfg, &[], 42, true).unwrap();
        assert!(fin.next().is_none());
    }

    /// The tiny xor-only space the pruning tests reason about by hand:
    /// operands `{a, b, 0}` plus intermediates, one opcode, no flags.
    fn xor_cfg(num_insts: usize) -> GenConfig {
        GenConfig {
            int_bits: 2,
            num_insts,
            ops: vec![BinOp::Xor],
            flags: false,
            conds: Vec::new(),
            freeze: false,
            consts: vec![0],
            poison_const: false,
            undef_const: false,
            memory: false,
            guards: false,
            prune: Pruning::NONE,
        }
    }

    #[test]
    fn canonical_operands_halve_the_symmetric_space() {
        // Unpruned: 3 × 3 ordered pairs. Canonical (rank(lhs) ≤
        // rank(rhs) over a < b < 0): (a,a) (a,b) (a,0) (b,b) (b,0)
        // (0,0) — the 3 unordered swaps are gone, and the constant
        // always sits on the right.
        let prune = Pruning {
            canonical_operands: true,
            live_intermediates: false,
        };
        let before = frost_telemetry::snapshot();
        let fns: Vec<Function> = enumerate_functions(xor_cfg(1).with_pruning(prune)).collect();
        assert_eq!(fns.len(), 6);
        for f in &fns {
            let s = frost_ir::function_to_string(f);
            assert!(
                !s.contains("xor i2 0, %"),
                "constant operand must be normalized to the rhs:\n{s}"
            );
        }
        let d = frost_telemetry::snapshot().delta(&before);
        assert_eq!(
            d.counter("frost.fuzz.gen.pruned.commutative")
                + d.counter("frost.fuzz.gen.pruned.const_position"),
            3,
            "the three skipped pairs must be tallied"
        );
        assert_eq!(
            enumerate_functions(xor_cfg(1)).count(),
            9,
            "the unpruned space is untouched"
        );
    }

    #[test]
    fn full_pruning_keeps_only_live_canonical_functions() {
        // Slot 0: the 6 canonical pairs. Slot 1 must reference t0 and
        // stay canonical over a < b < t0 < 0 (non-consts before the
        // constant): (a,t0) (b,t0) (t0,t0) (t0,0) — 4 choices.
        let before = frost_telemetry::snapshot();
        let fns: Vec<Function> =
            enumerate_functions(xor_cfg(2).with_pruning(Pruning::FULL)).collect();
        assert_eq!(fns.len(), 6 * 4);
        let keys: std::collections::HashSet<frost_ir::FunctionKey> =
            fns.iter().map(frost_ir::FunctionKey::of).collect();
        assert_eq!(keys.len(), 6 * 4, "pruned functions are key-distinct");
        for f in &fns {
            // Every intermediate (all but the returned last result) is
            // referenced by a later instruction.
            let mut referenced = vec![false; f.insts.len()];
            for inst in &f.insts {
                inst.for_each_operand(|v| {
                    if let Value::Inst(id) = v {
                        referenced[id.0 as usize] = true;
                    }
                });
            }
            assert!(
                referenced[..f.insts.len() - 1].iter().all(|&r| r),
                "dead intermediate in {}",
                frost_ir::function_to_string(f)
            );
        }
        let d = frost_telemetry::snapshot().delta(&before);
        assert!(d.counter("frost.fuzz.gen.pruned.dead") > 0);
        assert_eq!(enumerate_functions(xor_cfg(2)).count(), 9 * 16);
    }

    #[test]
    fn pruned_walk_is_a_subsequence_of_the_unpruned_walk() {
        // Pruning only *removes* entries from the walk — the survivors
        // come out in the same relative order the unpruned odometer
        // would yield them. (Positions are renumbered densely, so
        // compare bodies under a fixed name, not `fz{n}` texts.)
        let body = |mut f: Function| {
            f.name = "f".into();
            frost_ir::function_to_string(&f)
        };
        let all: Vec<String> = enumerate_functions(xor_cfg(2)).map(body).collect();
        let pruned: Vec<String> = enumerate_functions(xor_cfg(2).with_pruning(Pruning::FULL))
            .map(body)
            .collect();
        let mut it = all.iter();
        for p in &pruned {
            assert!(
                it.any(|a| a == p),
                "pruned walk yielded a function missing from (or out of order in) the unpruned walk"
            );
        }
    }

    #[test]
    fn skip_matches_sequential_next_calls() {
        for cfg in [
            xor_cfg(2),                                       // 144 functions, unpruned
            xor_cfg(2).with_pruning(Pruning::FULL),           // 24, prune-aware carry
            GenConfig::with_selects(2),                       // mixed types
            GenConfig::guards(2),                             // void guard slots
            GenConfig::guards(2).with_pruning(Pruning::FULL), // guard-aware liveness
        ] {
            let total = enumerate_functions(cfg.clone()).count().min(600);
            for n in [0, 1, 2, 5, total - 1, total, total + 3] {
                let mut stepped = enumerate_functions(cfg.clone());
                for _ in 0..n {
                    let _ = stepped.next();
                }
                let mut skipped = enumerate_functions(cfg.clone());
                skipped.fast_forward(n as u64);
                assert_eq!(
                    skipped.cursor(),
                    stepped.cursor(),
                    "cursor mismatch after skip({n})"
                );
                let expected = stepped.next().map(|f| frost_ir::function_to_string(&f));
                assert_eq!(
                    skipped.next().map(|f| frost_ir::function_to_string(&f)),
                    expected,
                    "next function mismatch after skip({n})"
                );
                let mut nth = enumerate_functions(cfg.clone());
                assert_eq!(
                    nth.nth(n).map(|f| frost_ir::function_to_string(&f)),
                    expected,
                    "nth({n}) mismatch"
                );
                assert_eq!(
                    nth.cursor(),
                    stepped.cursor(),
                    "cursor mismatch after nth({n})"
                );
            }
        }
    }

    #[test]
    fn resume_continues_a_pruned_walk() {
        let cfg = GenConfig::with_selects(2).with_pruning(Pruning::FULL);
        let full: Vec<String> = enumerate_functions(cfg.clone())
            .take(300)
            .map(|f| frost_ir::function_to_string(&f))
            .collect();
        let mut head = enumerate_functions(cfg.clone());
        let mut walked: Vec<String> = head
            .by_ref()
            .take(97)
            .map(|f| frost_ir::function_to_string(&f))
            .collect();
        let (indices, counter, done) = head.cursor();
        let resumed = ExhaustiveFunctions::resume(cfg, &indices, counter, done).unwrap();
        walked.extend(
            resumed
                .take(300 - 97)
                .map(|f| frost_ir::function_to_string(&f)),
        );
        assert_eq!(walked, full, "resume must continue the pruned walk");
    }

    #[test]
    fn memory_space_generates_verified_memory_programs() {
        let mut saw_load = false;
        let mut saw_store = false;
        let mut saw_roundtrip = false;
        let mut count = 0usize;
        for f in enumerate_functions(GenConfig::memory(3)) {
            count += 1;
            frost_ir::verify::verify_function(&f)
                .unwrap_or_else(|e| panic!("{}\n{e:?}", frost_ir::function_to_string(&f)));
            let mut has_p2i = false;
            let mut has_i2p = false;
            for inst in &f.insts {
                match inst {
                    Inst::Load { .. } => saw_load = true,
                    Inst::Store { .. } => saw_store = true,
                    Inst::PtrToInt { .. } => has_p2i = true,
                    Inst::IntToPtr { .. } => has_i2p = true,
                    _ => {}
                }
            }
            saw_roundtrip |= has_p2i && has_i2p;
        }
        assert!(count > 500, "3-slot memory space has {count} programs");
        assert!(saw_load && saw_store, "loads and stores appear");
        assert!(
            saw_roundtrip,
            "ptrtoint/inttoptr laundering chains are in the space"
        );
    }

    #[test]
    fn memory_programs_never_return_pointers() {
        for f in enumerate_functions(GenConfig::memory(2)) {
            assert!(
                !matches!(f.ret_ty, Ty::Ptr(_)),
                "pointer return in {}",
                frost_ir::function_to_string(&f)
            );
            if let Terminator::Ret(Some(v)) = &f.blocks[0].term {
                let Value::Inst(id) = v else {
                    panic!("generated returns are instruction results");
                };
                assert!(matches!(
                    f.inst(*id),
                    Inst::Load { .. } | Inst::PtrToInt { .. }
                ));
            }
        }
    }

    #[test]
    fn guarded_space_generates_verified_guarded_programs() {
        let mut saw_assume_on_icmp = false;
        let mut saw_assume_on_frozen = false;
        let mut saw_void_ret = false;
        let mut count = 0usize;
        for f in enumerate_functions(GenConfig::guards(2)) {
            count += 1;
            frost_ir::verify::verify_function(&f)
                .unwrap_or_else(|e| panic!("{}\n{e:?}", frost_ir::function_to_string(&f)));
            for inst in &f.insts {
                let Inst::Assume { cond } = inst else {
                    continue;
                };
                if let Value::Inst(id) = cond {
                    match f.inst(*id) {
                        Inst::Icmp { .. } => saw_assume_on_icmp = true,
                        Inst::Freeze { .. } => saw_assume_on_frozen = true,
                        _ => {}
                    }
                }
            }
            saw_void_ret |= f.ret_ty.is_void();
            // A guarded function still returns its most recent *value*,
            // never a guard's slot.
            if let Terminator::Ret(Some(Value::Inst(id))) = &f.blocks[0].term {
                assert!(
                    !f.inst(*id).descriptor().is_guard(),
                    "returned a guard slot in {}",
                    frost_ir::function_to_string(&f)
                );
            }
        }
        assert!(count > 1_000, "2-slot guarded space has {count} programs");
        assert!(
            saw_assume_on_icmp,
            "assume over an icmp fact is in the space"
        );
        assert!(
            saw_assume_on_frozen,
            "assume over a frozen (laundered) fact is in the space"
        );
        assert!(saw_void_ret, "all-guard functions return void");
    }

    #[test]
    fn guarded_resume_continues_the_walk() {
        let cfg = GenConfig::guards(2);
        let full: Vec<String> = enumerate_functions(cfg.clone())
            .take(400)
            .map(|f| frost_ir::function_to_string(&f))
            .collect();
        let mut head = enumerate_functions(cfg.clone());
        let mut walked: Vec<String> = head
            .by_ref()
            .take(151)
            .map(|f| frost_ir::function_to_string(&f))
            .collect();
        let (indices, counter, done) = head.cursor();
        let resumed = ExhaustiveFunctions::resume(cfg, &indices, counter, done).unwrap();
        walked.extend(
            resumed
                .take(400 - 151)
                .map(|f| frost_ir::function_to_string(&f)),
        );
        assert_eq!(walked, full, "resume must continue the guarded walk");
    }

    #[test]
    fn a_walk_builds_one_list_per_prefix_shape() {
        // Slot 1's options depend only on whether slot 0 yields an
        // integer, a fact or nothing (a guard), not on which of the
        // 209 slot-0 options was chosen.
        let mut walk = enumerate_functions(GenConfig::guards(2));
        assert_eq!(walk.by_ref().count(), 58_880);
        let mut per_slot = [0; 2];
        for shape in walk.lists.keys() {
            per_slot[shape.len()] += 1;
        }
        assert_eq!(per_slot, [1, 3]);
    }

    /// FNV-1a (64-bit): a hash fixed here rather than borrowed from
    /// `std`, so a pinned digest names the same bytes on every toolchain.
    struct Fnv(u64);

    impl Fnv {
        fn eat(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }

        fn eat_cursor(&mut self, walk: &ExhaustiveFunctions) {
            let (indices, counter, done) = walk.cursor();
            for ix in indices {
                self.eat(&(ix as u64).to_le_bytes());
            }
            self.eat(&counter.to_le_bytes());
            self.eat(&[u8::from(done)]);
        }
    }

    /// Digest of one walk: the text of every `stride`-th function (names
    /// included) up to `limit` of them, the cursor every 1,000 functions
    /// and at the end, then (when `random`) the first 200 functions of
    /// the seed-7 random stream. Returns the digest and the count.
    fn walk_digest(cfg: &GenConfig, stride: usize, limit: usize, random: bool) -> (u64, usize) {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        let mut walk = enumerate_functions(cfg.clone());
        let mut n = 0;
        while n < limit {
            let Some(f) = walk.nth(stride - 1) else {
                break;
            };
            h.eat(frost_ir::function_to_string(&f).as_bytes());
            n += 1;
            if n % 1_000 == 0 {
                h.eat_cursor(&walk);
            }
        }
        h.eat_cursor(&walk);
        if random {
            for f in random_functions(cfg.clone(), 7, 200) {
                h.eat(frost_ir::function_to_string(&f).as_bytes());
            }
        }
        (h.0, n)
    }

    /// Pins the walk order everything downstream indexes into:
    /// checkpoint cursors, `fz{n}` names, residue-class shards and
    /// random corpora. The digests were recorded before the generator
    /// built [`Inst`]s directly and must never move; a change that
    /// reorders, adds or drops an option shows up here first.
    #[test]
    fn walk_digests_are_pinned() {
        let full = Pruning::FULL;
        let all = usize::MAX;
        // (space, config, stride, functions taken, random stream, digest)
        let cases = [
            (
                "arith1",
                GenConfig::arithmetic(1),
                1,
                all,
                true,
                0xd58c_6d02_030c_54a3,
            ),
            (
                "arith1+undef",
                GenConfig::arithmetic(1).with_undef(),
                3,
                all,
                true,
                0x56a7_a59d_ed41_5670,
            ),
            (
                "arith2",
                GenConfig::arithmetic(2),
                101,
                all,
                true,
                0xb8f6_0c26_bb98_0581,
            ),
            (
                "arith2+prune",
                GenConfig::arithmetic(2).with_pruning(full),
                31,
                8_000,
                true,
                0x6568_3cb7_450a_9e02,
            ),
            (
                "arith3+prune",
                GenConfig::arithmetic(3).with_pruning(full),
                1,
                5_000,
                true,
                0x07e3_b050_473c_be18,
            ),
            (
                "selects2",
                GenConfig::with_selects(2),
                11,
                all,
                true,
                0x56e2_bb8b_25ad_a28e,
            ),
            (
                "selects2+undef+prune",
                GenConfig::with_selects(2).with_undef().with_pruning(full),
                3,
                all,
                true,
                0xf5b1_8b58_7867_ad6d,
            ),
            (
                "selects3+prune",
                GenConfig::with_selects(3).with_pruning(full),
                17,
                2_000,
                true,
                0x6c4f_bf0e_81f9_9d18,
            ),
            (
                "guards2",
                GenConfig::guards(2),
                7,
                all,
                true,
                0xb552_c72d_a3b5_19eb,
            ),
            // Random draws of this space used to panic on an empty
            // pruned slot, so no earlier stream exists to pin.
            (
                "guards2+prune",
                GenConfig::guards(2).with_pruning(full),
                1,
                all,
                false,
                0xc0f3_8d2d_3adf_8281,
            ),
            (
                "guards3+undef",
                GenConfig::guards(3).with_undef(),
                211,
                5_000,
                true,
                0xcf53_a455_17df_ea82,
            ),
            (
                "memory3",
                GenConfig::memory(3),
                1,
                all,
                true,
                0x5a81_e30c_7986_40db,
            ),
            (
                "memory5",
                GenConfig::memory(5),
                173,
                5_000,
                true,
                0xc3cb_c843_3a88_3e77,
            ),
        ];
        let moved: Vec<String> = cases
            .into_iter()
            .filter_map(|(name, cfg, stride, limit, random, pinned)| {
                let (digest, n) = walk_digest(&cfg, stride, limit, random);
                (digest != pinned).then(|| {
                    format!("{name}: {digest:#018x} over {n} functions, pinned {pinned:#018x}")
                })
            })
            .collect();
        assert!(moved.is_empty(), "walk order moved:\n{}", moved.join("\n"));
    }

    #[test]
    fn random_draws_from_a_pruned_space_come_from_its_walk() {
        // A pruned prefix can leave the next slot with no live option:
        // the walk backtracks past it, and a random draw starts over.
        let cfg = GenConfig::guards(2).with_pruning(Pruning::FULL);
        let body = |mut f: Function| {
            f.name = "f".into();
            frost_ir::function_to_string(&f)
        };
        let walk: std::collections::HashSet<String> =
            enumerate_functions(cfg.clone()).map(body).collect();
        assert_eq!(walk.len(), 8_494);
        assert_eq!(random_functions_range(&cfg, 7, 50, 1).len(), 1);
        for f in random_functions_range(&cfg, 7, 0, 2_000) {
            let text = body(f);
            assert!(walk.contains(&text), "drawn outside the walk:\n{text}");
        }
    }

    #[test]
    #[should_panic(expected = "no functions")]
    fn random_draws_from_an_empty_space_panic_instead_of_spinning() {
        // The liveness prune lets no memory instruction retire an
        // intermediate and counts a store as one, so a pruned memory
        // space past one slot is empty: starting over could never end.
        let cfg = GenConfig::memory(2).with_pruning(Pruning::FULL);
        assert_eq!(enumerate_functions(cfg.clone()).count(), 0);
        let _ = random_functions_range(&cfg, 7, 0, 1);
    }

    #[test]
    fn undef_constants_appear_when_enabled() {
        let cfg = GenConfig::arithmetic(1).with_undef();
        let any_undef = enumerate_functions(cfg).take(50_000).any(|f| {
            f.insts.iter().any(|i| {
                let mut has = false;
                i.for_each_operand(|v| {
                    has |= v.as_const().is_some_and(frost_ir::Constant::contains_undef)
                });
                has
            })
        });
        assert!(any_undef);
    }
}
