//! Exhaustive and random generation of small IR functions, after
//! opt-fuzz (§6 of the paper: "exhaustively generate all LLVM functions
//! with three instructions over 2-bit integer arithmetic").
//!
//! Functions are straight-line over a narrow integer type (i2 by
//! default) with two integer arguments; the generator optionally mixes
//! in `icmp` (producing i1 values), `select`, and `freeze`, with
//! `poison`/`undef` constants. Enumeration is an odometer over
//! per-slot option lists, exposed as a lazy iterator so huge spaces can
//! be sampled with `step_by`.

use std::sync::OnceLock;

use frost_ir::{BinOp, BlockId, Cond, Flags, Function, Inst, InstId, Param, Terminator, Ty, Value};
use frost_rng::{splitmix64, SmallRng};

/// Generation-time canonicalization: which structurally redundant
/// shapes the enumerator skips *before* a function is ever built,
/// instead of checking them and deduplicating afterwards.
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
    /// The prune assumes the last slot's result is the return value. A
    /// trailing guard returns nothing, so a pruned guarded space drops
    /// functions such as `%t0 = add i2 %a, %a; assume i1 0; ret i2 %t0`,
    /// whose behaviour no smaller pruned space has.
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
    /// The narrow integer type (the paper uses i2).
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
    /// template mix becomes `alloca` / `load` / `store` / `gep` (small
    /// constant indices) / `ptrtoint` / `inttoptr`. `inttoptr` only
    /// becomes available once a `ptrtoint` result exists, so every
    /// forged pointer in the space is a laundered round-trip — exactly
    /// the §5 shapes the block-based memory model is about. Memory
    /// spaces are enumerated unpruned ([`Pruning`] reasons about
    /// integer templates only).
    pub memory: bool,
    /// Include the `assume` guard: every available `i1` value (icmp
    /// results, frozen booleans, the literals) can be asserted as a
    /// fact. Guards are void, so guarded functions return the most
    /// recent *value-producing* result instead of the syntactically
    /// last one (or `void` when every slot is a guard).
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

/// Always-on enumerator telemetry (`frost.fuzz.gen.pruned.*`; see
/// docs/OBSERVABILITY.md). Each counter tallies candidate templates
/// rejected while an option list was being built — one rejection can
/// stand for a whole subtree of skipped functions when it happens at a
/// non-final slot, so these prove the cut is happening (and where), not
/// a function-count delta. A template failing several filters is
/// counted once, by the first filter that rejects it (canonical order
/// before liveness).
struct GenCounters {
    pruned_commutative: &'static frost_telemetry::Counter,
    pruned_const_position: &'static frost_telemetry::Counter,
    pruned_dead: &'static frost_telemetry::Counter,
}

fn gen_counters() -> &'static GenCounters {
    static COUNTERS: OnceLock<GenCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| GenCounters {
        pruned_commutative: frost_telemetry::counter("frost.fuzz.gen.pruned.commutative"),
        pruned_const_position: frost_telemetry::counter("frost.fuzz.gen.pruned.const_position"),
        pruned_dead: frost_telemetry::counter("frost.fuzz.gen.pruned.dead"),
    })
}

/// One instruction choice at a slot, given the values available so far.
#[derive(Clone, Debug)]
enum Template {
    Bin {
        op: BinOp,
        flags: Flags,
        lhs: Value,
        rhs: Value,
    },
    Icmp {
        cond: Cond,
        lhs: Value,
        rhs: Value,
    },
    Select {
        cond: Value,
        tval: Value,
        fval: Value,
    },
    Freeze {
        val: Value,
        bool_ty: bool,
    },
    /// `alloca iN` — a fresh one-element block.
    Alloca,
    /// `load iN` through an available pointer.
    MemLoad {
        ptr: Value,
    },
    /// `store iN` of an available integer through an available pointer.
    MemStore {
        val: Value,
        ptr: Value,
    },
    /// `getelementptr iN, ptr, idx` with a small constant index.
    MemGep {
        base: Value,
        idx: u128,
    },
    /// `ptrtoint ptr to i32` — publishes the address.
    MemPtrToInt {
        val: Value,
    },
    /// `inttoptr i32 to iN*` — forges a pointer from a published
    /// address (only offered once a `ptrtoint` result is available).
    MemIntToPtr {
        val: Value,
    },
    /// `assume i1 %c` — asserts an available boolean fact (void).
    Assume {
        cond: Value,
    },
}

/// The values available as operands before slot `k`, split by type.
struct Avail {
    ints: Vec<Value>,
    bools: Vec<Value>,
    /// Pointer-typed values (`iN*`): the pointer parameter, allocas,
    /// geps, forged `inttoptr` results. Memory spaces only.
    ptrs: Vec<Value>,
    /// `i32` addresses published by `ptrtoint`. Memory spaces only.
    addrs: Vec<Value>,
}

fn available(cfg: &GenConfig, prefix: &[Template]) -> Avail {
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
        ints.push(Value::poison(Ty::Int(cfg.int_bits)));
    }
    if cfg.undef_const {
        ints.push(Value::undef(Ty::Int(cfg.int_bits)));
    }
    let mut bools: Vec<Value> = vec![Value::bool(false), Value::bool(true)];
    for (i, t) in prefix.iter().enumerate() {
        let v = Value::Inst(InstId(i as u32));
        match t {
            Template::Bin { .. } | Template::Select { .. } | Template::MemLoad { .. } => {
                ints.push(v);
            }
            Template::Icmp { .. } => bools.push(v),
            Template::Freeze { bool_ty, .. } => {
                if *bool_ty {
                    bools.push(v);
                } else {
                    ints.push(v);
                }
            }
            Template::Alloca | Template::MemGep { .. } | Template::MemIntToPtr { .. } => {
                ptrs.push(v);
            }
            Template::MemPtrToInt { .. } => addrs.push(v),
            // Void results (ResultKind::Void in the descriptor table)
            // never join the availability lists.
            Template::MemStore { .. } | Template::Assume { .. } => {}
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

impl Template {
    /// `true` if this template's result is `i1` (it lands in
    /// `avail.bools` for later slots).
    fn result_is_bool(&self) -> bool {
        match self {
            Template::Icmp { .. } => true,
            Template::Freeze { bool_ty, .. } => *bool_ty,
            _ => false,
        }
    }

    /// `true` if this template's instruction produces no value
    /// (`ResultKind::Void` in the descriptor table) — its slot never
    /// joins the availability lists and contributes nothing to the
    /// liveness backlog.
    fn is_void(&self) -> bool {
        match self {
            Template::MemStore { .. } => true,
            Template::Assume { .. } => {
                frost_ir::Opcode::Assume.descriptor().result == frost_ir::ResultKind::Void
            }
            _ => false,
        }
    }

    /// Calls `f` with every operand of this template.
    fn for_each_operand(&self, mut f: impl FnMut(&Value)) {
        match self {
            Template::Bin { lhs, rhs, .. } | Template::Icmp { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            Template::Select { cond, tval, fval } => {
                f(cond);
                f(tval);
                f(fval);
            }
            Template::Freeze { val, .. }
            | Template::MemLoad { ptr: val }
            | Template::MemGep { base: val, .. }
            | Template::MemPtrToInt { val }
            | Template::MemIntToPtr { val }
            | Template::Assume { cond: val } => f(val),
            Template::MemStore { val, ptr } => {
                f(val);
                f(ptr);
            }
            Template::Alloca => {}
        }
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

/// State the liveness prune threads through option-list construction:
/// which prefix results are still unreferenced, and how many
/// references one future slot can retire per type.
struct LivePrune {
    /// Indices of unreferenced int-typed prefix results.
    unref_ints: Vec<u32>,
    /// Indices of unreferenced bool-typed prefix results.
    unref_bools: Vec<u32>,
    /// Max distinct int intermediates one future template can use.
    per_slot_ints: usize,
    /// Max distinct bool intermediates one future template can use
    /// (only a select condition consumes a bool).
    per_slot_bools: usize,
    /// Slots after the one being filled.
    slots_left: usize,
}

impl LivePrune {
    fn of(cfg: &GenConfig, prefix: &[Template]) -> LivePrune {
        let mut referenced = vec![false; prefix.len()];
        for t in prefix {
            t.for_each_operand(|v| {
                if let Value::Inst(id) = v {
                    referenced[id.0 as usize] = true;
                }
            });
        }
        let (mut unref_ints, mut unref_bools) = (Vec::new(), Vec::new());
        for (i, t) in prefix.iter().enumerate() {
            if !referenced[i] {
                if t.result_is_bool() {
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
            // A select condition or an assume fact consumes a bool.
            per_slot_bools: usize::from(!cfg.conds.is_empty() || cfg.guards),
            slots_left: cfg.num_insts - prefix.len() - 1,
        }
    }

    /// `true` if choosing `t` here keeps a fully-live completion
    /// reachable: the final slot must retire every outstanding
    /// intermediate, earlier slots must not let the backlog outgrow
    /// what the remaining slots can reference.
    fn admits(&self, t: &Template) -> bool {
        let mut ints_left = self.unref_ints.len();
        let mut bools_left = self.unref_bools.len();
        // Dedupe operands (`xor %0, %0` retires one intermediate, not
        // two); templates have ≤ 3 operands, so a tiny array suffices.
        let mut seen = [u32::MAX; 3];
        let mut n = 0;
        t.for_each_operand(|v| {
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
        // (a guard): nothing to retire.
        if t.is_void() {
        } else if t.result_is_bool() {
            bools_left += 1;
        } else {
            ints_left += 1;
        }
        ints_left <= self.per_slot_ints * self.slots_left
            && bools_left <= self.per_slot_bools * self.slots_left
    }
}

/// All templates legal at the slot following `prefix`, with the
/// configured prunes applied (see [`Pruning`]); rejected candidates are
/// tallied on the `frost.fuzz.gen.pruned.*` counters.
fn slot_options(cfg: &GenConfig, prefix: &[Template]) -> Vec<Template> {
    let avail = available(cfg, prefix);
    let live = cfg
        .prune
        .live_intermediates
        .then(|| LivePrune::of(cfg, prefix));
    let mut out = Vec::new();
    let mut keep = |t: Template| {
        if cfg.prune.canonical_operands {
            let symmetric = match &t {
                Template::Bin { op, .. } => op.is_commutative(),
                Template::Icmp { cond, .. } => matches!(cond, Cond::Eq | Cond::Ne),
                _ => false,
            };
            if symmetric {
                let (lhs, rhs) = match &t {
                    Template::Bin { lhs, rhs, .. } | Template::Icmp { lhs, rhs, .. } => (lhs, rhs),
                    _ => unreachable!(),
                };
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
        }
        if let Some(live) = &live {
            if !live.admits(&t) {
                gen_counters().pruned_dead.incr();
                return;
            }
        }
        out.push(t);
    };
    for &op in &cfg.ops {
        for flags in flag_variants(cfg, op) {
            for lhs in &avail.ints {
                for rhs in &avail.ints {
                    keep(Template::Bin {
                        op,
                        flags,
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
                keep(Template::Icmp {
                    cond,
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
                    keep(Template::Select {
                        cond: cond.clone(),
                        tval: tval.clone(),
                        fval: fval.clone(),
                    });
                }
            }
        }
    }
    if cfg.freeze {
        for val in &avail.ints {
            keep(Template::Freeze {
                val: val.clone(),
                bool_ty: false,
            });
        }
        if cfg.guards {
            // Frozen facts: `assume i1 (freeze %c)` is exactly the
            // laundering shape the freeze-aware guard band reasons
            // about, so guarded spaces also freeze booleans. (Gated on
            // `guards` to leave historical select-space walks — and
            // their checkpoints — untouched.)
            for val in &avail.bools {
                keep(Template::Freeze {
                    val: val.clone(),
                    bool_ty: true,
                });
            }
        }
    }
    if cfg.guards {
        for cond in &avail.bools {
            keep(Template::Assume { cond: cond.clone() });
        }
    }
    if cfg.memory {
        keep(Template::Alloca);
        for ptr in &avail.ptrs {
            keep(Template::MemLoad { ptr: ptr.clone() });
            for val in &avail.ints {
                keep(Template::MemStore {
                    val: val.clone(),
                    ptr: ptr.clone(),
                });
            }
            // Indices 0 (identity), 1 (one-past-end of a 1-byte block,
            // inbounds-legal), 2 (out of bounds → deferred poison).
            for idx in [0u128, 1, 2] {
                keep(Template::MemGep {
                    base: ptr.clone(),
                    idx,
                });
            }
            keep(Template::MemPtrToInt { val: ptr.clone() });
        }
        for addr in &avail.addrs {
            keep(Template::MemIntToPtr { val: addr.clone() });
        }
    }
    out
}

fn build_function(cfg: &GenConfig, templates: &[Template], name: &str) -> Function {
    let int_ty = Ty::Int(cfg.int_bits);
    let ptr_ty = Ty::ptr_to(int_ty.clone());
    let params = if cfg.memory {
        vec![Param {
            name: "p".into(),
            ty: ptr_ty.clone(),
        }]
    } else {
        vec![
            Param {
                name: "a".into(),
                ty: int_ty.clone(),
            },
            Param {
                name: "b".into(),
                ty: int_ty.clone(),
            },
        ]
    };
    let mut func = Function {
        name: name.to_string(),
        params,
        ret_ty: Ty::Void, // patched below
        blocks: vec![frost_ir::Block::new("entry")],
        insts: Vec::with_capacity(templates.len()),
    };
    for t in templates {
        let inst = match t {
            Template::Bin {
                op,
                flags,
                lhs,
                rhs,
            } => Inst::Bin {
                op: *op,
                flags: *flags,
                ty: int_ty.clone(),
                lhs: lhs.clone(),
                rhs: rhs.clone(),
            },
            Template::Icmp { cond, lhs, rhs } => Inst::Icmp {
                cond: *cond,
                ty: int_ty.clone(),
                lhs: lhs.clone(),
                rhs: rhs.clone(),
            },
            Template::Select { cond, tval, fval } => Inst::Select {
                cond: cond.clone(),
                ty: int_ty.clone(),
                tval: tval.clone(),
                fval: fval.clone(),
            },
            Template::Freeze { val, bool_ty } => Inst::Freeze {
                ty: if *bool_ty { Ty::i1() } else { int_ty.clone() },
                val: val.clone(),
            },
            Template::Alloca => Inst::Alloca { ty: int_ty.clone() },
            Template::MemLoad { ptr } => Inst::Load {
                ty: int_ty.clone(),
                ptr: ptr.clone(),
            },
            Template::MemStore { val, ptr } => Inst::Store {
                ty: int_ty.clone(),
                val: val.clone(),
                ptr: ptr.clone(),
            },
            Template::MemGep { base, idx } => Inst::Gep {
                elem_ty: int_ty.clone(),
                base: base.clone(),
                idx_ty: Ty::Int(cfg.int_bits),
                idx: Value::int(cfg.int_bits, *idx),
                inbounds: true,
            },
            Template::MemPtrToInt { val } => Inst::PtrToInt {
                from_ty: ptr_ty.clone(),
                to_ty: Ty::Int(frost_ir::PTR_BITS),
                val: val.clone(),
            },
            Template::MemIntToPtr { val } => Inst::IntToPtr {
                from_ty: Ty::Int(frost_ir::PTR_BITS),
                to_ty: ptr_ty.clone(),
                val: val.clone(),
            },
            Template::Assume { cond } => Inst::Assume { cond: cond.clone() },
        };
        let id = func.add_inst(inst);
        func.blocks[0].insts.push(id);
    }
    if cfg.memory {
        // Return the most recent integer result — a loaded byte or a
        // published address. Pointer results stay unreturned: block
        // indices are allocation-order-relative, so returning a raw
        // `Ptr` would make behavior depend on how a transform renumbers
        // allocas rather than on what the program computes.
        let ret = templates.iter().enumerate().rev().find_map(|(i, t)| {
            matches!(t, Template::MemLoad { .. } | Template::MemPtrToInt { .. })
                .then_some(InstId(i as u32))
        });
        match ret {
            Some(id) => {
                func.ret_ty = func.inst(id).result_ty();
                func.blocks[0].term = Terminator::Ret(Some(Value::Inst(id)));
            }
            None => {
                func.ret_ty = Ty::Void;
                func.blocks[0].term = Terminator::Ret(None);
            }
        }
    } else {
        // Return the most recent value-producing result (per the
        // descriptor table's `ResultKind`). In guard-free spaces every
        // slot produces a value, so this is the syntactically last
        // instruction — the historical behavior; guards are void and
        // skipped (a function of only guards returns void).
        let ret = (0..func.insts.len())
            .rev()
            .find(|&i| func.insts[i].descriptor().result == frost_ir::ResultKind::Value);
        match ret {
            Some(i) => {
                let id = InstId(i as u32);
                func.ret_ty = func.inst(id).result_ty();
                func.blocks[0].term = Terminator::Ret(Some(Value::Inst(id)));
            }
            None => {
                func.ret_ty = Ty::Void;
                func.blocks[0].term = Terminator::Ret(None);
            }
        }
    }
    let _ = BlockId::ENTRY;
    func
}

/// Lazy exhaustive enumeration of the function space.
pub struct ExhaustiveFunctions {
    cfg: GenConfig,
    /// Odometer indices, one per instruction slot.
    indices: Vec<usize>,
    /// Chosen templates for the current prefix.
    templates: Vec<Template>,
    /// Option lists per slot (computed from the current prefix).
    options: Vec<Vec<Template>>,
    counter: u64,
    done: bool,
}

impl ExhaustiveFunctions {
    /// Starts enumeration.
    pub fn new(cfg: GenConfig) -> ExhaustiveFunctions {
        assert!(cfg.num_insts >= 1, "need at least one instruction");
        let mut e = ExhaustiveFunctions {
            cfg,
            indices: Vec::new(),
            templates: Vec::new(),
            options: Vec::new(),
            counter: 0,
            done: false,
        };
        if !e.fill_from(0) && !e.advance() {
            e.done = true;
        }
        e
    }

    /// (Re)computes options and picks index 0 for slots `from..`.
    /// Returns `false` if some slot's (pruned) option list came up
    /// empty — the prefix admits no live completion; the partially
    /// filled slots are left for [`ExhaustiveFunctions::advance`] to
    /// bump past.
    fn fill_from(&mut self, from: usize) -> bool {
        self.indices.truncate(from);
        self.templates.truncate(from);
        self.options.truncate(from);
        for k in from..self.cfg.num_insts {
            let opts = slot_options(&self.cfg, &self.templates);
            if opts.is_empty() {
                assert!(
                    self.cfg.prune.any(),
                    "slot {k} has no options in an unpruned space"
                );
                return false;
            }
            self.templates.push(opts[0].clone());
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
            self.templates[k] = self.options[k][self.indices[k]].clone();
            if self.fill_from(k + 1) {
                return true;
            }
        }
    }

    /// Fast-forwards the walk past the next `n` functions, exactly as
    /// if [`Iterator::next`] were called `n` times and the results
    /// discarded — but jumps within the final slot's option list
    /// instead of rebuilding templates, so striding over a
    /// cross-process shard's foreign residues costs a few index
    /// additions per stride. The counter advances with the skip, so
    /// `fz{n}` names and global corpus indices stay exact.
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
                self.templates[k] = self.options[k][self.indices[k]].clone();
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
    /// [`ExhaustiveFunctions::cursor`]. The templates and option lists
    /// are recomputed slot by slot, so a resumed iterator is
    /// indistinguishable from one that walked to the cursor itself.
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
        assert!(cfg.num_insts >= 1, "need at least one instruction");
        let mut e = ExhaustiveFunctions {
            cfg,
            indices: Vec::new(),
            templates: Vec::new(),
            options: Vec::new(),
            counter,
            done,
        };
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
            let opts = slot_options(&e.cfg, &e.templates);
            if ix >= opts.len() {
                return Err(format!(
                    "slot {k}: cursor index {ix} out of range (0..{})",
                    opts.len()
                ));
            }
            e.templates.push(opts[ix].clone());
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
        let f = build_function(&self.cfg, &self.templates, &name);
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
pub fn random_functions_range(
    cfg: &GenConfig,
    seed: u64,
    start: usize,
    count: usize,
) -> Vec<Function> {
    let mut out = Vec::with_capacity(count);
    for i in start..start + count {
        let mut rng = SmallRng::seed_from_u64(splitmix64(seed ^ splitmix64(i as u64)));
        let mut templates: Vec<Template> = Vec::with_capacity(cfg.num_insts);
        for _ in 0..cfg.num_insts {
            let opts = slot_options(cfg, &templates);
            templates.push(opts[rng.gen_range(0..opts.len())].clone());
        }
        out.push(build_function(cfg, &templates, &format!("rf{i}")));
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
