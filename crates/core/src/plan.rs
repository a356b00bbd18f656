//! Compile-once execution plans: the interpreter's fast path.
//!
//! [`crate::exec::reference`] walks the [`Function`] tree on every run:
//! each instruction visit re-matches the `Inst` enum, re-resolves
//! `Value` operands through name/id indirection, and re-derives the
//! per-[`Semantics`] poison/UB decision. §6-scale campaigns execute the
//! same tiny function on hundreds of inputs and thousands of choice
//! scripts, so that per-run work dominates total throughput. This
//! module compiles a function **once** into a [`ModulePlan`] — a dense,
//! slot-indexed program — and executes it on a reusable [`Machine`]:
//!
//! * **Slots, not names.** Every operand is pre-resolved to either a
//!   flat frame-slot index (arguments first, then one slot per
//!   instruction id) or an index into a per-function constant pool
//!   materialized at compile time.
//! * **Semantics baked in.** The per-instruction poison action
//!   (branch-on-poison, select-on-poison, wrap-flags-produce-undef,
//!   poison-to-side-effecting-call) is decided while compiling, so the
//!   hot loop never consults the semantics table.
//! * **Flat control flow.** Block bodies are flattened into one
//!   contiguous `Step` stream; jump targets are patched to step
//!   indices, and each CFG edge carries its pre-resolved phi copies.
//! * **Prefix-resuming enumeration.** [`ModulePlan::enumerate`]
//!   snapshots the machine at every choice point and resumes siblings
//!   from the snapshot instead of re-executing the deterministic prefix
//!   (the reference driver restarts from scratch per script).
//! * **Touched bytes.** The machine records which initial-region bytes
//!   any branch of an enumeration loads or stores, so
//!   [`crate::engine`] can answer every initial memory that agrees
//!   with a run on those bytes from that one run.
//!
//! Every observable behavior — outcome sets, step accounting, limit
//! errors, even the DFS order that decides *which* error an aborting
//! enumeration reports — is kept byte-identical to the reference
//! interpreter; `tests/exec_plan.rs` enforces this differentially over
//! the §6 corpus. The reference tree-walk survives precisely to make
//! that comparison possible.

use std::collections::HashMap;
use std::sync::OnceLock;

use frost_ir::{BinOp, CastKind, Cond, Flags, Function, Inst, Module, Terminator, Ty, Value};

use crate::exec::{ExecError, Limits};
use crate::mem::Memory;
use crate::ops::{eval_binop, eval_cast, eval_icmp, ScalarResult};
use crate::outcome::{Event, Outcome, OutcomeSet};
use crate::sem::{PoisonAction, Semantics};
use crate::val::{lower, poison_of, raise, Bit, Ptr, Val};

/// A pre-resolved operand: a frame slot or a constant-pool entry.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Opnd {
    /// `slots[frame_base + i]` — argument `i` for `i < num_params`,
    /// otherwise the result of instruction `i - num_params`.
    Slot(u32),
    /// `consts[i]` — a constant materialized at compile time.
    Const(u32),
}

/// One CFG edge: the phi copies it performs and the step index of the
/// successor's first non-phi step.
#[derive(Clone, Debug)]
struct Edge {
    /// `(destination slot, source operand)` per phi in the successor,
    /// in block order. Sources are read *before* any destination is
    /// written (phis evaluate simultaneously).
    copies: Vec<(u32, Opnd)>,
    /// Step index to jump to.
    target: u32,
}

/// One flattened instruction with its operands pre-resolved and its
/// semantics decisions pre-applied.
#[derive(Clone, Debug)]
pub(crate) enum Step {
    Bin {
        op: BinOp,
        flags: Flags,
        bits: u32,
        vlen: Option<u32>,
        undef_on_wrap: bool,
        lhs: Opnd,
        rhs: Opnd,
        dst: u32,
    },
    Icmp {
        cond: Cond,
        vlen: Option<u32>,
        lhs: Opnd,
        rhs: Opnd,
        dst: u32,
    },
    Select {
        ty: Ty,
        poison_cond: PoisonAction,
        propagate_unselected: bool,
        cond: Opnd,
        tval: Opnd,
        fval: Opnd,
        dst: u32,
    },
    Freeze {
        ty: Ty,
        val: Opnd,
        dst: u32,
    },
    Cast {
        kind: CastKind,
        from_bits: u32,
        to_bits: u32,
        vlen: Option<u32>,
        val: Opnd,
        dst: u32,
    },
    Bitcast {
        from_ty: Ty,
        to_ty: Ty,
        val: Opnd,
        dst: u32,
    },
    Gep {
        stride: i128,
        inbounds: bool,
        base: Opnd,
        idx: Opnd,
        dst: u32,
    },
    Load {
        ty: Ty,
        width: u32,
        ptr: Opnd,
        dst: u32,
    },
    Store {
        ty: Ty,
        val: Opnd,
        ptr: Opnd,
        dst: u32,
    },
    /// `assume i1 %c` — immediate UB when the fact is false *or*
    /// poison; otherwise a no-op that writes a dummy value to its slot
    /// (guards define no register, mirroring `Store`).
    Assume {
        cond: Opnd,
        dst: u32,
    },
    Alloca {
        /// Block size in bytes (from the allocated type).
        size: u32,
        /// Fill bit for fresh bytes, baked in from the semantics
        /// (poison under proposed, undef under legacy).
        fill: Bit,
        dst: u32,
    },
    PtrToInt {
        val: Opnd,
        dst: u32,
    },
    IntToPtr {
        val: Opnd,
        dst: u32,
    },
    Extract {
        len: u32,
        lane: u32,
        vec: Opnd,
        dst: u32,
    },
    Insert {
        len: u32,
        lane: u32,
        vec: Opnd,
        elt: Opnd,
        dst: u32,
    },
    /// Call to a function defined in the module, resolved to its plan
    /// index. `arity_err` carries a compile-detected argument-count
    /// mismatch; it is raised *after* the depth check, matching the
    /// reference's error order.
    CallPlan {
        callee: u32,
        args: Box<[Opnd]>,
        arity_err: Option<Box<str>>,
        dst: u32,
    },
    /// Call to an external declaration.
    CallExt {
        callee: Box<str>,
        ret_ty: Ty,
        readnone: bool,
        poison_arg_ub: bool,
        args: Box<[Opnd]>,
        dst: u32,
    },
    /// Call to a name that is neither defined nor declared: an error,
    /// but only if the step is actually reached.
    CallUnknown {
        callee: Box<str>,
    },
    Jmp {
        edge: u32,
    },
    Br {
        on_poison: PoisonAction,
        cond: Opnd,
        then_edge: u32,
        else_edge: u32,
    },
    Ret {
        val: Option<Opnd>,
    },
    Unreachable,
}

/// The compiled form of one function: a flat step stream plus its
/// constant pool and edge table.
#[derive(Clone, Debug)]
pub(crate) struct FnPlan {
    name: String,
    pub(crate) num_params: usize,
    /// Total frame size: arguments plus one slot per instruction id.
    num_slots: usize,
    pub(crate) consts: Vec<Val>,
    pub(crate) steps: Vec<Step>,
    edges: Vec<Edge>,
    /// Whether any instruction in the source function is a guard
    /// (`UbClass::Guard` per the descriptor table) or any block ends in
    /// `unreachable`. Computed from [`frost_ir::Inst::descriptor`] at
    /// compile time; the bit-sliced backend keys its categorical
    /// rejection off this instead of rediscovering guards per step.
    pub(crate) has_guards: bool,
}

/// A whole module compiled for execution under one [`Semantics`].
///
/// Compilation is a pure function of `(module, semantics)`; the plan is
/// immutable afterwards and can be shared across threads (campaign
/// workers run one plan on per-worker [`Machine`]s).
pub struct ModulePlan {
    plans: Vec<FnPlan>,
    by_name: HashMap<String, u32>,
    sem: Semantics,
}

/// Compile-time operand/constant collection for one function.
struct FnCompiler<'m> {
    func: &'m Function,
    consts: Vec<Val>,
}

impl<'m> FnCompiler<'m> {
    fn opnd(&mut self, v: &Value) -> Opnd {
        match v {
            Value::Arg(i) => Opnd::Slot(*i),
            Value::Inst(id) => Opnd::Slot(self.func.params.len() as u32 + id.0),
            Value::Const(c) => {
                let val = Val::from_const(c);
                // Pools are tiny (§6 functions have a handful of
                // constants); a linear dedup scan beats hashing.
                let idx = match self.consts.iter().position(|x| *x == val) {
                    Some(i) => i,
                    None => {
                        self.consts.push(val);
                        self.consts.len() - 1
                    }
                };
                Opnd::Const(idx as u32)
            }
        }
    }
}

/// The callee name of every `call` placed in `func`, in block order,
/// repeats included.
fn callees(func: &Function) -> impl Iterator<Item = &str> {
    func.block_ids()
        .flat_map(move |bb| func.block(bb).insts.iter())
        .filter_map(move |&id| match func.inst(id) {
            Inst::Call { callee, .. } => Some(callee.as_str()),
            _ => None,
        })
}

/// Whether `func`'s compiled plan depends on nothing but its own body:
/// every `call` in it targets `func` itself. A call to any other name —
/// another definition, a declaration, or an unknown symbol — resolves
/// against the enclosing module, so two α-equivalent bodies in different
/// modules may then behave differently. A memo table keyed on the body's
/// [`FunctionKey`](frost_ir::FunctionKey) alone
/// ([`OutcomeCache`](crate::cache::OutcomeCache)) only serves
/// self-contained functions.
pub fn is_self_contained(func: &Function) -> bool {
    callees(func).all(|c| c == func.name)
}

impl ModulePlan {
    /// Compiles every function of `module` for execution under `sem`.
    /// A name defined twice resolves to its first definition, as in
    /// every engine.
    pub fn compile(module: &Module, sem: Semantics) -> ModulePlan {
        let funcs: Vec<&Function> = module.functions.iter().collect();
        let mut fn_index = HashMap::new();
        for (i, f) in funcs.iter().enumerate() {
            fn_index.entry(f.name.as_str()).or_insert(i as u32);
        }
        ModulePlan::compile_functions(funcs, fn_index, module, sem)
    }

    /// Compiles `entry`, a function of `module`, and every function it
    /// can reach through `call` — its call closure — for execution under
    /// `sem`, and returns the plan with `entry`'s index in it. Functions
    /// outside the closure are never compiled, so one check of one
    /// function costs its closure, not the module. Callee resolution
    /// (to a name's first definition), arity errors and `declare`d/unknown
    /// callees behave exactly as under [`ModulePlan::compile`].
    pub fn compile_entry(module: &Module, entry: &Function, sem: Semantics) -> (ModulePlan, usize) {
        let mut funcs = vec![entry];
        let mut fn_index = HashMap::from([(entry.name.as_str(), 0u32)]);
        // Declared or unknown callees, remembered so each is looked up once.
        let mut external = std::collections::HashSet::new();
        let mut next = 0;
        while let Some(&func) = funcs.get(next) {
            next += 1;
            for callee in callees(func) {
                if fn_index.contains_key(callee) || external.contains(callee) {
                    continue;
                }
                match module.function(callee) {
                    Some(f) => {
                        fn_index.insert(callee, funcs.len() as u32);
                        funcs.push(f);
                    }
                    None => {
                        external.insert(callee);
                    }
                }
            }
        }
        (
            ModulePlan::compile_functions(funcs, fn_index, module, sem),
            0,
        )
    }

    /// Compiles `funcs` — closed under calls to functions `module`
    /// defines — with callees resolved through `fn_index`.
    fn compile_functions(
        funcs: Vec<&Function>,
        fn_index: HashMap<&str, u32>,
        module: &Module,
        sem: Semantics,
    ) -> ModulePlan {
        let _span =
            frost_telemetry::span("core.plan.compile").field("functions", funcs.len() as u64);
        plan_counters().compiles.incr();
        let plans = funcs
            .iter()
            .map(|f| compile_function(f, &funcs, module, sem, &fn_index))
            .collect();
        let by_name = fn_index
            .into_iter()
            .map(|(n, i)| (n.to_string(), i))
            .collect();
        ModulePlan {
            plans,
            by_name,
            sem,
        }
    }

    /// The semantics the plan was compiled under.
    pub fn sem(&self) -> Semantics {
        self.sem
    }

    /// The plan index of a function, for the `idx` parameter of the run
    /// entry points.
    pub fn function_index(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).map(|&i| i as usize)
    }

    /// Number of compiled functions.
    pub fn num_functions(&self) -> usize {
        self.plans.len()
    }

    /// The compiled plan of function `idx`, for the bit-sliced backend
    /// ([`crate::bitslice`]) to lower further.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub(crate) fn fn_plan(&self, idx: usize) -> &FnPlan {
        &self.plans[idx]
    }

    /// Enumerates *every* behavior of function `idx` on `args`,
    /// resuming each sibling branch from a snapshot taken at the choice
    /// point instead of re-executing the shared prefix.
    ///
    /// Byte-identical to
    /// [`reference::enumerate_outcomes`](crate::exec::reference::enumerate_outcomes)
    /// in results, state accounting, and abort order.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] if the search exceeds [`Limits`] or the
    /// program draws from an unenumerable domain.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn enumerate(
        &self,
        idx: usize,
        args: &[Val],
        mem: &Memory,
        limits: Limits,
        machine: &mut Machine,
    ) -> Result<OutcomeSet, ExecError> {
        let counters = plan_counters();
        machine.reset();
        let mut outcomes = OutcomeSet::new();
        let mut script: Vec<u64> = Vec::new();
        // Sibling choices still to explore at each forked choice point.
        // `next` counts *down*: the reference driver pushes scripts
        // `0..n` and pops LIFO, so `n-1` is explored first.
        struct Branch {
            snap: Snapshot,
            fork_len: usize,
            next: u64,
        }
        let mut stack: Vec<Branch> = Vec::new();
        let mut states: u64 = 0;

        let mut exec = Exec {
            mp: self,
            limits,
            init_mem: mem,
            m: &mut *machine,
            script: &script,
            concrete: false,
        };
        states += 1;
        if states > limits.max_states {
            return Err(ExecError::StateExplosion);
        }
        counters.runs.incr();
        match exec.start(idx, args)? {
            Flow::Done(o) => {
                outcomes.insert(o);
            }
            Flow::NeedChoice(n) => stack.push(Branch {
                snap: exec.m.snapshot(),
                fork_len: script.len(),
                next: n,
            }),
        }

        while let Some(top) = stack.last_mut() {
            if top.next == 0 {
                stack.pop();
                continue;
            }
            top.next -= 1;
            let v = top.next;
            states += 1;
            if states > limits.max_states {
                return Err(ExecError::StateExplosion);
            }
            script.truncate(top.fork_len);
            script.push(v);
            machine.restore(&top.snap);
            counters.runs.incr();
            counters.resumed_prefix_insts.add(top.snap.steps);
            let mut exec = Exec {
                mp: self,
                limits,
                init_mem: mem,
                m: &mut *machine,
                script: &script,
                concrete: false,
            };
            match exec.resume()? {
                Flow::Done(o) => {
                    outcomes.insert(o);
                }
                Flow::NeedChoice(n) => {
                    let snap = exec.m.snapshot();
                    stack.push(Branch {
                        snap,
                        fork_len: script.len(),
                        next: n,
                    });
                }
            }
        }
        Ok(outcomes)
    }

    /// Runs function `idx` once, resolving every choice to 0. Returns
    /// the behavior and the number of steps executed.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] on resource exhaustion or unsupported
    /// programs.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn run_concrete(
        &self,
        idx: usize,
        args: &[Val],
        mem: &Memory,
        limits: Limits,
        machine: &mut Machine,
    ) -> Result<(Outcome, u64), ExecError> {
        plan_counters().runs.incr();
        machine.reset();
        let mut exec = Exec {
            mp: self,
            limits,
            init_mem: mem,
            m: &mut *machine,
            script: &[],
            concrete: true,
        };
        match exec.start(idx, args)? {
            Flow::Done(o) => Ok((o, machine.steps)),
            Flow::NeedChoice(_) => unreachable!("concrete runs never fork"),
        }
    }
}

/// Compiles one body. Calls resolve first against `fn_index` (indices
/// into `funcs`, the functions compiled alongside), then against
/// `module`'s declarations.
fn compile_function(
    func: &Function,
    funcs: &[&Function],
    module: &Module,
    sem: Semantics,
    fn_index: &HashMap<&str, u32>,
) -> FnPlan {
    let num_params = func.params.len();
    let mut c = FnCompiler {
        func,
        consts: Vec::new(),
    };
    let mut steps: Vec<Step> = Vec::new();
    let mut edges: Vec<Edge> = Vec::new();
    // Edges know their successor block; targets are patched to step
    // indices once every block's start offset is known.
    let mut edge_blocks: Vec<u32> = Vec::new();
    let mut block_start: Vec<u32> = Vec::with_capacity(func.blocks.len());
    let mut has_guards = false;

    for bb in func.block_ids() {
        let block = func.block(bb);
        block_start.push(steps.len() as u32);
        has_guards |= matches!(block.term, Terminator::Unreachable);
        for &id in &block.insts {
            has_guards |= func.inst(id).descriptor().is_guard();
            let dst = (num_params as u32) + id.0;
            let step = match func.inst(id) {
                Inst::Phi { .. } => continue, // applied on the incoming edge
                Inst::Bin {
                    op,
                    flags,
                    ty,
                    lhs,
                    rhs,
                } => Step::Bin {
                    op: *op,
                    flags: *flags,
                    bits: ty.scalar_ty().int_bits().expect("verified integer binop"),
                    vlen: ty.vector_len(),
                    undef_on_wrap: sem.wrap_flags_produce_undef,
                    lhs: c.opnd(lhs),
                    rhs: c.opnd(rhs),
                    dst,
                },
                Inst::Icmp { cond, ty, lhs, rhs } => Step::Icmp {
                    cond: *cond,
                    vlen: ty.vector_len(),
                    lhs: c.opnd(lhs),
                    rhs: c.opnd(rhs),
                    dst,
                },
                Inst::Select {
                    cond,
                    ty,
                    tval,
                    fval,
                } => Step::Select {
                    ty: ty.clone(),
                    poison_cond: sem.select.poison_cond,
                    propagate_unselected: sem.select.propagate_unselected,
                    cond: c.opnd(cond),
                    tval: c.opnd(tval),
                    fval: c.opnd(fval),
                    dst,
                },
                Inst::Freeze { ty, val } => Step::Freeze {
                    ty: ty.clone(),
                    val: c.opnd(val),
                    dst,
                },
                Inst::Cast {
                    kind,
                    from_ty,
                    to_ty,
                    val,
                } => Step::Cast {
                    kind: *kind,
                    from_bits: from_ty.scalar_ty().int_bits().expect("verified int cast"),
                    to_bits: to_ty.scalar_ty().int_bits().expect("verified int cast"),
                    vlen: to_ty.vector_len(),
                    val: c.opnd(val),
                    dst,
                },
                Inst::Bitcast {
                    from_ty,
                    to_ty,
                    val,
                } => Step::Bitcast {
                    from_ty: from_ty.clone(),
                    to_ty: to_ty.clone(),
                    val: c.opnd(val),
                    dst,
                },
                Inst::Gep {
                    elem_ty,
                    base,
                    idx,
                    inbounds,
                    ..
                } => Step::Gep {
                    stride: i128::from(elem_ty.byte_size()),
                    inbounds: *inbounds,
                    base: c.opnd(base),
                    idx: c.opnd(idx),
                    dst,
                },
                Inst::Load { ty, ptr } => Step::Load {
                    ty: ty.clone(),
                    width: ty.bitwidth(),
                    ptr: c.opnd(ptr),
                    dst,
                },
                Inst::Store { ty, val, ptr } => Step::Store {
                    ty: ty.clone(),
                    val: c.opnd(val),
                    ptr: c.opnd(ptr),
                    dst,
                },
                Inst::Assume { cond } => Step::Assume {
                    cond: c.opnd(cond),
                    dst,
                },
                Inst::Alloca { ty } => Step::Alloca {
                    size: ty.byte_size(),
                    fill: crate::exec::uninit_fill(&sem),
                    dst,
                },
                Inst::PtrToInt { val, .. } => Step::PtrToInt {
                    val: c.opnd(val),
                    dst,
                },
                Inst::IntToPtr { val, .. } => Step::IntToPtr {
                    val: c.opnd(val),
                    dst,
                },
                Inst::ExtractElement { vec, idx, len, .. } => Step::Extract {
                    len: *len,
                    lane: idx.as_int_const().expect("verified constant lane") as u32,
                    vec: c.opnd(vec),
                    dst,
                },
                Inst::InsertElement {
                    vec, elt, idx, len, ..
                } => Step::Insert {
                    len: *len,
                    lane: idx.as_int_const().expect("verified constant lane") as u32,
                    vec: c.opnd(vec),
                    elt: c.opnd(elt),
                    dst,
                },
                Inst::Call {
                    ret_ty,
                    callee,
                    args: call_args,
                    ..
                } => {
                    let args: Box<[Opnd]> = call_args.iter().map(|a| c.opnd(a)).collect();
                    if let Some(&ci) = fn_index.get(callee.as_str()) {
                        let f = funcs[ci as usize];
                        let arity_err = (call_args.len() != f.params.len()).then(|| {
                            format!(
                                "@{} expects {} arguments, got {}",
                                f.name,
                                f.params.len(),
                                call_args.len()
                            )
                            .into_boxed_str()
                        });
                        Step::CallPlan {
                            callee: ci,
                            args,
                            arity_err,
                            dst,
                        }
                    } else if let Some(decl) = module.declaration(callee) {
                        Step::CallExt {
                            callee: callee.clone().into_boxed_str(),
                            ret_ty: ret_ty.clone(),
                            readnone: decl.attrs.readnone,
                            poison_arg_ub: sem.poison_call_arg_is_ub,
                            args,
                            dst,
                        }
                    } else {
                        Step::CallUnknown {
                            callee: callee.clone().into_boxed_str(),
                        }
                    }
                }
            };
            steps.push(step);
        }
        // Terminator. Edges collect the successor's phi copies now;
        // their step targets are patched below.
        let add_edge = |c: &mut FnCompiler<'_>,
                        edges: &mut Vec<Edge>,
                        edge_blocks: &mut Vec<u32>,
                        dest: frost_ir::BlockId|
         -> u32 {
            let mut copies = Vec::new();
            for &id in &func.block(dest).insts {
                let Inst::Phi { incoming, .. } = func.inst(id) else {
                    break;
                };
                let (v, _) = incoming
                    .iter()
                    .find(|(_, from)| *from == bb)
                    .expect("verifier guarantees an incoming value per predecessor");
                copies.push(((num_params as u32) + id.0, c.opnd(v)));
            }
            edges.push(Edge { copies, target: 0 });
            edge_blocks.push(dest.0);
            (edges.len() - 1) as u32
        };
        let term = match &block.term {
            Terminator::Ret(v) => Step::Ret {
                val: v.as_ref().map(|v| c.opnd(v)),
            },
            Terminator::Jmp(dest) => Step::Jmp {
                edge: add_edge(&mut c, &mut edges, &mut edge_blocks, *dest),
            },
            Terminator::Br {
                cond,
                then_bb,
                else_bb,
            } => Step::Br {
                on_poison: sem.branch_on_poison,
                cond: c.opnd(cond),
                then_edge: add_edge(&mut c, &mut edges, &mut edge_blocks, *then_bb),
                else_edge: add_edge(&mut c, &mut edges, &mut edge_blocks, *else_bb),
            },
            Terminator::Unreachable => Step::Unreachable,
        };
        steps.push(term);
    }
    for (edge, &bb) in edges.iter_mut().zip(&edge_blocks) {
        edge.target = block_start[bb as usize];
    }
    FnPlan {
        name: func.name.clone(),
        num_params,
        num_slots: num_params + func.insts.len(),
        consts: c.consts,
        steps,
        edges,
        has_guards,
    }
}

/// One suspended call: the caller's execution context, restored on
/// `ret`.
#[derive(Clone, Debug)]
struct Frame {
    plan: u32,
    base: u32,
    ret_pc: u32,
    ret_dst: u32,
}

/// Reusable execution state: slot vector, call stack, and trace are
/// allocated once and reset (capacity retained) per run.
///
/// A `Machine` is tied to no particular plan; the same machine may run
/// any number of plans sequentially. It is deliberately `!Sync`-shaped
/// state: parallel campaign workers each own one.
#[derive(Default)]
pub struct Machine {
    slots: Vec<Val>,
    frames: Vec<Frame>,
    trace: Vec<Event>,
    /// Staging for simultaneous phi copies.
    phi_scratch: Vec<(u32, Val)>,
    /// Copy-on-write memory: `None` means "unchanged from the run's
    /// initial memory" — no clone until the first store.
    mem: Option<Memory>,
    /// Executing plan index, frame base slot, and step index.
    cur: u32,
    base: u32,
    pc: u32,
    steps: u64,
    next_choice: usize,
    /// The initial-region bytes every branch so far loaded or stored
    /// ([`Memory::initial_bytes`]); survives [`Machine::restore`].
    touched: u64,
}

/// Everything [`Machine::restore`] needs to transport the machine back
/// to a choice point. Taken *between* steps (the step that demanded the
/// choice is re-executed on resume), so no mid-step state is captured.
struct Snapshot {
    slots: Vec<Val>,
    frames: Vec<Frame>,
    trace_len: usize,
    mem: Option<Memory>,
    cur: u32,
    base: u32,
    pc: u32,
    steps: u64,
    next_choice: usize,
}

impl Machine {
    /// A fresh machine.
    pub fn new() -> Machine {
        Machine::default()
    }

    fn reset(&mut self) {
        self.slots.clear();
        self.frames.clear();
        self.trace.clear();
        self.mem = None;
        self.cur = 0;
        self.base = 0;
        self.pc = 0;
        self.steps = 0;
        self.next_choice = 0;
        self.touched = 0;
    }

    /// The initial-region bytes, as a mask over
    /// [`Memory::snapshot`] byte positions, that any branch of the last
    /// enumeration loaded or stored. A memory that agrees with that
    /// run's on these bytes has the same outcomes, except that its own
    /// bytes stand in for the run's everywhere else.
    pub(crate) fn touched(&self) -> u64 {
        self.touched
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            slots: self.slots.clone(),
            frames: self.frames.clone(),
            trace_len: self.trace.len(),
            mem: self.mem.clone(),
            cur: self.cur,
            base: self.base,
            pc: self.pc,
            steps: self.steps,
            next_choice: self.next_choice,
        }
    }

    fn restore(&mut self, s: &Snapshot) {
        self.slots.clear();
        self.slots.extend_from_slice(&s.slots);
        self.frames.clear();
        self.frames.extend_from_slice(&s.frames);
        // The trace before the fork is shared by every sibling; it only
        // ever grows, so truncation restores it without a clone.
        self.trace.truncate(s.trace_len);
        self.mem = s.mem.clone();
        self.cur = s.cur;
        self.base = s.base;
        self.pc = s.pc;
        self.steps = s.steps;
        self.next_choice = s.next_choice;
    }
}

/// Reasons to abort the current run (mirrors the reference `Stop`).
enum Stop {
    NeedChoice(u64),
    Err(ExecError),
}

/// Non-local exits of step evaluation (mirrors the reference `Exc`).
enum Exc {
    Ub,
    Stop(Stop),
}

impl From<Stop> for Exc {
    fn from(s: Stop) -> Exc {
        Exc::Stop(s)
    }
}

enum Flow {
    Done(Outcome),
    NeedChoice(u64),
}

/// One run of a machine over a plan: borrows the immutable plan and
/// initial memory, owns the choice policy.
struct Exec<'a> {
    mp: &'a ModulePlan,
    limits: Limits,
    init_mem: &'a Memory,
    m: &'a mut Machine,
    script: &'a [u64],
    concrete: bool,
}

impl Exec<'_> {
    /// Initializes the machine for a fresh top-level run and executes.
    fn start(&mut self, idx: usize, args: &[Val]) -> Result<Flow, ExecError> {
        let plan = &self.mp.plans[idx];
        if args.len() != plan.num_params {
            return Err(ExecError::BadFunction(format!(
                "@{} expects {} arguments, got {}",
                plan.name,
                plan.num_params,
                args.len()
            )));
        }
        self.m.cur = idx as u32;
        self.m.slots.extend_from_slice(args);
        // SSA dominance guarantees every slot is written before it is
        // read; poison is an inert filler.
        self.m.slots.resize(plan.num_slots, Val::Poison);
        // Entry-block visit charge (the reference charges one step per
        // block visit so empty infinite loops still exhaust fuel).
        self.m.steps += 1;
        if self.m.steps > self.limits.max_steps {
            return Err(ExecError::Fuel);
        }
        self.run()
    }

    /// Continues a run restored from a snapshot: the pc still points at
    /// the step that demanded the choice; its earlier choices replay
    /// from the shared script prefix.
    fn resume(&mut self) -> Result<Flow, ExecError> {
        self.run()
    }

    fn run(&mut self) -> Result<Flow, ExecError> {
        loop {
            // Steps are transactional: state mutations land only when a
            // step completes, except the monotone step/choice cursors,
            // which are rolled back here so a resumed sibling replays
            // the step's charge and in-step choice prefix identically.
            let (steps0, choice0) = (self.m.steps, self.m.next_choice);
            match self.step() {
                Ok(None) => {}
                Ok(Some(o)) => return Ok(Flow::Done(o)),
                Err(Exc::Ub) => return Ok(Flow::Done(Outcome::Ub)),
                Err(Exc::Stop(Stop::NeedChoice(n))) => {
                    self.m.steps = steps0;
                    self.m.next_choice = choice0;
                    return Ok(Flow::NeedChoice(n));
                }
                Err(Exc::Stop(Stop::Err(e))) => return Err(e),
            }
        }
    }

    fn read(&self, plan: &FnPlan, o: Opnd) -> Val {
        match o {
            Opnd::Slot(i) => self.m.slots[self.m.base as usize + i as usize].clone(),
            Opnd::Const(i) => plan.consts[i as usize].clone(),
        }
    }

    fn write(&mut self, dst: u32, v: Val) {
        self.m.slots[self.m.base as usize + dst as usize] = v;
        self.m.pc += 1;
    }

    fn choose(&mut self, n: u64) -> Result<u64, Stop> {
        if n == 0 {
            return Err(Stop::Err(ExecError::Unsupported(
                "empty choice domain".into(),
            )));
        }
        if n == 1 {
            return Ok(0);
        }
        if self.concrete {
            return Ok(0);
        }
        if n > self.limits.max_fanout {
            return Err(Stop::Err(ExecError::FanoutTooLarge(n)));
        }
        match self.script.get(self.m.next_choice) {
            Some(&v) => {
                self.m.next_choice += 1;
                debug_assert!(v < n, "script entry within domain");
                Ok(v)
            }
            None => Err(Stop::NeedChoice(n)),
        }
    }

    fn choose_scalar(&mut self, ty: &Ty) -> Result<Val, Stop> {
        match ty {
            Ty::Int(bits) => {
                let n = if *bits >= 63 { u64::MAX } else { 1u64 << *bits };
                let idx = self.choose(n)?;
                Ok(Val::int(*bits, u128::from(idx)))
            }
            Ty::Ptr(_) => {
                let idx = self.choose(1u64 << 32)?;
                Ok(Val::ptr(idx as u32))
            }
            other => Err(Stop::Err(ExecError::Unsupported(format!(
                "cannot choose a value of type {other}"
            )))),
        }
    }

    /// Resolves `undef` at a *use* (§3.1), element-wise for vectors.
    fn resolve_use(&mut self, v: Val) -> Result<Val, Stop> {
        match v {
            Val::Undef(ty) => self.choose_scalar(&ty),
            Val::Vec(elems) => {
                let mut out = Vec::with_capacity(elems.len());
                for e in elems {
                    out.push(self.resolve_use(e)?);
                }
                Ok(Val::Vec(out))
            }
            other => Ok(other),
        }
    }

    /// Transfers control along an edge: block-visit charge, then the
    /// successor's phi copies (evaluated simultaneously against
    /// pre-copy slots, one uncapped step charge each, as in the
    /// reference), then the jump.
    fn take_edge(&mut self, plan: &FnPlan, e: u32) -> Result<(), Exc> {
        let edge = &plan.edges[e as usize];
        self.m.steps += 1;
        if self.m.steps > self.limits.max_steps {
            return Err(Exc::Stop(Stop::Err(ExecError::Fuel)));
        }
        if edge.copies.is_empty() {
            self.m.pc = edge.target;
            return Ok(());
        }
        let mut scratch = std::mem::take(&mut self.m.phi_scratch);
        scratch.clear();
        for &(dst, src) in &edge.copies {
            scratch.push((dst, self.read(plan, src)));
        }
        for (dst, v) in scratch.drain(..) {
            self.m.steps += 1;
            self.m.slots[self.m.base as usize + dst as usize] = v;
        }
        self.m.phi_scratch = scratch;
        self.m.pc = edge.target;
        Ok(())
    }

    /// Executes the step at `pc`. `Ok(None)` continues; `Ok(Some)` is a
    /// completed top-level run.
    #[allow(clippy::too_many_lines)]
    fn step(&mut self) -> Result<Option<Outcome>, Exc> {
        let mp = self.mp;
        let plan = &mp.plans[self.m.cur as usize];
        let step = &plan.steps[self.m.pc as usize];
        // Per-instruction charge; terminators charge nothing themselves
        // (edges charge the block visit).
        match step {
            Step::Jmp { .. } | Step::Br { .. } | Step::Ret { .. } | Step::Unreachable => {}
            _ => {
                self.m.steps += 1;
                if self.m.steps > self.limits.max_steps {
                    return Err(Exc::Stop(Stop::Err(ExecError::Fuel)));
                }
            }
        }
        match step {
            Step::Bin {
                op,
                flags,
                bits,
                vlen,
                undef_on_wrap,
                lhs,
                rhs,
                dst,
            } => {
                let a = self.resolve_use(self.read(plan, *lhs))?;
                let b = self.resolve_use(self.read(plan, *rhs))?;
                let v = match vlen {
                    None => bin_scalar(*op, *flags, *bits, *undef_on_wrap, &a, &b)?,
                    Some(n) => {
                        let av = vector_elems(&a, *n as usize);
                        let bv = vector_elems(&b, *n as usize);
                        let mut out = Vec::with_capacity(*n as usize);
                        for (x, y) in av.iter().zip(&bv) {
                            out.push(bin_scalar(*op, *flags, *bits, *undef_on_wrap, x, y)?);
                        }
                        Val::Vec(out)
                    }
                };
                self.write(*dst, v);
            }
            Step::Icmp {
                cond,
                vlen,
                lhs,
                rhs,
                dst,
            } => {
                let a = self.resolve_use(self.read(plan, *lhs))?;
                let b = self.resolve_use(self.read(plan, *rhs))?;
                let mem = self.m.mem.as_ref().unwrap_or(self.init_mem);
                let v = match vlen {
                    None => icmp_scalar(*cond, mem, &a, &b),
                    Some(n) => {
                        let av = vector_elems(&a, *n as usize);
                        let bv = vector_elems(&b, *n as usize);
                        Val::Vec(
                            av.iter()
                                .zip(&bv)
                                .map(|(x, y)| icmp_scalar(*cond, mem, x, y))
                                .collect(),
                        )
                    }
                };
                self.write(*dst, v);
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
                let c = self.resolve_use(self.read(plan, *cond))?;
                let tv = self.read(plan, *tval);
                let fv = self.read(plan, *fval);
                let taken = match c {
                    Val::Int { v, .. } => v == 1,
                    Val::Poison => match poison_cond {
                        PoisonAction::Propagate => {
                            self.write(*dst, poison_of(ty));
                            return Ok(None);
                        }
                        PoisonAction::Ub => return Err(Exc::Ub),
                        PoisonAction::Nondet => self.choose(2)? == 1,
                    },
                    other => {
                        return Err(Exc::Stop(Stop::Err(ExecError::Unsupported(format!(
                            "select on {other}"
                        )))))
                    }
                };
                let v = if *propagate_unselected && (tv.contains_poison() || fv.contains_poison()) {
                    poison_of(ty)
                } else if taken {
                    tv
                } else {
                    fv
                };
                self.write(*dst, v);
            }
            Step::Freeze { ty, val, dst } => {
                let v = self.read(plan, *val);
                let frozen = match (ty, v) {
                    (Ty::Vector { elems, elem }, v) => {
                        let vals = vector_elems(&v, *elems as usize);
                        let mut out = Vec::with_capacity(vals.len());
                        for e in vals {
                            out.push(self.freeze_scalar(elem, e)?);
                        }
                        Val::Vec(out)
                    }
                    (_, v) => self.freeze_scalar(ty, v)?,
                };
                self.write(*dst, frozen);
            }
            Step::Cast {
                kind,
                from_bits,
                to_bits,
                vlen,
                val,
                dst,
            } => {
                let v = self.resolve_use(self.read(plan, *val))?;
                let scalar = |e: &Val| match e.as_int() {
                    Some(x) => Val::int(*to_bits, eval_cast(*kind, *from_bits, *to_bits, x)),
                    None => Val::Poison,
                };
                let v = match vlen {
                    None => scalar(&v),
                    Some(n) => Val::Vec(vector_elems(&v, *n as usize).iter().map(scalar).collect()),
                };
                self.write(*dst, v);
            }
            Step::Bitcast {
                from_ty,
                to_ty,
                val,
                dst,
            } => {
                let v = self.read(plan, *val);
                let v = raise(to_ty, &lower(from_ty, &v));
                self.write(*dst, v);
            }
            Step::Gep {
                stride,
                inbounds,
                base,
                idx,
                dst,
            } => {
                let b = self.resolve_use(self.read(plan, *base))?;
                let i = self.resolve_use(self.read(plan, *idx))?;
                let v = match (&b, &i) {
                    (Val::Ptr(Ptr::Addr(addr)), Val::Int { .. }) => {
                        let offset = i.as_signed().expect("int");
                        let full = i128::from(*addr) + offset * stride;
                        if *inbounds && (full < 0 || full > i128::from(u32::MAX)) {
                            // Pointer arithmetic overflow is deferred UB
                            // (§2.4).
                            Val::Poison
                        } else {
                            Val::ptr(full.rem_euclid(1i128 << 32) as u32)
                        }
                    }
                    (Val::Ptr(Ptr::Block { block, off }), Val::Int { .. }) => {
                        let offset = i.as_signed().expect("int");
                        let full = i128::from(*off) + offset * stride;
                        let mem = self.m.mem.as_ref().unwrap_or(self.init_mem);
                        // Deferred UB: an inbounds gep may only move
                        // within the block (one-past-the-end allowed).
                        if *inbounds && (full < 0 || full > i128::from(mem.block_size(*block))) {
                            Val::Poison
                        } else {
                            Val::Ptr(Ptr::Block {
                                block: *block,
                                off: full.rem_euclid(1i128 << 32) as u32,
                            })
                        }
                    }
                    // Poison base or index -> poison pointer.
                    _ => Val::Poison,
                };
                self.write(*dst, v);
            }
            Step::Load {
                ty,
                width,
                ptr,
                dst,
            } => {
                let p = self.resolve_use(self.read(plan, *ptr))?;
                let Val::Ptr(p) = p else {
                    return Err(Exc::Ub);
                };
                let mem = self.m.mem.as_ref().unwrap_or(self.init_mem);
                self.m.touched |= mem.initial_bytes(p, *width);
                match mem.load_ptr(p, *width) {
                    Some(bits) => {
                        let v = raise(ty, &bits);
                        self.write(*dst, v);
                    }
                    None => return Err(Exc::Ub),
                }
            }
            Step::Store { ty, val, ptr, dst } => {
                let v = self.read(plan, *val);
                let p = self.resolve_use(self.read(plan, *ptr))?;
                let Val::Ptr(p) = p else {
                    return Err(Exc::Ub);
                };
                let bits = lower(ty, &v);
                // First store of the run: fault in a private copy of
                // the initial memory.
                let mem = self.m.mem.get_or_insert_with(|| self.init_mem.clone());
                // A store counts even when it writes what was there: a
                // sibling branch may leave the byte alone.
                self.m.touched |= mem.initial_bytes(p, bits.len() as u32);
                if !mem.store_ptr(p, &bits) {
                    return Err(Exc::Ub);
                }
                self.write(*dst, Val::int(1, 0)); // dummy; stores define no register
            }
            Step::Assume { cond, dst } => {
                // The guard consumes its fact: a false *or poison* fact
                // is immediate UB (deferred UB is promoted here, exactly
                // as `br` does under the proposed semantics). Freezing
                // the condition first launders the poison half away.
                let c = self.resolve_use(self.read(plan, *cond))?;
                match c {
                    Val::Poison => return Err(Exc::Ub),
                    Val::Int { v, .. } => {
                        if v != 1 {
                            return Err(Exc::Ub);
                        }
                        self.write(*dst, Val::int(1, 0)); // dummy; guards define no register
                    }
                    other => {
                        return Err(Exc::Stop(Stop::Err(ExecError::Unsupported(format!(
                            "assume on {other}"
                        )))))
                    }
                }
            }
            Step::Alloca { size, fill, dst } => {
                // Allocation mutates the (copy-on-write) memory even
                // though nothing is written yet: the block table grows.
                let mem = self.m.mem.get_or_insert_with(|| self.init_mem.clone());
                let block = mem.alloca(*size, *fill);
                self.write(*dst, Val::Ptr(Ptr::Block { block, off: 0 }));
            }
            Step::PtrToInt { val, dst } => {
                let v = self.resolve_use(self.read(plan, *val))?;
                // Observing an address forces the finite phase even when
                // the operand is poison (matches the reference).
                let mem = self.m.mem.get_or_insert_with(|| self.init_mem.clone());
                mem.concretize();
                let v = match v {
                    Val::Ptr(p) => {
                        let addr = mem.ptr_addr(p);
                        Val::int(frost_ir::PTR_BITS, u128::from(addr))
                    }
                    _ => Val::Poison,
                };
                self.write(*dst, v);
            }
            Step::IntToPtr { val, dst } => {
                let v = self.resolve_use(self.read(plan, *val))?;
                let mem = self.m.mem.get_or_insert_with(|| self.init_mem.clone());
                mem.concretize();
                let v = match v.as_int() {
                    Some(x) => Val::ptr(x as u32),
                    None => Val::Poison,
                };
                self.write(*dst, v);
            }
            Step::Extract {
                len,
                lane,
                vec,
                dst,
            } => {
                let v = self.read(plan, *vec);
                let e = vector_elems(&v, *len as usize)[*lane as usize].clone();
                self.write(*dst, e);
            }
            Step::Insert {
                len,
                lane,
                vec,
                elt,
                dst,
            } => {
                let v = self.read(plan, *vec);
                let e = self.read(plan, *elt);
                let mut elems = vector_elems(&v, *len as usize);
                elems[*lane as usize] = e;
                self.write(*dst, Val::Vec(elems));
            }
            Step::CallPlan {
                callee,
                args,
                arity_err,
                dst,
            } => {
                let callee_plan = &mp.plans[*callee as usize];
                let vals: Vec<Val> = args.iter().map(|&a| self.read(plan, a)).collect();
                // Depth check precedes the arity check, matching the
                // reference (`eval_call` checks depth before
                // `exec_function` validates arguments).
                if self.m.frames.len() as u32 >= self.limits.max_call_depth {
                    return Err(Exc::Stop(Stop::Err(ExecError::Fuel)));
                }
                if let Some(msg) = arity_err {
                    return Err(Exc::Stop(Stop::Err(ExecError::BadFunction(
                        msg.to_string(),
                    ))));
                }
                self.m.frames.push(Frame {
                    plan: self.m.cur,
                    base: self.m.base,
                    ret_pc: self.m.pc + 1,
                    ret_dst: *dst,
                });
                self.m.cur = *callee;
                self.m.base = self.m.slots.len() as u32;
                self.m.slots.extend(vals);
                self.m
                    .slots
                    .resize(self.m.base as usize + callee_plan.num_slots, Val::Poison);
                self.m.pc = 0;
                // Callee entry-block visit charge.
                self.m.steps += 1;
                if self.m.steps > self.limits.max_steps {
                    return Err(Exc::Stop(Stop::Err(ExecError::Fuel)));
                }
            }
            Step::CallExt {
                callee,
                ret_ty,
                readnone,
                poison_arg_ub,
                args,
                dst,
            } => {
                let vals: Vec<Val> = args.iter().map(|&a| self.read(plan, a)).collect();
                if *readnone {
                    // A pure external function: poison in, poison out;
                    // otherwise an arbitrary (environment-chosen)
                    // result. Not observable.
                    let v = if vals.iter().any(Val::contains_poison) {
                        poison_of(ret_ty)
                    } else if ret_ty.is_void() {
                        Val::int(1, 0)
                    } else {
                        self.choose_scalar(ret_ty.scalar_ty())?
                    };
                    self.write(*dst, v);
                    return Ok(None);
                }
                // Side-effecting external call: poison reaching it is
                // UB (§1).
                if *poison_arg_ub && vals.iter().any(Val::contains_poison) {
                    return Err(Exc::Ub);
                }
                let ret = if ret_ty.is_void() {
                    None
                } else {
                    Some(self.choose_scalar(ret_ty.scalar_ty())?)
                };
                self.m.trace.push(Event {
                    callee: callee.to_string(),
                    args: vals,
                    ret: ret.clone(),
                });
                self.write(*dst, ret.unwrap_or(Val::int(1, 0)));
            }
            Step::CallUnknown { callee } => {
                return Err(Exc::Stop(Stop::Err(ExecError::BadFunction(format!(
                    "unknown callee @{callee}"
                )))));
            }
            Step::Jmp { edge } => self.take_edge(plan, *edge)?,
            Step::Br {
                on_poison,
                cond,
                then_edge,
                else_edge,
            } => {
                let c = self.resolve_use(self.read(plan, *cond))?;
                let taken = match c {
                    Val::Int { v, .. } => v == 1,
                    Val::Poison => match on_poison {
                        PoisonAction::Ub => return Err(Exc::Ub),
                        PoisonAction::Nondet | PoisonAction::Propagate => self.choose(2)? == 1,
                    },
                    other => {
                        return Err(Exc::Stop(Stop::Err(ExecError::Unsupported(format!(
                            "branch on {other}"
                        )))))
                    }
                };
                self.take_edge(plan, if taken { *then_edge } else { *else_edge })?;
            }
            Step::Ret { val } => {
                let v = val.map(|o| self.read(plan, o));
                match self.m.frames.pop() {
                    None => {
                        let mem = match &self.m.mem {
                            Some(m) => m.snapshot(),
                            None => self.init_mem.snapshot(),
                        };
                        return Ok(Some(Outcome::Ret {
                            val: v,
                            mem,
                            trace: self.m.trace.clone(),
                        }));
                    }
                    Some(f) => {
                        self.m.slots.truncate(self.m.base as usize);
                        self.m.slots[f.base as usize + f.ret_dst as usize] =
                            v.unwrap_or(Val::int(1, 0));
                        self.m.cur = f.plan;
                        self.m.base = f.base;
                        self.m.pc = f.ret_pc;
                    }
                }
            }
            Step::Unreachable => return Err(Exc::Ub),
        }
        Ok(None)
    }

    fn freeze_scalar(&mut self, ty: &Ty, v: Val) -> Result<Val, Stop> {
        match v {
            Val::Poison | Val::Undef(_) => self.choose_scalar(ty),
            defined => Ok(defined),
        }
    }
}

fn bin_scalar(
    op: BinOp,
    flags: Flags,
    bits: u32,
    undef_on_wrap: bool,
    a: &Val,
    b: &Val,
) -> Result<Val, Exc> {
    if op.may_have_immediate_ub() {
        // Division: a poison divisor, or zero, is immediate UB; a
        // poison dividend yields poison unless the divisor makes the
        // signed-overflow case reachable.
        let bv = match b {
            Val::Poison => return Err(Exc::Ub),
            Val::Int { v, .. } => *v,
            other => {
                return Err(Exc::Stop(Stop::Err(ExecError::Unsupported(format!(
                    "divide by {other}"
                )))))
            }
        };
        if bv == 0 {
            return Err(Exc::Ub);
        }
        if a.contains_poison() {
            let divisor_is_minus1 = Val::int(bits, bv).as_signed() == Some(-1);
            if matches!(op, BinOp::SDiv | BinOp::SRem) && divisor_is_minus1 {
                // poison could be INT_MIN: the UB case is reachable.
                return Err(Exc::Ub);
            }
            return Ok(Val::Poison);
        }
    } else if a.contains_poison() || b.contains_poison() {
        return Ok(Val::Poison);
    }
    let (Some(x), Some(y)) = (a.as_int(), b.as_int()) else {
        return Err(Exc::Stop(Stop::Err(ExecError::Unsupported(format!(
            "binop on {a} and {b}"
        )))));
    };
    match eval_binop(op, flags, bits, x, y) {
        ScalarResult::Val(v) => Ok(Val::int(bits, v)),
        ScalarResult::Poison => {
            // §2.4 strawman semantics: deferred binop UB yields undef
            // instead of poison.
            if undef_on_wrap {
                Ok(Val::Undef(Ty::Int(bits)))
            } else {
                Ok(Val::Poison)
            }
        }
        ScalarResult::Ub => Err(Exc::Ub),
    }
}

fn icmp_scalar(cond: Cond, mem: &Memory, x: &Val, y: &Val) -> Val {
    match (x, y) {
        (Val::Poison, _) | (_, Val::Poison) => Val::Poison,
        (Val::Int { bits, v: xa }, Val::Int { v: xb, .. }) => {
            Val::bool(eval_icmp(cond, *bits, *xa, *xb))
        }
        // Pointers compare by concrete address (deterministic layout;
        // does not force the finite phase) — matches the reference.
        (Val::Ptr(pa), Val::Ptr(pb)) => Val::bool(eval_icmp(
            cond,
            frost_ir::PTR_BITS,
            u128::from(mem.ptr_addr(*pa)),
            u128::from(mem.ptr_addr(*pb)),
        )),
        _ => Val::Poison,
    }
}

/// Splits a vector value into elements; scalar poison expands to
/// all-poison (defensive — constants are already element-wise).
fn vector_elems(v: &Val, len: usize) -> Vec<Val> {
    match v {
        Val::Vec(elems) => {
            debug_assert_eq!(elems.len(), len);
            elems.clone()
        }
        Val::Poison => vec![Val::Poison; len],
        other => vec![other.clone(); len],
    }
}

/// The always-on plan counters (`frost.core.plan.*`; see
/// docs/OBSERVABILITY.md). Under parallel campaigns two workers may
/// race a cache key and both compile/run, so these are throughput
/// telemetry, not a determinism surface — like `frost.core.cache.*`.
pub(crate) struct PlanCounters {
    compiles: &'static frost_telemetry::Counter,
    runs: &'static frost_telemetry::Counter,
    resumed_prefix_insts: &'static frost_telemetry::Counter,
    /// (memory, tuple) pairs answered from another memory's run
    /// ([`crate::engine`]), with no run made.
    pub(crate) shared: &'static frost_telemetry::Counter,
}

pub(crate) fn plan_counters() -> &'static PlanCounters {
    static COUNTERS: OnceLock<PlanCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| PlanCounters {
        compiles: frost_telemetry::counter("frost.core.plan.compiles"),
        runs: frost_telemetry::counter("frost.core.plan.runs"),
        resumed_prefix_insts: frost_telemetry::counter("frost.core.plan.resumed_prefix_insts"),
        shared: frost_telemetry::counter("frost.core.plan.shared"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use frost_ir::parse_module;

    fn plan_outcomes(src: &str, name: &str, args: &[Val], sem: Semantics) -> OutcomeSet {
        let m = parse_module(src).expect("parses");
        let plan = ModulePlan::compile(&m, sem);
        let idx = plan.function_index(name).expect("function exists");
        let mut machine = Machine::new();
        plan.enumerate(
            idx,
            args,
            &Memory::zeroed(0),
            Limits::default(),
            &mut machine,
        )
        .expect("enumerates")
    }

    fn reference_outcomes(src: &str, name: &str, args: &[Val], sem: Semantics) -> OutcomeSet {
        let m = parse_module(src).expect("parses");
        crate::exec::reference::enumerate_outcomes(
            &m,
            m.function(name).expect("defined"),
            args,
            &Memory::zeroed(0),
            sem,
            Limits::default(),
        )
        .expect("enumerates")
    }

    #[test]
    fn plan_matches_reference_on_branching_freeze() {
        let src = "define i8 @f(i8 %x) {\nentry:\n  %p = freeze i2 poison\n  %c = icmp eq i2 %p, 1\n  br i1 %c, label %a, label %b\na:\n  %r = add i8 %x, 1\n  ret i8 %r\nb:\n  ret i8 %x\n}";
        for sem in [Semantics::proposed(), Semantics::legacy_gvn()] {
            let p = plan_outcomes(src, "f", &[Val::int(8, 9)], sem);
            let r = reference_outcomes(src, "f", &[Val::int(8, 9)], sem);
            assert_eq!(p, r, "under {}", sem.name);
        }
    }

    #[test]
    fn machine_is_reusable_across_plans_and_inputs() {
        let a = parse_module("define i2 @f() {\nentry:\n  %a = freeze i2 poison\n  ret i2 %a\n}")
            .unwrap();
        let b = parse_module("define i8 @g(i8 %x) {\nentry:\n  %r = add i8 %x, 1\n  ret i8 %r\n}")
            .unwrap();
        let pa = ModulePlan::compile(&a, Semantics::proposed());
        let pb = ModulePlan::compile(&b, Semantics::proposed());
        let mut machine = Machine::new();
        let mem = Memory::zeroed(0);
        let s1 = pa
            .enumerate(0, &[], &mem, Limits::default(), &mut machine)
            .unwrap();
        assert_eq!(s1.len(), 4);
        for v in 0..4u128 {
            let s = pb
                .enumerate(0, &[Val::int(8, v)], &mem, Limits::default(), &mut machine)
                .unwrap();
            assert_eq!(s.len(), 1);
        }
        // And back to the first plan: the machine carries no stale
        // state between runs.
        let s2 = pa
            .enumerate(0, &[], &mem, Limits::default(), &mut machine)
            .unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn enumeration_counts_states_like_the_reference() {
        // Two freezes of i2 poison: 1 initial run + 4 + 16 = 21 states.
        // max_states of 20 must explode, 21 must succeed — exactly the
        // reference's accounting.
        let src = "define i2 @f() {\nentry:\n  %a = freeze i2 poison\n  %b = freeze i2 poison\n  %c = add i2 %a, %b\n  ret i2 %c\n}";
        let m = parse_module(src).unwrap();
        let plan = ModulePlan::compile(&m, Semantics::proposed());
        let mut machine = Machine::new();
        let tight = Limits {
            max_states: 20,
            ..Limits::default()
        };
        let err = plan
            .enumerate(0, &[], &Memory::zeroed(0), tight, &mut machine)
            .unwrap_err();
        assert_eq!(err, ExecError::StateExplosion);
        let exact = Limits {
            max_states: 21,
            ..Limits::default()
        };
        let set = plan
            .enumerate(0, &[], &Memory::zeroed(0), exact, &mut machine)
            .unwrap();
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn resumed_runs_share_the_memory_prefix() {
        // A store before the fork must be visible in every branch; a
        // store in one branch must not leak into siblings.
        let src = r#"
define i8 @f(i8* %p) {
entry:
  store i8 5, i8* %p
  %c = freeze i1 poison
  br i1 %c, label %a, label %b
a:
  store i8 7, i8* %p
  %va = load i8, i8* %p
  ret i8 %va
b:
  %vb = load i8, i8* %p
  ret i8 %vb
}
"#;
        let m = parse_module(src).unwrap();
        let plan = ModulePlan::compile(&m, Semantics::proposed());
        let mut machine = Machine::new();
        let mem = Memory::zeroed(1);
        let set = plan
            .enumerate(
                0,
                &[Val::ptr(Memory::BASE)],
                &mem,
                Limits::default(),
                &mut machine,
            )
            .unwrap();
        let mut vals: Vec<u128> = set
            .iter()
            .filter_map(|o| match o {
                Outcome::Ret { val: Some(v), .. } => v.as_int(),
                _ => None,
            })
            .collect();
        vals.sort_unstable();
        assert_eq!(vals, vec![5, 7]);
        let r = crate::exec::reference::enumerate_outcomes(
            &m,
            &m.functions[0],
            &[Val::ptr(Memory::BASE)],
            &mem,
            Semantics::proposed(),
            Limits::default(),
        )
        .unwrap();
        assert_eq!(set, r);
    }

    #[test]
    fn concrete_and_scripted_runs_match_reference_entry_points() {
        let src = "define i8 @f() {\nentry:\n  %a = freeze i8 poison\n  ret i8 %a\n}";
        let m = parse_module(src).unwrap();
        let plan = ModulePlan::compile(&m, Semantics::proposed());
        let mut machine = Machine::new();
        let mem = Memory::zeroed(0);
        let (o, steps) = plan
            .run_concrete(0, &[], &mem, Limits::default(), &mut machine)
            .unwrap();
        assert_eq!(o.ret_val(), Some(&Val::int(8, 0)));
        assert!(steps >= 1);
    }
}
