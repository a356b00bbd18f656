//! Enumeration of function inputs for exhaustive refinement checking.
//!
//! For integer parameters every defined value is enumerated plus
//! `poison` (and `undef` under legacy semantics); pointer parameters
//! receive provenance-carrying pointers to disjoint initial memory
//! blocks. This mirrors the paper's validation setup (§6): exhaustive
//! checking over tiny integer types — and, with
//! [`InputOptions::with_memory_values`], over tiny initial memories.

use std::sync::{Arc, Mutex, OnceLock};

use frost_core::{poison_of, undef_of, Bit, FastHashMap, Memory, Ptr, Val};
use frost_ir::{Function, Ty};

/// Options controlling input enumeration.
///
/// Build with [`InputOptions::new`] and the `with_*` knobs:
///
/// ```
/// use frost_refine::InputOptions;
/// let opts = InputOptions::new().with_undef(true).with_max_tuples(1 << 10);
/// assert!(opts.include_undef);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct InputOptions {
    /// Include `poison` among the argument values.
    pub include_poison: bool,
    /// Include `undef` among the argument values (only meaningful under
    /// legacy semantics).
    pub include_undef: bool,
    /// Bytes in the initial memory block behind each pointer parameter.
    pub bytes_per_pointer: u32,
    /// Upper bound on the number of argument tuples; enumeration fails
    /// (returns `None`) beyond it.
    pub max_tuples: usize,
    /// Enumerate the *contents* of the initial memory blocks, not just
    /// their shape. Each byte ranges over the reduced alphabet
    /// `{0x00, 0x01, 0xFF, poison}` — 257 states per byte is infeasible
    /// even at two bytes, and these four cover the all-bits patterns
    /// plus the deferred-UB marker that distinguish memory passes. Off
    /// by default: every byte is then the semantics' uninitialized fill.
    pub memory_values: bool,
}

impl Default for InputOptions {
    fn default() -> InputOptions {
        InputOptions {
            include_poison: true,
            include_undef: false,
            bytes_per_pointer: 4,
            max_tuples: 1 << 16,
            memory_values: false,
        }
    }
}

impl InputOptions {
    /// The default enumeration: poison included, undef excluded, 4
    /// bytes of memory per pointer, at most 2¹⁶ tuples, memory contents
    /// not enumerated.
    pub fn new() -> InputOptions {
        InputOptions::default()
    }

    /// Returns these options with `poison` included among (or excluded
    /// from) the argument values.
    #[must_use]
    pub fn with_poison(self, include_poison: bool) -> InputOptions {
        InputOptions {
            include_poison,
            ..self
        }
    }

    /// Returns these options with `undef` included among (or excluded
    /// from) the argument values. Only meaningful under legacy
    /// semantics; [`CheckOptions::new`](crate::CheckOptions::new)
    /// already follows `sem.has_undef`.
    #[must_use]
    pub fn with_undef(self, include_undef: bool) -> InputOptions {
        InputOptions {
            include_undef,
            ..self
        }
    }

    /// Returns these options with the given initial-block size per
    /// pointer parameter.
    #[must_use]
    pub fn with_bytes_per_pointer(self, bytes_per_pointer: u32) -> InputOptions {
        InputOptions {
            bytes_per_pointer,
            ..self
        }
    }

    /// Returns these options with the given cap on enumerated argument
    /// tuples.
    #[must_use]
    pub fn with_max_tuples(self, max_tuples: usize) -> InputOptions {
        InputOptions { max_tuples, ..self }
    }

    /// Returns these options with initial-memory contents enumerated
    /// (or not); see the [`memory_values`](InputOptions::memory_values)
    /// field for the byte alphabet. Combine with a small
    /// [`bytes_per_pointer`](InputOptions::with_bytes_per_pointer) —
    /// the memory space is 4^total-bytes.
    #[must_use]
    pub fn with_memory_values(self, memory_values: bool) -> InputOptions {
        InputOptions {
            memory_values,
            ..self
        }
    }
}

/// The candidate values for one parameter of type `ty`.
///
/// Pointer parameters consume the next initial-block index (pushing its
/// size onto `block_sizes`) and produce a provenance-carrying
/// [`Ptr::Block`] pointer to its start. Returns `None` if the type's
/// domain cannot be enumerated within `cap` values.
pub fn param_values(
    ty: &Ty,
    block_sizes: &mut Vec<u32>,
    opts: &InputOptions,
    cap: usize,
) -> Option<Vec<Val>> {
    match ty {
        Ty::Int(_) => {
            let mut vals = frost_core::enumerate_scalar(ty, cap)?;
            if opts.include_poison {
                vals.push(Val::Poison);
            }
            if opts.include_undef {
                vals.push(undef_of(ty));
            }
            Some(vals)
        }
        Ty::Ptr(_) => {
            // One disjoint initial block per pointer parameter;
            // poison/undef pointers when requested.
            let block = block_sizes.len() as u32;
            block_sizes.push(opts.bytes_per_pointer);
            let mut vals = vec![Val::Ptr(Ptr::Block { block, off: 0 })];
            if opts.include_poison {
                vals.push(poison_of(ty));
            }
            Some(vals)
        }
        Ty::Vector { elems, elem } => {
            let elem_vals = param_values(elem, block_sizes, opts, cap)?;
            let total = elem_vals.len().checked_pow(*elems)?;
            if total > cap {
                return None;
            }
            let mut tuples: Vec<Vec<Val>> = vec![Vec::new()];
            for _ in 0..*elems {
                let mut next = Vec::with_capacity(tuples.len() * elem_vals.len());
                for t in &tuples {
                    for v in &elem_vals {
                        let mut t2 = t.clone();
                        t2.push(v.clone());
                        next.push(t2);
                    }
                }
                tuples = next;
            }
            Some(tuples.into_iter().map(Val::Vec).collect())
        }
        Ty::Void => None,
    }
}

/// All argument tuples for `func`, plus the sizes of the initial memory
/// blocks its pointer parameters point into (one block per pointer
/// parameter, in parameter order).
///
/// Returns `None` if the input space exceeds `opts.max_tuples`.
pub fn enumerate_inputs(func: &Function, opts: &InputOptions) -> Option<(Vec<Vec<Val>>, Vec<u32>)> {
    let mut block_sizes: Vec<u32> = Vec::new();
    let mut per_param: Vec<Vec<Val>> = Vec::with_capacity(func.params.len());
    for p in &func.params {
        per_param.push(param_values(
            &p.ty,
            &mut block_sizes,
            opts,
            opts.max_tuples,
        )?);
    }

    let mut tuples: Vec<Vec<Val>> = vec![Vec::new()];
    for vals in &per_param {
        let mut next = Vec::with_capacity(tuples.len().saturating_mul(vals.len()));
        for t in &tuples {
            for v in vals {
                if next.len() >= opts.max_tuples {
                    return None;
                }
                let mut t2 = t.clone();
                t2.push(v.clone());
                next.push(t2);
            }
        }
        tuples = next;
        if tuples.len() > opts.max_tuples {
            return None;
        }
    }
    Some((tuples, block_sizes))
}

/// The reduced byte alphabet for initial-memory enumeration: `None` is
/// a fully-poison byte.
const MEMORY_BYTES: [Option<u8>; 4] = [Some(0x00), Some(0x01), Some(0xFF), None];

fn byte_bits(byte: Option<u8>) -> [Bit; 8] {
    match byte {
        None => [Bit::Poison; 8],
        Some(v) => {
            let mut bits = [Bit::Zero; 8];
            for (i, b) in bits.iter_mut().enumerate() {
                if v >> i & 1 == 1 {
                    *b = Bit::One;
                }
            }
            bits
        }
    }
}

/// Every candidate initial memory for the given block shape.
///
/// Without [`InputOptions::memory_values`] this is a single memory
/// whose bytes are all `fill` (the semantics' uninitialized-byte
/// marker). With it, every byte of every initial block independently
/// ranges over the reduced alphabet `{0x00, 0x01, 0xFF, poison}`;
/// returns `None` when 4^total-bytes exceeds `opts.max_tuples`.
pub fn enumerate_memories(
    block_sizes: &[u32],
    opts: &InputOptions,
    fill: Bit,
) -> Option<Vec<Memory>> {
    let base = Memory::with_initial_blocks(block_sizes, fill);
    if !opts.memory_values {
        return Some(vec![base]);
    }
    let total: u32 = block_sizes.iter().sum();
    let count = MEMORY_BYTES.len().checked_pow(total)?;
    if count > opts.max_tuples {
        return None;
    }
    let mut mems = Vec::with_capacity(count);
    for combo in 0..count {
        let mut m = base.clone();
        let mut c = combo;
        for (bi, &size) in block_sizes.iter().enumerate() {
            for off in 0..size {
                let byte = MEMORY_BYTES[c % MEMORY_BYTES.len()];
                c /= MEMORY_BYTES.len();
                let block = bi as u32;
                let stored = m.store_ptr(Ptr::Block { block, off }, &byte_bits(byte));
                debug_assert!(stored, "initial-block store is always in bounds");
            }
        }
        mems.push(m);
    }
    Some(mems)
}

/// A shared, immutable input enumeration: the argument tuples plus the
/// initial-block sizes, behind an [`Arc`] so concurrent checkers can
/// hold it without copying the tuple list.
pub type SharedInputs = Arc<(Vec<Vec<Val>>, Vec<u32>)>;

/// Memo table type: parameter type list + options → shared enumeration
/// (or the memoized failure).
type InputMemo = FastHashMap<(Vec<Ty>, InputOptions), Option<SharedInputs>>;

/// The process-wide memo for [`enumerate_inputs_cached`], keyed by
/// everything [`enumerate_inputs`] reads: the parameter type list and
/// the options. Signatures in a campaign number in the dozens, so the
/// table stays tiny for the lifetime of the process.
fn input_memo() -> &'static Mutex<InputMemo> {
    static MEMO: OnceLock<Mutex<InputMemo>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(FastHashMap::default()))
}

/// Memoized [`enumerate_inputs`]. The result depends only on the
/// function's parameter types and the options, and §6 campaigns
/// re-enumerate the same handful of signatures millions of times —
/// checkers on the hot path share one materialized tuple list per
/// signature instead of rebuilding it per check. Unenumerable
/// signatures (`None`) are memoized too.
pub fn enumerate_inputs_cached(func: &Function, opts: &InputOptions) -> Option<SharedInputs> {
    let key = (
        func.params.iter().map(|p| p.ty.clone()).collect::<Vec<_>>(),
        *opts,
    );
    if let Some(hit) = input_memo().lock().expect("input memo lock").get(&key) {
        return hit.clone();
    }
    // Enumerate outside the lock; a racing duplicate insert stores an
    // identical value.
    let computed = enumerate_inputs(func, opts).map(Arc::new);
    input_memo()
        .lock()
        .expect("input memo lock")
        .insert(key, computed.clone());
    computed
}

/// Both sides' candidate initial memories for one check, from
/// [`check_memories`].
pub(crate) enum CheckMemories {
    /// The single all-fill memory of each side (source, target), built
    /// in place.
    Single([Memory; 2]),
    /// The enumerated contents, one list both sides read, shared
    /// through a process-wide memo. Every byte is set, so neither
    /// side's uninitialized fill shows.
    Enumerated(Arc<Vec<Memory>>),
}

impl CheckMemories {
    /// Whether both sides read one list, so that a pair's verdict
    /// depends only on the runs answering it.
    pub(crate) fn is_shared(&self) -> bool {
        matches!(self, CheckMemories::Enumerated(_))
    }

    /// The source side's memories.
    pub(crate) fn src(&self) -> &[Memory] {
        self.side(0)
    }

    /// The target side's memories.
    pub(crate) fn tgt(&self) -> &[Memory] {
        self.side(1)
    }

    fn side(&self, i: usize) -> &[Memory] {
        match self {
            CheckMemories::Single(m) => std::slice::from_ref(&m[i]),
            CheckMemories::Enumerated(m) => m,
        }
    }
}

/// Memo table type: block shape + options → the shared memory list (or
/// the memoized failure).
type MemoryMemo = FastHashMap<(Vec<u32>, InputOptions), Option<Arc<Vec<Memory>>>>;

fn memory_memo() -> &'static Mutex<MemoryMemo> {
    static MEMO: OnceLock<Mutex<MemoryMemo>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(FastHashMap::default()))
}

/// [`enumerate_memories`] for both sides of a check. Returns `None`
/// when the memory space exceeds `opts.max_tuples`.
///
/// With [`InputOptions::memory_values`] every byte is enumerated, so
/// the fills never show and both sides read one list (4^total-bytes
/// memories), memoized per (block shape, options) like
/// [`enumerate_inputs_cached`]: every check of a memory sweep shares it
/// instead of rebuilding hundreds of images, and the memo keeps each
/// shape's list for the life of the process. Without it each side has
/// one memory, the source's filled with `src_fill` and the target's
/// with `tgt_fill`, built in place: no lock, no list.
pub(crate) fn check_memories(
    block_sizes: &[u32],
    opts: &InputOptions,
    src_fill: Bit,
    tgt_fill: Bit,
) -> Option<CheckMemories> {
    if !opts.memory_values {
        return Some(CheckMemories::Single([
            Memory::with_initial_blocks(block_sizes, src_fill),
            Memory::with_initial_blocks(block_sizes, tgt_fill),
        ]));
    }
    let key = (block_sizes.to_vec(), *opts);
    if let Some(hit) = memory_memo().lock().expect("memory memo lock").get(&key) {
        return hit.clone().map(CheckMemories::Enumerated);
    }
    // Enumerate outside the lock; a racing duplicate insert stores an
    // identical value.
    let computed = enumerate_memories(block_sizes, opts, src_fill).map(Arc::new);
    memory_memo()
        .lock()
        .expect("memory memo lock")
        .insert(key, computed.clone());
    computed.map(CheckMemories::Enumerated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use frost_ir::FunctionBuilder;

    fn fn_with(params: &[(&str, Ty)]) -> Function {
        let mut b = FunctionBuilder::new("f", params, Ty::Void);
        b.ret_void();
        b.finish()
    }

    #[test]
    fn int_params_enumerate_all_values_plus_poison() {
        let f = fn_with(&[("x", Ty::Int(2))]);
        let (tuples, blocks) = enumerate_inputs(&f, &InputOptions::default()).unwrap();
        assert_eq!(tuples.len(), 5); // 4 values + poison
        assert!(blocks.is_empty());
        assert!(tuples.iter().any(|t| t[0] == Val::Poison));
    }

    #[test]
    fn undef_included_when_requested() {
        let f = fn_with(&[("x", Ty::Int(1))]);
        let opts = InputOptions::new().with_undef(true);
        let (tuples, _) = enumerate_inputs(&f, &opts).unwrap();
        assert_eq!(tuples.len(), 4); // false, true, poison, undef
    }

    #[test]
    fn pointers_get_disjoint_blocks() {
        let f = fn_with(&[("p", Ty::ptr_to(Ty::i8())), ("q", Ty::ptr_to(Ty::i8()))]);
        let opts = InputOptions::new().with_poison(false);
        let (tuples, blocks) = enumerate_inputs(&f, &opts).unwrap();
        assert_eq!(tuples.len(), 1);
        assert_eq!(blocks, vec![4, 4]);
        assert_eq!(tuples[0][0], Val::Ptr(Ptr::Block { block: 0, off: 0 }));
        assert_eq!(tuples[0][1], Val::Ptr(Ptr::Block { block: 1, off: 0 }));
        assert_ne!(tuples[0][0], tuples[0][1]);
    }

    #[test]
    fn tuple_count_is_the_product() {
        let f = fn_with(&[("x", Ty::Int(2)), ("y", Ty::Int(1))]);
        let (tuples, _) = enumerate_inputs(&f, &InputOptions::default()).unwrap();
        assert_eq!(tuples.len(), 5 * 3);
    }

    #[test]
    fn overflow_of_cap_returns_none() {
        let f = fn_with(&[("x", Ty::i32())]);
        assert!(enumerate_inputs(&f, &InputOptions::default()).is_none());
        let opts = InputOptions::new().with_max_tuples(100);
        let h = fn_with(&[("x", Ty::Int(4)), ("y", Ty::Int(4))]);
        assert!(enumerate_inputs(&h, &opts).is_none());
    }

    #[test]
    fn cached_inputs_are_shared_per_signature() {
        // An options value no other test uses, so this test owns its
        // process-global memo entries.
        let opts = InputOptions::new().with_max_tuples((1 << 16) - 3);
        let f = fn_with(&[("x", Ty::Int(2))]);
        let g = fn_with(&[("other_name", Ty::Int(2))]);
        let a = enumerate_inputs_cached(&f, &opts).unwrap();
        let b = enumerate_inputs_cached(&g, &opts).unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "same signature must share one materialized enumeration"
        );
        assert_eq!(*a, enumerate_inputs(&f, &opts).unwrap());
        // Unenumerable signatures memoize their failure.
        let wide = fn_with(&[("x", Ty::i32())]);
        assert!(enumerate_inputs_cached(&wide, &opts).is_none());
        assert!(enumerate_inputs_cached(&wide, &opts).is_none());
    }

    #[test]
    fn vector_params_enumerate_per_element() {
        let f = fn_with(&[("v", Ty::vector(2, Ty::Int(1)))]);
        let opts = InputOptions::new().with_poison(true);
        let (tuples, _) = enumerate_inputs(&f, &opts).unwrap();
        // 3 choices per element (0, 1, poison), 2 elements.
        assert_eq!(tuples.len(), 9);
    }

    #[test]
    fn memory_contents_enumerate_the_reduced_alphabet() {
        let opts = InputOptions::new()
            .with_bytes_per_pointer(1)
            .with_memory_values(true);
        let mems = enumerate_memories(&[1], &opts, Bit::Poison).unwrap();
        assert_eq!(mems.len(), 4); // 0x00, 0x01, 0xFF, poison
        let loaded: Vec<_> = mems
            .iter()
            .map(|m| m.load_ptr(Ptr::Block { block: 0, off: 0 }, 8).unwrap())
            .collect();
        // All four candidate bytes are distinct.
        for i in 0..loaded.len() {
            for j in i + 1..loaded.len() {
                assert_ne!(loaded[i], loaded[j]);
            }
        }
        // Without the knob there is exactly one, all-fill, memory.
        let plain = enumerate_memories(&[1], &InputOptions::new(), Bit::Poison).unwrap();
        assert_eq!(plain.len(), 1);
        assert_eq!(
            plain[0].load_ptr(Ptr::Block { block: 0, off: 0 }, 8),
            Some(vec![Bit::Poison; 8])
        );
    }

    #[test]
    fn memory_space_too_large_returns_none() {
        // 4 bytes/pointer × 2 pointers = 8 bytes → 4^8 = 65536 memories,
        // just within the default cap; 3 pointers overflow it.
        let opts = InputOptions::new().with_memory_values(true);
        assert!(enumerate_memories(&[4, 4], &opts, Bit::Poison).is_some());
        assert!(enumerate_memories(&[4, 4, 4], &opts, Bit::Poison).is_none());
    }
}
