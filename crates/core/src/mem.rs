//! The two-phase, block-based memory of §4.2 (after Beck et al.).
//!
//! Memory is a set of logical *blocks*, each a bit-granular byte array.
//! Execution starts in the **infinite** phase: `alloca` mints fresh
//! blocks and pointers are `(block, offset)` pairs with no observable
//! address. A `ptrtoint`/`inttoptr` forces the **finite** phase, in
//! which every block has a concrete base address. Layout is
//! *deterministic* — block `i`'s base depends only on the sizes of the
//! blocks created before it — so concretization never introduces
//! nondeterminism and both executors agree byte-for-byte.
//!
//! Bounds discipline (Figure 5): going out of bounds on `gep inbounds`
//! or a cast is *deferred* UB (the pointer becomes poison), but an
//! out-of-bounds `Load(M, p, sz)`/`Store(M, p, b)` is *immediate* UB.
//! Raw-address accesses (`Ptr::Addr`) resolve against the *initial*
//! blocks in either phase — callers may pass `BASE + off` pointers as
//! arguments, preserving the old flat-region interface — and against
//! `alloca`'d blocks only once the finite phase has been forced.

use std::sync::{Arc, OnceLock};

use crate::val::{Bit, Bits, Ptr};

/// Which memory phase execution is in.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Phase {
    /// Blocks are logical; raw addresses only resolve to initial blocks.
    Infinite,
    /// Addresses are concrete; raw addresses resolve to every block.
    Finite,
}

/// One logical allocation: a base address (meaningful in the finite
/// phase) plus bit-granular contents.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct Block {
    /// Concrete base address (fixed deterministically at creation).
    base: u32,
    /// One entry per bit, LSB-first within each byte.
    bits: Vec<Bit>,
}

impl Block {
    fn size_bytes(&self) -> u32 {
        (self.bits.len() / 8) as u32
    }
}

/// The block-based memory state.
///
/// Cloning is cheap: blocks are `Arc`-shared and copied on first write
/// (the executors' copy-on-write run forking relies on this).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct MemState {
    blocks: Vec<Arc<Block>>,
    /// How many leading blocks existed before execution started (the
    /// caller-provided image; `snapshot` and raw-address resolution in
    /// the infinite phase cover exactly these).
    n_initial: u32,
    phase: Phase,
}

/// The historical name for the memory state.
pub type Memory = MemState;

/// Guard gap between consecutive blocks, so one-past-the-end of one
/// block never equals the base of the next.
const GUARD_BYTES: u32 = 8;

impl MemState {
    /// Base address of the first block (null and low addresses are
    /// always invalid).
    pub const BASE: u32 = 0x1000;

    /// A memory with one initial block of `size_bytes` filled with
    /// `fill` (use [`Bit::Poison`] under the proposed semantics,
    /// [`Bit::Undef`] under the legacy ones). `size_bytes == 0` means
    /// no memory at all.
    pub fn uninit(size_bytes: u32, fill: Bit) -> MemState {
        if size_bytes == 0 {
            return MemState {
                blocks: Vec::new(),
                n_initial: 0,
                phase: Phase::Infinite,
            };
        }
        MemState::with_initial_blocks(&[size_bytes], fill)
    }

    /// A memory with one zero-initialized initial block.
    pub fn zeroed(size_bytes: u32) -> MemState {
        MemState::uninit(size_bytes, Bit::Zero)
    }

    /// A memory with one initial block per entry of `sizes` (e.g. one
    /// disjoint block per pointer parameter), each filled with `fill`.
    pub fn with_initial_blocks(sizes: &[u32], fill: Bit) -> MemState {
        let mut m = MemState {
            blocks: Vec::new(),
            n_initial: 0,
            phase: Phase::Infinite,
        };
        for &size in sizes {
            m.push_block(size, fill);
        }
        m.n_initial = m.blocks.len() as u32;
        m
    }

    /// The deterministic base for the next block: 8-aligned, one guard
    /// gap past the previous block's end.
    fn next_base(&self) -> u32 {
        match self.blocks.last() {
            None => MemState::BASE,
            Some(b) => {
                let end = b.base + b.size_bytes();
                (end + GUARD_BYTES).next_multiple_of(8)
            }
        }
    }

    fn push_block(&mut self, size_bytes: u32, fill: Bit) -> u32 {
        let base = self.next_base();
        self.blocks.push(Arc::new(Block {
            base,
            bits: vec![fill; size_bytes as usize * 8],
        }));
        (self.blocks.len() - 1) as u32
    }

    /// `alloca`: mints a fresh block of `size_bytes` filled with `fill`
    /// and returns its index. The base address is fixed (deterministic)
    /// immediately, but remains unobservable until
    /// [`concretize`](Self::concretize) is forced.
    pub fn alloca(&mut self, size_bytes: u32, fill: Bit) -> u32 {
        mem_counters().allocas.incr();
        self.push_block(size_bytes, fill)
    }

    /// The current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Forces the finite phase (`ptrtoint`/`inttoptr` observed an
    /// address). Layout is already fixed, so this only widens what raw
    /// addresses may resolve to.
    pub fn concretize(&mut self) {
        if self.phase == Phase::Infinite {
            mem_counters().concretizations.incr();
            self.phase = Phase::Finite;
        }
    }

    /// Number of blocks (initial + alloca'd).
    pub fn num_blocks(&self) -> u32 {
        self.blocks.len() as u32
    }

    /// The concrete address a pointer denotes. Always defined — block
    /// bases are deterministic — though in the infinite phase it is not
    /// yet observable by the program.
    pub fn ptr_addr(&self, p: Ptr) -> u32 {
        match p {
            Ptr::Addr(a) => a,
            Ptr::Block { block, off } => self
                .blocks
                .get(block as usize)
                .map_or(off, |b| b.base.wrapping_add(off)),
        }
    }

    /// Size in bytes of block `block` (0 if out of range).
    pub fn block_size(&self, block: u32) -> u32 {
        self.blocks
            .get(block as usize)
            .map_or(0, |b| b.size_bytes())
    }

    /// Resolves a raw address to `(block index, bit offset)` for a
    /// `width_bits` access, honouring the phase rules: initial blocks
    /// resolve in either phase, `alloca`'d blocks only in the finite
    /// phase.
    fn resolve(&self, addr: u32, width_bits: u32) -> Option<(usize, usize)> {
        let visible = match self.phase {
            Phase::Infinite => self.n_initial as usize,
            Phase::Finite => self.blocks.len(),
        };
        for (i, b) in self.blocks[..visible].iter().enumerate() {
            if addr < b.base {
                continue;
            }
            let off_bits = (addr - b.base) as u64 * 8;
            if off_bits + u64::from(width_bits) <= b.bits.len() as u64 {
                return Some((i, off_bits as usize));
            }
        }
        None
    }

    /// Locates the bit range of a `width_bits` access through `p`, or
    /// `None` (= immediate UB at the caller) if out of bounds.
    fn locate(&self, p: Ptr, width_bits: u32) -> Option<(usize, usize)> {
        match p {
            Ptr::Block { block, off } => {
                let b = self.blocks.get(block as usize)?;
                let off_bits = off as u64 * 8;
                if off_bits + u64::from(width_bits) <= b.bits.len() as u64 {
                    Some((block as usize, off_bits as usize))
                } else {
                    None
                }
            }
            Ptr::Addr(a) => self.resolve(a, width_bits),
        }
    }

    /// Returns `true` if a `width_bits`-wide access through `p` is in
    /// bounds.
    pub fn ptr_in_bounds(&self, p: Ptr, width_bits: u32) -> bool {
        self.locate(p, width_bits).is_some()
    }

    /// Returns `true` if a `width_bits`-wide access at raw address
    /// `addr` is in bounds.
    pub fn in_bounds(&self, addr: u32, width_bits: u32) -> bool {
        self.resolve(addr, width_bits).is_some()
    }

    /// `Load(M, p, sz)`: reads `width_bits` through pointer `p`.
    /// Returns `None` (= immediate UB at the caller) if out of bounds.
    pub fn load_ptr(&self, p: Ptr, width_bits: u32) -> Option<Bits> {
        let (block, off) = self.locate(p, width_bits)?;
        let bits = &self.blocks[block].bits;
        Some(bits[off..off + width_bits as usize].to_vec())
    }

    /// `Store(M, p, b)`: writes `bits` through pointer `p`. Returns
    /// `false` (= immediate UB at the caller) if out of bounds. Copies
    /// the target block if it is shared.
    #[must_use]
    pub fn store_ptr(&mut self, p: Ptr, bits: &[Bit]) -> bool {
        let Some((block, off)) = self.locate(p, bits.len() as u32) else {
            return false;
        };
        let b = Arc::make_mut(&mut self.blocks[block]);
        b.bits[off..off + bits.len()].copy_from_slice(bits);
        true
    }

    /// Raw-address load (the pre-block-model interface).
    pub fn load(&self, addr: u32, width_bits: u32) -> Option<Bits> {
        self.load_ptr(Ptr::Addr(addr), width_bits)
    }

    /// Raw-address store (the pre-block-model interface).
    #[must_use]
    pub fn store(&mut self, addr: u32, bits: &[Bit]) -> bool {
        self.store_ptr(Ptr::Addr(addr), bits)
    }

    /// Total size of the *initial* blocks in bytes.
    pub fn size_bytes(&self) -> u32 {
        self.blocks[..self.n_initial as usize]
            .iter()
            .map(|b| b.size_bytes())
            .sum()
    }

    /// The address one past the end of the last initial block (the end
    /// of the caller-provided region).
    pub fn end(&self) -> u32 {
        self.blocks[..self.n_initial as usize]
            .last()
            .map_or(MemState::BASE, |b| b.base + b.size_bytes())
    }

    /// A snapshot of the *initial* blocks' bit contents, concatenated
    /// in order (used to compare final memories during refinement
    /// checking — `alloca`'d locals are private to each side and do not
    /// participate).
    pub fn snapshot(&self) -> Bits {
        self.blocks[..self.n_initial as usize]
            .iter()
            .flat_map(|b| b.bits.iter().copied())
            .collect()
    }

    /// The initial-region bytes a `width_bits`-wide access through `p`
    /// covers, as a mask over [`snapshot`](Self::snapshot) byte
    /// positions (bit `i` is byte `i`): 0 for an access that is out of
    /// bounds or lands in an `alloca`'d block, every bit for one that
    /// reaches past byte 63.
    pub(crate) fn initial_bytes(&self, p: Ptr, width_bits: u32) -> u64 {
        let Some((block, off)) = self.locate(p, width_bits) else {
            return 0;
        };
        if block >= self.n_initial as usize {
            return 0;
        }
        let start = self.blocks[..block]
            .iter()
            .map(|b| b.bits.len())
            .sum::<usize>()
            + off;
        let end = (start + width_bits as usize).div_ceil(8);
        if end > 64 {
            return u64::MAX;
        }
        let below = |n: usize| u64::MAX.checked_shr(64 - n as u32).unwrap_or(0);
        below(end) & !below(start / 8)
    }

    /// Whether `other` has this memory's blocks, block sizes and phase,
    /// and no block beyond the initial ones: then a program sees a
    /// difference between the two only through the bytes it loads.
    pub(crate) fn same_layout(&self, other: &MemState) -> bool {
        self.n_initial as usize == self.blocks.len()
            && self.n_initial == other.n_initial
            && self.phase == other.phase
            && self.blocks.len() == other.blocks.len()
            && self
                .blocks
                .iter()
                .zip(&other.blocks)
                .all(|(a, b)| a.bits.len() == b.bits.len())
    }

    /// The eight bits of initial-region byte `pos`, a
    /// [`snapshot`](Self::snapshot) byte position.
    ///
    /// # Panics
    ///
    /// Panics if `pos` lies past the initial blocks.
    pub(crate) fn initial_byte(&self, pos: usize) -> &[Bit] {
        let mut off = pos * 8;
        for b in &self.blocks[..self.n_initial as usize] {
            if off < b.bits.len() {
                return &b.bits[off..off + 8];
            }
            off -= b.bits.len();
        }
        panic!("byte {pos} lies past the initial blocks")
    }

    /// Overwrites every byte of `snapshot`, a [`snapshot`](Self::snapshot)
    /// of a memory with this one's layout, that lies outside `mask` with
    /// this memory's byte. Bytes past 63 are left alone.
    pub(crate) fn fill_outside(&self, snapshot: &mut [Bit], mask: u64) {
        let own = self.blocks[..self.n_initial as usize]
            .iter()
            .flat_map(|b| b.bits.chunks(8));
        for (pos, (dst, src)) in snapshot.chunks_mut(8).zip(own).take(64).enumerate() {
            if mask >> pos & 1 == 0 {
                dst.copy_from_slice(src);
            }
        }
    }
}

/// The always-on memory counters (`frost.core.mem.*`; see
/// docs/OBSERVABILITY.md). Observability telemetry, not a determinism
/// surface.
struct MemCounters {
    allocas: &'static frost_telemetry::Counter,
    concretizations: &'static frost_telemetry::Counter,
}

fn mem_counters() -> &'static MemCounters {
    static COUNTERS: OnceLock<MemCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| MemCounters {
        allocas: frost_telemetry::counter("frost.core.mem.allocas"),
        concretizations: frost_telemetry::counter("frost.core.mem.concretizations"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_and_low_addresses_are_invalid() {
        let m = Memory::zeroed(16);
        assert!(!m.in_bounds(0, 8));
        assert!(!m.in_bounds(Memory::BASE - 1, 8));
        assert!(m.in_bounds(Memory::BASE, 8));
    }

    #[test]
    fn load_store_round_trip() {
        let mut m = Memory::uninit(4, Bit::Poison);
        let bits = vec![
            Bit::One,
            Bit::Zero,
            Bit::One,
            Bit::One,
            Bit::Zero,
            Bit::Zero,
            Bit::Zero,
            Bit::Zero,
        ];
        assert!(m.store(Memory::BASE + 1, &bits));
        assert_eq!(m.load(Memory::BASE + 1, 8), Some(bits));
        // Neighbouring byte still poison.
        assert_eq!(m.load(Memory::BASE, 8), Some(vec![Bit::Poison; 8]));
    }

    #[test]
    fn out_of_bounds_fails() {
        let mut m = Memory::zeroed(2);
        assert_eq!(m.load(Memory::BASE + 2, 8), None);
        assert_eq!(m.load(Memory::BASE + 1, 16), None);
        assert!(!m.store(Memory::BASE + 2, &[Bit::Zero; 8]));
        // A 16-bit load at the last byte fails, an 8-bit one succeeds.
        assert!(m.load(Memory::BASE + 1, 8).is_some());
    }

    #[test]
    fn sub_byte_widths_are_supported() {
        let mut m = Memory::zeroed(1);
        assert!(m.store(Memory::BASE, &[Bit::One]));
        assert_eq!(m.load(Memory::BASE, 1), Some(vec![Bit::One]));
        assert_eq!(
            m.load(Memory::BASE, 8).unwrap()[1..],
            vec![Bit::Zero; 7][..],
            "remaining bits untouched"
        );
    }

    #[test]
    fn snapshot_reflects_stores() {
        let mut m = Memory::zeroed(1);
        assert!(m.store(Memory::BASE, &[Bit::One; 8]));
        assert_eq!(m.snapshot(), vec![Bit::One; 8]);
    }

    #[test]
    fn alloca_blocks_are_disjoint_and_deterministic() {
        let mut a = Memory::zeroed(2);
        let mut b = Memory::zeroed(2);
        let ba = a.alloca(4, Bit::Poison);
        let bb = b.alloca(4, Bit::Poison);
        assert_eq!(ba, bb);
        assert_eq!(
            a.ptr_addr(Ptr::Block { block: ba, off: 0 }),
            b.ptr_addr(Ptr::Block { block: bb, off: 0 })
        );
        // The new block does not overlap the initial one, even counting
        // one-past-the-end pointers.
        let base = a.ptr_addr(Ptr::Block { block: ba, off: 0 });
        assert!(base > Memory::BASE + 2);
    }

    #[test]
    fn provenance_access_works_in_the_infinite_phase() {
        let mut m = Memory::zeroed(0);
        let b = m.alloca(2, Bit::Poison);
        let p = Ptr::Block { block: b, off: 1 };
        assert!(m.store_ptr(p, &[Bit::One; 8]));
        assert_eq!(m.load_ptr(p, 8), Some(vec![Bit::One; 8]));
        // Out of bounds through provenance is immediate UB.
        assert_eq!(m.load_ptr(Ptr::Block { block: b, off: 2 }, 8), None);
        assert!(!m.store_ptr(Ptr::Block { block: b, off: 5 }, &[Bit::Zero; 8]));
    }

    #[test]
    fn raw_addresses_reach_allocas_only_in_the_finite_phase() {
        let mut m = Memory::zeroed(1);
        let b = m.alloca(1, Bit::Zero);
        let addr = m.ptr_addr(Ptr::Block { block: b, off: 0 });
        // Infinite phase: the alloca is invisible to raw addresses...
        assert_eq!(m.load(addr, 8), None);
        // ...but the initial block still resolves (flat compatibility).
        assert!(m.load(Memory::BASE, 8).is_some());
        m.concretize();
        assert_eq!(m.phase(), Phase::Finite);
        assert_eq!(m.load(addr, 8), Some(vec![Bit::Zero; 8]));
    }

    #[test]
    fn stores_through_raw_and_provenance_pointers_agree() {
        let mut m = Memory::zeroed(1);
        let b = m.alloca(1, Bit::Zero);
        m.concretize();
        let addr = m.ptr_addr(Ptr::Block { block: b, off: 0 });
        assert!(m.store(addr, &[Bit::One; 8]));
        assert_eq!(
            m.load_ptr(Ptr::Block { block: b, off: 0 }, 8),
            Some(vec![Bit::One; 8])
        );
    }

    #[test]
    fn snapshot_excludes_alloca_blocks() {
        let mut m = Memory::zeroed(2);
        let b = m.alloca(4, Bit::Poison);
        assert!(m.store_ptr(Ptr::Block { block: b, off: 0 }, &[Bit::One; 8]));
        assert_eq!(m.snapshot(), vec![Bit::Zero; 16]);
        assert_eq!(m.size_bytes(), 2);
        assert_eq!(m.end(), Memory::BASE + 2);
    }

    #[test]
    fn cow_blocks_do_not_leak_across_clones() {
        let mut m = Memory::zeroed(1);
        let snap = m.clone();
        assert!(m.store(Memory::BASE, &[Bit::One; 8]));
        assert_eq!(snap.load(Memory::BASE, 8), Some(vec![Bit::Zero; 8]));
        assert_eq!(m.load(Memory::BASE, 8), Some(vec![Bit::One; 8]));
    }

    #[test]
    fn initial_blocks_are_disjoint_per_parameter() {
        let m = Memory::with_initial_blocks(&[4, 4], Bit::Zero);
        assert_eq!(m.num_blocks(), 2);
        let b0 = m.ptr_addr(Ptr::Block { block: 0, off: 0 });
        let b1 = m.ptr_addr(Ptr::Block { block: 1, off: 0 });
        assert!(b0 + 4 < b1, "guard gap separates blocks");
        assert_eq!(m.size_bytes(), 8);
        assert_eq!(m.snapshot().len(), 64);
    }
}
