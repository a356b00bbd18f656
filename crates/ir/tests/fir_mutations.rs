//! The `.fir` half of the byte-mutation gate: seeded truncations, bit
//! flips, splices and deletions of every committed `examples/*.fir`
//! module must parse and verify to a result (`Ok` or an error), never
//! to a panic.

use std::panic;
use std::path::Path;

use frost_ir::{parse_module, verify_module, VerifyMode};

/// Mutants per example module.
const MUTANTS_PER_FILE: usize = 4_000;
/// Longest byte range a splice or deletion touches.
const MAX_RANGE: usize = 160;

/// xorshift64*: a fixed-seed stream, so every run checks the same mutants.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform-enough in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A range of at most `MAX_RANGE` bytes inside `0..len`.
    fn range(&mut self, len: usize) -> std::ops::Range<usize> {
        let start = self.below(len + 1);
        start..(start + self.below(MAX_RANGE + 1)).min(len)
    }
}

/// One mutant of `src`; splices borrow bytes from any file of `corpus`.
fn mutate(rng: &mut Rng, src: &[u8], corpus: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = src.to_vec();
    match rng.below(4) {
        0 => bytes.truncate(rng.below(src.len() + 1)),
        1 => {
            let i = rng.below(src.len());
            bytes[i] ^= 1 << rng.below(8);
        }
        2 => {
            let donor = &corpus[rng.below(corpus.len())];
            let from = rng.range(donor.len());
            let into = rng.range(bytes.len());
            bytes.splice(into, donor[from].iter().copied());
        }
        _ => {
            let gone = rng.range(bytes.len());
            bytes.drain(gone);
        }
    }
    bytes
}

#[test]
fn mutated_example_modules_are_errors_not_panics() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples/ exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "fir"))
        .collect();
    paths.sort();
    let corpus: Vec<Vec<u8>> = paths
        .iter()
        .map(|p| std::fs::read(p).expect("readable example"))
        .collect();
    assert!(!corpus.is_empty(), "no examples/*.fir to mutate");

    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let (mut checked, mut panicked) = (0usize, Vec::new());
    for src in &corpus {
        for _ in 0..MUTANTS_PER_FILE {
            let mutant = mutate(&mut rng, src, &corpus);
            let Ok(text) = String::from_utf8(mutant) else {
                continue;
            };
            checked += 1;
            let outcome = panic::catch_unwind(|| {
                if let Ok(module) = parse_module(&text) {
                    let _ = verify_module(&module, VerifyMode::Legacy);
                }
            });
            if outcome.is_err() {
                panicked.push(text);
            }
        }
    }
    assert!(
        checked > corpus.len() * MUTANTS_PER_FILE / 2,
        "{checked} UTF-8 mutants"
    );
    assert!(
        panicked.is_empty(),
        "{} of {checked} mutants panicked; the first:\n{}",
        panicked.len(),
        panicked[0]
    );
}
