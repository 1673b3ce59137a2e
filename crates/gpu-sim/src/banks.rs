//! Shared-memory bank-conflict model.
//!
//! Shared memory is divided into `banks` (32 on Fermi/Kepler) of
//! `bank_width`-byte words. A warp's shared access completes in one pass iff
//! every active lane touches a distinct bank *or* lanes touching the same
//! bank read the same word (broadcast). Otherwise the access replays once per
//! extra word mapped to the most-contended bank — the mechanism behind
//! `reduce1`'s `shared_replay_overhead` bottleneck (paper §5.2).
//!
//! [`conflict_degree_scratch`] counts one access. Most accesses take its
//! fast path; the rest take the general path, which collects, sorts and
//! dedups the touched words and works for any bank count and width.
//!
//! * **Monotone fast path.** It applies when `banks` (at most 32) and
//!   `bank_width` are powers of two, every active lane touches one word,
//!   and the words are monotone in lane order (non-decreasing or
//!   non-increasing). Equal words are then adjacent, so comparing each
//!   word with the previous one dedups exactly. A shift and a mask replace
//!   `/` and `%`, and the distinct words are counted per bank in a fixed
//!   `[u8; 32]`.
//! * **Translated accesses.** [`is_translation`] lets a caller reuse an
//!   earlier access's count. If every active offset moves by one Δ that is
//!   a multiple of `banks × bank_width`, each word moves by a multiple of
//!   `banks` to another word in the same bank, one to one. So no bank's
//!   count of distinct words changes, and neither does the degree.

use crate::trace::{first_lanes, LaneMask};

/// Reusable scratch space for [`conflict_degree_scratch`], so the SoA batch
/// compiler evaluates every shared access in a launch without allocating.
#[derive(Debug, Default)]
pub struct BankScratch {
    words: Vec<u32>,
    counts: Vec<u32>,
}

impl BankScratch {
    /// Fresh scratch space (buffers grow on first use).
    pub fn new() -> BankScratch {
        BankScratch::default()
    }
}

/// Computes the conflict degree of a shared-memory access: the maximum
/// number of *distinct words* any single bank must serve. Degree 1 means
/// conflict-free; degree `d` costs `d - 1` replays. Monotone one-word
/// accesses on power-of-two banks are counted directly (see the module
/// docs); every other access collects its touched words into `scratch`,
/// sorts and dedups them, then counts them per bank.
pub fn conflict_degree_scratch(
    offsets: &[u32],
    width: u8,
    mask: LaneMask,
    banks: u32,
    bank_width: u32,
    scratch: &mut BankScratch,
) -> u32 {
    if let Some(degree) = monotone_degree(offsets, width, mask, banks, bank_width) {
        return degree;
    }
    scratch.words.clear();
    let words_per_access = (width as u32).div_ceil(bank_width).max(1);
    for (lane, &off) in offsets.iter().enumerate() {
        if mask & (1 << lane) == 0 {
            continue;
        }
        for w in 0..words_per_access {
            scratch.words.push(off / bank_width + w);
        }
    }
    scratch.words.sort_unstable();
    scratch.words.dedup();
    if scratch.counts.len() < banks as usize {
        scratch.counts.resize(banks as usize, 0);
    }
    let mut degree = 1u32;
    for &w in &scratch.words {
        let b = (w % banks) as usize;
        scratch.counts[b] += 1;
        degree = degree.max(scratch.counts[b]);
    }
    // Reset only the touched banks so the next access starts clean.
    for &w in &scratch.words {
        scratch.counts[(w % banks) as usize] = 0;
    }
    degree
}

/// The monotone fast path of [`conflict_degree_scratch`]: `None` when
/// the access does not qualify, or when its words change direction, so
/// the caller takes the general path.
fn monotone_degree(
    offsets: &[u32],
    width: u8,
    mask: LaneMask,
    banks: u32,
    bank_width: u32,
) -> Option<u32> {
    if !(banks.is_power_of_two()
        && banks <= 32
        && bank_width.is_power_of_two()
        && width as u32 <= bank_width
        && offsets.len() <= 32)
    {
        return None;
    }
    let shift = bank_width.trailing_zeros();
    let bank_mask = banks - 1;
    // At most 32 distinct words, so no bank's count overflows a u8.
    let mut counts = [0u8; 32];
    let mut degree = 1u8;
    let mut prev: Option<u32> = None;
    // Whether the words rise, once two distinct words have been seen.
    let mut rising: Option<bool> = None;
    let mut active = mask & first_lanes(offsets.len());
    while active != 0 {
        let lane = active.trailing_zeros() as usize;
        active &= active - 1;
        let word = offsets[lane] >> shift;
        if let Some(p) = prev {
            if word == p {
                continue;
            }
            if *rising.get_or_insert(word > p) != (word > p) {
                return None;
            }
        }
        prev = Some(word);
        let count = &mut counts[(word & bank_mask) as usize];
        *count += 1;
        degree = degree.max(*count);
    }
    Some(degree as u32)
}

/// Whether `offsets` is `prev` moved by one common Δ on every lane in
/// `mask`, with Δ a multiple of `period` bytes (`banks × bank_width`).
/// Δ is taken without wrap-around. Then an access of the same width and
/// mask at `offsets` has the same conflict degree as one at `prev` (see
/// the module docs). An empty mask is a translation of anything.
pub fn is_translation(prev: &[u32], offsets: &[u32], mask: LaneMask, period: u64) -> bool {
    if prev.len() != offsets.len() || offsets.len() > 32 {
        return false;
    }
    let mut active = mask & first_lanes(offsets.len());
    if active == 0 {
        return true;
    }
    let delta = |lane: usize| offsets[lane] as i64 - prev[lane] as i64;
    let first = delta(active.trailing_zeros() as usize);
    // A period past i64 admits only Δ = 0, and so does i64::MAX.
    let period = i64::try_from(period).unwrap_or(i64::MAX);
    if period == 0 || first % period != 0 {
        return false;
    }
    while active != 0 {
        let lane = active.trailing_zeros() as usize;
        active &= active - 1;
        if delta(lane) != first {
            return false;
        }
    }
    true
}

/// Replays for an access: `conflict_degree_scratch - 1`.
pub fn replays_scratch(
    offsets: &[u32],
    width: u8,
    mask: LaneMask,
    banks: u32,
    bank_width: u32,
    scratch: &mut BankScratch,
) -> u32 {
    conflict_degree_scratch(offsets, width, mask, banks, bank_width, scratch) - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::FULL_MASK;

    fn offs(stride: u32) -> Vec<u32> {
        (0..32).map(|i| i * stride).collect()
    }

    fn conflict_degree(offsets: &[u32], width: u8, mask: LaneMask, banks: u32, bw: u32) -> u32 {
        conflict_degree_scratch(offsets, width, mask, banks, bw, &mut BankScratch::new())
    }

    fn replays(offsets: &[u32], width: u8, mask: LaneMask, banks: u32, bw: u32) -> u32 {
        replays_scratch(offsets, width, mask, banks, bw, &mut BankScratch::new())
    }

    #[test]
    fn unit_stride_is_conflict_free() {
        assert_eq!(conflict_degree(&offs(4), 4, FULL_MASK, 32, 4), 1);
        assert_eq!(replays(&offs(4), 4, FULL_MASK, 32, 4), 0);
    }

    #[test]
    fn stride_two_words_gives_two_way_conflict() {
        // Offsets 0,8,16,...: words 0,2,4,...,62; banks 0,2,...,30 each get
        // two distinct words.
        assert_eq!(conflict_degree(&offs(8), 4, FULL_MASK, 32, 4), 2);
    }

    #[test]
    fn stride_doubling_doubles_conflicts() {
        // This is exactly the reduce1 pattern: index = 2*s*tid.
        assert_eq!(conflict_degree(&offs(16), 4, FULL_MASK, 32, 4), 4);
        assert_eq!(conflict_degree(&offs(32), 4, FULL_MASK, 32, 4), 8);
        assert_eq!(conflict_degree(&offs(64), 4, FULL_MASK, 32, 4), 16);
    }

    #[test]
    fn same_word_broadcast_is_free() {
        let offsets = vec![64u32; 32];
        assert_eq!(conflict_degree(&offsets, 4, FULL_MASK, 32, 4), 1);
    }

    #[test]
    fn same_bank_different_words_conflict() {
        // Lanes alternate between word 0 and word 32 (both bank 0).
        let offsets: Vec<u32> = (0..32).map(|i| if i % 2 == 0 { 0 } else { 128 }).collect();
        assert_eq!(conflict_degree(&offsets, 4, FULL_MASK, 32, 4), 2);
    }

    #[test]
    fn inactive_lanes_do_not_conflict() {
        // Only lanes 0 and 1 active, touching the same bank's two words.
        let mut offsets = vec![0u32; 32];
        offsets[1] = 128;
        assert_eq!(conflict_degree(&offsets, 4, 0b11, 32, 4), 2);
        // Same pattern with lane 1 inactive: conflict-free.
        assert_eq!(conflict_degree(&offsets, 4, 0b01, 32, 4), 1);
    }

    #[test]
    fn empty_mask_degree_is_one() {
        assert_eq!(conflict_degree(&offs(4), 4, 0, 32, 4), 1);
        assert_eq!(replays(&offs(4), 4, 0, 32, 4), 0);
    }

    #[test]
    fn double_width_access_spans_two_banks() {
        // 8-byte accesses with 8-byte stride: each lane covers 2 words; 32
        // lanes cover 64 words across 32 banks -> 2 words per bank.
        assert_eq!(conflict_degree(&offs(8), 8, FULL_MASK, 32, 4), 2);
    }

    #[test]
    fn worst_case_all_lanes_same_bank() {
        let offsets: Vec<u32> = (0..32).map(|i| i * 128).collect();
        assert_eq!(conflict_degree(&offsets, 4, FULL_MASK, 32, 4), 32);
        assert_eq!(replays(&offsets, 4, FULL_MASK, 32, 4), 31);
    }
}
