//! Global-memory coalescing: folding per-lane addresses into transactions.
//!
//! §3.1 of the paper: "to maximize memory throughput ... address patterns
//! must meet memory *coalescing* rules on the target architecture". The
//! rules modelled here follow the two generations studied:
//!
//! * **Fermi, L1-cached loads**: the warp's addresses are mapped to unique
//!   128-byte cache lines; each line is one transaction.
//! * **Kepler loads** (L1 bypassed) and **stores on both**: addresses map to
//!   unique 32-byte sectors serviced by L2.
//!
//! A perfectly coalesced 4-byte access by 32 lanes therefore costs one
//! 128-byte transaction (or four 32-byte sectors); a fully scattered access
//! costs up to 32.
//!
//! [`coalesce_into`] emits segments in lane order and skips one equal to
//! the last emitted. While each new segment is above the last, the output
//! stays strictly ascending, so it already is the sorted set of unique
//! segments; only an access whose segments fall back below the last one
//! is sorted and deduplicated.

use crate::trace::LaneMask;

/// Collects the unique `segment`-aligned transactions covering the active
/// lanes' accesses into `out` (cleared first), sorted ascending. `width` is
/// bytes per lane. Accesses that straddle a segment boundary produce both
/// segments (possible with 8-byte words at 4-byte alignment). The SoA batch
/// compiler ([`crate::soa`]) calls this in a tight sweep with one reused
/// buffer per launch, so no access allocates. Only an access whose
/// segments fall back below the last one emitted is sorted (see the module
/// docs). A power-of-two `segment` aligns by mask, any other by remainder.
pub fn coalesce_into(addrs: &[u64], width: u8, mask: LaneMask, segment: u32, out: &mut Vec<u64>) {
    let seg = segment as u64;
    let align = |a: u64| {
        if seg.is_power_of_two() {
            a & !(seg - 1)
        } else {
            a - a % seg
        }
    };
    out.clear();
    let mut ascending = true;
    for (lane, &addr) in addrs.iter().enumerate() {
        if mask & (1 << lane) == 0 {
            continue;
        }
        let first = align(addr);
        let last = align(addr + width as u64 - 1);
        let mut s = first;
        loop {
            match out.last() {
                Some(&prev) if prev == s => {}
                Some(&prev) if prev > s => {
                    ascending = false;
                    out.push(s);
                }
                _ => out.push(s),
            }
            if s == last {
                break;
            }
            s += seg;
        }
    }
    if !ascending {
        out.sort_unstable();
        out.dedup();
    }
}

/// Total bytes the active lanes actually requested (the numerator of
/// `gld_requested_throughput` / `gst_requested_throughput`).
pub fn requested_bytes(width: u8, mask: LaneMask) -> u64 {
    mask.count_ones() as u64 * width as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::FULL_MASK;

    fn seq_addrs(base: u64, stride: u64) -> Vec<u64> {
        (0..32).map(|i| base + i * stride).collect()
    }

    fn coalesce(addrs: &[u64], width: u8, mask: LaneMask, segment: u32) -> Vec<u64> {
        let mut out = Vec::new();
        coalesce_into(addrs, width, mask, segment, &mut out);
        out
    }

    #[test]
    fn fully_coalesced_float_load_is_one_line() {
        let t = coalesce(&seq_addrs(0x1000, 4), 4, FULL_MASK, 128);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0], 0x1000);
    }

    #[test]
    fn fully_coalesced_float_load_is_four_sectors() {
        let t = coalesce(&seq_addrs(0x1000, 4), 4, FULL_MASK, 32);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn misaligned_access_spills_into_second_line() {
        // Base offset 64 into a 128B line: lanes 0..15 in line 0, 16..31 in
        // line 1.
        let t = coalesce(&seq_addrs(0x1040, 4), 4, FULL_MASK, 128);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn strided_access_explodes_transactions() {
        // Stride 128B: every lane touches its own line.
        let t = coalesce(&seq_addrs(0, 128), 4, FULL_MASK, 128);
        assert_eq!(t.len(), 32);
    }

    #[test]
    fn stride_two_floats_doubles_lines() {
        // Stride 8B: 32 lanes cover 256B = 2 lines.
        let t = coalesce(&seq_addrs(0, 8), 4, FULL_MASK, 128);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn broadcast_access_is_single_transaction() {
        let addrs = vec![0x2000u64; 32];
        let t = coalesce(&addrs, 4, FULL_MASK, 128);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn inactive_lanes_are_ignored() {
        let mut addrs = seq_addrs(0, 128);
        // Only lane 5 active.
        addrs[5] = 0x5000;
        let t = coalesce(&addrs, 4, 1 << 5, 128);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0], 0x5000 & !127);
    }

    #[test]
    fn empty_mask_produces_no_transactions() {
        let t = coalesce(&seq_addrs(0, 4), 4, 0, 128);
        assert!(t.is_empty());
    }

    #[test]
    fn wide_word_straddling_segment_takes_both() {
        // An 8-byte access at 28 bytes into a 32B sector touches two sectors.
        let mut addrs = vec![0u64; 32];
        addrs[0] = 28;
        let t = coalesce(&addrs, 8, 1, 32);
        assert_eq!(t.len(), 2);
        assert_eq!(t[0], 0);
        assert_eq!(t[1], 32);
    }

    #[test]
    fn transactions_are_sorted_and_aligned() {
        let addrs = vec![0x500, 0x100, 0x300, 0x100];
        let t = coalesce(&addrs, 4, 0b1111, 128);
        for w in t.windows(2) {
            assert!(w[0] < w[1]);
        }
        for tr in &t {
            assert_eq!(tr % 128, 0);
        }
    }

    #[test]
    fn requested_bytes_counts_active_lanes_only() {
        assert_eq!(requested_bytes(4, FULL_MASK), 128);
        assert_eq!(requested_bytes(4, 0xFF), 32);
        assert_eq!(requested_bytes(8, 0b1), 8);
        assert_eq!(requested_bytes(4, 0), 0);
    }
}
