//! Basic-block segmentation of warp instruction streams.
//!
//! A *basic block* here is a maximal run of warp instructions ending at a
//! control boundary — a [`WarpInstruction::Branch`] or
//! [`WarpInstruction::Barrier`] (the terminator belongs to its block) — or at
//! the end of the stream. This mirrors how compilers segment straight-line
//! code, specialised to the trace vocabulary: branches are the only explicit
//! control transfers and barriers are block-wide scheduling boundaries.
//!
//! Block ids are **content-derived and structural**: a stable 64-bit digest
//! of the instruction *shapes* (kind, folded ALU count, access width,
//! divergence flag) with addresses, offsets, and lane masks deliberately
//! excluded. The same code region therefore hashes to the same id in every
//! warp and every thread block, even when boundary warps run with partial
//! masks or lanes touch different addresses — which is exactly what lets
//! per-block counter attributions aggregate across a whole launch (see
//! `bf-analyze`'s attribution module). Two genuinely different code regions
//! with identical instruction shapes also merge; that is accepted and
//! documented behaviour, not a defect, since attribution cares about *cost
//! structure*, not provenance.

use crate::trace::WarpInstruction;

/// One basic block within a warp's instruction stream: the half-open
/// instruction index range `[start, end)` plus the content-derived id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSpan {
    /// Index of the block's first instruction in the stream.
    pub start: usize,
    /// One past the block's last instruction (the terminator, when present).
    pub end: usize,
    /// Stable content-derived block id (see [`block_content_id`]).
    pub id: u64,
}

impl BlockSpan {
    /// Number of instructions in the block.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the span covers no instructions (never produced by
    /// [`segment_stream`], but `len`/`is_empty` come in pairs).
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }
}

/// True when the instruction ends a basic block.
pub fn is_terminator(i: &WarpInstruction) -> bool {
    matches!(i, WarpInstruction::Branch { .. } | WarpInstruction::Barrier)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Folds one instruction's *structural* shape into the digest: a kind tag
/// plus the fields that describe the code, never the data (no addresses,
/// offsets, or lane masks — those vary per warp and per thread block for
/// the same code region).
fn fold_instruction(hash: &mut u64, i: &WarpInstruction) {
    match i {
        WarpInstruction::Alu { count, .. } => {
            fnv1a(hash, &[1]);
            fnv1a(hash, &count.to_le_bytes());
        }
        WarpInstruction::Sfu { .. } => fnv1a(hash, &[2]),
        WarpInstruction::LoadGlobal { width, .. } => fnv1a(hash, &[3, *width]),
        WarpInstruction::StoreGlobal { width, .. } => fnv1a(hash, &[4, *width]),
        WarpInstruction::LoadShared { width, .. } => fnv1a(hash, &[5, *width]),
        WarpInstruction::StoreShared { width, .. } => fnv1a(hash, &[6, *width]),
        WarpInstruction::Branch { divergent, .. } => fnv1a(hash, &[7, *divergent as u8]),
        WarpInstruction::Barrier => fnv1a(hash, &[8]),
    }
}

/// The stable content-derived id of a run of instructions: a 64-bit FNV-1a
/// digest over the structural encoding of each instruction in order. The
/// hash function is fixed here (not `DefaultHasher`) so ids are stable
/// across processes, platforms, and compiler versions — they appear in
/// persisted lint reports.
pub fn block_content_id(instrs: &[WarpInstruction]) -> u64 {
    let mut hash = FNV_OFFSET;
    for i in instrs {
        fold_instruction(&mut hash, i);
    }
    hash
}

/// Segments one warp's instruction stream into basic blocks.
///
/// Every instruction belongs to exactly one block, blocks are contiguous and
/// in stream order, and each block's id is the content digest of its own
/// instructions. An empty stream yields no blocks.
pub fn segment_stream(stream: &[WarpInstruction]) -> Vec<BlockSpan> {
    let mut spans = Vec::new();
    let mut start = 0usize;
    for (i, instr) in stream.iter().enumerate() {
        if is_terminator(instr) {
            spans.push(BlockSpan {
                start,
                end: i + 1,
                id: block_content_id(&stream[start..i + 1]),
            });
            start = i + 1;
        }
    }
    if start < stream.len() {
        spans.push(BlockSpan {
            start,
            end: stream.len(),
            id: block_content_id(&stream[start..]),
        });
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::FULL_MASK;

    fn alu(count: u32) -> WarpInstruction {
        WarpInstruction::Alu {
            count,
            mask: FULL_MASK,
        }
    }

    fn branch(divergent: bool) -> WarpInstruction {
        WarpInstruction::Branch {
            divergent,
            mask: FULL_MASK,
        }
    }

    fn load(addrs: Vec<u64>, mask: u32) -> WarpInstruction {
        WarpInstruction::LoadGlobal {
            addrs: addrs.into(),
            width: 4,
            mask,
        }
    }

    #[test]
    fn segmentation_covers_the_stream_exactly_once() {
        let stream = vec![
            alu(2),
            load((0..32).map(|i| i * 4).collect(), FULL_MASK),
            branch(false),
            alu(1),
            WarpInstruction::Barrier,
            alu(3),
        ];
        let spans = segment_stream(&stream);
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].start, spans[0].end), (0, 3));
        assert_eq!((spans[1].start, spans[1].end), (3, 5));
        assert_eq!((spans[2].start, spans[2].end), (5, 6));
        // Full coverage, no overlap.
        assert_eq!(spans.iter().map(BlockSpan::len).sum::<usize>(), 6);
        for w in spans.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn trailing_run_without_terminator_is_a_block() {
        let spans = segment_stream(&[alu(1), alu(2)]);
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].start, spans[0].end), (0, 2));
        assert!(!spans[0].is_empty());
        assert!(segment_stream(&[]).is_empty());
    }

    #[test]
    fn ids_ignore_addresses_and_masks_but_not_structure() {
        let a = vec![alu(2), load((0..32).map(|i| i * 4).collect(), FULL_MASK)];
        let b = vec![alu(2), load((0..32).map(|i| i * 64).collect(), 0xFFFF)];
        assert_eq!(block_content_id(&a), block_content_id(&b));
        // A different ALU fold count is a different code region.
        let c = vec![alu(3), load((0..32).map(|i| i * 4).collect(), FULL_MASK)];
        assert_ne!(block_content_id(&a), block_content_id(&c));
        // Divergence is structural: it changes the issue count.
        assert_ne!(
            block_content_id(&[branch(true)]),
            block_content_id(&[branch(false)])
        );
    }

    #[test]
    fn same_code_region_matches_across_warps() {
        // Two warps of the same kernel region: same shapes, different data.
        let w0 = vec![
            load((0..32).map(|i| 0x1000 + i * 4).collect(), FULL_MASK),
            alu(4),
            WarpInstruction::Barrier,
        ];
        let w1 = vec![
            load((0..32).map(|i| 0x2000 + i * 4).collect(), 0x00FF),
            alu(4),
            WarpInstruction::Barrier,
        ];
        let s0 = segment_stream(&w0);
        let s1 = segment_stream(&w1);
        assert_eq!(s0[0].id, s1[0].id);
    }
}
