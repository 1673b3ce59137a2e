//! Per-basic-block counter attribution with a hard conservation invariant.
//!
//! [`crate::walk::analyze_launch`] blames whole launches; this module splits
//! the same fold by basic block. Each warp stream is segmented at
//! `Branch`/`Barrier` boundaries ([`gpu_sim::blocks`]), the compiled op of
//! every instruction is folded into its block's accumulator by the same
//! `fold_op` the launch walk uses, and occurrences of the same code region —
//! identified by the content-derived block id — merge across warps and
//! sampled thread blocks.
//!
//! **Conservation invariant.** For every one of the 25 static counters, the
//! per-block attributions summed over all blocks and scaled by the grid
//! factor must equal the launch-level total — bit-for-bit in practice, and
//! never worse than the oracle's 1e-9 relative tolerance. Bit-exactness
//! holds because all unscaled counts are integer-valued f64 well below 2^53
//! (exact in any summation order) and both paths apply the same single
//! scaling multiply at the end. [`check_conservation`] is the executable
//! form; the lint driver raises `BF-E003` on any violation.
//!
//! Launch-structural counters (`warps_launched`, `blocks_launched`) have no
//! owning instruction; they are attributed to each warp's *entry block* (the
//! first basic block of the stream, or a synthetic empty-content block for
//! an empty stream) so they conserve like everything else.

use crate::oracle::REL_TOLERANCE;
use crate::walk::{
    fold_op, Accumulator, CoalescingSummary, DivergenceSummary, Location, SampledLaunch,
    SharedConflictSummary, StaticCounts, StaticLaunchAnalysis,
};
use gpu_sim::blocks::{block_content_id, segment_stream};
use gpu_sim::trace::KernelTrace;
use gpu_sim::{GpuConfig, Result};
use serde::Serialize;

/// A block qualifies as "hot" at application level when it carries at least
/// this share of the attributed issue-slot cost (feeds the
/// `static_hot_block_count` dataset column).
pub const APP_HOT_BLOCK_SHARE: f64 = 0.10;

/// Everything attributed to one basic block (merged over all occurrences of
/// the code region across warps and sampled thread blocks).
#[derive(Debug, Clone, Serialize)]
pub struct BlockAttribution {
    /// Stable content-derived block id ([`gpu_sim::blocks::block_content_id`]).
    pub id: u64,
    /// Where the block was first seen (instruction index = span start).
    pub first_seen: Location,
    /// Instructions in the block body (first occurrence's span length).
    pub instructions: usize,
    /// How many spans (warp x occurrence) merged into this attribution.
    pub occurrences: u64,
    /// Event counts, **unscaled** (per sampled set; multiply by the launch
    /// scale for full-grid numbers).
    pub counts: StaticCounts,
    /// Bank-conflict profile of this block's shared accesses.
    pub shared: SharedConflictSummary,
    /// Load-coalescing profile of this block's global loads.
    pub loads: CoalescingSummary,
    /// Store-coalescing profile of this block's global stores.
    pub stores: CoalescingSummary,
    /// Divergence profile of this block's branches.
    pub divergence: DivergenceSummary,
}

impl BlockAttribution {
    /// The block's attributed cost: issue slots consumed (replays and
    /// per-transaction issues included), unscaled. Issue slots are the
    /// scheduler's unit of work, so they are the ranking currency for
    /// block-level diagnostics.
    pub fn cost(&self) -> f64 {
        self.counts.inst_issued
    }

    /// The block id rendered the way reports print it.
    pub fn id_hex(&self) -> String {
        format!("{:016x}", self.id)
    }
}

/// Per-basic-block decomposition of one launch's static analysis.
#[derive(Debug, Clone, Serialize)]
pub struct BlockLevelAnalysis {
    /// Kernel name.
    pub kernel: String,
    /// Grid scaling factor (same as the launch-level analysis).
    pub scale: f64,
    /// Attributions, sorted by attributed cost (descending), then id.
    pub blocks: Vec<BlockAttribution>,
}

impl BlockLevelAnalysis {
    /// Total attributed cost (unscaled issue slots over all blocks).
    pub fn total_cost(&self) -> f64 {
        self.blocks.iter().map(BlockAttribution::cost).sum()
    }

    /// Fraction of the total attributed cost carried by `b` (0 when the
    /// launch has no cost at all).
    pub fn cost_share(&self, b: &BlockAttribution) -> f64 {
        let total = self.total_cost();
        if total > 0.0 {
            b.cost() / total
        } else {
            0.0
        }
    }

    /// Cost share of the most expensive block.
    pub fn top_share(&self) -> f64 {
        self.blocks
            .first()
            .map(|b| self.cost_share(b))
            .unwrap_or(0.0)
    }

    /// Sums the per-block counters and applies the grid scale — by
    /// construction this must equal the launch-level totals (see
    /// [`check_conservation`]).
    pub fn scaled_totals(&self) -> StaticCounts {
        let mut sum = StaticCounts::default();
        for b in &self.blocks {
            sum.add(&b.counts);
        }
        sum.scaled(self.scale)
    }
}

/// One counter's conservation verdict: per-block sum vs launch total.
#[derive(Debug, Clone, Serialize)]
pub struct ConservationCheck {
    /// Counter name ([`StaticCounts`] field).
    pub counter: &'static str,
    /// Scaled sum of the per-block attributions.
    pub attributed: f64,
    /// Launch-level total from [`analyze_launch`].
    pub launch_total: f64,
    /// `|attributed - launch_total| / max(|launch_total|, 1)`.
    pub rel_error: f64,
    /// Within the oracle tolerance (1e-9).
    pub ok: bool,
    /// Bit-for-bit identical (the expected case).
    pub exact: bool,
}

/// Checks the conservation invariant for every static counter: per-block
/// attributions, summed and scaled, must reproduce the launch totals.
pub fn check_conservation(
    blocks: &BlockLevelAnalysis,
    launch: &StaticLaunchAnalysis,
) -> Vec<ConservationCheck> {
    let attributed = blocks.scaled_totals();
    attributed
        .fields()
        .iter()
        .zip(launch.counts.fields())
        .map(|(&(counter, a), (_, t))| {
            let rel_error = (a - t).abs() / t.abs().max(1.0);
            ConservationCheck {
                counter,
                attributed: a,
                launch_total: t,
                rel_error,
                ok: rel_error <= REL_TOLERANCE,
                exact: a.to_bits() == t.to_bits(),
            }
        })
        .collect()
}

/// Attributes one launch's static counters to basic blocks.
///
/// Folds exactly the ops [`analyze_launch`] folds, in the same order, with
/// the same `fold_op` — only the destination accumulator differs (the
/// instruction's enclosing basic block instead of the launch).
///
/// [`analyze_launch`]: crate::walk::analyze_launch
pub fn attribute_launch(gpu: &GpuConfig, kernel: &dyn KernelTrace) -> Result<BlockLevelAnalysis> {
    Ok(SampledLaunch::new(gpu, kernel)?.attribute(gpu))
}

/// A basic block being accumulated: where it was first seen, its length,
/// how many spans merged into it, and what the walk counted for it.
struct BlockAcc {
    id: u64,
    first_seen: Location,
    instructions: usize,
    occurrences: u64,
    acc: Accumulator,
}

impl SampledLaunch {
    /// The per-basic-block counting fold over the compiled ops; the traces
    /// give the block boundaries.
    pub fn attribute(&self, gpu: &GpuConfig) -> BlockLevelAnalysis {
        let mut blocks: Vec<BlockAcc> = Vec::new();
        // id -> index into `blocks`; linear scan is fine at trace block
        // counts (tens of distinct blocks), and it keeps first-seen order
        // deterministic.
        let find =
            |blocks: &mut Vec<BlockAcc>, id: u64, first_seen: Location, len: usize| match blocks
                .iter()
                .position(|b| b.id == id)
            {
                Some(i) => i,
                None => {
                    blocks.push(BlockAcc {
                        id,
                        first_seen,
                        instructions: len,
                        occurrences: 0,
                        acc: Accumulator::default(),
                    });
                    blocks.len() - 1
                }
            };
        // Id of the synthetic entry block used when a warp stream is empty:
        // launch-structural counters still need an owner.
        let empty_id = block_content_id(&[]);

        let mut sectors = Vec::new();
        let mut warps = self.warps();
        for (trace, &grid_block) in self.blocks.traces.iter().zip(&self.blocks.ids) {
            if trace.warps.is_empty() {
                // A degenerate warpless trace still counts as a launched
                // block.
                let loc = Location {
                    block: grid_block,
                    warp: 0,
                    instruction: 0,
                };
                let entry = find(&mut blocks, empty_id, loc, 0);
                blocks[entry].acc.counts.blocks_launched += 1.0;
                continue;
            }
            for (entry_loc, stream, ops) in warps.by_ref().take(trace.warps.len()) {
                let spans = segment_stream(stream);
                // Launch-structural attribution: this warp to its entry
                // block, and (for warp 0) the thread block itself.
                let entry = match spans.first() {
                    Some(s) => find(&mut blocks, s.id, entry_loc, s.len()),
                    None => find(&mut blocks, empty_id, entry_loc, 0),
                };
                blocks[entry].acc.counts.warps_launched += 1.0;
                if entry_loc.warp == 0 {
                    blocks[entry].acc.counts.blocks_launched += 1.0;
                }
                for span in &spans {
                    let loc = |instruction| Location {
                        instruction,
                        ..entry_loc
                    };
                    let idx = find(&mut blocks, span.id, loc(span.start), span.len());
                    let b = &mut blocks[idx];
                    b.occurrences += 1;
                    for i in span.start..span.end {
                        fold_op(gpu, &ops[i], &stream[i], loc(i), &mut b.acc, &mut sectors);
                    }
                }
            }
        }

        let mut blocks: Vec<BlockAttribution> = blocks
            .into_iter()
            .map(|b| BlockAttribution {
                id: b.id,
                first_seen: b.first_seen,
                instructions: b.instructions,
                occurrences: b.occurrences,
                counts: b.acc.counts,
                shared: b.acc.shared,
                loads: b.acc.loads,
                stores: b.acc.stores,
                divergence: b.acc.divergence,
            })
            .collect();
        blocks.sort_by(|a, b| {
            b.cost()
                .partial_cmp(&a.cost())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.id.cmp(&b.id))
        });
        BlockLevelAnalysis {
            kernel: self.kernel.clone(),
            scale: self.scale(),
            blocks,
        }
    }
}

/// Application-level rollup of block attributions: the aggregates fed into
/// `collect --static-features`.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct AppBlockProfile {
    /// Distinct basic blocks across all launches.
    pub distinct_blocks: usize,
    /// Cost share of the most expensive block (scaled issue slots, summed
    /// per block id across launches, over the application total).
    pub top_block_cost_share: f64,
    /// Blocks carrying at least [`APP_HOT_BLOCK_SHARE`] of the cost.
    pub hot_block_count: usize,
}

/// Rolls per-launch block analyses up to one application profile. Costs are
/// scaled to the full grid before merging so launches of different grid
/// sizes weigh in proportionally.
pub fn block_profile(analyses: &[BlockLevelAnalysis]) -> AppBlockProfile {
    let mut per_block: Vec<(u64, f64)> = Vec::new();
    for a in analyses {
        for b in &a.blocks {
            let cost = b.cost() * a.scale;
            match per_block.iter_mut().find(|(id, _)| *id == b.id) {
                Some((_, c)) => *c += cost,
                None => per_block.push((b.id, cost)),
            }
        }
    }
    let total: f64 = per_block.iter().map(|(_, c)| c).sum();
    if total <= 0.0 {
        return AppBlockProfile {
            distinct_blocks: per_block.len(),
            top_block_cost_share: 0.0,
            hot_block_count: 0,
        };
    }
    let top = per_block.iter().map(|(_, c)| *c).fold(0.0, f64::max);
    AppBlockProfile {
        distinct_blocks: per_block.len(),
        top_block_cost_share: top / total,
        hot_block_count: per_block
            .iter()
            .filter(|(_, c)| c / total >= APP_HOT_BLOCK_SHARE)
            .count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::analyze_launch;
    use bf_kernels::reduce::{reduce_application, ReduceVariant};

    #[test]
    fn attribution_conserves_every_counter_bit_for_bit() {
        let gpu = GpuConfig::gtx580();
        let app = reduce_application(ReduceVariant::Reduce1, 1 << 14, 128);
        for (i, k) in app.launches.iter().enumerate() {
            let a = analyze_launch(&gpu, k.as_ref()).unwrap();
            let b = attribute_launch(&gpu, k.as_ref()).unwrap();
            for c in check_conservation(&b, &a) {
                assert!(
                    c.ok,
                    "launch {i} counter {} not conserved: {} vs {}",
                    c.counter, c.attributed, c.launch_total
                );
                assert!(c.exact, "launch {i} counter {} inexact", c.counter);
            }
        }
    }

    #[test]
    fn blocks_are_ranked_by_cost_and_shares_sum_to_one() {
        let gpu = GpuConfig::gtx580();
        let app = reduce_application(ReduceVariant::Reduce1, 1 << 14, 128);
        let b = attribute_launch(&gpu, app.launches[0].as_ref()).unwrap();
        assert!(b.blocks.len() >= 2, "reduce1 should have multiple blocks");
        for w in b.blocks.windows(2) {
            assert!(w[0].cost() >= w[1].cost());
        }
        let share_sum: f64 = b.blocks.iter().map(|blk| b.cost_share(blk)).sum();
        assert!((share_sum - 1.0).abs() < 1e-12);
        assert!(b.top_share() > 0.0);
    }

    #[test]
    fn app_profile_reports_hot_blocks() {
        let gpu = GpuConfig::gtx580();
        let app = reduce_application(ReduceVariant::Reduce1, 1 << 14, 128);
        let analyses: Vec<BlockLevelAnalysis> = app
            .launches
            .iter()
            .map(|k| attribute_launch(&gpu, k.as_ref()).unwrap())
            .collect();
        let p = block_profile(&analyses);
        assert!(p.distinct_blocks >= 2);
        assert!(p.top_block_cost_share > 0.0 && p.top_block_cost_share <= 1.0);
        assert!(p.hot_block_count >= 1);
        assert!(p.hot_block_count <= p.distinct_blocks);
    }
}
