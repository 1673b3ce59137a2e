//! Histogram-binned split search: bin once, train fast.
//!
//! The exact split search ([`crate::split`]) sorts every node's samples on
//! every candidate feature — `O(n log n)` per (node, feature). For forest
//! training that sort dominates wall-clock time. This module implements the
//! standard histogram alternative (LightGBM-style, adapted to random-forest
//! `mtry` sampling):
//!
//! 1. **Bin once per fit.** [`BinnedDataset::build`] quantises each feature
//!    into at most `max_bins` ordered bins (quantile cuts that never split a
//!    run of equal values) and stores one `u16` code per cell, column-major.
//!    The dataset is immutable and shared read-only by every tree/bootstrap.
//! 2. **One O(n) sweep per (node, feature).** A node's histogram — per-bin
//!    `(count, Σy)` — is accumulated in a single pass over the node's
//!    bootstrap indices; the best boundary then falls out of a sweep over
//!    the bins the node occupies, found through an occupancy bitset, and
//!    only those bins are cleared afterwards. A small node on a feature
//!    with many bins never touches the empty ones. No sorting ever happens
//!    after the build.
//! 3. **Sibling subtraction.** A node's histogram equals its parent's minus
//!    its sibling's. Because the builder pops the right child first, the
//!    right child's freshly scanned histograms can be subtracted from the
//!    parent's cached ones to hand the left child its histograms for free
//!    (for features all three happened to sample).
//!
//! **Exactness.** Each bin records the global min/max raw value it covers, so
//! a boundary between bins `b` and `b'` uses the threshold
//! `(hi[b] + lo[b'])/2`. When every distinct value has its own bin (i.e. the
//! feature has at most `max_bins` distinct values) this is *precisely* the
//! exact search's midpoint, and the grown tree is identical to the exact
//! path's, node for node — the parity tests in `tests/histogram_parity.rs`
//! assert that. With more distinct values than bins the split points are
//! quantile approximations, which is the usual accuracy/speed trade.

use crate::split::Split;
use crate::tree::{RegressionTree, TreeParams};
use rand::prelude::*;

/// Hard ceiling on `max_bins` (bin codes are stored as `u16`).
pub const MAX_BINS_LIMIT: usize = 1 << 16;

/// Per-feature bin metadata: the global raw-value range each bin covers.
#[derive(Debug, Clone)]
struct FeatureBins {
    /// Minimum raw value landing in each bin.
    lo: Vec<f64>,
    /// Maximum raw value landing in each bin.
    hi: Vec<f64>,
}

/// A quantised copy of the training features, built once per forest fit and
/// shared read-only across all trees.
#[derive(Debug, Clone)]
pub struct BinnedDataset {
    n_rows: usize,
    /// Configured ceiling (actual per-feature bin counts may be lower).
    max_bins: usize,
    /// Column-major bin codes: feature `f` of row `i` is `codes[f*n_rows+i]`.
    codes: Vec<u16>,
    bins: Vec<FeatureBins>,
}

impl BinnedDataset {
    /// Quantises column-major training data into at most `max_bins` bins per
    /// feature. Cuts are at population quantiles but never separate equal
    /// values, so bins cover disjoint, ordered value ranges.
    pub fn build(columns: &[Vec<f64>], max_bins: usize) -> BinnedDataset {
        let max_bins = max_bins.clamp(2, MAX_BINS_LIMIT);
        let n_rows = columns.first().map_or(0, |c| c.len());
        let mut codes = vec![0u16; columns.len() * n_rows];
        let mut bins = Vec::with_capacity(columns.len());
        let mut order: Vec<u32> = Vec::with_capacity(n_rows);

        for (f, col) in columns.iter().enumerate() {
            order.clear();
            order.extend(0..n_rows as u32);
            order.sort_unstable_by(|&a, &b| col[a as usize].partial_cmp(&col[b as usize]).unwrap());

            // Count distinct values first: when they all fit, each gets its
            // own (pure) bin — the lossless case the parity guarantee needs.
            // Only genuinely high-cardinality features fall back to quantile
            // packing.
            let mut distinct = 0usize;
            let mut at = 0;
            while at < n_rows {
                let v = col[order[at] as usize];
                while at < n_rows && col[order[at] as usize] == v {
                    at += 1;
                }
                distinct += 1;
            }
            // Walk runs of equal values, closing a bin whenever it reaches the
            // quantile population target (never mid-run).
            let target = if distinct <= max_bins {
                1
            } else {
                n_rows.div_ceil(max_bins).max(1)
            };
            let mut lo = Vec::new();
            let mut hi = Vec::new();
            let mut bin: usize = 0;
            let mut bin_pop: usize = 0;
            let mut pos = 0;
            while pos < n_rows {
                let value = col[order[pos] as usize];
                let mut run_end = pos + 1;
                while run_end < n_rows && col[order[run_end] as usize] == value {
                    run_end += 1;
                }
                if bin_pop >= target && bin + 1 < max_bins {
                    bin += 1;
                    bin_pop = 0;
                }
                if bin_pop == 0 {
                    lo.push(value);
                    hi.push(value);
                } else {
                    hi[bin] = value;
                }
                for &row in &order[pos..run_end] {
                    codes[f * n_rows + row as usize] = bin as u16;
                }
                bin_pop += run_end - pos;
                pos = run_end;
            }
            bins.push(FeatureBins { lo, hi });
        }
        BinnedDataset {
            n_rows,
            max_bins,
            codes,
            bins,
        }
    }

    /// Number of rows in the binned data.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of features in the binned data.
    pub fn n_features(&self) -> usize {
        self.bins.len()
    }

    /// Number of bins actually used by feature `f`.
    pub fn n_bins(&self, f: usize) -> usize {
        self.bins[f].lo.len()
    }

    /// The bin codes of feature `f` for all rows.
    fn feature_codes(&self, f: usize) -> &[u16] {
        &self.codes[f * self.n_rows..(f + 1) * self.n_rows]
    }
}

/// A node's per-bin statistics on one feature, with an occupancy bitset so
/// that clearing and sweeping touch only the bins the node's rows fill.
///
/// Invariant between nodes: every count and sum is zero and no bit is set.
/// While a node holds the slot, bit `b` is set exactly when `counts[b] > 0`.
#[derive(Debug, Clone, Default)]
struct Hist {
    counts: Vec<u32>,
    sums: Vec<f64>,
    /// Bit `b % 64` of word `b / 64` marks bin `b` as occupied.
    occupied: Vec<u64>,
}

impl Hist {
    /// Makes room for `n_bins` bins. Growing keeps the all-zero invariant.
    fn ensure_bins(&mut self, n_bins: usize) {
        if self.counts.len() < n_bins {
            self.counts.resize(n_bins, 0);
            self.sums.resize(n_bins, 0.0);
            self.occupied.resize(n_bins.div_ceil(64), 0);
        }
    }

    /// Accumulates `(count, Σy)` per bin in one pass over the node's indices.
    fn scan(&mut self, codes: &[u16], y: &[f64], idx: &[u32]) {
        for &i in idx {
            let b = codes[i as usize] as usize;
            self.counts[b] += 1;
            self.sums[b] += y[i as usize];
            self.occupied[b / 64] |= 1 << (b % 64);
        }
    }

    /// In-place `self -= other` (used to turn a parent histogram into the
    /// remaining sibling's). `other`'s rows are a subset of `self`'s, so
    /// only its occupied bins change; a bin left empty is zeroed and
    /// unmarked.
    fn subtract(&mut self, other: &Hist) {
        for b in set_bits(&other.occupied) {
            self.counts[b] -= other.counts[b];
            if self.counts[b] == 0 {
                self.sums[b] = 0.0;
                self.occupied[b / 64] &= !(1 << (b % 64));
            } else {
                self.sums[b] -= other.sums[b];
            }
        }
    }

    /// Zeroes the occupied bins, restoring the between-nodes invariant.
    fn clear(&mut self) {
        for b in set_bits(&self.occupied) {
            self.counts[b] = 0;
            self.sums[b] = 0.0;
        }
        self.occupied.fill(0);
    }
}

/// The indices of the set bits of a bitset, in ascending order.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                b
            })
        })
    })
}

/// One parent's cached histograms, waiting for the right child to subtract
/// itself out so the left child can pick its histograms up for free.
struct SiblingEntry {
    /// The parent's sampled features, parallel to `hists`.
    feats: Vec<u32>,
    /// Parent histograms initially; each becomes the *left child's* histogram
    /// once the right child subtracts itself (`ready[k]` flips to true).
    hists: Vec<Hist>,
    ready: Vec<bool>,
}

/// Arena of pending sibling-subtraction entries. Bounded so pathological
/// (spine-shaped) trees cannot accumulate unbounded cached histograms.
struct SiblingCache {
    entries: Vec<Option<SiblingEntry>>,
    free: Vec<usize>,
    live: usize,
    cap: usize,
}

impl SiblingCache {
    fn new(cap: usize) -> SiblingCache {
        SiblingCache {
            entries: Vec::new(),
            free: Vec::new(),
            live: 0,
            cap,
        }
    }

    /// Stores a parent's histograms; `None` when the arena is at capacity.
    fn create(&mut self, feats: Vec<u32>, hists: Vec<Hist>) -> Option<usize> {
        if self.live >= self.cap {
            return None;
        }
        self.live += 1;
        let n = feats.len();
        let entry = SiblingEntry {
            feats,
            hists,
            ready: vec![false; n],
        };
        match self.free.pop() {
            Some(id) => {
                self.entries[id] = Some(entry);
                Some(id)
            }
            None => {
                self.entries.push(Some(entry));
                Some(self.entries.len() - 1)
            }
        }
    }

    /// Right-child hook: subtracts the right child's scanned histogram from
    /// the parent's cached one, leaving the left child's.
    fn subtract_right(&mut self, id: usize, feature: u32, right: &Hist) {
        if let Some(entry) = self.entries[id].as_mut() {
            if let Some(k) = entry.feats.iter().position(|&f| f == feature) {
                if !entry.ready[k] {
                    entry.hists[k].subtract(right);
                    entry.ready[k] = true;
                }
            }
        }
    }

    /// Left-child hook: the precomputed histogram for `feature`, if the right
    /// child got around to subtracting it.
    fn lookup(&self, id: usize, feature: u32) -> Option<&Hist> {
        let entry = self.entries[id].as_ref()?;
        let k = entry.feats.iter().position(|&f| f == feature)?;
        entry.ready[k].then(|| &entry.hists[k])
    }

    fn release(&mut self, id: usize) {
        if self.entries[id].take().is_some() {
            self.live -= 1;
            self.free.push(id);
        }
    }
}

/// Best boundary of one feature's node histogram.
///
/// Mirrors [`crate::split::best_split_on_feature`] decision for decision:
/// boundaries between occupied bins are swept left to right (empty bins are
/// never visited), `min_leaf` is enforced on both sides,
/// ties keep the earlier boundary (strict `>`), and the same improvement
/// floor guards constant-response nodes. Returns the winning [`Split`] plus
/// the last bin routed left.
fn best_split_on_histogram(
    feature: usize,
    bins: &FeatureBins,
    hist: &Hist,
    n: usize,
    total_sum: f64,
    min_leaf: usize,
) -> Option<(Split, u16)> {
    if n < 2 * min_leaf {
        return None;
    }
    let total_n = n as f64;
    let parent_score = total_sum * total_sum / total_n;
    let mut left_n = 0usize;
    let mut left_sum = 0.0f64;
    let mut prev_occupied: Option<usize> = None;
    let mut best: Option<(Split, u16)> = None;
    for b in set_bits(&hist.occupied) {
        if let Some(pb) = prev_occupied {
            if left_n >= min_leaf && n - left_n >= min_leaf {
                let right_sum = total_sum - left_sum;
                let right_n = total_n - left_n as f64;
                let score = left_sum * left_sum / left_n as f64 + right_sum * right_sum / right_n;
                let improvement = score - parent_score;
                if best
                    .as_ref()
                    .is_none_or(|(s, _)| improvement > s.improvement)
                {
                    best = Some((
                        Split {
                            feature,
                            // Midpoint between the last value left and the
                            // first value right — for pure bins exactly the
                            // exact search's CART midpoint.
                            threshold: 0.5 * (bins.hi[pb] + bins.lo[b]),
                            improvement,
                            left_count: left_n,
                        },
                        pb as u16,
                    ));
                }
            }
        }
        left_n += hist.counts[b] as usize;
        left_sum += hist.sums[b];
        prev_occupied = Some(b);
    }
    best.filter(|(s, _)| s.improvement > 1e-12 * (1.0 + parent_score.abs()))
}

/// Partitions `idx` so rows with `code <= split_bin` come first; returns the
/// boundary. Same two-pointer walk as [`crate::split::partition_indices`], so
/// the resulting index order (and hence every downstream floating-point sum)
/// is identical to the exact path's.
fn partition_codes(codes: &[u16], split_bin: u16, idx: &mut [u32]) -> usize {
    let mut lo = 0usize;
    let mut hi = idx.len();
    while lo < hi {
        if codes[idx[lo] as usize] <= split_bin {
            lo += 1;
        } else {
            hi -= 1;
            idx.swap(lo, hi);
        }
    }
    lo
}

/// Work item for the binned builder. `start..end` is this node's range of the
/// shared index buffer; `use_cache`/`fill_cache` wire the sibling trick.
struct BinnedBuildItem {
    start: usize,
    end: usize,
    depth: usize,
    slot: usize,
    /// Left child: sibling-cache entry holding precomputed histograms.
    use_cache: Option<usize>,
    /// Right child: entry to subtract freshly scanned histograms into.
    fill_cache: Option<usize>,
}

/// Grows one regression tree over binned data. Control flow — node pop
/// order, RNG consumption, tie-breaking, stopping rules — is kept in
/// lock-step with [`RegressionTree::fit_on_indices`] so that identical trees
/// come out whenever the binning is lossless.
pub(crate) fn fit_binned_on_indices(
    binned: &BinnedDataset,
    y: &[f64],
    idx: &[u32],
    params: &TreeParams,
    rng: &mut impl Rng,
) -> RegressionTree {
    let n_features = binned.n_features();
    let mtry = params.mtry.min(n_features).max(1);
    let mut tree = RegressionTree::with_root(n_features);
    let mut indices: Vec<u32> = idx.to_vec();
    let mut feature_pool: Vec<usize> = (0..n_features).collect();

    // Reusable per-node histogram slots (one per mtry candidate, zeroed
    // between nodes by `Hist::clear`) plus the bounded sibling arena.
    let mut histset: Vec<Hist> = (0..mtry).map(|_| Hist::default()).collect();
    let mut cache = SiblingCache::new(64);
    // Subtraction beats a rescan only when the node dwarfs its bin count.
    let cache_min_rows = 2 * binned.max_bins;

    let mut stack = vec![BinnedBuildItem {
        start: 0,
        end: indices.len(),
        depth: 0,
        slot: 0,
        use_cache: None,
        fill_cache: None,
    }];

    while let Some(item) = stack.pop() {
        let node_idx = &indices[item.start..item.end];
        let n = node_idx.len();
        let total_sum: f64 = node_idx.iter().map(|&i| y[i as usize]).sum();
        let mean = if n == 0 { 0.0 } else { total_sum / n as f64 };

        let can_split = n >= 2 * params.min_node_size && item.depth < params.max_depth;
        let mut chosen: Option<(Split, u16)> = None;
        if can_split {
            // Identical partial Fisher-Yates draw to the exact path, so both
            // paths consume the same RNG stream at the same nodes.
            for k in 0..mtry {
                let pick = rng.random_range(k..n_features);
                feature_pool.swap(k, pick);
            }
            for (k, &f) in feature_pool[..mtry].iter().enumerate() {
                let codes = binned.feature_codes(f);
                match item.use_cache.and_then(|id| cache.lookup(id, f as u32)) {
                    Some(h) => histset[k].clone_from(h),
                    None => {
                        histset[k].ensure_bins(binned.n_bins(f));
                        histset[k].scan(codes, y, node_idx);
                        if let Some(id) = item.fill_cache {
                            cache.subtract_right(id, f as u32, &histset[k]);
                        }
                    }
                }
                if let Some(found) = best_split_on_histogram(
                    f,
                    &binned.bins[f],
                    &histset[k],
                    n,
                    total_sum,
                    params.min_node_size,
                ) {
                    if chosen
                        .as_ref()
                        .is_none_or(|(c, _)| found.0.improvement > c.improvement)
                    {
                        chosen = Some(found);
                    }
                }
            }
        }

        match chosen {
            None => tree.set_leaf(item.slot, mean, n),
            Some((split, split_bin)) => {
                let boundary = item.start
                    + partition_codes(
                        binned.feature_codes(split.feature),
                        split_bin,
                        &mut indices[item.start..item.end],
                    );
                debug_assert!(boundary > item.start && boundary < item.end);
                let left = tree.split(item.slot, split.feature, split.threshold, split.improvement);
                // Park this node's histograms for its children: the right
                // child (popped next) subtracts itself out, the left child
                // then reads its histograms without touching the rows.
                let child_entry = if n >= cache_min_rows {
                    let feats: Vec<u32> = feature_pool[..mtry].iter().map(|&f| f as u32).collect();
                    let hists: Vec<Hist> = histset[..mtry].to_vec();
                    cache.create(feats, hists)
                } else {
                    None
                };
                stack.push(BinnedBuildItem {
                    start: item.start,
                    end: boundary,
                    depth: item.depth + 1,
                    slot: left,
                    use_cache: child_entry,
                    fill_cache: None,
                });
                stack.push(BinnedBuildItem {
                    start: boundary,
                    end: item.end,
                    depth: item.depth + 1,
                    slot: left + 1,
                    use_cache: None,
                    fill_cache: child_entry,
                });
            }
        }
        if can_split {
            for h in &mut histset[..mtry] {
                h.clear();
            }
        }
        if let Some(id) = item.use_cache {
            cache.release(id);
        }
    }

    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;

    fn columns(data: &[&[f64]]) -> Vec<Vec<f64>> {
        data.iter().map(|c| c.to_vec()).collect()
    }

    #[test]
    fn pure_bins_when_distinct_fits() {
        let cols = columns(&[&[3.0, 1.0, 2.0, 1.0, 3.0, 2.0]]);
        let b = BinnedDataset::build(&cols, 256);
        assert_eq!(b.n_bins(0), 3);
        assert_eq!(b.feature_codes(0), &[2, 0, 1, 0, 2, 1]);
        // Pure bins: lo == hi == the distinct value.
        assert_eq!(b.bins[0].lo, vec![1.0, 2.0, 3.0]);
        assert_eq!(b.bins[0].hi, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn quantile_bins_cap_bin_count_and_keep_runs_together() {
        let col: Vec<f64> = (0..100).map(|i| (i % 50) as f64).collect();
        let b = BinnedDataset::build(std::slice::from_ref(&col), 8);
        assert!(b.n_bins(0) <= 8);
        // Equal raw values always share a bin.
        for i in 0..100 {
            for j in 0..100 {
                if col[i] == col[j] {
                    assert_eq!(b.feature_codes(0)[i], b.feature_codes(0)[j]);
                }
            }
        }
        // Codes are monotone in the raw value.
        for i in 0..100 {
            for j in 0..100 {
                if col[i] < col[j] {
                    assert!(b.feature_codes(0)[i] <= b.feature_codes(0)[j]);
                }
            }
        }
    }

    #[test]
    fn bin_ranges_are_disjoint_and_ordered() {
        let col: Vec<f64> = (0..1000).map(|i| ((i * 37) % 91) as f64 * 0.5).collect();
        let b = BinnedDataset::build(&[col], 16);
        let fb = &b.bins[0];
        for k in 0..b.n_bins(0) {
            assert!(fb.lo[k] <= fb.hi[k]);
            if k + 1 < b.n_bins(0) {
                assert!(fb.hi[k] < fb.lo[k + 1]);
            }
        }
    }

    #[test]
    fn histogram_split_matches_exact_on_step() {
        // Same fixture as split.rs's finds_obvious_split.
        let values: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let y: Vec<f64> = values
            .iter()
            .map(|&v| if v < 4.5 { 0.0 } else { 10.0 })
            .collect();
        let idx: Vec<u32> = (0..10).collect();
        let b = BinnedDataset::build(&[values], 256);
        let mut h = Hist::default();
        h.ensure_bins(b.n_bins(0));
        h.scan(b.feature_codes(0), &y, &idx);
        let total: f64 = y.iter().sum();
        let (s, split_bin) = best_split_on_histogram(0, &b.bins[0], &h, 10, total, 1).unwrap();
        assert!((s.threshold - 4.5).abs() < 1e-12);
        assert_eq!(s.left_count, 5);
        assert_eq!(split_bin, 4);
    }

    #[test]
    fn constant_feature_or_response_yields_no_split() {
        let idx: Vec<u32> = (0..8).collect();
        let constant = BinnedDataset::build(&[vec![3.0; 8]], 256);
        let y: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let mut h = Hist::default();
        h.ensure_bins(constant.n_bins(0));
        h.scan(constant.feature_codes(0), &y, &idx);
        assert!(best_split_on_histogram(0, &constant.bins[0], &h, 8, y.iter().sum(), 1).is_none());

        let varying = BinnedDataset::build(&[(0..8).map(|i| i as f64).collect()], 256);
        let flat = vec![5.0; 8];
        let mut h = Hist::default();
        h.ensure_bins(varying.n_bins(0));
        h.scan(varying.feature_codes(0), &flat, &idx);
        assert!(best_split_on_histogram(0, &varying.bins[0], &h, 8, 40.0, 1).is_none());
    }

    #[test]
    fn subtraction_recovers_left_histogram_exactly() {
        let col: Vec<f64> = (0..64).map(|i| (i % 16) as f64).collect();
        let y: Vec<f64> = (0..64).map(|i| (i * 3 % 7) as f64).collect();
        let b = BinnedDataset::build(&[col], 256);
        let codes = b.feature_codes(0);
        let parent_idx: Vec<u32> = (0..64).collect();
        let (left_idx, right_idx): (Vec<u32>, Vec<u32>) =
            parent_idx.iter().partition(|&&i| codes[i as usize] <= 7);
        let mut parent = Hist::default();
        parent.ensure_bins(b.n_bins(0));
        parent.scan(codes, &y, &parent_idx);
        let mut right = Hist::default();
        right.ensure_bins(b.n_bins(0));
        right.scan(codes, &y, &right_idx);
        let mut left_direct = Hist::default();
        left_direct.ensure_bins(b.n_bins(0));
        left_direct.scan(codes, &y, &left_idx);
        parent.subtract(&right);
        assert_eq!(parent.counts, left_direct.counts);
        // Integer-valued y: sums subtract exactly.
        assert_eq!(parent.sums, left_direct.sums);
    }

    /// The dense sweep the occupancy sweep replaced, kept as the reference:
    /// it visits every bin `0..n_bins` and skips the empty ones in place.
    fn dense_reference_split(
        feature: usize,
        bins: &FeatureBins,
        counts: &[u32],
        sums: &[f64],
        n: usize,
        total_sum: f64,
        min_leaf: usize,
    ) -> Option<(Split, u16)> {
        if n < 2 * min_leaf {
            return None;
        }
        let total_n = n as f64;
        let parent_score = total_sum * total_sum / total_n;
        let mut left_n = 0usize;
        let mut left_sum = 0.0f64;
        let mut prev_occupied: Option<usize> = None;
        let mut best: Option<(Split, u16)> = None;
        for b in 0..counts.len() {
            if counts[b] == 0 {
                continue;
            }
            if let Some(pb) = prev_occupied {
                if left_n >= min_leaf && n - left_n >= min_leaf {
                    let right_sum = total_sum - left_sum;
                    let right_n = total_n - left_n as f64;
                    let score =
                        left_sum * left_sum / left_n as f64 + right_sum * right_sum / right_n;
                    let improvement = score - parent_score;
                    if best
                        .as_ref()
                        .is_none_or(|(s, _)| improvement > s.improvement)
                    {
                        best = Some((
                            Split {
                                feature,
                                threshold: 0.5 * (bins.hi[pb] + bins.lo[b]),
                                improvement,
                                left_count: left_n,
                            },
                            pb as u16,
                        ));
                    }
                }
            }
            left_n += counts[b] as usize;
            left_sum += sums[b];
            prev_occupied = Some(b);
        }
        best.filter(|(s, _)| s.improvement > 1e-12 * (1.0 + parent_score.abs()))
    }

    /// Dense per-bin `(counts, sums)` of the rows in `idx`, as the replaced
    /// `reset` + `scan` built them.
    fn dense_scan(n_bins: usize, codes: &[u16], y: &[f64], idx: &[u32]) -> (Vec<u32>, Vec<f64>) {
        let mut counts = vec![0u32; n_bins];
        let mut sums = vec![0.0; n_bins];
        for &i in idx {
            counts[codes[i as usize] as usize] += 1;
            sums[codes[i as usize] as usize] += y[i as usize];
        }
        (counts, sums)
    }

    /// A split as raw bits, so two results compare bit for bit.
    fn split_bits(found: Option<(Split, u16)>) -> Option<(usize, u64, u64, usize, u16)> {
        found.map(|(s, bin)| {
            (
                s.feature,
                s.threshold.to_bits(),
                s.improvement.to_bits(),
                s.left_count,
                bin,
            )
        })
    }

    fn assert_cleared(h: &Hist) {
        assert!(h.counts.iter().all(|&c| c == 0));
        assert!(h.sums.iter().all(|&v| v.to_bits() == 0));
        assert!(h.occupied.iter().all(|&w| w == 0));
    }

    #[test]
    fn occupied_sweep_matches_dense_sweep_on_random_histograms() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        // One reused slot, as the builder reuses its `histset`, so stale
        // state from an earlier (wider) feature would show up.
        let mut slot = Hist::default();
        for trial in 0..400 {
            let n_bins = rng.random_range(1..300usize);
            let n_rows = rng.random_range(2..400usize);
            // Rows fall into a random subset of the bins, so many bins stay
            // empty, as on a small node over a high-cardinality feature.
            let live: Vec<u16> = (0..rng.random_range(1..=n_bins.min(40)))
                .map(|_| rng.random_range(0..n_bins) as u16)
                .collect();
            let codes: Vec<u16> = (0..n_rows)
                .map(|_| live[rng.random_range(0..live.len())])
                .collect();
            let y: Vec<f64> = (0..n_rows)
                .map(|_| rng.random_range(-50.0..50.0f64) * 1.37)
                .collect();
            let bins = FeatureBins {
                lo: (0..n_bins).map(|b| b as f64 * 2.0).collect(),
                hi: (0..n_bins).map(|b| b as f64 * 2.0 + 0.5).collect(),
            };
            // A bootstrap-like parent node and a random right child of it.
            let parent_idx: Vec<u32> = (0..n_rows)
                .map(|_| rng.random_range(0..n_rows) as u32)
                .collect();
            let right_idx: Vec<u32> = parent_idx
                .iter()
                .copied()
                .filter(|_| rng.random_bool(0.5))
                .collect();

            let (pc, ps) = dense_scan(n_bins, &codes, &y, &parent_idx);
            let (rc, rs) = dense_scan(n_bins, &codes, &y, &right_idx);
            let lc: Vec<u32> = pc.iter().zip(&rc).map(|(p, r)| p - r).collect();
            let ls: Vec<f64> = ps.iter().zip(&rs).map(|(p, r)| p - r).collect();

            let mut parent = Hist::default();
            parent.ensure_bins(n_bins);
            parent.scan(&codes, &y, &parent_idx);
            slot.ensure_bins(n_bins);
            slot.scan(&codes, &y, &right_idx);
            let mut left = parent.clone();
            left.subtract(&slot);

            let nodes = [
                (&parent, &pc, &ps, parent_idx.len()),
                (&slot, &rc, &rs, right_idx.len()),
                (&left, &lc, &ls, parent_idx.len() - right_idx.len()),
            ];
            for (hist, counts, sums, n) in nodes {
                let total: f64 = sums.iter().sum();
                for min_leaf in [1, 3, 5] {
                    let got = best_split_on_histogram(7, &bins, hist, n, total, min_leaf);
                    let want = dense_reference_split(7, &bins, counts, sums, n, total, min_leaf);
                    assert_eq!(
                        split_bits(got),
                        split_bits(want),
                        "trial {trial}, min_leaf {min_leaf}"
                    );
                }
            }
            // The subtracted histogram marks exactly the bins left occupied.
            let marked: Vec<usize> = set_bits(&left.occupied).collect();
            let nonzero: Vec<usize> = (0..n_bins).filter(|&b| lc[b] > 0).collect();
            assert_eq!(marked, nonzero, "trial {trial}");
            slot.clear();
            assert_cleared(&slot);
            left.clear();
            assert_cleared(&left);
        }
    }

    #[test]
    fn sibling_subtraction_path_matches_exact_tree() {
        // Six distinct values per feature and `max_bins` 6: pure bins, and
        // every node of at least 12 rows parks its histograms, so most of
        // the tree's left children sweep subtracted histograms. Integer
        // data keeps every sum exact, so the exact tree is the reference.
        let x: Vec<Vec<f64>> = (0..300)
            .map(|i| {
                vec![
                    (i % 6) as f64,
                    ((i * 7) % 6) as f64 * 3.0,
                    ((i / 5) % 6) as f64,
                    ((i * 11) % 5) as f64,
                ]
            })
            .collect();
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, r)| 5.0 * r[0] - 2.0 * r[1] + r[2] * r[3] + (i % 3) as f64)
            .collect();
        let cols = crate::tree::rows_to_columns(&x);
        let binned = BinnedDataset::build(&cols, 6);
        let mut bootstrap = StdRng::seed_from_u64(5);
        for seed in 0..8u64 {
            let idx: Vec<u32> = (0..300)
                .map(|_| bootstrap.random_range(0..300u32))
                .collect();
            let params = TreeParams {
                mtry: 1 + (seed as usize % 4),
                min_node_size: 2,
                ..TreeParams::default()
            };
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let exact = RegressionTree::fit_on_indices(&cols, &y, &idx, &params, &mut rng_a);
            let binned_tree = fit_binned_on_indices(&binned, &y, &idx, &params, &mut rng_b);
            assert_eq!(exact, binned_tree, "seed {seed}");
        }
    }

    #[test]
    fn sibling_cache_caps_live_entries() {
        let mut cache = SiblingCache::new(2);
        let mk = || (vec![0u32], vec![Hist::default()]);
        let (f1, h1) = mk();
        let a = cache.create(f1, h1).unwrap();
        let (f2, h2) = mk();
        let _b = cache.create(f2, h2).unwrap();
        let (f3, h3) = mk();
        assert!(cache.create(f3, h3).is_none());
        cache.release(a);
        let (f4, h4) = mk();
        assert!(cache.create(f4, h4).is_some());
    }

    #[test]
    fn binned_tree_learns_step_function() {
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..40).map(|i| if i < 20 { 1.0 } else { 9.0 }).collect();
        let cols = crate::tree::rows_to_columns(&x);
        let binned = BinnedDataset::build(&cols, 256);
        let idx: Vec<u32> = (0..40).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let t = fit_binned_on_indices(&binned, &y, &idx, &TreeParams::default(), &mut rng);
        assert!((t.predict_row(&[3.0]) - 1.0).abs() < 1e-9);
        assert!((t.predict_row(&[33.0]) - 9.0).abs() < 1e-9);
    }

    #[test]
    fn binned_tree_identical_to_exact_when_bins_are_pure() {
        // Integer-valued features and response: sums are exact under any
        // accumulation order, so the two paths must agree bit for bit.
        let x: Vec<Vec<f64>> = (0..120)
            .map(|i| vec![(i % 40) as f64, ((i * 13) % 23) as f64, (i / 10) as f64])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 3.0 * r[0] - 2.0 * r[2]).collect();
        let cols = crate::tree::rows_to_columns(&x);
        let binned = BinnedDataset::build(&cols, 256);
        let idx: Vec<u32> = (0..120).collect();
        let params = TreeParams {
            mtry: 2,
            ..TreeParams::default()
        };
        let mut rng_a = StdRng::seed_from_u64(77);
        let mut rng_b = StdRng::seed_from_u64(77);
        let exact = RegressionTree::fit_on_indices(&cols, &y, &idx, &params, &mut rng_a);
        let binned_tree = fit_binned_on_indices(&binned, &y, &idx, &params, &mut rng_b);
        assert_eq!(exact, binned_tree);
    }
}
