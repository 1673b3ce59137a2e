//! Bottleneck analysis: from important counters to performance patterns.
//!
//! The paper's key usability claim is that variable importance "can be
//! correlated to performance patterns, enabling us to provide systematic
//! bottleneck detection and analysis, as well as suggest potential
//! elimination strategies". This module encodes that mapping: every counter
//! belongs to a performance-pattern category (§3.1's performance factors),
//! and the analyser combines the importance ranking with partial-dependence
//! trends to produce a ranked bottleneck report with elimination hints.

use crate::model::BlackForestModel;
use bf_forest::partial::{PartialDependence, Trend};
use serde::{Deserialize, Serialize};

/// Performance-pattern categories, following §3.1's taxonomy of GPU
/// performance factors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BottleneckCategory {
    /// Shared-memory bank conflicts causing instruction replays.
    SharedMemoryConflicts,
    /// Uncoalesced or cache-unfriendly global accesses (L1/L2 misses,
    /// transaction inflation).
    MemoryAccessPattern,
    /// Raw DRAM bandwidth saturation.
    MemoryBandwidth,
    /// Insufficient parallelism / low occupancy.
    Occupancy,
    /// Intra-warp control-flow divergence.
    Divergence,
    /// Instruction-issue pressure and serialization (replays of any kind).
    InstructionSerialization,
    /// Arithmetic/issue throughput.
    ComputeThroughput,
    /// Problem or machine characteristic (not a hardware bottleneck per se).
    Characteristic,
}

impl BottleneckCategory {
    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            BottleneckCategory::SharedMemoryConflicts => "shared-memory bank conflicts",
            BottleneckCategory::MemoryAccessPattern => "memory access pattern / caching",
            BottleneckCategory::MemoryBandwidth => "memory bandwidth",
            BottleneckCategory::Occupancy => "occupancy / available parallelism",
            BottleneckCategory::Divergence => "warp divergence",
            BottleneckCategory::InstructionSerialization => "instruction serialization (replays)",
            BottleneckCategory::ComputeThroughput => "instruction throughput",
            BottleneckCategory::Characteristic => "problem/machine characteristic",
        }
    }

    /// The elimination strategy the report suggests.
    pub fn hint(&self) -> &'static str {
        match self {
            BottleneckCategory::SharedMemoryConflicts => {
                "pad shared arrays or re-index accesses so consecutive lanes hit distinct banks (e.g. sequential instead of strided addressing)"
            }
            BottleneckCategory::MemoryAccessPattern => {
                "restructure accesses for coalescing (consecutive threads -> consecutive addresses), tile through shared memory, improve locality"
            }
            BottleneckCategory::MemoryBandwidth => {
                "reduce bytes moved: fuse kernels, increase arithmetic intensity, use wider loads, process multiple elements per thread"
            }
            BottleneckCategory::Occupancy => {
                "increase block size or concurrent blocks; reduce per-thread registers / per-block shared memory; expose more independent work per thread"
            }
            BottleneckCategory::Divergence => {
                "re-map work to threads so whole warps take the same branch (e.g. replace tid%k tests with contiguous ranges)"
            }
            BottleneckCategory::InstructionSerialization => {
                "remove replay sources: bank conflicts, uncoalesced accesses, divergent paths"
            }
            BottleneckCategory::ComputeThroughput => {
                "reduce instruction count (unrolling, cheaper instruction mix), use fast-math intrinsics where acceptable"
            }
            BottleneckCategory::Characteristic => {
                "not a hardware bottleneck: a workload/machine descriptor that drives execution time"
            }
        }
    }
}

/// Maps a counter name to its performance-pattern category.
pub fn categorize(counter: &str) -> BottleneckCategory {
    match counter {
        "shared_replay_overhead"
        | "l1_shared_bank_conflict"
        | "shared_load_replay"
        | "shared_store_replay"
        | "shared_ld_bank_conflict"
        | "shared_st_bank_conflict" => BottleneckCategory::SharedMemoryConflicts,
        "l1_global_load_hit"
        | "l1_global_load_miss"
        | "global_hit_rate"
        | "global_load_transaction"
        | "global_store_transaction"
        | "l2_read_transactions"
        | "l2_write_transactions"
        | "l2_read_throughput"
        | "l2_write_throughput"
        | "shared_load"
        | "shared_store" => BottleneckCategory::MemoryAccessPattern,
        "gld_requested_throughput"
        | "gst_requested_throughput"
        | "gld_throughput"
        | "gst_throughput"
        | "dram_read_transactions"
        | "dram_write_transactions"
        | "gld_request"
        | "gst_request" => BottleneckCategory::MemoryBandwidth,
        "achieved_occupancy" => BottleneckCategory::Occupancy,
        "branch" | "divergent_branch" | "warp_execution_efficiency" => {
            BottleneckCategory::Divergence
        }
        "inst_replay_overhead" => BottleneckCategory::InstructionSerialization,
        "ipc"
        | "issue_slot_utilization"
        | "inst_executed"
        | "inst_issued"
        | "ldst_fu_utilization" => BottleneckCategory::ComputeThroughput,
        _ => BottleneckCategory::Characteristic,
    }
}

/// Labels a principal component with the performance dimension its
/// strongest loadings point at — how §5 reads the PCA outcome ("PC1 is
/// related to memory intensity of reduce1, PC2 to MIMD and ILP parallelism,
/// PC3 to SIMD efficiency, and PC4 to memory subsystem throughput").
///
/// The label is the [`BottleneckCategory`] with the largest sum of squared
/// loadings within the component's top variables, with two special cases
/// lifted from the paper's vocabulary: issue/IPC-dominated components are
/// "MIMD/ILP parallelism" and warp-efficiency-dominated ones are
/// "SIMD efficiency".
pub fn component_label(pca: &crate::model::PcaSummary, component: usize) -> String {
    let mut by_cat: Vec<(BottleneckCategory, f64)> = Vec::new();
    let mut simd = 0.0f64;
    let mut mimd = 0.0f64;
    for (name, loading) in pca.dominant(component, 6) {
        let w = loading * loading;
        match name.as_str() {
            "warp_execution_efficiency" | "divergent_branch" => simd += w,
            "ipc"
            | "issue_slot_utilization"
            | "achieved_occupancy"
            | "inst_issued"
            | "inst_replay_overhead"
            | "shared_replay_overhead" => mimd += w,
            _ => {}
        }
        let cat = categorize(&name);
        if let Some(e) = by_cat.iter_mut().find(|(c, _)| *c == cat) {
            e.1 += w;
        } else {
            by_cat.push((cat, w));
        }
    }
    let (top_cat, top_w) = by_cat
        .into_iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap_or((BottleneckCategory::Characteristic, 0.0));
    if simd > top_w && simd > mimd {
        "SIMD efficiency".to_string()
    } else if mimd > top_w {
        "MIMD/ILP parallelism".to_string()
    } else {
        match top_cat {
            BottleneckCategory::MemoryBandwidth => "memory subsystem throughput".to_string(),
            BottleneckCategory::MemoryAccessPattern => "memory intensity / caching".to_string(),
            other => other.label().to_string(),
        }
    }
}

/// One entry of the bottleneck report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BottleneckFinding {
    /// Counter name.
    pub counter: String,
    /// Importance (mean OOB-MSE increase).
    pub importance: f64,
    /// Importance as a percentage of the top variable's.
    pub relative_importance: f64,
    /// Category of the underlying performance pattern.
    pub category: BottleneckCategory,
    /// Partial-dependence trend of the counter vs execution time.
    pub trend: Trend,
    /// Pearson correlation of the partial-dependence curve.
    pub correlation: f64,
}

/// The ranked bottleneck analysis of a fitted model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BottleneckReport {
    /// Findings, most important first.
    pub findings: Vec<BottleneckFinding>,
}

impl BottleneckReport {
    /// Analyses the top `k` variables of a fitted model.
    pub fn analyze(model: &BlackForestModel, k: usize) -> BottleneckReport {
        let rel = model.importance.relative();
        let names = &model.ranking[..k.min(model.ranking.len())];
        let features: Vec<usize> = names
            .iter()
            .map(|name| {
                model
                    .feature_names
                    .iter()
                    .position(|n| n == name)
                    .expect("ranking names come from the schema")
            })
            .collect();
        let curves = PartialDependence::compute_many(&model.forest, &features, 16);
        let findings = names
            .iter()
            .zip(features.iter().zip(&curves))
            .map(|(name, (&j, pd))| BottleneckFinding {
                counter: name.clone(),
                importance: model.importance.mean_increase_mse[j],
                relative_importance: rel[j],
                category: categorize(name),
                trend: pd.trend(),
                correlation: pd.correlation(),
            })
            .collect();
        BottleneckReport { findings }
    }

    /// The dominant hardware bottleneck: the highest-ranked finding whose
    /// category is a real hardware pattern (characteristics like `size` are
    /// skipped — they explain time but aren't actionable).
    pub fn primary(&self) -> Option<&BottleneckFinding> {
        self.findings
            .iter()
            .find(|f| f.category != BottleneckCategory::Characteristic)
    }

    /// Aggregated importance share per category (relative units).
    pub fn category_shares(&self) -> Vec<(BottleneckCategory, f64)> {
        let mut acc: Vec<(BottleneckCategory, f64)> = Vec::new();
        for f in &self.findings {
            if let Some(e) = acc.iter_mut().find(|(c, _)| *c == f.category) {
                e.1 += f.relative_importance.max(0.0);
            } else {
                acc.push((f.category, f.relative_importance.max(0.0)));
            }
        }
        acc.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{collect_reduce, CollectOptions};
    use crate::model::{BlackForestModel, ModelConfig};
    use bf_kernels::reduce::ReduceVariant;
    use gpu_sim::GpuConfig;

    #[test]
    fn categorization_covers_catalogue() {
        for info in gpu_sim::counters::COUNTER_CATALOG {
            // Every catalogue counter must land in a non-characteristic
            // category (characteristics are only for size/threads/machine).
            assert_ne!(
                categorize(info.name),
                BottleneckCategory::Characteristic,
                "{} uncategorized",
                info.name
            );
        }
        assert_eq!(categorize("size"), BottleneckCategory::Characteristic);
        assert_eq!(categorize("mbw"), BottleneckCategory::Characteristic);
    }

    #[test]
    fn hints_are_nonempty_and_distinct() {
        use BottleneckCategory::*;
        let cats = [
            SharedMemoryConflicts,
            MemoryAccessPattern,
            MemoryBandwidth,
            Occupancy,
            Divergence,
            InstructionSerialization,
            ComputeThroughput,
            Characteristic,
        ];
        let mut hints: Vec<&str> = cats.iter().map(|c| c.hint()).collect();
        assert!(hints.iter().all(|h| !h.is_empty()));
        hints.sort_unstable();
        hints.dedup();
        assert_eq!(hints.len(), cats.len());
    }

    #[test]
    fn reduce1_report_flags_shared_conflicts_reduce2_drops_them() {
        let gpu = GpuConfig::gtx580();
        let sizes: Vec<usize> = (14..=19).map(|e| 1usize << e).collect();
        let ds1 = collect_reduce(
            &gpu,
            ReduceVariant::Reduce1,
            &sizes,
            &[64, 128, 256, 512],
            &CollectOptions::default(),
        )
        .unwrap();
        let model = BlackForestModel::fit(&ds1, &ModelConfig::quick(11)).unwrap();
        let report = BottleneckReport::analyze(&model, 12);
        assert_eq!(report.findings.len(), 12);
        // Findings are importance-sorted.
        for w in report.findings.windows(2) {
            assert!(w[0].importance >= w[1].importance);
        }
        // reduce1's defining bottleneck (bank conflicts) must be visible in
        // the analysis: the conflict counters exist in the data...
        assert!(ds1.feature_index("l1_shared_bank_conflict").is_some());
        assert!(report.primary().is_some());
        // ...whereas reduce2 (sequential addressing) has no conflicts at all,
        // so the counter is constant zero and vanishes from the analysis —
        // the paper's §5.3 observation.
        let ds2 = collect_reduce(
            &gpu,
            ReduceVariant::Reduce2,
            &sizes,
            &[64, 128, 256, 512],
            &CollectOptions::default(),
        )
        .unwrap();
        assert!(ds2.feature_index("l1_shared_bank_conflict").is_none());
        assert!(ds2.feature_index("shared_replay_overhead").is_none());
    }

    #[test]
    fn component_labels_are_meaningful_strings() {
        let gpu = GpuConfig::gtx580();
        let sizes: Vec<usize> = (13..=16).map(|e| 1usize << e).collect();
        let ds = collect_reduce(
            &gpu,
            ReduceVariant::Reduce1,
            &sizes,
            &[64, 128, 256],
            &CollectOptions::default(),
        )
        .unwrap();
        let model = BlackForestModel::fit(&ds, &ModelConfig::quick(13)).unwrap();
        let pca = model.pca.as_ref().unwrap();
        for c in 0..pca.n_components {
            let label = component_label(pca, c);
            assert!(!label.is_empty());
        }
    }

    #[test]
    fn category_shares_sum_matches_findings() {
        let gpu = GpuConfig::gtx580();
        let sizes: Vec<usize> = (12..=15).map(|e| 1usize << e).collect();
        let ds = collect_reduce(
            &gpu,
            ReduceVariant::Reduce2,
            &sizes,
            &[64, 128, 256],
            &CollectOptions::default(),
        )
        .unwrap();
        let model = BlackForestModel::fit(&ds, &ModelConfig::quick(12)).unwrap();
        let report = BottleneckReport::analyze(&model, 8);
        let total: f64 = report.category_shares().iter().map(|(_, v)| v).sum();
        let direct: f64 = report
            .findings
            .iter()
            .map(|f| f.relative_importance.max(0.0))
            .sum();
        assert!((total - direct).abs() < 1e-9);
    }
}
