//! The `bf lint` driver: sweep a workload, collect diagnostics, optionally
//! run the differential oracle, and render the report.
//!
//! The JSON schema (documented in `DESIGN.md`) is stable: fields are only
//! added, never renamed or removed, and `schema_version` is bumped on any
//! breaking change. Plain runs emit version 1 (new optional fields serialize
//! as `null`, which v1 consumers ignore); enabling `--blocks` or `--what-if`
//! emits version 2, which adds the per-block cost table, the conservation
//! rollup, and the model-priced what-if ranking.
//!
//! Output is fully deterministic: diagnostics are deduplicated by
//! `(code, kernel, block, warp, instruction)` — the span minus the launch
//! index, so per-launch repeats of the same finding fold into one entry with
//! an occurrence count — and sorted by severity, attributed cost, code, and
//! span, making JSON reports diff-stable across runs.

use crate::attr::{self, BlockAttribution};
use crate::diag::{self, Diagnostic, Severity};
use crate::oracle::{self, OracleReport};
use crate::walk::{analyze_sampled, StaticLaunchAnalysis};
use crate::whatif::{self, WhatIfModel};
use bf_kernels::matmul::matmul_application;
use bf_kernels::nw::nw_application;
use bf_kernels::reduce::{reduce_application, ReduceVariant};
use bf_kernels::stencil::stencil_application;
use bf_kernels::Application;
use gpu_sim::{simulate_sampled_launch_with, EngineOptions, GpuConfig, SampledLaunch};
use serde::{Deserialize, Serialize};

/// Configuration of a lint run. Plain runs (`blocks` off, no `what_if`)
/// emit schema version 1; block attribution or what-if pricing emit
/// version 2.
#[derive(Clone, Copy, Default)]
pub struct LintConfig<'a> {
    /// Use the small quick sweep instead of the full one.
    pub quick: bool,
    /// Also run the static-vs-dynamic differential oracle (costs a dynamic
    /// simulation per launch).
    pub oracle: bool,
    /// Attribute counters to basic blocks: block-level diagnostics, the
    /// per-block cost table, and the conservation check (BF-E003).
    pub blocks: bool,
    /// Price each applicable fix through a trained model (implies block
    /// attribution is meaningful but does not require `blocks`).
    pub what_if: Option<&'a dyn WhatIfModel>,
}

/// A diagnostic plus how many launches it fired on (duplicates across a
/// sweep are folded; the span points at the first occurrence).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AggregatedDiagnostic {
    /// The representative diagnostic (first occurrence).
    pub diagnostic: Diagnostic,
    /// Number of launches across the sweep that raised it.
    pub occurrences: usize,
}

/// Per-kernel rollup across every launch of the sweep that used the kernel.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelSummary {
    /// Kernel name.
    pub kernel: String,
    /// Launches analyzed.
    pub launches: usize,
    /// Minimum theoretical occupancy across launches, percent.
    pub min_occupancy_pct: f64,
    /// Worst (lowest) global-load efficiency across launches, percent.
    pub min_load_efficiency_pct: f64,
    /// Worst global-store efficiency across launches, percent.
    pub min_store_efficiency_pct: f64,
    /// Worst shared-memory bank-conflict degree across launches.
    pub max_bank_conflict_degree: u32,
    /// Roofline bound label of the largest launch ("compute-bound",
    /// "memory-bound", "balanced").
    pub bound: String,
}

/// Oracle rollup for the report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OracleSummary {
    /// Launches checked.
    pub launches_checked: usize,
    /// Counter pairs compared.
    pub counters_checked: usize,
    /// Largest relative error seen across all pairs.
    pub max_rel_error: f64,
    /// Number of divergent launches (non-zero means BF-E002 errors fired).
    pub divergent_launches: usize,
}

/// Severity tallies.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct SeveritySummary {
    /// Info diagnostics.
    pub info: usize,
    /// Warning diagnostics.
    pub warnings: usize,
    /// Error diagnostics.
    pub errors: usize,
}

/// One basic block in the v2 report's cost table: a kernel's code region
/// with its attributed, full-grid-scaled cost aggregated over the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlockCostEntry {
    /// Kernel name.
    pub kernel: String,
    /// Content-derived block id, 16 hex digits.
    pub block_id: String,
    /// Grid block of the first occurrence.
    pub block: usize,
    /// Warp of the first occurrence.
    pub warp: usize,
    /// Instruction index where the block starts (first occurrence).
    pub instruction: usize,
    /// Instructions in the block body.
    pub instructions: usize,
    /// Merged span occurrences across warps, blocks, and launches.
    pub occurrences: u64,
    /// Attributed issue-slot cost, scaled to full grids, summed over the
    /// sweep.
    pub cost: f64,
    /// This block's share of its kernel's total attributed cost.
    pub cost_share: f64,
    /// Scaled shared-memory replays attributed to the block.
    pub shared_replays: f64,
    /// Scaled global transactions (loads + stores) attributed to the block.
    pub global_transactions: f64,
    /// Scaled divergent branches attributed to the block.
    pub divergent_branches: f64,
}

/// Conservation rollup: how the per-block attribution sums compared to the
/// launch totals across the sweep.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ConservationSummary {
    /// Launches whose attribution was checked.
    pub launches_checked: usize,
    /// Counter comparisons performed (25 per launch).
    pub counters_checked: usize,
    /// Comparisons that were bit-for-bit identical.
    pub exact: usize,
    /// Largest relative error across all comparisons.
    pub max_rel_error: f64,
    /// Comparisons beyond the 1e-9 tolerance (each raises BF-E003).
    pub violations: usize,
}

/// One priced what-if suggestion: predicted time with and without the fix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WhatIfEntry {
    /// Application the fix applies to.
    pub application: String,
    /// Diagnostic code the fix addresses (BF-W001/W002/W004).
    pub code: String,
    /// Fix label ("conflict-free-shared", ...).
    pub fix: String,
    /// Model-predicted time of the unmodified application, ms.
    pub baseline_ms: f64,
    /// Model-predicted time with the fix applied, ms.
    pub fixed_ms: f64,
    /// `baseline_ms - fixed_ms` (positive = the fix is predicted to help).
    pub delta_ms: f64,
    /// `baseline_ms / fixed_ms`.
    pub speedup: f64,
}

/// The full lint report: the unit of the `--format json` output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LintReport {
    /// Schema version; 1 for plain runs, 2 when block attribution or
    /// what-if pricing is present.
    pub schema_version: u32,
    /// GPU preset name.
    pub gpu: String,
    /// Workload name.
    pub workload: String,
    /// Applications in the sweep.
    pub applications: usize,
    /// Kernel launches analyzed.
    pub launches: usize,
    /// Aggregated diagnostics, errors first.
    pub diagnostics: Vec<AggregatedDiagnostic>,
    /// Per-kernel rollups.
    pub kernels: Vec<KernelSummary>,
    /// Oracle rollup, when the oracle ran.
    pub oracle: Option<OracleSummary>,
    /// Severity tallies over all (pre-aggregation) diagnostics.
    pub summary: SeveritySummary,
    /// Per-block cost table, cost-ranked per kernel (`--blocks`).
    pub blocks: Option<Vec<BlockCostEntry>>,
    /// Conservation rollup (`--blocks`).
    pub conservation: Option<ConservationSummary>,
    /// Model-priced fixes, biggest predicted win first (`--what-if`).
    pub what_if: Option<Vec<WhatIfEntry>>,
}

impl LintReport {
    /// The highest severity present, if any diagnostic fired.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.diagnostic.severity).max()
    }

    /// Serializes the report as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("lint report serializes")
    }
}

/// The workloads `bf lint` knows how to sweep.
pub const WORKLOADS: &[&str] = &[
    "reduce0", "reduce1", "reduce2", "reduce3", "reduce4", "reduce5", "reduce6", "matmul", "nw",
    "stencil",
];

/// One application's named characteristics — the values `collect` would put
/// in the dataset's characteristic columns, which is what a [`WhatIfModel`]
/// predicts from.
pub type AppCharacteristics = Vec<(String, f64)>;

/// Builds the sweep of applications for a named workload, mirroring the
/// paper's parameter ranges (`--quick` trims them for CI), with each
/// application's [`AppCharacteristics`].
pub fn workload_sweep_with_chars(
    workload: &str,
    quick: bool,
) -> Option<(Vec<Application>, Vec<AppCharacteristics>)> {
    let mut apps = Vec::new();
    let mut chars: Vec<Vec<(String, f64)>> = Vec::new();
    match workload {
        "matmul" => {
            let sizes: &[usize] = if quick {
                &[64, 128]
            } else {
                &[64, 128, 256, 512]
            };
            for &n in sizes {
                apps.push(matmul_application(n));
                chars.push(vec![("size".to_string(), n as f64)]);
            }
        }
        "nw" => {
            let lengths: &[usize] = if quick {
                &[256, 512]
            } else {
                &[256, 512, 1024, 2048]
            };
            for &n in lengths {
                apps.push(nw_application(n, 10));
                chars.push(vec![("size".to_string(), n as f64)]);
            }
        }
        "stencil" => {
            let sizes: &[usize] = if quick { &[64, 128] } else { &[64, 128, 256] };
            let sweeps: &[usize] = if quick { &[1] } else { &[1, 2, 4] };
            for &n in sizes {
                for &s in sweeps {
                    apps.push(stencil_application(n, s));
                    chars.push(vec![
                        ("size".to_string(), n as f64),
                        ("sweeps".to_string(), s as f64),
                    ]);
                }
            }
        }
        name => {
            let variant = *ReduceVariant::ALL.iter().find(|v| v.name() == name)?;
            let sizes: &[usize] = if quick {
                &[1 << 14, 1 << 16]
            } else {
                &[1 << 14, 1 << 16, 1 << 18, 1 << 20]
            };
            let threads: &[usize] = if quick {
                &[128, 256]
            } else {
                &[64, 128, 256, 512]
            };
            for &n in sizes {
                for &t in threads {
                    apps.push(reduce_application(variant, n, t));
                    chars.push(vec![
                        ("size".to_string(), n as f64),
                        ("threads".to_string(), t as f64),
                    ]);
                }
            }
        }
    }
    Some((apps, chars))
}

/// Lints one workload sweep on a GPU: static analysis + diagnostics over
/// every launch of every application, plus the oracle, block attribution
/// and what-if pricing as `cfg` asks.
///
/// Launches that cannot be analyzed (malformed trace, impossible launch)
/// produce a `BF-E001` error diagnostic instead of aborting the run.
pub fn lint_workload_with(gpu: &GpuConfig, workload: &str, cfg: &LintConfig) -> Option<LintReport> {
    let (apps, chars) = workload_sweep_with_chars(workload, cfg.quick)?;
    Some(lint_applications_with(gpu, workload, &apps, &chars, cfg))
}

/// Merged per-block accumulator keyed by (kernel, block id).
struct BlockAgg {
    kernel: String,
    id: u64,
    first: BlockAttribution,
    cost: f64,
    occurrences: u64,
    shared_replays: f64,
    global_transactions: f64,
    divergent_branches: f64,
}

/// Lints an explicit set of applications with the full configuration.
/// `chars` supplies per-application characteristics for what-if pricing
/// (parallel to `apps`; pass `&[]` when no model is involved).
pub fn lint_applications_with(
    gpu: &GpuConfig,
    workload: &str,
    apps: &[Application],
    chars: &[Vec<(String, f64)>],
    cfg: &LintConfig,
) -> LintReport {
    let mut all: Vec<Diagnostic> = Vec::new();
    let mut launches = 0usize;
    let mut kernels: Vec<KernelSummary> = Vec::new();
    let mut oracle_reports: Vec<OracleReport> = Vec::new();
    let mut block_aggs: Vec<BlockAgg> = Vec::new();
    let mut conservation = ConservationSummary::default();
    // Per application, the launch walks what-if pricing starts from; `None`
    // when a launch failed to sample, so what-if reports that failure itself.
    let mut baselines: Vec<Option<Vec<StaticLaunchAnalysis>>> = Vec::new();

    for app in apps {
        let mut baseline = cfg.what_if.map(|_| Vec::new());
        for (i, kernel) in app.launches.iter().enumerate() {
            launches += 1;
            let sampled = {
                let _span = bf_trace::span!("analyze.sample");
                SampledLaunch::new(gpu, kernel.as_ref())
            };
            let sampled = match sampled {
                Ok(s) => s,
                Err(e) => {
                    all.push(diag::malformed(&kernel.name(), i, &e));
                    baseline = None;
                    continue;
                }
            };
            let a = {
                let _span = bf_trace::span!("analyze.walk");
                analyze_sampled(gpu, &sampled)
            };

            if cfg.blocks {
                // The launch walk and the attribution fold the same
                // compiled ops but accumulate independently, so
                // conservation still checks the per-block routing against
                // the launch totals.
                let (battr, checks) = {
                    let _span = bf_trace::span!("analyze.attr");
                    let battr = attr::attribute_sampled(gpu, &sampled);
                    let checks = attr::check_conservation(&battr, &a);
                    (battr, checks)
                };
                conservation.launches_checked += 1;
                conservation.counters_checked += checks.len();
                for c in &checks {
                    conservation.max_rel_error = conservation.max_rel_error.max(c.rel_error);
                    if c.exact {
                        conservation.exact += 1;
                    }
                }
                let failures: Vec<_> = checks.into_iter().filter(|c| !c.ok).collect();
                if !failures.is_empty() {
                    conservation.violations += failures.len();
                    all.push(diag::conservation_violation(&a.kernel, i, &failures));
                }
                {
                    let _span = bf_trace::span!("analyze.diag");
                    all.extend(diag::diagnose_blocks(gpu, &a, &battr, i));
                }

                for b in &battr.blocks {
                    let cost = b.cost() * battr.scale;
                    let sr =
                        (b.counts.shared_load_replay + b.counts.shared_store_replay) * battr.scale;
                    let gt = (b.counts.global_load_transactions
                        + b.counts.global_store_transactions)
                        * battr.scale;
                    let db = b.counts.divergent_branch * battr.scale;
                    match block_aggs
                        .iter_mut()
                        .find(|e| e.kernel == battr.kernel && e.id == b.id)
                    {
                        Some(e) => {
                            e.cost += cost;
                            e.occurrences += b.occurrences;
                            e.shared_replays += sr;
                            e.global_transactions += gt;
                            e.divergent_branches += db;
                        }
                        None => block_aggs.push(BlockAgg {
                            kernel: battr.kernel.clone(),
                            id: b.id,
                            first: b.clone(),
                            cost,
                            occurrences: b.occurrences,
                            shared_replays: sr,
                            global_transactions: gt,
                            divergent_branches: db,
                        }),
                    }
                }
            } else {
                let _span = bf_trace::span!("analyze.diag");
                all.extend(diag::diagnose(gpu, &a, i));
            }

            let entry = match kernels.iter_mut().find(|k| k.kernel == a.kernel) {
                Some(e) => e,
                None => {
                    kernels.push(KernelSummary {
                        kernel: a.kernel.clone(),
                        launches: 0,
                        min_occupancy_pct: 100.0,
                        min_load_efficiency_pct: 100.0,
                        min_store_efficiency_pct: 100.0,
                        max_bank_conflict_degree: 1,
                        bound: String::new(),
                    });
                    kernels.last_mut().expect("just pushed")
                }
            };
            entry.launches += 1;
            entry.min_occupancy_pct = entry.min_occupancy_pct.min(a.occupancy.theoretical * 100.0);
            entry.min_load_efficiency_pct = entry
                .min_load_efficiency_pct
                .min(a.load_efficiency() * 100.0);
            entry.min_store_efficiency_pct = entry
                .min_store_efficiency_pct
                .min(a.store_efficiency() * 100.0);
            entry.max_bank_conflict_degree =
                entry.max_bank_conflict_degree.max(a.shared.max_degree);
            // Successive launches shrink (reduce passes); keep the first
            // (largest) launch's classification as the kernel's character.
            if entry.bound.is_empty() {
                entry.bound = a.roofline(gpu).bound.label().to_string();
            }

            if cfg.oracle {
                let dynamic =
                    simulate_sampled_launch_with(gpu, &sampled, &EngineOptions::default());
                let r = oracle::compare(&a, &dynamic, i);
                if r.divergent() {
                    let detail: Vec<String> = r
                        .failures()
                        .iter()
                        .map(|c| {
                            format!(
                                "{}: static {} vs dynamic {} (rel {:.2e})",
                                c.counter, c.static_value, c.dynamic_value, c.rel_error
                            )
                        })
                        .collect();
                    all.push(Diagnostic {
                        code: diag::ORACLE_DIVERGENCE.to_string(),
                        severity: Severity::Error,
                        span: diag::Span::launch(&r.kernel, i),
                        message: format!(
                            "static prediction diverges from dynamic counters: {}",
                            if detail.is_empty() {
                                "occupancy mismatch".to_string()
                            } else {
                                detail.join("; ")
                            }
                        ),
                        suggestion: "static walk and simulator disagree — one of them has a \
                                     bug; bisect against gpu-sim's counting rules"
                            .into(),
                        cost: None,
                    });
                }
                oracle_reports.push(r);
            }
            if let Some(b) = baseline.as_mut() {
                b.push(a);
            }
        }
        baselines.push(baseline);
    }

    // What-if pricing: re-derive static counters under each applicable fix
    // and push both vectors through the model.
    let what_if = cfg.what_if.map(|model| {
        let _span = bf_trace::span!("analyze.whatif");
        let mut entries: Vec<WhatIfEntry> = Vec::new();
        for (i, app) in apps.iter().enumerate() {
            let Some(app_chars) = chars.get(i) else {
                continue;
            };
            let scenarios = match &baselines[i] {
                Some(analyses) => whatif::scenarios_from_baseline(gpu, app, analyses),
                None => whatif::whatif_scenarios(gpu, app),
            };
            let scenarios = match scenarios {
                Ok(s) => s,
                Err(e) => {
                    all.push(diag::malformed(&app.name, 0, &e));
                    continue;
                }
            };
            for s in scenarios {
                let priced = model
                    .predict_ms(app_chars, &s.baseline)
                    .and_then(|b| model.predict_ms(app_chars, &s.fixed).map(|f| (b, f)));
                match priced {
                    Ok((baseline_ms, fixed_ms)) => entries.push(WhatIfEntry {
                        application: app.name.clone(),
                        code: s.fix.code().to_string(),
                        fix: s.fix.label().to_string(),
                        baseline_ms,
                        fixed_ms,
                        delta_ms: baseline_ms - fixed_ms,
                        speedup: baseline_ms / fixed_ms.max(1e-12),
                    }),
                    Err(e) => all.push(Diagnostic {
                        code: diag::MALFORMED.to_string(),
                        severity: Severity::Error,
                        span: diag::Span::launch(&app.name, 0),
                        message: format!("what-if pricing failed for fix `{}`: {e}", s.fix.label()),
                        suggestion: "check that the model bundle matches the workload and \
                                     provides every required characteristic"
                            .into(),
                        cost: None,
                    }),
                }
            }
        }
        entries.sort_by(|a, b| {
            b.delta_ms
                .partial_cmp(&a.delta_ms)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.application.cmp(&b.application))
                .then_with(|| a.code.cmp(&b.code))
        });
        entries
    });

    let mut summary = SeveritySummary::default();
    for d in &all {
        match d.severity {
            Severity::Info => summary.info += 1,
            Severity::Warning => summary.warnings += 1,
            Severity::Error => summary.errors += 1,
        }
    }

    // Fold duplicates: one entry per (code, kernel, block, warp,
    // instruction) — the span minus the launch index, so the same finding
    // repeated across a sweep's launches folds while distinct code
    // locations stay separate.
    let mut aggregated: Vec<AggregatedDiagnostic> = Vec::new();
    for d in all {
        match aggregated.iter_mut().find(|a| {
            a.diagnostic.code == d.code
                && a.diagnostic.span.kernel == d.span.kernel
                && a.diagnostic.span.block == d.span.block
                && a.diagnostic.span.warp == d.span.warp
                && a.diagnostic.span.instruction == d.span.instruction
        }) {
            Some(a) => {
                a.occurrences += 1;
                // Keep the largest attributed cost among the folded spans so
                // ranking reflects the worst occurrence.
                if let (Some(c), Some(existing)) = (d.cost, a.diagnostic.cost) {
                    if c > existing {
                        a.diagnostic.cost = Some(c);
                    }
                } else if a.diagnostic.cost.is_none() {
                    a.diagnostic.cost = d.cost;
                }
            }
            None => aggregated.push(AggregatedDiagnostic {
                diagnostic: d,
                occurrences: 1,
            }),
        }
    }
    // Deterministic order: severity (errors first), attributed cost
    // (biggest first; launch-level findings without a cost sort after
    // block-level ones of equal severity), then code and span.
    aggregated.sort_by(|a, b| {
        let da = &a.diagnostic;
        let db = &b.diagnostic;
        db.severity
            .cmp(&da.severity)
            .then_with(|| {
                let ca = da.cost.unwrap_or(-1.0);
                let cb = db.cost.unwrap_or(-1.0);
                cb.partial_cmp(&ca).unwrap_or(std::cmp::Ordering::Equal)
            })
            .then_with(|| da.code.cmp(&db.code))
            .then_with(|| da.span.kernel.cmp(&db.span.kernel))
            .then_with(|| da.span.launch.cmp(&db.span.launch))
            .then_with(|| da.span.block.cmp(&db.span.block))
            .then_with(|| da.span.warp.cmp(&db.span.warp))
            .then_with(|| da.span.instruction.cmp(&db.span.instruction))
    });

    let oracle = cfg.oracle.then(|| OracleSummary {
        launches_checked: oracle_reports.len(),
        counters_checked: oracle_reports.iter().map(|r| r.checks.len()).sum(),
        max_rel_error: oracle_reports
            .iter()
            .map(|r| r.max_rel_error())
            .fold(0.0, f64::max),
        divergent_launches: oracle_reports.iter().filter(|r| r.divergent()).count(),
    });

    let blocks = cfg.blocks.then(|| {
        let mut entries: Vec<BlockCostEntry> = block_aggs
            .iter()
            .map(|e| {
                let kernel_total: f64 = block_aggs
                    .iter()
                    .filter(|o| o.kernel == e.kernel)
                    .map(|o| o.cost)
                    .sum();
                BlockCostEntry {
                    kernel: e.kernel.clone(),
                    block_id: e.first.id_hex(),
                    block: e.first.first_seen.block,
                    warp: e.first.first_seen.warp,
                    instruction: e.first.first_seen.instruction,
                    instructions: e.first.instructions,
                    occurrences: e.occurrences,
                    cost: e.cost,
                    cost_share: if kernel_total > 0.0 {
                        e.cost / kernel_total
                    } else {
                        0.0
                    },
                    shared_replays: e.shared_replays,
                    global_transactions: e.global_transactions,
                    divergent_branches: e.divergent_branches,
                }
            })
            .collect();
        entries.sort_by(|a, b| {
            a.kernel.cmp(&b.kernel).then_with(|| {
                b.cost
                    .partial_cmp(&a.cost)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.block_id.cmp(&b.block_id))
            })
        });
        entries
    });

    let schema_version = if cfg.blocks || cfg.what_if.is_some() {
        2
    } else {
        1
    };
    LintReport {
        schema_version,
        gpu: gpu.name.clone(),
        workload: workload.to_string(),
        applications: apps.len(),
        launches,
        diagnostics: aggregated,
        kernels,
        oracle,
        summary,
        blocks,
        conservation: cfg.blocks.then_some(conservation),
        what_if,
    }
}

/// Renders the report for terminals, clippy-style.
pub fn render_text(report: &LintReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "bf lint: {} on {} — {} applications, {} launches\n\n",
        report.workload, report.gpu, report.applications, report.launches
    ));
    for a in &report.diagnostics {
        out.push_str(&a.diagnostic.render());
        if a.occurrences > 1 {
            out.push_str(&format!("\n  = note: fired on {} launches", a.occurrences));
        }
        out.push_str("\n\n");
    }
    if !report.kernels.is_empty() {
        out.push_str("kernel summary:\n");
        for k in &report.kernels {
            out.push_str(&format!(
                "  {:<28} {:>3} launches  occ {:>5.1}%  ld eff {:>5.1}%  st eff {:>5.1}%  \
                 bank x{}  {}\n",
                k.kernel,
                k.launches,
                k.min_occupancy_pct,
                k.min_load_efficiency_pct,
                k.min_store_efficiency_pct,
                k.max_bank_conflict_degree,
                k.bound
            ));
        }
    }
    if let Some(blocks) = &report.blocks {
        out.push_str("\nhot basic blocks (attributed issue-slot cost):\n");
        for b in blocks.iter().take(12) {
            out.push_str(&format!(
                "  {:<28} block {}  {:>5.1}%  cost {:>12.0}  replays {:>10.0}  trans {:>10.0}\n",
                b.kernel,
                b.block_id,
                b.cost_share * 100.0,
                b.cost,
                b.shared_replays,
                b.global_transactions
            ));
        }
    }
    if let Some(c) = &report.conservation {
        out.push_str(&format!(
            "\nconservation: {} launches, {} counter sums, {} exact, max rel error {:.2e}, \
             {} violations\n",
            c.launches_checked, c.counters_checked, c.exact, c.max_rel_error, c.violations
        ));
    }
    if let Some(entries) = &report.what_if {
        out.push_str("\nwhat-if (model-priced fixes, biggest predicted win first):\n");
        if entries.is_empty() {
            out.push_str("  no applicable fixes\n");
        }
        for e in entries {
            out.push_str(&format!(
                "  {:<16} {}  {:<22} {:>9.4}ms -> {:>9.4}ms  delta {:>+9.4}ms  x{:.2}\n",
                e.application, e.code, e.fix, e.baseline_ms, e.fixed_ms, e.delta_ms, e.speedup
            ));
        }
    }
    if let Some(o) = &report.oracle {
        out.push_str(&format!(
            "\noracle: {} launches, {} counter pairs, max rel error {:.2e}, {} divergent\n",
            o.launches_checked, o.counters_checked, o.max_rel_error, o.divergent_launches
        ));
    }
    out.push_str(&format!(
        "\n{} errors, {} warnings, {} notes\n",
        report.summary.errors, report.summary.warnings, report.summary.info
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fermi() -> GpuConfig {
        GpuConfig::gtx580()
    }

    const QUICK: LintConfig = LintConfig {
        quick: true,
        oracle: false,
        blocks: false,
        what_if: None,
    };

    fn codes(report: &LintReport) -> Vec<&str> {
        report
            .diagnostics
            .iter()
            .map(|a| a.diagnostic.code.as_str())
            .collect()
    }

    #[test]
    fn reduce1_fires_bank_conflict_warning() {
        let report = lint_workload_with(&fermi(), "reduce1", &QUICK).unwrap();
        assert!(
            codes(&report).contains(&diag::BANK_CONFLICT),
            "{:?}",
            codes(&report)
        );
        let k = report
            .kernels
            .iter()
            .find(|k| k.kernel.contains("reduce1"))
            .unwrap();
        assert!(k.max_bank_conflict_degree >= 2);
    }

    #[test]
    fn reduce2_fires_uncoalesced_warning() {
        // reduce2's block-result store writes one lane per block: 12.5%
        // store efficiency against 32B sectors.
        let report = lint_workload_with(&fermi(), "reduce2", &QUICK).unwrap();
        assert!(
            codes(&report).contains(&diag::UNCOALESCED),
            "{:?}",
            codes(&report)
        );
    }

    #[test]
    fn nw_fires_low_occupancy_and_uncoalesced_warnings() {
        let report = lint_workload_with(&fermi(), "nw", &QUICK).unwrap();
        let c = codes(&report);
        assert!(c.contains(&diag::LOW_OCCUPANCY), "{c:?}");
        assert!(c.contains(&diag::UNCOALESCED), "{c:?}");
    }

    #[test]
    fn stencil_sweep_is_free_of_errors() {
        let report = lint_workload_with(&fermi(), "stencil", &QUICK).unwrap();
        assert_eq!(report.summary.errors, 0);
        assert!(report.launches > 0);
    }

    #[test]
    fn unknown_workload_is_rejected() {
        let cfg = LintConfig::default();
        assert!(lint_workload_with(&fermi(), "fft", &cfg).is_none());
        assert!(lint_workload_with(&fermi(), "reduce9", &cfg).is_none());
    }

    #[test]
    fn json_report_has_stable_top_level_schema() {
        let report = lint_workload_with(&fermi(), "reduce6", &QUICK).unwrap();
        let json = report.to_json();
        let v = report.serialize_value();
        for key in [
            "schema_version",
            "gpu",
            "workload",
            "applications",
            "launches",
            "diagnostics",
            "kernels",
            "oracle",
            "summary",
        ] {
            assert!(json.contains(&format!("\"{key}\"")), "missing key {key}");
        }
        assert_eq!(v.field("schema_version").as_u64().unwrap(), 1);
    }

    #[test]
    fn text_rendering_mentions_every_code() {
        let report = lint_workload_with(&fermi(), "nw", &QUICK).unwrap();
        let text = render_text(&report);
        for a in &report.diagnostics {
            assert!(text.contains(&a.diagnostic.code));
        }
    }

    #[test]
    fn blocks_mode_bumps_schema_and_reports_block_table() {
        let cfg = LintConfig {
            quick: true,
            oracle: false,
            blocks: true,
            what_if: None,
        };
        let report = lint_workload_with(&fermi(), "reduce1", &cfg).unwrap();
        assert_eq!(report.schema_version, 2);
        let blocks = report.blocks.as_ref().expect("block table present");
        assert!(!blocks.is_empty());
        // Cost-ranked within each kernel.
        for w in blocks.windows(2) {
            if w[0].kernel == w[1].kernel {
                assert!(w[0].cost >= w[1].cost);
            }
        }
        let c = report.conservation.expect("conservation rollup present");
        assert_eq!(c.violations, 0, "conservation must hold: {c:?}");
        assert!(c.launches_checked > 0);
        assert_eq!(c.exact, c.counters_checked, "all sums should be exact");
        // Block-level warnings carry attributed costs.
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.diagnostic.cost.is_some()));
    }

    #[test]
    fn reduce1_blocks_mode_flags_a_hot_block() {
        let cfg = LintConfig {
            quick: true,
            oracle: false,
            blocks: true,
            what_if: None,
        };
        let report = lint_workload_with(&fermi(), "reduce1", &cfg).unwrap();
        // The conflicted inner-loop block dominates reduce1's cost.
        assert!(
            codes(&report).contains(&diag::HOT_BLOCK),
            "{:?}",
            codes(&report)
        );
    }

    #[test]
    fn deduplication_folds_repeats_and_ordering_is_deterministic() {
        let cfg = LintConfig {
            quick: true,
            oracle: false,
            blocks: true,
            what_if: None,
        };
        let r1 = lint_workload_with(&fermi(), "reduce1", &cfg).unwrap();
        let r2 = lint_workload_with(&fermi(), "reduce1", &cfg).unwrap();
        assert_eq!(r1.to_json(), r2.to_json(), "reports must be diff-stable");
        // The quick sweep has 4 applications; per-launch repeats of the same
        // (code, location) finding must fold into one entry with a count.
        assert!(r1.diagnostics.iter().any(|d| d.occurrences > 1));
        // Sorted by severity desc, then cost desc within a severity.
        let sevs: Vec<_> = r1
            .diagnostics
            .iter()
            .map(|d| d.diagnostic.severity)
            .collect();
        let mut sorted = sevs.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(sevs, sorted);
        for w in r1.diagnostics.windows(2) {
            if w[0].diagnostic.severity == w[1].diagnostic.severity {
                let c0 = w[0].diagnostic.cost.unwrap_or(-1.0);
                let c1 = w[1].diagnostic.cost.unwrap_or(-1.0);
                assert!(c0 >= c1);
            }
        }
    }

    /// A stub model: predicted ms = sum of overridden counter values scaled
    /// down, so lower counters -> lower predicted time.
    struct CounterSumModel;

    impl WhatIfModel for CounterSumModel {
        fn predict_ms(
            &self,
            _chars: &[(String, f64)],
            overrides: &[(String, f64)],
        ) -> Result<f64, String> {
            Ok(overrides
                .iter()
                .filter(|(n, _)| n == "inst_issued")
                .map(|(_, v)| v)
                .sum::<f64>()
                * 1e-6)
        }
    }

    #[test]
    fn what_if_prices_fixes_and_ranks_by_delta() {
        let cfg = LintConfig {
            quick: true,
            oracle: false,
            blocks: true,
            what_if: Some(&CounterSumModel),
        };
        let report = lint_workload_with(&fermi(), "reduce1", &cfg).unwrap();
        assert_eq!(report.schema_version, 2);
        let entries = report.what_if.as_ref().expect("what-if entries present");
        assert!(!entries.is_empty(), "reduce1 has applicable fixes");
        let conflict = entries
            .iter()
            .find(|e| e.fix == "conflict-free-shared")
            .expect("bank-conflict fix priced");
        assert!(
            conflict.delta_ms > 0.0,
            "removing conflicts must lower predicted time: {conflict:?}"
        );
        assert!(conflict.speedup > 1.0);
        for w in entries.windows(2) {
            assert!(w[0].delta_ms >= w[1].delta_ms);
        }
    }

    #[test]
    fn each_layer_is_a_span_under_the_caller() {
        let cfg = LintConfig {
            quick: true,
            oracle: false,
            blocks: true,
            what_if: Some(&CounterSumModel),
        };
        let ((report, root), trace) = bf_trace::capture(|| {
            let span = bf_trace::span!("lint");
            let root = span.id();
            (lint_workload_with(&fermi(), "reduce1", &cfg).unwrap(), root)
        });
        assert!(root.is_some());
        // Counting only children of this test's root keeps spans from
        // concurrently running tests out of the tally.
        let count = |name: &str| {
            trace
                .spans
                .iter()
                .filter(|s| s.name == name && s.parent == root)
                .count()
        };
        for layer in [
            "analyze.sample",
            "analyze.walk",
            "analyze.attr",
            "analyze.diag",
        ] {
            assert_eq!(count(layer), report.launches, "{layer}");
        }
        assert_eq!(count("analyze.whatif"), 1);
    }

    #[test]
    fn v1_report_fixture_round_trips() {
        // A checked-in schema_version-1 report (written before the block /
        // what-if fields existed) must still load: absent keys deserialize
        // as None, and the old launch-level fields keep their meaning.
        let json = include_str!("../tests/fixtures/lint_v1.json");
        let report: LintReport = serde_json::from_str(json).expect("fixture deserializes");
        assert_eq!(report.schema_version, 1);
        assert_eq!(report.workload, "reduce1");
        assert!(report.launches > 0);
        assert!(report.blocks.is_none());
        assert!(report.conservation.is_none());
        assert!(report.what_if.is_none());
        assert!(!report.diagnostics.is_empty());
        assert_eq!(report.diagnostics[0].diagnostic.code, "BF-W001");
        assert!(report.diagnostics[0].diagnostic.cost.is_none());
        // And a report serialized today still carries every v1 field.
        let now = lint_workload_with(&fermi(), "reduce1", &QUICK).unwrap();
        for key in ["diagnostics", "kernels", "summary", "schema_version"] {
            assert!(now.to_json().contains(&format!("\"{key}\"")));
        }
        assert_eq!(now.schema_version, 1);
    }
}
