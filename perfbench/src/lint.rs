//! `lint-zoo`: one op lints every `bf_analyze::WORKLOADS` entry with full
//! sweeps and block attribution on gtx580 and v100, pricing what-if fixes
//! for reduce1 and stencil through quick bundles trained in set-up.

use crate::common::{self, Layers, Outcome};
use bf_analyze::{LintConfig, LintReport, Severity, WhatIfModel, WORKLOADS};
use bf_registry::ModelBundle;
use blackforest::{BlackForest, CollectOptions, ModelConfig, Workload};
use gpu_sim::GpuConfig;
use std::time::Instant;

pub const CHECKS: &[&str] = &["report_digest", "exact_counts"];
pub const TRACED_CHECKS: &[&str] = &["traced_counts"];

const GPUS: [&str; 2] = ["gtx580", "v100"];

/// Workloads whose lint runs what-if pricing, with the CLI's quick sweep of
/// the primary size for their bundles.
const WHAT_IF: [&str; 2] = ["reduce1", "stencil"];

/// Expected launches and diagnostics (before folding) of one op.
const LAUNCHES: usize = 1552;
const DIAGNOSTICS: usize = 7972;

/// FNV-1a of each `(gpu, workload)` JSON report, in `GPUS` × `WORKLOADS`
/// order. Lint reads no seeded input, so these hold for every seed.
const DIGESTS: [u64; 20] = [
    // gtx580
    0x35ff_aba6_c128_8ab2,
    0xa898_23d7_13ea_cc7e,
    0x7b27_2161_bd97_c2fc,
    0x7c40_25a2_69cc_9a0c,
    0xea79_65c5_adbe_2542,
    0x8acd_c7b2_00b3_7bfb,
    0xc1a0_d14b_b5d9_2b27,
    0x5979_4900_e86e_cf7b,
    0xef4e_bde5_4034_4a98,
    0xc916_472d_1a87_11c2,
    // v100
    0x3bd8_7b7f_a8dd_fc6a,
    0xb8d7_df74_13f1_3de5,
    0x7c6a_6a72_827e_6285,
    0x89cd_a594_57f5_f0b7,
    0xca9d_bdbb_924e_c270,
    0xa1c9_763a_32a9_8089,
    0x740d_0e59_1cf2_aeea,
    0x50e8_7ec6_28a1_3335,
    0xfbab_803e_2e7e_27a3,
    0x0ed8_27b8_38b1_02da,
];

struct Setup {
    gpus: Vec<GpuConfig>,
    /// Bundle per (gpu index, what-if workload index).
    bundles: Vec<Vec<ModelBundle>>,
}

fn quick_sizes(workload: &str) -> Vec<usize> {
    match workload {
        "reduce1" => (14..=18).map(|e| 1usize << e).collect(),
        _ => (2..=16).step_by(2).map(|k| k * 16).collect(),
    }
}

/// The CLI's `train --quick` for one what-if workload on one GPU.
fn quick_bundle(gpu: &GpuConfig, workload: &str, seed: u64) -> ModelBundle {
    let w = Workload::from_name(workload).expect("known workload");
    let sizes = quick_sizes(workload);
    let mut bf = BlackForest::new(gpu.clone()).with_config(ModelConfig::quick(2016));
    bf.collect = CollectOptions::default();
    bf.collect.noise_seed = seed;
    let report = bf.analyze(w, &sizes).expect("quick train succeeds");
    let mut bundle = ModelBundle::from_report(&report, gpu, &sizes, true);
    bundle.sweep.created_unix = 0;
    bundle
}

impl Setup {
    fn new(seed: u64) -> Setup {
        let gpus: Vec<GpuConfig> = GPUS
            .iter()
            .map(|n| GpuConfig::by_name(n).expect("preset exists"))
            .collect();
        let bundles = gpus
            .iter()
            .map(|g| WHAT_IF.iter().map(|w| quick_bundle(g, w, seed)).collect())
            .collect();
        Setup { gpus, bundles }
    }

    fn model(&self, gpu: usize, workload: &str) -> Option<&ModelBundle> {
        let i = WHAT_IF.iter().position(|w| *w == workload)?;
        Some(&self.bundles[gpu][i])
    }

    fn config(&self, gpu: usize, workload: &str) -> LintConfig<'_> {
        LintConfig {
            quick: false,
            oracle: false,
            blocks: true,
            what_if: self.model(gpu, workload).map(|b| b as &dyn WhatIfModel),
        }
    }
}

/// One untraced op: every report, as JSON.
fn lint_op(setup: &Setup) -> Vec<(LintReport, String)> {
    let mut out = Vec::with_capacity(GPUS.len() * WORKLOADS.len());
    for (g, gpu) in setup.gpus.iter().enumerate() {
        for w in WORKLOADS {
            let report = bf_analyze::lint_workload_with(gpu, w, &setup.config(g, w))
                .expect("known lint workload");
            let json = report.to_json();
            out.push((report, json));
        }
    }
    out
}

/// Findings by severity `[info, warnings, errors]`, what-if rows and
/// launches that one report's public calls produced.
#[derive(Debug, PartialEq)]
struct Tally {
    severities: [usize; 3],
    what_if: usize,
    launches: usize,
}

impl Tally {
    fn of(report: &LintReport) -> Tally {
        let s = report.summary;
        Tally {
            severities: [s.info, s.warnings, s.errors],
            what_if: report.what_if.as_ref().map_or(0, |w| w.len()),
            launches: report.launches,
        }
    }
}

fn severity_index(s: Severity) -> usize {
    match s {
        Severity::Info => 0,
        Severity::Warning => 1,
        Severity::Error => 2,
    }
}

/// One traced op: the calls `lint_workload_with` makes per report, made
/// one by one and timed from here. The reports it folds these into are
/// private to `bf_analyze::lint`, so `lint.report_ms` times `to_json` on the
/// untraced op's report for the same (gpu, workload).
fn traced_op(
    setup: &Setup,
    reports: &[(LintReport, String)],
    layers: &mut Layers,
) -> (Vec<Tally>, f64) {
    let (mut sweep, mut walk, mut attr, mut diag, mut whatif, mut report_ms) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    let mut tallies = Vec::with_capacity(reports.len());
    let start = Instant::now();
    let mut k = 0;
    for (g, gpu) in setup.gpus.iter().enumerate() {
        for w in WORKLOADS {
            let t = Instant::now();
            let (apps, chars) =
                bf_analyze::workload_sweep_with_chars(w, false).expect("known lint workload");
            sweep += common::ms(t.elapsed());
            let mut tally = Tally {
                severities: [0; 3],
                what_if: 0,
                launches: 0,
            };
            for app in &apps {
                for (i, kernel) in app.launches.iter().enumerate() {
                    tally.launches += 1;
                    let t = Instant::now();
                    let a =
                        bf_analyze::analyze_launch(gpu, kernel.as_ref()).expect("launch analyzes");
                    let t_walk = Instant::now();
                    let battr = bf_analyze::attribute_launch(gpu, kernel.as_ref())
                        .expect("launch attributes");
                    let checks = bf_analyze::check_conservation(&battr, &a);
                    let t_attr = Instant::now();
                    let found = bf_analyze::diagnose_blocks(gpu, &a, &battr, i);
                    let t_diag = Instant::now();
                    walk += common::ms(t_walk - t);
                    attr += common::ms(t_attr - t_walk);
                    diag += common::ms(t_diag - t_attr);
                    // A conservation violation is one more error finding.
                    tally.severities[2] += usize::from(checks.iter().any(|c| !c.ok));
                    for d in &found {
                        tally.severities[severity_index(d.severity)] += 1;
                    }
                }
            }
            if let Some(model) = setup.model(g, w) {
                let t = Instant::now();
                for (app, app_chars) in apps.iter().zip(&chars) {
                    let scenarios =
                        bf_analyze::whatif_scenarios(gpu, app).expect("what-if scenarios build");
                    for s in scenarios {
                        let base = model.predict_ms_with(app_chars, &s.baseline);
                        let fixed = model.predict_ms_with(app_chars, &s.fixed);
                        std::hint::black_box((base.expect("priced"), fixed.expect("priced")));
                        tally.what_if += 1;
                    }
                }
                whatif += common::ms(t.elapsed());
            }
            let t = Instant::now();
            std::hint::black_box(reports[k].0.to_json());
            report_ms += common::ms(t.elapsed());
            tallies.push(tally);
            k += 1;
        }
    }
    let op = common::ms(start.elapsed());
    for (name, v) in [
        ("kernels.sweep_ms", sweep),
        ("analyze.walk_ms", walk),
        ("analyze.attr_ms", attr),
        ("analyze.diag_ms", diag),
        ("analyze.whatif_ms", whatif),
        ("lint.report_ms", report_ms),
    ] {
        layers.add(name, v);
    }
    (tallies, op)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut o = Outcome::with_checks(CHECKS, trace.then_some(TRACED_CHECKS));
    let (setup, setups) = common::repeated_setup(&mut o.host, || {
        let setup = Setup::new(seed);
        std::hint::black_box(lint_op(&setup));
        setup
    });

    let mut op_ms = Vec::new();
    let mut scaled_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut layers = Layers::default();
    let start = Instant::now();
    while common::keep_going(start, seconds, op_ms.len()) {
        let t = Instant::now();
        let reports = std::hint::black_box(lint_op(&setup));
        let ms = common::ms(t.elapsed());
        op_ms.push(ms);
        scaled_ms.push(ms * o.host.probe_after(ms));

        let digests: Vec<u64> = reports
            .iter()
            .map(|(_, j)| common::digest(j.as_bytes()))
            .collect();
        let mut ok = o.verify("report_digest", digests == DIGESTS, || {
            let bad: Vec<String> = digests
                .iter()
                .zip(DIGESTS)
                .enumerate()
                .filter(|(_, (d, e))| **d != *e)
                .map(|(i, (d, _))| {
                    format!(
                        "{}/{}: {d:016x}",
                        GPUS[i / WORKLOADS.len()],
                        WORKLOADS[i % WORKLOADS.len()]
                    )
                })
                .collect();
            format!(
                "reports differ from the recorded digests: {}",
                bad.join(", ")
            )
        });
        let launches: usize = reports.iter().map(|(r, _)| r.launches).sum();
        let diagnostics: usize = reports.iter().map(|(r, _)| diagnostics_of(r)).sum();
        ok &= o.verify("exact_counts", (launches, diagnostics) == (LAUNCHES, DIAGNOSTICS), || {
            format!(
                "(launches, diagnostics) = ({launches}, {diagnostics}), expected ({LAUNCHES}, {DIAGNOSTICS})"
            )
        });

        if trace {
            let (tallies, ms) = traced_op(&setup, &reports, &mut layers);
            traced_ms.push(ms);
            let want: Vec<Tally> = reports.iter().map(|(r, _)| Tally::of(r)).collect();
            ok &= o.verify("traced_counts", tallies == want, || {
                format!("traced calls found {tallies:?}, the reports hold {want:?}")
            });
            layers.add("analyze.launches", launches as f64);
            layers.add("lint.diagnostics", diagnostics as f64);
        }
        o.op(ok);
    }

    if !trace {
        let items_per_s = LAUNCHES as f64 / (common::median(&scaled_ms) / 1e3);
        o.end_to_end(&setups, &op_ms, &scaled_ms, items_per_s);
        return o;
    }
    common::traced_summary(
        &mut o,
        &layers,
        &[
            ("kernels.sweep_ms", "ms", 1.0),
            ("analyze.walk_ms", "ms", 1.0),
            ("analyze.attr_ms", "ms", 1.0),
            ("analyze.diag_ms", "ms", 1.0),
            ("analyze.whatif_ms", "ms", 1.0),
            ("lint.report_ms", "ms", 1.0),
        ],
        // The traced calls leave out the report's private fold (per-block
        // aggregation, kernel summaries, roofline, de-duplication and
        // sorting), so the layers partition the untraced op and the fold
        // shows up as unattributed.
        common::median(&op_ms),
        common::median(&traced_ms),
        &traced_ms,
        &op_ms,
    );
    o.metric(
        "analyze.launches",
        layers.median("analyze.launches"),
        "count",
    );
    o.metric(
        "lint.diagnostics",
        layers.median("lint.diagnostics"),
        "count",
    );
    o
}

/// Findings of one report before duplicates fold.
fn diagnostics_of(r: &LintReport) -> usize {
    r.summary.info + r.summary.warnings + r.summary.errors
}
