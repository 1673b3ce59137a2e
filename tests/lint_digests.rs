//! Pins the bytes of `bf lint` reports: one FNV-1a digest of each report's
//! JSON (`LintReport::to_json`) and one of its terminal rendering
//! (`render_text`), pinned against `tests/golden/lint_digests.txt`.
//!
//! Every lint workload's quick sweep runs on gtx580 and v100 twice: with
//! launch-level diagnostics (`blocks: false`) and with basic-block
//! attribution (`blocks: true`). reduce1 and nw run once more with the
//! differential oracle. Any change to the walk, the attribution, the
//! diagnostics, the oracle or the report encoding that moves a byte fails
//! here. Regenerate after an intended change with
//! `BF_UPDATE_GOLDEN=1 cargo test --test lint_digests`.

use blackforest_suite::analyze::{lint_workload_with, render_text, LintConfig, WORKLOADS};
use blackforest_suite::gpu_sim::GpuConfig;
use std::fmt::Write as _;

mod common;

const GPUS: [&str; 2] = ["gtx580", "v100"];

/// Workloads whose sweeps also run the differential oracle.
const ORACLE: [&str; 2] = ["reduce1", "nw"];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn digest_line(out: &mut String, gpu: &GpuConfig, workload: &str, mode: &str, cfg: &LintConfig) {
    let report = lint_workload_with(gpu, workload, cfg).expect("known lint workload");
    writeln!(
        out,
        "{} {workload} {mode} json={:016x} text={:016x}",
        gpu.name,
        fnv1a(report.to_json().as_bytes()),
        fnv1a(render_text(&report).as_bytes())
    )
    .unwrap();
}

#[test]
fn quick_lint_report_digests_match_golden() {
    let mut actual = String::from(
        "# FNV-1a of the JSON and text lint reports of every workload's quick\n\
         # sweep. Regenerate after an intended change:\n\
         #   BF_UPDATE_GOLDEN=1 cargo test --test lint_digests\n",
    );
    for name in GPUS {
        let gpu = GpuConfig::by_name(name).expect("preset exists");
        for workload in WORKLOADS {
            for (mode, blocks) in [("launch", false), ("blocks", true)] {
                let cfg = LintConfig {
                    quick: true,
                    blocks,
                    ..LintConfig::default()
                };
                digest_line(&mut actual, &gpu, workload, mode, &cfg);
            }
        }
        for workload in ORACLE {
            let cfg = LintConfig {
                quick: true,
                oracle: true,
                ..LintConfig::default()
            };
            digest_line(&mut actual, &gpu, workload, "oracle", &cfg);
        }
    }
    common::check_golden("lint_digests.txt", "lint_digests", &actual);
}
