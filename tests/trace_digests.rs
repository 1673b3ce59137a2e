//! Golden digests of the generated traces: for every `bf lint` workload's
//! quick sweep on every GPU preset, one [`Bf128Hasher`] digest over the
//! sampled blocks of all its launches (launch geometry, sampled block ids
//! and every `BlockTrace`), pinned against `tests/golden/trace_digests.txt`.
//!
//! The memo keys tagged kernels on `content_tag`, which folds in
//! `bf_kernels::TRACE_GEN_VERSION` instead of the traces themselves, and
//! the disk cache keeps those keys across runs. A generator change that
//! moves any address, mask or instruction without bumping the version
//! would silently serve stale results. So this test fails on any content
//! change, and regeneration refuses to overwrite digests recorded under the
//! current version:
//!
//! ```text
//! # after bumping TRACE_GEN_VERSION
//! BF_UPDATE_GOLDEN=1 cargo test --test trace_digests
//! ```

use blackforest_suite::analyze::{workload_sweep_with_chars, WORKLOADS};
use blackforest_suite::gpu_sim::{Bf128Hasher, GpuConfig, SampledLaunch};
use blackforest_suite::kernels::TRACE_GEN_VERSION;
use std::fmt::Write as _;
use std::hash::Hash;
use std::path::PathBuf;

mod common;

const GOLDEN: &str = "trace_digests.txt";

/// One line per (preset, workload): launch and block counts plus the digest
/// of the geometry, block ids and traces of every [`SampledLaunch`] of the
/// sweep.
fn digest_line(gpu: &GpuConfig, workload: &str) -> String {
    let (apps, _) = workload_sweep_with_chars(workload, true).expect("known workload");
    let mut h = Bf128Hasher::new();
    let (mut launches, mut blocks) = (0usize, 0usize);
    for app in &apps {
        for kernel in &app.launches {
            let s = SampledLaunch::new(gpu, kernel.as_ref())
                .unwrap_or_else(|e| panic!("sample {workload} on {}: {e}", gpu.name));
            s.launch().hash(&mut h);
            s.ids().hash(&mut h);
            s.traces().hash(&mut h);
            launches += 1;
            blocks += s.ids().len();
        }
    }
    format!(
        "{} {workload} launches={launches} blocks={blocks} digest={:032x}\n",
        gpu.name,
        h.finish128()
    )
}

fn render() -> String {
    let mut out = String::from(
        "# Digests of the sampled block traces of every lint workload's quick\n\
         # sweep on every GPU preset. Regenerate only after bumping\n\
         # bf_kernels::TRACE_GEN_VERSION:\n\
         #   BF_UPDATE_GOLDEN=1 cargo test --test trace_digests\n",
    );
    writeln!(out, "trace_gen_version = {TRACE_GEN_VERSION}").unwrap();
    for gpu in GpuConfig::presets() {
        for workload in WORKLOADS {
            out.push_str(&digest_line(&gpu, workload));
        }
    }
    out
}

/// The `trace_gen_version` a digest file was recorded under.
fn recorded_version(golden: &str) -> Option<u64> {
    golden
        .lines()
        .find_map(|l| l.strip_prefix("trace_gen_version = "))
        .and_then(|v| v.trim().parse().ok())
}

#[test]
fn sampled_trace_digests_match_golden() {
    let actual = render();
    if std::env::var_os("BF_UPDATE_GOLDEN").is_some() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests")
            .join("golden")
            .join(GOLDEN);
        if let Ok(old) = std::fs::read_to_string(&path) {
            assert!(
                old == actual || recorded_version(&old) != Some(TRACE_GEN_VERSION),
                "trace content changed under TRACE_GEN_VERSION = {TRACE_GEN_VERSION}: \
                 bump bf_kernels::TRACE_GEN_VERSION so memoized and disk-cached \
                 results keyed on the old content tags stop matching, then regenerate"
            );
        }
    }
    common::check_golden(GOLDEN, "trace_digests", &actual);
}

#[test]
fn recorded_version_reads_the_header() {
    assert_eq!(
        recorded_version("# x\ntrace_gen_version = 7\nv100 nw"),
        Some(7)
    );
    assert_eq!(recorded_version("# no header\n"), None);
}
