//! Golden snapshots for the GPU zoo: every preset's machine-characteristic
//! table (the paper's Table 2 rows) and, for one representative of each
//! architecture generation, the full profiled counter vector of a quick
//! reduce1 run — pinned down to the f64 bit pattern against
//! `tests/golden/zoo_presets.txt`.
//!
//! This is the tripwire for two different kinds of drift:
//!
//! * a preset's geometry silently changing (the metric tables), and
//! * the *counter surface* of an architecture changing — a counter
//!   appearing, vanishing, or moving value on any of the three
//!   global-memory paths (the per-generation reduce1 vectors).
//!
//! To accept intentional changes, regenerate with:
//!
//! ```text
//! BF_UPDATE_GOLDEN=1 cargo test --test golden_zoo
//! ```

use blackforest_suite::gpu_sim::{profile_kernel, GpuConfig};
use blackforest_suite::kernels::reduce::{reduce_application, ReduceVariant};
use std::fmt::Write as _;

mod common;

/// Renders one preset's machine-metric table, one `name = value` row per
/// metric in catalog order, with exact bits for the float-valued rows.
fn metrics_section(gpu: &GpuConfig) -> String {
    let mut out = String::new();
    writeln!(out, "== preset: {} ({}) ==", gpu.name, gpu.arch.name()).unwrap();
    for m in gpu.machine_metrics() {
        writeln!(
            out,
            "{} = {:.6e} (bits {:016x})  # {}",
            m.name,
            m.value,
            m.value.to_bits(),
            m.meaning
        )
        .unwrap();
    }
    out
}

/// Renders the full profiled counter vector of a quick reduce1 launch on
/// one GPU — every counter the architecture exposes, in schema order.
fn reduce1_section(gpu: &GpuConfig) -> String {
    let app = reduce_application(ReduceVariant::Reduce1, 1 << 14, 256);
    let run = profile_kernel(gpu, app.launches[0].as_ref())
        .unwrap_or_else(|e| panic!("profile reduce1 on {}: {e}", gpu.name));
    let mut out = String::new();
    writeln!(
        out,
        "== reduce1 counters: {} ({}) ==",
        gpu.name,
        gpu.arch.name()
    )
    .unwrap();
    writeln!(
        out,
        "time_ms = {:.9e} (bits {:016x})",
        run.time_ms,
        run.time_ms.to_bits()
    )
    .unwrap();
    for name in run.counters.names() {
        let v = run.counters.get(name).unwrap();
        writeln!(out, "{name} = {v:.9e} (bits {:016x})", v.to_bits()).unwrap();
    }
    out
}

#[test]
fn zoo_presets_and_per_arch_counter_vectors_match_golden() {
    let mut actual = String::from(
        "# Golden GPU-zoo snapshot: machine metrics for every preset, plus the\n\
         # reduce1 (n=16384, 256 threads) counter vector for one representative\n\
         # of each architecture generation.\n\
         # Regenerate with: BF_UPDATE_GOLDEN=1 cargo test --test golden_zoo\n",
    );
    for gpu in GpuConfig::presets() {
        actual.push_str(&metrics_section(&gpu));
    }
    for gpu in GpuConfig::arch_representatives() {
        actual.push_str(&reduce1_section(&gpu));
    }

    common::check_golden("zoo_presets.txt", "golden_zoo", &actual);
}
