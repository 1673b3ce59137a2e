//! Ties the disk cache's hand-bumped versions to the goldens that witness
//! what they version.
//!
//! `BF_SIM_CACHE_DIR` keys every stored launch on
//! `gpu_sim::memo::SIM_CONTENT_VERSION` and, for tagged kernels, on
//! `bf_kernels::TRACE_GEN_VERSION`. A simulator change that moves a counter
//! bit shows up in `tests/golden/zoo_presets.txt`; a generator change that
//! moves an address shows up in `tests/golden/trace_digests.txt`. Each
//! version is pinned here next to the FNV-1a of its golden, so regenerating
//! a golden fails this test until its version is bumped, and the failure
//! names the constant to bump and the pin to write.

use blackforest_suite::gpu_sim::memo::SIM_CONTENT_VERSION;
use blackforest_suite::kernels::TRACE_GEN_VERSION;
use std::path::PathBuf;

/// One version constant, its current value, and the pinned
/// `(version, golden digest)` pair.
struct Pin {
    constant: &'static str,
    version: u64,
    golden: &'static str,
    pinned_version: u64,
    pinned_digest: u64,
}

const PINS: [Pin; 2] = [
    Pin {
        constant: "gpu_sim::memo::SIM_CONTENT_VERSION",
        version: SIM_CONTENT_VERSION,
        golden: "zoo_presets.txt",
        pinned_version: 1,
        pinned_digest: 0xf41d_0e6d_f0e2_966e,
    },
    Pin {
        constant: "bf_kernels::TRACE_GEN_VERSION",
        version: TRACE_GEN_VERSION,
        golden: "trace_digests.txt",
        pinned_version: 1,
        pinned_digest: 0xe7f5_9ad0_f08b_67f2,
    },
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn regenerated_goldens_bump_their_versions() {
    for Pin {
        constant,
        version,
        golden,
        pinned_version,
        pinned_digest,
    } in PINS
    {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests")
            .join("golden")
            .join(golden);
        let bytes =
            std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let digest = fnv1a(&bytes);
        assert!(
            digest == pinned_digest || version != pinned_version,
            "tests/golden/{golden} changed (FNV-1a {digest:016x}, pinned {pinned_digest:016x}) \
             while {constant} stayed {version}: bump {constant} so disk-cached results keyed \
             on the old value stop matching, then pin ({}, 0x{digest:016x}) in \
             tests/version_pins.rs",
            version + 1,
        );
        assert!(
            version == pinned_version,
            "{constant} is now {version}: pin ({version}, 0x{digest:016x}) for \
             tests/golden/{golden} in tests/version_pins.rs"
        );
    }
}
