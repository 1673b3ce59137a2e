//! Pins the bytes of the quick bundles `blackforest train` writes: one
//! FNV-1a digest of each bundle's JSON, with its one wall-clock field
//! (`created_unix`) zeroed, per workload and GPU. Any change to the forest,
//! the counter models or the bundle encoding that moves a byte fails here.
//!
//! `ModelBundle::content_id` is not used: it hashes with `DefaultHasher`,
//! whose output may change between Rust releases.
//!
//! Regenerate after an intended change with
//! `BF_UPDATE_GOLDEN=1 cargo test -p bf-cli --test bundle_digests`.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["reduce1", "matmul", "stencil", "nw"];
const GPUS: [&str; 2] = ["gtx580", "v100"];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `json` with the digits after `"created_unix":` replaced by `0`.
fn unstamped(json: &str) -> String {
    const KEY: &str = "\"created_unix\":";
    let at = json.find(KEY).expect("bundle has created_unix") + KEY.len();
    let digits = json[at..].bytes().take_while(u8::is_ascii_digit).count();
    format!("{}0{}", &json[..at], &json[at + digits..])
}

fn bundle_json(dir: &std::path::Path, workload: &str, gpu: &str) -> String {
    let path = dir.join(format!("{workload}_{gpu}.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_blackforest"))
        .args([
            "train",
            "--quick",
            "--workload",
            workload,
            "--gpu",
            gpu,
            "--save",
        ])
        .arg(&path)
        .output()
        .unwrap();
    assert!(out.status.success(), "train {workload} on {gpu}: {out:?}");
    std::fs::read_to_string(&path).unwrap()
}

#[test]
fn quick_bundle_digests_match_golden() {
    let dir = std::env::temp_dir().join(format!("bf_bundle_digests_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut actual = String::new();
    for gpu in GPUS {
        for workload in WORKLOADS {
            let json = unstamped(&bundle_json(&dir, workload, gpu));
            writeln!(actual, "{workload} {gpu} {:016x}", fnv1a(json.as_bytes())).unwrap();
        }
    }
    std::fs::remove_dir_all(&dir).ok();

    let golden =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/bundle_digests.txt");
    if std::env::var_os("BF_UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&golden).unwrap();
    assert_eq!(
        expected, actual,
        "quick bundle bytes moved; if intended, regenerate with \
         BF_UPDATE_GOLDEN=1 cargo test -p bf-cli --test bundle_digests"
    );
}
