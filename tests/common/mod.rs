//! Shared check for the golden-file tests: compare a rendered snapshot with
//! its file under `tests/golden/`, or rewrite the file when
//! `BF_UPDATE_GOLDEN` is set.

use std::path::PathBuf;

/// First differing line between expected and actual, rendered for humans.
fn first_diff(expected: &str, actual: &str) -> String {
    let mut exp = expected.lines();
    let mut act = actual.lines();
    let mut line_no = 1usize;
    loop {
        match (exp.next(), act.next()) {
            (Some(e), Some(a)) if e == a => line_no += 1,
            (Some(e), Some(a)) => {
                return format!("line {line_no}:\n  expected: {e}\n  actual:   {a}")
            }
            (Some(e), None) => return format!("line {line_no}: actual ends, expected: {e}"),
            (None, Some(a)) => return format!("line {line_no}: expected ends, actual: {a}"),
            (None, None) => return "no textual difference (check trailing whitespace)".into(),
        }
    }
}

/// Asserts that `actual` equals `tests/golden/<file>`. With
/// `BF_UPDATE_GOLDEN` set, writes `actual` to that file instead; `test` is
/// the integration-test target named in the regeneration hint.
pub fn check_golden(file: &str, test: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(file);
    if std::env::var_os("BF_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("golden file regenerated: {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {} ({e}); run with BF_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "snapshot drifted from {}.\nFirst difference at {}\n\n\
         If the change is intentional, regenerate with:\n    \
         BF_UPDATE_GOLDEN=1 cargo test --test {test}\n\n\
         full actual output:\n{actual}",
        path.display(),
        first_diff(&expected, actual),
    );
}
