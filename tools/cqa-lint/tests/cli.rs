//! End-to-end tests of the `cqa-lint` binary itself: the exit-code
//! contract (0 clean, 1 findings, 2 usage or I/O error), a clear
//! diagnostic on stderr for a broken workspace — never a panic — and
//! best-effort linting of a garbled-but-readable source file.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh scratch workspace: one demo crate.
fn scratch_workspace(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("cqa-lint-cli-{}-{name}", std::process::id()));
    if root.exists() {
        std::fs::remove_dir_all(&root).unwrap();
    }
    std::fs::create_dir_all(root.join("crates/demo/src")).unwrap();
    std::fs::write(root.join("crates/demo/src/lib.rs"), "pub fn work() {}\n").unwrap();
    root
}

fn run_check(root: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cqa-lint"))
        .args(["check", "--root"])
        .arg(root)
        .output()
        .expect("spawn cqa-lint")
}

#[test]
fn scratch_workspace_lints_clean() {
    // Baseline: the harness itself is valid, so the failures below are
    // attributable to the breakage each test introduces.
    let root = scratch_workspace("clean");
    let out = run_check(&root);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert!(stdout.contains("workspace clean"), "{stdout}");
}

#[test]
fn unreadable_source_file_is_a_diagnostic_not_a_panic() {
    let root = scratch_workspace("unreadable");
    // Invalid UTF-8 makes read_to_string fail the same way a permission
    // error would, portably.
    std::fs::write(root.join("crates/demo/src/garbage.rs"), [0xff, 0xfe, 0x66, 0x6e]).unwrap();
    let out = run_check(&root);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("cannot read"), "{stderr}");
    assert!(stderr.contains("garbage.rs"), "diagnostic must name the file: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn unparseable_source_is_linted_best_effort_not_a_crash() {
    let root = scratch_workspace("unparseable");
    std::fs::write(
        root.join("crates/demo/src/soup.rs"),
        "fn unclosed( { ] } ) -> ,, where impl { \"str\n",
    )
    .unwrap();
    let out = run_check(&root);
    let stderr = String::from_utf8_lossy(&out.stderr);
    // Garbled-but-readable sources lint best-effort: the run completes
    // with a verdict (clean or findings), never a parser crash.
    assert!(
        matches!(out.status.code(), Some(0) | Some(1)),
        "expected a lint verdict, got {:?}; stderr: {stderr}",
        out.status.code()
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn findings_exit_1_and_are_written_to_out() {
    let root = scratch_workspace("dirty");
    // A second lock taken under a held guard is a deterministic single
    // finding, at the second acquisition.
    std::fs::write(
        root.join("crates/demo/src/dirty.rs"),
        "pub fn f() {\n    let g = A.lock();\n    B.lock();\n}\n",
    )
    .unwrap();
    let findings_path = root.join("lint-findings.txt");
    let out = Command::new(env!("CARGO_BIN_EXE_cqa-lint"))
        .args(["check", "--root"])
        .arg(&root)
        .arg("--out")
        .arg(&findings_path)
        .output()
        .expect("spawn cqa-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    assert!(stdout.contains("1 finding(s)"), "{stdout}");
    let written = std::fs::read_to_string(&findings_path).unwrap();
    assert_eq!(written.lines().count(), 1, "{written}");
    assert!(written.contains("crates/demo/src/dirty.rs:3: [no-wait-under-guard]"), "{written}");
}

#[test]
fn unknown_argument_is_a_usage_error() {
    let root = scratch_workspace("bad-arg");
    let out = Command::new(env!("CARGO_BIN_EXE_cqa-lint"))
        .args(["check", "--root"])
        .arg(&root)
        .args(["--format", "sarif"])
        .output()
        .expect("spawn cqa-lint");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument \"--format\""));
}
