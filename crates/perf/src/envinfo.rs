//! Environment fingerprinting for bench reports.
//!
//! A perf number without its environment is unfalsifiable: the gate
//! compares recordings taken on *different* machines across PRs, and the
//! fingerprint is what lets a reviewer decide whether a flagged delta is
//! a regression or a hardware change. Every probe degrades to "unknown"
//! rather than failing — a recording from a stripped container is still
//! worth keeping.

use crate::schema::EnvFingerprint;
use std::path::Path;
use std::process::Command;

/// Runs `cmd` and returns its trimmed stdout on success.
fn capture(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout).trim().to_owned();
    if text.is_empty() {
        None
    } else {
        Some(text)
    }
}

/// The commit `dir` has checked out, as a 12-digit hash with a `-dirty`
/// suffix when tracked files differ from it, or "unknown" outside a
/// repository. A recording is usually taken before its change is
/// committed, and the bare hash would then name the parent. Tags are
/// excluded so the stamp is always a hash.
pub fn git_commit(dir: &Path) -> String {
    let describe = ["describe", "--always", "--dirty", "--abbrev=12", "--exclude=*"];
    capture(Command::new("git").arg("-C").arg(dir).args(describe))
        .unwrap_or_else(|| "unknown".into())
}

/// The `rustc -V` banner, or "unknown".
pub fn rustc_version() -> String {
    capture(Command::new("rustc").arg("-V")).unwrap_or_else(|| "unknown".into())
}

/// The CPU model name from `/proc/cpuinfo`, or "unknown" off Linux.
pub fn cpu_model() -> String {
    let Ok(info) = std::fs::read_to_string("/proc/cpuinfo") else {
        return "unknown".into();
    };
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

/// Logical cores visible to this process.
pub fn cores() -> u64 {
    std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(1)
}

/// Seconds since the Unix epoch (0 if the clock is before it).
pub fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Collects the full fingerprint for a run at `scale`/`seed`/`profile`.
pub fn fingerprint(scale: f64, seed: u64, profile: &str) -> EnvFingerprint {
    EnvFingerprint {
        commit: git_commit(Path::new(".")),
        rustc: rustc_version(),
        cpu: cpu_model(),
        cores: cores(),
        os: std::env::consts::OS.to_owned(),
        scale,
        seed,
        profile: profile.to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_never_return_empty_strings() {
        assert!(!git_commit(Path::new(".")).is_empty());
        assert!(!rustc_version().is_empty());
        assert!(!cpu_model().is_empty());
        assert!(cores() >= 1);
    }

    #[test]
    fn commit_stamp_marks_uncommitted_changes() {
        let dir = std::env::temp_dir().join(format!("cqa-perf-envinfo-{}", std::process::id()));
        let (repo, outside) = (dir.join("repo"), dir.join("no-repo"));
        std::fs::create_dir_all(&repo).unwrap();
        std::fs::create_dir_all(&outside).unwrap();
        std::fs::write(repo.join("tracked.txt"), "a").unwrap();
        let identity = ["-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"];
        for args in [&["init", "-q"][..], &["add", "."], &["commit", "-qm", "c"], &["tag", "v1"]] {
            let git = Command::new("git").arg("-C").arg(&repo).args(identity).args(args).status();
            assert!(git.unwrap().success(), "git {args:?}");
        }

        let clean = git_commit(&repo);
        assert!(clean.len() == 12 && clean.bytes().all(|b| b.is_ascii_hexdigit()), "{clean}");
        // An untracked file is not a difference from the commit.
        std::fs::write(repo.join("untracked.txt"), "b").unwrap();
        assert_eq!(git_commit(&repo), clean);
        std::fs::write(repo.join("tracked.txt"), "changed").unwrap();
        assert_eq!(git_commit(&repo), format!("{clean}-dirty"));
        assert_eq!(git_commit(&outside), "unknown");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_carries_the_run_parameters() {
        let f = fingerprint(0.25, 42, "ci");
        assert_eq!(f.scale, 0.25);
        assert_eq!(f.seed, 42);
        assert_eq!(f.profile, "ci");
        assert_eq!(f.os, std::env::consts::OS);
    }
}
