//! Determinism contract of `igo-sim sweep`: the emitted grid — row order,
//! every cell, and the best-technique frontier — must be byte-identical
//! for every worker count (whether capped by the global `--jobs` flag or
//! the `IGO_SIM_THREADS` environment variable) and on both execution
//! paths (the default SPM-ladder path and the `--per-point` per-grid-point
//! path).

use std::path::{Path, PathBuf};
use std::process::Command;

/// Run one sweep invocation into its own output directory and return the
/// `(sweep.csv, summary.json)` contents.
fn run_sweep(
    tmp: &Path,
    tag: &str,
    jobs: Option<&str>,
    env_threads: Option<&str>,
    extra: &[&str],
) -> (String, String) {
    let out = tmp.join(tag);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_igo-sim"));
    if let Some(n) = jobs {
        cmd.args(["--jobs", n]);
    }
    if let Some(n) = env_threads {
        cmd.env("IGO_SIM_THREADS", n);
    }
    cmd.args(["sweep", "bert-tiny", "--spm", "2,4,8", "--out"])
        .arg(&out)
        .args(extra);
    let output = cmd.output().expect("spawn igo-sim");
    assert!(
        output.status.success(),
        "sweep {tag} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    (
        std::fs::read_to_string(out.join("sweep.csv")).expect("sweep.csv"),
        std::fs::read_to_string(out.join("summary.json")).expect("summary.json"),
    )
}

/// The `"best"` frontier portion of a summary (wall time and cache
/// counters legitimately vary run to run; the frontier must not).
fn best_of(summary: &str) -> &str {
    let start = summary
        .find("\"best\":")
        .expect("summary records a best frontier");
    &summary[start..]
}

#[test]
fn sweep_grid_is_independent_of_worker_count_and_profiling_path() {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("sweep-determinism");
    let _ = std::fs::remove_dir_all(&tmp);

    let (csv_serial, sum_serial) = run_sweep(&tmp, "jobs1", Some("1"), None, &[]);
    let (csv_pool, sum_pool) = run_sweep(&tmp, "env3", None, Some("3"), &[]);
    assert_eq!(
        csv_serial, csv_pool,
        "sweep rows changed between --jobs 1 and IGO_SIM_THREADS=3"
    );
    assert_eq!(best_of(&sum_serial), best_of(&sum_pool));

    let (csv_flat, sum_flat) = run_sweep(&tmp, "per-point", Some("3"), None, &["--per-point"]);
    assert_eq!(
        csv_pool, csv_flat,
        "ladder sweep diverged from the per-grid-point path"
    );
    assert_eq!(best_of(&sum_pool), best_of(&sum_flat));

    let _ = std::fs::remove_dir_all(&tmp);
}
