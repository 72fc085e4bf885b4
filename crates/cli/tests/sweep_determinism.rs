//! Determinism contract of `igo-sim sweep`: the emitted grid — row order,
//! every cell, and the best-technique frontier — must be byte-identical
//! for every worker count (whether capped by the global `--jobs` flag or
//! the `IGO_SIM_THREADS` environment variable), and every rung of an SPM
//! ladder must equal sweeping that rung alone, on one core and on two.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Run `igo-sim sweep bert-tiny --spm <spm>` plus `extra` into its own
/// output directory and return the `(sweep.csv, summary.json)` contents.
fn run_sweep(
    tmp: &Path,
    tag: &str,
    jobs: Option<&str>,
    env_threads: Option<&str>,
    spm: &str,
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
    cmd.args(["sweep", "bert-tiny", "--spm", spm, "--out"])
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

/// The `"best"` frontier entries of a summary (wall time and cache
/// counters legitimately vary run to run; the frontier must not).
fn best_of(summary: &str) -> &str {
    let start = summary
        .find("\"best\":[")
        .expect("summary records a best frontier");
    summary[start + "\"best\":[".len()..]
        .strip_suffix("]}")
        .expect("the frontier closes the summary")
}

/// Check that the ladder sweep `(csv, summary)` over `rungs` equals the
/// single-rung sweeps of each rung, concatenated in ladder order.
fn assert_rungs_match_single_sweeps(
    tmp: &Path,
    tag: &str,
    (csv, summary): &(String, String),
    rungs: &[&str],
    extra: &[&str],
) {
    let (mut want_csv, mut want_best) = (String::new(), Vec::new());
    for rung in rungs {
        let (single_csv, single_summary) =
            run_sweep(tmp, &format!("{tag}-{rung}"), Some("1"), None, rung, extra);
        let (header, rows) = single_csv.split_once('\n').expect("csv header");
        if want_csv.is_empty() {
            want_csv = format!("{header}\n");
        }
        want_csv.push_str(rows);
        want_best.push(best_of(&single_summary).to_owned());
    }
    assert_eq!(
        *csv, want_csv,
        "{tag}: ladder rows differ from single-rung sweeps"
    );
    assert_eq!(
        best_of(summary),
        want_best.join(","),
        "{tag}: frontier differs"
    );
}

#[test]
fn sweep_grid_is_independent_of_worker_count_and_profiling_path() {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("sweep-determinism");
    let _ = std::fs::remove_dir_all(&tmp);

    let serial = run_sweep(&tmp, "jobs1", Some("1"), None, "2,4,8", &[]);
    let pool = run_sweep(&tmp, "env3", None, Some("3"), "2,4,8", &[]);
    assert_eq!(
        serial.0, pool.0,
        "sweep rows changed between --jobs 1 and IGO_SIM_THREADS=3"
    );
    assert_eq!(best_of(&serial.1), best_of(&pool.1));
    assert_rungs_match_single_sweeps(&tmp, "single-core", &pool, &["2", "4", "8"], &[]);

    let dual = ["--config", "serverx2"];
    let ladder = run_sweep(&tmp, "serverx2", None, Some("3"), "12,24", &dual);
    assert_rungs_match_single_sweeps(&tmp, "serverx2", &ladder, &["12", "24"], &dual);

    let _ = std::fs::remove_dir_all(&tmp);
}
