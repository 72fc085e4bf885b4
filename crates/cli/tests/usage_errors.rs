//! Bad `igo-sim` input, including layer shapes too large to simulate, must
//! fail as a usage error (exit code 2) before any simulation runs or any
//! output is written.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn sweep_spm_overflowing_bytes_is_a_usage_error() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("spm-overflow");
    let _ = std::fs::remove_dir_all(&out);
    // 99999999999999 MiB is about 2^66.4 bytes: `mib << 20` would wrap.
    for spm in ["99999999999999", "3,99999999999999"] {
        let output = Command::new(env!("CARGO_BIN_EXE_igo-sim"))
            .args(["sweep", "bert-tiny", "--spm", spm, "--out"])
            .arg(&out)
            .output()
            .expect("spawn igo-sim");
        assert_eq!(output.status.code(), Some(2), "--spm {spm}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("--spm values must be at most"), "{stderr}");
        assert!(stderr.contains("usage:"), "{stderr}");
        assert!(!out.exists(), "a rejected sweep writes nothing");
    }
}

/// Every malformed argument the parsers reject must end the run with the
/// usage text and exit code 2, writing nothing.
#[test]
fn rejected_arguments_exit_2_with_usage() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("rejected-args");
    let _ = std::fs::remove_dir_all(&out);
    let out_arg = out.to_str().expect("utf-8 temp dir");
    let cases: &[&[&str]] = &[
        &["sweep", "bert-tiny", "--spm", "3,0", "--out", out_arg],
        &["sweep", "bert-tiny", "--spm", "3,,6", "--out", out_arg],
        &["sweep", "bert-tiny", "--spm", "-4", "--out", out_arg],
        &[
            "sweep",
            "bert-tiny",
            "--spm",
            "3",
            "--techniques",
            "magic",
            "--out",
            out_arg,
        ],
        &[
            "sweep",
            "bert-tiny",
            "--spm",
            "3",
            "--config",
            "serverx9",
            "--out",
            out_arg,
        ],
        &["sweep", "nosuch", "--spm", "3", "--out", out_arg],
        &["sweep", "--out", out_arg],
        &[
            "sweep",
            "bert-tiny",
            "--spm",
            "3",
            "--per-point",
            "--out",
            out_arg,
        ],
        &["trace", "0x4x4", "server", "--out", out_arg],
        &["trace", "res", "serverx0", "--out", out_arg],
        &[
            "trace",
            "res",
            "server",
            "--technique",
            "magic",
            "--out",
            out_arg,
        ],
        &["layer", "1", "2", "0", "server"],
        // About 1.9e10 accesses on 1457^3 tile ops: beyond the u32 stream
        // positions, rejected before any emission.
        &["layer", "65536", "65536", "65536", "edge"],
        &["trace", "65536x65536x65536", "edge", "--out", out_arg],
        // Inside the u32 spaces but beyond the per-stream position budget:
        // about 5.7e8 positions in one stream, and 1e8 per core.
        &["layer", "1", "1", "4294967297", "edge"],
        &["trace", "65536x65536x65536", "serverx8", "--out", out_arg],
        // Axes beyond the u32 tile coordinates, and tile-op counts beyond
        // u64 arithmetic, are rejected the same way.
        &["layer", "18446744073709551615", "1", "1", "edge"],
        &[
            "trace",
            "4294967296x4294967296x4294967296",
            "serverx8",
            "--out",
            out_arg,
        ],
        &["ladder", "nosuch", "edge"],
        &["audit", "--seeds", "0"],
    ];
    for args in cases {
        let output = Command::new(env!("CARGO_BIN_EXE_igo-sim"))
            .args(*args)
            .output()
            .expect("spawn igo-sim");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!out.exists(), "{args:?}: a rejected run writes nothing");
    }
}
