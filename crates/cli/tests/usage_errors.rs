//! Bad `igo-sim sweep` input must fail as a usage error (exit code 2)
//! before any simulation runs or any output is written.

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
