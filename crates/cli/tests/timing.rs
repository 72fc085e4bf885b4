//! The global `--timing` flag appends one JSON line to stderr that counts
//! the work the command did: engine and analytic runs and memo lookups,
//! and no layer-pass figure (the simulator keeps no such counter).

use std::process::Command;

/// The unsigned integer value of `key` in a flat single-line JSON object.
fn field(json: &str, key: &str) -> Option<u64> {
    let at = json.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[test]
fn timing_line_counts_analytic_runs_and_no_layers() {
    let output = Command::new(env!("CARGO_BIN_EXE_igo-sim"))
        .args(["--jobs", "1", "--timing", "ladder", "res", "edge"])
        .output()
        .expect("spawn igo-sim");
    assert!(output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    let json = stderr.lines().last().expect("a timing line");
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    assert!(json.contains("\"label\":\"ladder res edge\""), "{json}");
    assert!(!json.contains("\"layers"), "no layer-pass counter: {json}");
    let analytic = field(json, "analytic_runs").expect("analytic_runs");
    assert!(analytic > 0, "the ladder's work is analytic: {json}");
    let lookups = field(json, "cache_hits").unwrap() + field(json, "cache_misses").unwrap();
    assert!(lookups > 0, "{json}");
    assert_eq!(field(json, "engine_runs"), Some(0), "{json}");
}
