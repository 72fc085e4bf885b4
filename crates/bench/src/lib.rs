//! Shared utilities for the experiment harnesses.
//!
//! Every table and figure of the paper's evaluation has a dedicated bench
//! target under `benches/` (all with `harness = false`, so `cargo bench`
//! runs them and prints the same rows/series the paper reports).
//! `EXPERIMENTS.md` at the repository root records paper-vs-measured for
//! each.

use igo_core::{simulate_model, ModelReport, Technique};
use igo_npu_sim::NpuConfig;
use igo_workloads::Model;

/// Print a header naming the experiment and the paper reference.
pub fn header(id: &str, paper: &str) {
    println!("================================================================");
    println!("{id}");
    println!("paper reference: {paper}");
    println!("================================================================");
}

/// Simulate the whole technique ladder for one model; returns
/// `(baseline, [interleaving, rearrangement, partitioning])`.
pub fn ladder(model: &Model, config: &NpuConfig) -> (ModelReport, [ModelReport; 3]) {
    let base = simulate_model(model, config, Technique::Baseline);
    let rest = [
        simulate_model(model, config, Technique::Interleaving),
        simulate_model(model, config, Technique::Rearrangement),
        simulate_model(model, config, Technique::DataPartitioning),
    ];
    (base, rest)
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// `1 - x` as a percentage string, e.g. `0.855 -> "+14.5%"`.
pub fn improvement(normalized: f64) -> String {
    format!("{:+.1}%", (1.0 - normalized) * 100.0)
}

/// Fixed-width model label (Table 4 abbreviation).
pub fn abbr(model: &Model) -> String {
    format!("{:>5}", model.id.abbr())
}

/// Self-measurement: wall-clock timing plus a machine-readable JSON summary
/// of the simulator's own work (engine and analytic runs, cache hit-rate). The CLI's `--timing` flag and the micro-benchmarks both feed
/// off this module, so the perf trajectory of successive PRs is comparable.
pub mod wallclock {
    use std::time::Instant;

    /// Run `f` once, returning its result and the elapsed wall seconds.
    pub fn measure<R>(f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let out = f();
        (out, start.elapsed().as_secs_f64())
    }

    /// Mean seconds per iteration of `f` over `iters` runs (plus one
    /// untimed warm-up run).
    pub fn time_per_iter(iters: u32, mut f: impl FnMut()) -> f64 {
        assert!(iters > 0);
        f();
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed().as_secs_f64() / iters as f64
    }

    /// One timed simulation run, summarised for machines.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Timing {
        /// What was timed (e.g. `sweep:res:server`).
        pub label: String,
        /// Elapsed wall-clock seconds.
        pub wall_seconds: f64,
        /// Cycle-engine runs actually executed.
        pub engine_runs: u64,
        /// Analytic stream replays actually executed.
        pub analytic_runs: u64,
        /// Memo-cache hits (winner and per-candidate lookups alike).
        pub cache_hits: u64,
        /// Memo-cache misses.
        pub cache_misses: u64,
    }

    impl Timing {
        /// Fraction of memo lookups the cache answered.
        pub fn cache_hit_rate(&self) -> f64 {
            let total = self.cache_hits + self.cache_misses;
            if total == 0 {
                0.0
            } else {
                self.cache_hits as f64 / total as f64
            }
        }

        /// Hand-rolled single-line JSON (the workspace carries no serializer
        /// dependency by design).
        pub fn to_json(&self) -> String {
            format!(
                concat!(
                    "{{\"label\":\"{}\",\"wall_seconds\":{:.6},",
                    "\"engine_runs\":{},\"analytic_runs\":{},",
                    "\"cache_hits\":{},\"cache_misses\":{},\"cache_hit_rate\":{:.4}}}"
                ),
                self.label.replace('"', "'"),
                self.wall_seconds,
                self.engine_runs,
                self.analytic_runs,
                self.cache_hits,
                self.cache_misses,
                self.cache_hit_rate(),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_formats_signed_percent() {
        assert_eq!(improvement(0.855), "+14.5%");
        assert_eq!(improvement(1.05), "-5.0%");
    }

    #[test]
    fn mean_of_values() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn timing_json_is_well_formed() {
        let t = wallclock::Timing {
            label: "sweep:res".into(),
            wall_seconds: 2.0,
            engine_runs: 400,
            analytic_runs: 900,
            cache_hits: 30,
            cache_misses: 70,
        };
        let json = t.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"engine_runs\":400,\"analytic_runs\":900,"));
        assert!(!json.contains("layers"), "no layer-pass counter exists");
        assert!(json.contains("\"cache_hit_rate\":0.3000"));
        assert!((t.cache_hit_rate() - 0.3).abs() < 1e-12);
    }
}
