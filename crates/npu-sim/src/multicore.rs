//! Multi-core steps and their reduction.
//!
//! §6.3 of the paper evaluates 1–8 core NPUs in which "DRAM bandwidth, SPM
//! size, and batch size increase proportionally with the growth in the
//! number of cores, with all cores sharing the SPM". We model that as:
//!
//! * each core runs its own stream, with an even slice of the shared SPM
//!   and an even share of the aggregate DRAM bandwidth;
//! * the step time is the slowest core's makespan plus, for partitioning
//!   schemes that need it, a cross-partition **reduction** of the partial
//!   gradient tensors at aggregate bandwidth (weight-sharing partitioning
//!   accumulates `dW` partials; dY-sharing accumulates `dX`; ifmap-sharing
//!   needs none — §5).
//!
//! [`combine_step`] is that step over finished per-core reports. A single
//! core is its one-report case: partitions chained into one stream (so SPM
//! residency, the shared tensor's tiles included, carries across partition
//! boundaries), then the same reduction. [`replay_multicore`] produces the
//! per-core reports by analytic replay.

use crate::analytic::{AnalyticCollector, AnalyticScratch};
use crate::config::NpuConfig;
use crate::engine::Engine;
use crate::stats::{SimReport, Traffic};
use crate::trace::StreamOp;

/// Cycles the cross-partition reduction alone would take on `config` (no
/// traffic accounting) — the exact term [`combine_step`] adds to the
/// slowest core. Used by analytical candidate lower bounds.
pub fn reduction_cycles(config: &NpuConfig, reduction: Option<StreamOp>) -> u64 {
    let mut scratch = Traffic::new();
    reduction_cost(config, reduction, &mut scratch)
}

fn reduction_cost(config: &NpuConfig, reduction: Option<StreamOp>, traffic: &mut Traffic) -> u64 {
    match reduction {
        None => 0,
        Some(op) => {
            let bytes = op.read_bytes + op.write_bytes;
            if bytes == 0 {
                return 0;
            }
            if op.read_bytes > 0 {
                traffic.add_read(op.class, op.read_bytes);
            }
            if op.write_bytes > 0 {
                traffic.add_write(op.class, op.write_bytes);
            }
            (bytes as f64 / config.dram_bytes_per_cycle_total()
                + config.dram.burst_latency_cycles as f64)
                .ceil() as u64
        }
    }
}

/// One step over finished per-core reports, as one [`SimReport`]: the
/// slowest core's cycles plus the reduction's, the cores' traffic plus the
/// reduction's, and the per-core counters summed.
///
/// `reports.len()` may be smaller than `config.cores` (idle cores), but not
/// larger; a single core's chained stream is one report.
///
/// # Panics
///
/// Panics if more reports than cores are supplied.
pub fn combine_step(
    config: &NpuConfig,
    reports: &[SimReport],
    reduction: Option<StreamOp>,
) -> SimReport {
    assert!(
        reports.len() <= config.cores as usize,
        "{} reports for {} cores",
        reports.len(),
        config.cores
    );
    let mut step = SimReport::default();
    reports.iter().for_each(|r| step.chain(r));
    let slowest = reports.iter().map(|r| r.cycles).max().unwrap_or(0);
    step.cycles = slowest + reduction_cost(config, reduction, &mut step.traffic);
    step
}

/// [`combine_step`] over analytic collectors, one per core: each core's
/// stream is replayed exactly, so the result is bit-identical to running
/// the equivalent schedules on the [`Engine`] and combining their reports.
///
/// Cores that run the *same* collector (equal references) are replayed
/// once and share the report: a core whose stream is byte-identical to an
/// earlier core's costs nothing.
///
/// With a cycle `cutoff`, returns `None` as soon as any core's replay
/// proves the step's cycle count (slowest core plus reduction) must exceed
/// `cutoff` — any single core exceeding the post-reduction budget is
/// enough, since the makespan takes the maximum.
///
/// # Panics
///
/// Panics if more collectors than cores are supplied.
pub fn replay_multicore(
    config: &NpuConfig,
    per_core: &[&AnalyticCollector],
    reduction: Option<StreamOp>,
    scratch: &mut AnalyticScratch,
    cutoff: Option<u64>,
) -> Option<SimReport> {
    assert!(
        per_core.len() <= config.cores as usize,
        "{} collectors for {} cores",
        per_core.len(),
        config.cores
    );
    // The per-core replay budget left after the reduction; a reduction
    // alone beyond `cutoff` makes the budget unmeetable.
    let inner_cutoff = match cutoff {
        Some(c) => Some(c.checked_sub(reduction_cycles(config, reduction))?),
        None => None,
    };
    let engine = Engine::new(config);
    let mut reports: Vec<SimReport> = Vec::with_capacity(per_core.len());
    for (i, &c) in per_core.iter().enumerate() {
        let report = match per_core[..i].iter().position(|&e| std::ptr::eq(e, c)) {
            Some(j) => reports[j],
            None => c.replay_bounded(&engine, scratch, inner_cutoff)?,
        };
        reports.push(report);
    }
    Some(combine_step(config, &reports, reduction))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Schedule, TileOp};
    use igo_tensor::{GemmShape, TensorClass, TileCoord};

    fn schedule(tiles: u32) -> Schedule {
        let mut s = Schedule::new("part");
        let dy = s.add_tensor(TensorClass::OutGrad, "dY");
        for j in 0..tiles {
            s.push_gemm(TileOp::new(GemmShape::new(128, 128, 128)).read(
                dy,
                TileCoord::new(0, j),
                128 * 128 * 4,
            ));
        }
        s
    }

    /// One engine report per schedule, as each core would run it.
    fn reports(config: &NpuConfig, schedules: &[Schedule]) -> Vec<SimReport> {
        let engine = Engine::new(config);
        schedules.iter().map(|s| engine.run(s)).collect()
    }

    #[test]
    fn multicore_takes_slowest_core() {
        let config = NpuConfig::large_server(2);
        let cores = reports(&config, &[schedule(2), schedule(20)]);
        let step = combine_step(&config, &cores, None);
        assert!(cores[0].cycles < cores[1].cycles);
        assert_eq!(step.cycles, cores[1].cycles);
    }

    #[test]
    fn reduction_adds_cycles_and_traffic() {
        let config = NpuConfig::large_server(2);
        let cores = reports(&config, &[schedule(4), schedule(4)]);
        let without = combine_step(&config, &cores, None);
        let reduction = Some(StreamOp {
            class: TensorClass::WGrad,
            read_bytes: 1 << 20,
            write_bytes: 1 << 20,
        });
        let with = combine_step(&config, &cores, reduction);
        assert!(with.cycles > without.cycles);
        assert_eq!(with.traffic.read(TensorClass::WGrad), 1 << 20);
        assert_eq!(
            with.cycles - without.cycles,
            reduction_cycles(&config, reduction)
        );
    }

    #[test]
    fn idle_cores_allowed() {
        let config = NpuConfig::large_server(4);
        let step = combine_step(&config, &reports(&config, &[schedule(4)]), None);
        assert!(step.cycles > 0);
    }

    #[test]
    #[should_panic(expected = "reports for")]
    fn too_many_schedules_panics() {
        let config = NpuConfig::large_single_core();
        let cores = reports(&config, &[schedule(1), schedule(1)]);
        let _ = combine_step(&config, &cores, None);
    }

    #[test]
    fn empty_reduction_is_free() {
        let config = NpuConfig::large_single_core();
        let single = reports(&config, &[schedule(1)]);
        let reduction = Some(StreamOp {
            class: TensorClass::InGrad,
            read_bytes: 0,
            write_bytes: 0,
        });
        assert_eq!(reduction_cycles(&config, reduction), 0);
        assert_eq!(combine_step(&config, &single, reduction), single[0]);
    }

    #[test]
    fn combined_sums_per_core_counters() {
        let config = NpuConfig::large_server(2);
        let cores = reports(&config, &[schedule(4), schedule(6)]);
        let reduction = Some(StreamOp {
            class: TensorClass::WGrad,
            read_bytes: 1 << 16,
            write_bytes: 1 << 16,
        });
        let step = combine_step(&config, &cores, reduction);
        let slowest = cores.iter().map(|r| r.cycles).max().unwrap();
        assert_eq!(step.cycles, slowest + reduction_cycles(&config, reduction));
        assert_eq!(step.macs, cores.iter().map(|r| r.macs).sum::<u64>());
        assert_eq!(step.gemm_ops, cores.iter().map(|r| r.gemm_ops).sum::<u64>());
        let mut traffic = cores[0].traffic;
        traffic.merge(&cores[1].traffic);
        traffic.add_read(TensorClass::WGrad, 1 << 16);
        traffic.add_write(TensorClass::WGrad, 1 << 16);
        assert_eq!(step.traffic, traffic);
        assert_eq!(reduction_cycles(&config, None), 0);
    }

    #[test]
    fn empty_segments_are_free() {
        let config = NpuConfig::large_single_core();
        assert_eq!(combine_step(&config, &[], None), SimReport::default());
    }
}
