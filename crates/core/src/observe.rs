//! Recorded (traced) layer execution: the observability front-end.
//!
//! [`crate::pipeline`] answers *how long* a layer's backward pass takes;
//! this module answers *what happened while it ran*. It re-executes the
//! pipeline's decided schedule with an [`EventLog`] recorder attached,
//! yielding the cycle-stamped event stream ([`TraceEvent`]) plus the
//! derived [`RunMetrics`] — SPM occupancy high-water mark, per-class
//! reuse-distance histograms, and the dY reuse ratio over time resolved
//! per tile (the paper's Figure 5 quantity, per tile instead of summed).
//!
//! The decision is made exactly as in the untraced pipeline
//! ([`simulate_layer_backward_with`]), and the execution it implies is
//! materialised from the pipeline's own candidate for it: one engine run
//! per core for multi-core decisions, one chained run for single-core
//! sequential partitions.
//!
//! Exporters for the collected traces — Chrome trace-event JSON
//! (Perfetto / `chrome://tracing`) and CSV metric summaries — live in
//! [`crate::report_io`].

use crate::pipeline::{simulate_layer_backward_with, Choice, LayerDecision, SimOptions};
use crate::technique::Technique;
use igo_npu_sim::{
    Engine, EngineScratch, EventLog, NpuConfig, RunMetrics, Schedule, SimReport, TraceEvent,
};
use igo_tensor::GemmShape;
use igo_workloads::Model;

/// Recorded execution of one core's (or one chained single-core) schedule.
#[derive(Debug, Clone)]
pub struct CoreTrace {
    /// Core index within the layer's execution (0 for single-core).
    pub core: usize,
    /// The cycle-stamped event stream, in emission order.
    pub events: Vec<TraceEvent>,
    /// Metrics derived from `events`.
    pub metrics: RunMetrics,
    /// The engine report of this core's run.
    pub report: SimReport,
}

/// Recorded backward execution of one layer under its decided schedule.
#[derive(Debug, Clone)]
pub struct LayerTrace {
    /// Layer name (or a synthetic `MxKxN` label for ad-hoc layers).
    pub name: String,
    /// Forward GEMM shape of the layer.
    pub gemm: GemmShape,
    /// Technique the decision was made under.
    pub technique: Technique,
    /// The scheduler's decision (order and partitioning).
    pub decision: LayerDecision,
    /// The pipeline's (combined) backward report for the decision.
    pub report: SimReport,
    /// Per-core SPM residency capacity in bytes.
    pub capacity: u64,
    /// DRAM bandwidth in bytes per core cycle (for exporters).
    pub bytes_per_cycle: f64,
    /// DRAM per-burst latency in cycles (for exporters).
    pub burst_latency: u64,
    /// One recorded run per core (a single chained run for single-core
    /// sequential partitions, matching the engine's execution model).
    pub cores: Vec<CoreTrace>,
}

impl LayerTrace {
    /// Total recorded events across all cores.
    pub fn event_count(&self) -> usize {
        self.cores.iter().map(|c| c.events.len()).sum()
    }
}

/// Run one core's schedule with an [`EventLog`] attached.
fn record_run(engine: &Engine, schedule: &Schedule, core: usize) -> CoreTrace {
    let mut log = EventLog::new();
    let mut scratch = EngineScratch::new();
    let report = engine.run_recorded(schedule, &mut scratch, &mut log);
    let metrics = RunMetrics::from_events(&log.events, engine.residency_bytes());
    CoreTrace {
        core,
        events: log.events,
        metrics,
        report,
    }
}

/// Decide a layer's backward execution exactly as the pipeline does, then
/// re-run the decided schedule(s) with a recorder attached.
///
/// The recorded per-core reports sum to the same tile work the pipeline
/// report describes; cross-core reduction streams (which the engine does
/// not execute) are the only part of a multi-core decision that is not
/// recorded.
pub fn trace_layer_backward(
    name: &str,
    gemm: GemmShape,
    density: f64,
    config: &NpuConfig,
    technique: Technique,
    is_first: bool,
    options: &SimOptions,
) -> LayerTrace {
    let (report, decision) =
        simulate_layer_backward_with(gemm, density, config, technique, is_first, options);
    let engine = Engine::new(config);
    let cand = Choice::new(gemm, density, is_first, config, decision);
    let cores = (cand.schedules(config).iter())
        .enumerate()
        .map(|(core, s)| record_run(&engine, s, core))
        .collect();
    LayerTrace {
        name: name.to_string(),
        gemm,
        technique,
        decision,
        report,
        capacity: engine.residency_bytes(),
        bytes_per_cycle: engine.bytes_per_cycle(),
        burst_latency: engine.burst_latency(),
        cores,
    }
}

/// Trace every distinct layer of `model` (each layer once, regardless of
/// its multiplicity), in forward order.
pub fn trace_model(
    model: &Model,
    config: &NpuConfig,
    technique: Technique,
    options: &SimOptions,
) -> Vec<LayerTrace> {
    model
        .layers
        .iter()
        .map(|layer| {
            trace_layer_backward(
                &layer.name,
                layer.gemm,
                layer.ifmap_density,
                config,
                technique,
                layer.is_first,
                options,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use igo_tensor::TensorClass;
    use igo_workloads::{zoo, ModelId};

    #[test]
    fn traced_decision_and_reports_match_pipeline() {
        let config = NpuConfig::small_edge();
        let options = SimOptions::sequential();
        let gemm = GemmShape::new(300, 200, 180);
        let (report, decision) = simulate_layer_backward_with(
            gemm,
            1.0,
            &config,
            Technique::Rearrangement,
            false,
            &options,
        );
        let trace = trace_layer_backward(
            "layer",
            gemm,
            1.0,
            &config,
            Technique::Rearrangement,
            false,
            &options,
        );
        assert_eq!(trace.decision, decision);
        assert_eq!(trace.report, report);
        assert_eq!(trace.cores.len(), 1);
        // The recorded single-core run *is* the decided execution.
        assert_eq!(trace.cores[0].report, report);
        assert!(trace.event_count() > 0);
    }

    #[test]
    fn multicore_trace_has_one_recording_per_core() {
        let config = NpuConfig::large_server(2);
        let trace = trace_layer_backward(
            "layer",
            GemmShape::new(512, 256, 256),
            1.0,
            &config,
            Technique::Interleaving,
            false,
            &SimOptions::sequential(),
        );
        assert_eq!(trace.cores.len(), 2);
        for core in &trace.cores {
            assert!(core.metrics.total_accesses() > 0);
            assert_eq!(
                core.metrics.total_accesses(),
                core.report.spm_accesses(),
                "derived metrics must account for every engine access"
            );
        }
    }

    #[test]
    fn traced_metrics_expose_dy_reuse() {
        let config = NpuConfig::small_edge();
        let trace = trace_layer_backward(
            "layer",
            GemmShape::new(256, 128, 128),
            1.0,
            &config,
            Technique::Interleaving,
            false,
            &SimOptions::sequential(),
        );
        let m = &trace.cores[0].metrics;
        assert!(m.class(TensorClass::OutGrad).accesses > 0);
        assert_eq!(
            m.dy_timeline.len() as u64,
            m.class(TensorClass::OutGrad).accesses,
            "one timeline point per dY access"
        );
        assert!(m.occupancy_high_water <= m.capacity);
    }

    #[test]
    fn model_trace_covers_every_distinct_layer() {
        let config = NpuConfig::small_edge();
        let model = zoo::model(ModelId::Ncf, 4);
        let traces = trace_model(
            &model,
            &config,
            Technique::Baseline,
            &SimOptions::sequential(),
        );
        assert_eq!(traces.len(), model.layers.len());
        for (trace, layer) in traces.iter().zip(&model.layers) {
            assert_eq!(trace.name, layer.name);
        }
    }
}
