//! Simulation results: the per-layer outcomes of a training step and the
//! model report that aggregates them, as [`crate::pipeline`] produces them.

use crate::pipeline::LayerDecision;
use crate::technique::Technique;
use igo_npu_sim::{SimReport, Traffic};
use igo_tensor::GemmShape;

/// Per-layer outcome within a model report.
#[derive(Debug, Clone)]
pub struct LayerOutcome {
    /// Layer name.
    pub name: String,
    /// Instances of this exact layer in the model (count × conv groups).
    pub multiplicity: u64,
    /// Forward-pass report of one instance.
    pub forward: SimReport,
    /// Backward-pass report of one instance.
    pub backward: SimReport,
    /// Scheduler decisions for the backward pass.
    pub decision: LayerDecision,
    /// The layer's forward GEMM (convenience for downstream analyses).
    pub gemm: GemmShape,
}

impl LayerOutcome {
    /// Total cycles contributed by all instances (forward + backward).
    pub fn total_cycles(&self) -> u64 {
        (self.forward.cycles + self.backward.cycles) * self.multiplicity
    }

    /// Backward cycles of all instances.
    pub fn backward_cycles(&self) -> u64 {
        self.backward.cycles * self.multiplicity
    }
}

/// A full training-step simulation of one model under one technique.
#[derive(Debug, Clone)]
pub struct ModelReport {
    /// Model name.
    pub model: String,
    /// Configuration name.
    pub config: String,
    /// Technique applied.
    pub technique: Technique,
    /// Per-distinct-layer outcomes, in forward order.
    pub layers: Vec<LayerOutcome>,
}

impl ModelReport {
    /// Total training-step cycles (forward + backward over all layers).
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(LayerOutcome::total_cycles).sum()
    }

    /// Forward-pass cycles only.
    pub fn forward_cycles(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.forward.cycles * l.multiplicity)
            .sum()
    }

    /// Backward-pass cycles only.
    pub fn backward_cycles(&self) -> u64 {
        self.layers.iter().map(LayerOutcome::backward_cycles).sum()
    }

    /// Aggregate backward-pass DRAM traffic (the Figure 5 quantity).
    pub fn backward_traffic(&self) -> Traffic {
        let mut t = Traffic::new();
        for l in &self.layers {
            t.merge(&l.backward.traffic.scaled(l.multiplicity));
        }
        t
    }

    /// Aggregate DRAM traffic of the whole step.
    pub fn total_traffic(&self) -> Traffic {
        let mut t = Traffic::new();
        for l in &self.layers {
            t.merge(&l.forward.traffic.scaled(l.multiplicity));
            t.merge(&l.backward.traffic.scaled(l.multiplicity));
        }
        t
    }

    /// Execution time normalised to a baseline run (Figure 12's y-axis).
    pub fn normalized_to(&self, baseline: &ModelReport) -> f64 {
        self.total_cycles() as f64 / baseline.total_cycles() as f64
    }
}
