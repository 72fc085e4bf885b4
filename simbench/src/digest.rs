//! Digests of simulated results, for checking them against pinned values.
//!
//! A digest covers what the simulator reports for a layer: cycles,
//! per-class DRAM traffic in both directions, SPM hits and misses, and the
//! scheduler's decision. FNV-1a is used because it is fixed by definition,
//! so a digest pinned once stays comparable across toolchains.

use igo_core::{LayerDecision, ModelReport};
use igo_npu_sim::SimReport;
use igo_tensor::TensorClass;

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn word(&mut self, w: u64) -> &mut Self {
        self.bytes(&w.to_le_bytes())
    }

    pub fn report(&mut self, r: &SimReport) -> &mut Self {
        self.word(r.cycles);
        for class in TensorClass::ALL {
            self.word(r.traffic.read(class))
                .word(r.traffic.write(class));
        }
        self.word(r.spm_hits).word(r.spm_misses)
    }

    pub fn decision(&mut self, d: &LayerDecision) -> &mut Self {
        self.bytes(format!("{d:?}").as_bytes())
    }

    pub fn model(&mut self, m: &ModelReport) -> &mut Self {
        for l in &m.layers {
            self.word(l.multiplicity)
                .report(&l.forward)
                .report(&l.backward)
                .decision(&l.decision);
        }
        self
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of one layer request's forward and backward results.
pub fn of_layer(forward: &SimReport, backward: &SimReport, decision: &LayerDecision) -> String {
    Digest::default()
        .report(forward)
        .report(backward)
        .decision(decision)
        .hex()
}

/// Digest of a whole-model report.
pub fn of_model(report: &ModelReport) -> String {
    Digest::default().model(report).hex()
}

#[cfg(test)]
mod tests {
    use super::*;
    use igo_core::BackwardOrder;

    fn report() -> SimReport {
        let mut r = SimReport {
            cycles: 1_000,
            spm_hits: 7,
            spm_misses: 3,
            ..SimReport::default()
        };
        r.traffic.add_read(TensorClass::OutGrad, 4096);
        r.traffic.add_write(TensorClass::WGrad, 512);
        r
    }

    const DECISION: LayerDecision = LayerDecision {
        order: BackwardOrder::DxMajor,
        partition: None,
    };

    #[test]
    fn fnv1a_matches_the_reference_vector() {
        assert_eq!(Digest::default().bytes(b"a").hex(), "af63dc4c8601ec8c");
    }

    #[test]
    fn one_cycle_flips_the_digest() {
        let base = report();
        let mut late = base;
        late.cycles += 1;
        assert_ne!(
            of_layer(&base, &base, &DECISION),
            of_layer(&base, &late, &DECISION)
        );
        assert_eq!(
            of_layer(&base, &base, &DECISION),
            of_layer(&report(), &report(), &DECISION)
        );
    }

    #[test]
    fn traffic_class_hits_and_decision_count() {
        let base = of_layer(&report(), &report(), &DECISION);
        let mut moved = report();
        moved.traffic.add_read(TensorClass::Weight, 0);
        assert_eq!(of_layer(&report(), &moved, &DECISION), base);
        moved.traffic.add_write(TensorClass::OutGrad, 1);
        assert_ne!(of_layer(&report(), &moved, &DECISION), base);
        let mut hit = report();
        hit.spm_hits += 1;
        assert_ne!(of_layer(&report(), &hit, &DECISION), base);
        let other = LayerDecision {
            order: BackwardOrder::DwMajor,
            partition: None,
        };
        assert_ne!(of_layer(&report(), &report(), &other), base);
    }
}
