//! Sampled invariants of the schedule transformations: whatever the shape,
//! the paper's reorderings must never change the computation — only the
//! memory behaviour. (Deterministic SplitMix64 sampling in place of a
//! property-based sweep, so the suite runs with no external dependencies.)

use igo_core::{
    partition::{plan_partition_backward, tensor_table, PartitionScheme},
    BackwardBuilder, BackwardOrder, LayerTensors, TilePolicy,
};
use igo_npu_sim::{Engine, NpuConfig, Schedule, ScheduleOp};
use igo_tensor::{GemmShape, SplitMix64, TensorClass};
use std::collections::HashSet;

fn policy() -> TilePolicy {
    TilePolicy::for_config(&NpuConfig::large_single_core())
}

fn build(gemm: GemmShape, order: BackwardOrder) -> Schedule {
    let mut s = Schedule::new("prop");
    let tensors = LayerTensors::register(&mut s, "l");
    BackwardBuilder::new(gemm, policy(), tensors).emit(order, false, &mut s);
    s
}

/// Collect the set of (class, coord) accumulator tiles a schedule writes.
fn result_tiles(s: &Schedule) -> HashSet<(TensorClass, u32, u32)> {
    s.ops()
        .iter()
        .filter_map(|op| match op {
            ScheduleOp::Gemm(g) => g
                .acc
                .map(|a| (s.class_of(a.key.tensor), a.key.coord.r, a.key.coord.c)),
            _ => None,
        })
        .collect()
}

const ORDERS: [BackwardOrder; 4] = [
    BackwardOrder::Baseline,
    BackwardOrder::Interleaved,
    BackwardOrder::DxMajor,
    BackwardOrder::DwMajor,
];

fn sample(rng: &mut SplitMix64, m: (u64, u64), k: (u64, u64), n: (u64, u64)) -> GemmShape {
    GemmShape::new(
        rng.range_u64(m.0, m.1),
        rng.range_u64(k.0, k.1),
        rng.range_u64(n.0, n.1),
    )
}

/// Every ordering performs exactly the backward MACs of the layer.
#[test]
fn orders_preserve_macs() {
    let mut rng = SplitMix64::new(0xA1);
    for _ in 0..24 {
        let gemm = sample(&mut rng, (1, 2000), (1, 1500), (1, 1500));
        for order in ORDERS {
            let s = build(gemm, order);
            assert_eq!(
                s.total_macs(),
                gemm.backward_macs(),
                "{:?} on {}",
                order,
                gemm
            );
        }
    }
}

/// Every ordering covers exactly the same result tiles (full dX and dW
/// grids, nothing else).
#[test]
fn orders_cover_identical_results() {
    let mut rng = SplitMix64::new(0xA2);
    for _ in 0..24 {
        let gemm = sample(&mut rng, (1, 1200), (1, 900), (1, 900));
        let reference = result_tiles(&build(gemm, BackwardOrder::Baseline));
        let dx_tiles = gemm.dx_grid(policy().tile).num_tiles();
        let dw_tiles = gemm.dw_grid(policy().tile).num_tiles();
        assert_eq!(reference.len() as u64, dx_tiles + dw_tiles);
        for order in ORDERS {
            assert_eq!(result_tiles(&build(gemm, order)), reference, "{:?}", order);
        }
    }
}

/// Simulated traffic never underruns the compulsory minimum: every
/// distinct operand tile fetched at least once, every result tile
/// written at least once.
#[test]
fn traffic_respects_compulsory_bounds() {
    let config = NpuConfig::large_single_core();
    let engine = Engine::new(&config);
    let mut rng = SplitMix64::new(0xA3);
    for _ in 0..24 {
        let gemm = sample(&mut rng, (64, 1200), (64, 900), (64, 900));
        for order in ORDERS {
            let s = build(gemm, order);
            let r = engine.run(&s);
            assert!(
                r.traffic.read_total() >= s.unique_operand_bytes(),
                "{:?}: reads {} < unique operands {}",
                order,
                r.traffic.read_total(),
                s.unique_operand_bytes()
            );
            let results =
                gemm.dx_dims().bytes(policy().dtype) + gemm.dw_dims().bytes(policy().dtype);
            assert!(
                r.traffic.write_total() >= results,
                "{:?}: writes {} < results {}",
                order,
                r.traffic.write_total(),
                results
            );
        }
    }
}

/// Partitioning preserves MACs and the reduction matches the scheme.
#[test]
fn partitions_preserve_macs() {
    let mut rng = SplitMix64::new(0xA4);
    for _ in 0..24 {
        let gemm = sample(&mut rng, (8, 800), (8, 600), (8, 600));
        let parts = rng.range_u64(2, 5);
        for scheme in PartitionScheme::ALL {
            let p = plan_partition_backward(gemm, 1.0, policy().dtype, scheme, parts, false);
            let builders = p.builders(policy(), 1.0);
            let mut chained = tensor_table(&builders);
            for b in &builders {
                b.emit(BackwardOrder::Interleaved, false, &mut chained);
            }
            assert_eq!(chained.total_macs(), gemm.backward_macs(), "{}", scheme);
            match scheme {
                PartitionScheme::IfmapSharing => assert!(p.reduction.is_none()),
                _ => assert!(p.reduction.is_some()),
            }
        }
    }
}

/// The interleaved schedule always reads no more dY bytes than the
/// barrier-separated baseline.
#[test]
fn interleaving_never_inflates_dy() {
    let config = NpuConfig::large_single_core();
    let engine = Engine::new(&config);
    let mut rng = SplitMix64::new(0xA5);
    for _ in 0..24 {
        let gemm = sample(&mut rng, (64, 1500), (64, 800), (64, 800));
        let base = engine.run(&build(gemm, BackwardOrder::Baseline));
        let inter = engine.run(&build(gemm, BackwardOrder::Interleaved));
        assert!(
            inter.traffic.read(TensorClass::OutGrad) <= base.traffic.read(TensorClass::OutGrad),
            "dY reads: inter {} vs base {}",
            inter.traffic.read(TensorClass::OutGrad),
            base.traffic.read(TensorClass::OutGrad)
        );
    }
}
