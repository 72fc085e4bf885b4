//! Data partitioning for the rearranged gradient order (paper §5).
//!
//! A layer's fused backward GEMM pair can be split along any of the three
//! GEMM dimensions; the split decides which tensor is shared by all
//! partitions and which gradient needs a cross-partition reduction
//! (Figure 11):
//!
//! | Scheme | Splits | Shared | Reduction |
//! |---|---|---|---|
//! | weight-sharing (a) | `M` (batch) | `W` | `dW` partials |
//! | dY-sharing (b) | `N` | `X` | `dX` partials |
//! | ifmap-sharing (c) | `K` | `dY` | none |
//!
//! Shared tensors keep the *parent* tensor id, so on a single core the
//! sequentially executed partitions genuinely re-hit the shared tiles in
//! SPM, while split tensors get fresh per-partition ids (their tiles are
//! different data). Reductions are modelled as a bandwidth-cost
//! [`StreamOp`]: read all `P` partial tensors, write the combined result.

use crate::schedule::{BackwardBuilder, LayerTensors};
use crate::tiling::TilePolicy;
use igo_npu_sim::{Schedule, StreamOp, TensorId};
use igo_tensor::{DataType, GemmDim, GemmShape, TensorClass};
/// The three partitioning schemes of Figure 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PartitionScheme {
    /// Split `M` (batch): conventional data parallelism; `W` shared, `dW`
    /// reduced.
    WeightSharing,
    /// Split `N`: `X` shared (duplicated per core), `dX` reduced.
    DySharing,
    /// Split `K`: `dY` shared (duplicated per core), no reduction.
    IfmapSharing,
}

impl PartitionScheme {
    /// All schemes, in Figure 11 order.
    pub const ALL: [PartitionScheme; 3] = [
        PartitionScheme::WeightSharing,
        PartitionScheme::DySharing,
        PartitionScheme::IfmapSharing,
    ];

    /// The GEMM dimension this scheme splits.
    pub fn split_dim(self) -> GemmDim {
        match self {
            PartitionScheme::WeightSharing => GemmDim::M,
            PartitionScheme::DySharing => GemmDim::N,
            PartitionScheme::IfmapSharing => GemmDim::K,
        }
    }

    /// The role of the tensor every partition shares.
    pub fn shared(self) -> TensorClass {
        match self {
            PartitionScheme::WeightSharing => TensorClass::Weight,
            PartitionScheme::DySharing => TensorClass::Ifmap,
            PartitionScheme::IfmapSharing => TensorClass::OutGrad,
        }
    }

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            PartitionScheme::WeightSharing => "weight-sharing(M)",
            PartitionScheme::DySharing => "dY-sharing(N)",
            PartitionScheme::IfmapSharing => "ifmap-sharing(K)",
        }
    }
}

impl core::fmt::Display for PartitionScheme {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// A partitioned layer pass before any stream is emitted: the
/// per-partition sub-GEMMs and tensor bindings plus the reduction cost.
/// [`PartitionPlan::builders`] turns it into one [`BackwardBuilder`] per
/// partition; the pipeline's candidates replay those or emit them into
/// forks of one [`tensor_table`].
#[derive(Debug, Clone)]
pub struct PartitionPlan {
    /// The scheme that split the layer.
    pub scheme: PartitionScheme,
    /// The per-partition sub-GEMMs, in order.
    pub sub_gemms: Vec<GemmShape>,
    /// Tensor bindings of each partition (shared roles keep parent ids).
    pub part_tensors: Vec<LayerTensors>,
    /// Cross-partition reduction cost, if the scheme needs one.
    pub reduction: Option<StreamOp>,
}

impl PartitionPlan {
    /// One builder per partition, tiled by `policy`, with ifmap `density`.
    pub fn builders(&self, policy: TilePolicy, density: f64) -> Vec<BackwardBuilder> {
        (self.sub_gemms.iter().zip(&self.part_tensors))
            .map(|(&g, &t)| BackwardBuilder::new(g, policy, t).with_ifmap_density(density))
            .collect()
    }
}

/// The tensor ids of a layer: the id sequence [`LayerTensors::register`]
/// produces on a fresh schedule, as in every [`tensor_table`].
pub fn layer_tensors() -> LayerTensors {
    LayerTensors {
        x: TensorId::from_raw(0),
        w: TensorId::from_raw(1),
        y: TensorId::from_raw(2),
        dx: TensorId::from_raw(3),
        dw: TensorId::from_raw(4),
        dy: TensorId::from_raw(5),
    }
}

/// Per-partition bindings over [`layer_tensors`]: every role in `split`
/// gets a fresh id per partition, numbered after the layer's own tensors
/// in partition, then role, order; the other roles keep the parent id.
fn bind_parts(parts: usize, split: &[TensorClass]) -> Vec<LayerTensors> {
    let parent = layer_tensors();
    let mut next = LayerTensors::ROLES.len() as u32;
    let mut bind = |role| match split.contains(&role) {
        true => {
            next += 1;
            TensorId::from_raw(next - 1)
        }
        false => parent.of(role),
    };
    (0..parts)
        .map(|_| LayerTensors {
            x: bind(TensorClass::Ifmap),
            w: bind(TensorClass::Weight),
            y: bind(TensorClass::Ofmap),
            dx: bind(TensorClass::InGrad),
            dw: bind(TensorClass::WGrad),
            dy: bind(TensorClass::OutGrad),
        })
        .collect()
}

/// A schedule whose tensor table registers every tensor `builders` bind:
/// the layer's own six ([`layer_tensors`]), then each id the planners
/// minted, with the class of the role it plays. Forks of it run any of
/// the builders' streams, alone or chained.
///
/// # Panics
///
/// Panics if the builders' ids are not the dense sequence the planners
/// mint.
pub fn tensor_table(builders: &[BackwardBuilder]) -> Schedule {
    let mut table = Schedule::new("l");
    LayerTensors::register(&mut table, "l");
    for b in builders {
        for role in LayerTensors::ROLES {
            let id = b.tensors().of(role);
            if id.raw() as usize >= table.num_tensors() {
                let minted = table.add_tensor(role, role.label());
                assert_eq!(minted, id, "partition ids must be minted densely");
            }
        }
    }
    table
}

/// Split `gemm` under `scheme` and bind each partition's tensors over
/// [`layer_tensors`]. Split tensors get fresh per-partition identities;
/// the shared tensor keeps the parent id (its grid is untouched by the
/// split, so parent coordinates remain valid).
///
/// # Panics
///
/// Panics if `parts == 0`.
pub fn plan_partition_backward(
    gemm: GemmShape,
    ifmap_density: f64,
    dtype: DataType,
    scheme: PartitionScheme,
    parts: u64,
    is_first: bool,
) -> PartitionPlan {
    assert!(parts > 0, "need at least one partition");
    let sub_gemms = gemm.split(scheme.split_dim(), parts);
    let actual_parts = sub_gemms.len() as u64;
    let split: Vec<TensorClass> = (LayerTensors::ROLES.into_iter())
        .filter(|&role| role != scheme.shared())
        .collect();
    let part_tensors = bind_parts(sub_gemms.len(), &split);

    // Reduction: read P partial tensors, write the combined one.
    let reduction = match scheme {
        PartitionScheme::WeightSharing => {
            let dw_bytes = gemm.dw_dims().bytes(dtype);
            Some(StreamOp {
                class: TensorClass::WGrad,
                read_bytes: actual_parts * dw_bytes,
                write_bytes: dw_bytes,
            })
        }
        // A first layer computes no dX, so dY-sharing needs no reduction
        // there.
        PartitionScheme::DySharing if !is_first => {
            let dx_bytes = ((gemm.dx_dims().bytes(dtype) as f64 * ifmap_density).ceil()) as u64;
            Some(StreamOp {
                class: TensorClass::InGrad,
                read_bytes: actual_parts * dx_bytes,
                write_bytes: dx_bytes,
            })
        }
        _ => None,
    };

    PartitionPlan {
        scheme,
        sub_gemms,
        part_tensors,
        reduction,
    }
}

/// A batch-split (M) forward pass: `W` shared, fresh `X` and `Y` per
/// partition, no reduction. This is how both the baseline and the
/// transformed multi-core runs execute the forward pass (the paper's
/// techniques only change the backward pass).
///
/// # Panics
///
/// Panics if `parts == 0`.
pub fn plan_partition_forward(gemm: GemmShape, parts: u64) -> PartitionPlan {
    assert!(parts > 0, "need at least one partition");
    let sub_gemms = gemm.split(GemmDim::M, parts);
    let part_tensors = bind_parts(sub_gemms.len(), &[TensorClass::Ifmap, TensorClass::Ofmap]);
    PartitionPlan {
        scheme: PartitionScheme::WeightSharing,
        sub_gemms,
        part_tensors,
        reduction: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{forward_schedule, BackwardOrder};
    use igo_npu_sim::{NpuConfig, ScheduleOp};

    fn policy() -> TilePolicy {
        TilePolicy::for_config(&NpuConfig::large_single_core())
    }

    fn plan(gemm: GemmShape, scheme: PartitionScheme, parts: u64, is_first: bool) -> PartitionPlan {
        plan_partition_backward(gemm, 1.0, policy().dtype, scheme, parts, is_first)
    }

    /// Each partition of `plan` emitted under `order` into a fork of the
    /// plan's tensor table.
    fn emit(plan: &PartitionPlan, order: BackwardOrder) -> Vec<Schedule> {
        let builders = plan.builders(policy(), 1.0);
        let table = tensor_table(&builders);
        (builders.iter())
            .map(|b| {
                let mut s = table.fork("p");
                b.emit(order, false, &mut s);
                s
            })
            .collect()
    }

    /// Whether `schedule` reads any tile of `tensor`.
    fn reads(schedule: &Schedule, tensor: TensorId) -> bool {
        schedule.ops().iter().any(|op| {
            let ScheduleOp::Gemm(g) = op else {
                return false;
            };
            g.reads.iter().any(|r| r.key.tensor == tensor)
        })
    }

    #[test]
    fn partitions_preserve_total_macs() {
        let gemm = GemmShape::new(512, 384, 640);
        for scheme in PartitionScheme::ALL {
            for parts in [2u64, 4] {
                let schedules = emit(
                    &plan(gemm, scheme, parts, false),
                    BackwardOrder::Interleaved,
                );
                let macs: u64 = schedules.iter().map(|s| s.total_macs()).sum();
                assert_eq!(macs, gemm.backward_macs(), "{scheme} x{parts}");
            }
        }
    }

    #[test]
    fn reduction_matches_scheme() {
        let gemm = GemmShape::new(256, 256, 256);
        let ws = plan(gemm, PartitionScheme::WeightSharing, 2, false);
        let red = ws.reduction.unwrap();
        assert_eq!(red.class, TensorClass::WGrad);
        assert_eq!(red.read_bytes, 2 * 256 * 256 * 4);
        assert_eq!(red.write_bytes, 256 * 256 * 4);

        let dys = plan(gemm, PartitionScheme::DySharing, 2, false);
        assert_eq!(dys.reduction.unwrap().class, TensorClass::InGrad);

        let ifm = plan(gemm, PartitionScheme::IfmapSharing, 2, false);
        assert!(ifm.reduction.is_none(), "ifmap-sharing needs no reduction");
    }

    #[test]
    fn first_layer_dy_sharing_skips_reduction() {
        let gemm = GemmShape::new(256, 27, 64);
        let p = plan(gemm, PartitionScheme::DySharing, 2, true);
        assert!(p.reduction.is_none());
    }

    #[test]
    fn shared_tensor_keeps_parent_identity() {
        // ifmap-sharing shares dY: every partition must read tiles of the
        // parent dY tensor.
        let gemm = GemmShape::new(512, 256, 512);
        let p = plan(gemm, PartitionScheme::IfmapSharing, 2, false);
        for s in &emit(&p, BackwardOrder::Interleaved) {
            assert!(
                reads(s, layer_tensors().dy),
                "partition must read the shared dY"
            );
        }
    }

    #[test]
    fn split_tensors_get_fresh_ids() {
        // weight-sharing splits dY: no partition may touch the parent dY.
        let gemm = GemmShape::new(512, 256, 512);
        let p = plan(gemm, PartitionScheme::WeightSharing, 2, false);
        for s in &emit(&p, BackwardOrder::Interleaved) {
            assert!(!reads(s, layer_tensors().dy), "split dY must use fresh ids");
        }
    }

    #[test]
    fn forward_partitions_cover_batch() {
        let gemm = GemmShape::new(1024, 256, 512);
        let p = plan_partition_forward(gemm, 4);
        assert_eq!(p.sub_gemms.len(), 4);
        let builders = p.builders(policy(), 1.0);
        let table = tensor_table(&builders);
        let macs: u64 = (builders.iter())
            .map(|b| {
                let mut s = table.fork("fwd");
                forward_schedule(b.gemm(), b.policy(), b.tensors(), 1.0, &mut s);
                s.total_macs()
            })
            .sum();
        assert_eq!(macs, gemm.macs());
    }

    #[test]
    fn single_partition_degenerates_gracefully() {
        let gemm = GemmShape::new(64, 64, 64);
        let p = plan(gemm, PartitionScheme::WeightSharing, 1, false);
        assert_eq!(emit(&p, BackwardOrder::Baseline).len(), 1);
    }

    #[test]
    fn tensor_table_registers_every_minted_id_with_its_role_class() {
        // 40 rows split 16 ways realise 14 parts of ceil(40 / 16) = 3 rows.
        let gemm = GemmShape::new(40, 48, 56);
        let mut plans: Vec<PartitionPlan> = (PartitionScheme::ALL.into_iter())
            .flat_map(|scheme| [1, 3, 16].map(|parts| plan(gemm, scheme, parts, false)))
            .collect();
        plans.push(plan_partition_forward(gemm, 16));
        assert_eq!(plans.last().unwrap().sub_gemms.len(), 14);
        for plan in &plans {
            let builders = plan.builders(policy(), 1.0);
            let table = tensor_table(&builders);
            let mut bound = vec![false; table.num_tensors()];
            for t in std::iter::once(layer_tensors()).chain(plan.part_tensors.iter().copied()) {
                for role in LayerTensors::ROLES {
                    let id = t.of(role);
                    assert_eq!(table.class_of(id), role, "{:?} id {id:?}", plan.scheme);
                    bound[id.raw() as usize] = true;
                }
            }
            assert!(bound.iter().all(|&b| b), "every registered id is bound");
        }
    }
}
