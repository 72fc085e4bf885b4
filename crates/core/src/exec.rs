//! Numerical execution of schedules — the strongest correctness check.
//!
//! Every schedule this crate emits is *supposed* to be a pure reordering
//! of the same computation. This module proves it numerically: it runs a
//! schedule's tile operations on real `f32` matrices and compares the
//! produced gradients against the dense reference
//! `dX = dY × Wᵀ`, `dW = Xᵀ × dY`. Reordering tile GEMMs changes the
//! order in which partial products arrive at an accumulator element, so
//! floating-point results can differ in the last bits between orders;
//! comparisons therefore use a tight, size-scaled epsilon.
//!
//! The executor infers each tile operation's role from its accumulator
//! tensor (`dX`, `dW`, or `Y`) and recovers the missing loop index from
//! the operand coordinates, so it also handles schedules with elided `dY`
//! reads (the Figure 6 study) and partitioned schedules (via the
//! partition's tensor bindings and sub-GEMM offsets).

use crate::partition::{tensor_table, PartitionPlan, PartitionScheme};
use crate::schedule::{BackwardOrder, LayerTensors};
use crate::tiling::TilePolicy;
use igo_npu_sim::{Schedule, ScheduleOp, TensorId, TileOp};
use igo_tensor::SplitMix64;
use igo_tensor::{GemmShape, TileGrid};

/// Dense row-major matrices of one layer's backward pass.
#[derive(Debug, Clone)]
pub struct DenseLayer {
    gemm: GemmShape,
    /// `X(M,K)`, row-major.
    pub x: Vec<f32>,
    /// `W(K,N)`, row-major.
    pub w: Vec<f32>,
    /// `dY(M,N)`, row-major.
    pub dy: Vec<f32>,
}

impl DenseLayer {
    /// Random data for a layer of shape `gemm` (deterministic in `seed`).
    pub fn random(gemm: GemmShape, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut fill =
            |len: u64| -> Vec<f32> { (0..len).map(|_| rng.range_f32(-1.0, 1.0)).collect() };
        Self {
            gemm,
            x: fill(gemm.m() * gemm.k()),
            w: fill(gemm.k() * gemm.n()),
            dy: fill(gemm.m() * gemm.n()),
        }
    }

    /// The layer's forward GEMM shape.
    pub fn gemm(&self) -> GemmShape {
        self.gemm
    }

    /// Dense reference input gradient `dX = dY × Wᵀ` (`M×K`, row-major).
    pub fn reference_dx(&self) -> Vec<f32> {
        let (m, k, n) = (self.gemm.m(), self.gemm.k(), self.gemm.n());
        let mut dx = vec![0.0f32; (m * k) as usize];
        for i in 0..m {
            for kk in 0..k {
                let mut acc = 0.0f32;
                for j in 0..n {
                    acc += self.dy[(i * n + j) as usize] * self.w[(kk * n + j) as usize];
                }
                dx[(i * k + kk) as usize] = acc;
            }
        }
        dx
    }

    /// Dense reference weight gradient `dW = Xᵀ × dY` (`K×N`, row-major).
    pub fn reference_dw(&self) -> Vec<f32> {
        let (m, k, n) = (self.gemm.m(), self.gemm.k(), self.gemm.n());
        let mut dw = vec![0.0f32; (k * n) as usize];
        for kk in 0..k {
            for j in 0..n {
                let mut acc = 0.0f32;
                for i in 0..m {
                    acc += self.x[(i * k + kk) as usize] * self.dy[(i * n + j) as usize];
                }
                dw[(kk * n + j) as usize] = acc;
            }
        }
        dw
    }

    /// Dense reference forward output `Y = X × W` (`M×N`, row-major).
    pub fn reference_y(&self) -> Vec<f32> {
        let (m, k, n) = (self.gemm.m(), self.gemm.k(), self.gemm.n());
        let mut y = vec![0.0f32; (m * n) as usize];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += self.x[(i * k + kk) as usize] * self.w[(kk * n + j) as usize];
                }
                y[(i * n + j) as usize] = acc;
            }
        }
        y
    }
}

/// Gradients produced by executing a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutedGradients {
    /// `dX(M,K)`, row-major.
    pub dx: Vec<f32>,
    /// `dW(K,N)`, row-major.
    pub dw: Vec<f32>,
}

/// A view mapping one partition's local coordinates onto the layer data.
struct PartitionView {
    tensors: LayerTensors,
    sub: GemmShape,
    /// Element offsets of this partition within the full `(M, K, N)`.
    m_off: u64,
    k_off: u64,
    n_off: u64,
}

/// Execute a single-layer (unpartitioned) backward schedule.
///
/// # Panics
///
/// Panics if the schedule contains ops whose accumulators are not the
/// layer's `dX`/`dW` tensors, or whose operand coordinates are
/// inconsistent with the layer shape — i.e. if the schedule is not a
/// backward pass of `layer`.
pub fn execute_backward(
    schedule: &Schedule,
    tensors: LayerTensors,
    layer: &DenseLayer,
    policy: TilePolicy,
) -> ExecutedGradients {
    let view = PartitionView {
        tensors,
        sub: layer.gemm,
        m_off: 0,
        k_off: 0,
        n_off: 0,
    };
    let mut out = ExecutedGradients {
        dx: vec![0.0; (layer.gemm.m() * layer.gemm.k()) as usize],
        dw: vec![0.0; (layer.gemm.k() * layer.gemm.n()) as usize],
    };
    execute_view(schedule, &view, layer, policy, &mut out);
    out
}

/// Execute a partitioned backward pass: every partition of `plan`, emitted
/// under `order` into a fork of the plan's tensor table, runs against its
/// slice of the layer data; partial gradients accumulate into one result
/// (the cross-partition reduction).
///
/// # Panics
///
/// Panics if the plan's sub-GEMMs do not tile `layer`'s GEMM.
pub fn execute_partitioned(
    plan: &PartitionPlan,
    order: BackwardOrder,
    is_first: bool,
    layer: &DenseLayer,
    policy: TilePolicy,
) -> ExecutedGradients {
    let gemm = layer.gemm;
    let mut out = ExecutedGradients {
        dx: vec![0.0; (gemm.m() * gemm.k()) as usize],
        dw: vec![0.0; (gemm.k() * gemm.n()) as usize],
    };
    let builders = plan.builders(policy, 1.0);
    let table = tensor_table(&builders);
    let (mut m_off, mut k_off, mut n_off) = (0u64, 0u64, 0u64);
    for b in &builders {
        let mut schedule = table.fork(table.name());
        b.emit(order, is_first, &mut schedule);
        let (tensors, sub) = (b.tensors(), b.gemm());
        let view = PartitionView {
            tensors,
            sub,
            m_off,
            k_off,
            n_off,
        };
        execute_view(&schedule, &view, layer, policy, &mut out);
        match plan.scheme {
            PartitionScheme::WeightSharing => m_off += sub.m(),
            PartitionScheme::DySharing => n_off += sub.n(),
            PartitionScheme::IfmapSharing => k_off += sub.k(),
        }
    }
    let whole = match plan.scheme {
        PartitionScheme::WeightSharing => (gemm.m(), 0, 0),
        PartitionScheme::DySharing => (0, 0, gemm.n()),
        PartitionScheme::IfmapSharing => (0, gemm.k(), 0),
    };
    assert_eq!(
        (m_off, k_off, n_off),
        whole,
        "the partitions must tile the layer"
    );
    out
}

fn execute_view(
    schedule: &Schedule,
    view: &PartitionView,
    layer: &DenseLayer,
    policy: TilePolicy,
    out: &mut ExecutedGradients,
) {
    let dy_grid = view.sub.dy_grid(policy.tile);
    let x_grid = view.sub.dx_grid(policy.tile);
    let w_grid = view.sub.dw_grid(policy.tile);
    let t = policy.tile;

    for op in schedule.ops() {
        let ScheduleOp::Gemm(g) = op else { continue };
        let acc = g.acc.expect("backward ops accumulate");
        if acc.key.tensor == view.tensors.dx {
            execute_dx_op(g, view, layer, &dy_grid, &x_grid, t.rows, out);
        } else if acc.key.tensor == view.tensors.dw {
            execute_dw_op(g, view, layer, &dy_grid, &w_grid, t.rows, out);
        } else {
            panic!(
                "unexpected accumulator tensor {:?} in backward schedule",
                acc.key.tensor
            );
        }
    }
}

fn find_read(g: &TileOp, tensor: TensorId) -> Option<(u32, u32)> {
    g.reads
        .iter()
        .find(|r| r.key.tensor == tensor)
        .map(|r| (r.key.coord.r, r.key.coord.c))
}

#[allow(clippy::too_many_arguments)]
fn execute_dx_op(
    g: &TileOp,
    view: &PartitionView,
    layer: &DenseLayer,
    dy_grid: &TileGrid,
    x_grid: &TileGrid,
    tile: u64,
    out: &mut ExecutedGradients,
) {
    let acc = g.acc.expect("dx op accumulates");
    let (ti, tk) = (acc.key.coord.r as u64, acc.key.coord.c as u64);
    // The j index comes from the dY operand tile (always read by dX ops).
    let (dy_r, dy_c) = find_read(g, view.tensors.dy).expect("dX op reads dY");
    assert_eq!(
        dy_r as u64, ti,
        "dX op dY row must match the accumulator row"
    );
    let tj = dy_c as u64;

    let dy_dims = dy_grid.tile_dims(igo_tensor::TileCoord::new(ti as u32, tj as u32));
    let dx_dims = x_grid.tile_dims(igo_tensor::TileCoord::new(ti as u32, tk as u32));
    let (gm, gk, gn) = (layer.gemm.m(), layer.gemm.k(), layer.gemm.n());
    let _ = gm;

    for li in 0..dy_dims.rows {
        let i = view.m_off + ti * tile + li;
        for lk in 0..dx_dims.cols {
            let kk = view.k_off + tk * tile + lk;
            let mut acc_v = 0.0f32;
            for lj in 0..dy_dims.cols {
                let j = view.n_off + tj * tile + lj;
                acc_v += layer.dy[(i * gn + j) as usize] * layer.w[(kk * gn + j) as usize];
            }
            out.dx[(i * gk + kk) as usize] += acc_v;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn execute_dw_op(
    g: &TileOp,
    view: &PartitionView,
    layer: &DenseLayer,
    dy_grid: &TileGrid,
    w_grid: &TileGrid,
    tile: u64,
    out: &mut ExecutedGradients,
) {
    let acc = g.acc.expect("dw op accumulates");
    let (tk, tj) = (acc.key.coord.r as u64, acc.key.coord.c as u64);
    // The i index comes from the X operand tile (always read by dW ops,
    // even when dY reads are elided).
    let (x_r, x_c) = find_read(g, view.tensors.x).expect("dW op reads X");
    assert_eq!(
        x_c as u64, tk,
        "dW op X column must match the accumulator row"
    );
    let ti = x_r as u64;

    let dy_dims = dy_grid.tile_dims(igo_tensor::TileCoord::new(ti as u32, tj as u32));
    let dw_dims = w_grid.tile_dims(igo_tensor::TileCoord::new(tk as u32, tj as u32));
    let (gk, gn) = (layer.gemm.k(), layer.gemm.n());

    for lk in 0..dw_dims.rows {
        let kk = view.k_off + tk * tile + lk;
        for lj in 0..dw_dims.cols {
            let j = view.n_off + tj * tile + lj;
            let mut acc_v = 0.0f32;
            for li in 0..dy_dims.rows {
                let i = view.m_off + ti * tile + li;
                acc_v += layer.x[(i * gk + kk) as usize] * layer.dy[(i * gn + j) as usize];
            }
            out.dw[(kk * gn + j) as usize] += acc_v;
        }
    }
}

/// Maximum absolute element difference between two equally sized vectors.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "gradient size mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::BackwardBuilder;
    use igo_tensor::{DataType, TileShape};

    fn tiny_policy() -> TilePolicy {
        TilePolicy {
            tile: TileShape::square(8),
            dtype: DataType::F32,
            capacity_tiles: 12,
        }
    }

    fn check_order(gemm: GemmShape, order: BackwardOrder, seed: u64) {
        let layer = DenseLayer::random(gemm, seed);
        let policy = tiny_policy();
        let mut s = Schedule::new("exec");
        let tensors = LayerTensors::register(&mut s, "l");
        BackwardBuilder::new(gemm, policy, tensors).emit(order, false, &mut s);
        let got = execute_backward(&s, tensors, &layer, policy);
        let tol = 1e-3 * gemm.max_dim() as f32;
        assert!(
            max_abs_diff(&got.dx, &layer.reference_dx()) < tol,
            "{order:?} dX mismatch on {gemm}"
        );
        assert!(
            max_abs_diff(&got.dw, &layer.reference_dw()) < tol,
            "{order:?} dW mismatch on {gemm}"
        );
    }

    #[test]
    fn all_orders_compute_correct_gradients() {
        let gemm = GemmShape::new(37, 21, 29);
        for order in [
            BackwardOrder::Baseline,
            BackwardOrder::IdealDyReuse,
            BackwardOrder::Interleaved,
            BackwardOrder::DxMajor,
            BackwardOrder::DwMajor,
        ] {
            check_order(gemm, order, 11);
        }
    }

    #[test]
    fn tile_aligned_shapes_also_correct() {
        check_order(GemmShape::new(32, 16, 24), BackwardOrder::DxMajor, 5);
        check_order(GemmShape::new(8, 8, 8), BackwardOrder::Interleaved, 6);
    }

    #[test]
    fn partitions_reduce_to_reference() {
        let gemm = GemmShape::new(40, 24, 32);
        let layer = DenseLayer::random(gemm, 3);
        let policy = tiny_policy();
        for scheme in PartitionScheme::ALL {
            for parts in [2u64, 3] {
                let plan = crate::partition::plan_partition_backward(
                    gemm,
                    1.0,
                    policy.dtype,
                    scheme,
                    parts,
                    false,
                );
                let got = execute_partitioned(&plan, BackwardOrder::DxMajor, false, &layer, policy);
                let tol = 1e-3 * gemm.max_dim() as f32;
                assert!(
                    max_abs_diff(&got.dx, &layer.reference_dx()) < tol,
                    "{scheme} x{parts} dX"
                );
                assert!(
                    max_abs_diff(&got.dw, &layer.reference_dw()) < tol,
                    "{scheme} x{parts} dW"
                );
            }
        }
    }

    #[test]
    fn first_layer_dw_only_computes_dw() {
        let gemm = GemmShape::new(24, 16, 16);
        let layer = DenseLayer::random(gemm, 9);
        let policy = tiny_policy();
        let mut s = Schedule::new("first");
        let tensors = LayerTensors::register(&mut s, "l");
        BackwardBuilder::new(gemm, policy, tensors).emit(BackwardOrder::DxMajor, true, &mut s);
        let got = execute_backward(&s, tensors, &layer, policy);
        assert!(max_abs_diff(&got.dw, &layer.reference_dw()) < 1e-2);
        assert!(got.dx.iter().all(|&v| v == 0.0), "no dX for a first layer");
    }

    #[test]
    fn forward_reference_matches_manual() {
        // 2x2x2 hand-checked case.
        let gemm = GemmShape::new(2, 2, 2);
        let layer = DenseLayer {
            gemm,
            x: vec![1.0, 2.0, 3.0, 4.0],
            w: vec![5.0, 6.0, 7.0, 8.0],
            dy: vec![1.0, 0.0, 0.0, 1.0],
        };
        assert_eq!(layer.reference_y(), vec![19.0, 22.0, 43.0, 50.0]);
        // dX = dY * W^T = W^T (identity dY), row-major.
        assert_eq!(layer.reference_dx(), vec![5.0, 7.0, 6.0, 8.0]);
        // dW = X^T * dY.
        assert_eq!(layer.reference_dw(), vec![1.0, 3.0, 2.0, 4.0]);
    }

    /// Any order on any small shape reproduces the dense gradients
    /// (deterministic sampling in place of a property-based sweep).
    #[test]
    fn gradients_correct_for_random_shapes() {
        let orders = [
            BackwardOrder::Baseline,
            BackwardOrder::IdealDyReuse,
            BackwardOrder::Interleaved,
            BackwardOrder::DxMajor,
            BackwardOrder::DwMajor,
        ];
        let mut rng = SplitMix64::new(0x1607);
        for case in 0..12 {
            let m = rng.range_u64(1, 48);
            let k = rng.range_u64(1, 40);
            let n = rng.range_u64(1, 40);
            let order = orders[rng.index(orders.len())];
            let seed = rng.range_u64(0, 1000);
            check_order(GemmShape::new(m, k, n), order, seed + case);
        }
    }
}
