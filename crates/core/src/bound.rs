//! Closed-form admissible lower bounds for backward-pass candidates.
//!
//! The schedule builders in [`crate::schedule`] emit, for every order
//! family, the *same multiset* of tile operations — only the traversal
//! order differs (plus the baseline's mid-stream barrier and the
//! ideal-reuse study's elided `dY` reads). That makes most report fields
//! computable in closed form from the tile grids alone, without emitting a
//! single op:
//!
//! * **compute cycles, MACs, op/access counts, SPM bytes touched** are
//!   order-independent and *exact* — the systolic tile-cycle formula is a
//!   product of per-axis factors, so the triple sum over the tile grid
//!   factorises ([`igo_npu_sim::compute_sum`]);
//! * **DRAM traffic** is bounded below by the *compulsory* traffic of each
//!   barrier-delimited region: every distinct tile whose first touch in a
//!   region is a clean read must be fetched at least once (the SPM is
//!   cleared at barriers), and every accumulator tile is written back at
//!   least once. Accumulator first touches materialise in SPM without a
//!   fetch, so they contribute misses but no read traffic;
//! * the fused sweeps additionally pay **partial-result spills** whenever a
//!   sweep window's working set exceeds the SPM: for any contiguous window
//!   of the access stream, at most `capacity` bytes can be resident when it
//!   starts, so `(distinct window bytes − capacity)` must be fetched during
//!   the window — summed over the disjoint `(K-chunk, sweep-block, j)`
//!   windows of the dXmajor nest (and the dWmajor mirror). Only tiles that
//!   can materialise for free (accumulators on their first region touch)
//!   are excluded.
//!
//! Every candidate's bound comes from one walker, [`stream_bound`], over the
//! candidate's own builders and the region table of
//! [`BackwardOrder::regions`]: a single-core candidate is one chained
//! stream, a multi-core candidate one stream per core
//! ([`candidate_bound`]). Every bound here is *admissible* with respect to
//! [`Engine::run`] — the audit fuzzes this field by field — which is what
//! makes it safe for candidate pruning: a candidate whose bound exceeds the
//! incumbent's simulated cycles can be discarded without emission or
//! replay.

use crate::schedule::{BackwardBuilder, BackwardOrder};
use igo_npu_sim::{
    compute_sum, reduction_cycles, Axis, BoundAccum, Engine, NpuConfig, StreamOp, TensorId,
};
use igo_tensor::{TensorClass, TileGrid};

/// Closed-form tile counts and compute of one builder.
struct Grids {
    mt: u64,
    kt: u64,
    nt: u64,
    /// Exact compute cycles of the full dX op family.
    dx_compute: u64,
    /// Exact compute cycles of the full dW op family.
    dw_compute: u64,
}

fn row_axis(grid: &TileGrid) -> Axis {
    let count = grid.rows();
    Axis {
        count: count as u64,
        full: grid.tile_dims(igo_tensor::TileCoord::new(0, 0)).rows,
        last: grid
            .tile_dims(igo_tensor::TileCoord::new(count - 1, 0))
            .rows,
    }
}

fn col_axis(grid: &TileGrid) -> Axis {
    let count = grid.cols();
    Axis {
        count: count as u64,
        full: grid.tile_dims(igo_tensor::TileCoord::new(0, 0)).cols,
        last: grid
            .tile_dims(igo_tensor::TileCoord::new(0, count - 1))
            .cols,
    }
}

fn grids(b: &BackwardBuilder, engine: &Engine) -> Grids {
    let (dy_g, x_g, w_g) = (b.dy_grid(), b.x_grid(), b.w_grid());
    Grids {
        mt: dy_g.rows() as u64,
        kt: x_g.cols() as u64,
        nt: dy_g.cols() as u64,
        // dX[i,kk] += dY[i,j]·Wᵀ[j,kk]: per-op shape (dy_rows_i, dy_cols_j,
        // dx_cols_kk), summed over the full (i, j, kk) grid.
        dx_compute: compute_sum(engine, row_axis(dy_g), col_axis(dy_g), col_axis(x_g)),
        // dW[kk,j] += Xᵀ[kk,i]·dY[i,j]: per-op shape (dw_rows_kk,
        // dy_rows_i, dw_cols_j).
        dw_compute: compute_sum(engine, row_axis(w_g), row_axis(dy_g), col_axis(w_g)),
    }
}

/// Accumulate the order-independent exact terms of one builder's emission:
/// compute cycles, op/MAC/access counts and SPM bytes touched.
fn exact_terms(
    acc: &mut BoundAccum,
    b: &BackwardBuilder,
    g: &Grids,
    order: BackwardOrder,
    is_first: bool,
) {
    let ops = g.mt * g.kt * g.nt;
    let bytes = |role| b.grid_sum(role).bytes;
    let (dy, w, x) = (
        bytes(TensorClass::OutGrad),
        bytes(TensorClass::Weight),
        bytes(TensorClass::Ifmap),
    );
    if is_first {
        // First layer: the dW pass only, elision never applied.
        acc.compute_cycles += g.dw_compute;
        acc.gemm_ops += ops;
        acc.macs += b.gemm().macs();
        acc.accesses += 3 * ops;
        acc.spm_bytes_touched += g.nt * x + g.kt * dy + g.mt * w;
        return;
    }
    let elide = order == BackwardOrder::IdealDyReuse;
    acc.compute_cycles += g.dx_compute + g.dw_compute;
    acc.gemm_ops += 2 * ops;
    acc.macs += b.gemm().backward_macs();
    acc.accesses += 3 * ops + if elide { 2 } else { 3 } * ops;
    // Every order emits the same op multiset: the dX family touches
    // kt·ΣdY + mt·ΣW + nt·ΣdX bytes, the dW family nt·ΣX (+ kt·ΣdY unless
    // elided) + mt·ΣdW.
    acc.spm_bytes_touched += g.kt * dy + g.mt * w + g.nt * x;
    acc.spm_bytes_touched += g.nt * x + g.mt * w;
    if !elide {
        acc.spm_bytes_touched += g.kt * dy;
    }
}

/// Admissible bound terms of one single-core stream: `builders` emitted in
/// `order` back to back, as partition segments chain, with no barrier
/// between them (a plain emission is a chain of one).
///
/// The stream's regions are the builders' [`BackwardOrder::regions`] in
/// order, except that a segment's last region merges with the next
/// segment's first. The SPM is cleared at every barrier, so in each merged
/// region every tensor id it touches is compulsory once: each tile read
/// clean is fetched, and each accumulator tile materialises without a fetch
/// and is written back. A chain of one also pays the fused sweeps' capacity
/// window floor ([`fused_window_bytes`]).
pub fn stream_bound(
    builders: &[BackwardBuilder],
    order: BackwardOrder,
    is_first: bool,
    engine: &Engine,
) -> BoundAccum {
    let mut acc = BoundAccum::default();
    // Ids already counted in the current merged region.
    let mut counted: Vec<TensorId> = Vec::new();
    for b in builders {
        let g = grids(b, engine);
        exact_terms(&mut acc, b, &g, order, is_first);
        for (i, region) in order.regions(is_first).iter().enumerate() {
            if i > 0 {
                counted.clear(); // a barrier inside the segment
            }
            let roles = (region.reads.iter().map(|&r| (r, true)))
                .chain(region.accs.iter().map(|&r| (r, false)));
            for (role, read) in roles {
                let id = b.tensors().of(role);
                if counted.contains(&id) {
                    continue;
                }
                counted.push(id);
                let sum = b.grid_sum(role);
                acc.mem_bytes += sum.bytes;
                acc.misses += sum.tiles;
                if read {
                    acc.traffic.add_read(role, sum.bytes);
                    acc.bursts += sum.tiles;
                } else {
                    acc.traffic.add_write(role, sum.bytes);
                }
            }
        }
        // A standalone fused sweep also pays its capacity-window floor.
        let standalone = builders.len() == 1 && !is_first;
        let dx_major = match order {
            BackwardOrder::DxMajor if standalone => true,
            BackwardOrder::DwMajor if standalone => false,
            _ => continue,
        };
        let window = fused_window_bytes(b, dx_major, engine)
            + b.grid_sum(TensorClass::InGrad).bytes
            + b.grid_sum(TensorClass::WGrad).bytes;
        acc.mem_bytes = acc.mem_bytes.max(window);
    }
    acc
}

/// The streams a candidate's `builders` run as on `config`: one chain on a
/// single core, one builder per core otherwise.
pub fn streams<'a>(
    builders: &'a [BackwardBuilder],
    config: &NpuConfig,
) -> std::slice::Chunks<'a, BackwardBuilder> {
    builders.chunks(match config.cores {
        1 => builders.len().max(1),
        _ => 1,
    })
}

/// Admissible cycle bound of one backward candidate on `config`: the
/// slowest of its [`streams`]' [`stream_bound`]s, mirroring the engine's
/// `max(core cycles)` makespan, plus the exact `reduction` term.
pub fn candidate_bound(
    builders: &[BackwardBuilder],
    order: BackwardOrder,
    is_first: bool,
    reduction: Option<StreamOp>,
    config: &NpuConfig,
    engine: &Engine,
) -> u64 {
    let cycles = |s| stream_bound(s, order, is_first, engine).cycles(engine);
    let slowest = streams(builders, config).map(cycles).max().unwrap_or(0);
    slowest + reduction_cycles(config, reduction)
}

/// The capacity-window fetch floor of one fused sweep: over the disjoint
/// `(K-chunk, sweep-block, sweep-position)` windows of the nest, bytes
/// touched beyond the SPM capacity must be fetched within the window.
/// Accumulator tiles first touched inside a window are excluded (they
/// materialise without a fetch). Returns total fetched bytes; write-backs
/// are accounted separately by the caller.
fn fused_window_bytes(b: &BackwardBuilder, dx_major: bool, engine: &Engine) -> u64 {
    let cap = engine.residency_bytes();
    let dtype = b.policy().dtype;
    let (mt, kt, nt) = (
        b.dy_grid().rows() as u64,
        b.x_grid().cols() as u64,
        b.dy_grid().cols() as u64,
    );
    let (kb, bs) = b.fused_blocks(dx_major);
    let (sweep, minor) = if dx_major { (mt, nt) } else { (nt, mt) };

    // Per-tile bytes by (edge_row, edge_col) corner.
    let tb = |grid: &TileGrid, er: bool, ec: bool, density: bool| -> u64 {
        let coord = igo_tensor::TileCoord::new(
            if er { grid.rows() - 1 } else { 0 },
            if ec { grid.cols() - 1 } else { 0 },
        );
        let raw = grid.tile_bytes(coord, dtype);
        if density {
            ((raw as f64 * b.density()).ceil() as u64).max(4)
        } else {
            raw
        }
    };
    // Bytes of a sub-rectangle of `grid` spanning `rf` full + `re` edge
    // rows and `cf` full + `ce` edge columns.
    let rect = |grid: &TileGrid, density: bool, rf: u64, re: u64, cf: u64, ce: u64| -> u64 {
        rf * cf * tb(grid, false, false, density)
            + rf * ce * tb(grid, false, true, density)
            + re * cf * tb(grid, true, false, density)
            + re * ce * tb(grid, true, true, density)
    };
    // Split a 1-D tile range `[lo, hi)` of an axis with `count` tiles into
    // (full, edge) tile counts — only the axis-last tile is clipped.
    let split = |lo: u64, hi: u64, count: u64| -> (u64, u64) {
        let edge = u64::from(hi == count);
        (hi - lo - edge, edge)
    };

    let mut total = 0u64;
    let mut k0 = 0;
    while k0 < kt {
        let k_end = (k0 + kb).min(kt);
        let (kf, ke) = split(k0, k_end, kt);
        let mut s0 = 0;
        let mut first_block = true;
        while s0 < sweep {
            let s_end = (s0 + bs).min(sweep);
            let (sf, se) = split(s0, s_end, sweep);
            // The minor-axis positions fall in three classes: the first
            // (the block's per-position accumulators materialise free
            // there), the interior fulls (which all share one working-set
            // value), and the clipped last. `pf`/`pe` say whether the
            // position's minor-axis tile is full or the grid edge.
            let classes = [
                // first position
                (1u64, u64::from(minor > 1), u64::from(minor == 1), true),
                // interior full positions
                (minor.saturating_sub(2), 1, 0, false),
                // last position (when distinct from the first)
                (u64::from(minor > 1), 0, 1, false),
            ];
            for (positions, pf, pe, is_first_pos) in classes {
                if positions == 0 {
                    continue;
                }
                let mut bytes = if dx_major {
                    // Window (chunk, i-block, j): dY[i∈B, j] + W[kk∈c, j]
                    // + X[i∈B, kk∈c] + dX[i∈B, kk∈c] (absent at j == 0)
                    // + dW[kk∈c, j] (absent in the chunk's first block).
                    rect(b.dy_grid(), false, sf, se, pf, pe)
                        + rect(b.w_grid(), false, kf, ke, pf, pe)
                        + rect(b.x_grid(), true, sf, se, kf, ke)
                } else {
                    // Window (chunk, j-block, i): dY[i, j∈B] + X[i, kk∈c]
                    // + W[kk∈c, j∈B] + dW[kk∈c, j∈B] (absent at i == 0)
                    // + dX[i, kk∈c] (absent in the chunk's first block).
                    rect(b.dy_grid(), false, pf, pe, sf, se)
                        + rect(b.x_grid(), true, pf, pe, kf, ke)
                        + rect(b.w_grid(), false, kf, ke, sf, se)
                };
                if !is_first_pos {
                    // The block's per-position accumulator re-enters the
                    // working set after its first touch.
                    bytes += if dx_major {
                        rect(b.x_grid(), true, sf, se, kf, ke)
                    } else {
                        rect(b.w_grid(), false, kf, ke, sf, se)
                    };
                }
                if !first_block {
                    // The chunk-wide accumulator was first touched in the
                    // chunk's first sweep block.
                    bytes += if dx_major {
                        rect(b.w_grid(), false, kf, ke, pf, pe)
                    } else {
                        rect(b.x_grid(), true, pf, pe, kf, ke)
                    };
                }
                total += positions * bytes.saturating_sub(cap);
            }
            first_block = false;
            s0 = s_end;
        }
        k0 = k_end;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::LayerTensors;
    use crate::tiling::TilePolicy;
    use igo_npu_sim::Schedule;
    use igo_tensor::GemmShape;

    fn setup(gemm: GemmShape, config: &NpuConfig) -> (Schedule, BackwardBuilder, Engine) {
        let mut s = Schedule::new("bound-test");
        let tensors = LayerTensors::register(&mut s, "l");
        let policy = TilePolicy::for_config(config);
        let b = BackwardBuilder::new(gemm, policy, tensors);
        (s, b, Engine::new(config))
    }

    const ORDERS: [BackwardOrder; 5] = [
        BackwardOrder::Baseline,
        BackwardOrder::IdealDyReuse,
        BackwardOrder::Interleaved,
        BackwardOrder::DxMajor,
        BackwardOrder::DwMajor,
    ];

    #[test]
    fn emission_bound_is_admissible_per_field() {
        for config in [NpuConfig::small_edge(), NpuConfig::large_single_core()] {
            for gemm in [
                GemmShape::new(512, 384, 640),
                GemmShape::new(129, 257, 383),
                GemmShape::new(2048, 64, 4096),
            ] {
                for order in ORDERS {
                    for is_first in [false, true] {
                        let (proto, b, engine) = setup(gemm, &config);
                        let mut s = proto.fork("emit");
                        b.emit(order, is_first, &mut s);
                        let report = engine.run(&s);
                        let bound =
                            stream_bound(std::slice::from_ref(&b), order, is_first, &engine);
                        let a = bound.finish(&engine);
                        let label = format!("{order:?} first={is_first} {gemm:?}");
                        assert_eq!(a.compute_cycles, report.compute_cycles, "{label}");
                        assert_eq!(a.gemm_ops, report.gemm_ops, "{label}");
                        assert_eq!(a.macs, report.macs, "{label}");
                        assert_eq!(a.spm_bytes_touched, report.spm_bytes_touched, "{label}");
                        assert!(a.cycles <= report.cycles, "{label}");
                        assert!(a.mem_cycles <= report.mem_cycles, "{label}");
                        assert!(a.spm_misses <= report.spm_misses, "{label}");
                        assert!(a.spm_hits >= report.spm_hits, "{label}");
                        for class in igo_tensor::TensorClass::ALL {
                            assert!(
                                a.traffic.read(class) <= report.traffic.read(class),
                                "{label} read {class:?}"
                            );
                            assert!(
                                a.traffic.write(class) <= report.traffic.write(class),
                                "{label} write {class:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fused_window_term_tightens_spill_heavy_cases() {
        // A shape whose fused sweep cannot hold its accumulators: the
        // window term must push the bound above the compulsory floor while
        // staying admissible.
        let config = NpuConfig::small_edge();
        let gemm = GemmShape::new(4096, 1024, 1024);
        let (proto, b, engine) = setup(gemm, &config);
        let mut s = proto.fork("dxm");
        b.emit(BackwardOrder::DxMajor, false, &mut s);
        let report = engine.run(&s);
        let bound = |order| stream_bound(std::slice::from_ref(&b), order, false, &engine);
        let with_window = bound(BackwardOrder::DxMajor);
        let compulsory = bound(BackwardOrder::Interleaved);
        assert!(with_window.cycles(&engine) <= report.cycles);
        assert!(
            with_window.mem_bytes >= compulsory.mem_bytes,
            "window floor must not be weaker than compulsory"
        );
    }

    #[test]
    fn every_candidate_bound_is_admissible_and_counts_compulsory_traffic() {
        // Chained single-core partitions and per-core multi-core streams of
        // every data-partitioning candidate, on the layers whose winners
        // pruning must keep (see `every_options_combination_selects_identically`).
        for config in [NpuConfig::small_edge(), NpuConfig::large_server(2)] {
            for gemm in [
                GemmShape::new(25088, 64, 256),
                GemmShape::new(512, 576, 256),
                GemmShape::new(4096, 1024, 1024),
            ] {
                for is_first in [false, true] {
                    let technique = crate::technique::Technique::DataPartitioning;
                    let failures = crate::audit::candidate_bound_failures(
                        gemm, 1.0, &config, technique, is_first,
                    );
                    assert!(
                        failures.is_empty(),
                        "{gemm} on {} (first={is_first}): {failures:#?}",
                        config.name
                    );
                }
            }
        }
    }
}
