//! Closed-form / fast-replay analytical model of the cycle engine.
//!
//! Design-space sweeps dominate simulator usage (SCALE-Sim ships an
//! analytical estimation mode next to its cycle-accurate one for exactly
//! this reason), and most of the cycle engine's per-layer cost is
//! *mechanical*: materialising a [`crate::Schedule`] (one
//! [`crate::TileOp`] per tile GEMM), flattening it into an access stream,
//! and only then walking the timelines. This module removes that overhead
//! in two tiers:
//!
//! * **Exact — allocation-free replay.** An
//!   [`AnalyticCollector`] implements [`ScheduleSink`], so the schedule
//!   builders emit the *identical* op stream into flat buffers — 8-byte
//!   access records and 12-byte op records — with tile ids computed
//!   arithmetically from grid coordinates (`base + r·cols + c`, bases laid
//!   out in ascending tensor order, so ids ascend in
//!   [`crate::trace::TileKey`] order) instead of interned through a hash
//!   map. [`AnalyticCollector::replay`] then advances the same two
//!   timelines as [`crate::Engine::run`], in the same floating-point
//!   operation order, over the same Belady replacement model the engine
//!   uses ([`ReplayOptCache`], tie-broken by dense id). The resulting
//!   [`SimReport`] is bit-identical to the engine's — fuzz-asserted in
//!   `core::audit`.
//!
//! * **Lower bound — closed form, no emission at all.** For
//!   candidate pruning, [`BoundAccum`] assembles an admissible lower bound
//!   directly from grid extents: exact compute cycles / MAC / op counts
//!   (the tile-cycle sum is separable over the three grid axes, see
//!   [`compute_sum`]), compulsory per-class DRAM traffic (each distinct
//!   tile whose first touch in a barrier-delimited region is a clean read
//!   must be fetched; every accumulator is written back at least once), a
//!   per-burst latency floor, and optional *capacity window* terms (for any
//!   contiguous access window, bytes touched beyond the SPM capacity must
//!   be transferred — the partial-result spill floor of the fused orders).
//!   Every field is provably on the optimistic side of the engine's report;
//!   the audit asserts admissibility case by case.
//!
//! The per-order composition of these pieces (which tensors live in which
//! region, fused-sweep window geometry, chained partition segments) lives
//! in `igo-core`'s `bound` module, next to the schedule builders it
//! mirrors.

use crate::engine::{Engine, Replacement};
use crate::opt::{
    AccessRec, ReplayOptCache, BARRIER_ID, MAX_STREAM_POSITIONS, MAX_TILE_IDS, NO_USE,
};
use crate::stats::{SimReport, Traffic};
use crate::trace::{ScheduleSink, StreamOp, TensorId, TileOpSpec};
use igo_tensor::{DataType, GemmShape, TensorClass, TileCoord, TileGrid};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of analytic replays, the fast-path twin of
/// [`crate::engine_run_count`]: a replay is a full evaluation of a layer
/// schedule that did *not* consume an engine run.
static ANALYTIC_RUNS: AtomicU64 = AtomicU64::new(0);

/// Total [`AnalyticCollector::replay`] invocations so far in this process.
pub fn analytic_run_count() -> u64 {
    ANALYTIC_RUNS.load(Ordering::Relaxed)
}

/// One recorded schedule op, packed to 12 bytes: tile shapes and stream
/// ops are interned in side tables, so the op stream carries indices.
#[derive(Debug, Clone, Copy)]
enum OpRec {
    /// A tile GEMM with `accesses` consecutive entries in the access
    /// stream, computing interned shape `shape`.
    Gemm { accesses: u32, shape: u32 },
    /// Pure data movement: an index into the stream-op table.
    Stream(u32),
    /// Kernel boundary (owns one sentinel entry in the access stream).
    Barrier,
}

/// Per-tensor entry of the dense tile-id registry.
#[derive(Debug, Clone, Copy)]
struct TensorEntry {
    class: TensorClass,
    tiles: u64,
    cols: u32,
    /// First dense id; assigned when emission starts.
    base: u32,
}

/// A [`ScheduleSink`] that records the op stream into flat buffers for
/// [`AnalyticCollector::replay`], with no per-op heap allocation.
///
/// Tensors must be registered (with their tile-grid extents) before any of
/// their tiles are emitted; the schedule builders know every grid they
/// touch, so registration is a handful of calls per layer. When emission
/// starts, dense tile ids are laid out in ascending [`TensorId`] order
/// (`base + r·cols + c`), so dense-id order *is* [`crate::trace::TileKey`]
/// order and an id doubles as the replacement tie-break rank.
#[derive(Debug, Default)]
pub struct AnalyticCollector {
    tensors: Vec<Option<TensorEntry>>,
    /// Whether dense bases have been laid out (emission has started).
    sealed: bool,
    /// Dense id → traffic class (for write-back attribution).
    dense_class: Vec<TensorClass>,
    stream: Vec<AccessRec>,
    ops: Vec<OpRec>,
    /// Interned tile-GEMM shapes and how many ops compute each.
    shapes: Vec<(GemmShape, u64)>,
    /// Index of the most recently interned shape (consecutive ops
    /// overwhelmingly share one).
    last_shape: usize,
    streams: Vec<StreamOp>,
    /// Sum of all access bytes.
    bytes_touched: u64,
}

impl AnalyticCollector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop all recorded state but keep the allocations (hot-loop reuse).
    pub fn clear(&mut self) {
        self.tensors.clear();
        self.sealed = false;
        self.dense_class.clear();
        self.stream.clear();
        self.ops.clear();
        self.shapes.clear();
        self.last_shape = 0;
        self.streams.clear();
        self.bytes_touched = 0;
    }

    /// Number of recorded schedule ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Register `tensor` with the extents of `grid` so its tiles map to
    /// dense ids. Re-registering the same tensor is a checked no-op;
    /// registering tensors that are never touched is harmless.
    ///
    /// # Panics
    ///
    /// Panics if emission has started and `tensor` is lower than a tensor
    /// already registered: its ids would break `TileKey` order.
    pub fn register_tensor(&mut self, tensor: TensorId, class: TensorClass, grid: &TileGrid) {
        let raw = tensor.raw() as usize;
        if let Some(Some(entry)) = self.tensors.get(raw) {
            debug_assert_eq!(entry.cols, grid.cols(), "re-registration must agree");
            return;
        }
        assert!(
            !self.sealed || raw >= self.tensors.len(),
            "tensor {raw} registered after emission started, below tensor {}: \
             dense ids would leave TileKey order",
            self.tensors.len() - 1
        );
        if self.tensors.len() <= raw {
            self.tensors.resize(raw + 1, None);
        }
        let mut entry = TensorEntry {
            class,
            tiles: grid.num_tiles(),
            cols: grid.cols(),
            base: 0,
        };
        if self.sealed {
            self.lay_out(&mut entry);
        }
        self.tensors[raw] = Some(entry);
    }

    /// Give `entry` the next dense-id range.
    fn lay_out(&mut self, entry: &mut TensorEntry) {
        let base = self.dense_class.len() as u64;
        assert!(
            base + entry.tiles <= MAX_TILE_IDS,
            "tile registry overflows the dense id space"
        );
        entry.base = base as u32;
        self.dense_class
            .extend(std::iter::repeat_n(entry.class, entry.tiles as usize));
    }

    /// Lay out dense ids in ascending tensor order (emission starts).
    #[cold]
    fn seal(&mut self) {
        self.sealed = true;
        for i in 0..self.tensors.len() {
            if let Some(mut entry) = self.tensors[i] {
                self.lay_out(&mut entry);
                self.tensors[i] = Some(entry);
            }
        }
    }

    #[inline]
    fn push_access(&mut self, tensor: TensorId, coord: TileCoord, bytes: u64, dirty: bool) {
        let entry = self.tensors[tensor.raw() as usize]
            .as_ref()
            .expect("tensor touched before registration");
        let id = entry.base + coord.r * entry.cols + coord.c;
        self.stream.push(AccessRec::new(id, bytes, dirty));
        self.bytes_touched += bytes;
    }

    /// Interned index of `shape`, counting one more op of it.
    #[inline]
    fn intern_shape(&mut self, shape: GemmShape) -> u32 {
        let i = match self.shapes.get(self.last_shape) {
            Some(&(s, _)) if s == shape => self.last_shape,
            _ => match self.shapes.iter().position(|&(s, _)| s == shape) {
                Some(i) => i,
                None => {
                    self.shapes.push((shape, 0));
                    self.shapes.len() - 1
                }
            },
        };
        self.shapes[i].1 += 1;
        self.last_shape = i;
        i as u32
    }
}

impl ScheduleSink for AnalyticCollector {
    #[inline]
    fn gemm(&mut self, op: &TileOpSpec) {
        if !self.sealed {
            self.seal();
        }
        let mut accesses = 0u32;
        for r in op.reads.iter().flatten() {
            self.push_access(r.tensor, r.coord, r.bytes, false);
            accesses += 1;
        }
        if let Some(a) = &op.acc {
            self.push_access(a.tensor, a.coord, a.bytes, true);
            accesses += 1;
        }
        let shape = self.intern_shape(op.compute);
        self.ops.push(OpRec::Gemm { accesses, shape });
    }

    fn stream(&mut self, op: StreamOp) {
        self.ops.push(OpRec::Stream(self.streams.len() as u32));
        self.streams.push(op);
    }

    fn barrier(&mut self) {
        self.stream.push(AccessRec::BARRIER);
        self.ops.push(OpRec::Barrier);
    }
}

/// Reusable replay working memory (next-use oracle, write-back buffer,
/// replacement state) — the analytic twin of [`crate::EngineScratch`].
#[derive(Debug, Default)]
pub struct AnalyticScratch {
    next_use: Vec<u32>,
    last_seen: Vec<u32>,
    writebacks: Vec<(u32, u64)>,
    /// Systolic cycles of each interned tile shape.
    shape_cycles: Vec<u64>,
    /// Per barrier region: does the region's distinct-tile footprint fit
    /// in SPM (enabling the no-eviction access path)?
    region_fits: Vec<bool>,
    /// Tiles sighted in the current region during the back-scan, with their
    /// bytes — drives the per-region floor and the `last_seen` reset.
    touched: Vec<(u32, u32)>,
    /// Per tile, current-region dirtiness: bit 0 = the earliest access seen
    /// so far is dirty, bit 1 = any access is dirty.
    tile_flags: Vec<u8>,
    /// Per barrier region: admissible DRAM floor as (bytes, bursts) —
    /// compulsory clean-first-touch fetches plus one write-back per
    /// ever-dirty tile.
    region_floor: Vec<(u64, u64)>,
    /// `region_mem_suffix[i]` = summed floor mem-time of regions after `i`.
    region_mem_suffix: Vec<f64>,
    opt: ReplayOptCache,
}

impl AnalyticScratch {
    /// A fresh scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

impl AnalyticCollector {
    /// Replay the collected op stream against `engine`'s machine model and
    /// return the report: the timelines are
    /// advanced by the same floating-point operations in the same order as
    /// [`Engine::run`], and the replacement model makes identical
    /// decisions, so the report is bit-identical to running the engine on
    /// the materialised [`crate::Schedule`].
    ///
    /// # Panics
    ///
    /// Panics if `engine` is configured with LRU replacement — the replay
    /// models the compiler-managed (Belady) SPM only; callers must fall
    /// back to [`Engine::run`] for the LRU ablation.
    pub fn replay(&self, engine: &Engine, scratch: &mut AnalyticScratch) -> SimReport {
        self.replay_bounded(engine, scratch, None)
            .expect("unbounded replay always completes")
    }

    /// [`Self::replay`] with an optional cycle `cutoff`: returns `None` as
    /// soon as the replayed stream provably exceeds `cutoff` cycles, which
    /// lets candidate selection abandon dominated candidates mid-replay.
    ///
    /// The abort test is conservative in both directions of the timeline
    /// race: `mem_free` only grows, and the compute timeline must still
    /// serialise every remaining tile GEMM (their exact cycle total is
    /// pre-summed from the per-shape op counts), so
    /// `max(mem_free, compute_free + remaining)` never exceeds the final
    /// cycle count. A one-cycle guard band absorbs the float rounding of
    /// the `compute_free + remaining` sum, so `None` is returned only when
    /// the true cycles strictly exceed `cutoff` — a completed replay is
    /// bit-identical to [`Self::replay`]'s.
    pub fn replay_bounded(
        &self,
        engine: &Engine,
        scratch: &mut AnalyticScratch,
        cutoff: Option<u64>,
    ) -> Option<SimReport> {
        assert_eq!(
            engine.replacement(),
            Replacement::Opt,
            "analytic replay models OPT replacement only"
        );
        assert!(
            self.stream.len() as u64 <= MAX_STREAM_POSITIONS,
            "access stream overflows the u32 position space"
        );
        ANALYTIC_RUNS.fetch_add(1, Ordering::Relaxed);
        let AnalyticScratch {
            next_use,
            last_seen,
            writebacks,
            shape_cycles,
            region_fits,
            touched,
            tile_flags,
            region_floor,
            region_mem_suffix,
            opt,
        } = scratch;
        writebacks.clear();
        let capacity = engine.residency_bytes();
        let stream = &self.stream[..];

        // Next-use oracle over the collected stream: identical back-scan to
        // the engine's (barrier sentinels cut reuse), over dense ids that
        // were computed arithmetically instead of interned. The same scan
        // sums each region's distinct-tile footprint (a tile's bytes are
        // counted at its last use in the region) to decide per region
        // whether the no-eviction access path applies, and an admissible
        // per-region DRAM floor: every clean first touch must fetch its
        // bytes (residency is dropped at each barrier), and every
        // ever-dirty tile must be written back at least once (by eviction,
        // admission bypass, or the barrier flush).
        next_use.clear();
        next_use.resize(stream.len(), NO_USE);
        last_seen.clear();
        last_seen.resize(self.dense_class.len(), NO_USE);
        tile_flags.clear();
        tile_flags.resize(self.dense_class.len(), 0);
        touched.clear();
        region_fits.clear();
        region_floor.clear();
        let mut footprint = 0u64;
        let end_region = |footprint: u64,
                          touched: &mut Vec<(u32, u32)>,
                          tile_flags: &mut [u8],
                          last_seen: &mut [u32],
                          region_fits: &mut Vec<bool>,
                          region_floor: &mut Vec<(u64, u64)>| {
            region_fits.push(footprint <= capacity);
            let mut floor_bytes = 0u64;
            let mut floor_bursts = 0u64;
            for &(id, bytes) in touched.iter() {
                let flags = tile_flags[id as usize];
                if flags & 1 == 0 {
                    floor_bytes += bytes as u64;
                    floor_bursts += 1;
                }
                if flags & 2 != 0 {
                    floor_bytes += bytes as u64;
                }
                tile_flags[id as usize] = 0;
                last_seen[id as usize] = NO_USE;
            }
            touched.clear();
            region_floor.push((floor_bytes, floor_bursts));
        };
        for pos in (0..stream.len()).rev() {
            let rec = stream[pos];
            if rec.id == BARRIER_ID {
                end_region(
                    footprint,
                    touched,
                    tile_flags,
                    last_seen,
                    region_fits,
                    region_floor,
                );
                footprint = 0;
            } else {
                let bytes = rec.bytes();
                let later = last_seen[rec.id as usize];
                if later != NO_USE {
                    next_use[pos] = later;
                } else {
                    footprint += bytes as u64;
                    touched.push((rec.id, bytes));
                }
                last_seen[rec.id as usize] = pos as u32;
                // Bit 0 tracks the earliest (forward-order) access's
                // dirtiness — overwritten at each step of the backward
                // scan, so the last write wins; bit 1 accumulates.
                let dirty = rec.dirty() as u8;
                let flags = &mut tile_flags[rec.id as usize];
                *flags = dirty | (*flags & 2) | (dirty << 1);
            }
        }
        end_region(
            footprint,
            touched,
            tile_flags,
            last_seen,
            region_fits,
            region_floor,
        );
        region_fits.reverse();
        region_floor.reverse();

        let systolic = engine.systolic();
        let bytes_per_cycle = engine.bytes_per_cycle();
        let burst_latency = engine.burst_latency();

        // Per-shape cycles, once per replay; their count-weighted sum is
        // the compute timeline's exact total.
        shape_cycles.clear();
        let mut compute_cycles_total = 0u64;
        let mut gemm_ops = 0u64;
        let mut macs = 0u64;
        for &(shape, count) in &self.shapes {
            let cycles = systolic.tile_cycles(shape);
            shape_cycles.push(cycles);
            compute_cycles_total += count * cycles;
            gemm_ops += count;
            macs += count * shape.macs();
        }

        // The compute cycles still owed — the admissible floor behind the
        // early abort — and the per-region DRAM floor suffix sums (both
        // only needed when bounded).
        let cutoff_plus = cutoff.map(|c| (c + 1) as f64);
        let mut remaining_compute = compute_cycles_total;
        region_mem_suffix.clear();
        if let Some(limit) = cutoff_plus {
            // region_mem_suffix[i] = floor mem-time of regions strictly
            // after i; the running total over all regions is a pre-replay
            // floor that can reject the candidate before any cache work.
            region_mem_suffix.resize(region_floor.len(), 0.0);
            let mut acc = 0.0f64;
            for i in (0..region_floor.len()).rev() {
                region_mem_suffix[i] = acc;
                let (bytes, bursts) = region_floor[i];
                acc += bytes as f64 / bytes_per_cycle + (bursts * burst_latency) as f64;
            }
            if acc >= limit || remaining_compute as f64 >= limit {
                return None;
            }
        }

        opt.reset(capacity, self.dense_class.len(), stream.len());

        let mut traffic = Traffic::new();
        let mut mem_free: f64 = 0.0;
        let mut compute_free: f64 = 0.0;
        let mut mem_busy_total: f64 = 0.0;

        let mut region = 0usize;
        let mut fits = region_fits[0];
        let mut pos = 0usize;
        for op in &self.ops {
            match *op {
                OpRec::Gemm { accesses, shape } => {
                    let mut fetched = 0u64;
                    let mut writeback = 0u64;
                    let mut bursts = 0u64;
                    let end = pos + accesses as usize;
                    for (&a, &nu) in stream[pos..end].iter().zip(&next_use[pos..end]) {
                        let got = if fits {
                            opt.access_unbounded(a.id, a.bytes(), a.dirty())
                        } else {
                            opt.access(a.id, a.bytes(), a.dirty(), nu, stream, writebacks)
                        };
                        if got > 0 {
                            traffic.add_read(self.dense_class[a.id as usize], got);
                            fetched += got;
                            bursts += 1;
                        }
                        if !writebacks.is_empty() {
                            for (vid, vbytes) in writebacks.drain(..) {
                                traffic.add_write(self.dense_class[vid as usize], vbytes);
                                writeback += vbytes;
                            }
                        }
                    }
                    pos = end;

                    let move_bytes = fetched + writeback;
                    if move_bytes > 0 {
                        let mem_time = move_bytes as f64 / bytes_per_cycle
                            + (bursts.max(1) * burst_latency) as f64;
                        mem_free += mem_time;
                        mem_busy_total += mem_time;
                    }

                    let cycles = shape_cycles[shape as usize];
                    let data_ready = if move_bytes > 0 { mem_free } else { 0.0 };
                    let issue = compute_free.max(data_ready);
                    compute_free = issue + cycles as f64;
                    if let Some(limit) = cutoff_plus {
                        remaining_compute -= cycles;
                        if mem_free + region_mem_suffix[region] >= limit
                            || compute_free + remaining_compute as f64 >= limit
                        {
                            return None;
                        }
                    }
                }
                OpRec::Stream(i) => {
                    let s = self.streams[i as usize];
                    if s.read_bytes > 0 {
                        traffic.add_read(s.class, s.read_bytes);
                    }
                    if s.write_bytes > 0 {
                        traffic.add_write(s.class, s.write_bytes);
                    }
                    let bytes = s.read_bytes + s.write_bytes;
                    if bytes > 0 {
                        let mem_time = bytes as f64 / bytes_per_cycle + burst_latency as f64;
                        mem_free += mem_time;
                        mem_busy_total += mem_time;
                    }
                }
                OpRec::Barrier => {
                    opt.flush(writebacks);
                    if !writebacks.is_empty() {
                        let mut bytes = 0u64;
                        for (vid, vbytes) in writebacks.drain(..) {
                            traffic.add_write(self.dense_class[vid as usize], vbytes);
                            bytes += vbytes;
                        }
                        let mem_time = bytes as f64 / bytes_per_cycle + burst_latency as f64;
                        mem_free += mem_time;
                        mem_busy_total += mem_time;
                    }
                    opt.clear();
                    mem_free = mem_free.max(compute_free);
                    region += 1;
                    fits = region_fits[region];
                    pos += 1; // consume the barrier sentinel
                }
            }
        }

        // Final flush of remaining dirty accumulators.
        opt.flush(writebacks);
        if !writebacks.is_empty() {
            let mut bytes = 0u64;
            for (vid, vbytes) in writebacks.drain(..) {
                traffic.add_write(self.dense_class[vid as usize], vbytes);
                bytes += vbytes;
            }
            let mem_time = bytes as f64 / bytes_per_cycle + burst_latency as f64;
            mem_free += mem_time;
            mem_busy_total += mem_time;
        }

        Some(SimReport {
            cycles: mem_free.max(compute_free).ceil() as u64,
            compute_cycles: compute_cycles_total,
            mem_cycles: mem_busy_total.ceil() as u64,
            traffic,
            spm_hits: opt.hits(),
            spm_misses: opt.misses(),
            gemm_ops,
            macs,
            spm_bytes_touched: self.bytes_touched,
        })
    }
}

/// Closed-form byte/tile totals of one tensor's tile grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridSum {
    /// Distinct tiles in the grid.
    pub tiles: u64,
    /// Total bytes across all tiles (after any density scaling).
    pub bytes: u64,
}

/// Closed-form [`GridSum`] of `grid` at `dtype`: the four corner cases
/// (full/edge row × full/edge column) cover every tile, so the sum is four
/// multiplications regardless of grid size. `density` applies the raw-layout
/// scaling `max(ceil(bytes · d), 4)` per tile, matching the builders.
pub fn grid_sum(grid: &TileGrid, dtype: DataType, density: Option<f64>) -> GridSum {
    let (rows, cols) = (grid.rows(), grid.cols());
    let scale = |raw: u64| -> u64 {
        match density {
            Some(d) => ((raw as f64 * d).ceil() as u64).max(4),
            None => raw,
        }
    };
    let corner = |r: u32, c: u32| scale(grid.tile_bytes(TileCoord::new(r, c), dtype));
    let (fr, fc) = (rows as u64 - 1, cols as u64 - 1);
    let bytes = fr * fc * corner(0, 0)
        + fr * corner(0, cols - 1)
        + fc * corner(rows - 1, 0)
        + corner(rows - 1, cols - 1);
    GridSum {
        tiles: grid.num_tiles(),
        bytes,
    }
}

/// One grid axis for [`compute_sum`]: `count` tiles of extent `full`, the
/// last of extent `last` (equal to `full` when the axis divides evenly).
#[derive(Debug, Clone, Copy)]
pub struct Axis {
    /// Tile count along the axis (≥ 1).
    pub count: u64,
    /// Extent of every tile but the last.
    pub full: u64,
    /// Extent of the last tile.
    pub last: u64,
}

impl Axis {
    /// Sum `f` over all tiles of the axis.
    fn sum(&self, f: impl Fn(u64) -> u64) -> u64 {
        (self.count - 1) * f(self.full) + f(self.last)
    }
}

/// Exact total systolic cycles of the `count_m × count_k × count_n` tile
/// GEMM family whose per-op shape is `(m_i, k_j, n_l)`: the tile-cycle
/// formula `⌈k/R⌉·⌈n/C⌉·max(m,R)` is a product of per-axis factors, so the
/// triple sum factorises into three axis sums.
pub fn compute_sum(engine: &Engine, m: Axis, k: Axis, n: Axis) -> u64 {
    let pe = engine.systolic().pe();
    let (rows, cols) = (pe.rows as u64, pe.cols as u64);
    m.sum(|v| v.max(rows)) * k.sum(|v| v.div_ceil(rows)) * n.sum(|v| v.div_ceil(cols))
}

/// Accumulates the closed-form lower-bound terms of one candidate
/// execution; [`BoundAccum::finish`] assembles the admissible
/// [`SimReport`].
#[derive(Debug, Clone, Default)]
pub struct BoundAccum {
    /// Exact serial compute cycles.
    pub compute_cycles: u64,
    /// Compulsory per-class traffic (reads: clean first touches per
    /// region; writes: accumulator totals).
    pub traffic: Traffic,
    /// Memory-channel bytes floor (≥ compulsory; may include capacity
    /// window terms that cannot be attributed to a class).
    pub mem_bytes: u64,
    /// Guaranteed fetch bursts (distinct clean first touches per region)
    /// plus non-empty stream ops — each costs one burst latency.
    pub bursts: u64,
    /// Compulsory-miss floor (every distinct tile per region).
    pub misses: u64,
    /// Exact total tile accesses.
    pub accesses: u64,
    /// Exact tile-GEMM count.
    pub gemm_ops: u64,
    /// Exact MAC count.
    pub macs: u64,
    /// Exact SPM bytes touched (sum of all access bytes).
    pub spm_bytes_touched: u64,
}

impl BoundAccum {
    /// The cycle lower bound alone (for candidate pruning).
    pub fn cycles(&self, engine: &Engine) -> u64 {
        let mem = (self.mem_bytes as f64 / engine.bytes_per_cycle()
            + (self.bursts * engine.burst_latency()) as f64)
            .ceil() as u64;
        self.compute_cycles.max(mem)
    }

    /// Assemble the admissible report: cycles, memory cycles, traffic and
    /// misses never exceed the engine's, hits never fall below them, and
    /// compute cycles, op and MAC counts are exact.
    pub fn finish(&self, engine: &Engine) -> SimReport {
        let mem_cycles = (self.mem_bytes as f64 / engine.bytes_per_cycle()
            + (self.bursts * engine.burst_latency()) as f64)
            .ceil() as u64;
        SimReport {
            cycles: self.cycles(engine),
            compute_cycles: self.compute_cycles,
            mem_cycles,
            traffic: self.traffic,
            spm_hits: self.accesses - self.misses,
            spm_misses: self.misses,
            gemm_ops: self.gemm_ops,
            macs: self.macs,
            spm_bytes_touched: self.spm_bytes_touched,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PeArray;
    use crate::trace::Schedule;
    use crate::SystolicModel;

    fn engine() -> Engine {
        Engine::with_params(SystolicModel::new(PeArray::new(16, 16)), 16.0, 10, 4000)
    }

    /// Emit the same op stream into a Schedule and a collector; the replay
    /// must match the engine bit for bit.
    #[test]
    fn replay_matches_engine_on_handwritten_stream() {
        let mut s = Schedule::new("t");
        let dy = s.add_tensor(TensorClass::OutGrad, "dY");
        let dx = s.add_tensor(TensorClass::InGrad, "dX");
        let mut c = AnalyticCollector::new();
        let grid = TileGrid::new(
            igo_tensor::MatrixDims::new(64, 64),
            igo_tensor::TileShape::square(16),
        );
        c.register_tensor(dy, TensorClass::OutGrad, &grid);
        c.register_tensor(dx, TensorClass::InGrad, &grid);

        let shape = GemmShape::new(16, 16, 16);
        let mut ops: Vec<TileOpSpec> = Vec::new();
        for i in 0..4u32 {
            for j in 0..4u32 {
                ops.push(
                    TileOpSpec::new(shape)
                        .read(dy, TileCoord::new(i, j), 1024)
                        .accumulate(dx, TileCoord::new(j, i), 1024),
                );
            }
        }
        // A barrier in the middle exercises flush/clear and the sentinel.
        for (n, op) in ops.iter().enumerate() {
            if n == 7 {
                ScheduleSink::barrier(&mut s);
                c.barrier();
            }
            ScheduleSink::gemm(&mut s, op);
            c.gemm(op);
        }

        let e = engine();
        let expected = e.run(&s);
        let got = c.replay(&e, &mut AnalyticScratch::new());
        assert_eq!(got, expected);
    }

    /// One 16×16 tile per grid cell over a `rows × cols`-tile matrix.
    fn tile_grid(rows: u64, cols: u64) -> TileGrid {
        TileGrid::new(
            igo_tensor::MatrixDims::new(16 * rows, 16 * cols),
            igo_tensor::TileShape::square(16),
        )
    }

    #[test]
    fn dense_ids_ascend_in_tile_key_order() {
        let tensors = [
            (5u32, tile_grid(2, 3)),
            (2, tile_grid(3, 1)),
            (0, tile_grid(1, 2)),
        ];
        for registration in [[0, 1, 2], [2, 1, 0], [1, 2, 0]] {
            let mut c = AnalyticCollector::new();
            for i in registration {
                let (raw, grid) = &tensors[i];
                c.register_tensor(TensorId::from_raw(*raw), TensorClass::Weight, grid);
            }
            // Touch every tile once, in an order unrelated to key order.
            let mut keys = Vec::new();
            for (raw, grid) in &tensors {
                for r in 0..grid.rows() {
                    for col in (0..grid.cols()).rev() {
                        let (tensor, coord) = (TensorId::from_raw(*raw), TileCoord::new(r, col));
                        c.gemm(
                            &TileOpSpec::new(GemmShape::new(16, 16, 16)).read(tensor, coord, 64),
                        );
                        keys.push(crate::trace::TileKey { tensor, coord });
                    }
                }
            }
            let mut by_key: Vec<_> = keys
                .into_iter()
                .zip(c.stream.iter().map(|a| a.id))
                .collect();
            by_key.sort_unstable();
            let ids: Vec<u32> = by_key.iter().map(|&(_, id)| id).collect();
            assert_eq!(
                ids,
                (0..ids.len() as u32).collect::<Vec<_>>(),
                "registration order {registration:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "registered after emission started")]
    fn late_lower_registration_panics() {
        let mut c = AnalyticCollector::new();
        let grid = tile_grid(1, 1);
        c.register_tensor(TensorId::from_raw(3), TensorClass::OutGrad, &grid);
        c.gemm(&TileOpSpec::new(GemmShape::new(16, 16, 16)).read(
            TensorId::from_raw(3),
            TileCoord::new(0, 0),
            64,
        ));
        // A higher id still extends the layout in key order...
        c.register_tensor(TensorId::from_raw(4), TensorClass::InGrad, &grid);
        // ...but a lower one cannot.
        c.register_tensor(TensorId::from_raw(1), TensorClass::Weight, &grid);
    }

    #[test]
    fn replay_counts_are_tracked() {
        let before = analytic_run_count();
        let c = AnalyticCollector::new();
        let _ = c.replay(&engine(), &mut AnalyticScratch::new());
        assert!(analytic_run_count() > before);
    }

    #[test]
    fn grid_sum_matches_exhaustive_iteration() {
        let grid = TileGrid::new(
            igo_tensor::MatrixDims::new(130, 65),
            igo_tensor::TileShape::square(16),
        );
        let dtype = DataType::F32;
        for density in [None, Some(0.37)] {
            let mut bytes = 0u64;
            for r in 0..grid.rows() {
                for c in 0..grid.cols() {
                    let raw = grid.tile_bytes(TileCoord::new(r, c), dtype);
                    bytes += match density {
                        Some(d) => ((raw as f64 * d).ceil() as u64).max(4),
                        None => raw,
                    };
                }
            }
            let s = grid_sum(&grid, dtype, density);
            assert_eq!(s.bytes, bytes);
            assert_eq!(s.tiles, grid.num_tiles());
        }
    }

    #[test]
    fn compute_sum_matches_per_op_totals() {
        let e = engine();
        // 3x2x2 tile family with ragged edges in every axis.
        let m = Axis {
            count: 3,
            full: 16,
            last: 5,
        };
        let k = Axis {
            count: 2,
            full: 16,
            last: 9,
        };
        let n = Axis {
            count: 2,
            full: 16,
            last: 1,
        };
        let mut expected = 0u64;
        for mi in [16u64, 16, 5] {
            for kj in [16u64, 9] {
                for nl in [16u64, 1] {
                    expected += e.systolic().tile_cycles(GemmShape::new(mi, kj, nl));
                }
            }
        }
        assert_eq!(compute_sum(&e, m, k, n), expected);
    }
}
