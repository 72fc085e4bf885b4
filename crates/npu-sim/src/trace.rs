//! Tile-operation streams: the contract between schedulers and the machine.
//!
//! A [`Schedule`] is an ordered stream of [`ScheduleOp`]s over a set of
//! registered tensors. A [`TileOp`] is one tiled GEMM: it *reads* operand
//! tiles, optionally *accumulates* into a result tile (read-modify-write in
//! SPM), and performs a tile-GEMM of given dimensions on the systolic array.
//! A [`StreamOp`] models non-GEMM data movement (e.g. cross-partition
//! gradient reduction, element-wise activation backward) as a pure
//! bandwidth cost.
//!
//! Schedules are *declarative* about data: the engine derives all DRAM
//! traffic from tile residency, so two schedules performing the same tile
//! GEMMs in different orders — the whole point of the paper — cost the same
//! compute but different memory traffic.

use igo_tensor::{GemmShape, TensorClass, TileCoord};
use std::sync::Arc;
/// Opaque identifier of one tensor within a [`Schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TensorId(u32);

impl TensorId {
    /// Build from a raw index (for tests and serialisation).
    pub const fn from_raw(raw: u32) -> Self {
        Self(raw)
    }

    /// The raw index.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

/// A tile of one tensor: the unit of SPM residency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TileKey {
    /// The tensor this tile belongs to.
    pub tensor: TensorId,
    /// Grid coordinates within the tensor.
    pub coord: TileCoord,
}

/// One tile access (operand read or accumulator touch) with its byte size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileAccess {
    /// Which tile.
    pub key: TileKey,
    /// Clipped tile size in bytes.
    pub bytes: u64,
}

/// The operand reads of a [`TileOp`], stored inline. A tile GEMM reads at
/// most two operand tiles (the cap [`TileOpSpec::read`] enforces too), so
/// a materialised schedule allocates no per-op read list. Dereferences to
/// the filled prefix as a slice.
#[derive(Clone, Copy)]
pub struct TileReads {
    len: u8,
    slots: [TileAccess; 2],
}

impl TileReads {
    const EMPTY: TileAccess = TileAccess {
        key: TileKey {
            tensor: TensorId(0),
            coord: TileCoord { r: 0, c: 0 },
        },
        bytes: 0,
    };

    /// No reads.
    pub const fn new() -> Self {
        Self {
            len: 0,
            slots: [Self::EMPTY; 2],
        }
    }

    /// Append a read.
    ///
    /// # Panics
    ///
    /// Panics if both read slots are already taken.
    pub fn push(&mut self, access: TileAccess) {
        assert!(self.len < 2, "tile op already has two reads");
        self.slots[self.len as usize] = access;
        self.len += 1;
    }
}

impl Default for TileReads {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for TileReads {
    type Target = [TileAccess];

    fn deref(&self) -> &[TileAccess] {
        &self.slots[..self.len as usize]
    }
}

impl std::ops::DerefMut for TileReads {
    fn deref_mut(&mut self) -> &mut [TileAccess] {
        &mut self.slots[..self.len as usize]
    }
}

impl<'a> IntoIterator for &'a TileReads {
    type Item = &'a TileAccess;
    type IntoIter = std::slice::Iter<'a, TileAccess>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for TileReads {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for TileReads {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One tiled GEMM operation.
#[derive(Debug, Clone, PartialEq)]
pub struct TileOp {
    /// Operand tiles read by this op (at most two).
    pub reads: TileReads,
    /// Result tile this op accumulates into, if any.
    pub acc: Option<TileAccess>,
    /// Dimensions of the tile GEMM performed.
    pub compute: GemmShape,
}

impl TileOp {
    /// Start building a tile op that performs `compute`.
    pub fn new(compute: GemmShape) -> Self {
        Self {
            reads: TileReads::new(),
            acc: None,
            compute,
        }
    }

    /// Add an operand tile read.
    ///
    /// # Panics
    ///
    /// Panics if the op already has two reads.
    #[must_use]
    pub fn read(mut self, tensor: TensorId, coord: TileCoord, bytes: u64) -> Self {
        self.reads.push(TileAccess {
            key: TileKey { tensor, coord },
            bytes,
        });
        self
    }

    /// Set the accumulator tile.
    ///
    /// # Panics
    ///
    /// Panics if an accumulator was already set.
    #[must_use]
    pub fn accumulate(mut self, tensor: TensorId, coord: TileCoord, bytes: u64) -> Self {
        assert!(self.acc.is_none(), "tile op already has an accumulator");
        self.acc = Some(TileAccess {
            key: TileKey { tensor, coord },
            bytes,
        });
        self
    }

    /// Total operand bytes named by this op (independent of residency).
    pub fn operand_bytes(&self) -> u64 {
        self.reads.iter().map(|r| r.bytes).sum()
    }

    /// MACs performed.
    pub fn macs(&self) -> u64 {
        self.compute.macs()
    }
}

/// One tile access of a [`TileOpSpec`]: like [`TileAccess`] but with the
/// tensor and coordinate kept separate so the spec stays `Copy` and cheap
/// to produce in the schedule builders' hot loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileAccessSpec {
    /// The tensor the tile belongs to.
    pub tensor: TensorId,
    /// Grid coordinates within the tensor.
    pub coord: TileCoord,
    /// Clipped tile size in bytes.
    pub bytes: u64,
}

impl TileAccessSpec {
    /// The `(tensor, coord)` pair as a [`TileKey`].
    pub fn key(&self) -> TileKey {
        TileKey {
            tensor: self.tensor,
            coord: self.coord,
        }
    }
}

/// A `Copy` description of one tiled GEMM, produced by schedule builders
/// and consumed by a [`ScheduleSink`]. A [`Schedule`] sink materialises it
/// as a [`TileOp`]; the analytic collector consumes it directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileOpSpec {
    /// Up to two operand reads, filled front-to-back.
    pub reads: [Option<TileAccessSpec>; 2],
    /// The accumulator tile, if any.
    pub acc: Option<TileAccessSpec>,
    /// Dimensions of the tile GEMM performed.
    pub compute: GemmShape,
}

impl TileOpSpec {
    /// Start building a spec that performs `compute`.
    pub fn new(compute: GemmShape) -> Self {
        Self {
            reads: [None, None],
            acc: None,
            compute,
        }
    }

    /// Add an operand tile read (order-preserving).
    ///
    /// # Panics
    ///
    /// Panics if both read slots are already taken.
    #[must_use]
    pub fn read(mut self, tensor: TensorId, coord: TileCoord, bytes: u64) -> Self {
        let spec = TileAccessSpec {
            tensor,
            coord,
            bytes,
        };
        if self.reads[0].is_none() {
            self.reads[0] = Some(spec);
        } else if self.reads[1].is_none() {
            self.reads[1] = Some(spec);
        } else {
            panic!("tile op spec already has two reads");
        }
        self
    }

    /// Set the accumulator tile.
    ///
    /// # Panics
    ///
    /// Panics if an accumulator was already set.
    #[must_use]
    pub fn accumulate(mut self, tensor: TensorId, coord: TileCoord, bytes: u64) -> Self {
        assert!(
            self.acc.is_none(),
            "tile op spec already has an accumulator"
        );
        self.acc = Some(TileAccessSpec {
            tensor,
            coord,
            bytes,
        });
        self
    }

    /// Materialise as a [`TileOp`], preserving read order exactly.
    pub fn to_tile_op(&self) -> TileOp {
        let mut op = TileOp::new(self.compute);
        for r in self.reads.iter().flatten() {
            op = op.read(r.tensor, r.coord, r.bytes);
        }
        if let Some(a) = self.acc {
            op = op.accumulate(a.tensor, a.coord, a.bytes);
        }
        op
    }
}

/// Receiver of a schedule builder's op stream.
///
/// The backward/forward builders in `igo-core` are generic over this trait:
/// emitting into a [`Schedule`] materialises the stream for the cycle
/// engine, while emitting into the analytic collector
/// ([`crate::analytic::AnalyticCollector`]) evaluates the same stream
/// without building per-op heap structures. Both receivers see the ops in
/// the identical order with identical contents, which is what makes the
/// analytic replay bit-exact.
pub trait ScheduleSink {
    /// Receive one tiled GEMM.
    fn gemm(&mut self, op: &TileOpSpec);
    /// Receive a pure data-movement op.
    fn stream(&mut self, op: StreamOp);
    /// Receive a kernel boundary.
    fn barrier(&mut self);
}

impl ScheduleSink for Schedule {
    fn gemm(&mut self, op: &TileOpSpec) {
        self.push_gemm(op.to_tile_op());
    }

    fn stream(&mut self, op: StreamOp) {
        self.push_stream(op);
    }

    fn barrier(&mut self) {
        self.push_barrier();
    }
}

/// A pure data-movement operation (no compute): used for cross-partition
/// reductions and element-wise passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamOp {
    /// Traffic class for accounting.
    pub class: TensorClass,
    /// Bytes read from DRAM.
    pub read_bytes: u64,
    /// Bytes written to DRAM.
    pub write_bytes: u64,
}

/// One element of a schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleOp {
    /// A tiled GEMM.
    Gemm(TileOp),
    /// Pure data movement.
    Stream(StreamOp),
    /// A kernel boundary: dirty results are flushed and SPM residency is
    /// invalidated. Sequentially launched operations (the baseline's two
    /// gradient GEMMs, XLA-style) are separated by barriers — data staged
    /// by one kernel is not available to the next, which is exactly the
    /// lost-reuse opportunity the interleaving transformation recovers.
    Barrier,
}

#[derive(Debug, Clone, PartialEq)]
struct TensorInfo {
    class: TensorClass,
    name: String,
}

/// An ordered stream of operations over registered tensors.
///
/// The tensor table is behind an [`Arc`]: forking a schedule (the partition
/// builders create one fork per partition) shares the table instead of
/// cloning it, and only a post-fork `add_tensor` pays for a copy-on-write.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    name: String,
    tensors: Arc<Vec<TensorInfo>>,
    ops: Vec<ScheduleOp>,
}

impl Schedule {
    /// Create an empty schedule.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            tensors: Arc::new(Vec::new()),
            ops: Vec::new(),
        }
    }

    /// The schedule's name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Share this schedule's tensor table with a new, empty schedule
    /// (an `Arc` bump, not a copy).
    ///
    /// Partition schedules must be built from forks of one parent so that a
    /// tensor shared between partitions keeps a single identity: tiles of
    /// the shared tensor then hit in SPM across partition boundaries, while
    /// per-partition slices (different coordinates) stay distinct.
    pub fn fork(&self, name: impl Into<String>) -> Schedule {
        Schedule {
            name: name.into(),
            tensors: Arc::clone(&self.tensors),
            ops: Vec::new(),
        }
    }

    /// Register a tensor and get its id.
    pub fn add_tensor(&mut self, class: TensorClass, name: impl Into<String>) -> TensorId {
        let id = TensorId(self.tensors.len() as u32);
        Arc::make_mut(&mut self.tensors).push(TensorInfo {
            class,
            name: name.into(),
        });
        id
    }

    /// Traffic class of a registered tensor.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this schedule.
    pub fn class_of(&self, id: TensorId) -> TensorClass {
        self.tensors[id.0 as usize].class
    }

    /// Name of a registered tensor.
    pub fn tensor_name(&self, id: TensorId) -> &str {
        &self.tensors[id.0 as usize].name
    }

    /// Number of registered tensors.
    pub fn num_tensors(&self) -> usize {
        self.tensors.len()
    }

    /// Append a tile GEMM.
    pub fn push_gemm(&mut self, op: TileOp) {
        debug_assert!(
            op.reads
                .iter()
                .map(|r| r.key.tensor)
                .chain(op.acc.iter().map(|a| a.key.tensor))
                .all(|t| (t.0 as usize) < self.tensors.len()),
            "tile op references unregistered tensor"
        );
        self.ops.push(ScheduleOp::Gemm(op));
    }

    /// Append a pure data-movement op.
    pub fn push_stream(&mut self, op: StreamOp) {
        self.ops.push(ScheduleOp::Stream(op));
    }

    /// Append a kernel boundary (see [`ScheduleOp::Barrier`]).
    pub fn push_barrier(&mut self) {
        self.ops.push(ScheduleOp::Barrier);
    }

    /// The operation stream.
    pub fn ops(&self) -> &[ScheduleOp] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total MACs across all tile GEMMs — invariant under reordering, so
    /// every transformation of a schedule must preserve this.
    pub fn total_macs(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                ScheduleOp::Gemm(g) => g.macs(),
                ScheduleOp::Stream(_) | ScheduleOp::Barrier => 0,
            })
            .sum()
    }

    /// Total bytes named by operand reads, ignoring residency (an upper
    /// bound on read traffic).
    pub fn named_read_bytes(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                ScheduleOp::Gemm(g) => g.operand_bytes(),
                ScheduleOp::Stream(s) => s.read_bytes,
                ScheduleOp::Barrier => 0,
            })
            .sum()
    }

    /// Iterate over distinct tile keys read as operands, with the bytes of
    /// each (first occurrence wins). Useful for footprint statistics.
    pub fn unique_operand_bytes(&self) -> u64 {
        let mut seen = std::collections::HashSet::new();
        let mut total = 0;
        for op in &self.ops {
            if let ScheduleOp::Gemm(g) = op {
                for r in &g.reads {
                    if seen.insert(r.key) {
                        total += r.bytes;
                    }
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_schedule() -> Schedule {
        let mut s = Schedule::new("t");
        let dy = s.add_tensor(TensorClass::OutGrad, "dY");
        let w = s.add_tensor(TensorClass::Weight, "W");
        let dx = s.add_tensor(TensorClass::InGrad, "dX");
        for j in 0..4 {
            s.push_gemm(
                TileOp::new(GemmShape::new(16, 16, 16))
                    .read(dy, TileCoord::new(0, j), 1024)
                    .read(w, TileCoord::new(j, 0), 1024)
                    .accumulate(dx, TileCoord::new(0, 0), 1024),
            );
        }
        s
    }

    #[test]
    fn tensor_registration_round_trips() {
        let s = demo_schedule();
        assert_eq!(s.num_tensors(), 3);
        assert_eq!(s.class_of(TensorId::from_raw(0)), TensorClass::OutGrad);
        assert_eq!(s.tensor_name(TensorId::from_raw(1)), "W");
    }

    #[test]
    fn macs_sum_over_ops() {
        let s = demo_schedule();
        assert_eq!(s.total_macs(), 4 * 16 * 16 * 16);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn named_vs_unique_reads() {
        let s = demo_schedule();
        // 4 ops x 2 reads x 1 KiB named; all 8 keys distinct.
        assert_eq!(s.named_read_bytes(), 8 * 1024);
        assert_eq!(s.unique_operand_bytes(), 8 * 1024);
    }

    #[test]
    fn stream_ops_carry_traffic_only() {
        let mut s = Schedule::new("r");
        s.push_stream(StreamOp {
            class: TensorClass::WGrad,
            read_bytes: 100,
            write_bytes: 50,
        });
        assert_eq!(s.total_macs(), 0);
        assert_eq!(s.named_read_bytes(), 100);
    }

    #[test]
    fn fork_shares_tensor_table_without_copying() {
        let s = demo_schedule();
        let f = s.fork("child");
        assert!(Arc::ptr_eq(&s.tensors, &f.tensors), "fork must share");
        assert_eq!(f.num_tensors(), s.num_tensors());
        assert!(f.is_empty());
    }

    #[test]
    fn post_fork_registration_copies_on_write() {
        let s = demo_schedule();
        let mut f = s.fork("child");
        let extra = f.add_tensor(TensorClass::Partial, "spill");
        assert_eq!(f.num_tensors(), 4);
        assert_eq!(s.num_tensors(), 3, "parent untouched");
        assert_eq!(f.class_of(extra), TensorClass::Partial);
    }

    #[test]
    fn reads_are_inline_and_ordered() {
        let s = demo_schedule();
        let ScheduleOp::Gemm(g) = &s.ops()[1] else {
            panic!("demo ops are gemms");
        };
        assert_eq!(g.reads.len(), 2);
        assert_eq!(g.reads[0].key.tensor, TensorId::from_raw(0));
        assert_eq!(g.reads[1].key.coord, TileCoord::new(1, 0));
        assert_eq!(g.operand_bytes(), 2048);
        // Equality sees only the filled reads.
        let one = TileOp::new(GemmShape::new(1, 1, 1)).read(
            TensorId::from_raw(0),
            TileCoord::new(0, 0),
            4,
        );
        assert_eq!(one.reads.len(), 1);
        assert_eq!(one, one.clone());
        assert_ne!(one, TileOp::new(GemmShape::new(1, 1, 1)));
    }

    #[test]
    #[should_panic(expected = "already has two reads")]
    fn third_read_panics() {
        let t = TensorId::from_raw(0);
        let _ = TileOp::new(GemmShape::new(1, 1, 1))
            .read(t, TileCoord::new(0, 0), 4)
            .read(t, TileCoord::new(0, 1), 4)
            .read(t, TileCoord::new(0, 2), 4);
    }

    #[test]
    #[should_panic(expected = "already has an accumulator")]
    fn double_accumulator_panics() {
        let mut s = Schedule::new("x");
        let t = s.add_tensor(TensorClass::InGrad, "dX");
        let _ = TileOp::new(GemmShape::new(1, 1, 1))
            .accumulate(t, TileCoord::new(0, 0), 4)
            .accumulate(t, TileCoord::new(0, 1), 4);
    }
}
