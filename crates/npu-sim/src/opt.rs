//! Belady (OPT) replacement for the software-managed SPM.
//!
//! An NPU scratchpad is allocated by the compiler, which knows the entire
//! tile schedule in advance — so its residency decisions approximate
//! *optimal* replacement, not LRU: a tile that will not be needed again is
//! the first to go, and a tile with an imminent reuse is pinned. Modelling
//! the SPM as an OPT cache over the known access stream captures exactly
//! this (§1: "SPM is solely managed by the software").
//!
//! [`OptCache`] is fed each access together with the position of the
//! *next* access to the same tile (pre-computed by the engine from the
//! schedule). Eviction picks the resident tile with the furthest next use;
//! an incoming tile whose own next use is further than every resident's is
//! *bypassed* (streamed through without displacing anything) — the
//! standard OPT refinement, and precisely what a compiler does with a
//! streaming operand.
//!
//! Dirty-accumulator semantics match [`crate::SpmCache`]: a fresh
//! accumulator costs no read; evicting a dirty tile writes it back; a
//! previously spilled accumulator is re-fetched on its next touch.
//!
//! Two structures implement this policy, one per role:
//!
//! * [`ReplayOptCache`] — the hot-path model shared by the cycle
//!   [`crate::Engine`] and the analytic replay: dense tile ids, a
//!   position-indexed victim bitset, caller-provided write-back buffers,
//!   storage reused across runs.
//! * [`OptCache`] — a plain hash-map model keyed by [`TileKey`], kept as
//!   the independent shadow oracle the audit replays schedules against.

use crate::spm::AccessOutcome;
use crate::trace::TileKey;
use std::collections::{BTreeSet, HashMap, HashSet};

/// Position of an access in the flattened schedule access stream;
/// `usize::MAX` means "never used again".
pub type NextUse = usize;

#[derive(Debug, Clone)]
struct Entry {
    bytes: u64,
    dirty: bool,
    next_use: NextUse,
}

/// Byte-capacity cache with Belady's optimal replacement.
#[derive(Debug, Clone)]
pub struct OptCache {
    capacity: u64,
    used: u64,
    high_water: u64,
    entries: HashMap<TileKey, Entry>,
    /// Residents ordered by next use (furthest last).
    order: BTreeSet<(NextUse, TileKey)>,
    spilled: HashSet<TileKey>,
    hits: u64,
    misses: u64,
}

impl OptCache {
    /// Create a cache with `capacity` bytes of residency.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "SPM residency capacity must be positive");
        Self {
            capacity,
            used: 0,
            high_water: 0,
            entries: HashMap::new(),
            order: BTreeSet::new(),
            spilled: HashSet::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Residency capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently resident.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Highest residency (bytes) ever observed — the SPM occupancy
    /// high-water mark. Survives [`OptCache::clear`] so it spans kernel
    /// boundaries within one run.
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Whether `key` is resident.
    pub fn contains(&self, key: &TileKey) -> bool {
        self.entries.contains_key(key)
    }

    /// Access a tile. `dirty` marks accumulator (read-modify-write)
    /// touches; `next_use` is the stream position of the tile's next
    /// access (`usize::MAX` if none).
    pub fn access(
        &mut self,
        key: TileKey,
        bytes: u64,
        dirty: bool,
        next_use: NextUse,
    ) -> AccessOutcome {
        if let Some(entry) = self.entries.get_mut(&key) {
            // Follow tile resizes in all build profiles (see
            // `SpmCache::touch`): stale bytes would corrupt `used`.
            let old = (entry.next_use, key);
            let old_bytes = entry.bytes;
            entry.bytes = bytes;
            entry.next_use = next_use;
            entry.dirty |= dirty;
            self.order.remove(&old);
            self.order.insert((next_use, key));
            self.hits += 1;
            self.used = self.used - old_bytes + bytes;
            let mut writebacks = Vec::new();
            while self.used > self.capacity {
                // The tile grew past what fits: evict furthest-future
                // residents (possibly the touched tile itself) until the
                // residency is legal again.
                let &(victim_next, victim_key) = self
                    .order
                    .iter()
                    .next_back()
                    .expect("used > 0 implies a resident victim");
                self.order.remove(&(victim_next, victim_key));
                let victim = self
                    .entries
                    .remove(&victim_key)
                    .expect("order/entry maps out of sync");
                self.used -= victim.bytes;
                if victim.dirty {
                    writebacks.push((victim_key, victim.bytes));
                    self.spilled.insert(victim_key);
                }
            }
            self.high_water = self.high_water.max(self.used);
            return AccessOutcome {
                fetched_bytes: 0,
                writebacks,
                hit: true,
            };
        }

        self.misses += 1;
        let fetched = if dirty && !self.spilled.contains(&key) {
            0
        } else {
            bytes
        };

        // Decide residency: evict furthest-future residents, but never in
        // favour of a tile that is itself the furthest (bypass instead).
        let mut writebacks = Vec::new();
        let mut admitted = bytes <= self.capacity;
        while admitted && self.used + bytes > self.capacity {
            let &(victim_next, victim_key) = self
                .order
                .iter()
                .next_back()
                .expect("used > 0 implies a resident victim");
            if victim_next <= next_use {
                // Everyone resident is needed sooner than this tile:
                // bypass.
                admitted = false;
                break;
            }
            self.order.remove(&(victim_next, victim_key));
            let victim = self
                .entries
                .remove(&victim_key)
                .expect("order/entry maps out of sync");
            self.used -= victim.bytes;
            if victim.dirty {
                writebacks.push((victim_key, victim.bytes));
                self.spilled.insert(victim_key);
            }
        }

        if admitted {
            self.entries.insert(
                key,
                Entry {
                    bytes,
                    dirty,
                    next_use,
                },
            );
            self.order.insert((next_use, key));
            self.used += bytes;
            self.high_water = self.high_water.max(self.used);
        } else if dirty {
            // Bypassed dirty tile: write through.
            writebacks.push((key, bytes));
            self.spilled.insert(key);
        }

        AccessOutcome {
            fetched_bytes: fetched,
            writebacks,
            hit: false,
        }
    }

    /// Drop all residency and forget spill history (kernel boundary).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
        self.spilled.clear();
        self.used = 0;
    }

    /// Flush all dirty entries: returns the tiles written back. Entries
    /// stay resident but become clean.
    pub fn flush(&mut self) -> Vec<(TileKey, u64)> {
        let mut writebacks = Vec::new();
        for (key, entry) in self.entries.iter_mut() {
            if entry.dirty {
                writebacks.push((*key, entry.bytes));
                entry.dirty = false;
                self.spilled.insert(*key);
            }
        }
        writebacks
    }
}

/// "Not used again" sentinel of [`ReplayOptCache`]'s next-use positions.
pub(crate) const NO_USE: u32 = u32::MAX;

/// Dense id of the kernel-boundary sentinel in a flattened access stream.
pub(crate) const BARRIER_ID: u32 = u32::MAX;

/// Most positions one flattened access stream can hold, a barrier record
/// taking one position like an access: positions are `u32`, [`NO_USE`]
/// reserved.
pub const MAX_STREAM_POSITIONS: u64 = NO_USE as u64 - 1;

/// Most dense tile ids the tensors of one stream can span: ids are `u32`,
/// [`BARRIER_ID`] reserved.
pub const MAX_TILE_IDS: u64 = BARRIER_ID as u64 - 1;

/// Most positions a caller should let one stream hold, well inside
/// [`MAX_STREAM_POSITIONS`]: a stream's records, replay scratch and (on the
/// cycle engine) materialised ops grow with its length, so a layer needing
/// more is refused before emission rather than left to exhaust memory. The
/// largest stream of any zoo model, at its config's default batch, on any
/// shipped config (`small-npu`, `large-npu-x1` to `-x8`) holds 4,729,540
/// positions: t5-large's 2048×1024×32128 vocabulary projection on
/// `small-npu`, Baseline order chained over four weight-sharing
/// partitions. A `trace` of that layer peaks at about 0.7 GiB.
pub const STREAM_POSITION_BUDGET: u64 = 1 << 23;

const _: () = assert!(STREAM_POSITION_BUDGET <= MAX_STREAM_POSITIONS);

/// Flag bit of [`AccessRec`]'s packed bytes marking an accumulator touch.
const DIRTY_BIT: u32 = 1 << 31;

/// One tile access of a flattened schedule stream, packed to 8 bytes: the
/// record both the cycle [`crate::Engine`] and the analytic replay feed to
/// [`ReplayOptCache`].
///
/// Dense ids ascend in [`TileKey`] order (both producers number tiles that
/// way), so an id is its own victim tie-break rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AccessRec {
    /// Dense tile id, or [`BARRIER_ID`].
    pub(crate) id: u32,
    /// Access bytes (`< 2^31`) with [`DIRTY_BIT`] flagging accumulator
    /// touches.
    bytes_dirty: u32,
}

impl AccessRec {
    /// The kernel-boundary sentinel (reuse never crosses it).
    pub(crate) const BARRIER: Self = Self {
        id: BARRIER_ID,
        bytes_dirty: 0,
    };

    /// An access of `bytes` to tile `id`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` does not fit the 31-bit byte field.
    #[inline]
    pub(crate) fn new(id: u32, bytes: u64, dirty: bool) -> Self {
        assert!(
            bytes < DIRTY_BIT as u64,
            "tile access of {bytes} bytes overflows the 31-bit record field"
        );
        Self {
            id,
            bytes_dirty: bytes as u32 | if dirty { DIRTY_BIT } else { 0 },
        }
    }

    /// Access bytes.
    #[inline]
    pub(crate) fn bytes(self) -> u32 {
        self.bytes_dirty & !DIRTY_BIT
    }

    /// Whether this is an accumulator (read-modify-write) touch.
    #[inline]
    pub(crate) fn dirty(self) -> bool {
        self.bytes_dirty & DIRTY_BIT != 0
    }
}

/// Per-tile replacement state, packed to 12 bytes: the slot array is the
/// replacement loop's only randomly-indexed memory, so its footprint bounds
/// the loop's cache behaviour.
#[derive(Debug, Clone, Copy, Default)]
struct ReplaySlot {
    bytes: u32,
    next_use: u32,
    dirty: bool,
    resident: bool,
    spilled: bool,
}

/// Highest set bit of `bits` at or below word `hint >> 6`, as a bit index.
/// The caller guarantees one is set.
#[inline]
fn highest_set(bits: &[u64], hint: u32) -> u32 {
    let mut w = (hint >> 6) as usize;
    loop {
        let word = bits[w];
        if word != 0 {
            return ((w as u32) << 6) | (63 - word.leading_zeros());
        }
        debug_assert!(w > 0, "a set bit below the hint");
        w -= 1;
    }
}

/// Belady replacement over dense tile ids with two victim bitsets: the
/// residency model of both the cycle [`crate::Engine`] and the analytic
/// replay.
///
/// Victim choice equals [`OptCache`]'s: evict the resident maximising
/// `(next_use, TileKey)`, and bypass an incoming tile whose own next use is
/// no sooner than that victim's. Callers number tiles in `TileKey` order,
/// so the key tie-break is an id comparison.
///
/// * A finite next use is a *stream position*, and any position is the
///   next use of at most one tile — so "resident with the farthest finite
///   next use" is the highest set bit of a position-indexed bitset, and
///   its id is read back from the caller's stream at that position. A hit
///   is two O(1) bit flips.
/// * Residents with *no* further use in their region ([`NO_USE`]) outrank
///   every finite position; among them the highest id (the highest key)
///   goes first, so they sit in an id-indexed bitset.
///
/// Positions and tile bytes are `u32`: callers convert with a checked,
/// messaged assertion (see [`ReplayOptCache::reset`] and [`AccessRec::new`]).
#[derive(Debug, Default)]
pub struct ReplayOptCache {
    capacity: u64,
    used: u64,
    slots: Vec<ReplaySlot>,
    /// Bit `p` set iff some resident tile's current next use is stream
    /// position `p`.
    live_bits: Vec<u64>,
    /// Upper bound on the highest set bit of `live_bits`.
    live_hint: u32,
    /// Bit `id` set iff tile `id` is resident with no further use.
    dead_bits: Vec<u64>,
    /// Upper bound on the highest set bit of `dead_bits`.
    dead_hint: u32,
    /// Set bits in `dead_bits`.
    dead: u32,
    hits: u64,
    misses: u64,
}

impl ReplayOptCache {
    /// Prepare for a run over `num_tiles` dense ids and a stream of
    /// `stream_len` positions with `capacity` bytes. Keeps previously
    /// allocated storage.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or the stream does not fit the `u32`
    /// position space.
    pub fn reset(&mut self, capacity: u64, num_tiles: usize, stream_len: usize) {
        assert!(capacity > 0, "SPM residency capacity must be positive");
        assert!(
            stream_len as u64 <= MAX_STREAM_POSITIONS,
            "access stream of {stream_len} positions overflows the u32 next-use slots"
        );
        self.capacity = capacity;
        self.used = 0;
        self.slots.clear();
        self.slots.resize(num_tiles, ReplaySlot::default());
        self.live_bits.clear();
        self.live_bits.resize(stream_len.div_ceil(64), 0);
        self.live_hint = 0;
        self.dead_bits.clear();
        self.dead_bits.resize(num_tiles.div_ceil(64), 0);
        self.dead_hint = 0;
        self.dead = 0;
        self.hits = 0;
        self.misses = 0;
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Bytes currently resident.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Register resident `id`'s next use: a position bit for a finite
    /// position, an id bit for [`NO_USE`].
    #[inline]
    fn register(&mut self, id: u32, next_use: u32) {
        if next_use == NO_USE {
            self.dead_bits[(id >> 6) as usize] |= 1u64 << (id & 63);
            self.dead_hint = self.dead_hint.max(id);
            self.dead += 1;
        } else {
            self.live_bits[(next_use >> 6) as usize] |= 1u64 << (next_use & 63);
            self.live_hint = self.live_hint.max(next_use);
        }
    }

    /// Drop the registration of position `pos`.
    #[inline]
    fn clear_live(&mut self, pos: u32) {
        self.live_bits[(pos >> 6) as usize] &= !(1u64 << (pos & 63));
    }

    /// The eviction victim — the resident maximising `(next_use, id)` —
    /// as `(next_use, id)`, without removing it. The caller must ensure a
    /// resident exists (`used > 0`).
    fn peek_victim(&mut self, stream: &[AccessRec]) -> (u32, u32) {
        if self.dead > 0 {
            self.dead_hint = highest_set(&self.dead_bits, self.dead_hint);
            return (NO_USE, self.dead_hint);
        }
        self.live_hint = highest_set(&self.live_bits, self.live_hint);
        (self.live_hint, stream[self.live_hint as usize].id)
    }

    fn evict(&mut self, victim_next: u32, id: u32, writebacks: &mut Vec<(u32, u64)>) {
        if victim_next == NO_USE {
            self.dead_bits[(id >> 6) as usize] &= !(1u64 << (id & 63));
            self.dead -= 1;
        } else {
            self.clear_live(victim_next);
        }
        let victim = &mut self.slots[id as usize];
        debug_assert!(victim.resident, "victim index/slot state out of sync");
        debug_assert_eq!(victim.next_use, victim_next, "stale victim registration");
        victim.resident = false;
        self.used -= victim.bytes as u64;
        if victim.dirty {
            writebacks.push((id, victim.bytes as u64));
            victim.spilled = true;
        }
    }

    /// Access tile `id` with the semantics of [`OptCache::access`]; dirty
    /// victims are appended to `writebacks` as `(victim_id, bytes)` and
    /// the fetched bytes are returned. `next_use` is the stream position of
    /// the tile's next access ([`NO_USE`] if none) and `stream` the access
    /// stream those positions index.
    ///
    /// A tile's bytes must not change between accesses (the schedule
    /// builders emit one size per tile); [`Self::access_resizable`] serves
    /// streams where they may.
    pub(crate) fn access(
        &mut self,
        id: u32,
        bytes: u32,
        dirty: bool,
        next_use: u32,
        stream: &[AccessRec],
        writebacks: &mut Vec<(u32, u64)>,
    ) -> u64 {
        let slot = &mut self.slots[id as usize];
        if slot.resident {
            // Constant bytes: `used` is unchanged and the capacity
            // invariant cannot break, so no eviction check is needed. This
            // access *is* the tile's registered next use (the oracle
            // pointed here), so the old registration is retired and the
            // new next use registered: two O(1) bit flips.
            debug_assert_eq!(slot.bytes, bytes, "a tile's access bytes are constant");
            let old = slot.next_use;
            debug_assert_ne!(old, NO_USE, "a dead resident cannot be accessed again");
            slot.next_use = next_use;
            slot.dirty |= dirty;
            self.hits += 1;
            self.clear_live(old);
            self.register(id, next_use);
            return 0;
        }

        self.misses += 1;
        let fetched = if dirty && !slot.spilled {
            0
        } else {
            bytes as u64
        };

        // Evict furthest-future residents, but never in favour of a tile
        // that is itself the furthest (bypass instead).
        let mut admitted = bytes as u64 <= self.capacity;
        while admitted && self.used + bytes as u64 > self.capacity {
            let (victim_next, victim_id) = self.peek_victim(stream);
            if victim_next <= next_use {
                admitted = false;
                break;
            }
            self.evict(victim_next, victim_id, writebacks);
        }

        let slot = &mut self.slots[id as usize];
        if admitted {
            slot.resident = true;
            slot.bytes = bytes;
            slot.dirty = dirty;
            slot.next_use = next_use;
            self.used += bytes as u64;
            self.register(id, next_use);
        } else if dirty {
            // Bypassed dirty tile: write through.
            writebacks.push((id, bytes as u64));
            slot.spilled = true;
        }
        fetched
    }

    /// [`Self::access`] for streams whose tiles may change size between
    /// accesses, as hand-built schedules can. A hit that resizes its tile
    /// moves `used` to the new size, then evicts furthest-future residents
    /// — possibly the touched tile itself — until the residency fits again.
    pub(crate) fn access_resizable(
        &mut self,
        id: u32,
        bytes: u32,
        dirty: bool,
        next_use: u32,
        stream: &[AccessRec],
        writebacks: &mut Vec<(u32, u64)>,
    ) -> u64 {
        let slot = &mut self.slots[id as usize];
        if !slot.resident || slot.bytes == bytes {
            return self.access(id, bytes, dirty, next_use, stream, writebacks);
        }
        self.used = self.used - slot.bytes as u64 + bytes as u64;
        slot.bytes = bytes;
        self.access(id, bytes, dirty, next_use, stream, writebacks);
        while self.used > self.capacity {
            let (victim_next, victim_id) = self.peek_victim(stream);
            self.evict(victim_next, victim_id, writebacks);
        }
        0
    }

    /// [`Self::access`] specialised to a barrier region whose distinct-tile
    /// footprint fits in `capacity`: no eviction can ever fire (residency
    /// grows monotonically and tops out at the footprint), so the next-use
    /// oracle, the victim bitsets, and all capacity checks are dead weight
    /// — a first touch admits unconditionally and every later touch is a
    /// hit. The bitsets are left untouched; the barrier `clear` that ends
    /// the region resets them before any bounded-path access can observe
    /// them.
    pub(crate) fn access_unbounded(&mut self, id: u32, bytes: u32, dirty: bool) -> u64 {
        let slot = &mut self.slots[id as usize];
        if slot.resident {
            slot.dirty |= dirty;
            self.hits += 1;
            0
        } else {
            self.misses += 1;
            let fetched = if dirty && !slot.spilled {
                0
            } else {
                bytes as u64
            };
            slot.resident = true;
            slot.bytes = bytes;
            slot.dirty = dirty;
            fetched
        }
    }

    /// Drop all residency and forget spill history (kernel boundary).
    ///
    /// The position bitset needs no reset: the next-use oracle never
    /// chains across a barrier, so every resident's final pre-barrier
    /// access already retired its position bit (and set its dead bit).
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = ReplaySlot {
                next_use: slot.next_use,
                ..ReplaySlot::default()
            };
        }
        debug_assert!(
            self.live_bits.iter().all(|&w| w == 0),
            "no next-use registration survives a barrier"
        );
        self.dead_bits.fill(0);
        self.dead_hint = 0;
        self.dead = 0;
        self.live_hint = 0;
        self.used = 0;
    }

    /// Flush all dirty residents into `writebacks`, in ascending id (so
    /// `TileKey`) order; they stay resident but become clean.
    pub fn flush(&mut self, writebacks: &mut Vec<(u32, u64)>) {
        for (id, slot) in self.slots.iter_mut().enumerate() {
            if slot.resident && slot.dirty {
                writebacks.push((id as u32, slot.bytes as u64));
                slot.dirty = false;
                slot.spilled = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TensorId;
    use igo_tensor::TileCoord;

    fn key(t: u32, c: u32) -> TileKey {
        TileKey {
            tensor: TensorId::from_raw(t),
            coord: TileCoord::new(0, c),
        }
    }

    const NEVER: usize = usize::MAX;

    #[test]
    fn opt_keeps_the_sooner_needed_tile() {
        // Capacity 2 tiles. A is needed again soon, B far, C arrives: B
        // must be the victim.
        let mut c = OptCache::new(200);
        c.access(key(0, 0), 100, false, 10); // A, next at 10
        c.access(key(0, 1), 100, false, 1000); // B, next at 1000
        let out = c.access(key(0, 2), 100, false, 50); // C
        assert!(!out.hit);
        assert!(c.contains(&key(0, 0)), "A (next=10) stays");
        assert!(!c.contains(&key(0, 1)), "B (next=1000) evicted");
        assert!(c.contains(&key(0, 2)));
    }

    #[test]
    fn never_reused_tile_is_bypassed() {
        let mut c = OptCache::new(200);
        c.access(key(0, 0), 100, false, 10);
        c.access(key(0, 1), 100, false, 20);
        // A streaming tile that is never reused must not displace either.
        let out = c.access(key(0, 2), 100, false, NEVER);
        assert!(!out.hit);
        assert!(!c.contains(&key(0, 2)));
        assert!(c.contains(&key(0, 0)) && c.contains(&key(0, 1)));
    }

    #[test]
    fn hit_updates_next_use() {
        let mut c = OptCache::new(200);
        c.access(key(0, 0), 100, false, 5);
        c.access(key(0, 1), 100, false, 6);
        // Touch A again; its new next use is far, so it becomes the victim
        // for a sooner-needed C.
        let hit = c.access(key(0, 0), 100, false, 1000);
        assert!(hit.hit);
        c.access(key(0, 2), 100, false, 7);
        assert!(!c.contains(&key(0, 0)));
        assert!(c.contains(&key(0, 1)));
    }

    #[test]
    fn dirty_eviction_writes_back_and_refetches() {
        let mut c = OptCache::new(100);
        c.access(key(1, 0), 100, true, 50); // accumulator, fresh: no fetch
                                            // Sooner-needed read evicts it.
        let out = c.access(key(0, 0), 100, false, 10);
        assert_eq!(out.writebacks, vec![(key(1, 0), 100)]);
        // Re-touch: must re-fetch partials.
        let back = c.access(key(1, 0), 100, true, 60);
        assert_eq!(back.fetched_bytes, 100);
    }

    #[test]
    fn bypassed_dirty_tile_writes_through() {
        let mut c = OptCache::new(100);
        c.access(key(0, 0), 100, false, 1); // pinned by imminent reuse
        let out = c.access(key(1, 0), 100, true, NEVER);
        assert_eq!(out.writeback_bytes(), 100);
        assert!(!c.contains(&key(1, 0)));
    }

    #[test]
    fn oversized_tile_never_admitted() {
        let mut c = OptCache::new(100);
        let out = c.access(key(0, 0), 500, false, 1);
        assert_eq!(out.fetched_bytes, 500);
        assert!(!c.contains(&key(0, 0)));
    }

    #[test]
    fn flush_keeps_residency_marks_clean() {
        let mut c = OptCache::new(300);
        c.access(key(1, 0), 100, true, 5);
        c.access(key(0, 0), 100, false, 6);
        let flushed = c.flush();
        assert_eq!(flushed, vec![(key(1, 0), 100)]);
        assert!(c.contains(&key(1, 0)));
        assert!(c.flush().is_empty());
    }

    #[test]
    fn used_never_exceeds_capacity() {
        let mut c = OptCache::new(250);
        for i in 0..50u32 {
            c.access(key(0, i), 100, false, (i as usize) + 5);
            assert!(c.used() <= c.capacity());
        }
    }

    /// On sampled access streams, clairvoyant replacement never hits less
    /// than LRU at equal capacity (Belady optimality, spot-checked).
    #[test]
    fn opt_hits_at_least_lru() {
        let mut rng = igo_tensor::SplitMix64::new(0x0B71);
        for _ in 0..64 {
            let len = rng.range_u64(1, 300) as usize;
            let stream: Vec<u32> = (0..len).map(|_| rng.range_u64(0, 12) as u32).collect();
            let capacity = rng.range_u64(1, 8) * 100;
            // Pre-compute next uses.
            let mut next = vec![NEVER; stream.len()];
            let mut last: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
            for (pos, &t) in stream.iter().enumerate().rev() {
                if let Some(&later) = last.get(&t) {
                    next[pos] = later;
                }
                last.insert(t, pos);
            }
            let mut opt = OptCache::new(capacity);
            let mut lru = crate::spm::SpmCache::new(capacity);
            for (pos, &t) in stream.iter().enumerate() {
                opt.access(key(0, t), 100, false, next[pos]);
                lru.read(key(0, t), 100);
            }
            assert!(
                opt.hits() >= lru.hits(),
                "OPT {} < LRU {} on {:?}",
                opt.hits(),
                lru.hits(),
                stream
            );
        }
    }

    #[test]
    fn replay_cache_grown_hit_evicts_furthest_even_itself() {
        let mut c = ReplayOptCache::default();
        let mut wb = Vec::new();
        let stream: Vec<AccessRec> = [(0, 100, false), (1, 100, true), (1, 250, true)]
            .iter()
            .chain(&[(0, 100, false), (1, 250, true)])
            .map(|&(id, bytes, dirty)| AccessRec::new(id, bytes, dirty))
            .collect();
        c.reset(300, 2, stream.len());
        c.access_resizable(0, 100, false, 3, &stream, &mut wb);
        c.access_resizable(1, 100, true, 2, &stream, &mut wb);
        // The accumulator grows to 250 B on its hit; its next use (4) is
        // the furthest, so it evicts itself and writes back its new size.
        let got = c.access_resizable(1, 250, true, 4, &stream, &mut wb);
        assert_eq!(got, 0);
        assert_eq!((c.hits(), c.misses()), (1, 2));
        assert_eq!(wb, vec![(1, 250)]);
        assert_eq!(c.used(), 100);
    }

    /// Next-use positions of `stream` (`None` marks a barrier, which cuts
    /// reuse), with [`NO_USE`] for "never again".
    fn next_uses(stream: &[Option<(u32, u64, bool)>]) -> Vec<u32> {
        let mut next = vec![NO_USE; stream.len()];
        let mut last: HashMap<u32, u32> = HashMap::new();
        for (pos, access) in stream.iter().enumerate().rev() {
            match access {
                None => last.clear(),
                Some((t, _, _)) => {
                    if let Some(&later) = last.get(t) {
                        next[pos] = later;
                    }
                    last.insert(*t, pos as u32);
                }
            }
        }
        next
    }

    /// The bitset cache (as its callers drive it: dense ids ranked in
    /// `TileKey` order, resizable hits) must agree with the hash-map
    /// [`OptCache`] on every access of seeded random streams mixing dirty
    /// accumulators, bypass, oversized tiles, resize-on-hit and barriers:
    /// hit or miss, fetched bytes, the write-back multiset and `used` after
    /// each access, and the flush multiset at every barrier and at the
    /// end. Every third stream is dead-heavy — many tiles touched once or
    /// twice under a roomy capacity — so dozens of residents with no
    /// further use compete as victims at once.
    #[test]
    fn replay_cache_matches_opt_cache_on_random_streams() {
        let mut rng = igo_tensor::SplitMix64::new(0x0D1F_F0B7);
        let mut replay = ReplayOptCache::default();
        let mut wb = Vec::new();
        let mut most_dead = 0u32;
        let sorted = |mut v: Vec<(TileKey, u64)>| {
            v.sort_unstable();
            v
        };
        for case in 0..900 {
            let dead_heavy = case % 3 == 2;
            let (tiles, capacity, max_bytes) = if dead_heavy {
                (
                    rng.range_u64(20, 160) as u32,
                    rng.range_u64(5, 40) * 100,
                    100,
                )
            } else {
                // Sizes up to 500 B against capacities from 100 B: some
                // tiles never fit.
                (rng.range_u64(1, 24) as u32, rng.range_u64(1, 12) * 100, 500)
            };
            // Keys run against tile order, so first touch and key order
            // disagree; a tile's dense id is its key's rank.
            let keys: Vec<TileKey> = (0..tiles).map(|t| key(t % 3, tiles - t)).collect();
            let mut by_rank: Vec<u32> = (0..tiles).collect();
            by_rank.sort_unstable_by_key(|&t| keys[t as usize]);
            let mut id_of = vec![0u32; tiles as usize];
            for (id, &t) in by_rank.iter().enumerate() {
                id_of[t as usize] = id as u32;
            }
            let key_of = |id: u32| keys[by_rank[id as usize] as usize];
            let accumulator: Vec<bool> = (0..tiles).map(|_| rng.range_u64(0, 4) == 0).collect();
            let mut bytes: Vec<u64> = (0..tiles).map(|_| rng.range_u64(1, max_bytes)).collect();
            let len = rng.range_u64(1, 400) as usize;
            let stream: Vec<Option<(u32, u64, bool)>> = (0..len)
                .map(|_| {
                    if rng.range_u64(0, 40) == 0 {
                        return None;
                    }
                    let t = rng.index(tiles as usize);
                    if rng.range_u64(0, 8) == 0 {
                        bytes[t] = rng.range_u64(1, max_bytes);
                    }
                    let dirty = accumulator[t] || rng.range_u64(0, 16) == 0;
                    Some((t as u32, bytes[t], dirty))
                })
                .collect();
            let next = next_uses(&stream);
            let recs: Vec<AccessRec> = stream
                .iter()
                .map(|a| match *a {
                    None => AccessRec::BARRIER,
                    Some((t, b, dirty)) => AccessRec::new(id_of[t as usize], b, dirty),
                })
                .collect();

            let mut opt = OptCache::new(capacity);
            replay.reset(capacity, tiles as usize, len);
            for (pos, access) in stream.iter().enumerate() {
                let Some((t, b, dirty)) = *access else {
                    replay.flush(&mut wb);
                    let got: Vec<_> = wb.drain(..).map(|(i, b)| (key_of(i), b)).collect();
                    assert_eq!(
                        sorted(got),
                        sorted(opt.flush()),
                        "case {case} flush at {pos}"
                    );
                    replay.clear();
                    opt.clear();
                    continue;
                };
                let nu = next[pos];
                let hits_before = replay.hits();
                let id = id_of[t as usize];
                let fetched = replay.access_resizable(id, b as u32, dirty, nu, &recs, &mut wb);
                let want = opt.access(
                    keys[t as usize],
                    b,
                    dirty,
                    if nu == NO_USE { NEVER } else { nu as usize },
                );
                let got: Vec<_> = wb.drain(..).map(|(i, b)| (key_of(i), b)).collect();
                assert_eq!(
                    replay.hits() > hits_before,
                    want.hit,
                    "case {case} hit at {pos}"
                );
                assert_eq!(fetched, want.fetched_bytes, "case {case} fetch at {pos}");
                assert_eq!(
                    sorted(got),
                    sorted(want.writebacks),
                    "case {case} wb at {pos}"
                );
                assert_eq!(replay.used(), opt.used(), "case {case} used at {pos}");
                most_dead = most_dead.max(replay.dead);
            }
            replay.flush(&mut wb);
            let got: Vec<_> = wb.drain(..).map(|(i, b)| (key_of(i), b)).collect();
            assert_eq!(sorted(got), sorted(opt.flush()), "case {case} final flush");
            assert_eq!(
                (replay.hits(), replay.misses()),
                (opt.hits(), opt.misses()),
                "case {case} totals"
            );
        }
        assert!(
            most_dead >= 32,
            "dead-heavy streams must hold many dead residents at once ({most_dead})"
        );
    }

    #[test]
    fn opt_beats_lru_on_looping_pattern() {
        // The classic case: loop over 3 tiles with capacity 2. LRU misses
        // every access; OPT hits 1 of each 3 in steady state.
        let mut opt = OptCache::new(200);
        let mut lru = crate::spm::SpmCache::new(200);
        let accesses = 30;
        for round in 0..accesses {
            let t = (round % 3) as u32;
            let next = round + 3;
            opt.access(key(0, t), 100, false, next);
            lru.read(key(0, t), 100);
        }
        assert!(
            opt.hits() > lru.hits(),
            "OPT {} vs LRU {}",
            opt.hits(),
            lru.hits()
        );
    }
}
