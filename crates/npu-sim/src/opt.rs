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
use std::collections::{BTreeSet, BinaryHeap, HashMap, HashSet};

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

/// Belady replacement over dense tile ids with a position-indexed victim
/// bitset: the residency model of both the cycle [`crate::Engine`] and the
/// analytic replay.
///
/// Victim choice equals [`OptCache`]'s: evict the resident maximising
/// `(next_use, rank)`, and bypass an incoming tile whose own next use is no
/// sooner than that victim's. `K` is the tie-break rank and must order
/// tiles as [`TileKey`] does: the engine passes the `TileKey` itself, the
/// analytic replay an order-isomorphic packed `u64`.
///
/// A next-use value is a *stream position*, and any position is the next
/// use of at most one tile — so "resident tile with the farthest finite
/// next use" is the highest set bit of a bitset indexed by position, and a
/// hit is two O(1) bit flips (an ordered set would pay a remove and an
/// insert). Residents with *no* further use in their region ([`NO_USE`])
/// outrank every finite position and are tie-broken by rank; they sit in a
/// small max-heap.
///
/// Positions and tile bytes are `u32`: callers convert with a checked,
/// messaged assertion (see [`ReplayOptCache::reset`]).
#[derive(Debug)]
pub struct ReplayOptCache<K = u64> {
    capacity: u64,
    used: u64,
    slots: Vec<ReplaySlot>,
    /// Bit `p` set iff some resident tile's current next-use is stream
    /// position `p`.
    live_bits: Vec<u64>,
    /// Stream position → resident tile id; valid only where the
    /// corresponding `live_bits` bit is set.
    by_next_use: Vec<u32>,
    /// Residents with no further use in their region, max rank first —
    /// they outrank every finite-next-use resident as victims.
    dead: BinaryHeap<(K, u32)>,
    /// Upper bound on the highest set bit of `live_bits`.
    max_hint: u32,
    hits: u64,
    misses: u64,
}

impl<K: Ord> Default for ReplayOptCache<K> {
    fn default() -> Self {
        Self {
            capacity: 0,
            used: 0,
            slots: Vec::new(),
            live_bits: Vec::new(),
            by_next_use: Vec::new(),
            dead: BinaryHeap::new(),
            max_hint: 0,
            hits: 0,
            misses: 0,
        }
    }
}

impl<K: Ord + Copy> ReplayOptCache<K> {
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
            stream_len < NO_USE as usize,
            "access stream of {stream_len} positions overflows the u32 next-use slots"
        );
        self.capacity = capacity;
        self.used = 0;
        self.slots.clear();
        self.slots.resize(num_tiles, ReplaySlot::default());
        self.live_bits.clear();
        self.live_bits.resize(stream_len.div_ceil(64), 0);
        // Stale contents are fine — entries are read only under a set bit.
        self.by_next_use.resize(stream_len, 0);
        self.dead.clear();
        self.max_hint = 0;
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

    /// Register `pos` as the next use of resident tile `id`.
    #[inline]
    fn set_live(&mut self, pos: u32, id: u32) {
        self.live_bits[(pos >> 6) as usize] |= 1u64 << (pos & 63);
        self.by_next_use[pos as usize] = id;
        if pos > self.max_hint {
            self.max_hint = pos;
        }
    }

    /// Drop the registration of position `pos`.
    #[inline]
    fn clear_live(&mut self, pos: u32) {
        self.live_bits[(pos >> 6) as usize] &= !(1u64 << (pos & 63));
    }

    /// Register resident `id`'s next use: a bit for a finite position, a
    /// heap entry for [`NO_USE`].
    #[inline]
    fn register(&mut self, id: u32, rank: K, next_use: u32) {
        if next_use == NO_USE {
            self.dead.push((rank, id));
        } else {
            self.set_live(next_use, id);
        }
    }

    /// The eviction victim — the resident maximising `(next_use, rank)` —
    /// as `(next_use, id)`, without removing it. The caller must ensure a
    /// resident exists (`used > 0`).
    fn peek_victim(&mut self) -> (u32, u32) {
        if let Some(&(_, id)) = self.dead.peek() {
            return (NO_USE, id);
        }
        let mut w = (self.max_hint >> 6) as usize;
        loop {
            let word = self.live_bits[w];
            if word != 0 {
                let pos = ((w as u32) << 6) | (63 - word.leading_zeros());
                self.max_hint = pos;
                return (pos, self.by_next_use[pos as usize]);
            }
            debug_assert!(w > 0, "used > 0 implies a resident victim");
            w -= 1;
        }
    }

    fn evict(&mut self, victim_next: u32, id: u32, writebacks: &mut Vec<(u32, u64)>) {
        if victim_next == NO_USE {
            self.dead.pop();
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
    /// the tile's next access ([`NO_USE`], `u32::MAX`, if none).
    ///
    /// A tile's bytes must not change between accesses (the schedule
    /// builders emit one size per tile); [`Self::access_resizable`] serves
    /// streams where they may.
    pub fn access(
        &mut self,
        id: u32,
        rank: K,
        bytes: u32,
        dirty: bool,
        next_use: u32,
        writebacks: &mut Vec<(u32, u64)>,
    ) -> u64 {
        let slot = &mut self.slots[id as usize];
        if slot.resident {
            // Constant bytes: `used` is unchanged and the capacity
            // invariant cannot break, so no eviction check is needed. This
            // access *is* the tile's registered next use (the oracle
            // pointed here), so the old registration is retired and the
            // new next-use position registered: two O(1) bit flips.
            debug_assert_eq!(slot.bytes, bytes, "a tile's access bytes are constant");
            let old = slot.next_use;
            debug_assert_ne!(old, NO_USE, "a dead resident cannot be accessed again");
            slot.next_use = next_use;
            slot.dirty |= dirty;
            self.hits += 1;
            self.clear_live(old);
            self.register(id, rank, next_use);
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
            let (victim_next, victim_id) = self.peek_victim();
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
            self.register(id, rank, next_use);
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
    pub fn access_resizable(
        &mut self,
        id: u32,
        rank: K,
        bytes: u32,
        dirty: bool,
        next_use: u32,
        writebacks: &mut Vec<(u32, u64)>,
    ) -> u64 {
        let slot = &mut self.slots[id as usize];
        if !slot.resident || slot.bytes == bytes {
            return self.access(id, rank, bytes, dirty, next_use, writebacks);
        }
        self.used = self.used - slot.bytes as u64 + bytes as u64;
        slot.bytes = bytes;
        self.access(id, rank, bytes, dirty, next_use, writebacks);
        while self.used > self.capacity {
            let (victim_next, victim_id) = self.peek_victim();
            self.evict(victim_next, victim_id, writebacks);
        }
        0
    }

    /// [`Self::access`] specialised to a barrier region whose distinct-tile
    /// footprint fits in `capacity`: no eviction can ever fire (residency
    /// grows monotonically and tops out at the footprint), so the next-use
    /// oracle, the victim index, and all capacity checks are dead weight —
    /// a first touch admits unconditionally and every later touch is a
    /// hit. The victim index is left untouched; the barrier `clear` that
    /// ends the region resets it before any bounded-path access can
    /// observe it.
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
    /// The victim bitset needs no reset: the next-use oracle never chains
    /// across a barrier, so every resident's final pre-barrier access
    /// already retired its registration (and moved it to `dead`).
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
        self.dead.clear();
        self.max_hint = 0;
        self.used = 0;
    }

    /// Flush all dirty residents into `writebacks`, in dense-id order (they
    /// stay resident but become clean).
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
        let mut c = ReplayOptCache::<TileKey>::default();
        let mut wb = Vec::new();
        c.reset(300, 2, 8);
        c.access_resizable(0, key(0, 0), 100, false, 5, &mut wb);
        c.access_resizable(1, key(1, 0), 100, true, 6, &mut wb);
        // The accumulator grows to 250 B on its hit; its next use (7) is
        // the furthest, so it evicts itself and writes back its new size.
        let got = c.access_resizable(1, key(1, 0), 250, true, 7, &mut wb);
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

    /// The bitset cache (as the engine drives it: `TileKey` ranks, dense
    /// ids assigned in first-touch order, resizable hits) must agree with
    /// the hash-map [`OptCache`] on every access of seeded random streams
    /// mixing dirty accumulators, bypass, oversized tiles, resize-on-hit
    /// and barriers: hit or miss, fetched bytes, the write-back multiset
    /// and `used` after each access, and the flush multiset at every
    /// barrier and at the end.
    #[test]
    fn replay_cache_matches_opt_cache_on_random_streams() {
        let mut rng = igo_tensor::SplitMix64::new(0x0D1F_F0B7);
        let mut replay = ReplayOptCache::<TileKey>::default();
        let mut wb = Vec::new();
        let sorted = |mut v: Vec<(TileKey, u64)>| {
            v.sort_unstable();
            v
        };
        for case in 0..500 {
            let tiles = rng.range_u64(1, 24) as u32;
            let capacity = rng.range_u64(1, 12) * 100;
            // Keys run against tile order, so dense ids (first touch) and
            // rank order disagree.
            let keys: Vec<TileKey> = (0..tiles).map(|t| key(t % 3, tiles - t)).collect();
            let accumulator: Vec<bool> = (0..tiles).map(|_| rng.range_u64(0, 4) == 0).collect();
            // Sizes up to 500 B against capacities from 100 B: some tiles
            // never fit.
            let mut bytes: Vec<u64> = (0..tiles).map(|_| rng.range_u64(1, 500)).collect();
            let len = rng.range_u64(1, 400) as usize;
            let stream: Vec<Option<(u32, u64, bool)>> = (0..len)
                .map(|_| {
                    if rng.range_u64(0, 40) == 0 {
                        return None;
                    }
                    let t = rng.index(tiles as usize);
                    if rng.range_u64(0, 8) == 0 {
                        bytes[t] = rng.range_u64(1, 500);
                    }
                    let dirty = accumulator[t] || rng.range_u64(0, 16) == 0;
                    Some((t as u32, bytes[t], dirty))
                })
                .collect();
            let next = next_uses(&stream);

            let mut ids: Vec<Option<u32>> = vec![None; tiles as usize];
            let mut id_keys: Vec<TileKey> = Vec::new();
            let mut opt = OptCache::new(capacity);
            replay.reset(capacity, tiles as usize, len);
            for (pos, access) in stream.iter().enumerate() {
                let Some((t, b, dirty)) = *access else {
                    replay.flush(&mut wb);
                    let got: Vec<_> = wb
                        .drain(..)
                        .map(|(i, b)| (id_keys[i as usize], b))
                        .collect();
                    assert_eq!(
                        sorted(got),
                        sorted(opt.flush()),
                        "case {case} flush at {pos}"
                    );
                    replay.clear();
                    opt.clear();
                    continue;
                };
                let id = *ids[t as usize].get_or_insert_with(|| {
                    id_keys.push(keys[t as usize]);
                    id_keys.len() as u32 - 1
                });
                let nu = next[pos];
                let hits_before = replay.hits();
                let fetched =
                    replay.access_resizable(id, keys[t as usize], b as u32, dirty, nu, &mut wb);
                let want = opt.access(
                    keys[t as usize],
                    b,
                    dirty,
                    if nu == NO_USE { NEVER } else { nu as usize },
                );
                let got: Vec<_> = wb
                    .drain(..)
                    .map(|(i, b)| (id_keys[i as usize], b))
                    .collect();
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
            }
            replay.flush(&mut wb);
            let got: Vec<_> = wb
                .drain(..)
                .map(|(i, b)| (id_keys[i as usize], b))
                .collect();
            assert_eq!(sorted(got), sorted(opt.flush()), "case {case} final flush");
            assert_eq!(
                (replay.hits(), replay.misses()),
                (opt.hits(), opt.misses()),
                "case {case} totals"
            );
        }
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
