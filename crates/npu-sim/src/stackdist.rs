//! Capacity-oblivious OPT ladder profiler.
//!
//! Design-space sweeps evaluate the *same* schedule at many SPM capacity
//! rungs. A naive sweep pays one full [`AnalyticCollector::replay`] per
//! rung — and most of that replay is capacity-independent: the next-use
//! oracle back-scan, the per-region footprints and compulsory-traffic
//! floors, the op walk, the systolic tile-cycle sums. [`replay_ladder`]
//! factors all of that out and advances every rung's residency model and
//! timelines in a *single pass* over the compacted 16-byte access stream;
//! each rung's result is bit-identical to a solo replay at that capacity
//! (fuzz-asserted in `core::audit`).
//!
//! The back-scan also pre-resolves the **no-eviction path** outright: for
//! each barrier region it records which first touches fetch, the region's
//! exact traffic, and its flush write-back, so any rung whose residency
//! covers the region's footprint settles the whole region from shared
//! aggregates without ever touching its replacement state (an all-fits
//! rung never even pays its cache reset). Only rungs the region overflows
//! walk their per-access OPT state — the one part of the replay that is
//! genuinely capacity-dependent.
//!
//! [`CapacityProfile`] packages one such pass as a reusable artifact: the
//! exact fetch / write-back / traffic / cycle curve at the profiled rungs
//! (tagged [`Exactness::Exact`]) plus a capacity-*independent* compulsory
//! floor that answers any other capacity as an admissible
//! [`Exactness::LowerBound`].
//!
//! Why not a per-access stack-distance histogram (the classic Mattson
//! one-pass trick)? The engine's residency model is OPT **with bypass**
//! (an incoming tile whose next use is the farthest is streamed without
//! displacing anything) plus dirty-accumulator spill/refetch accounting —
//! and that combination does not satisfy the stack-inclusion property: an
//! access can hit at a small capacity yet miss at a larger one, because
//! bypass decisions flip as capacity grows. A histogram of "smallest
//! hitting capacity" is therefore unsound for this machine; the ladder
//! replay keeps per-rung replacement state instead and shares everything
//! that provably *is* capacity-oblivious.

use crate::analytic::{
    bump_analytic_runs, AnalyticCollector, AnalyticReport, Exactness, OpRec, BARRIER_ID,
    BYTES_MASK, DIRTY_BIT,
};
use crate::engine::{Engine, Replacement};
use crate::opt::{ReplayOptCache, NO_USE};
use crate::stats::{SimReport, Traffic};
use igo_tensor::GemmShape;

/// Reusable working memory for [`replay_ladder`]: the ladder twin of
/// [`crate::AnalyticScratch`], plus one [`ReplayOptCache`] per rung.
#[derive(Debug, Default)]
pub struct LadderScratch {
    next_use: Vec<u32>,
    last_seen: Vec<u32>,
    writebacks: Vec<(u32, u64)>,
    touched: Vec<(u32, u32)>,
    tile_flags: Vec<u8>,
    /// Per barrier region: distinct-tile footprint in bytes (a rung whose
    /// residency is at least this runs the region on the no-eviction path).
    footprints: Vec<u64>,
    /// Per barrier region: admissible DRAM floor as (bytes, bursts).
    region_floor: Vec<(u64, u64)>,
    /// `region_mem_suffix[i]` = summed floor mem-time of regions after `i`.
    region_mem_suffix: Vec<f64>,
    /// Per stream position: `1` iff this access is its tile's first touch
    /// of the region *and* fetches from DRAM on the no-eviction path (the
    /// tile is not created on-chip by a dirty first write).
    first_fetch: Vec<u8>,
    /// Per barrier region: the exact DRAM traffic of the region on the
    /// no-eviction path (first-touch reads plus barrier-flush writes).
    region_traffic: Vec<Traffic>,
    /// Per barrier region: `(accesses, misses, flush write bytes)` on the
    /// no-eviction path.
    region_stats: Vec<(u64, u64, u64)>,
    caches: Vec<ReplayOptCache>,
}

impl LadderScratch {
    /// A fresh scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Capacity-independent facts of one schedule, gathered by the shared
/// back-scan and op walk: the compulsory floor of [`CapacityProfile`].
#[derive(Debug, Clone, Default)]
struct FloorAccum {
    traffic: Traffic,
    mem_bytes: u64,
    bursts: u64,
    stream_time: f64,
    misses: u64,
    accesses: u64,
    spm_bytes_touched: u64,
    compute_cycles: u64,
    gemm_ops: u64,
    macs: u64,
}

impl FloorAccum {
    fn finish(&self, engine: &Engine) -> AnalyticReport {
        let mem_time = self.mem_bytes as f64 / engine.bytes_per_cycle()
            + (self.bursts * engine.burst_latency()) as f64
            + self.stream_time;
        AnalyticReport {
            report: SimReport {
                cycles: (self.compute_cycles as f64).max(mem_time).ceil() as u64,
                compute_cycles: self.compute_cycles,
                mem_cycles: mem_time.ceil() as u64,
                traffic: self.traffic,
                spm_hits: self.accesses - self.misses,
                spm_misses: self.misses,
                gemm_ops: self.gemm_ops,
                macs: self.macs,
                spm_bytes_touched: self.spm_bytes_touched,
            },
            exactness: Exactness::LowerBound,
        }
    }
}

/// Per-rung replay state: the rung's residency model plus its two
/// timelines and traffic ledger. One instance per ladder capacity.
struct RungState<'a> {
    cache: &'a mut ReplayOptCache,
    capacity: u64,
    limit: Option<f64>,
    alive: bool,
    /// The current barrier region's footprint fits this rung: the rung
    /// rides the shared no-eviction aggregates and never touches `cache`.
    region_fits: bool,
    /// `cache` has been reset for this pass. Deferred to the rung's first
    /// eviction-path region, so an all-fits rung never pays the reset.
    cache_ready: bool,
    /// Hits/misses accumulated by fits regions (the cache counts the rest).
    extra_hits: u64,
    extra_misses: u64,
    mem_free: f64,
    compute_free: f64,
    mem_busy: f64,
    traffic: Traffic,
}

/// Evaluate one collected schedule at every capacity of an SPM ladder in
/// a single pass over the access stream.
///
/// `capacities` are per-rung SPM *residency* bytes (the engine's
/// [`Engine::residency_bytes`] for each rung's configuration), strictly
/// ascending; `engine` supplies the capacity-independent machine
/// parameters (systolic array, DRAM bandwidth, burst latency). `cutoffs`
/// mirrors [`AnalyticCollector::replay_bounded`]'s cycle cutoff per rung:
/// a rung returns `None` as soon as its replay provably exceeds its
/// cutoff, and a completed rung's report is bit-identical to a solo
/// `replay_bounded` at that capacity.
///
/// The whole ladder counts as **one** analytic run — that is the point.
///
/// # Panics
///
/// Panics if `engine` is configured with LRU replacement, if
/// `capacities` is empty or not strictly ascending, or if `cutoffs` has a
/// different length than `capacities`.
pub fn replay_ladder(
    collector: &AnalyticCollector,
    engine: &Engine,
    capacities: &[u64],
    cutoffs: &[Option<u64>],
    scratch: &mut LadderScratch,
) -> Vec<Option<AnalyticReport>> {
    ladder_pass(collector, engine, capacities, cutoffs, scratch).0
}

/// The shared implementation behind [`replay_ladder`] and
/// [`CapacityProfile::compute`]: per-rung exact reports plus the
/// capacity-independent floor accumulator.
fn ladder_pass(
    collector: &AnalyticCollector,
    engine: &Engine,
    capacities: &[u64],
    cutoffs: &[Option<u64>],
    scratch: &mut LadderScratch,
) -> (Vec<Option<AnalyticReport>>, FloorAccum) {
    assert_eq!(
        engine.replacement(),
        Replacement::Opt,
        "ladder replay models OPT replacement only"
    );
    assert!(!capacities.is_empty(), "ladder needs at least one rung");
    assert!(
        capacities.windows(2).all(|w| w[0] < w[1]),
        "ladder capacities must be strictly ascending"
    );
    assert_eq!(
        cutoffs.len(),
        capacities.len(),
        "one cutoff slot per ladder rung"
    );
    let stream = collector.stream();
    let ops = collector.ops();
    let dense_class = collector.dense_class();
    assert!(
        stream.len() < NO_USE as usize,
        "access stream overflows the u32 position space"
    );
    bump_analytic_runs();

    let LadderScratch {
        next_use,
        last_seen,
        writebacks,
        touched,
        tile_flags,
        footprints,
        region_floor,
        region_mem_suffix,
        first_fetch,
        region_traffic,
        region_stats,
        caches,
    } = scratch;
    writebacks.clear();
    let mut floor = FloorAccum::default();

    // Shared back-scan: identical to the solo replay's next-use oracle,
    // but capacity-oblivious — it records each region's distinct-tile
    // footprint instead of a per-capacity fits flag, attributes the
    // compulsory floor per traffic class for the profile, and
    // pre-resolves the whole no-eviction path (which first touches fetch,
    // what the region's exact traffic and flush write-back are) so rungs
    // the region fits never walk their residency model at all.
    next_use.clear();
    next_use.resize(stream.len(), NO_USE);
    last_seen.clear();
    last_seen.resize(dense_class.len(), NO_USE);
    tile_flags.clear();
    tile_flags.resize(dense_class.len(), 0);
    first_fetch.clear();
    first_fetch.resize(stream.len(), 0);
    touched.clear();
    footprints.clear();
    region_floor.clear();
    region_traffic.clear();
    region_stats.clear();
    let mut footprint = 0u64;
    let mut region_accesses = 0u64;
    let end_region = |footprint: u64,
                      region_accesses: u64,
                      touched: &mut Vec<(u32, u32)>,
                      tile_flags: &mut [u8],
                      last_seen: &mut [u32],
                      first_fetch: &mut [u8],
                      footprints: &mut Vec<u64>,
                      region_floor: &mut Vec<(u64, u64)>,
                      region_traffic: &mut Vec<Traffic>,
                      region_stats: &mut Vec<(u64, u64, u64)>,
                      floor: &mut FloorAccum| {
        footprints.push(footprint);
        let mut floor_bytes = 0u64;
        let mut floor_bursts = 0u64;
        let mut traffic = Traffic::new();
        let mut write_bytes = 0u64;
        for &(id, bytes) in touched.iter() {
            let flags = tile_flags[id as usize];
            if flags & 1 == 0 {
                floor_bytes += bytes as u64;
                floor_bursts += 1;
                floor
                    .traffic
                    .add_read(dense_class[id as usize], bytes as u64);
                traffic.add_read(dense_class[id as usize], bytes as u64);
                // `last_seen` still holds the tile's earliest position:
                // this first touch fetches on the no-eviction path.
                first_fetch[last_seen[id as usize] as usize] = 1;
            }
            if flags & 2 != 0 {
                floor_bytes += bytes as u64;
                floor
                    .traffic
                    .add_write(dense_class[id as usize], bytes as u64);
                traffic.add_write(dense_class[id as usize], bytes as u64);
                write_bytes += bytes as u64;
            }
            tile_flags[id as usize] = 0;
            last_seen[id as usize] = NO_USE;
        }
        floor.misses += touched.len() as u64;
        region_stats.push((region_accesses, touched.len() as u64, write_bytes));
        region_traffic.push(traffic);
        touched.clear();
        region_floor.push((floor_bytes, floor_bursts));
    };
    for pos in (0..stream.len()).rev() {
        let rec = &stream[pos];
        if rec.id == BARRIER_ID {
            end_region(
                footprint,
                region_accesses,
                touched,
                tile_flags,
                last_seen,
                first_fetch,
                footprints,
                region_floor,
                region_traffic,
                region_stats,
                &mut floor,
            );
            footprint = 0;
            region_accesses = 0;
        } else {
            let bytes = rec.bytes_dirty & BYTES_MASK;
            let later = last_seen[rec.id as usize];
            if later != NO_USE {
                next_use[pos] = later;
            } else {
                footprint += bytes as u64;
                touched.push((rec.id, bytes));
            }
            last_seen[rec.id as usize] = pos as u32;
            let dirty = (rec.bytes_dirty >> 31) as u8;
            let flags = &mut tile_flags[rec.id as usize];
            *flags = dirty | (*flags & 2) | (dirty << 1);
            floor.accesses += 1;
            region_accesses += 1;
            floor.spm_bytes_touched += bytes as u64;
        }
    }
    end_region(
        footprint,
        region_accesses,
        touched,
        tile_flags,
        last_seen,
        first_fetch,
        footprints,
        region_floor,
        region_traffic,
        region_stats,
        &mut floor,
    );
    footprints.reverse();
    region_floor.reverse();
    region_traffic.reverse();
    region_stats.reverse();
    for (bytes, bursts) in region_floor.iter() {
        floor.mem_bytes += bytes;
        floor.bursts += bursts;
    }

    let systolic = engine.systolic();
    let bytes_per_cycle = engine.bytes_per_cycle();
    let burst_latency = engine.burst_latency();

    // Exact compute totals (shared by every rung) and, when any rung is
    // bounded, the remaining-compute / region-floor-suffix abort oracles
    // — computed once, read per rung against its own cutoff.
    let mut remaining_compute = 0u64;
    {
        let mut memo: Option<(GemmShape, u64)> = None;
        for op in ops {
            match op {
                OpRec::Gemm { compute, .. } => {
                    remaining_compute += match memo {
                        Some((shape, cycles)) if shape == *compute => cycles,
                        _ => {
                            let cycles = systolic.tile_cycles(*compute);
                            memo = Some((*compute, cycles));
                            cycles
                        }
                    };
                    floor.gemm_ops += 1;
                    floor.macs += compute.macs();
                }
                OpRec::Stream(s) => {
                    let bytes = s.read_bytes + s.write_bytes;
                    if s.read_bytes > 0 {
                        floor.traffic.add_read(s.class, s.read_bytes);
                    }
                    if s.write_bytes > 0 {
                        floor.traffic.add_write(s.class, s.write_bytes);
                    }
                    if bytes > 0 {
                        floor.stream_time += bytes as f64 / bytes_per_cycle + burst_latency as f64;
                    }
                }
                OpRec::Barrier => {}
            }
        }
    }
    floor.compute_cycles = remaining_compute;
    region_mem_suffix.clear();
    region_mem_suffix.resize(region_floor.len(), 0.0);
    let mut floor_acc = 0.0f64;
    for i in (0..region_floor.len()).rev() {
        region_mem_suffix[i] = floor_acc;
        let (bytes, bursts) = region_floor[i];
        floor_acc += bytes as f64 / bytes_per_cycle + (bursts * burst_latency) as f64;
    }

    if caches.len() < capacities.len() {
        caches.resize_with(capacities.len(), ReplayOptCache::default);
    }
    let num_tiles = dense_class.len();
    let stream_len = stream.len();
    let mut rungs: Vec<RungState> = caches
        .iter_mut()
        .zip(capacities.iter().zip(cutoffs))
        .map(|(cache, (&capacity, &cutoff))| {
            let limit = cutoff.map(|c| (c + 1) as f64);
            // Pre-replay rejection, exactly as the solo bounded replay:
            // the whole-schedule floor already beats the cutoff.
            let alive = match limit {
                Some(l) => floor_acc < l && (remaining_compute as f64) < l,
                None => true,
            };
            RungState {
                cache,
                capacity,
                limit,
                alive,
                region_fits: footprints[0] <= capacity,
                cache_ready: false,
                extra_hits: 0,
                extra_misses: 0,
                mem_free: 0.0,
                compute_free: 0.0,
                mem_busy: 0.0,
                traffic: Traffic::new(),
            }
        })
        .collect();

    let mut last_shape: Option<(GemmShape, u64)> = None;
    let bounded = rungs.iter().any(|r| r.limit.is_some());
    let mut remaining = remaining_compute;

    let mut region = 0usize;
    let mut pos = 0usize;
    'walk: for op in ops {
        match op {
            OpRec::Gemm { accesses, compute } => {
                let end = pos + *accesses as usize;
                let cycles = match last_shape {
                    Some((shape, cycles)) if shape == *compute => cycles,
                    _ => {
                        let cycles = systolic.tile_cycles(*compute);
                        last_shape = Some((*compute, cycles));
                        cycles
                    }
                };
                if bounded {
                    remaining -= cycles;
                }
                // The no-eviction outcome of this op — computed from the
                // pre-resolved first-fetch marks at most once, then shared
                // by every rung the region fits.
                let mut fits_agg: Option<(u64, u64)> = None;
                for rung in rungs.iter_mut() {
                    if !rung.alive {
                        continue;
                    }
                    let (fetched, writeback, bursts) = if rung.region_fits {
                        let (fetch, bursts) = *fits_agg.get_or_insert_with(|| {
                            let mut fetch = 0u64;
                            let mut bursts = 0u64;
                            for (a, &ff) in stream[pos..end].iter().zip(&first_fetch[pos..end]) {
                                if ff != 0 {
                                    fetch += (a.bytes_dirty & BYTES_MASK) as u64;
                                    bursts += 1;
                                }
                            }
                            (fetch, bursts)
                        });
                        (fetch, 0u64, bursts)
                    } else {
                        if !rung.cache_ready {
                            rung.cache.reset(rung.capacity, num_tiles, stream_len);
                            rung.cache_ready = true;
                        }
                        let mut fetched = 0u64;
                        let mut writeback = 0u64;
                        let mut bursts = 0u64;
                        for (a, &nu) in stream[pos..end].iter().zip(&next_use[pos..end]) {
                            let bytes = a.bytes_dirty & BYTES_MASK;
                            let dirty = a.bytes_dirty & DIRTY_BIT != 0;
                            let got = rung
                                .cache
                                .access(a.id, a.rank, bytes, dirty, nu, writebacks);
                            if got > 0 {
                                rung.traffic.add_read(dense_class[a.id as usize], got);
                                fetched += got;
                                bursts += 1;
                            }
                            if !writebacks.is_empty() {
                                for (vid, vbytes) in writebacks.drain(..) {
                                    rung.traffic.add_write(dense_class[vid as usize], vbytes);
                                    writeback += vbytes;
                                }
                            }
                        }
                        (fetched, writeback, bursts)
                    };
                    let move_bytes = fetched + writeback;
                    if move_bytes > 0 {
                        let mem_time = move_bytes as f64 / bytes_per_cycle
                            + (bursts.max(1) * burst_latency) as f64;
                        rung.mem_free += mem_time;
                        rung.mem_busy += mem_time;
                    }
                    let data_ready = if move_bytes > 0 { rung.mem_free } else { 0.0 };
                    let issue = rung.compute_free.max(data_ready);
                    rung.compute_free = issue + cycles as f64;
                    if let Some(limit) = rung.limit {
                        if rung.mem_free + region_mem_suffix[region] >= limit
                            || rung.compute_free + remaining as f64 >= limit
                        {
                            rung.alive = false;
                        }
                    }
                }
                pos = end;
                if rungs.iter().all(|r| !r.alive) {
                    break 'walk;
                }
            }
            OpRec::Stream(s) => {
                let bytes = s.read_bytes + s.write_bytes;
                for rung in rungs.iter_mut() {
                    if !rung.alive {
                        continue;
                    }
                    if s.read_bytes > 0 {
                        rung.traffic.add_read(s.class, s.read_bytes);
                    }
                    if s.write_bytes > 0 {
                        rung.traffic.add_write(s.class, s.write_bytes);
                    }
                    if bytes > 0 {
                        let mem_time = bytes as f64 / bytes_per_cycle + burst_latency as f64;
                        rung.mem_free += mem_time;
                        rung.mem_busy += mem_time;
                    }
                }
            }
            OpRec::Barrier => {
                for rung in rungs.iter_mut() {
                    if !rung.alive {
                        continue;
                    }
                    if rung.region_fits {
                        // The whole region ran on the shared no-eviction
                        // aggregates: settle its exact traffic, hit/miss
                        // counts and flush write-back in one step.
                        let (accesses, misses, write_bytes) = region_stats[region];
                        rung.traffic.merge(&region_traffic[region]);
                        rung.extra_hits += accesses - misses;
                        rung.extra_misses += misses;
                        if write_bytes > 0 {
                            let mem_time =
                                write_bytes as f64 / bytes_per_cycle + burst_latency as f64;
                            rung.mem_free += mem_time;
                            rung.mem_busy += mem_time;
                        }
                    } else {
                        rung.cache.flush(writebacks);
                        if !writebacks.is_empty() {
                            let mut bytes = 0u64;
                            for (vid, vbytes) in writebacks.drain(..) {
                                rung.traffic.add_write(dense_class[vid as usize], vbytes);
                                bytes += vbytes;
                            }
                            let mem_time = bytes as f64 / bytes_per_cycle + burst_latency as f64;
                            rung.mem_free += mem_time;
                            rung.mem_busy += mem_time;
                        }
                        rung.cache.clear();
                    }
                    rung.mem_free = rung.mem_free.max(rung.compute_free);
                }
                region += 1;
                let fits_floor = footprints[region];
                for rung in rungs.iter_mut() {
                    rung.region_fits = fits_floor <= rung.capacity;
                }
                pos += 1; // consume the barrier sentinel
            }
        }
    }

    let reports = rungs
        .into_iter()
        .map(|mut rung| {
            if !rung.alive {
                return None;
            }
            // Settle the final region (no barrier follows it): aggregates
            // for a fits region, a flush of remaining dirty accumulators
            // on the eviction path.
            if rung.region_fits {
                let (accesses, misses, write_bytes) = region_stats[region];
                rung.traffic.merge(&region_traffic[region]);
                rung.extra_hits += accesses - misses;
                rung.extra_misses += misses;
                if write_bytes > 0 {
                    let mem_time = write_bytes as f64 / bytes_per_cycle + burst_latency as f64;
                    rung.mem_free += mem_time;
                    rung.mem_busy += mem_time;
                }
            } else {
                rung.cache.flush(writebacks);
                if !writebacks.is_empty() {
                    let mut bytes = 0u64;
                    for (vid, vbytes) in writebacks.drain(..) {
                        rung.traffic.add_write(dense_class[vid as usize], vbytes);
                        bytes += vbytes;
                    }
                    let mem_time = bytes as f64 / bytes_per_cycle + burst_latency as f64;
                    rung.mem_free += mem_time;
                    rung.mem_busy += mem_time;
                }
            }
            let (cache_hits, cache_misses) = if rung.cache_ready {
                (rung.cache.hits(), rung.cache.misses())
            } else {
                (0, 0)
            };
            Some(AnalyticReport {
                report: SimReport {
                    cycles: rung.mem_free.max(rung.compute_free).ceil() as u64,
                    compute_cycles: floor.compute_cycles,
                    mem_cycles: rung.mem_busy.ceil() as u64,
                    traffic: rung.traffic,
                    spm_hits: cache_hits + rung.extra_hits,
                    spm_misses: cache_misses + rung.extra_misses,
                    gemm_ops: floor.gemm_ops,
                    macs: floor.macs,
                    spm_bytes_touched: floor.spm_bytes_touched,
                },
                exactness: Exactness::Exact,
            })
        })
        .collect();
    (reports, floor)
}

/// The per-schedule artifact of one ladder pass: exact reports at the
/// profiled capacity rungs plus a capacity-independent compulsory floor
/// that answers every other capacity as an admissible lower bound.
#[derive(Debug, Clone)]
pub struct CapacityProfile {
    rungs: Vec<(u64, AnalyticReport)>,
    floor: AnalyticReport,
}

impl CapacityProfile {
    /// Profile `collector`'s schedule at `capacities` (ascending SPM
    /// residency bytes) in one pass. Every rung is evaluated exactly; see
    /// [`replay_ladder`] for the machine-parameter contract.
    pub fn compute(
        collector: &AnalyticCollector,
        engine: &Engine,
        capacities: &[u64],
        scratch: &mut LadderScratch,
    ) -> Self {
        let cutoffs = vec![None; capacities.len()];
        let (reports, floor) = ladder_pass(collector, engine, capacities, &cutoffs, scratch);
        let rungs = capacities
            .iter()
            .zip(reports)
            .map(|(&c, r)| (c, r.expect("unbounded ladder replay always completes")))
            .collect();
        Self {
            rungs,
            floor: floor.finish(engine),
        }
    }

    /// The profiled `(residency_bytes, exact report)` points, ascending.
    pub fn rungs(&self) -> &[(u64, AnalyticReport)] {
        &self.rungs
    }

    /// The capacity-independent compulsory floor ([`Exactness::LowerBound`]).
    pub fn floor(&self) -> &AnalyticReport {
        &self.floor
    }

    /// Answer one capacity in O(log rungs): [`Exactness::Exact`] when
    /// `capacity` is a profiled rung, otherwise the admissible
    /// capacity-independent floor tagged [`Exactness::LowerBound`].
    pub fn query(&self, capacity: u64) -> AnalyticReport {
        match self.rungs.binary_search_by_key(&capacity, |&(c, _)| c) {
            Ok(i) => self.rungs[i].1,
            Err(_) => self.floor,
        }
    }

    /// The cumulative traffic curve: per rung, `(residency_bytes,
    /// fetched_bytes, written_back_bytes, total_traffic_bytes, cycles)`.
    pub fn curve(&self) -> impl Iterator<Item = (u64, u64, u64, u64, u64)> + '_ {
        self.rungs.iter().map(|&(c, r)| {
            (
                c,
                r.report.traffic.read_total(),
                r.report.traffic.write_total(),
                r.report.traffic.total(),
                r.report.cycles,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::AnalyticScratch;
    use crate::config::PeArray;
    use crate::trace::{Schedule, ScheduleSink, TileOpSpec};
    use crate::SystolicModel;
    use igo_tensor::{GemmShape, MatrixDims, TensorClass, TileCoord, TileGrid, TileShape};

    fn engine(residency: u64) -> Engine {
        Engine::with_params(
            SystolicModel::new(PeArray::new(16, 16)),
            16.0,
            10,
            residency,
        )
    }

    /// A stream with reuse, accumulators, and a mid-stream barrier —
    /// enough structure to exercise hits, evictions, bypass, spills,
    /// write-backs and the flush paths at small capacities.
    fn collect_demo(c: &mut AnalyticCollector) -> Schedule {
        let mut s = Schedule::new("ladder-demo");
        let dy = s.add_tensor(TensorClass::OutGrad, "dY");
        let dx = s.add_tensor(TensorClass::InGrad, "dX");
        let w = s.add_tensor(TensorClass::Weight, "W");
        let grid = TileGrid::new(MatrixDims::new(96, 96), TileShape::square(16));
        c.register_tensor(dy, TensorClass::OutGrad, &grid);
        c.register_tensor(dx, TensorClass::InGrad, &grid);
        c.register_tensor(w, TensorClass::Weight, &grid);
        let shape = GemmShape::new(16, 16, 16);
        let mut n = 0u32;
        for i in 0..6u32 {
            for j in 0..6u32 {
                let op = TileOpSpec::new(shape)
                    .read(dy, TileCoord::new(i, j), 1024)
                    .read(w, TileCoord::new(j, (i + j) % 6), 1024)
                    .accumulate(dx, TileCoord::new(j, i), 1024);
                if n == 20 {
                    ScheduleSink::barrier(&mut s);
                    c.barrier();
                }
                ScheduleSink::gemm(&mut s, &op);
                c.gemm(&op);
                n += 1;
            }
        }
        s
    }

    #[test]
    fn ladder_matches_solo_replay_at_every_rung() {
        let mut c = AnalyticCollector::new();
        let _ = collect_demo(&mut c);
        // From "almost nothing stays resident" to "everything fits".
        let capacities: Vec<u64> = vec![2048, 3 * 1024, 7 * 1024, 40 * 1024, 1 << 20];
        let cutoffs = vec![None; capacities.len()];
        let base = engine(1 << 20);
        let ladder = replay_ladder(&c, &base, &capacities, &cutoffs, &mut LadderScratch::new());
        let mut scratch = AnalyticScratch::new();
        for (&cap, got) in capacities.iter().zip(&ladder) {
            let solo = c.replay(&engine(cap), &mut scratch);
            let got = got.expect("unbounded rung completes");
            assert_eq!(got.report, solo.report, "capacity {cap} diverged");
            assert_eq!(got.exactness, Exactness::Exact);
        }
    }

    #[test]
    fn ladder_matches_engine_at_every_rung() {
        let mut c = AnalyticCollector::new();
        let s = collect_demo(&mut c);
        let capacities: Vec<u64> = vec![2048, 7 * 1024, 1 << 20];
        let cutoffs = vec![None; capacities.len()];
        let ladder = replay_ladder(
            &c,
            &engine(1 << 20),
            &capacities,
            &cutoffs,
            &mut LadderScratch::new(),
        );
        for (&cap, got) in capacities.iter().zip(&ladder) {
            let expected = engine(cap).run(&s);
            assert_eq!(got.unwrap().report, expected, "capacity {cap} vs engine");
        }
    }

    #[test]
    fn cutoffs_reject_only_provably_worse_rungs() {
        let mut c = AnalyticCollector::new();
        let _ = collect_demo(&mut c);
        let capacities: Vec<u64> = vec![2048, 7 * 1024, 1 << 20];
        let base = engine(1 << 20);
        let none = vec![None; capacities.len()];
        let exact = replay_ladder(&c, &base, &capacities, &none, &mut LadderScratch::new());
        let true_cycles: Vec<u64> = exact.iter().map(|r| r.unwrap().report.cycles).collect();
        // Any cutoff vector must behave exactly like one solo bounded
        // replay per rung: same accept/reject decision, same report.
        let mut scratch = AnalyticScratch::new();
        let cutoff_vectors: Vec<Vec<Option<u64>>> = vec![
            true_cycles.iter().map(|&cy| Some(cy)).collect(),
            true_cycles.iter().map(|&cy| Some(cy / 2)).collect(),
            true_cycles.iter().map(|&cy| Some(cy * 2)).collect(),
            vec![Some(1), None, Some(true_cycles[2])],
            vec![Some(0), Some(0), Some(0)],
        ];
        for cutoffs in &cutoff_vectors {
            let ladder = replay_ladder(&c, &base, &capacities, cutoffs, &mut LadderScratch::new());
            for ((&cap, &cutoff), got) in capacities.iter().zip(cutoffs).zip(&ladder) {
                let solo = c.replay_bounded(&engine(cap), &mut scratch, cutoff);
                match (got, solo) {
                    (Some(g), Some(s)) => {
                        assert_eq!(g.report, s.report, "capacity {cap} cutoff {cutoff:?}")
                    }
                    (None, None) => {}
                    (g, s) => panic!(
                        "capacity {cap} cutoff {cutoff:?}: ladder {:?} vs solo {:?}",
                        g.is_some(),
                        s.is_some()
                    ),
                }
            }
        }
        // Tight cutoffs reject rungs outright.
        let dead = replay_ladder(
            &c,
            &base,
            &capacities,
            &[Some(0), Some(0), Some(0)],
            &mut LadderScratch::new(),
        );
        assert!(dead.iter().all(|r| r.is_none()));
    }

    #[test]
    fn profile_is_exact_on_rungs_and_admissible_off_rung() {
        let mut c = AnalyticCollector::new();
        let _ = collect_demo(&mut c);
        let capacities: Vec<u64> = vec![2048, 7 * 1024, 40 * 1024];
        let base = engine(1 << 20);
        let profile = CapacityProfile::compute(&c, &base, &capacities, &mut LadderScratch::new());
        let mut scratch = AnalyticScratch::new();
        for &cap in &capacities {
            let q = profile.query(cap);
            assert_eq!(q.exactness, Exactness::Exact);
            assert_eq!(q.report, c.replay(&engine(cap), &mut scratch).report);
        }
        // Off-rung queries fall back to the capacity-independent floor,
        // which must be admissible against an exact replay at any capacity.
        for off in [1024u64, 5 * 1024, 9 * 1024, 1 << 21] {
            let q = profile.query(off);
            assert_eq!(q.exactness, Exactness::LowerBound);
            let exact = c.replay(&engine(off), &mut scratch).report;
            assert!(q.report.cycles <= exact.cycles, "cycles floor at {off}");
            assert!(q.report.mem_cycles <= exact.mem_cycles);
            assert!(q.report.traffic.total() <= exact.traffic.total());
            assert!(q.report.spm_misses <= exact.spm_misses);
            assert!(q.report.spm_hits >= exact.spm_hits);
            assert_eq!(q.report.compute_cycles, exact.compute_cycles);
            assert_eq!(q.report.gemm_ops, exact.gemm_ops);
            assert_eq!(q.report.macs, exact.macs);
            assert_eq!(q.report.spm_bytes_touched, exact.spm_bytes_touched);
        }
    }

    #[test]
    fn one_ladder_pass_counts_as_one_analytic_run() {
        let mut c = AnalyticCollector::new();
        let _ = collect_demo(&mut c);
        let before = crate::analytic_run_count();
        let _ = replay_ladder(
            &c,
            &engine(1 << 20),
            &[2048, 7 * 1024, 1 << 20],
            &[None, None, None],
            &mut LadderScratch::new(),
        );
        assert_eq!(crate::analytic_run_count(), before + 1);
    }

    #[test]
    fn profile_curve_is_monotone_in_capacity() {
        let mut c = AnalyticCollector::new();
        let _ = collect_demo(&mut c);
        let profile = CapacityProfile::compute(
            &c,
            &engine(1 << 20),
            &[2048, 3 * 1024, 7 * 1024, 40 * 1024, 1 << 20],
            &mut LadderScratch::new(),
        );
        let curve: Vec<_> = profile.curve().collect();
        assert_eq!(curve.len(), 5);
        for w in curve.windows(2) {
            assert!(
                w[1].3 <= w[0].3,
                "total traffic must not grow with capacity: {curve:?}"
            );
        }
    }
}
