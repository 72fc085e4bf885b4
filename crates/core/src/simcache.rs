//! Process-wide memoization of layer simulations.
//!
//! The experiment harnesses simulate the same layer shapes over and over:
//! a technique ladder re-simulates every layer's forward pass once per
//! technique, zoo models share layer shapes, techniques share candidates,
//! and sweeps revisit entire models. Under this machine model a layer
//! simulation is a pure function of `(GEMM shape, ifmap density, hardware
//! config, what is simulated)`, so the pipeline caches results across
//! [`crate::simulate_model`] calls in one LRU map. An [`Entry`] is either a
//! technique's winner (report and decision, so a repeat skips candidate
//! enumeration) or one candidate's report, reduction included, which every
//! technique listing that candidate reuses.
//!
//! The key deliberately excludes the config's *name* (a label) and
//! *batch-per-core* (already folded into the GEMM's M dimension by model
//! construction) but includes every field the engine reads: core count, PE
//! array, clock, SPM capacity, DRAM bandwidth and burst latency. Densities
//! and clocks are `f64`s and are keyed by their bit patterns.

use crate::partition::PartitionScheme;
use crate::pipeline::LayerDecision;
use crate::schedule::BackwardOrder;
use crate::technique::Technique;
use igo_npu_sim::{NpuConfig, SimReport};
use igo_tensor::GemmShape;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// The simulation-relevant fields of an [`NpuConfig`], bit-exact and
/// hashable. Two configs with equal fingerprints produce identical layer
/// simulations; configs differing in any engine-visible field — SPM size,
/// bandwidth, PE array, clock, cores, burst latency — never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConfigFingerprint {
    cores: u32,
    pe_rows: u32,
    pe_cols: u32,
    freq_bits: u64,
    spm_bytes: u64,
    bandwidth_bits: u64,
    burst_latency: u64,
}

impl ConfigFingerprint {
    /// Fingerprint `config`.
    pub fn of(config: &NpuConfig) -> Self {
        Self {
            cores: config.cores,
            pe_rows: config.pe.rows,
            pe_cols: config.pe.cols,
            freq_bits: config.freq_hz.to_bits(),
            spm_bytes: config.spm_bytes,
            bandwidth_bits: config.dram.bandwidth_bytes_per_sec.to_bits(),
            burst_latency: config.dram.burst_latency_cycles,
        }
    }

    /// Fingerprint `config` with the SPM capacity zeroed out: configs with
    /// equal results here differ at most in SPM size.
    pub fn sans_spm(config: &NpuConfig) -> Self {
        Self {
            spm_bytes: 0,
            ..Self::of(config)
        }
    }
}

/// Which access stream a candidate emits: the forward nest, one backward
/// emission of the whole layer, or the sub-GEMMs of a partition plan
/// (chained on a single core, one per core otherwise). Candidates of
/// different techniques that emit the same stream share one entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Stream {
    Forward,
    Plain {
        order: BackwardOrder,
        is_first: bool,
    },
    Partition {
        scheme: PartitionScheme,
        /// The realised part count.
        parts: u64,
        order: BackwardOrder,
        is_first: bool,
    },
}

/// What a memo entry holds for one layer on one config.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Entry {
    /// The backward pass under `technique`: the winning candidate's report
    /// and decision.
    Winner {
        technique: Technique,
        is_first: bool,
    },
    /// One candidate's report, reduction included, and its decision.
    Candidate(Stream),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    gemm: GemmShape,
    density_bits: u64,
    config: ConfigFingerprint,
    entry: Entry,
}

/// A memoized layer result.
type Value = (SimReport, LayerDecision);

/// Default capacity in entries (an entry is a couple of hundred bytes, so
/// this bounds the memo cache to a few tens of megabytes).
pub const DEFAULT_CACHE_CAP: usize = 1 << 18;

/// Environment variable overriding the memo-cache capacity (entries), read
/// once, when the cache is first used.
pub const CACHE_CAP_ENV: &str = "IGO_SIM_CACHE_CAP";

/// A bounded LRU map: recency is tracked with a lazy queue of
/// `(key, stamp)` touches — an entry is live only under its latest stamp,
/// so stale queue slots are skipped (and trimmed) instead of being moved.
struct LruCache {
    map: HashMap<CacheKey, (Value, u64)>,
    queue: VecDeque<(CacheKey, u64)>,
    clock: u64,
    cap: usize,
}

impl LruCache {
    fn new(cap: usize) -> Self {
        Self {
            map: HashMap::new(),
            queue: VecDeque::new(),
            clock: 0,
            cap,
        }
    }

    fn touch(&mut self, k: CacheKey) -> u64 {
        self.clock += 1;
        self.queue.push_back((k, self.clock));
        self.clock
    }

    /// Compact the lazy queue once it holds more dead than live slots.
    /// `retain` preserves the stamp order, so eviction recency is
    /// unaffected; the halving threshold makes the sweep amortized O(1)
    /// per touch.
    fn maybe_compact(&mut self) {
        if self.queue.len() > (2 * self.map.len()).max(64) {
            let map = &self.map;
            self.queue
                .retain(|&(k, s)| map.get(&k).is_some_and(|&(_, live)| live == s));
        }
    }

    fn get(&mut self, k: &CacheKey) -> Option<Value> {
        let stamp = self.touch(*k);
        let got = self.map.get_mut(k).map(|(entry, s)| {
            *s = stamp;
            *entry
        });
        self.maybe_compact();
        got
    }

    fn insert(&mut self, k: CacheKey, entry: Value) {
        let stamp = self.touch(k);
        self.map.insert(k, (entry, stamp));
        while self.map.len() > self.cap {
            let (victim, s) = self.queue.pop_front().expect("queue covers every entry");
            if self.map.get(&victim).is_some_and(|&(_, live)| live == s) {
                self.map.remove(&victim);
                EVICTIONS.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.maybe_compact();
    }
}

static CACHE: OnceLock<Mutex<LruCache>> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);

/// The memo cache, capped at `IGO_SIM_CACHE_CAP` entries (a positive
/// integer) or else [`DEFAULT_CACHE_CAP`].
fn cache() -> &'static Mutex<LruCache> {
    CACHE.get_or_init(|| {
        let cap = std::env::var(CACHE_CAP_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&cap| cap > 0)
            .unwrap_or(DEFAULT_CACHE_CAP);
        Mutex::new(LruCache::new(cap))
    })
}

const POISONED: &str = "no thread panics while holding the memo cache";

fn key(gemm: GemmShape, density: f64, config: &NpuConfig, entry: Entry) -> CacheKey {
    CacheKey {
        gemm,
        density_bits: density.to_bits(),
        config: ConfigFingerprint::of(config),
        entry,
    }
}

/// The memoized `entry` of a layer with forward shape `gemm` and ifmap
/// `density` on `config`, counted as a hit or a miss.
pub(crate) fn get(
    gemm: GemmShape,
    density: f64,
    config: &NpuConfig,
    entry: Entry,
) -> Option<Value> {
    let k = key(gemm, density, config, entry);
    let got = cache().lock().expect(POISONED).get(&k);
    match got {
        Some(_) => HITS.fetch_add(1, Ordering::Relaxed),
        None => MISSES.fetch_add(1, Ordering::Relaxed),
    };
    got
}

/// Memoize `value` as [`get`]'s answer.
pub(crate) fn put(gemm: GemmShape, density: f64, config: &NpuConfig, entry: Entry, value: Value) {
    // Concurrent workers may race on the same key; both compute the same
    // deterministic value, so last-write-wins is harmless.
    let k = key(gemm, density, config, entry);
    cache().lock().expect(POISONED).insert(k, value);
}

/// Hit/miss/eviction counters of the layer memo cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache (winners and candidates).
    pub hits: u64,
    /// Lookups the cache could not answer.
    pub misses: u64,
    /// Entries dropped by the LRU capacity cap.
    pub evictions: u64,
}

/// Process-wide cache counters so far. Monotonic; sample before and after a
/// workload to attribute lookups (the `--timing` flag does exactly that).
pub fn sim_cache_stats() -> CacheStats {
    CacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        evictions: EVICTIONS.load(Ordering::Relaxed),
    }
}

/// Number of entries (winners and candidate reports) currently memoized.
pub fn sim_cache_len() -> usize {
    cache().lock().expect(POISONED).map.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_distinguishes_spm_size_only() {
        let a = NpuConfig::large_single_core();
        let b = a.clone().with_spm_bytes(a.spm_bytes / 2);
        assert_ne!(
            ConfigFingerprint::of(&a),
            ConfigFingerprint::of(&b),
            "SPM-only difference must change the key"
        );
    }

    #[test]
    fn fingerprint_distinguishes_bandwidth_only() {
        let a = NpuConfig::large_single_core();
        let b = a.clone().with_bandwidth_scale(0.5);
        assert_ne!(
            ConfigFingerprint::of(&a),
            ConfigFingerprint::of(&b),
            "bandwidth-only difference must change the key"
        );
    }

    #[test]
    fn fingerprint_ignores_name_and_batch() {
        let a = NpuConfig::large_single_core();
        let mut b = a.clone().with_batch_per_core(32);
        b.name = "renamed".to_owned();
        assert_eq!(
            ConfigFingerprint::of(&a),
            ConfigFingerprint::of(&b),
            "labels and batch (already in the GEMM's M) are not keys"
        );
    }

    fn key_for(m: u64) -> CacheKey {
        key(
            GemmShape::new(m, 3, 5),
            1.0,
            &NpuConfig::small_edge(),
            Entry::Candidate(Stream::Forward),
        )
    }

    fn report(cycles: u64) -> SimReport {
        SimReport {
            cycles,
            ..Default::default()
        }
    }

    fn entry_for(cycles: u64) -> Value {
        let decision = LayerDecision {
            order: BackwardOrder::Baseline,
            partition: None,
        };
        (report(cycles), decision)
    }

    #[test]
    fn lru_cap_evicts_least_recently_used() {
        let mut lru = LruCache::new(4);
        let evicted_before = EVICTIONS.load(Ordering::Relaxed);
        for m in 1..=4 {
            lru.insert(key_for(m), entry_for(m));
        }
        // Touch the oldest entry, then overflow: the untouched next-oldest
        // (m=2) must be the victim, not the refreshed m=1.
        assert!(lru.get(&key_for(1)).is_some());
        lru.insert(key_for(5), entry_for(5));
        assert_eq!(lru.map.len(), 4, "cap must hold");
        assert!(lru.get(&key_for(2)).is_none(), "LRU entry evicted");
        assert!(lru.get(&key_for(1)).is_some(), "refreshed entry survives");
        assert!(lru.get(&key_for(5)).is_some(), "newest entry survives");
        assert!(
            EVICTIONS.load(Ordering::Relaxed) > evicted_before,
            "evictions must be counted"
        );
    }

    #[test]
    fn lru_queue_stays_bounded_under_repeated_touches() {
        let mut lru = LruCache::new(8);
        for m in 1..=8 {
            lru.insert(key_for(m), entry_for(m));
        }
        for _ in 0..10_000 {
            assert!(lru.get(&key_for(3)).is_some());
        }
        assert!(
            lru.queue.len() <= (2 * lru.map.len()).max(64) + 1,
            "lazy queue must be compacted, got {} slots",
            lru.queue.len()
        );
    }

    #[test]
    fn candidate_entries_key_spm_and_pass_position() {
        // A deliberately unique shape so no other test collides.
        let gemm = GemmShape::new(7873, 7867, 7853);
        let config = NpuConfig::small_edge();
        let shrunk = config.clone().with_spm_bytes(config.spm_bytes / 2);
        let plain = |is_first| {
            Entry::Candidate(Stream::Plain {
                order: BackwardOrder::Interleaved,
                is_first,
            })
        };
        assert_eq!(get(gemm, 1.0, &config, plain(false)), None);
        put(gemm, 1.0, &config, plain(false), entry_for(40));
        assert_eq!(get(gemm, 1.0, &config, plain(false)), Some(entry_for(40)));
        assert_eq!(get(gemm, 1.0, &shrunk, plain(false)), None, "SPM is keyed");
        assert_eq!(
            get(gemm, 1.0, &config, plain(true)),
            None,
            "pass position is keyed"
        );
        let winner = Entry::Winner {
            technique: Technique::Interleaving,
            is_first: false,
        };
        assert_eq!(get(gemm, 1.0, &config, winner), None, "entry kind is keyed");
    }

    #[test]
    fn cache_round_trips_a_forward_entry() {
        // A deliberately unique shape so no other test collides.
        let gemm = GemmShape::new(7919, 7907, 7901);
        let config = NpuConfig::small_edge();
        let forward = Entry::Candidate(Stream::Forward);
        assert_eq!(get(gemm, 0.123, &config, forward), None);
        put(gemm, 0.123, &config, forward, entry_for(42));
        assert_eq!(get(gemm, 0.123, &config, forward), Some(entry_for(42)));
        assert_eq!(get(gemm, 0.124, &config, forward), None, "density is keyed");
    }
}
