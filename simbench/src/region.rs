//! A timed region: host wall and CPU time, peak memory, and the
//! simulator's process-wide work counters across it.

use igo_core::{sim_cache_len, sim_cache_stats};
use igo_npu_sim::{analytic_run_count, engine_run_count};
use std::time::Instant;

/// The simulator's work counters (process-wide and monotonic, so a region
/// reports their deltas).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    pub analytic_runs: u64,
    pub engine_runs: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
}

impl Counters {
    pub fn now() -> Self {
        let cache = sim_cache_stats();
        Self {
            analytic_runs: analytic_run_count(),
            engine_runs: engine_run_count(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
        }
    }

    fn since(&self, before: &Self) -> Self {
        Self {
            analytic_runs: self.analytic_runs - before.analytic_runs,
            engine_runs: self.engine_runs - before.engine_runs,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            cache_evictions: self.cache_evictions - before.cache_evictions,
        }
    }
}

/// An open region; [`Region::stop`] closes it.
pub struct Region {
    start: Instant,
    cpu_s: f64,
    counters: Counters,
}

/// What a closed region measured.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    pub wall_s: f64,
    /// User plus system CPU seconds of every thread of the process.
    pub cpu_s: f64,
    pub counters: Counters,
    /// Memo-cache entries at the end of the region.
    pub cache_entries: usize,
    /// Peak resident memory of the process so far, KiB.
    pub peak_rss_kib: u64,
}

impl Region {
    pub fn start() -> Self {
        Self {
            counters: Counters::now(),
            cpu_s: process_cpu_s(),
            start: Instant::now(),
        }
    }

    pub fn stop(self) -> Measured {
        let wall_s = self.start.elapsed().as_secs_f64();
        Measured {
            wall_s,
            cpu_s: process_cpu_s() - self.cpu_s,
            counters: Counters::now().since(&self.counters),
            cache_entries: sim_cache_len(),
            peak_rss_kib: peak_rss_kib(),
        }
    }
}

/// Linux's `USER_HZ`, the unit of the CPU times in `/proc/<pid>/stat`.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User plus system CPU time of this process, all threads (live and
/// exited) included, from `/proc/self/stat`.
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("the benchmark needs Linux /proc");
    parse_cpu_ticks(&stat).expect("/proc/self/stat has utime and stime") as f64 / CLOCK_TICKS_PER_S
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name (field
/// 2) may contain spaces, so fields are counted after its closing paren.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size (`VmHWM`) of this process, KiB.
fn peak_rss_kib() -> u64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("the benchmark needs Linux /proc");
    parse_vm_hwm(&status).expect("/proc/self/status has VmHWM")
}

fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_skip_a_command_name_with_spaces() {
        let stat = "42 (a b) R 1 2 3 4 5 6 7 8 9 10 130 70 0 0 20 0";
        assert_eq!(parse_cpu_ticks(stat), Some(200));
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tx\nVmPeak:\t  9 kB\nVmHWM:\t  5120 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(5120));
    }

    #[test]
    fn live_process_reads() {
        assert!(peak_rss_kib() > 0);
        assert!(process_cpu_s() >= 0.0);
    }
}
