//! `igo-simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `s` seconds and prints every metric by name
//! with its unit; the last line of stdout is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Every pass of the
//! workload runs in a fresh child process of this binary, so each pays the
//! simulator's start-up cost and starts with a cold memo cache, as every
//! `igo-sim` invocation does. With `--trace 0` the metrics are end to end;
//! with `--trace 1` they are per layer, from spans around the calls the
//! benchmark makes (see README.md).
//!
//! `igo-simbench --pin <workload> [--seed <n>]...` prints the digests of
//! the given passes as `key<TAB>digest` lines, for `pinned/`.

use igo_core::{CACHE_CAP_ENV, THREADS_ENV};
use igo_simbench::stats::{median, tail, TAIL_BEYOND};
use igo_simbench::trace::{self, Tracer, SETUP};
use igo_simbench::workloads::{Prepared, Workload};
use igo_tensor::rng::SplitMix64;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: igo-simbench --workload <zoo-ladder|layer-mix|oracle> --seed <n> --seconds <s> --trace <0|1>\n       igo-simbench --pin <workload> [--seed <n>]...";

/// Passes per run at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Traced passes (and as many untraced ones) per traced run at least.
const MIN_TRACED_PASSES: usize = 2;

/// Host seconds one pass of `w` takes, process start and checks included,
/// on a 2-core x86-64 host. A run makes `--seconds` / this many passes: a
/// fixed count rather than "until the time is up", so that every run pools
/// the same number of op latencies and the tail percentile is comparable.
fn nominal_pass_s(w: Workload) -> f64 {
    match w {
        Workload::ZooLadder => 5.5,
        Workload::LayerMix => 3.5,
        Workload::Oracle => 2.8,
    }
}

fn passes_for(w: Workload, seconds: u64, min: usize) -> usize {
    ((seconds as f64 / nominal_pass_s(w)).round() as usize).max(min)
}

/// The input seeds of a run's passes, derived from the run's seed: the
/// same run seed gives the same inputs, and on `layer-mix` each pass draws
/// its own requests, so a run samples `n` times as many.
fn pass_seeds(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_u64()).collect()
}

/// Nanoseconds since the Unix epoch: a clock the parent and its child
/// passes share, for measuring set-up from process start.
fn unix_ns() -> u128 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--pass") => child(&args[1..]),
        Some("--pin") => pin(&args[1..]),
        _ => parse_run(&args).and_then(|(w, seed, seconds, trace)| run(w, seed, seconds, trace)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("igo-simbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    let i = args
        .iter()
        .position(|a| a == name)
        .ok_or_else(|| format!("missing {name}\n{USAGE}"))?;
    args.get(i + 1)
        .map(String::as_str)
        .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
}

fn number<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let v = flag(args, name)?;
    v.parse()
        .map_err(|_| format!("{name}: '{v}' is not a valid number\n{USAGE}"))
}

fn workload(name: &str) -> Result<Workload, String> {
    Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'\n{USAGE}"))
}

fn parse_run(args: &[String]) -> Result<(Workload, u64, u64, bool), String> {
    let w = workload(flag(args, "--workload")?)?;
    let seed = number(args, "--seed")?;
    let seconds = number(args, "--seconds")?;
    let trace = match flag(args, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not '{other}'\n{USAGE}")),
    };
    Ok((w, seed, seconds, trace))
}

/// One pass in this process: set up, run the timed region, check, and
/// print the raw measurements as `key<TAB>value` lines for the parent.
fn child(args: &[String]) -> Result<(), String> {
    let w = workload(args.first().ok_or(USAGE)?)?;
    let seed = number(args, "--seed")?;
    let spawned_at: u128 = number(args, "--spawned-at")?;
    let spans_path = args
        .iter()
        .position(|a| a == "--spans")
        .and_then(|i| args.get(i + 1));
    let tracer = Tracer::new(spans_path.is_some());
    let prepared = tracer.span(SETUP, None, String::new, |root| {
        Prepared::setup(w, seed, &tracer, root)
    });
    let setup_s = unix_ns().saturating_sub(spawned_at) as f64 * 1e-9;
    let workers = w.workers();
    let pass = prepared.run(workers, &tracer);
    let m = &pass.measured;
    let lat: Vec<String> = pass.lat_ms.iter().map(f64::to_string).collect();
    let mut out = format!(
        "setup_s\t{setup_s}\nwall_s\t{}\ncpu_s\t{}\npeak_rss_kib\t{}\nops\t{}\nfailed\t{}\nlat_ms\t{}\n",
        m.wall_s,
        m.cpu_s,
        m.peak_rss_kib,
        pass.lat_ms.len(),
        pass.failed,
        lat.join(","),
    );
    let c = &m.counters;
    for (name, v) in [
        ("analytic.runs", c.analytic_runs),
        ("engine.runs", c.engine_runs),
        ("simcache.hits", c.cache_hits),
        ("simcache.misses", c.cache_misses),
        ("simcache.evictions", c.cache_evictions),
        ("simcache.entries", m.cache_entries as u64),
    ] {
        out.push_str(&format!("count\t{name}\t{v}\n"));
    }
    for note in &pass.notes {
        out.push_str(&format!("note\t{note}\n"));
    }
    if let Some(path) = spans_path {
        let spans = tracer.into_spans();
        for (name, v) in trace::layer_metrics(&spans, workers) {
            out.push_str(&format!("layer\t{name}\t{v}\n"));
        }
        for (self_s, name, label) in trace::slowest(&spans, 10) {
            out.push_str(&format!("slow\t{self_s:.6}\t{name}\t{label}\n"));
        }
        std::fs::write(path, trace::to_tsv(&spans))
            .map_err(|e| format!("cannot write spans to {path}: {e}"))?;
    }
    print!("{out}");
    Ok(())
}

/// Print the digests of the passes at the given seeds (one pass at seed 0
/// by default), sorted and deduplicated.
fn pin(args: &[String]) -> Result<(), String> {
    let w = workload(args.first().ok_or(USAGE)?)?;
    let mut seeds = Vec::new();
    for (i, a) in args.iter().enumerate() {
        if a == "--seed" {
            let v = args.get(i + 1).ok_or(USAGE)?;
            seeds.push(v.parse::<u64>().map_err(|_| format!("bad seed '{v}'"))?);
        }
    }
    if seeds.is_empty() {
        seeds.push(0);
    }
    let tracer = Tracer::new(false);
    let mut table = BTreeMap::new();
    for seed in seeds {
        let pass = Prepared::setup(w, seed, &tracer, None).run(w.workers(), &tracer);
        for (key, digest) in pass.digests {
            if let Some(old) = table.insert(key.clone(), digest.clone()) {
                if old != digest {
                    return Err(format!("{key}: digest {digest} differs from {old}"));
                }
            }
        }
    }
    for (key, digest) in table {
        println!("{key}\t{digest}");
    }
    Ok(())
}

/// The raw measurements of one child pass.
#[derive(Debug, Default)]
struct PassLog {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    peak_rss_kib: f64,
    ops: usize,
    failed: usize,
    lat_ms: Vec<f64>,
    counts: BTreeMap<String, f64>,
    layers: Vec<(String, f64)>,
    slow: Vec<String>,
    notes: Vec<String>,
}

fn parse_pass(text: &str) -> Result<PassLog, String> {
    let mut p = PassLog::default();
    let num = |v: &str| v.parse::<f64>().map_err(|_| format!("bad number '{v}'"));
    for line in text.lines() {
        let mut f = line.splitn(3, '\t');
        let (key, a, b) = (f.next().unwrap_or(""), f.next().unwrap_or(""), f.next());
        match key {
            "setup_s" => p.setup_s = num(a)?,
            "wall_s" => p.wall_s = num(a)?,
            "cpu_s" => p.cpu_s = num(a)?,
            "peak_rss_kib" => p.peak_rss_kib = num(a)?,
            "ops" => p.ops = num(a)? as usize,
            "failed" => p.failed = num(a)? as usize,
            "lat_ms" => {
                p.lat_ms = a
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(num)
                    .collect::<Result<_, _>>()?
            }
            "count" => {
                p.counts.insert(a.to_owned(), num(b.unwrap_or(""))?);
            }
            "layer" => p.layers.push((a.to_owned(), num(b.unwrap_or(""))?)),
            "slow" => p.slow.push(format!("{a}\t{}", b.unwrap_or(""))),
            "note" => p.notes.push(a.to_owned()),
            _ => {}
        }
    }
    if p.ops == 0 || p.wall_s <= 0.0 {
        return Err(format!("pass printed no measurements:\n{text}"));
    }
    Ok(p)
}

/// Run one pass in a fresh child process with the pool pinned to `workers`.
fn spawn(w: Workload, seed: u64, workers: usize, spans: Option<&Path>) -> Result<PassLog, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--pass", w.name(), "--seed", &seed.to_string()])
        .env(THREADS_ENV, workers.to_string())
        .env_remove(CACHE_CAP_ENV);
    if let Some(path) = spans {
        cmd.arg("--spans").arg(path);
    }
    cmd.args(["--spawned-at", &unix_ns().to_string()]);
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start a pass: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "a {} pass failed ({}):\n{}",
            w.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    parse_pass(&String::from_utf8_lossy(&out.stdout))
}

/// `(name, unit, value)` rows of the final result.
type Metrics = Vec<(String, &'static str, f64)>;

fn med(values: impl IntoIterator<Item = f64>) -> f64 {
    median(&values.into_iter().collect::<Vec<_>>()).unwrap_or(0.0)
}

fn run(w: Workload, seed: u64, seconds: u64, traced: bool) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "igo-simbench {} seed {seed}: {} s, nproc {nproc}, host time, fresh process and cold memo cache per pass",
        w.name(),
        seconds
    );
    let (metrics, passes) = if traced {
        per_layer(
            w,
            seed,
            nproc,
            passes_for(w, seconds / 3, MIN_TRACED_PASSES),
        )?
    } else {
        // On a host much slower than the nominal one, stop early rather
        // than overrun the run's time by more than a quarter.
        let cap = Instant::now() + Duration::from_secs(seconds) * 5 / 4;
        let mut passes = Vec::new();
        for pass_seed in pass_seeds(seed, passes_for(w, seconds, MIN_PASSES)) {
            if passes.len() >= MIN_PASSES && Instant::now() > cap {
                println!("stopped after {} passes: over the time cap", passes.len());
                break;
            }
            passes.push(spawn(w, pass_seed, nproc, None)?);
        }
        (end_to_end(&passes), passes)
    };
    let attempted: usize = passes.iter().map(|p| p.ops).sum();
    let failed: usize = passes.iter().map(|p| p.failed).sum();
    for note in passes.iter().flat_map(|p| &p.notes).take(20) {
        println!("check failed: {note}");
    }
    println!(
        "{} passes, {attempted} ops checked, {failed} failed (fail_ratio {})",
        passes.len(),
        failed as f64 / attempted as f64
    );
    let mut json = Vec::new();
    for (name, unit, value) in &metrics {
        if !value.is_finite() {
            return Err(format!("{name} is not finite"));
        }
        println!("{name:<32} {value:>16.6} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        json.join(", ")
    );
    Ok(())
}

/// End-to-end metrics over untraced passes: medians per pass, latency
/// percentiles over every op of every pass.
fn end_to_end(passes: &[PassLog]) -> Metrics {
    let lat: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.lat_ms.iter().copied())
        .collect();
    let t = tail(&lat);
    match t {
        Some(t) => println!(
            "op_tail_ms is p{:.2}: {} of {} op latencies lie beyond it",
            t.percentile, TAIL_BEYOND, t.samples
        ),
        None => println!("op_tail_ms is the maximum: only {} op latencies", lat.len()),
    }
    let tail_ms = t.map_or_else(|| lat.iter().copied().fold(0.0, f64::max), |t| t.value);
    vec![
        ("setup_s".into(), "s", med(passes.iter().map(|p| p.setup_s))),
        (
            "ops_per_s".into(),
            "1/s",
            med(passes.iter().map(|p| p.ops as f64 / p.wall_s)),
        ),
        ("cpu_s".into(), "s", med(passes.iter().map(|p| p.cpu_s))),
        (
            "peak_rss_mib".into(),
            "MiB",
            med(passes.iter().map(|p| p.peak_rss_kib / 1024.0)),
        ),
        ("op_p50_ms".into(), "ms", median(&lat).unwrap_or(0.0)),
        ("op_tail_ms".into(), "ms", tail_ms),
    ]
}

/// Per-layer metrics: `pairs` untraced and traced passes on the full pool,
/// alternating (their wall ratio is the tracing overhead; their counts give
/// each counter's run-to-run range), then one traced pass on a single
/// worker, whose counts must repeat exactly. Every pass runs the inputs of
/// the run's first pass seed.
fn per_layer(
    w: Workload,
    seed: u64,
    nproc: usize,
    pairs: usize,
) -> Result<(Metrics, Vec<PassLog>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("own binary has no directory")?
        .join("simbench-spans");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let spans = |tag: &str| -> PathBuf { dir.join(format!("{}-seed{seed}-{tag}.tsv", w.name())) };
    let pass_seed = pass_seeds(seed, 1)[0];
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for i in 0..pairs {
        plain.push(spawn(w, pass_seed, nproc, None)?);
        traced.push(spawn(
            w,
            pass_seed,
            nproc,
            Some(&spans(&format!("nproc-{i}"))),
        )?);
    }
    let single = spawn(w, pass_seed, 1, Some(&spans("1worker")))?;
    println!("spans written to {}", dir.display());

    let mut metrics: Metrics = Vec::new();
    let names: Vec<String> = traced[0].layers.iter().map(|(n, _)| n.clone()).collect();
    for (i, name) in names.iter().enumerate() {
        let unit = layer_unit(name);
        metrics.push((
            name.clone(),
            unit,
            med(traced.iter().map(|p| p.layers[i].1)),
        ));
    }
    let count = |name: &str| single.counts.get(name).copied().unwrap_or(0.0);
    let (hits, misses) = (count("simcache.hits"), count("simcache.misses"));
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    for name in [
        "simcache.hits",
        "simcache.misses",
        "simcache.evictions",
        "simcache.entries",
        "analytic.runs",
        "engine.runs",
    ] {
        metrics.push((name.into(), "count", count(name)));
    }
    metrics.push((
        "simcache.hit_ratio".into(),
        "ratio",
        ratio(hits, hits + misses),
    ));
    metrics.push((
        "analytic.runs_per_miss".into(),
        "runs/miss",
        ratio(count("analytic.runs"), misses),
    ));
    let full: Vec<&PassLog> = plain.iter().chain(&traced).collect();
    for name in [
        "analytic.runs",
        "engine.runs",
        "simcache.hits",
        "simcache.misses",
    ] {
        let seen: Vec<f64> = full
            .iter()
            .filter_map(|p| p.counts.get(name).copied())
            .collect();
        let lo = seen.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = seen.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "{name} at IGO_SIM_THREADS={nproc} ranged {lo}..={hi} over {} passes",
            seen.len()
        );
        metrics.push((format!("{name}.nproc_range"), "count", hi - lo));
    }
    metrics.push((
        "trace.overhead_ratio".into(),
        "ratio",
        med(traced.iter().map(|p| p.wall_s)) / med(plain.iter().map(|p| p.wall_s)),
    ));
    println!("ten slowest pipeline calls by self time (1 worker): self_s, layer, what");
    for line in &single.slow {
        println!("  {line}");
    }
    let mut passes = plain;
    passes.extend(traced);
    passes.push(single);
    Ok((metrics, passes))
}

fn layer_unit(name: &str) -> &'static str {
    if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_s") {
        "s"
    } else if name.ends_with("utilization") {
        "ratio"
    } else {
        "count"
    }
}
