//! Report export: CSV writers for model reports and exporters for
//! recorded traces.
//!
//! Figure-style analyses usually end in a plotting tool; these writers
//! serialise a [`ModelReport`] (or a technique-ladder comparison) into
//! machine-readable CSV without adding any dependencies. Free-form fields
//! (layer names, model names, partition labels) are RFC-4180-quoted, so a
//! name containing a comma, quote or newline cannot shift columns.
//!
//! The trace exporters ([`chrome_trace_json`], [`trace_metrics_csv`],
//! [`dy_reuse_csv`], [`dy_tiles_csv`]) serialise [`LayerTrace`] recordings
//! from [`crate::observe`]: a Chrome trace-event JSON timeline loadable in
//! Perfetto / `chrome://tracing`, and CSV summaries of the derived
//! metrics. See `docs/observability.md` for the event taxonomy and
//! formats.

use crate::observe::LayerTrace;
use crate::report::ModelReport;
use igo_npu_sim::TraceEvent;
use igo_tensor::TensorClass;
use std::borrow::Cow;
use std::fmt::Write as _;
use std::io;

/// RFC-4180 field quoting: a field containing a comma, double quote or
/// newline is wrapped in double quotes with embedded quotes doubled; any
/// other field passes through unchanged.
fn csv_field(raw: &str) -> Cow<'_, str> {
    if raw.contains([',', '"', '\n', '\r']) {
        Cow::Owned(format!("\"{}\"", raw.replace('"', "\"\"")))
    } else {
        Cow::Borrowed(raw)
    }
}

/// Per-layer CSV of one report: one row per distinct layer with cycles
/// and per-class backward traffic.
///
/// Columns: `layer,multiplicity,fwd_cycles,bwd_cycles,order,partition,`
/// then one `read_<class>` and `write_<class>` pair per tensor class.
pub fn layers_csv(report: &ModelReport) -> String {
    let mut out = String::new();
    out.push_str("layer,multiplicity,fwd_cycles,bwd_cycles,order,partition");
    for class in TensorClass::ALL {
        let _ = write!(out, ",read_{0},write_{0}", class.label());
    }
    out.push('\n');
    for layer in &report.layers {
        let partition = layer
            .decision
            .partition
            .map(|(s, p)| format!("{s} x{p}"))
            .unwrap_or_else(|| "-".to_owned());
        let _ = write!(
            out,
            "{},{},{},{},{:?},{}",
            csv_field(&layer.name),
            layer.multiplicity,
            layer.forward.cycles,
            layer.backward.cycles,
            layer.decision.order,
            csv_field(&partition)
        );
        for class in TensorClass::ALL {
            let _ = write!(
                out,
                ",{},{}",
                layer.backward.traffic.read(class),
                layer.backward.traffic.write(class)
            );
        }
        out.push('\n');
    }
    out
}

/// Error from [`ladder_csv`]: a row's variant list disagrees with the
/// header derived from the first row, which would silently shift columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LadderMismatch {
    /// Model name of the offending row.
    pub model: String,
    /// Technique labels the header (first row) declares.
    pub expected: Vec<String>,
    /// Technique labels the offending row actually carries.
    pub found: Vec<String>,
}

impl core::fmt::Display for LadderMismatch {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "ladder row for {} has variants {:?}, header expects {:?}",
            self.model, self.found, self.expected
        )
    }
}

impl std::error::Error for LadderMismatch {}

/// Ladder CSV: one row per model with the normalised time of each
/// non-baseline report against the first (baseline) report.
///
/// `reports` groups runs per model: `(baseline, variants)`. Every row must
/// carry the same technique ladder as the first row (the header source);
/// a mismatching row returns [`LadderMismatch`] instead of silently
/// writing misaligned columns.
pub fn ladder_csv(rows: &[(&ModelReport, Vec<&ModelReport>)]) -> Result<String, LadderMismatch> {
    let mut out = String::new();
    out.push_str("model,config");
    let header: Vec<&str> = match rows.first() {
        Some((_, variants)) => variants.iter().map(|v| v.technique.label()).collect(),
        None => Vec::new(),
    };
    for label in &header {
        let _ = write!(out, ",{}", csv_field(label));
    }
    out.push('\n');
    for (base, variants) in rows {
        let found: Vec<&str> = variants.iter().map(|v| v.technique.label()).collect();
        if found != header {
            return Err(LadderMismatch {
                model: base.model.clone(),
                expected: header.iter().map(|s| s.to_string()).collect(),
                found: found.iter().map(|s| s.to_string()).collect(),
            });
        }
        let _ = write!(
            out,
            "{},{}",
            csv_field(&base.model),
            csv_field(&base.config)
        );
        for v in variants {
            let _ = write!(out, ",{:.6}", v.normalized_to(base));
        }
        out.push('\n');
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Trace exporters
// ---------------------------------------------------------------------------

/// Per-(layer, core) caps keeping exported traces tractable: a resnet50
/// layer can issue ~10⁵ tile-GEMMs, so raw per-event export would produce
/// hundreds of megabytes. Adjacent slices are coalesced (durations and
/// byte counts are preserved in the merged slice's `args`), counters are
/// decimated evenly.
const SLICE_CAP: usize = 1000;
const PHASE_CAP: usize = 400;
const COUNTER_CAP: usize = 600;
const BARRIER_CAP: usize = 200;

/// One exported timeline slice before serialisation.
#[derive(Debug, Clone)]
struct Slice {
    ts: u64,
    dur: u64,
    name: String,
    /// Engine ops merged into this slice.
    ops: u64,
    /// Payload (bytes moved, or busy compute cycles).
    extra: u64,
}

/// One Chrome trace event, serialised manually (no JSON dependency).
#[derive(Debug)]
struct ChromeEvent {
    ts: u64,
    dur: Option<u64>,
    ph: char,
    pid: usize,
    tid: usize,
    name: String,
    /// `(key, raw-JSON value)` pairs for the `args` object.
    args: Vec<(&'static str, String)>,
}

/// JSON string literal (quoted, escaped).
fn json_str(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 2);
    out.push('"');
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Merge `slices` down to at most `max` by grouping adjacent runs. The
/// merged slice spans from the first slice's start to the last slice's
/// end and sums `ops`/`extra`, so nothing is silently dropped.
fn coalesce(slices: Vec<Slice>, max: usize) -> Vec<Slice> {
    if slices.len() <= max {
        return slices;
    }
    let group = slices.len().div_ceil(max);
    slices
        .chunks(group)
        .map(|chunk| {
            let first = &chunk[0];
            let last = chunk.last().expect("chunks are non-empty");
            let uniform = chunk.iter().all(|s| s.name == first.name);
            Slice {
                ts: first.ts,
                dur: (last.ts + last.dur).saturating_sub(first.ts),
                name: if uniform {
                    first.name.clone()
                } else {
                    format!("{}+", first.name)
                },
                ops: chunk.iter().map(|s| s.ops).sum(),
                extra: chunk.iter().map(|s| s.extra).sum(),
            }
        })
        .collect()
}

/// Keep at most `max` evenly-strided samples, always retaining the last.
fn decimate<T: Copy + PartialEq>(values: &[T], max: usize) -> Vec<T> {
    if values.len() <= max {
        return values.to_vec();
    }
    let stride = values.len().div_ceil(max);
    let mut out: Vec<T> = values.iter().copied().step_by(stride).collect();
    if let Some(&last) = values.last() {
        if out.last() != Some(&last) {
            out.push(last);
        }
    }
    out
}

/// Memory-side per-op aggregation while walking the event stream.
#[derive(Default)]
struct MemAgg {
    start: u64,
    fetch: u64,
    bursts: u64,
    writeback: u64,
    stream: u64,
    accesses: bool,
    streamed: bool,
}

impl MemAgg {
    /// The memory slice this op contributes, reconstructed with the
    /// engine's own cost model (`bytes / bandwidth + bursts × latency`).
    fn into_slice(self, bytes_per_cycle: f64, burst_latency: u64) -> Option<Slice> {
        let (name, bytes, dur) = if self.streamed {
            let b = self.stream;
            (
                "stream",
                b,
                b as f64 / bytes_per_cycle + burst_latency as f64,
            )
        } else if self.accesses {
            let b = self.fetch + self.writeback;
            (
                "xfer",
                b,
                b as f64 / bytes_per_cycle + (self.bursts.max(1) * burst_latency) as f64,
            )
        } else {
            let b = self.writeback;
            (
                "flush",
                b,
                b as f64 / bytes_per_cycle + burst_latency as f64,
            )
        };
        if bytes == 0 {
            return None;
        }
        Some(Slice {
            ts: self.start,
            dur: dur.round() as u64,
            name: name.to_string(),
            ops: 1,
            extra: bytes,
        })
    }
}

/// Convert one recorded layer into Chrome trace events, appended to
/// `events` under process id `pid`.
fn push_layer_chrome_events(events: &mut Vec<ChromeEvent>, pid: usize, layer: &LayerTrace) {
    {
        events.push(ChromeEvent {
            ts: 0,
            dur: None,
            ph: 'M',
            pid,
            tid: 0,
            name: "process_name".to_string(),
            args: vec![(
                "name",
                json_str(&format!("{} [{}]", layer.name, layer.technique.label())),
            )],
        });
        for core in &layer.cores {
            let tid_compute = core.core * 2;
            let tid_memory = core.core * 2 + 1;
            for (tid, label) in [(tid_compute, "compute"), (tid_memory, "memory")] {
                events.push(ChromeEvent {
                    ts: 0,
                    dur: None,
                    ph: 'M',
                    pid,
                    tid,
                    name: "thread_name".to_string(),
                    args: vec![("name", json_str(&format!("core{} {label}", core.core)))],
                });
            }

            let mut compute: Vec<Slice> = Vec::new();
            let mut phases: Vec<Slice> = Vec::new();
            let mut mem: Vec<Slice> = Vec::new();
            let mut counters: Vec<(u64, u64)> = Vec::new();
            let mut barriers: Vec<u64> = Vec::new();
            let mut open_phase: Option<(&'static str, u64)> = None;
            let mut cur_op: Option<u32> = None;
            let mut agg = MemAgg::default();
            let mem_event = |agg: &mut MemAgg,
                             cur_op: &mut Option<u32>,
                             mem: &mut Vec<Slice>,
                             op: u32,
                             cycle: u64| {
                if *cur_op != Some(op) {
                    if cur_op.is_some() {
                        if let Some(s) = std::mem::take(agg)
                            .into_slice(layer.bytes_per_cycle, layer.burst_latency)
                        {
                            mem.push(s);
                        }
                    }
                    *cur_op = Some(op);
                    *agg = MemAgg {
                        start: cycle,
                        ..MemAgg::default()
                    };
                }
            };
            for event in &core.events {
                match *event {
                    TraceEvent::Access {
                        op,
                        bytes,
                        kind,
                        cycle,
                        occupancy,
                        ..
                    } => {
                        mem_event(&mut agg, &mut cur_op, &mut mem, op, cycle);
                        agg.accesses = true;
                        if kind == igo_npu_sim::AccessKind::Fetch {
                            agg.fetch += bytes;
                            agg.bursts += 1;
                        }
                        counters.push((cycle, occupancy));
                    }
                    TraceEvent::WriteBack {
                        op, bytes, cycle, ..
                    } => {
                        mem_event(&mut agg, &mut cur_op, &mut mem, op, cycle);
                        agg.writeback += bytes;
                    }
                    TraceEvent::StreamIo {
                        op,
                        read_bytes,
                        write_bytes,
                        cycle,
                        ..
                    } => {
                        mem_event(&mut agg, &mut cur_op, &mut mem, op, cycle);
                        agg.streamed = true;
                        agg.stream += read_bytes + write_bytes;
                    }
                    TraceEvent::GemmIssue {
                        start,
                        cycles,
                        phase,
                        ..
                    } => compute.push(Slice {
                        ts: start,
                        dur: cycles,
                        name: phase.label().to_string(),
                        ops: 1,
                        extra: cycles,
                    }),
                    TraceEvent::PhaseBegin { phase, cycle, .. } => {
                        open_phase = Some((phase.label(), cycle));
                    }
                    TraceEvent::PhaseEnd { cycle, .. } => {
                        if let Some((label, begin)) = open_phase.take() {
                            phases.push(Slice {
                                ts: begin,
                                dur: cycle.saturating_sub(begin),
                                name: label.to_string(),
                                ops: 1,
                                extra: 0,
                            });
                        }
                    }
                    TraceEvent::Barrier { cycle, .. } => barriers.push(cycle),
                }
            }
            if cur_op.is_some() {
                if let Some(s) = agg.into_slice(layer.bytes_per_cycle, layer.burst_latency) {
                    mem.push(s);
                }
            }

            for s in coalesce(compute, SLICE_CAP) {
                events.push(ChromeEvent {
                    ts: s.ts,
                    dur: Some(s.dur),
                    ph: 'X',
                    pid,
                    tid: tid_compute,
                    name: s.name,
                    args: vec![
                        ("ops", s.ops.to_string()),
                        ("busy_cycles", s.extra.to_string()),
                    ],
                });
            }
            for s in coalesce(mem, SLICE_CAP) {
                events.push(ChromeEvent {
                    ts: s.ts,
                    dur: Some(s.dur),
                    ph: 'X',
                    pid,
                    tid: tid_memory,
                    name: s.name,
                    args: vec![("ops", s.ops.to_string()), ("bytes", s.extra.to_string())],
                });
            }
            for s in coalesce(phases, PHASE_CAP) {
                for (ph, ts) in [('B', s.ts), ('E', s.ts + s.dur)] {
                    events.push(ChromeEvent {
                        ts,
                        dur: None,
                        ph,
                        pid,
                        tid: tid_compute,
                        name: s.name.clone(),
                        args: Vec::new(),
                    });
                }
            }
            for (cycle, occupancy) in decimate(&counters, COUNTER_CAP) {
                events.push(ChromeEvent {
                    ts: cycle,
                    dur: None,
                    ph: 'C',
                    pid,
                    tid: tid_memory,
                    name: format!("SPM core{}", core.core),
                    args: vec![("bytes", occupancy.to_string())],
                });
            }
            for cycle in decimate(&barriers, BARRIER_CAP) {
                events.push(ChromeEvent {
                    ts: cycle,
                    dur: None,
                    ph: 'i',
                    pid,
                    tid: tid_memory,
                    name: "barrier".to_string(),
                    args: Vec::new(),
                });
            }
        }
    }
}

/// Render the collected events as the Chrome trace JSON object format.
fn render_chrome_json(mut events: Vec<ChromeEvent>) -> String {
    // Stable sort: equal timestamps keep emission order, so an `E` at the
    // same cycle as the next phase's `B` stays before it.
    events.sort_by_key(|e| e.ts);

    let mut out = String::new();
    out.push_str("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{\"name\":");
        out.push_str(&json_str(&e.name));
        let _ = write!(
            out,
            ",\"ph\":\"{}\",\"ts\":{},\"pid\":{},\"tid\":{}",
            e.ph, e.ts, e.pid, e.tid
        );
        if let Some(dur) = e.dur {
            let _ = write!(out, ",\"dur\":{dur}");
        }
        if !e.args.is_empty() {
            out.push_str(",\"args\":{");
            for (j, (k, v)) in e.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{k}\":{v}");
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// The finished export artifacts of a trace run.
#[derive(Debug, Clone)]
pub struct TraceArtifacts {
    /// Chrome trace-event JSON (Perfetto / `chrome://tracing`).
    pub trace_json: String,
    /// Per-(layer, core, class) metrics CSV.
    pub metrics_csv: String,
    /// dY reuse-ratio-over-time CSV.
    pub dy_reuse_csv: String,
    /// Per-dY-tile reuse CSV.
    pub dy_tiles_csv: String,
}

/// Incremental trace exporter: feed recorded layers one at a time with
/// [`TraceExport::add_layer`], then [`TraceExport::finish`]. Only the
/// coalesced export state is retained between layers, so a whole-model
/// trace never needs more than one layer's raw event stream in memory —
/// the caller can drop each [`LayerTrace`] right after adding it.
#[derive(Debug)]
pub struct TraceExport {
    max_reuse_points: usize,
    layers: usize,
    events: Vec<ChromeEvent>,
    metrics: String,
    reuse: String,
    tiles: String,
}

/// Default per-(layer, core) row cap of the dY reuse time-series CSV.
pub const DEFAULT_REUSE_POINTS: usize = 512;

impl TraceExport {
    /// Start an export; each (layer, core) dY time series is decimated to
    /// at most `max_reuse_points` CSV rows (the final point always kept).
    pub fn new(max_reuse_points: usize) -> Self {
        let mut metrics =
            String::from("layer,core,capacity,high_water,class,accesses,hits,misses,cold");
        for i in 0..igo_npu_sim::REUSE_BUCKETS {
            let _ = write!(metrics, ",d2^{i}");
        }
        metrics.push('\n');
        Self {
            max_reuse_points: max_reuse_points.max(1),
            layers: 0,
            events: Vec::new(),
            metrics,
            reuse: String::from("layer,core,cycle,dy_accesses,dy_hits,ratio\n"),
            tiles: String::from("layer,core,row,col,bytes,accesses,hits,reuse_ratio\n"),
        }
    }

    /// Fold one recorded layer into every export artifact.
    pub fn add_layer(&mut self, layer: &LayerTrace) {
        push_layer_chrome_events(&mut self.events, self.layers, layer);
        self.layers += 1;
        for core in &layer.cores {
            for class in TensorClass::ALL {
                let m = core.metrics.class(class);
                if m.accesses == 0 {
                    continue;
                }
                let _ = write!(
                    self.metrics,
                    "{},{},{},{},{},{},{},{},{}",
                    csv_field(&layer.name),
                    core.core,
                    core.metrics.capacity,
                    core.metrics.occupancy_high_water,
                    class.label(),
                    m.accesses,
                    m.hits,
                    m.misses(),
                    m.histogram.cold
                );
                for bucket in m.histogram.buckets {
                    let _ = write!(self.metrics, ",{bucket}");
                }
                self.metrics.push('\n');
            }
            for p in decimate(&core.metrics.dy_timeline, self.max_reuse_points) {
                let _ = writeln!(
                    self.reuse,
                    "{},{},{},{},{},{:.6}",
                    csv_field(&layer.name),
                    core.core,
                    p.cycle,
                    p.accesses,
                    p.hits,
                    p.ratio()
                );
            }
            for t in &core.metrics.dy_tiles {
                let _ = writeln!(
                    self.tiles,
                    "{},{},{},{},{},{},{},{:.6}",
                    csv_field(&layer.name),
                    core.core,
                    t.key.coord.r,
                    t.key.coord.c,
                    t.bytes,
                    t.accesses,
                    t.hits,
                    t.reuse_ratio()
                );
            }
        }
    }

    /// Render the final artifacts.
    pub fn finish(self) -> TraceArtifacts {
        TraceArtifacts {
            trace_json: render_chrome_json(self.events),
            metrics_csv: self.metrics,
            dy_reuse_csv: self.reuse,
            dy_tiles_csv: self.tiles,
        }
    }
}

fn export_all(traces: &[LayerTrace], max_reuse_points: usize) -> TraceArtifacts {
    let mut export = TraceExport::new(max_reuse_points);
    for trace in traces {
        export.add_layer(trace);
    }
    export.finish()
}

/// Serialise recorded layer traces as Chrome trace-event JSON (the array
/// format Perfetto and `chrome://tracing` load directly).
///
/// Layout: one *process* per layer (`pid` = layer index), two *threads*
/// per core — `core*2` is the compute timeline (tile-GEMM slices and
/// dX/dW phase begin/end markers), `core*2+1` is the memory timeline
/// (transfer/stream/flush slices, barrier instants). SPM occupancy is
/// exported as a counter track per core. Events are sorted by timestamp;
/// dense regions are coalesced, with merged slice counts and byte totals
/// preserved in `args`.
pub fn chrome_trace_json(traces: &[LayerTrace]) -> String {
    export_all(traces, DEFAULT_REUSE_POINTS).trace_json
}

/// Write [`chrome_trace_json`] to `w`.
pub fn write_chrome_trace<W: io::Write>(mut w: W, traces: &[LayerTrace]) -> io::Result<()> {
    w.write_all(chrome_trace_json(traces).as_bytes())
}

/// Per-(layer, core, class) metrics CSV: accesses, hits, misses, SPM
/// occupancy high-water mark and the full reuse-distance histogram
/// (`cold` plus one `d2^i` column per log₂ bucket). Classes a core never
/// touches are omitted.
pub fn trace_metrics_csv(traces: &[LayerTrace]) -> String {
    export_all(traces, DEFAULT_REUSE_POINTS).metrics_csv
}

/// dY reuse-ratio-over-time CSV (the paper's Figure 5 quantity): one row
/// per sampled dY access with the cumulative hit ratio at that cycle.
/// Each (layer, core) series is decimated to at most `max_points` rows,
/// always keeping the final (total-ratio) point.
pub fn dy_reuse_csv(traces: &[LayerTrace], max_points: usize) -> String {
    export_all(traces, max_points).dy_reuse_csv
}

/// Per-dY-tile reuse CSV: every dY tile's accesses, hits and reuse ratio
/// (Figure 5 resolved per tile), sorted by tile coordinate within each
/// (layer, core).
pub fn dy_tiles_csv(traces: &[LayerTrace]) -> String {
    export_all(traces, DEFAULT_REUSE_POINTS).dy_tiles_csv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::simulate_model;
    use crate::technique::Technique;
    use igo_npu_sim::NpuConfig;
    use igo_workloads::{zoo, ModelId};

    fn reports() -> (ModelReport, ModelReport) {
        let config = NpuConfig::large_single_core();
        let model = zoo::model(ModelId::Ncf, 8);
        (
            simulate_model(&model, &config, Technique::Baseline),
            simulate_model(&model, &config, Technique::Rearrangement),
        )
    }

    /// Minimal RFC-4180 parser for round-trip checks: splits one CSV text
    /// into records of unescaped fields.
    fn parse_csv(text: &str) -> Vec<Vec<String>> {
        let mut rows = Vec::new();
        let mut row: Vec<String> = Vec::new();
        let mut field = String::new();
        let mut quoted = false;
        let mut chars = text.chars().peekable();
        while let Some(c) = chars.next() {
            if quoted {
                match c {
                    '"' if chars.peek() == Some(&'"') => {
                        chars.next();
                        field.push('"');
                    }
                    '"' => quoted = false,
                    _ => field.push(c),
                }
            } else {
                match c {
                    '"' => quoted = true,
                    ',' => row.push(std::mem::take(&mut field)),
                    '\n' => {
                        row.push(std::mem::take(&mut field));
                        rows.push(std::mem::take(&mut row));
                    }
                    '\r' => {}
                    _ => field.push(c),
                }
            }
        }
        if !field.is_empty() || !row.is_empty() {
            row.push(field);
            rows.push(row);
        }
        rows
    }

    #[test]
    fn layers_csv_has_row_per_layer_plus_header() {
        let (base, _) = reports();
        let csv = layers_csv(&base);
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines.len(), base.layers.len() + 1);
        assert!(lines[0].starts_with("layer,multiplicity"));
        assert!(lines[0].contains("read_dY"));
        // Every data row has the same number of fields as the header.
        let fields = lines[0].split(',').count();
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), fields, "{line}");
        }
    }

    #[test]
    fn ladder_csv_normalises_against_baseline() {
        let (base, rearr) = reports();
        let csv = ladder_csv(&[(&base, vec![&rearr])]).expect("uniform ladder");
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].ends_with("+Rearrangement"));
        let value: f64 = lines[1].split(',').nth(2).unwrap().parse().unwrap();
        assert!((0.1..2.0).contains(&value));
    }

    #[test]
    fn ladder_csv_rejects_mismatched_variant_sets() {
        let (base, rearr) = reports();
        let rows: Vec<(&ModelReport, Vec<&ModelReport>)> =
            vec![(&base, vec![&rearr]), (&base, vec![])];
        let err = ladder_csv(&rows).expect_err("row 2 drops the variant");
        assert_eq!(err.expected, vec!["+Rearrangement".to_string()]);
        assert!(err.found.is_empty());
        assert!(err.to_string().contains("header expects"));
    }

    #[test]
    fn layers_csv_quotes_hostile_names_round_trip() {
        let (mut base, _) = reports();
        let hostile = [
            "conv1,expansion",
            "say \"hi\"",
            "multi\nline",
            "comma, \"and\" quote",
        ];
        for (layer, name) in base.layers.iter_mut().zip(hostile) {
            layer.name = name.to_string();
        }
        let csv = layers_csv(&base);
        let rows = parse_csv(&csv);
        let header_fields = rows[0].len();
        assert_eq!(rows.len(), base.layers.len() + 1);
        for (row, layer) in rows[1..].iter().zip(&base.layers) {
            assert_eq!(row.len(), header_fields, "{row:?}");
            assert_eq!(row[0], layer.name, "name must survive the round trip");
            assert_eq!(row[1], layer.multiplicity.to_string());
        }
    }

    #[test]
    fn ladder_csv_quotes_hostile_model_names_round_trip() {
        let (mut base, rearr) = reports();
        base.model = "ncf, batch=8".to_string();
        base.config = "server \"1-core\"".to_string();
        let csv = ladder_csv(&[(&base, vec![&rearr])]).expect("uniform ladder");
        let rows = parse_csv(&csv);
        assert_eq!(rows[1][0], base.model);
        assert_eq!(rows[1][1], base.config);
        assert_eq!(rows[1].len(), rows[0].len());
    }
}
