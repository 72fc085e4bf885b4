//! Spans around the benchmark's own calls into the simulator's layers.
//!
//! Every call the benchmark makes into a layer (`zoo::model`,
//! `simulate_model_ladder`, `parallel_map`, ...) can be wrapped in a span
//! recording its name, start, end, parent span and thread. Spans are kept
//! in memory and written out when the pass ends; per-layer metrics are
//! derived from them afterwards. A disabled [`Tracer`] records nothing and
//! costs one branch per call.

use crate::stats::median;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// `igo_workloads::zoo::model`: building one model.
pub const BUILD: &str = "workloads.build";
/// `simulate_model_ladder` or `simulate_model_with`: one grid or model task.
pub const TASK: &str = "pipeline.task";
/// `simulate_layer_forward_with`.
pub const FORWARD: &str = "pipeline.forward";
/// `simulate_layer_backward_with`.
pub const BACKWARD: &str = "pipeline.backward";
/// One fan-out of ops over the benchmark's workers (`parallel_map`, or a
/// plain loop on the single-threaded workload).
pub const MAP: &str = "parallel.map";
/// One layer-mix request: a forward call followed by a backward call.
pub const REQUEST: &str = "bench.request";
/// The set-up phase of a pass (root span).
pub const SETUP: &str = "bench.setup";
/// The timed region of a pass (root span).
pub const TIMED: &str = "bench.timed";

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub thread: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Cycle-engine runs the process made while the span was open (all
    /// threads: exact only when nothing else runs concurrently).
    pub engine_runs: u64,
    /// What the call was about: shape, config and technique.
    pub label: String,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// In-memory span recorder shared by the benchmark's threads.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a pass lasts under 584 years")
    }

    /// Run `f` inside a span named `name` under `parent`. `f` receives the
    /// new span's id (to parent spans it opens, possibly on other threads);
    /// `label` is only evaluated when tracing is on.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        label: impl FnOnce() -> String,
        f: impl FnOnce(Option<u64>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let engine_before = igo_npu_sim::engine_run_count();
        let start_ns = self.now_ns();
        let out = f(Some(id));
        let end_ns = self.now_ns();
        let span = Span {
            id,
            parent,
            thread: THREAD.with(|t| *t),
            name,
            start_ns,
            end_ns,
            engine_runs: igo_npu_sim::engine_run_count() - engine_before,
            label: label(),
        };
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking thread")
            .push(span);
        out
    }

    /// All recorded spans, ordered by id.
    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self
            .spans
            .into_inner()
            .expect("span recorder poisoned by a panicking thread");
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time of every span, in nanoseconds and in `spans` order: the
/// span's duration minus the part of its interval that its child spans
/// cover. Children on other threads may overlap each other; the covered
/// part is the union of their intervals, clipped to the parent's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.duration_ns();
            };
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// Per-layer metrics derived from one pass's spans, by name, in a fixed
/// order. `workers` is the size of the pass's fan-out.
pub fn layer_metrics(spans: &[Span], workers: usize) -> Vec<(&'static str, f64)> {
    let busy = |name: &str| -> u64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    };
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as f64;
    let task_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == TASK)
        .map(|s| secs(s.duration_ns()) * 1e3)
        .collect();
    let task_max = spans
        .iter()
        .filter(|s| s.name == TASK)
        .map(Span::duration_ns)
        .max()
        .unwrap_or(0);

    // Pool accounting around the benchmark's own fan-outs: the time its
    // workers spent inside an op against the time they were available.
    let maps: HashMap<u64, u64> = spans
        .iter()
        .filter(|s| s.name == MAP)
        .map(|s| (s.id, s.duration_ns()))
        .collect();
    let map_wall: u64 = maps.values().sum();
    let map_busy: u64 = spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| maps.contains_key(&p)))
        .map(Span::duration_ns)
        .sum();
    let capacity = secs(map_wall) * workers as f64;
    let engine_busy: u64 = spans
        .iter()
        .filter(|s| is_layer_call(s) && s.engine_runs > 0)
        .map(Span::duration_ns)
        .sum();

    vec![
        ("workloads.build_s", secs(busy(BUILD))),
        ("pipeline.task.count", count(TASK)),
        ("pipeline.task.busy_s", secs(busy(TASK))),
        ("pipeline.task.p50_ms", median(&task_ms).unwrap_or(0.0)),
        ("pipeline.task.max_s", secs(task_max)),
        ("pipeline.forward.calls", count(FORWARD)),
        ("pipeline.forward.busy_s", secs(busy(FORWARD))),
        ("pipeline.backward.calls", count(BACKWARD)),
        ("pipeline.backward.busy_s", secs(busy(BACKWARD))),
        ("parallel.workers", workers as f64),
        (
            "parallel.utilization",
            if capacity > 0.0 {
                secs(map_busy) / capacity
            } else {
                0.0
            },
        ),
        ("parallel.idle_s", (capacity - secs(map_busy)).max(0.0)),
        ("engine.busy_s", secs(engine_busy)),
    ]
}

/// A span around one call into the simulation pipeline.
fn is_layer_call(s: &Span) -> bool {
    matches!(s.name, TASK | FORWARD | BACKWARD)
}

/// The `n` pipeline calls with the largest self time, slowest first, as
/// `(self seconds, span name, label)`.
pub fn slowest(spans: &[Span], n: usize) -> Vec<(f64, &'static str, String)> {
    let own = self_times(spans);
    let mut calls: Vec<(u64, &Span)> = spans
        .iter()
        .zip(own)
        .filter(|(s, _)| is_layer_call(s))
        .map(|(s, t)| (t, s))
        .collect();
    calls.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.id.cmp(&b.1.id)));
    calls
        .into_iter()
        .take(n)
        .map(|(t, s)| (secs(t), s.name, s.label.clone()))
        .collect()
}

/// Spans as tab-separated lines: id, parent (`-` for none), thread, name,
/// start and end in nanoseconds, engine runs, label.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("id\tparent\tthread\tname\tstart_ns\tend_ns\tengine_runs\tlabel\n");
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            s.id, parent, s.thread, s.name, s.start_ns, s.end_ns, s.engine_runs, s.label
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            thread: 0,
            name,
            start_ns: start,
            end_ns: end,
            engine_runs: 0,
            label: String::new(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) > child [10,40) > grandchild [20,30); child [50,60).
        let spans = vec![
            span(0, None, TIMED, 0, 100),
            span(1, Some(0), MAP, 10, 40),
            span(2, Some(1), TASK, 20, 30),
            span(3, Some(0), MAP, 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two workers' tasks overlap in [30,50): the parent's covered
        // part is their union [10,70), not the sum of their lengths.
        let spans = vec![
            span(0, None, MAP, 0, 100),
            span(1, Some(0), TASK, 10, 50),
            span(2, Some(0), TASK, 30, 70),
        ];
        assert_eq!(self_times(&spans), vec![40, 40, 40]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = vec![span(0, None, MAP, 10, 20), span(1, Some(0), TASK, 5, 15)];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn utilization_is_busy_over_capacity() {
        // A 100 ns map on two workers holding 150 ns of tasks.
        let spans = vec![
            span(0, None, MAP, 0, 100),
            span(1, Some(0), TASK, 0, 100),
            span(2, Some(0), TASK, 0, 50),
        ];
        let m: HashMap<_, _> = layer_metrics(&spans, 2).into_iter().collect();
        assert!((m["parallel.utilization"] - 0.75).abs() < 1e-12);
        assert!((m["parallel.idle_s"] - 50e-9).abs() < 1e-18);
        assert_eq!(m["pipeline.task.count"], 2.0);
        assert!((m["pipeline.task.max_s"] - 100e-9).abs() < 1e-18);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let got = t.span(TASK, None, || unreachable!("label is lazy"), |id| id);
        assert_eq!(got, None);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_parents_across_threads() {
        let t = Tracer::new(true);
        t.span(MAP, None, String::new, |map| {
            std::thread::scope(|s| {
                s.spawn(|| t.span(TASK, map, || "x".to_owned(), |_| ()));
            });
        });
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        let (map, task) = (&spans[0], &spans[1]);
        assert_eq!((map.name, task.name), (MAP, TASK));
        assert_eq!(task.parent, Some(map.id));
        assert_ne!(task.thread, map.thread);
        assert!(map.start_ns <= task.start_ns && task.end_ns <= map.end_ns);
    }
}
