//! The benchmark's three workloads, each a fixed amount of work per pass:
//!
//! - `zoo-ladder` (batch job): every `(suite, model, technique)` task of two
//!   SPM-ladder grids through `simulate_model_ladder`, fanned over
//!   `parallel_map` the way `igo-sim sweep` fans them.
//! - `layer-mix` (closed loop, one client per worker): seeded single-layer
//!   requests, each a forward plus a backward call on its own config.
//! - `oracle` (batch job, one thread): whole-model simulations on the
//!   sequential cycle-engine reference path.
//!
//! Every op's results are digested and checked outside the timed region.

use crate::digest;
use crate::region::{Measured, Region};
use crate::trace::{Tracer, BACKWARD, BUILD, FORWARD, MAP, REQUEST, TASK, TIMED};
use igo_core::{
    parallel_map, simulate_layer_backward_with, simulate_layer_forward_with, simulate_model_ladder,
    simulate_model_with, LayerDecision, ModelReport, SimOptions, Technique,
};
use igo_npu_sim::{NpuConfig, SimReport};
use igo_tensor::rng::SplitMix64;
use igo_tensor::GemmShape;
use igo_workloads::{zoo, Model, ModelId};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Requests in one layer-mix pass.
const LAYER_MIX_REQUESTS: usize = 4000;
/// Share of layer-mix requests that repeat an earlier request.
const REPEAT_SHARE: f64 = 0.25;
/// Layer-mix requests per pass re-run on the sequential reference.
const REFERENCE_SAMPLE: usize = 8;

/// Server grid: the headline `igo-sim sweep zoo --spm 3,6,12,24`.
const SERVER_SPM_MIB: [u64; 4] = [3, 6, 12, 24];
/// Edge grid: rungs well below most layers' working sets.
const EDGE_SPM_MIB: [u64; 3] = [1, 2, 4];

/// The oracle workload's fixed subset of the golden-determinism inputs:
/// `(suite, model)`, each on its suite's Table-3 config at batch 1. The
/// whole server suite plus the edge models that take under a second on
/// the cycle engine, so no single model dominates a pass.
const ORACLE_CASES: [(Suite, ModelId); 14] = [
    (Suite::Edge, ModelId::Ncf),
    (Suite::Edge, ModelId::Resnet50),
    (Suite::Edge, ModelId::Dlrm),
    (Suite::Edge, ModelId::MobileNet),
    (Suite::Edge, ModelId::BertTiny),
    (Suite::Server, ModelId::FasterRcnn),
    (Suite::Server, ModelId::GoogleNet),
    (Suite::Server, ModelId::Ncf),
    (Suite::Server, ModelId::Resnet50),
    (Suite::Server, ModelId::Dlrm),
    (Suite::Server, ModelId::MobileNet),
    (Suite::Server, ModelId::YoloV5),
    (Suite::Server, ModelId::BertLarge),
    (Suite::Server, ModelId::T5Large),
];

const PINNED_ZOO_LADDER: &str = include_str!("../pinned/zoo-ladder.tsv");
const PINNED_LAYER_MIX: &str = include_str!("../pinned/layer-mix.tsv");
const PINNED_ORACLE: &str = include_str!("../pinned/oracle.tsv");
/// `sweep_zoo.best` of `BENCH_5.json`, verbatim: the server grid's
/// best-technique frontier.
const PINNED_SERVER_FRONTIER: &str = include_str!("../pinned/server-frontier.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    Edge,
    Server,
}

impl Suite {
    fn name(self) -> &'static str {
        match self {
            Suite::Edge => "edge",
            Suite::Server => "server",
        }
    }

    fn models(self) -> &'static [ModelId; 9] {
        match self {
            Suite::Edge => &zoo::EDGE_SUITE,
            Suite::Server => &zoo::SERVER_SUITE,
        }
    }

    fn config(self) -> NpuConfig {
        match self {
            Suite::Edge => NpuConfig::small_edge(),
            Suite::Server => NpuConfig::large_single_core(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ZooLadder,
    LayerMix,
    Oracle,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::ZooLadder, Workload::LayerMix, Workload::Oracle];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ZooLadder => "zoo-ladder",
            Workload::LayerMix => "layer-mix",
            Workload::Oracle => "oracle",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Threads the workload fans its ops over: the worker pool, except on
    /// the single-threaded reference workload.
    pub fn workers(self) -> usize {
        match self {
            Workload::Oracle => 1,
            _ => igo_core::default_workers(),
        }
    }
}

/// One op's checkable results: `(key, digest)` per simulated report, and
/// on `zoo-ladder` total cycles per report (for the frontier check).
#[derive(Debug, Default)]
struct OpOut {
    digests: Vec<(String, String)>,
    cycles: Vec<u64>,
}

/// What one pass of a workload measured and checked.
pub struct Pass {
    pub measured: Measured,
    /// Latency of every op, milliseconds, in op order.
    pub lat_ms: Vec<f64>,
    pub failed: usize,
    /// One line per failed check.
    pub notes: Vec<String>,
    /// Every `(key, digest)` the pass produced, for pinning.
    pub digests: Vec<(String, String)>,
}

/// A workload with its inputs built, ready to run its timed region.
pub enum Prepared {
    ZooLadder(Vec<Grid>),
    LayerMix(LayerMix),
    Oracle(Vec<OracleCase>),
}

impl Prepared {
    /// Build the workload's inputs (the set-up phase).
    pub fn setup(workload: Workload, seed: u64, tracer: &Tracer, root: Option<u64>) -> Self {
        match workload {
            Workload::ZooLadder => Prepared::ZooLadder(vec![
                Grid::new(Suite::Server, &SERVER_SPM_MIB, tracer, root),
                Grid::new(Suite::Edge, &EDGE_SPM_MIB, tracer, root),
            ]),
            Workload::LayerMix => {
                let models = ModelSet::build(tracer, root);
                let requests = requests(seed, LAYER_MIX_REQUESTS, &models);
                Prepared::LayerMix(LayerMix {
                    seed,
                    configs: models.configs,
                    requests,
                })
            }
            Workload::Oracle => Prepared::Oracle(
                ORACLE_CASES
                    .iter()
                    .map(|&(suite, id)| OracleCase {
                        suite,
                        config: suite.config(),
                        model: build(tracer, root, id, 1),
                    })
                    .collect(),
            ),
        }
    }

    /// Run the timed region, then digest and check every op's results.
    pub fn run(&self, workers: usize, tracer: &Tracer) -> Pass {
        let (measured, lat_ms, outs): (_, _, Vec<Option<OpOut>>) = match self {
            Prepared::ZooLadder(grids) => {
                let (m, lat, raw) = timed(tracer, |t| {
                    grids
                        .iter()
                        .flat_map(|g| g.run(workers, tracer, t))
                        .collect()
                });
                let mut raw = raw.into_iter();
                let outs = grids
                    .iter()
                    .flat_map(|g| {
                        let ops = g.tasks.iter().zip(raw.by_ref());
                        ops.map(|(&(mi, t), r)| r.map(|r| g.out(mi, t, &r)))
                            .collect::<Vec<_>>()
                    })
                    .collect();
                (m, lat, outs)
            }
            Prepared::LayerMix(mix) => {
                let (m, lat, raw) = timed(tracer, |t| mix.run(workers, tracer, t));
                let ops = mix.requests.iter().zip(raw);
                (
                    m,
                    lat,
                    ops.map(|(r, o)| o.map(|o| mix.out(r, &o))).collect(),
                )
            }
            Prepared::Oracle(cases) => {
                let (m, lat, raw) = timed(tracer, |t| {
                    fan_out(cases, 1, tracer, t, |case, map| {
                        tracer.span(TASK, map, || case.label(), |_| case.run())
                    })
                });
                let ops = cases.iter().zip(raw);
                (m, lat, ops.map(|(c, o)| o.map(|o| c.out(&o))).collect())
            }
        };
        let mut check = Check::default();
        match self {
            Prepared::ZooLadder(grids) => {
                for g in grids {
                    let end = check.base + g.tasks.len();
                    g.check(&outs[check.base..end], &mut check);
                    check.base = end;
                }
            }
            Prepared::LayerMix(mix) => mix.check(&outs, &mut check),
            Prepared::Oracle(_) => check.pinned(&outs, &pinned(PINNED_ORACLE)),
        }
        let digests = outs.into_iter().flatten().flat_map(|o| o.digests).collect();
        Pass {
            measured,
            lat_ms,
            failed: check.failed.len(),
            notes: check.notes,
            digests,
        }
    }
}

/// Run `body`, the timed region, and split its ops into latencies and
/// results (`None` for an op that panicked).
fn timed<R>(
    tracer: &Tracer,
    body: impl FnOnce(Option<u64>) -> Vec<(f64, Option<R>)>,
) -> (Measured, Vec<f64>, Vec<Option<R>>) {
    let region = Region::start();
    let (ops, measured) = tracer.span(TIMED, None, String::new, |t| {
        let ops = body(t);
        (ops, region.stop())
    });
    let (lat, outs) = ops.into_iter().unzip();
    (measured, lat, outs)
}

/// Build one zoo model inside a `workloads.build` span.
fn build(tracer: &Tracer, parent: Option<u64>, id: ModelId, batch: u64) -> Model {
    tracer.span(
        BUILD,
        parent,
        || format!("{} batch {batch}", id.abbr()),
        |_| zoo::model(id, batch),
    )
}

/// Map `op` over `items` on `workers` threads (a plain loop for one),
/// timing each op and turning a panic into a failed op.
fn fan_out<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    tracer: &Tracer,
    parent: Option<u64>,
    op: impl Fn(&T, Option<u64>) -> R + Sync,
) -> Vec<(f64, Option<R>)> {
    tracer.span(
        MAP,
        parent,
        || format!("{} ops on {workers} workers", items.len()),
        |map| {
            let one = |item: &T| {
                let start = Instant::now();
                let out = catch_unwind(AssertUnwindSafe(|| op(item, map))).ok();
                (start.elapsed().as_secs_f64() * 1e3, out)
            };
            if workers == 1 {
                items.iter().map(one).collect()
            } else {
                parallel_map(items, one)
            }
        },
    )
}

/// Failed ops (by index) and why.
#[derive(Default)]
struct Check {
    failed: std::collections::BTreeSet<usize>,
    notes: Vec<String>,
    /// Index of the first op of the slice being checked.
    base: usize,
}

impl Check {
    fn fail(&mut self, op: usize, note: String) {
        self.failed.insert(self.base + op);
        self.notes.push(note);
    }

    /// Compare every digest with its pinned value; the table must have
    /// every key.
    fn pinned(&mut self, outs: &[Option<OpOut>], table: &HashMap<&str, &str>) {
        for (i, out) in outs.iter().enumerate() {
            let Some(out) = out else {
                self.fail(i, format!("op {i} panicked"));
                continue;
            };
            for (key, got) in &out.digests {
                match table.get(key.as_str()) {
                    Some(want) if want != got => {
                        self.fail(i, format!("{key}: digest {got}, pinned {want}"))
                    }
                    None => self.fail(i, format!("{key}: no pinned digest")),
                    Some(_) => {}
                }
            }
        }
    }
}

fn pinned(table: &'static str) -> HashMap<&'static str, &'static str> {
    table.lines().filter_map(|l| l.split_once('\t')).collect()
}

/// One SPM-ladder grid of the zoo-ladder workload.
pub struct Grid {
    suite: Suite,
    spm_mib: &'static [u64],
    rungs: Vec<NpuConfig>,
    models: Vec<Model>,
    /// `(model index, technique)`, model-outer as `igo-sim sweep` orders them.
    tasks: Vec<(usize, Technique)>,
}

impl Grid {
    fn new(suite: Suite, spm_mib: &'static [u64], tracer: &Tracer, root: Option<u64>) -> Self {
        let base = suite.config();
        let models: Vec<Model> = suite
            .models()
            .iter()
            .map(|&id| build(tracer, root, id, base.default_batch()))
            .collect();
        let tasks = (0..models.len())
            .flat_map(|mi| Technique::LADDER.map(|t| (mi, t)))
            .collect();
        Self {
            suite,
            spm_mib,
            rungs: spm_mib
                .iter()
                .map(|&mib| base.clone().with_spm_bytes(mib << 20))
                .collect(),
            models,
            tasks,
        }
    }

    fn key(&self, mi: usize, technique: Technique, mib: u64) -> String {
        format!(
            "{} {} {} spm{mib}",
            self.suite.name(),
            self.models[mi].name,
            technique.label()
        )
    }

    fn run(
        &self,
        workers: usize,
        tracer: &Tracer,
        parent: Option<u64>,
    ) -> Vec<(f64, Option<Vec<ModelReport>>)> {
        let options = SimOptions::optimized();
        fan_out(&self.tasks, workers, tracer, parent, |&(mi, t), map| {
            let label = || {
                format!(
                    "{} {} {} {} spm{:?}MiB",
                    self.suite.name(),
                    self.models[mi].name,
                    t.label(),
                    self.rungs[0].name,
                    self.spm_mib
                )
            };
            tracer.span(TASK, map, label, |_| {
                simulate_model_ladder(&self.models[mi], &self.rungs, t, &options)
            })
        })
    }

    fn out(&self, mi: usize, t: Technique, reports: &[ModelReport]) -> OpOut {
        OpOut {
            digests: self
                .spm_mib
                .iter()
                .zip(reports)
                .map(|(&mib, r)| (self.key(mi, t, mib), digest::of_model(r)))
                .collect(),
            cycles: reports.iter().map(|r| r.total_cycles()).collect(),
        }
    }

    fn check(&self, outs: &[Option<OpOut>], check: &mut Check) {
        check.pinned(outs, &pinned(PINNED_ZOO_LADDER));
        if self.suite != Suite::Server {
            return;
        }
        let want: Vec<&str> = frontier_entries(PINNED_SERVER_FRONTIER.trim());
        let got = self.frontier(outs);
        let got: Vec<&str> = frontier_entries(&got);
        for (r, &mib) in self.spm_mib.iter().enumerate() {
            for mi in 0..self.models.len() {
                let i = r * self.models.len() + mi;
                if got.get(i) != want.get(i) {
                    for k in (0..self.tasks.len()).filter(|&k| self.tasks[k].0 == mi) {
                        check.fail(
                            k,
                            format!(
                                "frontier at {mib} MiB, {}: got {:?}, pinned {:?}",
                                self.models[mi].name,
                                got.get(i),
                                want.get(i)
                            ),
                        );
                    }
                }
            }
        }
    }

    /// The best-technique frontier, formatted exactly as `igo-sim sweep`
    /// writes `best`: per (spm, model), smallest cycles, first technique
    /// listed wins ties.
    fn frontier(&self, outs: &[Option<OpOut>]) -> String {
        let mut entries = Vec::new();
        for (r, &mib) in self.spm_mib.iter().enumerate() {
            for (mi, model) in self.models.iter().enumerate() {
                let best = (0..self.tasks.len())
                    .filter(|&k| self.tasks[k].0 == mi)
                    .filter_map(|k| Some((outs[k].as_ref()?.cycles[r], k)))
                    .min();
                entries.push(match best {
                    Some((cycles, k)) => format!(
                        "{{\"spm_mib\":{mib},\"model\":\"{}\",\"technique\":\"{}\",\"cycles\":{cycles}}}",
                        model.name,
                        self.tasks[k].1.label()
                    ),
                    None => "{}".to_owned(),
                });
            }
        }
        format!("[{}]", entries.join(","))
    }
}

/// The entries of a flat JSON array of flat objects, as text.
fn frontier_entries(array: &str) -> Vec<&str> {
    let inner = array
        .strip_prefix('[')
        .and_then(|a| a.strip_suffix(']'))
        .unwrap_or("");
    inner
        .split_inclusive("},")
        .map(|e| e.strip_suffix(',').unwrap_or(e))
        .filter(|e| !e.is_empty())
        .collect()
}

/// Layer-mix request bases: each suite with its own config family.
fn layer_mix_bases() -> Vec<(Suite, NpuConfig)> {
    vec![
        (Suite::Edge, NpuConfig::small_edge()),
        (Suite::Server, NpuConfig::large_server(1)),
        (Suite::Server, NpuConfig::large_server(2)),
        (Suite::Server, NpuConfig::large_server(4)),
    ]
}

/// SPM scale factors of layer-mix requests, as halves: ×½, ×1, ×2.
const SPM_HALVES: [u64; 3] = [1, 2, 4];

/// Every model and config a layer-mix request can draw.
pub struct ModelSet {
    bases: Vec<(Suite, NpuConfig)>,
    /// `configs[base * SPM_HALVES.len() + scale]`.
    configs: Vec<NpuConfig>,
    models: HashMap<(ModelId, u64), Model>,
}

impl ModelSet {
    pub fn build(tracer: &Tracer, root: Option<u64>) -> Self {
        let bases = layer_mix_bases();
        let mut models = HashMap::new();
        let mut configs = Vec::new();
        for (suite, base) in &bases {
            for half in SPM_HALVES {
                configs.push(base.clone().with_spm_bytes(base.spm_bytes * half / 2));
            }
            for &id in suite.models() {
                for batch in [base.default_batch() / 2, base.default_batch()] {
                    models
                        .entry((id, batch))
                        .or_insert_with(|| build(tracer, root, id, batch));
                }
            }
        }
        Self {
            bases,
            configs,
            models,
        }
    }
}

/// One layer-mix request: a zoo layer's forward and backward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub model: ModelId,
    pub batch: u64,
    pub layer: String,
    pub gemm: GemmShape,
    pub density: f64,
    pub is_first: bool,
    /// Index into the config table of the [`ModelSet`].
    pub config: usize,
    pub technique: Technique,
}

/// Draw `n` layer-mix requests from `seed`. About [`REPEAT_SHARE`] of them
/// repeat an earlier request; the rest pick a base config (its suite's
/// family), a model of that suite, batch ½× or 1× the default, a layer,
/// an SPM scale and a ladder technique, all uniformly.
pub fn requests(seed: u64, n: usize, set: &ModelSet) -> Vec<Request> {
    let mut rng = SplitMix64::new(seed);
    let mut out: Vec<Request> = Vec::with_capacity(n);
    for _ in 0..n {
        if !out.is_empty() && rng.next_f64() < REPEAT_SHARE {
            let again = out[rng.index(out.len())].clone();
            out.push(again);
            continue;
        }
        let b = rng.index(set.bases.len());
        let (suite, base) = &set.bases[b];
        let model = suite.models()[rng.index(9)];
        let batch = base.default_batch() / [2, 1][rng.index(2)];
        let m = &set.models[&(model, batch)];
        let layer = &m.layers[rng.index(m.layers.len())];
        out.push(Request {
            model,
            batch,
            layer: layer.name.clone(),
            gemm: layer.gemm,
            density: layer.ifmap_density,
            is_first: layer.is_first,
            config: b * SPM_HALVES.len() + rng.index(SPM_HALVES.len()),
            technique: Technique::LADDER[rng.index(Technique::LADDER.len())],
        });
    }
    out
}

/// A layer request's results: forward report, backward report, decision.
type LayerOut = (SimReport, SimReport, LayerDecision);

pub struct LayerMix {
    seed: u64,
    configs: Vec<NpuConfig>,
    requests: Vec<Request>,
}

impl LayerMix {
    /// The simulation inputs of a request, which its results depend on.
    fn key(&self, r: &Request) -> String {
        let c = &self.configs[r.config];
        format!(
            "{}x{}x{} d{:016x} f{} {} spm{} {}",
            r.gemm.m(),
            r.gemm.k(),
            r.gemm.n(),
            r.density.to_bits(),
            u8::from(r.is_first),
            c.name,
            c.spm_bytes,
            r.technique.label()
        )
    }

    fn label(&self, r: &Request) -> String {
        format!(
            "{} {} batch {} {}",
            r.model.abbr(),
            r.layer,
            r.batch,
            self.key(r)
        )
    }

    fn simulate(
        &self,
        r: &Request,
        options: &SimOptions,
        tracer: &Tracer,
        parent: Option<u64>,
    ) -> LayerOut {
        let config = &self.configs[r.config];
        let forward = tracer.span(
            FORWARD,
            parent,
            || self.label(r),
            |_| simulate_layer_forward_with(r.gemm, r.density, config, options),
        );
        let (backward, decision) = tracer.span(
            BACKWARD,
            parent,
            || self.label(r),
            |_| {
                simulate_layer_backward_with(
                    r.gemm,
                    r.density,
                    config,
                    r.technique,
                    r.is_first,
                    options,
                )
            },
        );
        (forward, backward, decision)
    }

    fn out(&self, r: &Request, (forward, backward, decision): &LayerOut) -> OpOut {
        OpOut {
            digests: vec![(
                key_hash(&self.key(r)),
                digest::of_layer(forward, backward, decision),
            )],
            ..OpOut::default()
        }
    }

    fn run(
        &self,
        workers: usize,
        tracer: &Tracer,
        parent: Option<u64>,
    ) -> Vec<(f64, Option<LayerOut>)> {
        let options = SimOptions::optimized();
        fan_out(&self.requests, workers, tracer, parent, |r, map| {
            tracer.span(
                REQUEST,
                map,
                || self.label(r),
                |req| self.simulate(r, &options, tracer, req),
            )
        })
    }

    /// Pinned digests where the table has the request; repeats must agree
    /// with their first occurrence; and a seeded sample is re-simulated on
    /// the sequential reference path, so seeds whose requests were never
    /// pinned are checked too.
    fn check(&self, outs: &[Option<OpOut>], check: &mut Check) {
        let table = pinned(PINNED_LAYER_MIX);
        let mut first: HashMap<&str, &str> = HashMap::new();
        for (i, (out, r)) in outs.iter().zip(&self.requests).enumerate() {
            let Some(out) = out else {
                check.fail(i, format!("{}: panicked", self.key(r)));
                continue;
            };
            let (hash, got) = &out.digests[0];
            if let Some(want) = table.get(hash.as_str()).filter(|&w| w != got) {
                check.fail(i, format!("{}: digest {got}, pinned {want}", self.key(r)));
            }
            let want = *first.entry(hash).or_insert(got);
            if want != got {
                check.fail(
                    i,
                    format!("{}: repeat gave {got}, first gave {want}", self.key(r)),
                );
            }
        }
        let mut rng = SplitMix64::new(self.seed ^ 0x5eed_c0de_0f0e_a11e);
        let reference = SimOptions::sequential();
        let quiet = Tracer::new(false);
        for _ in 0..REFERENCE_SAMPLE.min(self.requests.len()) {
            let i = rng.index(self.requests.len());
            let Some(out) = &outs[i] else { continue };
            let r = &self.requests[i];
            match catch_unwind(AssertUnwindSafe(|| {
                self.out(r, &self.simulate(r, &reference, &quiet, None))
            })) {
                Ok(want) if want.digests != out.digests => check.fail(
                    i,
                    format!(
                        "{}: optimized {}, sequential {}",
                        self.key(r),
                        out.digests[0].1,
                        want.digests[0].1
                    ),
                ),
                Ok(_) => {}
                Err(_) => check.fail(i, format!("{}: sequential reference panicked", self.key(r))),
            }
        }
    }
}

/// Layer-mix digests are pinned by a hash of the request key, which keeps
/// the table small.
fn key_hash(key: &str) -> String {
    digest::Digest::default().bytes(key.as_bytes()).hex()
}

/// One oracle model simulation.
pub struct OracleCase {
    suite: Suite,
    config: NpuConfig,
    model: Model,
}

impl OracleCase {
    fn label(&self) -> String {
        format!(
            "{} {} {} batch 1 +DataPartitioning sequential",
            self.suite.name(),
            self.model.name,
            self.config.name
        )
    }

    fn run(&self) -> ModelReport {
        simulate_model_with(
            &self.model,
            &self.config,
            Technique::DataPartitioning,
            &SimOptions::sequential(),
        )
    }

    fn out(&self, report: &ModelReport) -> OpOut {
        OpOut {
            digests: vec![(
                format!("{} {}", self.suite.name(), self.model.name),
                digest::of_model(report),
            )],
            ..OpOut::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests() {
        let set = ModelSet::build(&Tracer::new(false), None);
        let a = requests(7, 500, &set);
        assert_eq!(a, requests(7, 500, &set));
        assert_ne!(a, requests(8, 500, &set));
    }

    #[test]
    fn about_a_quarter_of_requests_repeat() {
        let set = ModelSet::build(&Tracer::new(false), None);
        let reqs = requests(3, 4000, &set);
        let repeats = (1..reqs.len())
            .filter(|&i| reqs[..i].contains(&reqs[i]))
            .count();
        let share = repeats as f64 / reqs.len() as f64;
        assert!((0.2..0.4).contains(&share), "repeat share {share}");
    }

    #[test]
    fn requests_stay_in_their_suite_family() {
        let set = ModelSet::build(&Tracer::new(false), None);
        for r in requests(11, 1000, &set) {
            let config = &set.configs[r.config];
            let edge = zoo::EDGE_SUITE.contains(&r.model) && config.name == "small-npu";
            let server =
                zoo::SERVER_SUITE.contains(&r.model) && config.name.starts_with("large-npu-x");
            assert!(edge || server, "{:?} on {}", r.model, config.name);
            assert!(Technique::LADDER.contains(&r.technique));
        }
    }

    #[test]
    fn frontier_entries_split_flat_objects() {
        let e = frontier_entries(r#"[{"a":1,"b":"x"},{"a":2,"b":"y"}]"#);
        assert_eq!(e, vec![r#"{"a":1,"b":"x"}"#, r#"{"a":2,"b":"y"}"#]);
        assert!(frontier_entries("[]").is_empty());
    }

    #[test]
    fn pinned_frontier_has_every_server_point() {
        let e = frontier_entries(PINNED_SERVER_FRONTIER.trim());
        assert_eq!(e.len(), SERVER_SPM_MIB.len() * zoo::SERVER_SUITE.len());
    }
}
