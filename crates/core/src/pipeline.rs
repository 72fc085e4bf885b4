//! End-to-end training-step simulation.
//!
//! Glues the schedule builders, Algorithm 1, the partitioning schemes and
//! the NPU simulator into the experiment the paper runs: *simulate the
//! forward and backward passes of a model under a technique and report
//! cycles and traffic* (§6.1). Distinct layer shapes are simulated once and
//! multiplied by their instance count (and convolution group count); this is
//! exact, since identical layers are bit-identical under this machine model.
//! Every entry point is a thin call into one evaluator, `evaluate`:
//!
//! * **one enumerator**, `candidates`, lists a layer's
//!   capacity-independent backward candidates (the Algorithm-1 orders of
//!   §4.3 and the §5 partition schemes) in the fixed order whose index
//!   breaks cycle ties; the forward pass is a one-candidate list;
//! * **one rung evaluator** answers any list of configs equal up to SPM
//!   size (in any order, with repeats, at any core count), a single config
//!   being a one-rung list. Its analytic back end emits a single-core
//!   candidate once per group of rungs with equal emission signatures and
//!   replays it at each ([`AnalyticCollector::replay_bounded`],
//!   bit-identical to the engine), and a multi-core candidate once per
//!   rung; its oracle back end, the cycle [`Engine`] behind
//!   [`SimOptions::sequential`], materialises the same candidate as
//!   [`Schedule`]s;
//! * **one selection loop** keeps per rung the lexicographic minimum of
//!   `(cycles, candidate index)`: the first candidate with the strictly
//!   smallest cycle count.
//!
//! The [`SimOptions`] toggles trade wall-clock time and never change a
//! reported number (see `tests/golden_determinism.rs`). *Pruning* visits
//! candidates in ascending `(bound, index)` order under the closed-form
//! admissible bounds of [`crate::bound`], skips a candidate at a rung where
//! its bound exceeds the running best, and aborts replays that provably
//! exceed it: such a candidate's cycles strictly exceed the running best,
//! so it would lose even the index tie-break. *Memoization* serves each
//! rung's winner, and each candidate's report at each rung, from the
//! process-wide [`crate::simcache`]. *Workers* fan a model's layers out over
//! [`crate::parallel`].

use crate::bound::{candidate_bound, stream_bound, streams};
use crate::parallel::parallel_map_workers;
use crate::partition::{
    layer_tensors, plan_partition_backward, plan_partition_forward, tensor_table, PartitionPlan,
    PartitionScheme,
};
use crate::report::{LayerOutcome, ModelReport};
use crate::schedule::{
    forward_emission_signature, forward_schedule, BackwardBuilder, BackwardOrder, EmissionSig,
    LayerTensors,
};
use crate::select::select_order;
use crate::simcache::{self, ConfigFingerprint, Entry, Stream};
use crate::technique::Technique;
use crate::tiling::TilePolicy;
use igo_npu_sim::{
    combine_step, reduction_cycles, replay_multicore, AnalyticCollector, AnalyticScratch, Engine,
    EngineScratch, NpuConfig, Schedule, ScheduleSink, SimReport, StreamOp, TensorId, MAX_TILE_IDS,
    STREAM_POSITION_BUDGET,
};
use igo_tensor::GemmShape;
use igo_workloads::{Layer, Model};

/// Which pass of training a report concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrainingPhase {
    /// The forward pass (technique-independent).
    Forward,
    /// The backward pass (where the paper's techniques apply).
    Backward,
}

/// Execution-strategy toggles for the simulation pipeline. Every
/// combination produces bit-identical reports; the toggles only trade
/// wall-clock time. [`SimOptions::default`] enables everything;
/// [`SimOptions::sequential`] is the plain reference path the golden tests
/// compare against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Serve repeated layer simulations from the process-wide memo cache.
    pub memoize: bool,
    /// Visit candidates in ascending closed-form bound order, skipping or
    /// aborting those the running best proves dominated.
    pub prune: bool,
    /// Worker-pool size for a model's layers: `1` evaluates them in order
    /// on the calling thread, `0` means one worker per hardware thread (or
    /// the `IGO_SIM_THREADS` override). Tests force a pool larger than the
    /// machine to exercise cross-thread determinism.
    pub workers: usize,
    /// Evaluate candidates by analytic replay instead of materialising
    /// [`Schedule`]s for the cycle engine. The analytic back end emits a
    /// single-core candidate once for all the SPM rungs that block it alike;
    /// the engine back end materialises it once per rung.
    pub analytic_fast_path: bool,
}

impl SimOptions {
    /// All optimizations on (the default).
    pub const fn optimized() -> Self {
        Self {
            memoize: true,
            prune: true,
            workers: 0,
            analytic_fast_path: true,
        }
    }

    /// The plain sequential path: no pool, no cache, no pruning, cycle
    /// engine only.
    pub const fn sequential() -> Self {
        Self {
            memoize: false,
            prune: false,
            workers: 1,
            analytic_fast_path: false,
        }
    }
}

impl Default for SimOptions {
    fn default() -> Self {
        Self::optimized()
    }
}

/// The backward emission order the pipeline derives from Algorithm 1 for a
/// layer with forward shape `gemm` on `config` — the `Rearrangement`
/// decision. On a multi-core NPU the decision is taken on the per-core
/// sub-GEMM of the conventional batch (M-dimension) split, because that is
/// the shape each core actually executes.
///
/// Exposed so external checkers (the [`crate::audit`] differential fuzzer)
/// can compare the pipeline's decision against an independent recomputation
/// of the paper's Algorithm 1 from the tensor dimensions.
pub fn rearranged_order(gemm: GemmShape, config: &NpuConfig) -> BackwardOrder {
    let decide = |g: GemmShape| BackwardOrder::from(select_order(g));
    if config.cores == 1 {
        decide(gemm)
    } else {
        decide(gemm.split(igo_tensor::GemmDim::M, config.cores as u64)[0])
    }
}

/// What the scheduler decided for one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerDecision {
    /// The backward emission order used.
    pub order: BackwardOrder,
    /// The partitioning applied, if any: `(scheme, parts)`.
    pub partition: Option<(PartitionScheme, u64)>,
}

/// How a candidate lays its layer out.
enum Kind {
    /// The whole layer as one stream on a single core.
    Plain,
    /// The layer split by a plan: chained back-to-back on a single core,
    /// one partition per core otherwise.
    Partitioned(PartitionPlan),
}

/// The decision slot of the forward pass, which takes no decision; the
/// value is never reported.
const FORWARD_DECISION: LayerDecision = LayerDecision {
    order: BackwardOrder::Baseline,
    partition: None,
};

/// One capacity-independent way to execute a layer pass: the only path
/// from a decision to executable streams. Its [`Choice::builders`] are what
/// the analytic back end replays, what the closed-form bounds walk and what
/// [`Choice::schedules`] materialises for the cycle engine.
pub(crate) struct Choice {
    pub(crate) decision: LayerDecision,
    gemm: GemmShape,
    density: f64,
    is_first: bool,
    /// Emit the forward nest rather than the decision's backward order.
    forward: bool,
    kind: Kind,
}

/// The backward candidates of one layer under `technique`, in the fixed
/// order whose index breaks cycle ties. On a single core, data
/// partitioning keeps the unpartitioned Algorithm-1 and baseline orders
/// (partitioning is optional there) and splits 2 or 4 ways; on a
/// multi-core NPU every candidate is split across the cores, an
/// unpartitioned decision running as conventional batch (weight-sharing)
/// data parallelism.
pub(crate) fn candidates(
    gemm: GemmShape,
    density: f64,
    technique: Technique,
    is_first: bool,
    config: &NpuConfig,
) -> Vec<Choice> {
    use BackwardOrder::{Baseline, DwMajor, DxMajor, Interleaved};
    let choice = |order, partition| {
        let decision = LayerDecision { order, partition };
        Choice::new(gemm, density, is_first, config, decision)
    };
    let plain = |order| choice(order, None);
    let orders = |g: GemmShape| {
        let mut orders = vec![BackwardOrder::from(select_order(g)), Baseline];
        orders.dedup();
        orders
    };
    match technique {
        Technique::Baseline => vec![plain(Baseline)],
        Technique::IdealDyReuse => vec![plain(BackwardOrder::IdealDyReuse)],
        Technique::Interleaving => vec![plain(Interleaved)],
        Technique::Rearrangement => vec![plain(rearranged_order(gemm, config))],
        Technique::RearrangementOracle => [Interleaved, DxMajor, DwMajor].map(plain).into(),
        Technique::DataPartitioning => {
            // §5: a single core processes the partitions one at a time.
            let cores = config.cores as u64;
            let (mut out, part_counts): (Vec<Choice>, &[u64]) = match cores {
                1 => (orders(gemm).into_iter().map(plain).collect(), &[2, 4]),
                _ => (Vec::new(), std::slice::from_ref(&cores)),
            };
            for scheme in PartitionScheme::ALL {
                for &parts in part_counts {
                    for order in orders(gemm.split(scheme.split_dim(), parts)[0]) {
                        out.push(choice(order, Some((scheme, parts))));
                    }
                }
            }
            out
        }
    }
}

/// Check that the simulator can represent layer `gemm` on `config`: every
/// stream it would emit for the layer must fit the dense tile-id space of
/// the replay and the engine, and hold at most [`STREAM_POSITION_BUDGET`]
/// positions. Checked in closed form, before any emission; the error names
/// the overflowing count.
pub fn check_representable(gemm: GemmShape, config: &NpuConfig) -> Result<(), String> {
    let (policy, engine) = (TilePolicy::for_config(config), Engine::new(config));
    let reject = |count: u128, what: &str, max: u64| {
        Err(format!(
            "layer {gemm} needs at least {count} {what} in one stream on {}; \
             the simulator holds at most {max}",
            config.name
        ))
    };
    // Screen out layers whose counts overflow the arithmetic below. Some
    // candidate streams each tile axis whole, so an axis beyond the id
    // space is one stream's; and the streams of one candidate share the
    // whole layer's six accesses per tile op among at most `cores` streams.
    let axes = [gemm.m(), gemm.k(), gemm.n()].map(|d| u128::from(d.div_ceil(policy.tile.rows)));
    let longest = axes.into_iter().max().unwrap_or(0);
    if longest > u128::from(MAX_TILE_IDS) {
        return reject(longest, "tile ids", MAX_TILE_IDS);
    }
    let per_core = 6 * axes.iter().product::<u128>() / u128::from(config.cores);
    if per_core > u128::from(STREAM_POSITION_BUDGET) {
        return reject(per_core, "stream positions", STREAM_POSITION_BUDGET);
    }
    // A non-first layer's data-partitioning candidates cover the streams of
    // every technique's candidates, and of the forward pass (half the
    // accesses over the same builders).
    for cand in candidates(gemm, 1.0, Technique::DataPartitioning, false, config) {
        let order = cand.decision.order;
        let builders = cand.builders(policy);
        for stream in streams(&builders, config) {
            let barriers = (stream.len() * (order.regions(false).len() - 1)) as u64;
            let positions = stream_bound(stream, order, false, &engine).accesses + barriers;
            // Dense ids cover each distinct tensor the stream registers.
            let (mut ids, mut tiles) = (Vec::<TensorId>::new(), 0u64);
            for b in stream {
                for role in LayerTensors::ROLES {
                    if !ids.contains(&b.tensors().of(role)) {
                        ids.push(b.tensors().of(role));
                        tiles += b.grid(role).num_tiles();
                    }
                }
            }
            for (count, what, max) in [
                (positions, "stream positions", STREAM_POSITION_BUDGET),
                (tiles, "tile ids", MAX_TILE_IDS),
            ] {
                if count > max {
                    return reject(count.into(), what, max);
                }
            }
        }
    }
    Ok(())
}

/// Which pass an evaluation answers.
#[derive(Debug, Clone, Copy)]
enum Pass {
    Forward,
    Backward(Technique),
}

/// One layer pass to evaluate.
#[derive(Debug, Clone, Copy)]
struct Point {
    gemm: GemmShape,
    density: f64,
    is_first: bool,
    pass: Pass,
}

impl Point {
    fn new(gemm: GemmShape, density: f64, is_first: bool, pass: Pass) -> Self {
        Self {
            gemm,
            density,
            is_first,
            pass,
        }
    }
}

impl Choice {
    /// The backward candidate that executes `decision` on a layer with
    /// forward shape `gemm` and ifmap `density` on `config`. An
    /// unpartitioned decision is one stream on a single core and the
    /// weight-sharing batch split across the cores otherwise. A partitioned
    /// decision records the part count its split realises, which may be
    /// fewer than requested on small layers; rebuilding from that decision
    /// gives the same candidate.
    pub(crate) fn new(
        gemm: GemmShape,
        density: f64,
        is_first: bool,
        config: &NpuConfig,
        decision: LayerDecision,
    ) -> Self {
        let dtype = TilePolicy::for_config(config).dtype;
        let plan = |(scheme, parts)| {
            plan_partition_backward(gemm, density, dtype, scheme, parts, is_first)
        };
        let (partition, kind) = match decision.partition {
            Some(split) => {
                let plan = plan(split);
                let realised = (plan.scheme, plan.sub_gemms.len() as u64);
                (Some(realised), Kind::Partitioned(plan))
            }
            None if config.cores > 1 => {
                let split = (PartitionScheme::WeightSharing, config.cores as u64);
                (None, Kind::Partitioned(plan(split)))
            }
            None => (None, Kind::Plain),
        };
        Self {
            decision: LayerDecision {
                partition,
                ..decision
            },
            gemm,
            density,
            is_first,
            forward: false,
            kind,
        }
    }

    /// The forward pass as a candidate: one stream on a single core, the
    /// batch split across the cores (`W` shared) otherwise.
    pub(crate) fn forward(gemm: GemmShape, density: f64, config: &NpuConfig) -> Self {
        let kind = match config.cores {
            1 => Kind::Plain,
            cores => Kind::Partitioned(plan_partition_forward(gemm, cores as u64)),
        };
        Self {
            decision: FORWARD_DECISION,
            gemm,
            density,
            is_first: false,
            forward: true,
            kind,
        }
    }

    /// The cross-partition reduction the step pays after its streams.
    pub(crate) fn reduction(&self) -> Option<StreamOp> {
        match &self.kind {
            Kind::Plain => None,
            Kind::Partitioned(plan) => plan.reduction,
        }
    }

    /// One builder per partition (the whole layer when plain), tiled by
    /// `policy`.
    pub(crate) fn builders(&self, policy: TilePolicy) -> Vec<BackwardBuilder> {
        match &self.kind {
            Kind::Plain => vec![BackwardBuilder::new(self.gemm, policy, layer_tensors())
                .with_ifmap_density(self.density)],
            Kind::Partitioned(plan) => plan.builders(policy, self.density),
        }
    }

    /// Emit this candidate's stream of one of its builders.
    pub(crate) fn emit<S: ScheduleSink>(&self, b: &BackwardBuilder, sink: &mut S) {
        match self.forward {
            true => forward_schedule(b.gemm(), b.policy(), b.tensors(), self.density, sink),
            false => b.emit(self.decision.order, self.is_first, sink),
        }
    }

    /// The capacity-dependent part of [`Choice::emit`]'s stream.
    fn signature(&self, b: &BackwardBuilder) -> EmissionSig {
        match self.forward {
            true => forward_emission_signature(b.gemm(), b.policy()),
            false => b.emission_signature(self.decision.order, self.is_first),
        }
    }

    /// The schedules this candidate executes on `config`: its builders
    /// emitted into forks of one [`tensor_table`], chained into one stream
    /// on a single core and one schedule per core otherwise.
    pub(crate) fn schedules(&self, config: &NpuConfig) -> Vec<Schedule> {
        let builders = self.builders(TilePolicy::for_config(config));
        let table = tensor_table(&builders);
        (streams(&builders, config))
            .map(|stream| {
                let mut s = table.fork(table.name());
                stream.iter().for_each(|b| self.emit(b, &mut s));
                s
            })
            .collect()
    }

    /// Closed-form admissible bound on this backward candidate's cycles on
    /// `config` ([`crate::bound`]).
    fn bound(&self, config: &NpuConfig, engine: &Engine) -> u64 {
        let builders = self.builders(TilePolicy::for_config(config));
        let (order, reduction) = (self.decision.order, self.reduction());
        candidate_bound(&builders, order, self.is_first, reduction, config, engine)
    }

    /// The stream this candidate emits, its key in the memo.
    fn stream(&self) -> Stream {
        let (order, is_first) = (self.decision.order, self.is_first);
        match &self.kind {
            _ if self.forward => Stream::Forward,
            Kind::Plain => Stream::Plain { order, is_first },
            Kind::Partitioned(plan) => Stream::Partition {
                scheme: plan.scheme,
                parts: plan.sub_gemms.len() as u64,
                order,
                is_first,
            },
        }
    }

    /// Emit and replay this candidate as one multi-core step on `config`.
    /// The planners give every core the same tensor-role layout, so cores
    /// with equal sub-GEMMs emit byte-identical streams: each distinct
    /// sub-GEMM is emitted (after grid registration) and replayed once, and
    /// every core running it shares the report. Bit-identical to emitting
    /// and replaying every core.
    pub(crate) fn replay_cores(
        &self,
        config: &NpuConfig,
        cutoff: Option<u64>,
        s: &mut EvalScratch,
    ) -> Option<SimReport> {
        let builders = self.builders(TilePolicy::for_config(config));
        let mut leads: Vec<&BackwardBuilder> = Vec::with_capacity(builders.len());
        let stream_of: Vec<usize> = (builders.iter())
            .map(|b| {
                (leads.iter().position(|l| l.gemm() == b.gemm())).unwrap_or_else(|| {
                    leads.push(b);
                    leads.len() - 1
                })
            })
            .collect();
        let pool = cleared_collectors(&mut s.collectors, leads.len());
        for (b, c) in leads.iter().zip(pool.iter_mut()) {
            b.register_grids(c);
            self.emit(b, c);
        }
        let per_core: Vec<&AnalyticCollector> = stream_of.iter().map(|&k| &pool[k]).collect();
        replay_multicore(config, &per_core, self.reduction(), &mut s.replay, cutoff)
    }
}

/// Reusable per-thread evaluation state.
#[derive(Default)]
pub(crate) struct EvalScratch {
    collectors: Vec<AnalyticCollector>,
    replay: AnalyticScratch,
    engine: EngineScratch,
}

thread_local! {
    /// Per-thread working memory, reused across layers and candidates so
    /// collector, replay and engine buffers are allocated once per thread.
    static SCRATCH: std::cell::RefCell<EvalScratch> = Default::default();
}

/// The first `n` collectors of `pool`, cleared, growing the pool on demand.
fn cleared_collectors(pool: &mut Vec<AnalyticCollector>, n: usize) -> &mut [AnalyticCollector] {
    if pool.len() < n {
        pool.resize_with(n, AnalyticCollector::new);
    }
    pool[..n].iter_mut().for_each(AnalyticCollector::clear);
    &mut pool[..n]
}

/// Analytic back end: replay `cand` at each `(rung, cutoff)` of `reps`,
/// passing every completed replay to `done(rung, report)`. On a single
/// core, rungs whose emission signatures coincide share one emission (the
/// partitions chained into one stream, as [`Choice::schedules`] chains
/// them); multi-core steps go through [`Choice::replay_cores`] rung by
/// rung.
fn replay_candidate(
    cand: &Choice,
    rungs: &Rungs,
    reps: &[(usize, Option<u64>)],
    s: &mut EvalScratch,
    mut done: impl FnMut(usize, SimReport),
) {
    if rungs.configs[0].cores > 1 {
        for &(r, cutoff) in reps {
            if let Some(step) = cand.replay_cores(&rungs.configs[r], cutoff, s) {
                done(r, step);
            }
        }
        return;
    }
    let mut groups: Vec<(Vec<EmissionSig>, Vec<BackwardBuilder>, Vec<usize>)> = Vec::new();
    for (i, &(r, _)) in reps.iter().enumerate() {
        let builders = cand.builders(TilePolicy::for_config(&rungs.configs[r]));
        let sig: Vec<EmissionSig> = builders.iter().map(|b| cand.signature(b)).collect();
        match groups.iter_mut().find(|(g, ..)| *g == sig) {
            Some((.., members)) => members.push(i),
            None => groups.push((sig, builders, vec![i])),
        }
    }
    for (_, builders, members) in &groups {
        let c = &mut cleared_collectors(&mut s.collectors, 1)[0];
        builders.iter().for_each(|b| b.register_grids(c));
        builders.iter().for_each(|b| cand.emit(b, c));
        for &i in members {
            let (r, cutoff) = reps[i];
            let (config, reduction) = (&rungs.configs[r], cand.reduction());
            if let Some(step) = replay_multicore(config, &[&*c], reduction, &mut s.replay, cutoff) {
                done(r, step);
            }
        }
    }
}

/// Engine back end: run `cand`'s [`Choice::schedules`] on `config` with the
/// cycle engine and combine the step.
pub(crate) fn run_candidate(cand: &Choice, config: &NpuConfig, s: &mut EngineScratch) -> SimReport {
    let engine = Engine::new(config);
    let schedules = cand.schedules(config);
    let reports: Vec<SimReport> = (schedules.iter())
        .map(|schedule| engine.run_with_scratch(schedule, s))
        .collect();
    combine_step(config, &reports, cand.reduction())
}

/// The SPM rungs one evaluation answers: configs equal up to SPM size, in
/// any order, repeats allowed.
struct Rungs<'a> {
    configs: &'a [NpuConfig],
    engines: Vec<Engine>,
}

impl<'a> Rungs<'a> {
    /// # Panics
    ///
    /// Panics if `configs` is empty or two configs differ in more than
    /// their SPM size: rungs share emissions by [`EmissionSig`], which
    /// covers only the capacity-dependent part of a stream.
    fn new(configs: &'a [NpuConfig]) -> Self {
        let fp = ConfigFingerprint::sans_spm;
        assert!(
            !configs.is_empty(),
            "an evaluation needs at least one config"
        );
        assert!(
            configs.iter().all(|c| fp(c) == fp(&configs[0])),
            "rungs must be equal up to SPM size"
        );
        let engines = configs.iter().map(Engine::new).collect();
        Self { configs, engines }
    }
}

fn update_best(best: &mut Option<(usize, SimReport)>, ci: usize, rep: SimReport) {
    if best.is_none_or(|(bi, b)| (rep.cycles, ci) < (b.cycles, bi)) {
        *best = Some((ci, rep));
    }
}

/// One layer pass at every rung: per rung, the report and decision of the
/// lexicographic `(cycles, candidate index)` winner, bit-identical to
/// evaluating the rung on its own.
fn evaluate(p: &Point, rungs: &Rungs, options: &SimOptions) -> Vec<(SimReport, LayerDecision)> {
    let (gemm, density, is_first) = (p.gemm, p.density, p.is_first);
    let configs = rungs.configs;
    let get = |r: usize, entry| match options.memoize {
        true => simcache::get(gemm, density, &configs[r], entry),
        false => None,
    };
    let put = |r: usize, entry, value| {
        if options.memoize {
            simcache::put(gemm, density, &configs[r], entry, value);
        }
    };
    // The forward pass has one candidate, so its candidate entry is its
    // winner.
    let winner = match p.pass {
        Pass::Forward => None,
        Pass::Backward(technique) => Some(Entry::Winner {
            technique,
            is_first,
        }),
    };
    let mut done: Vec<Option<(SimReport, LayerDecision)>> = (0..configs.len())
        .map(|r| winner.and_then(|e| get(r, e)))
        .collect();
    let todo: Vec<usize> = (0..configs.len()).filter(|&r| done[r].is_none()).collect();
    if todo.is_empty() {
        return done.into_iter().flatten().collect();
    }
    let cands = match p.pass {
        Pass::Forward => vec![Choice::forward(gemm, density, &configs[0])],
        Pass::Backward(t) => candidates(gemm, density, t, is_first, &configs[0]),
    };

    // Per rung, the running best; per candidate, the rungs the memo
    // already answered.
    let mut best: Vec<Option<(usize, SimReport)>> = vec![None; configs.len()];
    let mut known = vec![vec![false; configs.len()]; cands.len()];
    for (ci, cand) in cands.iter().enumerate() {
        for &r in &todo {
            if let Some((rep, _)) = get(r, Entry::Candidate(cand.stream())) {
                update_best(&mut best[r], ci, rep);
                known[ci][r] = true;
            }
        }
    }
    let known = &known;
    let open = |ci: usize| todo.iter().copied().filter(move |&r| !known[ci][r]);

    // Visit order: ascending best-case bound over the candidate's open
    // rungs. Any order selects the same winners; this one tightens the
    // cutoffs fastest. A lone candidate needs no bound.
    let prune = options.prune && cands.len() > 1;
    let bounds: Vec<Vec<u64>> = (cands.iter().filter(|_| prune))
        .map(|cand| {
            let bound = |r: usize| cand.bound(&configs[r], &rungs.engines[r]);
            (0..configs.len())
                .map(|r| if done[r].is_none() { bound(r) } else { 0 })
                .collect()
        })
        .collect();
    let mut visit: Vec<usize> = (0..cands.len()).collect();
    if prune {
        visit.sort_by_key(|&ci| {
            (
                open(ci).map(|r| bounds[ci][r]).min().unwrap_or(u64::MAX),
                ci,
            )
        });
    }

    SCRATCH.with(|s| {
        let s = &mut *s.borrow_mut();
        for &ci in &visit {
            let cand = &cands[ci];
            // Open rungs with their cutoffs, the running best when pruning;
            // skip a rung where the bound, or the reduction alone, exceeds it.
            let reps: Vec<(usize, Option<u64>)> = open(ci)
                .filter_map(|r| match best[r] {
                    Some((_, b)) if prune => (bounds[ci][r] <= b.cycles
                        && reduction_cycles(&configs[r], cand.reduction()) <= b.cycles)
                        .then_some((r, Some(b.cycles))),
                    _ => Some((r, None)),
                })
                .collect();
            let mut record = |r: usize, rep: SimReport| {
                put(r, Entry::Candidate(cand.stream()), (rep, cand.decision));
                update_best(&mut best[r], ci, rep);
            };
            if options.analytic_fast_path {
                replay_candidate(cand, rungs, &reps, s, &mut record);
            } else {
                for &(r, _) in &reps {
                    record(r, run_candidate(cand, &configs[r], &mut s.engine));
                }
            }
        }
    });

    for &r in &todo {
        let (ci, rep) = best[r].expect("the first candidate visited at a rung runs uncut");
        let value = (rep, cands[ci].decision);
        done[r] = Some(value);
        if let Some(e) = winner {
            put(r, e, value);
        }
    }
    done.into_iter().flatten().collect()
}

/// Simulate one layer's forward pass on `config` (dense layer: ifmap
/// density 1).
pub fn simulate_layer_forward(gemm: GemmShape, config: &NpuConfig) -> SimReport {
    simulate_layer_forward_ex(gemm, 1.0, config)
}

/// Simulate one layer's forward pass with an explicit ifmap density
/// (raw-layout `X` traffic scaling for convolution layers).
pub fn simulate_layer_forward_ex(gemm: GemmShape, density: f64, config: &NpuConfig) -> SimReport {
    simulate_layer_forward_with(gemm, density, config, &SimOptions::default())
}

/// [`simulate_layer_forward_ex`] with explicit execution options.
pub fn simulate_layer_forward_with(
    gemm: GemmShape,
    density: f64,
    config: &NpuConfig,
    options: &SimOptions,
) -> SimReport {
    let p = Point::new(gemm, density, false, Pass::Forward);
    evaluate(&p, &Rungs::new(std::slice::from_ref(config)), options)[0].0
}

/// Simulate one layer's backward pass on `config` under `technique`
/// (dense layer: ifmap density 1).
///
/// Returns the report plus the decisions taken (order, partitioning) so
/// callers can inspect what Algorithm 1 / the partition selector chose.
pub fn simulate_layer_backward(
    gemm: GemmShape,
    config: &NpuConfig,
    technique: Technique,
    is_first: bool,
) -> (SimReport, LayerDecision) {
    simulate_layer_backward_ex(gemm, 1.0, config, technique, is_first)
}

/// [`simulate_layer_backward`] with an explicit ifmap density.
pub fn simulate_layer_backward_ex(
    gemm: GemmShape,
    density: f64,
    config: &NpuConfig,
    technique: Technique,
    is_first: bool,
) -> (SimReport, LayerDecision) {
    let options = SimOptions::default();
    simulate_layer_backward_with(gemm, density, config, technique, is_first, &options)
}

/// [`simulate_layer_backward_ex`] with explicit execution options.
pub fn simulate_layer_backward_with(
    gemm: GemmShape,
    density: f64,
    config: &NpuConfig,
    technique: Technique,
    is_first: bool,
    options: &SimOptions,
) -> (SimReport, LayerDecision) {
    let p = Point::new(gemm, density, is_first, Pass::Backward(technique));
    evaluate(&p, &Rungs::new(std::slice::from_ref(config)), options)[0]
}

/// Simulate one model's full training step under `technique`.
///
/// The model should have been built with `config.default_batch()` so the
/// per-core batch matches the paper's setup (callers that sweep batch size
/// on purpose may deviate — the simulation itself is agnostic).
pub fn simulate_model(model: &Model, config: &NpuConfig, technique: Technique) -> ModelReport {
    simulate_model_with(model, config, technique, &SimOptions::default())
}

/// [`simulate_model`] with explicit execution options.
pub fn simulate_model_with(
    model: &Model,
    config: &NpuConfig,
    technique: Technique,
    options: &SimOptions,
) -> ModelReport {
    let configs = std::slice::from_ref(config);
    let mut reports = simulate_model_ladder(model, configs, technique, options);
    reports.pop().expect("one report per rung")
}

/// Simulate one model under `technique` at every SPM capacity of `configs`
/// — one report per config, in order, each bit-identical to
/// [`simulate_model_with`] on that config alone.
///
/// `configs` may come in any order, repeat a config and have any core
/// count. On the analytic back end each single-core candidate is emitted
/// once per distinct blocking signature and replayed at every matching
/// rung. Independent layers run concurrently on `options.workers` workers;
/// every report keeps the model's layer order.
///
/// # Panics
///
/// Panics if `configs` is empty or two configs differ in more than their
/// SPM size.
pub fn simulate_model_ladder(
    model: &Model,
    configs: &[NpuConfig],
    technique: Technique,
    options: &SimOptions,
) -> Vec<ModelReport> {
    let rungs = &Rungs::new(configs);
    let outcomes = |layer: &Layer| {
        let (gemm, density, is_first) = (layer.gemm, layer.ifmap_density, layer.is_first);
        let at = |pass| evaluate(&Point::new(gemm, density, is_first, pass), rungs, options);
        let forward = at(Pass::Forward);
        let backward = at(Pass::Backward(technique));
        (forward.into_iter().zip(backward))
            .map(|((forward, _), (backward, decision))| LayerOutcome {
                name: layer.name.clone(),
                multiplicity: layer.count as u64 * layer.groups as u64,
                forward,
                backward,
                decision,
                gemm,
            })
            .collect::<Vec<_>>()
    };
    let per_layer: Vec<Vec<LayerOutcome>> =
        parallel_map_workers(&model.layers, options.workers, || (), |(), l| outcomes(l));
    let mut reports: Vec<ModelReport> = configs
        .iter()
        .map(|config| ModelReport {
            model: model.name.clone(),
            config: config.name.clone(),
            technique,
            layers: Vec::with_capacity(per_layer.len()),
        })
        .collect();
    for layer in per_layer {
        for (report, outcome) in reports.iter_mut().zip(layer) {
            report.layers.push(outcome);
        }
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use igo_tensor::TensorClass;

    /// A dY-heavy layer (a ResNet expansion conv): dY is 25 MB while W is
    /// 64 KiB — the regime the paper's techniques target.
    fn dy_heavy_conv() -> GemmShape {
        GemmShape::new(25088, 64, 256)
    }

    #[test]
    fn interleaving_reduces_dy_reads_on_large_npu() {
        let config = NpuConfig::large_single_core();
        let gemm = dy_heavy_conv();
        let (base, _) = simulate_layer_backward(gemm, &config, Technique::Baseline, false);
        let (inter, _) = simulate_layer_backward(gemm, &config, Technique::Interleaving, false);
        assert!(
            inter.traffic.read(TensorClass::OutGrad) < base.traffic.read(TensorClass::OutGrad),
            "interleaving must reduce dY reads on a dY-heavy layer: {} vs {}",
            inter.traffic.read(TensorClass::OutGrad),
            base.traffic.read(TensorClass::OutGrad),
        );
        assert!(inter.cycles < base.cycles);
        assert_eq!(inter.macs, base.macs, "same math");
    }

    #[test]
    fn ladder_is_monotone_for_dy_heavy_layer() {
        // Cumulative techniques must not slow a dY-dominated layer down.
        let config = NpuConfig::large_single_core();
        let mut last = u64::MAX;
        for technique in [
            Technique::Baseline,
            Technique::Rearrangement,
            Technique::DataPartitioning,
        ] {
            let (r, _) = simulate_layer_backward(dy_heavy_conv(), &config, technique, false);
            assert!(
                r.cycles <= last,
                "{technique} slower than predecessor: {} > {last}",
                r.cycles
            );
            last = r.cycles;
        }
    }

    #[test]
    fn balanced_layer_never_regresses_badly() {
        // A traffic-balanced GEMM (BERT FFN): every operand is large, so
        // fusion buys little — but the cost-driven block selection must
        // keep the transformed schedules within a few percent of baseline.
        let config = NpuConfig::large_single_core();
        let gemm = GemmShape::new(4096, 1024, 4096);
        let (base, _) = simulate_layer_backward(gemm, &config, Technique::Baseline, false);
        // Zipped interleaving splits the SPM between two co-resident
        // working sets, so a balanced layer tolerates a larger slack than
        // the cost-planned fused orders.
        for (technique, slack) in [
            (Technique::Interleaving, 1.25),
            (Technique::Rearrangement, 1.10),
            (Technique::DataPartitioning, 1.001),
        ] {
            let (r, _) = simulate_layer_backward(gemm, &config, technique, false);
            assert!(
                (r.cycles as f64) < slack * base.cycles as f64,
                "{technique} regressed beyond {slack}: {} vs {}",
                r.cycles,
                base.cycles
            );
        }
    }

    #[test]
    fn ideal_reuse_is_a_lower_bound_on_dy_traffic() {
        let config = NpuConfig::small_edge();
        let gemm = GemmShape::new(512, 576, 256);
        let (base, _) = simulate_layer_backward(gemm, &config, Technique::Baseline, false);
        let (ideal, _) = simulate_layer_backward(gemm, &config, Technique::IdealDyReuse, false);
        assert!(ideal.traffic.read(TensorClass::OutGrad) < base.traffic.read(TensorClass::OutGrad));
        assert!(ideal.cycles < base.cycles);
    }

    #[test]
    fn first_layer_identical_across_techniques() {
        let config = NpuConfig::large_single_core();
        let gemm = GemmShape::new(100_352, 147, 64);
        let (base, _) = simulate_layer_backward(gemm, &config, Technique::Baseline, true);
        let (inter, _) = simulate_layer_backward(gemm, &config, Technique::Interleaving, true);
        let (rearr, _) = simulate_layer_backward(gemm, &config, Technique::Rearrangement, true);
        assert_eq!(base.cycles, inter.cycles);
        assert_eq!(base.cycles, rearr.cycles);
        assert_eq!(base.macs, gemm.macs(), "dW only");
    }

    #[test]
    fn oracle_never_loses_to_algorithm1() {
        let config = NpuConfig::large_single_core();
        for gemm in [
            GemmShape::new(4096, 1024, 4096),
            GemmShape::new(8, 479, 1024),
            GemmShape::new(25088, 576, 64),
        ] {
            let (alg, _) = simulate_layer_backward(gemm, &config, Technique::Rearrangement, false);
            let (oracle, _) =
                simulate_layer_backward(gemm, &config, Technique::RearrangementOracle, false);
            assert!(oracle.cycles <= alg.cycles, "{gemm}");
        }
    }

    #[test]
    fn multicore_runs_and_reduces() {
        let config = NpuConfig::large_server(2);
        let gemm = GemmShape::new(8192, 1024, 1024);
        let (base, d) = simulate_layer_backward(gemm, &config, Technique::Baseline, false);
        assert_eq!(d.order, BackwardOrder::Baseline);
        assert!(base.cycles > 0);
        // Batch parallelism reduces dW partials: WGrad read traffic from
        // the reduction must be present.
        assert!(base.traffic.read(TensorClass::WGrad) > 0);
    }

    #[test]
    fn model_report_totals_are_consistent() {
        let config = NpuConfig::large_single_core();
        let model = igo_workloads::zoo::model(igo_workloads::ModelId::Ncf, 8);
        let report = simulate_model(&model, &config, Technique::Baseline);
        assert_eq!(report.layers.len(), model.layers.len());
        assert_eq!(
            report.total_cycles(),
            report.forward_cycles() + report.backward_cycles()
        );
        assert!(report.total_traffic().total() > 0);
        assert!((report.normalized_to(&report) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn candidate_order_is_pinned() {
        // The winner's `(cycles, index)` tie-break depends on this order, so
        // it must not change silently. The layer's Algorithm-1 order
        // (Interleaved) differs from Baseline and from some sub-GEMMs'.
        let gemm = GemmShape::new(512, 576, 256);
        let fixed = ["Baseline", "IdealDyReuse", "Interleaved", "Interleaved"];
        let oracle = "Interleaved DxMajor DwMajor";
        let edge = "Interleaved Baseline Interleaved/WeightSharing2 Baseline/WeightSharing2 \
                    DwMajor/WeightSharing4 Baseline/WeightSharing4 DwMajor/DySharing2 \
                    Baseline/DySharing2 DwMajor/DySharing4 Baseline/DySharing4 \
                    Interleaved/IfmapSharing2 Baseline/IfmapSharing2 Interleaved/IfmapSharing4 \
                    Baseline/IfmapSharing4";
        let server = "Interleaved/WeightSharing2 Baseline/WeightSharing2 DwMajor/DySharing2 \
                      Baseline/DySharing2 Interleaved/IfmapSharing2 Baseline/IfmapSharing2";
        for (config, partitioning) in [
            (NpuConfig::small_edge(), edge),
            (NpuConfig::large_server(2), server),
        ] {
            let rest = [oracle, partitioning];
            let want = fixed.iter().chain(&rest);
            for (technique, want) in Technique::ALL.into_iter().zip(want) {
                let got: Vec<String> = candidates(gemm, 1.0, technique, false, &config)
                    .iter()
                    .map(|c| match c.decision.partition {
                        None => format!("{:?}", c.decision.order),
                        Some((s, n)) => format!("{:?}/{s:?}{n}", c.decision.order),
                    })
                    .collect();
                assert_eq!(got.join(" "), *want, "{technique} on {}", config.name);
            }
        }
    }

    #[test]
    fn choice_new_round_trips_every_candidate() {
        // Rebuilding a candidate from its own decision (which records the
        // realised part count) must give the same candidate: `observe`, the
        // audit and the KNN labeler all execute decisions that way. The
        // small layer's 4-way splits realise only 3 parts.
        let configs = [
            NpuConfig::small_edge(),
            NpuConfig::large_single_core(),
            NpuConfig::large_server(2),
        ];
        let gemms = [GemmShape::new(6, 5, 3), GemmShape::new(512, 576, 256)];
        let mut short = 0;
        for (config, gemm) in configs.iter().flat_map(|c| gemms.map(|g| (c, g))) {
            let policy = TilePolicy::for_config(config);
            let layout = |c: &Choice| -> Vec<_> {
                let builders = c.builders(policy);
                builders.iter().map(|b| (b.gemm(), b.tensors())).collect()
            };
            for (technique, is_first) in Technique::ALL
                .into_iter()
                .flat_map(|t| [(t, false), (t, true)])
            {
                for cand in candidates(gemm, 0.37, technique, is_first, config) {
                    let again = Choice::new(gemm, 0.37, is_first, config, cand.decision);
                    let at = format!("{:?} {technique} on {}", cand.decision, config.name);
                    assert_eq!(again.decision, cand.decision, "{at}");
                    assert_eq!(layout(&again), layout(&cand), "{at}");
                    assert_eq!(again.reduction(), cand.reduction(), "{at}");
                    short += usize::from(matches!(cand.decision.partition, Some((_, 3))));
                }
            }
        }
        assert!(
            short > 0,
            "some split must realise fewer parts than requested"
        );
    }

    /// A single-core, 2-way ifmap-sharing candidate whose shared `dY`
    /// (256 KiB) fits in SPM: its chained schedule, and each partition run
    /// as a separate schedule on the engine.
    fn chained_and_separate() -> (Choice, SimReport, Vec<SimReport>) {
        let config = NpuConfig::large_single_core();
        let gemm = GemmShape::new(256, 512, 256);
        let order = BackwardOrder::Interleaved;
        let partition = Some((PartitionScheme::IfmapSharing, 2));
        let cand = Choice::new(
            gemm,
            1.0,
            false,
            &config,
            LayerDecision { order, partition },
        );
        let chained = run_candidate(&cand, &config, &mut EngineScratch::new());
        let builders = cand.builders(TilePolicy::for_config(&config));
        let table = tensor_table(&builders);
        let engine = Engine::new(&config);
        let separate = (builders.iter())
            .map(|b| {
                let mut s = table.fork("part");
                cand.emit(b, &mut s);
                engine.run(&s)
            })
            .collect();
        (cand, chained, separate)
    }

    #[test]
    fn sequential_partitions_share_residency() {
        let (cand, chained, separate) = chained_and_separate();
        let dy = |r: &SimReport| r.traffic.read(TensorClass::OutGrad);
        assert_eq!(separate.len(), 2);
        assert!(
            dy(&chained) < separate.iter().map(dy).sum::<u64>(),
            "the second partition must re-hit the shared dY in SPM"
        );
        // The analytic replay of the chained stream equals the engine.
        let config = NpuConfig::large_single_core();
        let mut c = AnalyticCollector::new();
        let builders = cand.builders(TilePolicy::for_config(&config));
        builders.iter().for_each(|b| b.register_grids(&mut c));
        builders.iter().for_each(|b| cand.emit(b, &mut c));
        let scratch = &mut AnalyticScratch::new();
        let replayed = replay_multicore(&config, &[&c], cand.reduction(), scratch, None);
        assert_eq!(replayed, Some(chained));
    }

    #[test]
    fn sequential_partitions_accumulate_time() {
        let (_, chained, separate) = chained_and_separate();
        for part in &separate {
            assert!(chained.cycles > part.cycles);
        }
        assert_eq!(chained.macs, separate.iter().map(|r| r.macs).sum::<u64>());
    }

    #[test]
    fn every_options_combination_selects_identically() {
        // 16 toggle combinations on layers with a non-trivial candidate
        // space: same report, same decision, bit for bit. The analytic back
        // end must reproduce the cycle engine exactly, and pruning must
        // keep the winner of single- and multi-core partition candidates
        // under either back end (the last two layers each lose their
        // winner on one config if pruning skips candidates it must not).
        let technique = Technique::DataPartitioning;
        let gemms = [
            dy_heavy_conv(),
            GemmShape::new(512, 576, 256),
            GemmShape::new(4096, 1024, 1024),
        ];
        let configs = [NpuConfig::small_edge(), NpuConfig::large_server(2)];
        for (config, gemm) in configs.iter().flat_map(|c| gemms.map(|g| (c, g))) {
            let sequential = SimOptions::sequential();
            let want =
                simulate_layer_backward_with(gemm, 1.0, config, technique, false, &sequential);
            for bits in 0..16 {
                let opts = SimOptions {
                    memoize: bits & 2 != 0,
                    prune: bits & 4 != 0,
                    // A real pool even on a single-CPU machine, or none.
                    workers: if bits & 1 != 0 { 3 } else { 1 },
                    analytic_fast_path: bits & 8 != 0,
                };
                let got = simulate_layer_backward_with(gemm, 1.0, config, technique, false, &opts);
                assert_eq!(got, want, "{opts:?} diverged: {gemm} on {}", config.name);
            }
        }
    }

    #[test]
    fn fast_path_matches_engine_for_all_techniques_and_configs() {
        // Cross-check the analytic fast path against the cycle engine over
        // every technique, forward + backward, single- and multi-core, with
        // a sparse ifmap and both first/non-first layers.
        let slow = SimOptions::sequential();
        let fast = SimOptions {
            analytic_fast_path: true,
            ..SimOptions::sequential()
        };
        let gemm = GemmShape::new(1536, 320, 448);
        let configs = [
            NpuConfig::small_edge(),
            NpuConfig::large_single_core(),
            NpuConfig::large_server(2),
        ];
        for (config, density) in configs.iter().flat_map(|c| [(c, 1.0), (c, 0.37)]) {
            let forward = |o| simulate_layer_forward_with(gemm, density, config, o);
            assert_eq!(forward(&slow), forward(&fast), "forward on {}", config.name);
            for technique in Technique::ALL {
                for is_first in [false, true] {
                    let backward = |o| {
                        simulate_layer_backward_with(gemm, density, config, technique, is_first, o)
                    };
                    assert_eq!(
                        backward(&slow),
                        backward(&fast),
                        "{technique} on {} (is_first={is_first})",
                        config.name
                    );
                }
            }
        }
    }

    #[test]
    fn capacity_ladder_matches_per_config_simulation() {
        // The ladder path must reproduce per-config simulation bit for bit
        // at every rung — reports, traffic and decisions — for every
        // technique, including partition candidates and a first layer.
        let base = NpuConfig::large_single_core();
        let configs: Vec<NpuConfig> = [3u64, 6, 12, 24]
            .iter()
            .map(|&mib| base.clone().with_spm_bytes(mib << 20))
            .collect();
        let model = igo_workloads::zoo::model(igo_workloads::ModelId::Ncf, 8);
        let ladder_opts = SimOptions {
            workers: 3,
            ..SimOptions::optimized()
        };
        // The reference recomputes from scratch (no memo): a cache the
        // ladder itself populated must not be able to vouch for the ladder.
        let flat_opts = SimOptions {
            memoize: false,
            ..ladder_opts
        };
        for technique in Technique::ALL {
            let got = simulate_model_ladder(&model, &configs, technique, &ladder_opts);
            assert_eq!(got.len(), configs.len());
            for (rung, config) in got.iter().zip(&configs) {
                let want = simulate_model_with(&model, config, technique, &flat_opts);
                assert_eq!(rung.config, want.config);
                assert_eq!(rung.layers.len(), want.layers.len());
                for (g, w) in rung.layers.iter().zip(&want.layers) {
                    assert_eq!(g.forward, w.forward, "{technique} fwd @ {}", config.name);
                    assert_eq!(g.backward, w.backward, "{technique} bwd @ {}", config.name);
                    assert_eq!(g.decision, w.decision, "{technique} @ {}", config.name);
                    assert_eq!(g.multiplicity, w.multiplicity);
                }
            }
        }
        let layer = &model.layers[0];
        for config in &configs {
            let winner = Entry::Winner {
                technique: Technique::DataPartitioning,
                is_first: layer.is_first,
            };
            assert!(
                simcache::get(layer.gemm, layer.ifmap_density, config, winner).is_some(),
                "the ladder memoizes every rung's winner"
            );
        }
    }

    #[test]
    fn any_rung_list_matches_per_config_simulation() {
        // Unsorted and repeated capacities, on one core and on two, on
        // either back end: every rung equals simulating its config alone
        // on the uncached engine reference.
        let single = NpuConfig::large_single_core();
        let dual = NpuConfig::large_server(2);
        let lists: Vec<Vec<NpuConfig>> = [(&single, [24u64, 3, 24, 6]), (&dual, [24, 12, 24, 6])]
            .into_iter()
            .map(|(base, mibs)| {
                mibs.map(|mib| base.clone().with_spm_bytes(mib << 20))
                    .into()
            })
            .collect();
        let model = igo_workloads::zoo::model(igo_workloads::ModelId::Ncf, 8);
        let technique = Technique::DataPartitioning;
        for (configs, analytic_fast_path) in lists.iter().flat_map(|l| [(l, true), (l, false)]) {
            let opts = SimOptions {
                workers: 3,
                analytic_fast_path,
                ..SimOptions::optimized()
            };
            let got = simulate_model_ladder(&model, configs, technique, &opts);
            assert_eq!(got.len(), configs.len());
            for (rung, config) in got.iter().zip(configs) {
                let want =
                    simulate_model_with(&model, config, technique, &SimOptions::sequential());
                for (g, w) in rung.layers.iter().zip(&want.layers) {
                    let at = format!("{} (analytic {analytic_fast_path})", config.name);
                    assert_eq!(g.forward, w.forward, "fwd @ {at}");
                    assert_eq!(g.backward, w.backward, "bwd @ {at}");
                    assert_eq!(g.decision, w.decision, "{at}");
                }
            }
        }
    }

    #[test]
    fn every_zoo_layer_fits_the_stream_budget_on_every_shipped_config() {
        // The budget is sized from the largest of these streams (t5-large's
        // vocabulary projection on the edge NPU), so none may be refused.
        let mut configs = vec![NpuConfig::small_edge()];
        configs.extend((1..=8).map(NpuConfig::large_server));
        let suites = igo_workloads::zoo::SERVER_SUITE.iter();
        let ids: Vec<_> = suites.chain(&igo_workloads::zoo::EDGE_SUITE).collect();
        for config in &configs {
            for &&id in &ids {
                for layer in igo_workloads::zoo::model(id, config.default_batch()).layers {
                    let fits = check_representable(layer.gemm, config);
                    assert!(fits.is_ok(), "{id:?} {}: {fits:?}", layer.name);
                }
            }
        }
    }

    #[test]
    fn memoized_layer_reuses_cached_result() {
        // A shape unique to this test so the cache interaction is its own.
        let config = NpuConfig::large_single_core();
        let gemm = GemmShape::new(6421, 127, 6337);
        let opts = SimOptions {
            memoize: true,
            ..SimOptions::sequential()
        };
        let first =
            simulate_layer_backward_with(gemm, 1.0, &config, Technique::Interleaving, false, &opts);
        let winner = Entry::Winner {
            technique: Technique::Interleaving,
            is_first: false,
        };
        assert_eq!(
            simcache::get(gemm, 1.0, &config, winner),
            Some(first),
            "the result must land in the cache"
        );
        let second =
            simulate_layer_backward_with(gemm, 1.0, &config, Technique::Interleaving, false, &opts);
        assert_eq!(first, second);
    }
}
