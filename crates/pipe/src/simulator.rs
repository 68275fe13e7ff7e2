//! The trace-driven cycle simulator.

use bioperf_branch::PredictorKind;
use bioperf_cache::{HierarchyStats, Prefetcher};
use bioperf_isa::{MicroOp, OpKind, Program};
use bioperf_metrics::{LogHistogram, MetricSet};
use bioperf_trace::{OpBlock, TraceConsumer};

use crate::config::PlatformConfig;
use crate::engine::{Engine, Family, Lane, Observe};
use crate::regfile::RegFile;

/// Results of simulating one trace on one platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimResult {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Committed trace instructions (excludes inserted spill traffic).
    pub instructions: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Branches mispredicted by the platform predictor.
    pub mispredicts: u64,
    /// Spill stores inserted by the register-pressure model.
    pub spill_stores: u64,
    /// Reload loads inserted by the register-pressure model.
    pub spill_reloads: u64,
    /// Cache demand statistics.
    pub cache: HierarchyStats,
}

impl SimResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Branch misprediction rate.
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }
}

/// One op's timing in the recorded timeline (see
/// [`CycleSim::with_timeline`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpTiming {
    /// Static instruction.
    pub sid: bioperf_isa::StaticId,
    /// Operation kind.
    pub kind: OpKind,
    /// Cycle the op was dispatched by the front end.
    pub dispatch: u64,
    /// Cycle the op issued to an execution unit.
    pub issue: u64,
    /// Cycle its result became available / it resolved.
    pub complete: u64,
    /// Whether this was a branch that mispredicted.
    pub mispredicted: bool,
}

/// Cap on recorded timeline entries; recording is for walkthroughs and
/// debugging, not full runs.
const TIMELINE_CAP: usize = 65_536;

/// The instrumented run's per-op hook of one lane: the timeline and the
/// pipeline's event metrics. Event metrics accumulate into dedicated
/// fields — not a name-keyed set — so the per-op cost when enabled is
/// two histogram bumps, not two string lookups;
/// [`Instruments::take_metrics`] publishes them under their names.
#[derive(Debug, Clone, Default)]
struct Instruments {
    timeline: Option<Vec<OpTiming>>,
    metrics: bool,
    op_latency: LogHistogram,
    issue_delay: LogHistogram,
    redirects: u64,
}

impl Instruments {
    fn observed(&self) -> bool {
        self.metrics || self.timeline.is_some()
    }

    /// Takes the lane's collected event metrics — pipeline events under
    /// `pipe/`, its hierarchy's under `cache/` — leaving collection in its
    /// current mode. Empty when collection is off.
    fn take_metrics(&mut self, lane: &mut Lane) -> MetricSet {
        let mut pipe = MetricSet::new();
        // Names appear only once touched, matching the lazily-created
        // slots of the name-keyed path this replaced.
        if self.op_latency.count() > 0 {
            pipe.histogram_merge("op_latency_cycles", &self.op_latency);
        }
        if self.issue_delay.count() > 0 {
            pipe.histogram_merge("issue_delay_cycles", &self.issue_delay);
        }
        if self.redirects > 0 {
            pipe.counter_add("mispredict_redirects", self.redirects);
        }
        self.op_latency = LogHistogram::new();
        self.issue_delay = LogHistogram::new();
        self.redirects = 0;
        let mut out = MetricSet::new();
        out.merge_prefixed("pipe/", &pipe);
        if let Some(h) = lane.hierarchy_mut() {
            out.merge_prefixed("cache/", &h.take_metrics());
        }
        out
    }
}

/// Runs `block` through `engine`, through the observed loop only when
/// some lane records something.
fn run_instrumented(engine: &mut Engine, instruments: &mut [Instruments], block: &OpBlock) {
    if instruments.iter().any(Instruments::observed) {
        engine.run_block(block, instruments);
    } else {
        engine.run_block(block, &mut ());
    }
}

impl Observe for Instruments {
    fn record(
        &mut self,
        ops: &[MicroOp],
        i: usize,
        dispatch: u64,
        issue: u64,
        complete: u64,
        mispredicted: bool,
    ) {
        if let Some(tl) = self.timeline.as_mut() {
            if tl.len() < TIMELINE_CAP {
                let (sid, kind) = (ops[i].sid, ops[i].kind);
                tl.push(OpTiming { sid, kind, dispatch, issue, complete, mispredicted });
            }
        }
        if self.metrics {
            self.op_latency.record(complete - dispatch);
            self.issue_delay.record(issue - dispatch);
            self.redirects += mispredicted as u64;
        }
    }
}

/// Trace-driven cycle-level model of one platform: the shared engine's
/// register plan and predictor over one lane, whose miss-level source is
/// the platform's live cache hierarchy (or, for the factored sweep's
/// reference, an annotation stream).
///
/// Plug it into a [`Tape`](bioperf_trace::Tape) (or feed it ops directly
/// via [`TraceConsumer`]) and read the final [`SimResult`].
#[derive(Debug, Clone)]
pub struct CycleSim {
    cfg: PlatformConfig,
    engine: Engine,
    instruments: Instruments,
    /// Reused block of the per-op path, which runs each op as a block.
    one: OpBlock,
}

impl CycleSim {
    /// Creates a simulator for one platform.
    pub fn new(cfg: PlatformConfig) -> Self {
        let mut engine = Engine::new(&[RegFile::capacity_for(cfg.logical_regs)]);
        engine.push_lane(&cfg, None, PredictorKind::Hybrid);
        Self { cfg, engine, instruments: Instruments::default(), one: OpBlock::default() }
    }

    fn lane(&self) -> &Lane {
        &self.engine.lanes[0]
    }

    fn map_lane(mut self, f: impl FnOnce(Lane) -> Lane) -> Self {
        let lane = self.engine.lanes.pop().expect("one lane");
        self.engine.lanes.push(f(lane));
        self
    }

    /// Switches on event-metric collection: per-op dispatch-to-complete
    /// latency histograms in the pipeline plus the cache hierarchy's
    /// service counters. Off by default, and then free: the engine runs
    /// its uninstrumented loop.
    pub fn with_metrics(mut self) -> Self {
        self.instruments.metrics = true;
        self.map_lane(|lane| lane.map_hierarchy(|h| h.with_metrics()))
    }

    /// Takes the collected event metrics — pipeline events under `pipe/`,
    /// cache events under `cache/` — leaving collection in its current
    /// mode. Empty when collection is off.
    pub fn take_metrics(&mut self) -> MetricSet {
        self.instruments.take_metrics(&mut self.engine.lanes[0])
    }

    /// Swaps in a branch predictor of the given family. The default is
    /// the paper's idealized per-static-branch hybrid
    /// ([`PredictorKind::Hybrid`]); design-space sweep cells select other
    /// families per configuration.
    pub fn with_predictor(mut self, kind: PredictorKind) -> Self {
        let family = &mut self.engine.families[self.engine.lanes[0].family];
        *family = Family::new(family.stream, kind);
        self
    }

    /// Installs a hardware prefetcher in the cache hierarchy. The default
    /// is [`Prefetcher::None`] — the paper's baseline machines do not
    /// prefetch.
    pub fn with_prefetcher(self, policy: Prefetcher) -> Self {
        self.map_lane(|lane| lane.map_hierarchy(|h| h.with_prefetcher(policy)))
    }

    /// Replays against a precomputed miss-level annotation stream instead
    /// of a live cache hierarchy — the factored sweep's timing pass.
    /// Every access the pipeline would present to a hierarchy (demand
    /// loads and stores plus spill traffic) pops exactly one annotation,
    /// and the level maps to this platform's cumulative hit/miss
    /// latencies. `SimResult::cache` stays zeroed in this mode: the cache
    /// pass that produced the stream owns the stats.
    pub fn with_annotations(
        self,
        stream: std::sync::Arc<bioperf_cache::AnnotationStream>,
    ) -> Self {
        let cfg = self.cfg;
        self.map_lane(|lane| Lane::new(&cfg, Some(stream), lane.family, lane.view))
    }

    /// Annotations consumed so far (None outside annotated mode).
    pub fn annotations_consumed(&self) -> Option<usize> {
        self.lane().annotations_consumed()
    }

    /// Enables per-op timeline recording (capped at 65 536 ops). Use for
    /// short pedagogical traces like the Figure 3/4 walkthrough.
    pub fn with_timeline(mut self) -> Self {
        self.instruments.timeline = Some(Vec::new());
        self
    }

    /// The recorded timeline, if enabled.
    pub fn timeline(&self) -> Option<&[OpTiming]> {
        self.instruments.timeline.as_deref()
    }

    /// The platform being simulated.
    pub fn config(&self) -> &PlatformConfig {
        &self.cfg
    }

    /// Finalizes and returns the simulation result.
    pub fn into_result(self) -> SimResult {
        self.result()
    }

    /// Running result snapshot (cheap; caches copied).
    pub fn result(&self) -> SimResult {
        self.engine.result(0)
    }
}

impl TraceConsumer for CycleSim {
    fn consume(&mut self, op: &MicroOp, _program: &Program) {
        self.one.clear();
        self.one.push_op(op);
        run_instrumented(&mut self.engine, std::slice::from_mut(&mut self.instruments), &self.one);
    }

    fn consume_block(&mut self, block: &OpBlock, _program: &Program) {
        run_instrumented(&mut self.engine, std::slice::from_mut(&mut self.instruments), block);
    }
}

/// The live-hierarchy [`CycleSim`]s of several platforms replayed as one
/// engine: one register plan with a spill view per distinct register
/// capacity, one branch merge per if-conversion mode and one hybrid
/// predictor per branch stream serve every platform, and only each
/// platform's cache hierarchy and timing core run per lane — the suite's
/// replay bank.
///
/// Each platform's [`SimResult`] and event metrics are bit-identical to
/// an independent `CycleSim::new(platform)` (with
/// [`CycleSim::with_metrics`] when [`PlatformBank::with_metrics`] is
/// set) replaying the same trace.
#[derive(Debug, Clone)]
pub struct PlatformBank {
    engine: Engine,
    /// One per lane, in platform order.
    instruments: Vec<Instruments>,
    /// Reused block of the per-op path, which runs each op as a block.
    one: OpBlock,
}

impl PlatformBank {
    /// A bank of one lane per platform, in the given order (platforms
    /// may repeat).
    ///
    /// # Panics
    ///
    /// If `platforms` is empty.
    pub fn new(platforms: &[PlatformConfig]) -> Self {
        assert!(!platforms.is_empty(), "a platform bank needs a platform");
        let capacities: Vec<usize> =
            platforms.iter().map(|p| RegFile::capacity_for(p.logical_regs)).collect();
        let mut engine = Engine::new(&capacities);
        for p in platforms {
            engine.push_lane(p, None, PredictorKind::Hybrid);
        }
        let instruments = vec![Instruments::default(); platforms.len()];
        Self { engine, instruments, one: OpBlock::default() }
    }

    /// Switches on every lane's event-metric collection (see
    /// [`CycleSim::with_metrics`]).
    pub fn with_metrics(mut self) -> Self {
        for ins in &mut self.instruments {
            ins.metrics = true;
        }
        let lanes = std::mem::take(&mut self.engine.lanes);
        self.engine.lanes = lanes.into_iter().map(|l| l.map_hierarchy(|h| h.with_metrics())).collect();
        self
    }

    /// Lanes in the bank.
    pub fn len(&self) -> usize {
        self.engine.lanes.len()
    }

    /// Whether the bank has no lanes.
    pub fn is_empty(&self) -> bool {
        self.engine.lanes.is_empty()
    }

    /// Takes each lane's collected event metrics, in platform order (see
    /// [`CycleSim::take_metrics`]).
    pub fn take_metrics(&mut self) -> Vec<MetricSet> {
        let lanes = self.engine.lanes.iter_mut();
        self.instruments.iter_mut().zip(lanes).map(|(ins, lane)| ins.take_metrics(lane)).collect()
    }

    /// Running per-lane results, in platform order.
    pub fn results(&self) -> Vec<SimResult> {
        (0..self.len()).map(|i| self.engine.result(i)).collect()
    }
}

impl TraceConsumer for PlatformBank {
    fn consume(&mut self, op: &MicroOp, _program: &Program) {
        self.one.clear();
        self.one.push_op(op);
        run_instrumented(&mut self.engine, &mut self.instruments, &self.one);
    }

    fn consume_block(&mut self, block: &OpBlock, _program: &Program) {
        run_instrumented(&mut self.engine, &mut self.instruments, block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioperf_isa::here;
    use bioperf_trace::{Tape, Tracer};

    fn sim(cfg: PlatformConfig, f: impl FnOnce(&mut Tape<CycleSim>)) -> SimResult {
        let mut tape = Tape::new(CycleSim::new(cfg));
        f(&mut tape);
        let (_, sim) = tape.finish();
        sim.into_result()
    }

    /// A dependent chain of ALU ops costs ~1 cycle each; independent ops
    /// pack `issue_width` per cycle.
    #[test]
    fn dependent_chain_vs_independent_ops() {
        let n = 10_000;
        let dep = sim(PlatformConfig::alpha21264(), |t| {
            let mut v = t.lit();
            for _ in 0..n {
                v = t.int_op(here!("chain"), &[v]);
            }
        });
        let indep = sim(PlatformConfig::alpha21264(), |t| {
            let a = t.lit();
            for _ in 0..n {
                t.int_op(here!("indep"), &[a]);
            }
        });
        assert!(dep.cycles > (n as u64) * 9 / 10, "chain must serialize: {}", dep.cycles);
        assert!(
            indep.cycles < dep.cycles / 2,
            "independent ops must overlap: {} vs {}",
            indep.cycles,
            dep.cycles
        );
    }

    /// An L1-resident pointer chase costs the load-to-use latency per hop.
    #[test]
    fn load_latency_shows_on_dependent_loads() {
        let cell = 42u64;
        let n = 5_000u64;
        let alpha = sim(PlatformConfig::alpha21264(), |t| {
            let mut v = t.int_load(here!("chase"), &cell);
            for _ in 0..n {
                v = t.int_load_via(here!("chase"), &cell, v);
            }
        });
        // 3 cycles per hop on Alpha.
        assert!(alpha.cycles > n * 5 / 2, "expected ~3 cycles/hop, got {} total", alpha.cycles);

        let ipf = sim(PlatformConfig::itanium2(), |t| {
            let mut v = t.int_load(here!("chase"), &cell);
            for _ in 0..n {
                v = t.int_load_via(here!("chase"), &cell, v);
            }
        });
        assert!(ipf.cycles < alpha.cycles, "1-cycle L1 must beat 3-cycle L1");
    }

    /// Random branches get mispredicted and cost the redirect penalty.
    #[test]
    fn mispredicted_branches_dominate_random_control_flow() {
        // L1-resident working set so branch effects are not masked by
        // memory misses; LCG outcomes so the history predictor cannot
        // learn the pattern.
        let xs: Vec<u64> = (0..64).collect();
        let mut state = 0x1234_5678u64;
        let mut rand_bit = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 40) & 1 == 1
        };
        let predictable = sim(PlatformConfig::alpha21264(), |t| {
            for i in 0..4000usize {
                let v = t.int_load(here!("pred"), &xs[i % 64]);
                t.branch(here!("pred"), &[v], true);
            }
        });
        let random = sim(PlatformConfig::alpha21264(), |t| {
            for i in 0..4000usize {
                let v = t.int_load(here!("rand"), &xs[i % 64]);
                t.branch(here!("rand"), &[v], rand_bit());
            }
        });
        assert!(
            random.cycles > predictable.cycles * 2,
            "random {} vs predictable {}",
            random.cycles,
            predictable.cycles
        );
        assert!(random.mispredict_rate() > 0.3);
        assert!(predictable.mispredict_rate() < 0.02);
    }

    /// The paper's central mechanism: a load feeding a mispredicted
    /// branch delays its resolution, inflating the effective penalty.
    /// Hoisting the load (making the branch input ready earlier) must
    /// recover cycles even though the branch stays unpredictable.
    #[test]
    fn load_to_branch_latency_adds_to_mispredict_cost() {
        let xs: Vec<u64> = (0..4000).collect();
        // Baseline: branch condition comes straight from a fresh load.
        let tight = sim(PlatformConfig::alpha21264(), |t| {
            for (i, x) in xs.iter().enumerate() {
                let v = t.int_load(here!("tight"), x);
                let c = t.int_op(here!("tight"), &[v]);
                t.branch(here!("tight"), &[c], i % 3 == 0);
            }
        });
        // Hoisted: the load for the *next* branch issues one iteration
        // early, so the compare's input is ready when the branch arrives.
        let hoisted = sim(PlatformConfig::alpha21264(), |t| {
            let mut v = t.int_load(here!("hoist"), &xs[0]);
            for (i, _) in xs.iter().enumerate().take(xs.len() - 1) {
                let next = t.int_load(here!("hoist"), &xs[i + 1]);
                let c = t.int_op(here!("hoist"), &[v]);
                t.branch(here!("hoist"), &[c], i % 3 == 0);
                v = next;
            }
        });
        assert!(
            hoisted.cycles < tight.cycles,
            "hoisting must help: {} vs {}",
            hoisted.cycles,
            tight.cycles
        );
    }

    /// Register pressure: with only 8 logical registers, keeping many
    /// values live inserts spill traffic; with 128 it does not.
    #[test]
    fn register_pressure_spills_on_pentium4_only() {
        let work = |t: &mut Tape<CycleSim>| {
            let xs = vec![7u64; 64];
            for _ in 0..200 {
                // 16 simultaneously-live temporaries.
                let temps: Vec<_> = (0..16).map(|i| t.int_load(here!("temps"), &xs[i])).collect();
                let mut acc = t.lit();
                for v in &temps {
                    acc = t.int_op(here!("temps"), &[acc, *v]);
                }
            }
        };
        let p4 = sim(PlatformConfig::pentium4(), work);
        let ipf = sim(PlatformConfig::itanium2(), work);
        assert!(p4.spill_reloads > 0, "P4 must spill");
        assert_eq!(ipf.spill_reloads, 0, "128 registers never spill here");
    }

    /// In-order issue serializes behind a stalled elder; out-of-order
    /// does not.
    #[test]
    fn in_order_exposes_stalls_more() {
        let work = |t: &mut Tape<CycleSim>| {
            let cell = 3u64;
            for _ in 0..2000 {
                let v = t.int_load(here!("io"), &cell);
                let w = t.int_op(here!("io"), &[v]); // dependent: waits for load
                let _ = t.int_op(here!("io"), &[w]);
                // Independent work that OOO can slide under the load.
                let a = t.lit();
                for _ in 0..3 {
                    t.int_op(here!("io"), &[a]);
                }
            }
        };
        let mut ooo_cfg = PlatformConfig::alpha21264();
        ooo_cfg.int_load_latency = 3;
        let ooo = sim(ooo_cfg, work);
        let mut io_cfg = PlatformConfig::alpha21264();
        io_cfg.in_order = true;
        let io = sim(io_cfg, work);
        assert!(io.cycles >= ooo.cycles, "in-order {} vs ooo {}", io.cycles, ooo.cycles);
    }

    /// Block size never changes a result: per-op replay (one-op blocks)
    /// and every block size agree — including spill counters and cache
    /// stats, across odd block sizes whose edges fall mid-spill-sequence
    /// and on both in-order and out-of-order cores. (The naive per-op
    /// specification these must match is conform's `RefPipeline`.)
    #[test]
    fn blocked_replay_matches_per_op_replay() {
        use bioperf_trace::{Recorder, TraceConsumer};
        let mut tape = Tape::new(Recorder::new());
        let xs: Vec<u64> = (0..512).map(|i| i * 3).collect();
        let mut state = 0xDEAD_BEEFu64;
        let mut rand_bit = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 40) & 1 == 1
        };
        for r in 0..400usize {
            // Enough live temporaries to force P4 spills, plus branches,
            // selects, FP traffic, and strided loads.
            let temps: Vec<_> = (0..12).map(|i| tape.int_load(here!("t"), &xs[(r * 7 + i) % 512])).collect();
            let mut acc = tape.lit();
            for v in &temps {
                acc = tape.int_op(here!("t"), &[acc, *v]);
            }
            let sel = tape.select(here!("t"), &[acc], rand_bit());
            tape.branch(here!("t"), &[sel], rand_bit());
            let f = tape.fp_load(here!("t"), &xs[r % 512]);
            let g = tape.fp_op(here!("t"), &[f]);
            tape.fp_store(here!("t"), &xs[(r * 13) % 512], g);
        }
        let (program, rec) = tape.finish();
        let recording = rec.into_recording(program.clone());
        for cfg in PlatformConfig::all() {
            let mut per_op = CycleSim::new(cfg);
            for op in recording.iter() {
                per_op.consume(&op, &program);
            }
            let reference = per_op.into_result();
            for block_ops in [1usize, 3, 64, 4096] {
                let mut blocked = CycleSim::new(cfg);
                recording.replay_bank_blocks(std::slice::from_mut(&mut blocked), block_ops);
                assert_eq!(
                    blocked.into_result(),
                    reference,
                    "{} diverged at {}-op blocks",
                    cfg.name,
                    block_ops
                );
            }
        }
    }

    /// The factored timing pass: a sim fed the cache pass's annotation
    /// stream must produce the exact cycles/branch/spill numbers of a
    /// sim owning the live hierarchy — per-op and blocked, on every
    /// platform.
    #[test]
    fn annotated_replay_matches_live_hierarchy_replay() {
        use crate::annotate::CachePassSim;
        use bioperf_trace::Recorder;
        let mut tape = Tape::new(Recorder::new());
        let xs: Vec<u64> = (0..512).map(|i| i * 5).collect();
        let mut state = 0xC0FF_EE11u64;
        let mut rand_bit = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 40) & 1 == 1
        };
        for r in 0..400usize {
            let temps: Vec<_> =
                (0..12).map(|i| tape.int_load(here!("a"), &xs[(r * 11 + i) % 512])).collect();
            let mut acc = tape.lit();
            for v in &temps {
                acc = tape.int_op(here!("a"), &[acc, *v]);
            }
            let sel = tape.select(here!("a"), &[acc], rand_bit());
            tape.branch(here!("a"), &[sel], rand_bit());
            let f = tape.fp_load(here!("a"), &xs[r % 512]);
            let g = tape.fp_op(here!("a"), &[f]);
            tape.fp_store(here!("a"), &xs[(r * 3) % 512], g);
        }
        let (program, rec) = tape.finish();
        let recording = rec.into_recording(program.clone());
        for cfg in PlatformConfig::all() {
            let mut live = CycleSim::new(cfg);
            recording.replay_bank(std::slice::from_mut(&mut live));
            let reference = live.into_result();

            let mut pass = CachePassSim::new(cfg.logical_regs, vec![cfg.hierarchy()]);
            recording.replay_bank(std::slice::from_mut(&mut pass));
            let (_, stream) = pass.finish_bank().pop().expect("one member");
            let stream = std::sync::Arc::new(stream);

            let mut blocked = CycleSim::new(cfg).with_annotations(stream.clone());
            recording.replay_bank(std::slice::from_mut(&mut blocked));
            assert_eq!(blocked.annotations_consumed(), Some(stream.len()), "{}", cfg.name);
            let got = blocked.into_result();
            assert_eq!(got.cycles, reference.cycles, "{} annotated cycles", cfg.name);
            assert_eq!(
                (got.instructions, got.branches, got.mispredicts, got.spill_stores, got.spill_reloads),
                (
                    reference.instructions,
                    reference.branches,
                    reference.mispredicts,
                    reference.spill_stores,
                    reference.spill_reloads
                ),
                "{} annotated counters",
                cfg.name
            );

            let mut per_op = CycleSim::new(cfg).with_annotations(stream.clone());
            for op in recording.iter() {
                per_op.consume(&op, &program);
            }
            assert_eq!(per_op.into_result().cycles, reference.cycles, "{} per-op", cfg.name);
        }
    }

    /// The shared-front bank equals independent `CycleSim`s — results
    /// and, with metrics on, every lane's event set — for every subset
    /// of the four platforms (so every mix of register capacities and
    /// if-conversion modes) at every block size.
    #[test]
    fn platform_bank_matches_independent_cyclesims() {
        use bioperf_trace::Recorder;
        let mut tape = Tape::new(Recorder::new());
        let xs: Vec<u64> = (0..512).map(|i| i * 7).collect();
        let mut state = 0xBA5E_BA11u64;
        let mut rand_bit = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 40) & 1 == 1
        };
        for r in 0..300usize {
            // Live temporaries past the Pentium 4's and (every few rounds)
            // the Alpha's file, so each capacity spills differently.
            let live = if r % 5 == 0 { 40 } else { 10 };
            let temps: Vec<_> =
                (0..live).map(|i| tape.int_load(here!("b"), &xs[(r * 3 + i) % 512])).collect();
            let mut acc = tape.lit();
            for v in &temps {
                acc = tape.int_op(here!("b"), &[acc, *v]);
            }
            let sel = tape.select(here!("b"), &[acc], rand_bit());
            tape.branch(here!("b"), &[sel], rand_bit());
            let f = tape.fp_load(here!("b"), &xs[r % 512]);
            let g = tape.fp_op(here!("b"), &[f, temps[0]]);
            tape.fp_store(here!("b"), &xs[(r * 11) % 512], g);
        }
        let (_, rec) = tape.finish();
        let recording = rec.into_recording(bioperf_isa::Program::new());
        let all = PlatformConfig::all();
        let mut spills = Vec::new();
        for mask in 1u32..16 {
            let platforms: Vec<PlatformConfig> =
                (0..4).filter(|i| mask & (1 << i) != 0).map(|i| all[i]).collect();
            for metrics in [false, true] {
                let solo: Vec<(SimResult, MetricSet)> = platforms
                    .iter()
                    .map(|&p| {
                        let sim = CycleSim::new(p);
                        let mut sim = if metrics { sim.with_metrics() } else { sim };
                        recording.replay(&mut sim);
                        (sim.result(), sim.take_metrics())
                    })
                    .collect();
                assert!(solo.iter().all(|(_, m)| m.is_empty() != metrics), "events iff metrics");
                spills.extend(solo.iter().map(|(r, _)| r.spill_reloads));
                for block_ops in [1usize, 3, 64, 4096] {
                    let bank = PlatformBank::new(&platforms);
                    let mut bank = if metrics { bank.with_metrics() } else { bank };
                    recording.replay_bank_blocks(std::slice::from_mut(&mut bank), block_ops);
                    let events = bank.take_metrics();
                    let got: Vec<(SimResult, MetricSet)> =
                        bank.results().into_iter().zip(events).collect();
                    assert_eq!(got, solo, "platform mask {mask:04b}, metrics {metrics}, {block_ops}-op blocks");
                }
            }
        }
        spills.sort_unstable();
        spills.dedup();
        assert!(spills.len() >= 3, "capacities must spill differently: {spills:?}");
    }

    #[test]
    fn empty_trace_is_zero_cycles() {
        let r = sim(PlatformConfig::alpha21264(), |_| {});
        assert_eq!(r.cycles, 0);
        assert_eq!(r.instructions, 0);
        assert_eq!(r.ipc(), 0.0);
    }

    #[test]
    fn event_metrics_do_not_perturb_timing() {
        let work = |t: &mut Tape<CycleSim>| {
            let cell = 9u64;
            for i in 0..2000 {
                let v = t.int_load(here!("m"), &cell);
                let c = t.int_op(here!("m"), &[v]);
                t.branch(here!("m"), &[c], i % 7 == 0);
            }
        };
        let plain = sim(PlatformConfig::alpha21264(), work);
        let mut tape = Tape::new(CycleSim::new(PlatformConfig::alpha21264()).with_metrics());
        work(&mut tape);
        let (_, mut instrumented) = tape.finish();
        let m = instrumented.take_metrics();
        let r = instrumented.into_result();
        assert_eq!(r, plain, "metrics collection must not change the simulation");
        let lat = m.histogram("pipe/op_latency_cycles").expect("op latency histogram");
        assert_eq!(lat.count(), r.instructions);
        assert_eq!(m.counter("pipe/mispredict_redirects"), Some(r.mispredicts));
        let serviced = m.counter("cache/serviced_l1").unwrap_or(0)
            + m.counter("cache/serviced_l2").unwrap_or(0)
            + m.counter("cache/serviced_memory").unwrap_or(0);
        assert_eq!(serviced, r.cache.l1.load_accesses + r.cache.l1.store_accesses);
        // And a plain simulator yields no metrics at all.
        let mut off = CycleSim::new(PlatformConfig::alpha21264());
        assert!(off.take_metrics().is_empty());
    }

}
