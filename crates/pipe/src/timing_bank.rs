//! The factored sweep's timing pass: one trace decode drives a bank of
//! annotated timing configurations through shared front-end passes.
//!
//! An annotated [`CycleSim`](crate::CycleSim) spends most of its time in
//! state that is *identical across sweep cells*: the register/spill plan
//! depends only on the trace and the platform's logical register count,
//! and predictor evolution depends only on the trace and the predictor
//! family — both shared by construction across a sweep's timing axis
//! (every cell keeps the base platform's register file and if-conversion
//! mode). [`TimingBank`] is therefore the same engine as `CycleSim` with
//! one register plan, one predictor per distinct family, and one
//! annotated lane per configuration: per chunk, only the lanes'
//! annotation-to-latency mapping and serial timing cores run N times.
//! Every lane's result is bit-identical to an independent
//! `CycleSim::with_annotations` replay — pinned by this module's tests
//! and, transitively, by the sweep's factored-vs-oracle self-check.

use std::sync::Arc;

use bioperf_branch::PredictorKind;
use bioperf_cache::AnnotationStream;
use bioperf_isa::{MicroOp, Program};
use bioperf_trace::{OpBlock, TraceConsumer};

use crate::config::PlatformConfig;
use crate::engine::Engine;
use crate::regfile::RegFile;
use crate::simulator::SimResult;

/// Replays a trace once through a bank of annotated timing
/// configurations, sharing the register/spill plan across every lane and
/// each predictor family across its lanes.
///
/// All lanes must share the platform's `logical_regs` and
/// `if_conversion` (true of every sweep grid cell — both come from the
/// base platform, not the swept axes); [`Self::push_lane`] panics
/// otherwise. Each lane's [`SimResult`] is bit-identical to replaying an
/// independent `CycleSim::new(cfg).with_predictor(pred)
/// .with_annotations(stream)`.
#[derive(Debug)]
pub struct TimingBank {
    logical_regs: u32,
    if_conversion: bool,
    engine: Engine,
    /// Reused block of the per-op path, which runs each op as a block.
    one: OpBlock,
}

impl TimingBank {
    /// An empty bank over the shared platform invariants.
    pub fn new(logical_regs: u32, if_conversion: bool) -> Self {
        Self {
            logical_regs,
            if_conversion,
            engine: Engine::new(&[RegFile::capacity_for(logical_regs)]),
            one: OpBlock::default(),
        }
    }

    /// Adds one timing configuration: a platform shape, a predictor
    /// family, and its precomputed miss-level stream.
    pub fn push_lane(
        &mut self,
        cfg: &PlatformConfig,
        pred: PredictorKind,
        stream: Arc<AnnotationStream>,
    ) {
        assert_eq!(cfg.logical_regs, self.logical_regs, "lanes must share the register file");
        assert_eq!(cfg.if_conversion, self.if_conversion, "lanes must share if-conversion");
        self.engine.push_lane(cfg, Some(stream), pred);
    }

    /// Lanes pushed so far.
    pub fn len(&self) -> usize {
        self.engine.lanes.len()
    }

    /// Whether the bank has no lanes.
    pub fn is_empty(&self) -> bool {
        self.engine.lanes.is_empty()
    }

    /// Final per-lane results, in push order. `SimResult::cache` is
    /// zeroed exactly as in annotated `CycleSim` replay: the cache pass
    /// that produced the streams owns the hierarchy stats.
    pub fn into_results(self) -> Vec<SimResult> {
        (0..self.len()).map(|i| self.engine.result(i)).collect()
    }
}

impl TraceConsumer for TimingBank {
    fn consume(&mut self, op: &MicroOp, _program: &Program) {
        self.one.clear();
        self.one.push_op(op);
        self.engine.run_block(&self.one, &mut ());
    }

    fn consume_block(&mut self, block: &OpBlock, _program: &Program) {
        self.engine.run_block(block, &mut ());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::CachePassSim;
    use crate::simulator::CycleSim;
    use bioperf_branch::PredictorKind;
    use bioperf_isa::here;
    use bioperf_trace::{Recorder, Tape, Tracer};

    fn spill_heavy_recording() -> bioperf_trace::Recording {
        let mut tape = Tape::new(Recorder::new());
        let xs: Vec<u64> = (0..512).map(|i| i * 3).collect();
        let mut state = 0xFEED_F00Du64;
        let mut rand_bit = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 40) & 1 == 1
        };
        for r in 0..400usize {
            let temps: Vec<_> =
                (0..12).map(|i| tape.int_load(here!("t"), &xs[(r * 7 + i) % 512])).collect();
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
        rec.into_recording(program)
    }

    /// Timing-axis variants of a base platform (latency triple, pipe
    /// shape), as the sweep derives them.
    fn variants(base: PlatformConfig) -> Vec<PlatformConfig> {
        let mut v = Vec::new();
        for (l1, l2, mem) in [(3, 8, 72), (2, 5, 60)] {
            for (width, rob) in [(2u32, 32usize), (6, 128)] {
                let mut cfg = base;
                cfg.int_load_latency = l1;
                cfg.fp_load_latency = l1 + 1;
                cfg.l2_latency = l2;
                cfg.memory_latency = mem;
                cfg.issue_width = width;
                cfg.fetch_width = width;
                cfg.rob_size = rob;
                v.push(cfg);
            }
        }
        v
    }

    /// Every lane of a heterogeneous bank (mixed latencies, pipe shapes,
    /// predictor families, and annotation streams) must be bit-identical
    /// to an independent annotated `CycleSim`, blocked and per-op.
    #[test]
    fn bank_lanes_match_independent_annotated_cyclesims() {
        let recording = spill_heavy_recording();
        for base in PlatformConfig::all() {
            // Two cache-axis geometries' annotation streams for this
            // platform family.
            let small = PlatformConfig::pentium4();
            let mut pass = CachePassSim::new(
                base.logical_regs,
                vec![base.hierarchy(), {
                    let mut alt = base;
                    alt.l1 = small.l1;
                    alt.hierarchy()
                }],
            );
            recording.replay_bank(std::slice::from_mut(&mut pass));
            let streams: Vec<Arc<AnnotationStream>> =
                pass.finish_bank().into_iter().map(|(_, s)| Arc::new(s)).collect();

            let preds = [PredictorKind::Hybrid, PredictorKind::Bimodal, PredictorKind::Aliased];
            let mut bank = TimingBank::new(base.logical_regs, base.if_conversion);
            let mut expected = Vec::new();
            for (i, cfg) in variants(base).into_iter().enumerate() {
                let pred = preds[i % preds.len()];
                let stream = streams[i % streams.len()].clone();
                bank.push_lane(&cfg, pred, stream.clone());
                let mut solo =
                    CycleSim::new(cfg).with_predictor(pred).with_annotations(stream);
                recording.replay_bank(std::slice::from_mut(&mut solo));
                expected.push(solo.into_result());
            }
            recording.replay_bank(std::slice::from_mut(&mut bank));
            let got = bank.into_results();
            assert_eq!(got, expected, "{}: banked timing lanes diverged", base.name);
        }
    }

    /// The per-op consume path equals the blocked path (and therefore
    /// the annotated `CycleSim` both paths mirror).
    #[test]
    fn per_op_path_matches_blocked_path() {
        let recording = spill_heavy_recording();
        let base = PlatformConfig::alpha21264();
        let mut pass = CachePassSim::new(base.logical_regs, vec![base.hierarchy()]);
        recording.replay_bank(std::slice::from_mut(&mut pass));
        let (_, stream) = pass.finish_bank().pop().expect("one member");
        let stream = Arc::new(stream);

        let mk = || {
            let mut bank = TimingBank::new(base.logical_regs, base.if_conversion);
            for (i, cfg) in variants(base).into_iter().enumerate() {
                let pred = [PredictorKind::Hybrid, PredictorKind::Bimodal][i % 2];
                bank.push_lane(&cfg, pred, stream.clone());
            }
            bank
        };
        let mut blocked = mk();
        recording.replay_bank(std::slice::from_mut(&mut blocked));
        let mut per_op = mk();
        let program = recording.program().clone();
        for op in recording.iter() {
            per_op.consume(&op, &program);
        }
        assert_eq!(per_op.into_results(), blocked.into_results());
    }
}
