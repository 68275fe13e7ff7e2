//! Basic built-in trace consumers.

use bioperf_isa::{MicroOp, OpClass, Program};

use crate::tracer::TraceConsumer;

/// Instruction-mix counter: the data behind the paper's Figure 1 (loads /
/// stores / conditional branches / other as a fraction of all executed
/// instructions) and Table 1 (total count and floating-point fraction).
///
/// # Example
///
/// ```
/// use bioperf_isa::here;
/// use bioperf_trace::{consumers::InstrMix, Tape, Tracer};
///
/// let mut tape = Tape::new(InstrMix::default());
/// let v = tape.fp_load(here!("f"), &1.0f64);
/// tape.fp_op(here!("f"), &[v, v]);
/// let (_, mix) = tape.finish();
/// assert_eq!(mix.total(), 2);
/// assert!((mix.fp_fraction() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstrMix {
    loads: u64,
    stores: u64,
    cond_branches: u64,
    other: u64,
    fp: u64,
    fp_loads: u64,
}

impl InstrMix {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total executed instructions observed.
    pub fn total(&self) -> u64 {
        self.loads + self.stores + self.cond_branches + self.other
    }

    /// Executed loads (integer + floating-point).
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// Executed stores.
    pub fn stores(&self) -> u64 {
        self.stores
    }

    /// Executed conditional branches.
    pub fn cond_branches(&self) -> u64 {
        self.cond_branches
    }

    /// Executed instructions outside the three reported classes.
    pub fn other(&self) -> u64 {
        self.other
    }

    /// Executed floating-point instructions (including FP loads/stores,
    /// matching the paper's Table 1 accounting).
    pub fn fp(&self) -> u64 {
        self.fp
    }

    /// Executed floating-point loads (the paper reports these for
    /// hmmpfam/predator/promlk in Section 2).
    pub fn fp_loads(&self) -> u64 {
        self.fp_loads
    }

    /// Count for one Figure 1 class.
    pub fn class(&self, class: OpClass) -> u64 {
        match class {
            OpClass::Load => self.loads,
            OpClass::Store => self.stores,
            OpClass::CondBranch => self.cond_branches,
            OpClass::Other => self.other,
        }
    }

    /// Fraction of executed instructions in `class` (0 if empty trace).
    pub fn class_fraction(&self, class: OpClass) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.class(class) as f64 / total as f64
        }
    }

    /// Fraction of executed instructions that are floating-point.
    pub fn fp_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.fp as f64 / total as f64
        }
    }

    /// Merges another counter into this one (used when a program is traced
    /// in several phases).
    pub fn merge(&mut self, other: &InstrMix) {
        self.loads += other.loads;
        self.stores += other.stores;
        self.cond_branches += other.cond_branches;
        self.other += other.other;
        self.fp += other.fp;
        self.fp_loads += other.fp_loads;
    }
}

impl TraceConsumer for InstrMix {
    fn consume(&mut self, op: &MicroOp, _program: &Program) {
        match op.kind.class() {
            OpClass::Load => self.loads += 1,
            OpClass::Store => self.stores += 1,
            OpClass::CondBranch => self.cond_branches += 1,
            OpClass::Other => self.other += 1,
        }
        if op.kind.is_fp() {
            self.fp += 1;
            if op.kind.is_load() {
                self.fp_loads += 1;
            }
        }
    }
}

/// Broadcasts one op stream to N consumers — trace once, analyze many.
///
/// The consumer tuples handle a fixed, statically-known set of analyses;
/// `FanOut` handles a set assembled at runtime. With the default
/// `Box<dyn TraceConsumer>` element type the set is heterogeneous:
///
/// ```
/// use bioperf_isa::here;
/// use bioperf_trace::{consumers::{FanOut, InstrMix, LoadCounts}, Tape, Tracer};
///
/// let mut fan = FanOut::new();
/// fan.push(Box::new(InstrMix::default()) as Box<dyn bioperf_trace::TraceConsumer>);
/// fan.push(Box::new(LoadCounts::default()));
/// let mut tape = Tape::new(fan);
/// tape.int_load(here!("f"), &3u64);
/// let (_, fan) = tape.finish();
/// assert_eq!(fan.len(), 2);
/// ```
///
/// Every consumer sees every op, in program order, exactly once; `finish`
/// reaches each consumer exactly once. Used by the experiment
/// orchestrator so a single kernel execution feeds the characterizer, the
/// replay recorder, and coverage counting simultaneously.
#[derive(Debug, Default)]
pub struct FanOut<C = Box<dyn TraceConsumer>> {
    consumers: Vec<C>,
}

impl<C: TraceConsumer> FanOut<C> {
    /// Creates an empty fan-out.
    pub fn new() -> Self {
        Self { consumers: Vec::new() }
    }

    /// Adds a consumer; it sees only ops recorded after this call.
    pub fn push(&mut self, consumer: C) {
        self.consumers.push(consumer);
    }

    /// Builder-style [`push`](Self::push).
    pub fn with(mut self, consumer: C) -> Self {
        self.push(consumer);
        self
    }

    /// Number of attached consumers.
    pub fn len(&self) -> usize {
        self.consumers.len()
    }

    /// Whether no consumer is attached.
    pub fn is_empty(&self) -> bool {
        self.consumers.is_empty()
    }

    /// Borrows consumer `i` (insertion order).
    pub fn get(&self, i: usize) -> Option<&C> {
        self.consumers.get(i)
    }

    /// Returns the consumers in insertion order.
    pub fn into_inner(self) -> Vec<C> {
        self.consumers
    }
}

impl<C: TraceConsumer> FromIterator<C> for FanOut<C> {
    fn from_iter<I: IntoIterator<Item = C>>(iter: I) -> Self {
        Self { consumers: iter.into_iter().collect() }
    }
}

impl<C: TraceConsumer> TraceConsumer for FanOut<C> {
    fn consume(&mut self, op: &MicroOp, program: &Program) {
        for c in &mut self.consumers {
            c.consume(op, program);
        }
    }

    fn consume_block(&mut self, block: &crate::packed::OpBlock, program: &Program) {
        for c in &mut self.consumers {
            c.consume_block(block, program);
        }
    }

    fn finish(&mut self, program: &Program) {
        for c in &mut self.consumers {
            c.finish(program);
        }
    }
}

/// Collects a per-op stream (a [`Tape`](crate::Tape)'s) into
/// [`OpBlock`](crate::OpBlock)s of [`BLOCK_OPS`](crate::BLOCK_OPS) ops and
/// hands each to the inner consumer's `consume_block`: block-speed
/// simulation of a kernel run without recording its trace. The inner
/// consumer sees every op in order, but only once its block fills or at
/// `finish`, so read it after `finish` (as [`Tape::finish`] does).
///
/// [`Tape::finish`]: crate::Tape::finish
#[derive(Debug, Default)]
pub struct Batched<C> {
    inner: C,
    block: crate::packed::OpBlock,
}

impl<C: TraceConsumer> Batched<C> {
    /// Wraps `inner`.
    pub fn new(inner: C) -> Self {
        Self { inner, block: crate::packed::OpBlock::default() }
    }

    /// The inner consumer.
    pub fn into_inner(self) -> C {
        self.inner
    }

    fn flush(&mut self, program: &Program) {
        if !self.block.is_empty() {
            self.inner.consume_block(&self.block, program);
            self.block.clear();
        }
    }
}

impl<C: TraceConsumer> TraceConsumer for Batched<C> {
    fn consume(&mut self, op: &MicroOp, program: &Program) {
        self.block.push_op(op);
        if self.block.len() == crate::packed::BLOCK_OPS {
            self.flush(program);
        }
    }

    fn consume_block(&mut self, block: &crate::packed::OpBlock, program: &Program) {
        self.flush(program);
        self.inner.consume_block(block, program);
    }

    fn finish(&mut self, program: &Program) {
        self.flush(program);
        self.inner.finish(program);
    }
}

/// Per-static-load dynamic execution counter — the raw data for the
/// paper's Figure 2 cumulative-coverage curves.
///
/// Indexable by [`StaticId`]; ids that never executed report zero.
///
/// [`StaticId`]: bioperf_isa::StaticId
#[derive(Debug, Clone, Default)]
pub struct LoadCounts {
    counts: Vec<u64>,
    total: u64,
}

impl LoadCounts {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Dynamic executions of the static load `sid` (zero if never seen).
    pub fn count(&self, sid: bioperf_isa::StaticId) -> u64 {
        self.counts.get(sid.index()).copied().unwrap_or(0)
    }

    /// Total dynamic loads observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Per-static-load counts sorted descending — the Figure 2 ranking.
    pub fn sorted_desc(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.counts.iter().copied().filter(|&c| c > 0).collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    }

    /// Number of distinct static loads that executed at least once.
    pub fn active_static_loads(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }
}

impl TraceConsumer for LoadCounts {
    fn consume(&mut self, op: &MicroOp, _program: &Program) {
        if !op.kind.is_load() {
            return;
        }
        let idx = op.sid.index();
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.total += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Tape, Tracer};
    use bioperf_isa::here;

    #[test]
    fn mix_counts_every_class() {
        let x = 0u64;
        let f = 0.0f64;
        let mut t = Tape::new(InstrMix::default());
        let a = t.int_load(here!("f"), &x);
        let b = t.fp_load(here!("f"), &f);
        t.int_store(here!("f"), &x, a);
        t.branch(here!("f"), &[a], true);
        t.fp_op(here!("f"), &[b, b]);
        t.jump(here!("f"));
        let (_, mix) = t.finish();
        assert_eq!(mix.total(), 6);
        assert_eq!(mix.loads(), 2);
        assert_eq!(mix.stores(), 1);
        assert_eq!(mix.cond_branches(), 1);
        assert_eq!(mix.other(), 2);
        assert_eq!(mix.fp(), 2);
        assert_eq!(mix.fp_loads(), 1);
    }

    #[test]
    fn fractions_sum_to_one() {
        let x = 0u64;
        let mut t = Tape::new(InstrMix::default());
        for _ in 0..7 {
            let v = t.int_load(here!("f"), &x);
            t.int_op(here!("f"), &[v]);
        }
        let (_, mix) = t.finish();
        let sum: f64 = OpClass::ALL.iter().map(|&c| mix.class_fraction(c)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    /// Batching delivers every op, in order, across block edges and the
    /// final partial block.
    #[test]
    fn batched_matches_per_op_delivery() {
        #[derive(Default)]
        struct Ops(Vec<MicroOp>);
        impl TraceConsumer for Ops {
            fn consume(&mut self, op: &MicroOp, _p: &Program) {
                self.0.push(*op);
            }
        }
        fn work<T: Tracer>(t: &mut T) {
            let xs: Vec<u64> = (0..64).collect();
            for i in 0..crate::packed::BLOCK_OPS + 100 {
                let v = t.int_load(here!("b"), &xs[i % 64]);
                t.branch(here!("b"), &[v], i % 3 == 0);
            }
        }
        let mut batched = Tape::new(Batched::new(Ops::default()));
        work(&mut batched);
        let (_, batched) = batched.finish();
        let mut plain = Tape::new(Ops::default());
        work(&mut plain);
        let (_, plain) = plain.finish();
        assert_eq!(batched.into_inner().0, plain.0);
    }

    #[test]
    fn empty_mix_has_zero_fractions() {
        let mix = InstrMix::new();
        assert_eq!(mix.total(), 0);
        assert_eq!(mix.class_fraction(OpClass::Load), 0.0);
        assert_eq!(mix.fp_fraction(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let x = 0u64;
        let mut t = Tape::new(InstrMix::default());
        t.int_load(here!("f"), &x);
        let (_, a) = t.finish();
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.loads(), 2);
    }

    #[test]
    fn fan_out_feeds_every_consumer_the_whole_stream() {
        let xs = [0u64; 4];
        let fan: FanOut<InstrMix> = (0..3).map(|_| InstrMix::default()).collect();
        let mut t = Tape::new(fan);
        for x in &xs {
            let v = t.int_load(here!("f"), x);
            t.int_op(here!("f"), &[v]);
        }
        let (_, fan) = t.finish();
        let mixes = fan.into_inner();
        assert_eq!(mixes.len(), 3);
        for m in &mixes {
            assert_eq!(m.total(), 8, "every consumer sees the full stream");
            assert_eq!(m.loads(), 4);
        }
        assert_eq!(mixes[0], mixes[1]);
        assert_eq!(mixes[1], mixes[2]);
    }

    #[test]
    fn fan_out_of_boxed_consumers_is_heterogeneous() {
        let x = 0u64;
        let fan = FanOut::new()
            .with(Box::new(InstrMix::default()) as Box<dyn crate::TraceConsumer>)
            .with(Box::new(LoadCounts::default()));
        assert!(!fan.is_empty());
        let mut t = Tape::new(fan);
        t.int_load(here!("f"), &x);
        let (_, fan) = t.finish();
        assert_eq!(fan.len(), 2);
    }

    #[test]
    fn load_counts_rank_hot_loads() {
        let xs = [0u64; 4];
        let mut t = Tape::new(LoadCounts::default());
        for _ in 0..10 {
            t.int_load(here!("hot"), &xs[0]);
        }
        t.int_load(here!("cold"), &xs[1]);
        // A non-load must not be counted.
        let v = t.lit();
        t.int_op(here!("alu"), &[v]);
        let (_, lc) = t.finish();
        assert_eq!(lc.total(), 11);
        assert_eq!(lc.active_static_loads(), 2);
        assert_eq!(lc.sorted_desc(), vec![10, 1]);
    }
}
