//! The one scheduling core every `pipe` simulator runs on.
//!
//! A naive per-op model interleaves six stateful structures on every op
//! (register file, ready ring, issue ring, cache hierarchy, branch
//! predictor, ROB). Three of them evolve independently of simulated
//! *time*: which values spill depends only on the vreg touch sequence,
//! cache state only on the address sequence, predictor state only on the
//! outcome sequence. So replay runs in phases over chunks of a decoded
//! [`OpBlock`]:
//!
//!  A. [`RegPlan::plan_regs`] — one nested register file, spill planning
//!     and ready-ring tags: every source resolved to a ready-ring slot
//!     (`ZERO_SLOT` when it has no producer), every destination's slot,
//!     and, per register-file capacity ([`SpillView`]), the spill reloads
//!     each source needs;
//!  B. [`RegPlan::merge_accesses`] and [`RegPlan::merge_branches`] — per
//!     view, the exact hierarchy-access sequence (its spill traffic merged
//!     with the demand column); per if-conversion mode
//!     ([`BranchStream`]), the exact predictor-observation sequence;
//!  C. per predictor [`Family`] (a stream and a predictor kind) — the
//!     observation sequence's redirects;
//!  D. per [`Lane`] — its miss-level source (a live [`Hierarchy`] or an
//!     annotation cursor) turns its view's access sequence into
//!     latencies, and its [`TimingCore`] schedules the chunk: dispatch,
//!     operand max, issue-slot claim, ROB, redirects.
//!
//! Every structure sees its updates in program order, so a run is
//! identical at any chunk size, one-op blocks included (pinned by the
//! block-size tests and the conformance fuzzer's `RefPipeline` diff).
//! Passes A–C are shared by every lane of an engine, whatever its
//! platform: `CycleSim` is an [`Engine`] with one live or annotated lane,
//! `PlatformBank` one with a live lane per platform, `TimingBank` one
//! with N annotated lanes, and `CachePassSim` runs passes A and B alone.

use std::sync::Arc;

use bioperf_branch::{DynPredictor, PredictorKind};
use bioperf_cache::{AccessKind, AnnotationStream, Hierarchy, HierarchyStats, LatencyConfig};
use bioperf_isa::{MicroOp, OpKind, StaticId};
use bioperf_trace::{
    OpBlock, REG_EVENT_DST, REG_EVENT_DST_LOAD, REG_EVENT_IDX_SHIFT, REG_EVENT_POS,
};

use crate::config::PlatformConfig;
use crate::regfile::RegFile;
use crate::simulator::SimResult;

/// Ring sizes; both bound the span of "active" cycles / values, which is
/// limited by the ROB size times the largest latency.
const ISSUE_RING: usize = 1 << 12;
const READY_RING: usize = 1 << 16;

/// Each issue-ring slot packs `(cycle << 4) | issued-count` into one
/// `u64` (issue widths are ≤ 8, cycles nowhere near 2⁶⁰), so a claim is
/// one load plus one store on a 32 KB ring instead of two fields on a
/// 64 KB one.
const ISSUE_COUNT_BITS: u32 = 4;
const ISSUE_COUNT_MASK: u64 = (1 << ISSUE_COUNT_BITS) - 1;

/// Two out-of-band ready-ring slots of the operand plan: reads of
/// `ZERO_SLOT` always see cycle 0 (an absent or long-dead producer),
/// writes to `SINK_SLOT` are discarded (an op with no destination). Both
/// let the operand loop run without testing `Option`s.
const SINK_SLOT: u32 = READY_RING as u32;
const ZERO_SLOT: u32 = READY_RING as u32 + 1;

/// Per-op flag byte of the plan: two bits per source position (`00`
/// plain, `01` reload rematerialized from a load, `10` reload of a
/// computed value through a spill slot).
const SRC_RELOAD_LOAD: u8 = 0b01;
const SRC_RELOAD_COMPUTED: u8 = 0b10;

/// Replay phases over sub-chunks of this many ops, not whole blocks: the
/// plan arrays plus one chunk's columns stay cache-resident across the
/// passes, where a full 4096-op block would be re-fetched by each pass.
pub(crate) const PHASE_CHUNK: usize = 512;

/// Where spilled values live: a small stack-like region that stays
/// L1-resident, as real spill slots do.
const SPILL_BASE: u64 = 0x7fff_0000_0000;
const SPILL_SLOTS: u64 = 512;

// Access-event tags of the merged access stream, one event per
// hierarchy access in presentation order: an op's spill traffic precedes
// its own demand access, and a computed value's reload is preceded by
// its spill store.
const ACC_INT_LOAD: u32 = 0;
const ACC_FP_LOAD: u32 = 1;
/// A demand store or a spill store: the latency is unused.
const ACC_STORE: u32 = 2;
/// Reload of a value that came from a load (rematerialized, no store).
const ACC_SPILL_LOAD: u32 = 3;
/// Reload of a computed value, which also pays the forwarding stall.
const ACC_SPILL_FORWARD: u32 = 4;
const ACC_TAG_BITS: u32 = 3;
const ACC_TAG_MASK: u32 = (1 << ACC_TAG_BITS) - 1;

/// Per-block cursors into the [`OpBlock`] filter columns; each chunk's
/// passes consume their column prefix and leave the cursors at the next
/// chunk's first entry.
#[derive(Default, Clone, Copy)]
struct ColCursors {
    ev: usize,
    mem: usize,
    br: usize,
    sel: usize,
}

/// Pass A's output at one register-file capacity: the spill plan, its
/// counters and the merged access stream that plan implies. Lanes of
/// every platform with this capacity read the same view.
#[derive(Debug, Clone)]
pub(crate) struct SpillView {
    capacity: usize,
    spill_stores: u64,
    spill_reloads: u64,
    /// Per-op flag bytes (`SRC_RELOAD_*` per source position) of the
    /// current chunk.
    flags: Vec<u8>,
    /// Planned spill events in (op, source-position) order: `ci << 1 |
    /// computed`, with the spill-slot address.
    spill_ev: Vec<u32>,
    spill_addr: Vec<u64>,
    /// The merged access stream: `ci << ACC_TAG_BITS | tag` per hierarchy
    /// access, with its address.
    acc: Vec<u32>,
    acc_addr: Vec<u64>,
}

impl SpillView {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            spill_stores: 0,
            spill_reloads: 0,
            flags: Vec::new(),
            spill_ev: Vec::new(),
            spill_addr: Vec::new(),
            acc: Vec::new(),
            acc_addr: Vec::new(),
        }
    }

    /// The access merge for ops `lo..hi`, appended to the merged access
    /// stream: this view's spill plan interleaved with the pre-filtered
    /// demand column. Spill slots live in the same hierarchy as demand
    /// accesses, and an op resolves operands (reloads) before it executes
    /// (its own access), so ties break toward the spill stream.
    fn merge_accesses(&mut self, block: &OpBlock, lo: usize, hi: usize, mem: &mut usize) {
        let codes = block.kind_codes();
        let mem_idx = block.mem_idx();
        let mem_addrs = block.mem_addrs();
        let mem_loads = block.mem_loads();
        let end = hi as u32;
        let mut sp = 0;
        loop {
            let mem_ci = if *mem < mem_idx.len() && mem_idx[*mem] < end {
                mem_idx[*mem] - lo as u32
            } else {
                u32::MAX
            };
            let sp_ci = self.spill_ev.get(sp).map_or(u32::MAX, |&e| e >> 1);
            if sp_ci <= mem_ci {
                if sp_ci == u32::MAX {
                    break;
                }
                let addr = self.spill_addr[sp];
                let reload = if self.spill_ev[sp] & 1 != 0 {
                    self.acc.push(sp_ci << ACC_TAG_BITS | ACC_STORE);
                    self.acc_addr.push(addr);
                    ACC_SPILL_FORWARD
                } else {
                    ACC_SPILL_LOAD
                };
                self.acc.push(sp_ci << ACC_TAG_BITS | reload);
                self.acc_addr.push(addr);
                sp += 1;
                continue;
            }
            let e = *mem;
            *mem += 1;
            let code = codes[lo + mem_ci as usize];
            if code > OpKind::FpStore.code() {
                // An address-carrying non-memory kind is no access.
                continue;
            }
            let tag = if !mem_loads[e] {
                ACC_STORE
            } else if code == OpKind::FpLoad.code() {
                ACC_FP_LOAD
            } else {
                ACC_INT_LOAD
            };
            self.acc.push(mem_ci << ACC_TAG_BITS | tag);
            self.acc_addr.push(mem_addrs[e]);
        }
    }
}

/// The predictor-observation sequence of one if-conversion mode over the
/// current chunk: `(ci, sid, taken)` in program order.
#[derive(Debug, Clone)]
pub(crate) struct BranchStream {
    if_conversion: bool,
    branches: Vec<(u32, StaticId, bool)>,
    /// Observations so far (the `SimResult::branches` of its lanes).
    count: u64,
}

impl BranchStream {
    /// The branch merge for ops `lo..hi`, from the chunk-start cursors
    /// `cur` (left at the next chunk's first entries). Without
    /// if-conversion, selects resolve through the same predictor as
    /// branches, so the two columns merge back into program order; with
    /// it, selects stay ALU ops and their cursor only steps past the
    /// chunk.
    fn merge(&mut self, block: &OpBlock, lo: usize, hi: usize, cur: &mut ColCursors) {
        self.branches.clear();
        let end = hi as u32;
        let branch_idx = block.branch_idx();
        let branch_sids = block.branch_sids();
        let branch_taken = block.branch_taken();
        let select_idx = block.select_idx();
        if self.if_conversion {
            while cur.br < branch_idx.len() && branch_idx[cur.br] < end {
                let e = cur.br;
                cur.br += 1;
                self.branches.push((branch_idx[e] - lo as u32, branch_sids[e], branch_taken[e]));
            }
            while cur.sel < select_idx.len() && select_idx[cur.sel] < end {
                cur.sel += 1;
            }
        } else {
            let select_sids = block.select_sids();
            let select_taken = block.select_taken();
            loop {
                let b = branch_idx.get(cur.br).copied().unwrap_or(u32::MAX);
                let s = select_idx.get(cur.sel).copied().unwrap_or(u32::MAX);
                let idx = b.min(s);
                if idx >= end {
                    break;
                }
                let (sid, taken) = if b < s {
                    let e = cur.br;
                    cur.br += 1;
                    (branch_sids[e], branch_taken[e])
                } else {
                    let e = cur.sel;
                    cur.sel += 1;
                    (select_sids[e], select_taken[e])
                };
                self.branches.push((idx - lo as u32, sid, taken));
            }
        }
        self.count += self.branches.len() as u64;
    }
}

/// Pass A — one nested register file, spill planning and ready-ring tags
/// — plus the merges that turn its spill plans and a block's filter
/// columns into the access and branch streams every consumer reads.
///
/// Ready-ring tags, from-load flags and operand/destination slots depend
/// only on the trace, so they are computed once per chunk. What depends
/// on the register-file capacity — reload flags, spill events, spill
/// counters and the merged access stream — is kept once per distinct
/// capacity (a [`SpillView`]), all fed by one nested [`RegFile`]: an
/// operand that misses `m` capacities spills in the first `m` views.
/// The branch merge runs once per if-conversion mode present.
#[derive(Debug, Clone)]
pub(crate) struct RegPlan {
    regs: RegFile,
    /// Ready-ring tags: the resident vreg keyed by `vreg & mask`. The
    /// untouched-slot sentinel `u64::MAX` is *observable* (an aliasing
    /// `VReg(u64::MAX)` source reads as a computed value ready at cycle 0
    /// — part of the documented ring contract the conformance reference
    /// reproduces), so the tag stores the full vreg and the from-load flag
    /// lives in its own array rather than a stolen tag bit.
    ready_tag: Vec<u64>,
    /// Whether each slot's resident value came straight from a load
    /// (spill reloads of such values rematerialize: no store).
    ready_from_load: Vec<bool>,
    /// Operand slots and destination slot of each op of the current
    /// chunk.
    src: Vec<[u32; 3]>,
    dst: Vec<u32>,
    /// One view per capacity, in `regs.capacities()` order.
    views: Vec<SpillView>,
    /// One stream per if-conversion mode a lane uses.
    streams: Vec<BranchStream>,
}

impl RegPlan {
    /// A plan answering each register-file capacity in `capacities`.
    pub(crate) fn new(capacities: &[usize]) -> Self {
        let regs = RegFile::nested(capacities);
        let views = regs.capacities().iter().map(|&c| SpillView::new(c)).collect();
        Self {
            regs,
            ready_tag: vec![u64::MAX; READY_RING],
            ready_from_load: vec![false; READY_RING],
            src: Vec::new(),
            dst: Vec::new(),
            views,
            streams: Vec::new(),
        }
    }

    /// The view planning `capacity`.
    ///
    /// # Panics
    ///
    /// If the plan was not built with that capacity.
    fn view_of(&self, capacity: usize) -> usize {
        self.views
            .iter()
            .position(|v| v.capacity == capacity)
            .expect("the plan covers every lane's register capacity")
    }

    /// The branch stream of `if_conversion`, added if new.
    fn stream_of(&mut self, if_conversion: bool) -> usize {
        self.streams.iter().position(|s| s.if_conversion == if_conversion).unwrap_or_else(|| {
            self.streams.push(BranchStream { if_conversion, branches: Vec::new(), count: 0 });
            self.streams.len() - 1
        })
    }

    /// Pass A over ops `lo..hi` of `block`.
    ///
    /// Walks the block's register-event column — one entry per *present*
    /// source or destination, in program order — so the loop never tests
    /// an `Option` slot or touches a registerless op. The cursor is left
    /// at the next chunk's first event.
    ///
    /// The spill model: a source whose value was evicted from the
    /// architected register file and is reused generates real spill code
    /// — a reload here, plus a store at its eviction if the value was
    /// computed (a value that came straight from a load is
    /// rematerialized by repeating the load). Values that die without a
    /// post-eviction use generate none: the allocator keeps dead
    /// intermediates out of the file.
    pub(crate) fn plan_regs(&mut self, block: &OpBlock, lo: usize, hi: usize, ev: &mut usize) {
        let n = hi - lo;
        for view in &mut self.views {
            view.flags.clear();
            view.flags.resize(n, 0);
            view.spill_ev.clear();
            view.spill_addr.clear();
        }
        self.src.clear();
        self.src.resize(n, [ZERO_SLOT; 3]);
        self.dst.clear();
        self.dst.resize(n, SINK_SLOT);
        let metas = block.reg_event_meta();
        let vregs = block.reg_event_vreg();
        // Flag bits live below the index field, so one shifted compare
        // bounds the chunk.
        let end = (hi as u32) << REG_EVENT_IDX_SHIFT;
        while *ev < metas.len() {
            let meta = metas[*ev];
            if meta >= end {
                break;
            }
            let v = vregs[*ev];
            *ev += 1;
            let ci = (meta >> REG_EVENT_IDX_SHIFT) as usize - lo;
            let slot = (v as usize) & (READY_RING - 1);
            if meta & REG_EVENT_DST != 0 {
                self.ready_tag[slot] = v;
                self.ready_from_load[slot] = meta & REG_EVENT_DST_LOAD != 0;
                self.regs.access(v);
                self.dst[ci] = slot as u32;
                continue;
            }
            if self.ready_tag[slot] != v {
                // No recorded producer: reads as cycle 0 via ZERO_SLOT.
                continue;
            }
            let pos = (meta & REG_EVENT_POS) as usize;
            self.src[ci][pos] = slot as u32;
            // The access reloads `v` wherever it missed (and, by LRU
            // inclusion, it missed exactly the smallest `misses`
            // capacities). The reload rewrites the ring slot with the
            // same tag and flag, so only the cycle (timing pass) changes.
            let misses = self.regs.access(v);
            if misses == 0 {
                continue;
            }
            let computed = !self.ready_from_load[slot];
            let flag = if computed { SRC_RELOAD_COMPUTED } else { SRC_RELOAD_LOAD } << (2 * pos);
            let event = (ci as u32) << 1 | computed as u32;
            let addr = SPILL_BASE + (v % SPILL_SLOTS) * 8;
            for view in &mut self.views[..misses] {
                view.spill_reloads += 1;
                view.spill_stores += computed as u64;
                view.flags[ci] |= flag;
                view.spill_ev.push(event);
                view.spill_addr.push(addr);
            }
        }
    }

    /// Every view's access merge for ops `lo..hi` (see
    /// [`SpillView::merge_accesses`]); `mem` is the chunk's first demand
    /// entry and is left at the next chunk's.
    pub(crate) fn merge_accesses(
        &mut self,
        block: &OpBlock,
        lo: usize,
        hi: usize,
        mem: &mut usize,
    ) {
        let start = *mem;
        for view in &mut self.views {
            *mem = start;
            view.merge_accesses(block, lo, hi, mem);
        }
    }

    /// Empties every view's merged access stream.
    pub(crate) fn clear_accesses(&mut self) {
        for view in &mut self.views {
            view.acc.clear();
            view.acc_addr.clear();
        }
    }

    /// The first view's merged access stream as parallel address /
    /// is-load columns (the shape
    /// [`bioperf_cache::MissLevelBank::access_run`] takes).
    pub(crate) fn access_columns(&self, loads: &mut Vec<bool>) -> &[u64] {
        let view = &self.views[0];
        loads.clear();
        loads.extend(view.acc.iter().map(|&a| a & ACC_TAG_MASK != ACC_STORE));
        &view.acc_addr
    }

    /// Every branch stream's merge for ops `lo..hi`, from the chunk-start
    /// cursors `cur` (left at the next chunk's).
    fn merge_branches(&mut self, block: &OpBlock, lo: usize, hi: usize, cur: &mut ColCursors) {
        let start = *cur;
        for stream in &mut self.streams {
            *cur = start;
            stream.merge(block, lo, hi, cur);
        }
    }
}

/// One predictor over one branch stream, and what it decided over the
/// current chunk.
#[derive(Debug, Clone)]
pub(crate) struct Family {
    /// Index of the [`BranchStream`] it observes.
    pub(crate) stream: usize,
    pub(crate) kind: PredictorKind,
    predictor: DynPredictor,
    mispredicts: u64,
    /// Chunk-relative indices of this chunk's mispredicted branches.
    redirects: Vec<u32>,
}

impl Family {
    pub(crate) fn new(stream: usize, kind: PredictorKind) -> Self {
        Self {
            stream,
            kind,
            predictor: DynPredictor::new(kind),
            mispredicts: 0,
            redirects: Vec::new(),
        }
    }

    fn observe(&mut self, branches: &[(u32, StaticId, bool)]) {
        self.redirects.clear();
        for &(ci, sid, taken) in branches {
            if !self.predictor.observe(sid, taken) {
                self.mispredicts += 1;
                self.redirects.push(ci);
            }
        }
    }
}

/// Per-op hook of the timing core (timelines, event metrics). `()` is the
/// uninstrumented run: its empty `record` compiles away, so the core's
/// monomorphized loop pays nothing per op.
pub(crate) trait Observe {
    /// Op `i` of the chunk `ops` issued and completed at these cycles.
    fn record(
        &mut self,
        ops: &[MicroOp],
        i: usize,
        dispatch: u64,
        issue: u64,
        complete: u64,
        mispredicted: bool,
    );
}

impl Observe for () {
    #[inline(always)]
    fn record(&mut self, _: &[MicroOp], _: usize, _: u64, _: u64, _: u64, _: bool) {}
}

/// The per-lane hooks of one engine run: `()` observes no lane, a slice
/// holds one [`Observe`] per lane.
pub(crate) trait Observers {
    type Lane: Observe;
    fn lane(&mut self, i: usize) -> &mut Self::Lane;
}

impl Observers for () {
    type Lane = ();
    #[inline(always)]
    fn lane(&mut self, _: usize) -> &mut () {
        self
    }
}

impl<O: Observe> Observers for [O] {
    type Lane = O;
    fn lane(&mut self, i: usize) -> &mut O {
        &mut self[i]
    }
}

/// The serial scheduling core: front end, issue ring, ready cycles, ROB.
#[derive(Debug, Clone)]
struct TimingCore {
    in_order: bool,
    fetch_width: u32,
    issue_width: u64,
    rob_size: usize,
    mispredict_penalty: u64,
    fetch_cycle: u64,
    fetched_this_cycle: u32,
    issue_ring: Vec<u64>,
    /// Ready-ring completion cycles, keyed like [`RegPlan`]'s tags, plus
    /// the two out-of-band `SINK_SLOT`/`ZERO_SLOT` entries.
    ready_cycle: Vec<u64>,
    /// Completion cycles of in-flight ops, oldest first: a fixed ring
    /// over `rob_size` slots (`rob_head` indexes the oldest, `rob_len`
    /// counts residents — never more than `rob_size`).
    rob: Vec<u64>,
    rob_head: usize,
    rob_len: usize,
    last_issue: u64,
    max_completion: u64,
}

impl TimingCore {
    fn new(cfg: &PlatformConfig) -> Self {
        Self {
            in_order: cfg.in_order,
            fetch_width: cfg.fetch_width,
            issue_width: cfg.issue_width as u64,
            rob_size: cfg.rob_size,
            mispredict_penalty: cfg.mispredict_penalty,
            fetch_cycle: 0,
            fetched_this_cycle: 0,
            issue_ring: vec![u64::MAX; ISSUE_RING],
            ready_cycle: vec![0; READY_RING + 2],
            rob: vec![0; cfg.rob_size],
            rob_head: 0,
            rob_len: 0,
            last_issue: 0,
            max_completion: 0,
        }
    }

    /// Claims an issue slot at the first cycle ≥ `earliest` with
    /// bandwidth available.
    fn issue_at(&mut self, earliest: u64) -> u64 {
        let mut c = earliest;
        loop {
            let slot = &mut self.issue_ring[(c as usize) & (ISSUE_RING - 1)];
            let packed = *slot;
            if packed >> ISSUE_COUNT_BITS != c {
                // Stale slot from a lapped cycle: reset and claim.
                *slot = (c << ISSUE_COUNT_BITS) | 1;
                return c;
            }
            if packed & ISSUE_COUNT_MASK < self.issue_width {
                *slot = packed + 1;
                return c;
            }
            c += 1;
        }
    }

    /// Advances the front end by one dispatch slot and returns the
    /// dispatch cycle for the next op.
    fn dispatch(&mut self) -> u64 {
        if self.fetched_this_cycle >= self.fetch_width {
            self.fetch_cycle += 1;
            self.fetched_this_cycle = 0;
        }
        // ROB full: the front end stalls until the oldest op retires.
        if self.rob_len == self.rob_size {
            let head = self.rob[self.rob_head];
            self.rob_head += 1;
            if self.rob_head == self.rob_size {
                self.rob_head = 0;
            }
            self.rob_len -= 1;
            if head > self.fetch_cycle {
                self.fetch_cycle = head;
                self.fetched_this_cycle = 0;
            }
        }
        self.fetched_this_cycle += 1;
        self.fetch_cycle
    }

    /// Schedules one planned chunk: `flags` holds each op's reload flags
    /// at this lane's capacity, `lat` each op's completion latency,
    /// `spill_lat` the chunk's reload latencies in plan order, `redirects`
    /// the chunk-relative indices of mispredicted branches.
    #[allow(clippy::too_many_arguments)] // shared plan columns and lane scratch, borrowed apart
    fn run_chunk<const IN_ORDER: bool, O: Observe>(
        &mut self,
        plan: &RegPlan,
        flags: &[u8],
        lat: &[u32],
        spill_lat: &[u32],
        redirects: &[u32],
        ops: &[MicroOp],
        obs: &mut O,
    ) {
        let mut spill_idx = 0usize;
        let mut redirects = redirects.iter();
        let mut next_redirect = redirects.next().map_or(usize::MAX, |&r| r as usize);
        for (i, (&flags, &slots)) in flags.iter().zip(&plan.src).enumerate() {
            let dispatch = self.dispatch();
            let operands = if flags == 0 {
                // Common case: three unconditional ring reads (absent
                // sources resolve to ZERO_SLOT's constant 0).
                let a = self.ready_cycle[slots[0] as usize];
                let b = self.ready_cycle[slots[1] as usize];
                let c = self.ready_cycle[slots[2] as usize];
                a.max(b).max(c)
            } else {
                let mut operands = 0u64;
                for (j, &slot) in slots.iter().enumerate() {
                    let base = self.ready_cycle[slot as usize];
                    let code = (flags >> (2 * j)) & 0b11;
                    if code == 0 {
                        operands = operands.max(base);
                        continue;
                    }
                    // A spill reload takes one front-end slot (it folds
                    // into its consumer as a memory operand on the
                    // register-scarce ISA where spills matter) and one
                    // issue slot, after the spill store's for a computed
                    // value.
                    self.fetched_this_cycle += 1;
                    if code == SRC_RELOAD_COMPUTED {
                        self.issue_at(dispatch);
                    }
                    let start = self.issue_at(dispatch.max(base));
                    let ready = start + spill_lat[spill_idx] as u64;
                    spill_idx += 1;
                    self.ready_cycle[slot as usize] = ready;
                    operands = operands.max(ready);
                }
                operands
            };
            let mut earliest = dispatch.max(operands);
            if IN_ORDER {
                // Issue in program order: an op cannot issue before its elder.
                earliest = earliest.max(self.last_issue);
            }
            let start = self.issue_at(earliest);
            if IN_ORDER {
                self.last_issue = start;
            }
            let completion = start + lat[i] as u64;
            let mispredicted = i == next_redirect;
            if mispredicted {
                next_redirect = redirects.next().map_or(usize::MAX, |&r| r as usize);
                // Redirect: the front end restarts after the branch
                // resolves — resolution delay (e.g. waiting on a load)
                // adds directly to the misprediction cost.
                if !crate::inject::active(crate::inject::DROPPED_FLUSH) {
                    let redirect = completion + self.mispredict_penalty;
                    if redirect > self.fetch_cycle {
                        self.fetch_cycle = redirect;
                        self.fetched_this_cycle = 0;
                    }
                }
            }
            obs.record(ops, i, dispatch, start, completion, mispredicted);
            self.ready_cycle[plan.dst[i] as usize] = completion;
            // `dispatch` freed a slot whenever the ring was full, so this
            // push can never overflow `rob_size`.
            let mut pos = self.rob_head + self.rob_len;
            if pos >= self.rob_size {
                pos -= self.rob_size;
            }
            self.rob[pos] = completion;
            self.rob_len += 1;
            if completion > self.max_completion {
                self.max_completion = completion;
            }
        }
    }
}

/// Where a lane's accesses get their latency.
#[derive(Debug, Clone)]
enum MissSource {
    /// A cache hierarchy simulated in place (boxed: it is large, and
    /// the lane reaches it once per chunk).
    Live(Box<Hierarchy>),
    /// A precomputed miss-level stream (the factored sweep's timing
    /// pass): each access pops one 2-bit level code, mapped through the
    /// lane's total access latency per level (L1 / L2 / memory; the
    /// fourth entry aliases L1 so indexing a raw code never
    /// bounds-checks). An exhausted cursor reads the benign L1 code, so a
    /// skewed replay diverges instead of crashing.
    Annotated { stream: Arc<AnnotationStream>, pos: usize, lat: [u64; 4] },
}

/// One timing configuration: a [`TimingCore`] plus its miss-level source
/// and latency tables.
#[derive(Debug, Clone)]
pub(crate) struct Lane {
    core: TimingCore,
    source: MissSource,
    /// Execution latency by `OpKind::code()` for kinds whose latency is a
    /// platform constant (loads are overwritten from the source, stores
    /// and resolving branches take 1).
    lat_lut: [u32; 12],
    fp_load_extra: u64,
    spill_forward_extra: u64,
    /// Index of this lane's predictor [`Family`] (and through it, its
    /// branch stream) in its engine.
    pub(crate) family: usize,
    /// Index of this lane's register-capacity [`SpillView`].
    pub(crate) view: usize,
    // Per-chunk scratch: completion latencies, reload latencies.
    lat: Vec<u32>,
    spill_lat: Vec<u32>,
}

impl Lane {
    /// A lane for `cfg` over a live copy of its hierarchy, or over
    /// `stream` when given, reading predictor `family` and spill `view`.
    pub(crate) fn new(
        cfg: &PlatformConfig,
        stream: Option<Arc<AnnotationStream>>,
        family: usize,
        view: usize,
    ) -> Self {
        let mut lat_lut = [1u32; 12];
        for kind in OpKind::ALL {
            if !kind.is_load() && !kind.is_store() {
                lat_lut[kind.code() as usize] = cfg.op_latency(kind) as u32;
            }
        }
        let source = match stream {
            None => MissSource::Live(Box::new(cfg.hierarchy())),
            Some(stream) => {
                let lat = LatencyConfig {
                    l1: cfg.int_load_latency,
                    l2: cfg.l2_latency,
                    memory: cfg.memory_latency,
                };
                // An armed `factored-annotation-skew` fault starts the
                // cursor one annotation in — the off-by-one the sweep
                // self-check must catch.
                let pos = bioperf_trace::inject::active(bioperf_trace::inject::ANN_SKEW) as usize;
                let l1 = lat.total(false, false);
                MissSource::Annotated {
                    stream,
                    pos,
                    lat: [l1, lat.total(true, false), lat.total(true, true), l1],
                }
            }
        };
        Self {
            core: TimingCore::new(cfg),
            source,
            lat_lut,
            fp_load_extra: cfg.fp_load_latency.saturating_sub(cfg.int_load_latency),
            spill_forward_extra: cfg.spill_forward_extra,
            family,
            view,
            lat: Vec::new(),
            spill_lat: Vec::new(),
        }
    }

    /// The live hierarchy (None for an annotated lane).
    pub(crate) fn hierarchy_mut(&mut self) -> Option<&mut Hierarchy> {
        match &mut self.source {
            MissSource::Live(h) => Some(h),
            MissSource::Annotated { .. } => None,
        }
    }

    /// Rebuilds the live hierarchy (a no-op on an annotated lane).
    pub(crate) fn map_hierarchy(mut self, f: impl FnOnce(Hierarchy) -> Hierarchy) -> Self {
        self.source = match self.source {
            MissSource::Live(h) => MissSource::Live(Box::new(f(*h))),
            annotated => annotated,
        };
        self
    }

    /// Annotations consumed so far (None for a live lane).
    pub(crate) fn annotations_consumed(&self) -> Option<usize> {
        match &self.source {
            MissSource::Live(_) => None,
            MissSource::Annotated { pos, .. } => Some(*pos),
        }
    }

    /// Demand statistics of the live hierarchy; zeroed on an annotated
    /// lane, whose cache pass owns them.
    pub(crate) fn cache_stats(&self) -> HierarchyStats {
        match &self.source {
            MissSource::Live(h) => *h.stats(),
            MissSource::Annotated { .. } => HierarchyStats::default(),
        }
    }

    /// Total simulated cycles so far.
    pub(crate) fn cycles(&self) -> u64 {
        self.core.max_completion.max(self.core.fetch_cycle)
    }

    /// Fills the chunk's latencies from the plan, presenting its view's
    /// merged access stream to this lane's source, then schedules the
    /// chunk.
    fn run<O: Observe>(
        &mut self,
        codes: &[u8],
        plan: &RegPlan,
        family: &Family,
        ops: &[MicroOp],
        obs: &mut O,
    ) {
        let view = &plan.views[self.view];
        self.lat.clear();
        self.lat.extend(codes.iter().map(|&c| self.lat_lut[c as usize]));
        self.spill_lat.clear();
        let (lat, spill_lat) = (&mut self.lat, &mut self.spill_lat);
        let (fp_extra, forward_extra) = (self.fp_load_extra, self.spill_forward_extra);
        match &mut self.source {
            MissSource::Live(h) => {
                apply_accesses(view, lat, spill_lat, fp_extra, forward_extra, |addr, store| {
                    h.access(addr, if store { AccessKind::Store } else { AccessKind::Load })
                })
            }
            MissSource::Annotated { stream, pos, lat: level_lat } => {
                apply_accesses(view, lat, spill_lat, fp_extra, forward_extra, |_, _| {
                    let code = stream.code(*pos);
                    *pos += 1;
                    level_lat[code as usize]
                })
            }
        }
        // Branches (and branch-realized selects) resolve in one cycle.
        for &(ci, _, _) in &plan.streams[family.stream].branches {
            self.lat[ci as usize] = 1;
        }
        let (flags, lat, spill, redirects) =
            (&view.flags, &self.lat, &self.spill_lat, &family.redirects);
        if self.core.in_order {
            self.core.run_chunk::<true, O>(plan, flags, lat, spill, redirects, ops, obs);
        } else {
            self.core.run_chunk::<false, O>(plan, flags, lat, spill, redirects, ops, obs);
        }
    }
}

/// Presents a view's merged access stream to one source (`access(addr,
/// is_store)` returns the access latency) and scatters the latencies
/// into the chunk plan.
#[inline(always)]
fn apply_accesses(
    view: &SpillView,
    lat: &mut [u32],
    spill_lat: &mut Vec<u32>,
    fp_load_extra: u64,
    spill_forward_extra: u64,
    mut access: impl FnMut(u64, bool) -> u64,
) {
    for (&ev, &addr) in view.acc.iter().zip(&view.acc_addr) {
        let ci = (ev >> ACC_TAG_BITS) as usize;
        let tag = ev & ACC_TAG_MASK;
        let l = access(addr, tag == ACC_STORE);
        match tag {
            ACC_INT_LOAD => lat[ci] = l as u32,
            ACC_FP_LOAD => lat[ci] = (l + fp_load_extra) as u32,
            ACC_SPILL_LOAD => spill_lat.push(l as u32),
            ACC_SPILL_FORWARD => spill_lat.push((l + spill_forward_extra) as u32),
            _ => {}
        }
    }
}

/// A shared front — one [`RegPlan`] with a view per register capacity
/// and a branch stream per if-conversion mode, and one predictor
/// [`Family`] per (stream, kind) — driving a set of lanes, of any
/// platform mix, over the same trace.
#[derive(Debug, Clone)]
pub(crate) struct Engine {
    plan: RegPlan,
    pub(crate) families: Vec<Family>,
    pub(crate) lanes: Vec<Lane>,
    instructions: u64,
}

impl Engine {
    /// An engine without lanes whose plan covers every register-file
    /// capacity in `capacities`.
    pub(crate) fn new(capacities: &[usize]) -> Self {
        Self { plan: RegPlan::new(capacities), families: Vec::new(), lanes: Vec::new(), instructions: 0 }
    }

    /// Adds a lane for `cfg` — over a live copy of its hierarchy, or over
    /// `stream` when given — sharing the view of its register capacity,
    /// the branch stream of its if-conversion mode and the predictor
    /// family of (that stream, `pred`) with every lane already there.
    ///
    /// # Panics
    ///
    /// After replay has started, or if the plan does not cover `cfg`'s
    /// register capacity.
    pub(crate) fn push_lane(
        &mut self,
        cfg: &PlatformConfig,
        stream: Option<Arc<AnnotationStream>>,
        pred: PredictorKind,
    ) {
        assert_eq!(self.instructions, 0, "lanes join before replay starts");
        let view = self.plan.view_of(RegFile::capacity_for(cfg.logical_regs));
        let branches = self.plan.stream_of(cfg.if_conversion);
        let families = &mut self.families;
        let family =
            families.iter().position(|f| f.stream == branches && f.kind == pred).unwrap_or_else(|| {
                families.push(Family::new(branches, pred));
                families.len() - 1
            });
        self.lanes.push(Lane::new(cfg, stream, family, view));
    }

    /// Lane `i`'s result so far: its own cycles and cache statistics, and
    /// the branch, mispredict and spill counts of the stream, family and
    /// view it reads.
    pub(crate) fn result(&self, i: usize) -> SimResult {
        let lane = &self.lanes[i];
        let family = &self.families[lane.family];
        let view = &self.plan.views[lane.view];
        SimResult {
            cycles: lane.cycles(),
            instructions: self.instructions,
            branches: self.plan.streams[family.stream].count,
            mispredicts: family.mispredicts,
            spill_stores: view.spill_stores,
            spill_reloads: view.spill_reloads,
            cache: lane.cache_stats(),
        }
    }

    /// Replays one decoded block through every lane, lane `i` reporting
    /// to `obs.lane(i)`.
    pub(crate) fn run_block<S: Observers + ?Sized>(&mut self, block: &OpBlock, obs: &mut S) {
        let n = block.len();
        let mut cur = ColCursors::default();
        let mut lo = 0;
        while lo < n {
            let hi = (lo + PHASE_CHUNK).min(n);
            self.instructions += (hi - lo) as u64;
            self.plan.plan_regs(block, lo, hi, &mut cur.ev);
            self.plan.clear_accesses();
            self.plan.merge_accesses(block, lo, hi, &mut cur.mem);
            self.plan.merge_branches(block, lo, hi, &mut cur);
            for family in &mut self.families {
                family.observe(&self.plan.streams[family.stream].branches);
            }
            let codes = &block.kind_codes()[lo..hi];
            let ops = &block.ops()[lo..hi];
            for (i, lane) in self.lanes.iter_mut().enumerate() {
                lane.run(codes, &self.plan, &self.families[lane.family], ops, obs.lane(i));
            }
            lo = hi;
        }
    }
}
