//! Layer-timing helper of the repository benchmark (see `README.md`).
//!
//! `run.py` times each workload end to end by running the release CLI as
//! a child process. This binary measures what the CLI does not show, by
//! calling each layer's public functions directly:
//!
//! * `setup`: the workload's recording wave (every trace it replays),
//!   timed on its own, repeated for at least [`SETUP_MIN_SECS`], and the
//!   micro-ops one run of the workload delivers to models;
//! * `layers`: the traced pass, which drives each layer alone over the
//!   workload's own recordings and cross-checks the results against the
//!   production paths (`--rows` names the sweep run's checkpoint);
//! * `calib`: a fixed integer loop, timed between reps so that a set of
//!   runs taken on a noisy host can be spotted.
//!
//! Each command prints one JSON object on one line. All times are host
//! time; the simulated statistics are exact and only describe the model.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use bioperf_branch::{DynPredictor, PredictorKind};
use bioperf_cache::{AnnotationStream, Hierarchy};
use bioperf_core::characterize::Characterizer;
use bioperf_core::evaluate::EvalMatrix;
use bioperf_core::orchestrate::{run_jobs, run_suite, SuiteConfig};
use bioperf_core::sweep::{run_sweep, ResolvedCell, SweepConfig, SweepGrid, SweepResult};
use bioperf_isa::{MicroOp, Program};
use bioperf_kernels::{registry, ProgramId, Scale, Variant};
use bioperf_pipe::{CachePassSim, CycleSim, PlatformConfig, RegFile, TimingBank};
use bioperf_trace::replay::DEFAULT_CAPACITY;
use bioperf_trace::{
    segment_recording, NullTracer, OpBlock, Recorder, Recording, SegmentedRecording, SpillRecorder,
    Tape, TraceConsumer, DEFAULT_SEGMENT_OPS, REG_EVENT_DST,
};

/// Worker threads, as the CLI is run (`--jobs 2`).
const JOBS: usize = 2;

/// Lanes per timing bank and geometries per cache pass, as in the sweep.
const BANK: usize = 8;

/// The programs the sweep workload runs (`sweep --programs`): `clustalw`,
/// one of the three HMM kernels, and the two short traces. Leaving out
/// `hmmpfam` and `hmmcalibrate`, which run the same HMM code as
/// `hmmsearch`, halves a rep, so a run's median has twice the reps.
const SWEEP_PROGRAMS: [ProgramId; 4] = [
    ProgramId::Clustalw,
    ProgramId::Hmmsearch,
    ProgramId::Predator,
    ProgramId::Dnapenny,
];

/// Reps of the kernel-execution timings, which several metrics take
/// differences of.
const KERNEL_REPS: usize = 3;

/// `setup` repeats the recording wave until this many seconds have passed.
const SETUP_MIN_SECS: f64 = 0.5;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    SuiteSmall,
    SweepStandard,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "suite-small" => Some(Self::SuiteSmall),
            "sweep-standard" => Some(Self::SweepStandard),
            _ => None,
        }
    }

    /// The CLI's scale for the workload: the suite runs at `small`, the
    /// sweep at its default `test` scale.
    fn scale(self) -> Scale {
        match self {
            Self::SweepStandard => Scale::Test,
            Self::SuiteSmall => Scale::Small,
        }
    }

    fn is_sweep(self) -> bool {
        self == Self::SweepStandard
    }

    /// Reps of each replay timing in the traced pass: two on the sweep,
    /// whose test-scale traces are short, one on the suite, which keeps
    /// the pass within a run.
    fn reps(self) -> usize {
        if self.is_sweep() {
            2
        } else {
            1
        }
    }

    /// The transformed programs whose traces the workload replays.
    fn programs(self) -> Vec<ProgramId> {
        match self {
            Self::SweepStandard => SWEEP_PROGRAMS.to_vec(),
            Self::SuiteSmall => ProgramId::TRANSFORMED.to_vec(),
        }
    }

    /// Programs whose two traces the traced pass drives every layer over:
    /// all of the sweep's (its test-scale traces are short); for the suite
    /// `dnapenny`, the smallest program and the only one without an
    /// Itanium cell, and `hmmsearch`, the smallest of the three HMM
    /// kernels, which keeps the pass within a run.
    fn sample(self) -> Vec<ProgramId> {
        match self {
            Self::SweepStandard => SWEEP_PROGRAMS.to_vec(),
            Self::SuiteSmall => vec![ProgramId::Dnapenny, ProgramId::Hmmsearch],
        }
    }
}

struct Args {
    cmd: String,
    workload: Workload,
    seed: u64,
    dir: PathBuf,
    rows: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    let cmd = it
        .next()
        .ok_or("missing command (setup, layers or calib)")?
        .clone();
    if !matches!(cmd.as_str(), "setup" | "layers" | "calib") {
        return Err(format!("unknown command '{cmd}'"));
    }
    let mut args = Args {
        cmd,
        workload: Workload::SuiteSmall,
        seed: 42,
        dir: PathBuf::from(".bench_work/helper"),
        rows: None,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?;
            }
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed: malformed value '{value}'"))?;
            }
            "--dir" => args.dir = PathBuf::from(value),
            "--rows" => args.rows = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Discards every op: the consumer behind the bare-tape and decode timings.
struct Discard;

impl TraceConsumer for Discard {
    fn consume(&mut self, op: &MicroOp, _program: &Program) {
        black_box(op);
    }
    fn consume_block(&mut self, block: &OpBlock, _program: &Program) {
        black_box(block.len());
    }
}

/// The per-op streams one layer at a time is driven over, copied out of
/// the decoded blocks once so that no decode cost enters a layer timing.
#[derive(Default)]
struct Columns {
    mem_addrs: Vec<u64>,
    mem_loads: Vec<bool>,
    branch_sids: Vec<bioperf_isa::StaticId>,
    branch_taken: Vec<bool>,
    reg_meta: Vec<u32>,
    reg_vreg: Vec<u64>,
}

impl TraceConsumer for Columns {
    fn consume(&mut self, _op: &MicroOp, _program: &Program) {
        unreachable!("replay_bank delivers blocks")
    }
    fn consume_block(&mut self, block: &OpBlock, _program: &Program) {
        self.mem_addrs.extend_from_slice(block.mem_addrs());
        self.mem_loads.extend_from_slice(block.mem_loads());
        self.branch_sids.extend_from_slice(block.branch_sids());
        self.branch_taken.extend_from_slice(block.branch_taken());
        self.reg_meta.extend_from_slice(block.reg_event_meta());
        self.reg_vreg.extend_from_slice(block.reg_event_vreg());
    }
}

/// Every (program, variant) trace a workload replays: both variants of
/// each of its programs, in the CLI's enumeration order.
fn traced_pairs(workload: Workload) -> Vec<(ProgramId, Variant)> {
    workload
        .programs()
        .into_iter()
        .flat_map(|p| Variant::ALL.into_iter().map(move |v| (p, v)))
        .collect()
}

fn trace_name(program: ProgramId, variant: Variant) -> String {
    format!("{}-{}", program.name(), variant.label())
}

/// The Table 8 platforms replayed for `program`, as in the suite.
fn platforms_for(program: ProgramId) -> Vec<PlatformConfig> {
    PlatformConfig::all()
        .into_iter()
        .filter(|p| EvalMatrix::cell_applicable(program, p.name))
        .collect()
}

/// `"Alpha 21264"` → `"alpha-21264"`.
fn slug(name: &str) -> String {
    name.to_lowercase().replace(' ', "-")
}

fn record(program: ProgramId, variant: Variant, scale: Scale, seed: u64) -> Recording {
    let mut tape = Tape::new(Recorder::with_capacity(DEFAULT_CAPACITY));
    registry::run(&mut tape, program, variant, scale, seed);
    let (static_program, rec) = tape.finish();
    assert!(
        !rec.overflowed(),
        "{program} overflowed the default trace capacity"
    );
    rec.into_recording(static_program)
}

fn record_spilled(
    program: ProgramId,
    variant: Variant,
    scale: Scale,
    seed: u64,
    dir: &Path,
) -> SegmentedRecording {
    let recorder = SpillRecorder::to_dir(
        dir.join(trace_name(program, variant)),
        DEFAULT_SEGMENT_OPS,
        DEFAULT_CAPACITY,
    )
    .expect("segment directory is writable");
    let mut tape = Tape::new(recorder);
    registry::run(&mut tape, program, variant, scale, seed);
    let (static_program, rec) = tape.finish();
    assert!(
        !rec.overflowed(),
        "{program} overflowed the default trace capacity"
    );
    rec.into_segmented(static_program)
        .expect("segments are written")
}

fn clear_dir(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("work directory is removable");
    }
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Runs `pass` `reps` times; each call returns one time per item, and
/// the result is each item's median over the reps.
fn per_item_median(reps: usize, mut pass: impl FnMut() -> Vec<f64>) -> Vec<f64> {
    let runs: Vec<Vec<f64>> = (0..reps).map(|_| pass()).collect();
    (0..runs[0].len())
        .map(|i| median(runs.iter().map(|r| r[i]).collect()))
        .collect()
}

/// One timed recording wave: every trace the workload replays, recorded
/// in memory on [`JOBS`] workers. Returns the wave's seconds and each
/// trace's op count.
fn setup_wave(a: &Args) -> (f64, Vec<u64>) {
    let (scale, seed) = (a.workload.scale(), a.seed);
    let jobs: Vec<_> = traced_pairs(a.workload)
        .into_iter()
        .map(|(p, v)| move || record(p, v, scale, seed))
        .collect();
    let start = Instant::now();
    let traces = run_jobs(jobs, JOBS);
    let elapsed = secs(start);
    (elapsed, traces.iter().map(|t| t.len() as u64).collect())
}

fn cmd_setup(a: &Args) -> String {
    let start = Instant::now();
    let (first, lens) = setup_wave(a);
    let mut samples = vec![first];
    while secs(start) < SETUP_MIN_SECS {
        samples.push(setup_wave(a).0);
    }
    let samples: Vec<String> = samples.iter().map(|s| format!("{s}")).collect();
    format!(
        "{{\"setup_s\": [{}], \"model_ops\": {}}}",
        samples.join(", "),
        model_ops(a, &lens)
    )
}

/// Micro-ops the kernel of `program` emits.
fn ops_of(program: ProgramId, variant: Variant, scale: Scale, seed: u64) -> u64 {
    let mut tape = Tape::new(Discard);
    registry::run(&mut tape, program, variant, scale, seed);
    tape.ops_emitted()
}

/// Ops delivered to models in one run of the workload, from the lengths
/// of its traces in [`traced_pairs`] order: each recorded op once per
/// platform model replaying it plus once for the characterizer (suite),
/// or once per valid grid cell (sweep; both variants).
fn model_ops(a: &Args, lens: &[u64]) -> u64 {
    if a.workload.is_sweep() {
        let grid = SweepGrid::standard();
        let valid = (0..grid.cells())
            .filter(|&c| grid.spec(c).resolve().is_ok())
            .count();
        return lens.iter().sum::<u64>() * valid as u64;
    }
    let mut total = 0u64;
    for ((p, v), &n) in traced_pairs(a.workload).into_iter().zip(lens) {
        total += n * platforms_for(p).len() as u64;
        if v == Variant::Original {
            total += n;
        }
    }
    // The characterizer also consumes the three untransformed programs.
    for p in ProgramId::ALL.into_iter().filter(|p| !p.is_transformable()) {
        total += ops_of(p, Variant::Original, a.workload.scale(), a.seed);
    }
    total
}

/// A fixed integer loop; its time moves only with the host.
fn cmd_calib() -> String {
    let mut times = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
        for i in 0..10_000_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x = x.wrapping_add(i);
        }
        black_box(x);
        times.push(secs(start) * 1e3);
    }
    format!("{{\"calib_ms\": {}}}", median(times))
}

/// The sweep's distinct cache-axis configurations (geometry, line,
/// prefetcher) in first-seen grid order, each with a representative cell.
fn cache_axis_keys(grid: &SweepGrid) -> Vec<(usize, ResolvedCell)> {
    let mut seen = Vec::new();
    let mut out = Vec::new();
    for c in 0..grid.cells() {
        let s = grid.spec(c);
        let key = (s.l1, s.l2, s.line, s.prefetch);
        if !seen.contains(&key) {
            if let Ok(rc) = s.resolve() {
                seen.push(key);
                out.push((c, rc));
            }
        }
    }
    out
}

fn hierarchy_of(rc: &ResolvedCell) -> Hierarchy {
    Hierarchy::new(rc.platform.l1, rc.platform.l2, rc.lat).with_prefetcher(rc.prefetch)
}

struct Report {
    metrics: Vec<(String, f64)>,
    checks: Vec<(String, Result<(), String>)>,
    /// Exact solo `CycleSim` cycles, keyed `<trace>/<platform>` (suites).
    cycles: Vec<(String, u64)>,
}

impl Report {
    fn put(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    fn check(&mut self, name: &str, failures: Vec<String>) {
        let result = if failures.is_empty() {
            Ok(())
        } else {
            Err(failures.join("; "))
        };
        self.checks.push((name.to_string(), result));
    }

    fn to_json(&self, sample: &[String]) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v)| {
                format!(
                    "\"{n}\": {}",
                    if v.is_finite() {
                        format!("{v}")
                    } else {
                        "null".into()
                    }
                )
            })
            .collect();
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|(n, r)| match r {
                Ok(()) => format!("\"{n}\": \"ok\""),
                Err(e) => format!("\"{n}\": {:?}", e),
            })
            .collect();
        let cycles: Vec<String> = self
            .cycles
            .iter()
            .map(|(n, c)| format!("\"{n}\": {c}"))
            .collect();
        let sample: Vec<String> = sample.iter().map(|s| format!("{s:?}")).collect();
        format!(
            "{{\"metrics\": {{{}}}, \"checks\": {{{}}}, \"cycles\": {{{}}}, \"sample\": [{}]}}",
            metrics.join(", "),
            checks.join(", "),
            cycles.join(", "),
            sample.join(", ")
        )
    }
}

/// Nanoseconds per unit: `secs` seconds over `n` units.
fn ns(secs: f64, n: f64) -> f64 {
    secs * 1e9 / n
}

fn sum(v: &[f64]) -> f64 {
    v.iter().sum()
}

/// One sampled trace of the traced pass.
struct Trace {
    program: ProgramId,
    variant: Variant,
    rec: Recording,
    /// The Table 8 platforms that replay it.
    plats: Vec<PlatformConfig>,
}

impl Trace {
    fn name(&self) -> String {
        trace_name(self.program, self.variant)
    }

    fn ops(&self) -> f64 {
        self.rec.len() as f64
    }
}

/// The traced pass over the workload's own recordings (those of
/// [`Workload::sample`]): each layer driven alone, plus the production
/// cross-checks.
struct Pass<'a> {
    args: &'a Args,
    traces: Vec<Trace>,
    report: Report,
}

/// What the replay timings hand on to later steps.
struct Replay {
    /// Decode seconds per trace.
    decode: Vec<f64>,
    /// Solo `CycleSim` seconds, summed over traces and platforms.
    solo_total: f64,
    /// Solo `CycleSim` cycles per trace, one per platform in `plats` order.
    solo_cycles: Vec<Vec<u64>>,
    /// Production bank seconds, summed over traces.
    bank_total: f64,
}

impl Pass<'_> {
    fn total_ops(&self) -> f64 {
        self.traces.iter().map(Trace::ops).sum()
    }

    /// Ops times the platforms replaying them.
    fn platform_ops(&self) -> f64 {
        self.traces
            .iter()
            .map(|t| t.ops() * t.plats.len() as f64)
            .sum()
    }

    fn originals(&self) -> impl Iterator<Item = &Trace> {
        self.traces
            .iter()
            .filter(|t| t.variant == Variant::Original)
    }

    fn spill_dir(&self) -> PathBuf {
        self.args.dir.join("segments")
    }

    /// Kernel execution: bare, under the tape, recording, spilling and,
    /// for originals, recording fused with the characterizer. The variants
    /// of one trace run back to back, so the differences taken here see the
    /// same host conditions; [`KERNEL_REPS`] reps steady them further.
    fn kernel_layers(&mut self) {
        let (scale, seed) = (self.args.workload.scale(), self.args.seed);
        let spill_dir = self.spill_dir();
        let timed = |f: &mut dyn FnMut()| {
            let start = Instant::now();
            f();
            secs(start)
        };
        let kernels = per_item_median(KERNEL_REPS, || {
            clear_dir(&spill_dir);
            let mut out = Vec::new();
            for t in &self.traces {
                let (p, v) = (t.program, t.variant);
                out.push(timed(&mut || {
                    black_box(registry::run(&mut NullTracer::new(), p, v, scale, seed));
                }));
                out.push(timed(&mut || {
                    let mut tape = Tape::new(Discard);
                    registry::run(&mut tape, p, v, scale, seed);
                    black_box(tape.finish());
                }));
                let mut rec = None;
                out.push(timed(&mut || rec = Some(record(p, v, scale, seed))));
                drop(rec);
                let mut seg = None;
                out.push(timed(&mut || {
                    seg = Some(record_spilled(p, v, scale, seed, &spill_dir))
                }));
                drop(seg);
                let mut fused = None;
                out.push(if v == Variant::Original {
                    timed(&mut || {
                        let mut tape = Tape::new((
                            Characterizer::new(),
                            Recorder::with_capacity(DEFAULT_CAPACITY),
                        ));
                        registry::run(&mut tape, p, v, scale, seed);
                        let (program, (ch, rec)) = tape.finish();
                        let rec = rec.into_recording(program.clone());
                        fused = Some((ch.into_report(program, 10), rec));
                    })
                } else {
                    0.0
                });
                drop(fused);
            }
            out
        });
        let column = |k: usize| -> f64 { kernels.iter().skip(k).step_by(5).sum() };
        let (native, tape, recorded, spill, fused) =
            (column(0), column(1), column(2), column(3), column(4));
        let recorded_originals: f64 = kernels
            .chunks(5)
            .zip(&self.traces)
            .filter(|(_, t)| t.variant == Variant::Original)
            .map(|(k, _)| k[2])
            .sum();
        let (total, orig_ops) = (self.total_ops(), self.originals().map(Trace::ops).sum());
        let bytes: f64 = self
            .traces
            .iter()
            .map(|t| t.rec.payload_bytes() as f64)
            .sum();
        let r = &mut self.report;
        r.put("trace.native.ns_per_op", ns(native, total));
        r.put("trace.tape.ns_per_op", ns(tape, total));
        r.put("trace.record.ns_per_op", ns(recorded - tape, total));
        r.put("trace.record.bytes_per_op", bytes / total);
        r.put(
            "core.characterize.fused.ns_per_op",
            ns(fused - recorded_originals, orig_ops),
        );
        r.put("trace.segment.write.ns_per_op", ns(spill - tape, total));
    }

    /// Replay over the recordings: the characterizer, bare decode, solo
    /// `CycleSim` per platform and the production bank.
    fn replay_layers(&mut self) -> Replay {
        let reps = self.args.workload.reps();
        let solo_char = per_item_median(reps, || {
            self.originals()
                .map(|t| {
                    let start = Instant::now();
                    let mut ch = Characterizer::new();
                    t.rec.replay(&mut ch);
                    black_box(ch.into_report(t.rec.program().clone(), 10));
                    secs(start)
                })
                .collect()
        });
        let decode = per_item_median(reps, || {
            self.traces
                .iter()
                .map(|t| {
                    let start = Instant::now();
                    t.rec.replay_bank(std::slice::from_mut(&mut Discard));
                    secs(start)
                })
                .collect()
        });
        let mut solo_cycles = Vec::new();
        let mut by_platform = [(0.0f64, 0.0f64); 4];
        for t in &self.traces {
            let mut cycles = Vec::new();
            for p in &t.plats {
                let slot = PlatformConfig::all()
                    .iter()
                    .position(|q| q.name == p.name)
                    .expect("known platform");
                let mut times = Vec::new();
                let mut c = 0;
                for _ in 0..reps {
                    let mut sim = CycleSim::new(*p);
                    let start = Instant::now();
                    t.rec.replay(&mut sim);
                    times.push(secs(start));
                    c = sim.into_result().cycles;
                }
                by_platform[slot].0 += median(times);
                by_platform[slot].1 += t.ops();
                cycles.push(c);
            }
            solo_cycles.push(cycles);
        }
        let bank = per_item_median(reps, || {
            self.traces
                .iter()
                .map(|t| {
                    let mut sims: Vec<CycleSim> =
                        t.plats.iter().map(|&p| CycleSim::new(p)).collect();
                    let start = Instant::now();
                    t.rec.replay_bank(&mut sims);
                    let e = secs(start);
                    black_box(sims);
                    e
                })
                .collect()
        });
        let solo_total: f64 = by_platform.iter().map(|(t, _)| t).sum();
        let (total, orig_ops) = (self.total_ops(), self.originals().map(Trace::ops).sum());
        let platform_ops = self.platform_ops();
        let r = &mut self.report;
        r.put(
            "core.characterize.solo.ns_per_op",
            ns(sum(&solo_char), orig_ops),
        );
        r.put("trace.decode.ns_per_op", ns(sum(&decode), total));
        for (p, (t, n)) in PlatformConfig::all().iter().zip(by_platform) {
            r.put(
                &format!("pipe.cyclesim.{}.ns_per_op", slug(p.name)),
                ns(t, n),
            );
        }
        r.put("pipe.bank.ns_per_platform_op", ns(sum(&bank), platform_ops));
        r.put("pipe.bank.sharing_gain", solo_total / sum(&bank));
        Replay {
            decode,
            solo_total,
            solo_cycles,
            bank_total: sum(&bank),
        }
    }

    /// `CycleSim`'s components driven alone over streams copied out of the
    /// decoded blocks, and what remains of solo `CycleSim` without them.
    fn component_layers(&mut self, replay: &Replay) {
        let reps = self.args.workload.reps();
        let columns: Vec<Columns> = self
            .traces
            .iter()
            .map(|t| {
                let mut c = Columns::default();
                t.rec.replay_bank(std::slice::from_mut(&mut c));
                c
            })
            .collect();
        let per_platform = |count: &dyn Fn(&Columns) -> usize| -> f64 {
            columns
                .iter()
                .zip(&self.traces)
                .map(|(c, t)| (count(c) * t.plats.len()) as f64)
                .sum()
        };
        let accesses = per_platform(&|c| c.mem_addrs.len());
        let branch_platform = per_platform(&|c| c.branch_sids.len());
        let rep_median =
            |pass: &mut dyn FnMut() -> f64| median((0..reps).map(|_| pass()).collect());
        let hier = rep_median(&mut || {
            let mut total = 0.0;
            for (c, t) in columns.iter().zip(&self.traces) {
                for p in &t.plats {
                    let mut h = p.hierarchy();
                    let start = Instant::now();
                    h.access_block(&c.mem_addrs, &c.mem_loads);
                    total += secs(start);
                    black_box(h.stats());
                }
            }
            total
        });
        let regfile = rep_median(&mut || {
            let mut total = 0.0;
            for (c, t) in columns.iter().zip(&self.traces) {
                for p in &t.plats {
                    let mut rf = RegFile::new(p.logical_regs);
                    let start = Instant::now();
                    for (&meta, &v) in c.reg_meta.iter().zip(&c.reg_vreg) {
                        if meta & REG_EVENT_DST != 0 || !rf.touch(v) {
                            rf.insert(v);
                        }
                    }
                    total += secs(start);
                    black_box(rf.len());
                }
            }
            total
        });
        let branches: f64 = columns.iter().map(|c| c.branch_sids.len() as f64).sum();
        let mut hybrid_per_branch = 0.0;
        for kind in PredictorKind::ALL {
            let mut wrong = 0u64;
            let t = rep_median(&mut || {
                wrong = 0;
                let mut total = 0.0;
                for c in &columns {
                    let mut pred = DynPredictor::new(kind);
                    let start = Instant::now();
                    for (&sid, &taken) in c.branch_sids.iter().zip(&c.branch_taken) {
                        wrong += u64::from(!pred.observe(sid, taken));
                    }
                    total += secs(start);
                }
                total
            });
            if kind == PredictorKind::Hybrid {
                hybrid_per_branch = t / branches;
            }
            let r = &mut self.report;
            r.put(
                &format!("branch.{}.ns_per_branch", kind.name()),
                ns(t, branches),
            );
            r.put(
                &format!("branch.{}.mispredict_ratio", kind.name()),
                wrong as f64 / branches,
            );
        }
        // What solo CycleSim spends beyond decode, hierarchy, register file
        // and its default (hybrid) predictor: the serial timing core.
        let decode: f64 = replay
            .decode
            .iter()
            .zip(&self.traces)
            .map(|(d, t)| d * t.plats.len() as f64)
            .sum();
        let parts = decode + hier + regfile + hybrid_per_branch * branch_platform;
        let platform_ops = self.platform_ops();
        let r = &mut self.report;
        r.put("cache.hierarchy.ns_per_access", ns(hier, accesses));
        r.put("pipe.regfile.ns_per_op", ns(regfile, platform_ops));
        r.put(
            "pipe.timing_core.self_ns_per_op",
            ns(replay.solo_total - parts, platform_ops),
        );
    }

    /// The sweep's cache pass and timing bank over the same recordings.
    /// Returns each trace's 8 lane cycles, for grid cells `0..8`.
    fn sweep_layers(&mut self) -> Vec<Vec<u64>> {
        let reps = self.args.workload.reps();
        let grid = SweepGrid::standard();
        let keys = cache_axis_keys(&grid);
        let mut distinct = 0usize;
        let mut pass_time = 0.0;
        let mut first_streams: Vec<Vec<Arc<AnnotationStream>>> = Vec::new();
        for t in &self.traces {
            let mut content = Vec::new();
            for (chunk_no, chunk) in keys.chunks(BANK).enumerate() {
                let logical = chunk[0].1.platform.logical_regs;
                let mut times = Vec::new();
                let mut out = Vec::new();
                for _ in 0..if chunk_no == 0 { reps } else { 1 } {
                    let hs = chunk.iter().map(|(_, rc)| hierarchy_of(rc)).collect();
                    let mut pass = CachePassSim::new(logical, hs);
                    let start = Instant::now();
                    t.rec.replay_bank(std::slice::from_mut(&mut pass));
                    times.push(secs(start));
                    out = pass.finish_bank();
                }
                content.extend(out.iter().map(|(_, s)| s.content_key()));
                if chunk_no == 0 {
                    pass_time += median(times);
                    first_streams.push(out.into_iter().map(|(_, s)| Arc::new(s)).collect());
                }
            }
            content.sort_unstable();
            content.dedup();
            distinct += content.len();
        }

        // Timing bank over grid cells 0..8, each lane fed the stream of
        // its cell's cache-axis key (all in the first cache-pass chunk).
        let lanes: Vec<(ResolvedCell, usize)> = (0..BANK)
            .map(|c| {
                let s = grid.spec(c);
                let k = keys
                    .iter()
                    .position(|(kc, _)| {
                        let ks = grid.spec(*kc);
                        (ks.l1, ks.l2, ks.line, ks.prefetch) == (s.l1, s.l2, s.line, s.prefetch)
                    })
                    .expect("every cell has a cache-axis key");
                assert!(k < BANK, "cells 0..8 share the first cache-pass chunk");
                (s.resolve().expect("standard grid cells are valid"), k)
            })
            .collect();
        let base = lanes[0].0.platform;
        let bank_of = |streams: &[Arc<AnnotationStream>], lanes: &[(ResolvedCell, usize)]| {
            let mut bank = TimingBank::new(base.logical_regs, base.if_conversion);
            for (rc, k) in lanes {
                bank.push_lane(&rc.platform, rc.pred, Arc::clone(&streams[*k]));
            }
            bank
        };
        let mut lane_cycles = Vec::new();
        let (mut bank8, mut bank1) = (0.0, 0.0);
        for (t, streams) in self.traces.iter().zip(&first_streams) {
            let (mut times8, mut times1) = (Vec::new(), Vec::new());
            let mut cycles = Vec::new();
            for _ in 0..reps {
                let mut bank = bank_of(streams, &lanes);
                let start = Instant::now();
                t.rec.replay_bank(std::slice::from_mut(&mut bank));
                times8.push(secs(start));
                cycles = bank.into_results().iter().map(|s| s.cycles).collect();
                let mut single = 0.0;
                for lane in lanes.chunks(1) {
                    let mut bank = bank_of(streams, lane);
                    let start = Instant::now();
                    t.rec.replay_bank(std::slice::from_mut(&mut bank));
                    single += secs(start);
                    black_box(bank.into_results());
                }
                times1.push(single);
            }
            lane_cycles.push(cycles);
            bank8 += median(times8);
            bank1 += median(times1);
        }
        let total = self.total_ops();
        let r = &mut self.report;
        r.put("pipe.cache_pass.ns_per_op", ns(pass_time, total));
        r.put(
            "pipe.cache_pass.distinct_stream_ratio",
            distinct as f64 / (keys.len() * self.traces.len()) as f64,
        );
        r.put(
            "pipe.timing_bank.ns_per_lane_op",
            ns(bank8, total * BANK as f64),
        );
        r.put("pipe.timing_bank.sharing_gain", bank1 / bank8);
        lane_cycles
    }

    /// Streamed replay: the production bank fed from segment files.
    fn segment_layers(&mut self, bank_total: f64) {
        let spill_dir = self.spill_dir();
        clear_dir(&spill_dir);
        let segs: Vec<SegmentedRecording> = self
            .traces
            .iter()
            .map(|t| {
                segment_recording(&t.rec, spill_dir.join(t.name()), DEFAULT_SEGMENT_OPS)
                    .expect("segments are written")
            })
            .collect();
        let stream = per_item_median(self.args.workload.reps(), || {
            segs.iter()
                .zip(&self.traces)
                .map(|(seg, t)| {
                    let mut sims: Vec<CycleSim> =
                        t.plats.iter().map(|&p| CycleSim::new(p)).collect();
                    let start = Instant::now();
                    seg.replay_bank(&mut sims).expect("segments stream back");
                    let e = secs(start);
                    black_box(sims);
                    e
                })
                .collect()
        });
        let platform_ops = self.platform_ops();
        let r = &mut self.report;
        r.put(
            "trace.segment.stream.ns_per_platform_op",
            ns(sum(&stream), platform_ops),
        );
        r.put("trace.segment.stream_overhead", sum(&stream) / bank_total);
    }

    /// Simulated characterization statistics of the sampled originals.
    fn simulated_stats(&mut self) {
        let (mut miss, mut amat) = (Vec::new(), Vec::new());
        for t in self.originals() {
            let mut ch = Characterizer::new();
            t.rec.replay(&mut ch);
            let rep = ch.into_report(t.rec.program().clone(), 10);
            miss.push(rep.cache.l1.load_miss_ratio());
            amat.push(rep.amat);
        }
        let n = miss.len() as f64;
        self.report.put("cache.l1.load_miss_ratio", sum(&miss) / n);
        self.report.put("sim.amat_cycles", sum(&amat) / n);
    }

    /// The CLI run's sweep, loaded from its checkpoint (`--rows`) through
    /// `run_sweep`, which replays nothing when every row is there.
    fn load_sweep(&self) -> Result<SweepResult, String> {
        let path = self
            .args
            .rows
            .as_ref()
            .ok_or("no --rows checkpoint given")?;
        if !path.is_file() {
            return Err(format!("{}: no such checkpoint", path.display()));
        }
        let result = run_sweep(&SweepConfig {
            scale: self.args.workload.scale(),
            seed: self.args.seed,
            jobs: JOBS,
            programs: SWEEP_PROGRAMS.to_vec(),
            grid: SweepGrid::standard(),
            checkpoint: Some(path.clone()),
            max_cells: 0,
            factor: true,
        })
        .map_err(|e| e.to_string())?;
        if result.computed != 0 {
            return Err(format!(
                "{}: {} rows missing from the checkpoint",
                path.display(),
                result.computed
            ));
        }
        Ok(result)
    }

    /// Sweep: the lanes of grid cells 0..8 must equal the CLI run's rows;
    /// rendering its report is the timed guard.
    fn check_sweep(&mut self, lane_cycles: &[Vec<u64>]) {
        let result = match self.load_sweep() {
            Ok(r) => r,
            Err(e) => {
                self.report.put("core.report.ms", f64::NAN);
                return self.report.check("timing_bank_vs_sweep", vec![e]);
            }
        };
        let mut failures = Vec::new();
        for (t, cycles) in self.traces.iter().zip(lane_cycles) {
            let pi = result
                .programs
                .iter()
                .position(|&q| q == t.program)
                .expect("transformed program");
            for (c, &got) in cycles.iter().enumerate() {
                let want = result.measures[pi][c].map(|m| match t.variant {
                    Variant::Original => m.cycles_original,
                    Variant::LoadTransformed => m.cycles_transformed,
                });
                if want != Some(got) {
                    failures.push(format!(
                        "{} cell {c}: bank {got} vs sweep {want:?}",
                        t.name()
                    ));
                }
            }
        }
        self.report.check("timing_bank_vs_sweep", failures);
        let start = Instant::now();
        black_box(result.deterministic_json().render_pretty());
        black_box(result.render_table());
        self.report.put("core.report.ms", secs(start) * 1e3);
    }

    /// Suites: solo `CycleSim` cycles must equal the Table 8 cells of a
    /// `run_suite` in this process; its report is the timed guard.
    fn check_suite(&mut self, solo_cycles: &[Vec<u64>]) {
        let suite = run_suite(SuiteConfig {
            scale: self.args.workload.scale(),
            seed: self.args.seed,
            jobs: JOBS,
            metrics: false,
            trace_cap: 0,
            spill: None,
        })
        .expect("the suite runs");
        let mut failures = Vec::new();
        for (t, cycles) in self.traces.iter().zip(solo_cycles) {
            for (plat, &got) in t.plats.iter().zip(cycles) {
                let key = format!("{}/{}", t.name(), slug(plat.name));
                self.report.cycles.push((key, got));
                let cell = suite
                    .eval
                    .cells
                    .iter()
                    .find(|c| c.program == t.program && c.platform == plat.name);
                let want = cell.map(|c| match t.variant {
                    Variant::Original => c.original.cycles,
                    Variant::LoadTransformed => c.transformed.cycles,
                });
                if want != Some(got) {
                    failures.push(format!(
                        "{} on {}: solo {got} vs suite {want:?}",
                        t.name(),
                        plat.name
                    ));
                }
            }
        }
        self.report.check("cyclesim_vs_table8", failures);
        let start = Instant::now();
        black_box(suite.to_json().render_pretty());
        self.report.put("core.report.ms", secs(start) * 1e3);
    }
}

fn cmd_layers(a: &Args) -> String {
    let (scale, seed) = (a.workload.scale(), a.seed);
    let mut report = Report {
        metrics: Vec::new(),
        checks: Vec::new(),
        cycles: Vec::new(),
    };
    // Record every trace the workload replays, then keep the sample.
    let jobs: Vec<_> = traced_pairs(a.workload)
        .into_iter()
        .map(|(p, v)| move || record(p, v, scale, seed))
        .collect();
    let all = run_jobs(jobs, JOBS);
    report.put("trace.ops", all.iter().map(|t| t.len() as f64).sum());
    let wanted = a.workload.sample();
    let traces = traced_pairs(a.workload)
        .into_iter()
        .zip(all)
        .filter(|((p, _), _)| wanted.contains(p))
        .map(|((program, variant), rec)| Trace {
            program,
            variant,
            rec,
            plats: platforms_for(program),
        })
        .collect();
    let mut pass = Pass {
        args: a,
        traces,
        report,
    };
    pass.kernel_layers();
    let replay = pass.replay_layers();
    pass.component_layers(&replay);
    let lane_cycles = pass.sweep_layers();
    pass.segment_layers(replay.bank_total);
    pass.simulated_stats();
    if a.workload.is_sweep() {
        pass.check_sweep(&lane_cycles);
    } else {
        pass.check_suite(&replay.solo_cycles);
    }
    clear_dir(&a.dir);
    let names: Vec<String> = pass.traces.iter().map(Trace::name).collect();
    pass.report.to_json(&names)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench <setup|layers|calib> [--workload <name>] [--seed <n>] \
                 [--dir <path>] [--rows <checkpoint>]"
            );
            return ExitCode::from(2);
        }
    };
    let out = match args.cmd.as_str() {
        "setup" => cmd_setup(&args),
        "layers" => cmd_layers(&args),
        _ => cmd_calib(),
    };
    println!("{out}");
    ExitCode::SUCCESS
}
