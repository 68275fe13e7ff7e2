//! Platform-behaviour tests for the timing models: each modeled
//! mechanism is exercised in isolation with a hand-built trace.

use bioperf_isa::{here, OpKind};
use bioperf_pipe::{CycleSim, PlatformConfig};
use bioperf_trace::{Tape, Tracer};

fn sim_with(cfg: PlatformConfig, f: impl FnOnce(&mut Tape<CycleSim>)) -> bioperf_pipe::SimResult {
    let mut tape = Tape::new(CycleSim::new(cfg));
    f(&mut tape);
    let (_, sim) = tape.finish();
    sim.into_result()
}

/// The ROB bounds how far the front end runs ahead: a trace of
/// long-latency loads must stall once the window fills.
#[test]
fn rob_limits_runahead() {
    let mem: Vec<u64> = vec![0; 1 << 18];
    let mut small = PlatformConfig::alpha21264();
    small.rob_size = 4;
    let mut large = PlatformConfig::alpha21264();
    large.rob_size = 512;
    let workload = |t: &mut Tape<CycleSim>| {
        // Independent misses striding a large array: big window = overlap.
        for i in 0..2000usize {
            t.int_load(here!("miss"), &mem[(i * 8) % mem.len()]);
        }
    };
    let r_small = sim_with(small, workload);
    let r_large = sim_with(large, workload);
    assert!(
        r_small.cycles > r_large.cycles * 2,
        "a 4-entry window must serialize misses: {} vs {}",
        r_small.cycles,
        r_large.cycles
    );
}

/// Fetch width bounds throughput for pure independent ALU work.
#[test]
fn fetch_width_bounds_ipc() {
    let workload = |t: &mut Tape<CycleSim>| {
        let a = t.lit();
        for _ in 0..10_000 {
            t.int_op(here!("alu"), &[a]);
        }
    };
    let mut narrow = PlatformConfig::alpha21264();
    narrow.fetch_width = 1;
    narrow.issue_width = 1;
    let r1 = sim_with(narrow, workload);
    let r4 = sim_with(PlatformConfig::alpha21264(), workload);
    assert!(r1.ipc() <= 1.0 + 1e-9);
    assert!(r4.ipc() > 3.0, "4-wide front end should stream ALU ops: {}", r4.ipc());
}

/// FP loads pay their extra latency on platforms where it differs.
#[test]
fn fp_loads_cost_more_than_int_loads() {
    let cell_i = 7u64;
    let cell_f = 7.0f64;
    // A single load-to-use: total cycles ≈ load latency + use latency.
    let int_chain = |t: &mut Tape<CycleSim>| {
        let v = t.int_load(here!("i"), &cell_i);
        let w = t.int_op(here!("i"), &[v]);
        t.int_op(here!("i"), &[w]);
    };
    let fp_chain = |t: &mut Tape<CycleSim>| {
        let v = t.fp_load(here!("f"), &cell_f);
        let w = t.int_op(here!("f"), &[v]);
        t.int_op(here!("f"), &[w]);
    };
    let mut p4 = PlatformConfig::pentium4(); // int L1 2, fp L1 6
    // Pre-warmed cache not available for a one-shot trace; use a large L1
    // miss-free proxy by keeping the latencies but removing the memory
    // levels from the picture: the first touch misses identically in both
    // runs, so the *difference* is exactly the fp extra.
    p4.l2_latency = 0;
    p4.memory_latency = 0;
    let ri = sim_with(p4, int_chain);
    let rf = sim_with(p4, fp_chain);
    assert_eq!(
        rf.cycles - ri.cycles,
        p4.fp_load_latency - p4.int_load_latency,
        "fp {} vs int {}",
        rf.cycles,
        ri.cycles
    );
}

/// Rematerialization: spilled values that came from loads cost less than
/// spilled computed values (no store traffic).
#[test]
fn load_values_rematerialize_without_stores() {
    let mem = vec![1u64; 64];
    let loads_only = |t: &mut Tape<CycleSim>| {
        for _ in 0..200 {
            // 16 live load results, reused after the register file (8) overflows.
            let vals: Vec<_> = (0..16).map(|i| t.int_load(here!("lv"), &mem[i])).collect();
            let mut acc = t.lit();
            for v in &vals {
                acc = t.int_op(here!("lv"), &[acc, *v]);
            }
        }
    };
    let computed_only = |t: &mut Tape<CycleSim>| {
        for _ in 0..200 {
            let base = t.lit();
            let vals: Vec<_> = (0..16).map(|_| t.int_op(here!("cv"), &[base])).collect();
            let mut acc = t.lit();
            for v in &vals {
                acc = t.int_op(here!("cv"), &[acc, *v]);
            }
        }
    };
    let p4 = PlatformConfig::pentium4();
    let rl = sim_with(p4, loads_only);
    let rc = sim_with(p4, computed_only);
    assert!(rl.spill_reloads > 0, "loads spill too");
    assert_eq!(rl.spill_stores, 0, "load-produced values rematerialize");
    assert!(rc.spill_stores > 0, "computed values need spill stores");
}

/// Timeline recording captures dispatch ≤ issue ≤ complete for every op.
#[test]
fn timeline_is_causally_ordered() {
    let mem = [3u64; 16];
    let mut tape = Tape::new(CycleSim::new(PlatformConfig::alpha21264()).with_timeline());
    for i in 0..100usize {
        let v = tape.int_load(here!("tl"), &mem[i % 16]);
        let c = tape.int_op(here!("tl"), &[v]);
        tape.branch(here!("tl"), &[c], i % 3 == 0);
    }
    let (_, sim) = tape.finish();
    let timeline = sim.timeline().expect("enabled");
    assert_eq!(timeline.len(), 300);
    for op in timeline {
        assert!(op.dispatch <= op.issue, "{op:?}");
        assert!(op.issue < op.complete, "{op:?}");
    }
    // Dispatch order is program order (non-decreasing).
    assert!(timeline.windows(2).all(|w| w[0].dispatch <= w[1].dispatch));
}

/// Without the timeline flag nothing is recorded (no silent overhead).
#[test]
fn timeline_absent_by_default() {
    let r = Tape::new(CycleSim::new(PlatformConfig::alpha21264()));
    let (_, sim) = r.finish();
    assert!(sim.timeline().is_none());
}

/// A deeper redirect penalty strictly slows a mispredict-heavy trace.
#[test]
fn penalty_scales_mispredict_cost() {
    let cell = 5u64;
    let workload = |t: &mut Tape<CycleSim>| {
        let mut state = 77u64;
        for _ in 0..3000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = t.int_load(here!("b"), &cell);
            t.branch(here!("b"), &[v], (state >> 40) & 1 == 1);
        }
    };
    let mut shallow = PlatformConfig::alpha21264();
    shallow.mispredict_penalty = 2;
    let mut deep = PlatformConfig::alpha21264();
    deep.mispredict_penalty = 30;
    let rs = sim_with(shallow, workload);
    let rd = sim_with(deep, workload);
    assert!(rd.cycles > rs.cycles + rd.mispredicts * 20,
        "deep {} vs shallow {} with {} mispredicts", rd.cycles, rs.cycles, rd.mispredicts);
}

/// All four platforms produce self-consistent results on a mixed trace.
#[test]
fn all_platforms_run_a_mixed_trace() {
    let mem = vec![9u64; 4096];
    for cfg in PlatformConfig::all() {
        let r = sim_with(cfg, |t| {
            let mut state = 3u64;
            for i in 0..5000usize {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let v = t.int_load(here!("m"), &mem[i % 4096]);
                let c = t.int_op(here!("m"), &[v]);
                let s = t.select(here!("m"), &[c, v], (state >> 33) & 1 == 1);
                t.int_store(here!("m"), &mem[(i * 7) % 4096], s);
                t.branch(here!("m"), &[c], (state >> 40) & 3 == 0);
            }
        });
        assert_eq!(r.instructions, 25_000, "{}", cfg.name);
        assert!(r.cycles > 0 && r.ipc() <= cfg.fetch_width as f64, "{}", cfg.name);
        assert!(r.branches >= 5000, "{}: selects may add branches", cfg.name);
    }
}

/// One iteration of the Figure 3 original shape (the code of
/// `fig3_walkthrough`): loads feeding hard branches, with a conditional
/// store between them.
fn fig3_original<T: Tracer>(t: &mut T, mem: &[i64; 8], hard1: bool, hard2: bool) {
    const F: &str = "fig3_original";
    let a = t.int_load(here!(F), &mem[0]);
    let b = t.int_load(here!(F), &mem[1]);
    let s = t.int_op(here!(F), &[a, b]);
    let c = t.int_op(here!(F), &[s]);
    if t.branch(here!(F), &[c], hard1) {
        t.int_store(here!(F), &mem[4], s);
    }
    let a = t.int_load(here!(F), &mem[2]);
    let b = t.int_load(here!(F), &mem[3]);
    let s2 = t.int_op(here!(F), &[a, b]);
    let mc = t.int_load(here!(F), &mem[4]);
    let c = t.int_op(here!(F), &[s2, mc]);
    if t.branch(here!(F), &[c], hard2) {
        t.int_store(here!(F), &mem[4], s2);
    }
    let a = t.int_load(here!(F), &mem[5]);
    let b = t.int_load(here!(F), &mem[6]);
    let s3 = t.int_op(here!(F), &[a, b]);
    t.int_op(here!(F), &[s3]);
}

/// The Figure 5(b) hoisted shape: every load first, selects for branches.
fn fig5_hoisted<T: Tracer>(t: &mut T, mem: &[i64; 8], hard1: bool, hard2: bool) {
    const F: &str = "fig5_hoisted";
    let a1 = t.int_load(here!(F), &mem[0]);
    let b1 = t.int_load(here!(F), &mem[1]);
    let a2 = t.int_load(here!(F), &mem[2]);
    let b2 = t.int_load(here!(F), &mem[3]);
    let a3 = t.int_load(here!(F), &mem[5]);
    let b3 = t.int_load(here!(F), &mem[6]);
    let s1 = t.int_op(here!(F), &[a1, b1]);
    let s2 = t.int_op(here!(F), &[a2, b2]);
    let s3 = t.int_op(here!(F), &[a3, b3]);
    let c1 = t.int_op(here!(F), &[s1]);
    let m1 = t.select(here!(F), &[c1, s1, s2], hard1);
    let c2 = t.int_op(here!(F), &[m1, s2]);
    let m2 = t.select(here!(F), &[c2, m1, s3], hard2);
    t.int_store(here!(F), &mem[4], m2);
    t.int_op(here!(F), &[m2]);
}

type Row = (OpKind, u64, u64, u64, bool);

/// The walkthrough's run: 300 iterations on the Alpha model with
/// pseudo-random hard-branch outcomes; returns the last iteration's
/// `(kind, dispatch, issue, complete, mispredicted)` rows and the cycles.
fn walkthrough(f: impl Fn(&mut Tape<CycleSim>, &[i64; 8], bool, bool)) -> (Vec<Row>, u64) {
    let mem = [10i64, 20, 30, 40, 50, 60, 70, 80];
    let mut tape = Tape::new(CycleSim::new(PlatformConfig::alpha21264()).with_timeline());
    let mut state = 0x2545_F491u64;
    for _ in 0..300 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        f(&mut tape, &mem, (state >> 33) & 1 == 1, (state >> 34) & 1 == 1);
    }
    let (_, sim) = tape.finish();
    let timeline = sim.timeline().expect("timeline enabled");
    let first = timeline[0].sid;
    let last = timeline.iter().rposition(|op| op.sid == first).expect("non-empty");
    let rows = timeline[last..]
        .iter()
        .map(|op| (op.kind, op.dispatch, op.issue, op.complete, op.mispredicted))
        .collect();
    (rows, sim.result().cycles)
}

/// The Figure 3 walkthrough's timeline, pinned value for value: the
/// original shape's first hard branch mispredicts and redirects the front
/// end (the loads after it dispatch 13 cycles later), while the hoisted
/// shape's selects never redirect.
#[test]
fn fig3_walkthrough_timeline_is_pinned() {
    use OpKind::*;
    let (rows, cycles) = walkthrough(fig3_original);
    assert_eq!(cycles, 4765);
    assert_eq!(
        rows,
        [
            (IntLoad, 4744, 4744, 4747, false),
            (IntLoad, 4745, 4745, 4748, false),
            (IntAlu, 4745, 4748, 4749, false),
            (IntAlu, 4745, 4749, 4750, false),
            (CondBranch, 4745, 4750, 4751, true),
            (IntStore, 4758, 4758, 4759, false),
            (IntLoad, 4758, 4758, 4761, false),
            (IntLoad, 4758, 4758, 4761, false),
            (IntAlu, 4758, 4761, 4762, false),
            (IntLoad, 4759, 4759, 4762, false),
            (IntAlu, 4759, 4762, 4763, false),
            (CondBranch, 4759, 4763, 4764, false),
            (IntLoad, 4759, 4759, 4762, false),
            (IntLoad, 4760, 4760, 4763, false),
            (IntAlu, 4760, 4763, 4764, false),
            (IntAlu, 4760, 4764, 4765, false),
        ]
    );
    let (rows, cycles) = walkthrough(fig5_hoisted);
    assert_eq!(cycles, 1196);
    assert_eq!(
        rows,
        [
            (IntLoad, 1187, 1187, 1190, false),
            (IntLoad, 1187, 1187, 1190, false),
            (IntLoad, 1187, 1187, 1190, false),
            (IntLoad, 1187, 1188, 1191, false),
            (IntLoad, 1188, 1188, 1191, false),
            (IntLoad, 1188, 1189, 1192, false),
            (IntAlu, 1188, 1190, 1191, false),
            (IntAlu, 1188, 1191, 1192, false),
            (IntAlu, 1189, 1192, 1193, false),
            (IntAlu, 1189, 1191, 1192, false),
            (CondMove, 1189, 1192, 1193, false),
            (IntAlu, 1189, 1193, 1194, false),
            (CondMove, 1190, 1194, 1195, false),
            (IntStore, 1190, 1195, 1196, false),
            (IntAlu, 1190, 1195, 1196, false),
        ]
    );
}
