#!/usr/bin/env python3
"""Repository benchmark: end-to-end and per-layer cost of the simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite-small --seed 0 --seconds 55 --trace 0

It builds the release CLI and the layer helper (perfbench/src/main.rs),
then, with --trace 0, runs the workload through the CLI as a child process
as often as fits in --seconds seconds, each rep on the next of the ten
reference inputs, checks every result row against the committed reference,
and reports medians over the reps. With --trace 1 it runs the workload once
and then the traced pass, which times each layer on its own.
The last line of standard output is one JSON object; the lines before it
give every metric by name with its unit, and the host the run was taken on.
See perfbench/README.md for the metrics and why each workload was chosen.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
REFERENCE = BENCH / "reference"
WORK = ROOT / ".bench_work"
JOBS = 2

# Workload seeds with committed reference outputs. Rep i of a run with
# --seed n runs workload seed REF_SEEDS[(n + i) % len(REF_SEEDS)]; a traced
# run takes the first of these.
REF_SEEDS = list(range(42, 52))

# The sweep's programs, as in the helper's SWEEP_PROGRAMS.
SWEEP_PROGRAMS = "clustalw,hmmsearch,predator,dnapenny"

WORKLOADS = {
    "suite-small": ["suite", "--scale", "small", "--jobs", str(JOBS)],
    "sweep-standard": ["sweep", "--grid", "standard", "--jobs", str(JOBS),
                       "--programs", SWEEP_PROGRAMS],
}

# A run stops starting reps once this many are done and the next would
# end past --seconds.
MIN_REPS = 3

# The end-to-end metrics, all host measurements, as (name, unit).
END_TO_END = [
    ("wall_s", "s"),
    ("sim_mops", "Mop/s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
]

# Harmonic-mean speedups of the paper's Table 8, in the CLI's platform order.
PAPER_SPEEDUP_PCT = {"Alpha 21264": 25.4, "PowerPC G5": 15.1,
                     "Pentium 4": 4.3, "Itanium 2": 12.7}

CHECKPOINT_HEADER = 32
CHECKPOINT_RECORD = 40


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build")).resolve()


def cli():
    return target_dir() / "release" / "bioperf-loadchar"


def helper():
    return target_dir() / "release" / "perfbench"


def build():
    """Builds the CLI and the helper; cargo's output goes to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cwd, extra in ((ROOT, ["--bin", "bioperf-loadchar"]), (BENCH, [])):
        subprocess.run(["cargo", "build", "--release", "--offline", "-q", *extra],
                       cwd=cwd, env=env, stdout=sys.stderr, check=True)


def workload_seed(seed, rep=0):
    """Workload seed of rep `rep` of a run with --seed `seed`. The sweep's
    cost moves by up to a fifth from one input to another (its timing memo
    pays off only where miss streams repeat), so each rep takes the next
    input: a run's median then spans its inputs instead of resting on one."""
    return REF_SEEDS[(seed + rep) % len(REF_SEEDS)]


def run_helper(*args):
    out = subprocess.run([str(helper()), *args], cwd=ROOT, stdout=subprocess.PIPE,
                         check=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def fresh(path):
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


# ---------------------------------------------------------------- the CLI


def run_cli(workload, wseed, extra=()):
    """One rep: the workload through the release CLI as a child process,
    with `extra` flags appended."""
    WORK.mkdir(exist_ok=True)
    argv = [str(cli()), *WORKLOADS[workload], "--seed", str(wseed), *extra]
    checkpoint, report = WORK / "sweep.ckpt", WORK / "sweep.json"
    if workload == "sweep-standard":
        # The report holds only each program's Pareto frontier; the
        # checkpoint holds every program x cell row for the check.
        argv += ["--checkpoint", str(checkpoint), "--out", str(report)]
    for path in (checkpoint, report, WORK / "spill"):
        fresh(path)
    stdout_path = WORK / "stdout.txt"
    with open(stdout_path, "wb") as out, open(WORK / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=ROOT, stdout=out, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    return {
        "exit": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mib": usage.ru_maxrss / 1024.0,
        "stdout": stdout_path.read_text(errors="replace"),
        "checkpoint": checkpoint,
        "report": report,
    }


# ------------------------------------------------- rows and the reference


def suite_rows(stdout):
    """Characterization lines, Table 8 cells and harmonic-mean speedups of
    `suite` stdout, keyed."""
    rows = {}
    tables = stdout.split("\n\n")
    char = next((t for t in tables if t.startswith("program ") and "AMAT" in t), "")
    for line in char.splitlines()[2:]:
        rows["char/" + line.split()[0]] = line
    runtime = next((t for t in tables if t.startswith("program ") and "Alpha" in t), "")
    lines = runtime.splitlines()
    if lines:
        platforms = [p for p in PAPER_SPEEDUP_PCT if p in lines[0]]
        for line in lines[2:]:
            cells = line.split()
            for plat, cell in zip(platforms, cells[1:]):
                rows[f"table8/{cells[0]}/{plat.replace(' ', '-')}"] = cell
    for plat, ratio in harmonic_means(stdout).items():
        rows[f"hmean/{plat.replace(' ', '-')}"] = f"{ratio:.3f}"
    return rows


def harmonic_means(stdout):
    """`harmonic-mean speedups` block of `suite` stdout, platform → ratio."""
    means = {}
    for line in stdout.splitlines():
        for plat in PAPER_SPEEDUP_PCT:
            if line.strip().startswith(plat) and line.rstrip().endswith("x"):
                means[plat] = float(line.split()[-1].rstrip("x"))
    return means


def paper_speedup_err_pp(stdout):
    """Mean absolute error of the four harmonic-mean speedups, in points."""
    means = harmonic_means(stdout)
    if len(means) != len(PAPER_SPEEDUP_PCT):
        return None
    errs = [abs((means[p] - 1.0) * 100.0 - pct) for p, pct in PAPER_SPEEDUP_PCT.items()]
    return sum(errs) / len(errs)


def fnv1a(data):
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def sweep_rows(checkpoint, report):
    """Program x cell rows of a sweep checkpoint (each row the low 32 bits
    of its record checksum, verified) plus the report's SHA-256."""
    rows = {}
    data = checkpoint.read_bytes() if checkpoint.exists() else b""
    for at in range(CHECKPOINT_HEADER, len(data) - CHECKPOINT_RECORD + 1, CHECKPOINT_RECORD):
        rec = data[at:at + CHECKPOINT_RECORD]
        checksum = int.from_bytes(rec[32:40], "little")
        if fnv1a(rec[:32]) != checksum:
            continue
        prog = int.from_bytes(rec[0:4], "little")
        cell = int.from_bytes(rec[4:8], "little")
        rows[f"{prog}/{cell}"] = f"{checksum & 0xFFFFFFFF:08x}"
    if report.exists():
        rows["report"] = hashlib.sha256(report.read_bytes()).hexdigest()
    return rows


def reference_path(workload, wseed):
    kind = "sweep" if workload == "sweep-standard" else "suite"
    return REFERENCE / f"{kind}-{wseed}.txt"


def cycles_path(wseed):
    """Exact solo CycleSim cycles of the suites' sampled traces, one
    `<trace>/<platform> <cycles>` line each, checked by traced runs."""
    return REFERENCE / f"cycles-{wseed}.txt"


def load_cycles(wseed):
    return {key: int(value) for key, value in
            (line.split() for line in cycles_path(wseed).read_text().splitlines())}


def check_cycles(got, wseed):
    """(attempted, failed) of the traced pass's exact cycles."""
    reference = load_cycles(wseed)
    return len(reference), sum(1 for k, v in reference.items() if got.get(k) != v)


def encode_reference(rows):
    """One line per row; a sweep program's cell rows share one line,
    `cells/<program index>` followed by its digests in cell order."""
    lines, programs = [], {}
    for key, value in rows.items():
        prog, _, cell = key.partition("/")
        if prog.isdigit():
            programs.setdefault(prog, []).append((int(cell), value))
        else:
            lines.append(f"{key} {value}")
    for prog, cells in programs.items():
        lines.append(f"cells/{prog} " + " ".join(v for _, v in sorted(cells)))
    return "".join(line + "\n" for line in lines)


def load_reference(workload, wseed):
    rows = {}
    for line in reference_path(workload, wseed).read_text().splitlines():
        key, _, value = line.partition(" ")
        if key.startswith("cells/"):
            prog = key.split("/")[1]
            for cell, digest in enumerate(value.split()):
                rows[f"{prog}/{cell}"] = digest
        else:
            rows[key] = value
    return rows


def rows_of(workload, rep):
    if workload == "sweep-standard":
        return sweep_rows(rep["checkpoint"], rep["report"])
    return suite_rows(rep["stdout"])


def check_rows(workload, rep, reference):
    """(attempted, failed): reference rows, and those the run got wrong.
    A non-zero exit fails every row."""
    if rep["exit"] != 0:
        return len(reference), len(reference)
    got = rows_of(workload, rep)
    return len(reference), sum(1 for k, v in reference.items() if got.get(k) != v)


# ---------------------------------------------------------------- the host


def steal_ticks():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def host_info():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    except OSError:
        pass
    try:
        rustc = subprocess.run(["rustc", "-V"], stdout=subprocess.PIPE, text=True).stdout.strip()
    except OSError:
        rustc = ""
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "kernel": platform.release(),
        "rustc": rustc,
        "loadavg": os.getloadavg()[0],
    }


# ---------------------------------------------------------------- the runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(workload, seed, seconds):
    """Reps of the CLI, each on the next workload seed and followed by
    set-up timings and its op count, until the next would end past
    --seconds."""
    start = time.perf_counter()
    reps, setup, calib = [], [], []
    attempted = failed = 0
    while True:
        rep_start = time.perf_counter()
        wseed = workload_seed(seed, len(reps))
        calib.append(run_helper("calib")["calib_ms"])
        rep = run_cli(workload, wseed)
        a, f = check_rows(workload, rep, load_reference(workload, wseed))
        attempted, failed = attempted + a, failed + f
        rep["paper_err"] = paper_speedup_err_pp(rep["stdout"])
        reps.append(rep)
        out = run_helper("setup", "--workload", workload, "--seed", str(wseed))
        setup += out["setup_s"]
        rep["sim_mops"] = out["model_ops"] / rep["wall_s"] / 1e6
        rep["wseed"] = wseed
        now = time.perf_counter()
        if len(reps) >= MIN_REPS and now + (now - rep_start) > start + seconds:
            break
    calib.append(run_helper("calib")["calib_ms"])
    samples = {
        "wall_s": [r["wall_s"] for r in reps],
        "sim_mops": [r["sim_mops"] for r in reps],
        "cpu_s": [r["cpu_s"] for r in reps],
        "setup_s": setup,
        "peak_rss_mib": [r["peak_rss_mib"] for r in reps],
    }
    metrics = {}
    for name, unit in END_TO_END:
        values = samples[name]
        lo, hi = quartiles(values)
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        print(f"{name:<14} {statistics.median(values):>12.4f} {unit:<6} "
              f"(median of {len(values)}; quartiles {lo:.4f} .. {hi:.4f})")
    wseeds = [r["wseed"] for r in reps]
    print(f"{'fail_frac':<14} {failed / attempted:>12.4f} rows   ({failed} of {attempted} "
          f"result rows differ from the references of workload seeds {wseeds})")
    errs = [r["paper_err"] for r in reps if r["paper_err"] is not None]
    if errs:
        print(f"{'paper_speedup_err_pp':<14} {statistics.median(errs):>6.4f} pp     "
              "(simulated: mean |harmonic-mean speedup - paper| over 4 platforms)")
    exits = sorted({r["exit"] for r in reps})
    extra = {"calib_ms": calib, "reps": len(reps), "exit_codes": exits, "workload_seeds": wseeds,
             "samples": samples}
    return metrics, attempted, failed, extra


def traced(workload, wseed):
    """One rep of the CLI (correctness, pool use) and the traced pass,
    reported under the per-layer names of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    rep = run_cli(workload, wseed)
    attempted, failed = check_rows(workload, rep, load_reference(workload, wseed))
    args = ["layers", "--workload", workload, "--seed", str(wseed), "--dir", str(WORK / "layers")]
    if workload == "sweep-standard":
        args += ["--rows", str(rep["checkpoint"])]
    out = run_helper(*args)
    if workload != "sweep-standard":
        a, f = check_cycles(out["cycles"], wseed)
        attempted, failed = attempted + a, failed + f
        print(f"exact solo CycleSim cycles: {f} of {a} differ from {cycles_path(wseed).name}")
    values = dict(out["metrics"])
    values["core.pool.utilization"] = rep["cpu_s"] / (rep["wall_s"] * JOBS)
    if set(values) != set(units):
        raise SystemExit(f"traced pass and BENCHMARK.json disagree on {set(values) ^ set(units)}")
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name:<42} {values[name]!s:>24} {unit}")
    checks_ok = all(v == "ok" for v in out["checks"].values())
    for name, verdict in out["checks"].items():
        print(f"cross-check {name}: {verdict}")
    if not checks_ok:
        failed = attempted
    extra = {"checks": out["checks"], "sample": out["sample"]}
    return metrics, attempted, failed, extra


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    host = host_info()
    steal_before = steal_ticks()
    print(f"workload {args.workload}, seed {args.seed} -> first workload seed "
          f"{workload_seed(args.seed)}, --jobs {JOBS}, trace {args.trace}")
    if args.trace:
        metrics, attempted, failed, extra = traced(args.workload, workload_seed(args.seed))
    else:
        metrics, attempted, failed, extra = end_to_end(args.workload, args.seed, args.seconds)
    host["steal_ticks"] = steal_ticks() - steal_before
    host["loadavg_after"] = os.getloadavg()[0]
    print("host " + json.dumps({**host, **extra}, default=str))
    fresh(WORK)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
