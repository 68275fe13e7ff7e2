#!/usr/bin/env python3
"""Self-tests of the benchmark's own checks. Run from the root of a checkout:

    python3 perfbench/selftest.py

1. The row check is not vacuous: a run at another workload seed fails
   (nearly) every row of the reference it is compared against, for the
   suite and for the sweep, and a corrupted checkpoint record fails its row.
2. The suite run with --spill-dir (traces spilled to segment files and
   streamed back) matches the in-memory suite's reference row for row.
3. The traced pass agrees with production: solo CycleSim cycles equal the
   suite's Table 8 cells, and TimingBank lanes equal the sweep's cells.
4. The traced pass's exact cycles match their committed reference, and
   differ from another seed's.

Exits 0 when every test passes.
"""

import sys

import run


def expect(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    return ok


def main():
    run.build()
    ok = True
    seed, other = run.REF_SEEDS[0], run.REF_SEEDS[1]

    for workload in ("suite-small", "sweep-standard"):
        reference = run.load_reference(workload, seed)
        rep = run.run_cli(workload, other)
        attempted, failed = run.check_rows(workload, rep, reference)
        ok &= expect(failed > attempted // 2,
                     f"{workload} at seed {other} fails {failed}/{attempted} rows of seed {seed}")
        if workload == "sweep-standard":
            # Same-seed run, then one flipped byte in the first record.
            rep = run.run_cli(workload, seed)
            clean = run.check_rows(workload, rep, reference)
            data = bytearray(rep["checkpoint"].read_bytes())
            data[run.CHECKPOINT_HEADER + 8] ^= 1
            rep["checkpoint"].write_bytes(bytes(data))
            attempted, failed = run.check_rows(workload, rep, reference)
            ok &= expect(clean[1] == 0 and failed == 1,
                         f"sweep at seed {seed} passes, then fails {failed} row after a bit flip")

    reference = run.load_reference("suite-small", seed)
    rep = run.run_cli("suite-small", seed, ["--spill-dir", str(run.WORK / "spill")])
    attempted, failed = run.check_rows("suite-small", rep, reference)
    ok &= expect(rep["exit"] == 0 and failed == 0,
                 f"spilled suite matches the in-memory reference ({failed}/{attempted} differ)")

    for workload in ("suite-small", "sweep-standard"):
        args = ["layers", "--workload", workload, "--seed", str(seed),
                "--dir", str(run.WORK / "layers")]
        if workload == "sweep-standard":
            rep = run.run_cli(workload, seed)
            args += ["--rows", str(rep["checkpoint"])]
        out = run.run_helper(*args)
        for name, verdict in out["checks"].items():
            ok &= expect(verdict == "ok", f"{workload} traced pass: {name} {verdict}")
        if workload == "suite-small":
            same = run.check_cycles(out["cycles"], seed)
            attempted, failed = run.check_cycles(out["cycles"], other)
            ok &= expect(same[1] == 0 and failed > attempted // 2,
                         f"exact cycles match seed {seed}'s reference ({same[1]}/{same[0]} "
                         f"differ) and fail {failed}/{attempted} of seed {other}'s")

    run.fresh(run.WORK)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
