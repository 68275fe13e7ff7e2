#!/usr/bin/env python3
"""Regenerates the committed reference outputs in perfbench/reference/.

Run from the root of a checkout, on a commit whose outputs are known good:

    python3 perfbench/make_reference.py [suite-small] [sweep-standard]

For every reference seed it runs the in-memory suite and the sweep (or
only the workloads named) once through the release CLI and writes their
result rows: each suite characterization line and Table 8 cell, and each
sweep program x cell row plus the report's SHA-256. For the suite it also
runs the traced pass and writes the exact solo CycleSim cycles of its
sampled traces. A suite run with --spill-dir is checked against the
in-memory suite's references, so it has none of its own.
"""

import sys

import run


def main():
    workloads = sys.argv[1:] or ["suite-small", "sweep-standard"]
    if not set(workloads) <= {"suite-small", "sweep-standard"}:
        sys.exit("usage: make_reference.py [suite-small] [sweep-standard]")
    run.build()
    run.REFERENCE.mkdir(exist_ok=True)
    for wseed in run.REF_SEEDS:
        for workload in workloads:
            rep = run.run_cli(workload, wseed)
            if rep["exit"] != 0:
                sys.exit(f"{workload} at seed {wseed} exited {rep['exit']}")
            path = run.reference_path(workload, wseed)
            path.write_text(run.encode_reference(run.rows_of(workload, rep)))
            print(f"wrote {path.relative_to(run.ROOT)}", flush=True)
            if workload == "suite-small":
                cycles = run.run_helper("layers", "--workload", workload, "--seed", str(wseed),
                                        "--dir", str(run.WORK / "layers"))["cycles"]
                path = run.cycles_path(wseed)
                path.write_text("".join(f"{k} {v}\n" for k, v in cycles.items()))
                print(f"wrote {path.relative_to(run.ROOT)}", flush=True)
    run.fresh(run.WORK)


if __name__ == "__main__":
    main()
