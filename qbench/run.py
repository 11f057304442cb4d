#!/usr/bin/env python3
"""Benchmark of the qmatroids workbench: three closed-loop workloads.

    python3 qbench/run.py --workload {cli,session,search} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
``src`` directory.  The run sets up (timed, repeated, median reported),
then repeats whole rounds of the workload's fixed, seeded operations
while another round fits in S seconds, checking every answer against
``model.py`` or a property fixed by construction.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer metrics from the wrappers in ``layers.py``.  The line before
it records the kernel backend, the plain (not normalised) times and the
run's shape; both lines are also written to ``qbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("cli", "session", "search")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import qmatroids from this checkout's src/, timed; exit 2 if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "qmatroids", "__init__.py")):
        print(f"no program source at {SRC}: run from the root of a qmatroids checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import qmatroids
    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(qmatroids.__file__))) != SRC:
        print(f"imported qmatroids from {qmatroids.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return qmatroids, import_s


def diff(after: dict, before: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after}


def per_unit(units):
    """Median over units (set-up repetitions or rounds) of each layer's total."""
    return {k: statistics.median(u[k] for u in units) for k in units[0]}


def run(args):
    qm, import_s = import_program()
    import harness
    import layers

    tracer = layers.Tracer() if args.trace else None
    work = None
    setup_units, round_units = [], []

    if args.workload == "cli":
        import wl_cli
        work = os.path.join(ROOT, ".qbench_work", f"cli-{os.getpid()}")
        shutil.rmtree(work, ignore_errors=True)
        trace_dir = os.path.join(work, "trace") if tracer else None
        os.makedirs(trace_dir or work)
        wl = wl_cli.Workload(args.seed, ROOT, work, trace_dir)

        def take():  # sum and clear the layer totals the children wrote
            total = dict.fromkeys(layers.LAYERS, 0)
            for name in os.listdir(trace_dir):
                path = os.path.join(trace_dir, name)
                with open(path) as fh:
                    for k, v in json.load(fh).items():
                        total[k] += v
                os.remove(path)
            return total
    else:
        import wl_search
        import wl_session
        wl = (wl_session if args.workload == "session" else wl_search).Workload(args.seed, qm)
        if tracer:
            layers.install(tracer)
        last = [tracer.snapshot() if tracer else None]

        def take():
            now = tracer.snapshot()
            out, last[0] = diff(now, last[0]), now
            return out

    try:
        import_ref = harness.reference()
        setup_reps = []  # per repetition, (seconds, reference) of each set-up step
        for _ in range(wl.setup_reps):
            if tracer:
                take()
            setup_reps.append(harness.time_steps(wl.setup_steps()))
            if tracer:
                setup_units.append(take())
        ops = wl.ops()
        if tracer:
            take()
        res = harness.run_rounds(ops, args.seconds,
                                 on_round=(lambda: round_units.append(take())) if tracer else None)
    finally:
        if work:
            shutil.rmtree(work, ignore_errors=True)

    # set-up at the nominal host speed: each step of each repetition (and the
    # import) over the reference time right after it, as for the operations
    imported = 0 if args.workload == "cli" else import_s
    setup_s = (harness.REF_S * imported / import_ref
               + harness.normalised_s([list(step) for step in zip(*setup_reps)]))
    setup_times = [sum(t for t, _ in rep) for rep in setup_reps]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "backend": qm.kernels.BACKEND, "import_s": import_s,
              "setup_times": setup_times, "round_times": res.rounds,
              "raw_wall_s": res.raw_round_s,
              "raw_setup_s": statistics.median(setup_times) + imported,
              "ops_per_round": len(ops), "unexpected": res.unexpected[:10],
              "op_s": [[op.name, statistics.median(t)] for op, t in zip(ops, res.op_times)],
              "op_times": res.op_times, "ref_times": res.ref_times, "setup_steps": setup_reps,
              "import_ref": import_ref}
    if tracer:
        s, r = per_unit(setup_units), per_unit(round_units)
        metrics = {k: {"value": s[k] + r[k], "unit": layers.UNITS[k]} for k in layers.LAYERS}
        record["layers_setup"], record["layers_round"] = s, r
        record["counts_repeat"] = all(
            u[k] == round_units[0][k] for u in round_units for k in layers.COUNTS)
    else:
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": res.round_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024, "unit": "MB"},
        }
    result = {"correct": res.correct, "attempted": res.attempted, "failed": res.failed,
              "metrics": metrics}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    for name, failure in res.unexpected[:5]:
        print(f"unexpected failure in {name}: {failure}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:])))
