"""One benchmark process: set up a workload, then run timed rounds of it.

Started by run.py in a fresh interpreter.  It prints "ready" once nlfb
is imported and the workload's kernels are built (the end of set-up),
then, unless --probe is given, runs whole rounds for about --seconds
and prints one JSON line with the per-round figures.
"""

import os

# one BLAS/OpenMP thread, pinned before numpy loads: the machine has two
# cores and the sweep's two threads would otherwise compete with BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = pathlib.Path(__file__).resolve().parent / "out"


def run_round(workload, tracer):
    """Time one round of calls, then check each result; returns the round's record."""
    ops = workload.operations()
    results, failures = {}, {}
    if tracer is not None:
        tracer.start_round()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for op in ops:
        try:
            results[op.name] = op.call()
        except Exception:  # noqa: BLE001 - a failed call is counted, the run goes on
            failures[op.name] = traceback.format_exc()
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    layers = {}
    if tracer is not None:
        layers = tracer.stop_round()
        layers["process.cpu_s"] = cpu
        layers["trace.wall_s"] = wall
    for op in ops:
        if op.name in failures:
            continue
        try:
            op.check(results[op.name], results)
        except Exception:  # noqa: BLE001 - a failed check is counted, the run goes on
            failures[op.name] = traceback.format_exc()
    for name, tb in failures.items():
        print(f"[{workload.name}] operation {name} failed:\n{tb}", file=sys.stderr)
    return {"wall_s": wall, "cpu_s": cpu, "attempted": len(ops),
            "failed": len(failures), "layers": layers}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help="exit once set up")
    args = p.parse_args()

    # measure the nlfb of this checkout, never an installed copy
    sys.path.insert(0, str(SRC))
    import nlfb
    if pathlib.Path(nlfb.__file__).resolve().parent != SRC / "nlfb":
        print(f"nlfb imported from {nlfb.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 64
    workload = workloads.WORKLOADS[args.workload](args.seed)

    proto, sys.stdout = sys.stdout, sys.stderr  # stray prints stay off the protocol
    print("ready", file=proto, flush=True)
    if args.probe:
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    # whole rounds only, and none that the last one says would end past
    # --seconds: the run lasts about --seconds whatever the round length
    rounds, took = [], 0.0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start + took <= args.seconds:
        t0 = time.perf_counter()
        rounds.append(run_round(workload, tracer))
        took = time.perf_counter() - t0
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.csv.gz")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    units = {m: tracing.unit(m) for m in rounds[0]["layers"]} if tracer else {}
    print(json.dumps({"rounds": rounds, "peak_rss_mb": peak_kb / 1024.0,
                      "layer_units": units}), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
