"""Run one benchmark workload of nlfb and print its metrics as one JSON line.

    python3 perfbench/run.py --workload compact_front --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; nlfb is imported from its src/.  Every
workload runs in fresh interpreters started by this script, which itself
never imports numpy.  With --trace 0 it reports the end-to-end metrics:

  wall_s       median over rounds of the time from the first timed call
               into nlfb to the last result (checks are not timed)
  setup_s      median over three fresh interpreters of the time from
               process start to nlfb imported and kernels built
  peak_rss_mb  peak resident set of the process that ran the rounds

With --trace 1 a separate process wraps the calls into each nlfb module
and reports the per-layer metrics of tracing.py instead, as medians over
rounds (counts repeat exactly from round to round).  The last line of
standard output is {"correct", "attempted", "failed", "metrics"}; the
same object and the per-round figures go to perfbench/out/.  The exit
code is 0 only when no operation failed.
"""

import argparse
import json
import pathlib
import select
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
#: set-up probes besides the measuring process itself; setup_s is the
#: median of all three, since one interpreter start varies by +-20 %
SETUP_PROBES = 2
#: the whole run, probes included, must end well within 180 s
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _spawn(args, deadline):
    """Start a worker; return it and its set-up time (start to "ready")."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [],
                               max(deadline - time.perf_counter(), 0.0))
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} did not get ready "
                         f"(exit code {proc.returncode})")
    return proc, setup


def _finish(proc, deadline) -> str:
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 0.1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            proc, setup = _spawn([*base, "--probe"], deadline)
            _finish(proc, deadline)
            setups.append(setup)
    proc, setup = _spawn([*base, "--seconds", str(seconds), "--trace", str(trace)],
                         deadline)
    setups.append(setup)
    report = json.loads(_finish(proc, deadline).strip().splitlines()[-1])
    rounds = report["rounds"]
    if trace:
        metrics = {name: {"value": statistics.median(r["layers"][name] for r in rounds),
                          "unit": unit}
                   for name, unit in report["layer_units"].items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    result = {
        # failed operations are counted in "failed"; every other result
        # was checked, so a printed result is a correct one
        "correct": True,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    detail = {**result, "workload": workload, "seed": seed, "seconds": seconds,
              "setup_samples_s": setups, "rounds": rounds,
              "peak_rss_mb": report["peak_rss_mb"]}
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(detail, indent=1))
    return result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "nlfb" / "__init__.py").is_file():
        print(f"no nlfb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
