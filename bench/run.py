"""Benchmark of txsecrecy: preset sweeps, point queries and Monte Carlo verify.

Usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/run.py --workload all --seed N --seconds S [--trace 0|1]

NAME is preset_sweep, point_grid or mc_verify (see bench/NOTES.md).
Every pass runs in a fresh process (bench/worker.py), so import cost and
peak memory do not carry over.  Passes repeat, each with the same inputs,
until another would overrun S seconds; a run makes at least
MIN_PASSES passes.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics and the tracing overhead.  Every time is in
seconds at a fixed reference speed (bench/speed.py), not on the wall
clock, whose speed on a shared host swings too far to compare runs.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  ``--workload all`` runs every
workload and prints a table for each.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3          # untraced passes per --trace 0 run, at least
SETUP_SAMPLES = 5       # fresh-process set-ups per run, for the median setup_s
DEADLINE_S = 170.0      # every run ends well within the 180 s limit

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "values_per_s": "1/s",
    "unit_p50_ms": "ms",
    "unit_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
TRACE_METRICS = {
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.untraced_raw_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
    "trace.spans": "count",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_worker(args: list, started: float) -> dict:
    timeout = DEADLINE_S - (time.monotonic() - started)
    if timeout <= 0:
        raise BenchError("out of time before the run finished")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out after {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited {proc.returncode}")
    return json.loads(lines[-1])


def percentile(samples: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes for about ``seconds`` and aggregate them into one result."""
    if not (ROOT / "src" / "txsecrecy" / "__init__.py").is_file():
        raise BenchError(f"no library source under {ROOT / 'src'}")
    if not (BENCH / "reference.json").is_file():
        raise BenchError("bench/reference.json is missing; run bench/make_reference.py")

    started = time.monotonic()
    base = ["--workload", workload, "--seed", str(seed)]
    plain, traced, setups = [], [], []
    # --trace 1 alternates untraced and traced passes, starting untraced.
    kinds = ([False, True] if trace else [False])
    longest = 0.0
    while True:
        done = len(plain) + len(traced)
        elapsed = time.monotonic() - started
        enough = (len(plain) >= 1 and len(traced) >= 1) if trace else len(plain) >= MIN_PASSES
        if enough and elapsed + longest > seconds:
            break
        kind = kinds[done % len(kinds)]
        t = time.monotonic()
        result = run_worker(base + (["--trace"] if kind else []), started)
        longest = max(longest, time.monotonic() - t)
        (traced if kind else plain).append(result)
        setups.append(result["setup_s"])
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(base + ["--setup-only"], started)["setup_s"])

    passes = plain + traced
    out = {
        "correct": all(p["unexpected"] == 0 for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
    }
    if trace:
        metrics = {}
        for name, (unit, *_rest) in PER_LAYER.items():
            values = [p["layers"][name] for p in traced]
            if len({v is None for v in values}) > 1:
                raise BenchError(f"{name} was measured in some traced passes only")
            # times: median over traced passes; counts repeat, so the first pass's
            timed = unit == "s" and values[0] is not None
            metrics[name] = (unit, statistics.median(values) if timed else values[0])
        wall = statistics.median(p["wall_s"] for p in traced)
        untraced = statistics.median(p["wall_s"] for p in plain)
        trace_values = {
            "trace.wall_s": wall,
            "trace.untraced_wall_s": untraced,
            "trace.untraced_raw_wall_s": statistics.median(p["raw_wall_s"] for p in plain),
            "trace.overhead_s": wall - untraced,
            "trace.overhead_share": (wall - untraced) / untraced,
            "trace.spans": traced[0]["spans"],
        }
        metrics.update({name: (TRACE_METRICS[name], v) for name, v in trace_values.items()})
        counts = [{k: v for k, v in p["layers"].items() if PER_LAYER[k][0] != "s"} for p in traced]
        if any(c != counts[0] for c in counts):
            print("warning: per-layer counts differ between traced passes", file=sys.stderr)
        out["unmeasured"] = traced[0]["unmeasured"]
    else:
        # a unit's latency is its median over the passes; percentiles run over units
        unit_ms = [statistics.median(ms) for ms in zip(*(p["unit_ms"] for p in plain))]
        wall = statistics.median(p["wall_s"] for p in plain)
        if len({p["values"] for p in plain}) > 1:
            raise BenchError("passes returned different numbers of values")
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "values_per_s": plain[0]["values"] / wall,
            "unit_p50_ms": percentile(unit_ms, 50),
            "unit_p99_ms": percentile(unit_ms, 99),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        metrics = {name: (END_TO_END[name], v) for name, v in values.items()}
        out["units"] = len(unit_ms)
        out["raw_walls"] = [p["raw_wall_s"] for p in plain]
        if plain[0]["mc_trials"]:
            out["mc_trials_per_s"] = statistics.median(p["mc_trials"] for p in plain) / wall
    out["passes"] = len(passes)
    out["metrics"] = {name: {"value": value, "unit": unit} for name, (unit, value) in metrics.items()}
    return out


def report(workload: str, result: dict) -> None:
    """Readable lines for one workload; the JSON line follows them."""
    attempted, failed = result["attempted"], result["failed"]
    print(f"{workload}: {result['passes']} passes, checks attempted {attempted}, failed {failed} "
          f"(fail_rate {failed / attempted:.4f}), correct {result['correct']}")
    for name, m in result["metrics"].items():
        value = "unmeasured" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<34} {value:>14} {m['unit']}")
    if "units" in result:
        print(f"  {'units (latency samples)':<34} {result['units']:>14}")
        walls = " ".join(f"{w:.3f}" for w in result["raw_walls"])
        print(f"  {'pass wall clock (not normalized)':<34} {statistics.median(result['raw_walls']):>14.6g} s"
              f" median of {walls}")
    if "mc_trials_per_s" in result:
        print(f"  {'mc_trials_per_s':<34} {result['mc_trials_per_s']:>14.6g} 1/s")
    if result.get("unmeasured"):
        print(f"  unmeasured layers (function or work amount not found): {', '.join(result['unmeasured'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
            report(name, results[name])
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    final = results[names[0]] if len(names) == 1 else results
    keys = ("correct", "attempted", "failed", "metrics")
    print(json.dumps({k: final[k] for k in keys} if len(names) == 1 else
                     {n: {k: r[k] for k in keys} for n, r in final.items()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
