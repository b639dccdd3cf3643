"""One pass of one benchmark workload, in a fresh process.

Usage: python3 bench/worker.py --workload NAME --seed N [--trace] [--setup-only]

The process imports the library from this checkout's ``src`` and warms
it up (reported as ``setup_s``), generates the workload's inputs from the
seed, runs one timed pass, and only then checks the outputs against
``bench/reference.json``.  It prints one JSON line with the result.
With ``--trace`` the library's layer functions are wrapped first and
the pass also reports per-layer statistics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import re
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import workloads as wl  # noqa: E402

#: A failed verify verdict counts as a statistical miss, not a wrong
#: result, when the Monte Carlo mean lies within this many standard
#: errors of the reference (plus one trial's worth of probability).
MC_SIGMAS = 5.0


def setup():
    """Import the library from this checkout and run each route once.

    Returns the module and the set-up time in reference seconds.
    """
    sys.path.insert(0, str(ROOT / "src"))
    with speed.SpeedProbe() as probe:
        t0 = time.perf_counter()
        import txsecrecy as tx
        from txsecrecy import cli  # noqa: F401

        sc = tx.scenario_from_db(2, 1, 0.9, 10.0, (13.0,), threshold_rate=1.0)
        spec = tx.ALL_SPECS[0]
        tx.sop(sc, spec)
        tx.esr_quadrature(sc, spec)
        tx.estimate_metrics(sc, spec, tx.McConfig(trials=10_000, seed=0))
        t1 = time.perf_counter()
    if Path(tx.__file__).resolve().parent != ROOT / "src" / "txsecrecy":
        raise SystemExit(f"imported txsecrecy from {tx.__file__}, not from this checkout")
    return tx, probe.seconds(t0, t1)


def _call_cli(cli, argv):
    """cli.main with its stdout captured; an exception is reported, not raised."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:  # the unit boundary: record the failure and go on
        traceback.print_exc()
        rc = None
    return rc, buf.getvalue()


def _unit_span(tracer):
    return tracer.span("bench.unit") if tracer else contextlib.nullcontext()


# -- inputs (untimed) and timed passes; outputs are checked afterwards ----

def prepare_preset_sweep(tx, seed, workdir):
    return [(p, ["sweep", "--preset", p, "--out", str(workdir / f"{p}.csv")]) for p in wl.preset_order(seed)]


def prepare_point_grid(tx, seed, workdir):
    specs = {(s.scheme.name, s.knowledge.name): s for s in tx.ALL_SPECS}
    scenarios = {}
    inputs = []
    for u in wl.grid_units(seed):
        point = (u.n, u.k, u.s, u.db)
        if point not in scenarios:
            scenarios[point] = tx.scenario_from_db(
                u.n, u.k, u.s, float(u.db), wl.eave_db(u.k), threshold_rate=wl.GRID_THRESHOLD
            )
        inputs.append((u, scenarios[point], specs[(u.scheme, u.knowledge)]))
    return inputs


def prepare_mc_verify(tx, seed, workdir):
    inputs = []
    for name, text in wl.verify_inputs(seed):
        path = workdir / f"{name}.ini"
        path.write_text(text)
        argv = ["verify", "--scenario", str(path), "--trials", str(wl.VERIFY_TRIALS), "--seed", str(seed)]
        inputs.append((name, argv))
    return inputs


def run_cli_units(tx, inputs, tracer):
    """preset_sweep and mc_verify: one cli.main call per unit."""
    from txsecrecy import cli

    calls, units = [], []
    for name, argv in inputs:
        t = time.perf_counter()
        with _unit_span(tracer):
            rc, text = _call_cli(cli, argv)
        units.append((t, time.perf_counter()))
        calls.append((name, rc, text))
    return {"calls": calls, "units": units}


def run_point_grid(tx, inputs, tracer):
    values, calls, units = {}, [], []
    for u, sc, spec in inputs:
        t = time.perf_counter()
        with _unit_span(tracer):
            try:
                sop, nzsr = tx.sop(sc, spec), tx.nzsr(sc, spec)
                ok = True
            except Exception:  # the unit boundary: record the failure and go on
                traceback.print_exc()
                ok = False
        units.append((t, time.perf_counter()))
        calls.append((u.key("call"), ok))
        if ok:
            values[u.key("sop")], values[u.key("nzsr")] = sop, nzsr
    return {"calls": calls, "units": units, "values": values}


#: workload -> (make the inputs, run them timed)
PASSES = {
    "preset_sweep": (prepare_preset_sweep, run_cli_units),
    "point_grid": (prepare_point_grid, run_point_grid),
    "mc_verify": (prepare_mc_verify, run_cli_units),
}


# -- checks, after the timed pass ------------------------------------------

def check_preset_sweep(raw, workdir, reference):
    tally = wl.Tally()
    for preset, rc, _text in raw["calls"]:
        tally.check(rc == 0, f"{preset}: exit code {rc}")
    values = {}
    for path in workdir.glob("*.csv"):
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                if row["exact"]:
                    key = f"{path.stem}|{row['x']}|{row['scheme']}-{row['knowledge']}|{row['metric']}"
                    values[key] = float(row["exact"])
    wl.compare_values(tally, values, reference,
                      lambda key: wl.TOLERANCES["esr" if key.endswith("|esr") else "prob"])
    return tally, len(values), 0


def check_point_grid(raw, workdir, reference):
    tally = wl.Tally()
    for key, ok in raw["calls"]:
        tally.check(ok, f"{key}: raised")
    wl.compare_values(tally, raw["values"], reference, lambda key: wl.TOLERANCES["prob"])
    return tally, len(raw["values"]), 0


_HEADER = re.compile(r"^verify: N=(?P<n>\d+) K=(?P<k>\d+) .* trials=(?P<trials>\d+)$", re.M)
_VERDICT = re.compile(
    r"^(?P<label>\S+)\s+(?P<metric>sop|nzsr|esr)\s+exact=(?P<exact>\S+) "
    r"mc=(?P<mc>\S+) \+- (?P<se>\S+)\s+(?P<verdict>PASS|FAIL)(?P<note>.*)$"
)


def check_mc_verify(raw, workdir, reference):
    """run_verify's own verdicts, plus its header and printed exact values.

    The header must report the scenario's N and K and the requested
    trials; the trials it reports, times the specs that printed
    verdicts, are the Monte Carlo trials the pass simulated.

    A FAIL verdict is expected (a known defect or a 3-sigma false alarm,
    see NOTES.md) only when the Monte Carlo mean agrees with the
    reference within MC_SIGMAS standard errors and no closed-form
    disagreement is noted.  The call's exit code 3 is expected when all
    of its failed verdicts are.
    """
    scenarios = {name: (n, k) for name, n, k, *_ in wl.VERIFY_SCENARIOS}
    tally = wl.Tally()
    n_values = trials = 0
    for name, rc, text in raw["calls"]:
        headers = [(int(h["n"]), int(h["k"]), int(h["trials"])) for h in _HEADER.finditer(text)]
        tally.check(headers == [(*scenarios[name], wl.VERIFY_TRIALS)], f"{name}: header {headers}")
        lines = [m for m in map(_VERDICT.match, text.splitlines()) if m]
        if len(headers) == 1:
            trials += headers[0][2] * len({m["label"] for m in lines})
        all_expected = True
        for m in lines:
            key = f"{name}|{m['label']}|{m['metric']}"
            ref, known_defect = reference.get(key, (math.nan, False))
            exact, mc, se = float(m["exact"]), float(m["mc"]), float(m["se"])
            n_values += 1
            tally.check(wl.close(exact, ref, wl.TOLERANCES["printed"]),
                        f"{key}: exact {exact!r}, reference {ref!r}", expected=known_defect)
            if m["metric"] != "esr":
                se = math.sqrt(max(ref * (1.0 - ref), 0.0) / wl.VERIFY_TRIALS)
            expected = not m["note"].strip() and abs(mc - ref) <= MC_SIGMAS * se + 1.0 / wl.VERIFY_TRIALS
            tally.check(m["verdict"] == "PASS", f"{key}: verify {m['verdict']}{m['note']}", expected=expected)
            all_expected &= m["verdict"] == "PASS" or expected
        tally.check(len(lines) == 3 * len(wl.SCHEMES) * len(wl.KNOWLEDGE),
                    f"{name}: {len(lines)} verdict lines")
        tally.check(rc == 0, f"{name}: exit code {rc}", expected=rc == 3 and all_expected)
    return tally, n_values, trials


#: workload -> check(raw, workdir, reference), which returns the tally,
#: the number of values the pass returned and the Monte Carlo trials x
#: specs it simulated
CHECKS = {
    "preset_sweep": check_preset_sweep,
    "point_grid": check_point_grid,
    "mc_verify": check_mc_verify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true", help="wrap the library's layers and report spans")
    parser.add_argument("--setup-only", action="store_true", help="measure setup_s and stop")
    args = parser.parse_args(argv)

    tx, setup_s = setup()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer, unmeasured = None, []
    if args.trace:
        import tracing  # after set-up: it imports numpy

        tracer = tracing.Tracer()
        lib = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "txsecrecy"}
        unmeasured, _ = tracing.install(tracer, tracing.LAYERS, lib)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        prepare, run = PASSES[args.workload]
        inputs = prepare(tx, args.seed, workdir)
        with speed.SpeedProbe() as probe:
            t0 = time.perf_counter()
            with tracer.span("bench.pass") if tracer else contextlib.nullcontext():
                raw = run(tx, inputs, tracer)
            t1 = time.perf_counter()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wall_s = probe.seconds(t0, t1)
        starts, ends = zip(*raw["units"])
        unit_ms = (1e3 * (probe.clock(ends) - probe.clock(starts))).tolist()

        layers = None
        if tracer:
            unmeasured = sorted({*unmeasured, *tracer.unmeasured()})
            layers = tracing.layer_metrics(tracing.layer_stats(tracer, probe.clock), unmeasured)
            tracer.save(OUT / f"spans_{args.workload}.npz")

        with open(BENCH / "reference.json") as fh:
            reference = json.load(fh)[args.workload]
        tally, n_values, mc_trials = CHECKS[args.workload](raw, workdir, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for what in tally.unexpected[:20]:
        print(f"unexpected failure: {what}", file=sys.stderr)
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "raw_wall_s": t1 - t0,
        "unit_ms": unit_ms,
        "values": n_values,
        "mc_trials": mc_trials,
        "peak_rss_mb": peak_rss_mb,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "unexpected": len(tally.unexpected),
        "layers": layers,
        "unmeasured": unmeasured,
        "spans": len(tracer) if tracer else 0,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
