"""Generate bench/reference.json, the oracle the benchmark checks outputs against.

Usage: python3 bench/make_reference.py

Reference values come by a route other than the one the benchmark times:

* SOP and NZSR: ``RatioCdfEvaluator._definitional``, the quadrature of
  the defining integral with unexpanded CDFs (no alternating sums).
* ESR rows the library computes in closed form (MIN-ES, TTS):
  ``esr_quadrature``.
* OTS ESR, and every ESR that ``verify`` prints: quadrature of
  (1 - F(x))/x whose integrand uses the definitional CDF throughout.

Each entry also records whether the timed route missed the reference at
generation time (``known_defect``).  The script refuses to record such a
miss outside MIN-ES, whose alternating multinomial sums are the one
documented defect of this kind (see NOTES.md).  It takes a few minutes
and runs outside any timed phase; commit its output.
"""

from __future__ import annotations

import argparse
import csv
import contextlib
import io
import json
import math
import multiprocessing
import os
import shutil
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads as wl  # noqa: E402
import txsecrecy as tx  # noqa: E402
from scipy.integrate import quad  # noqa: E402
from txsecrecy import cli  # noqa: E402
from txsecrecy.metrics import LN2, RatioCdfEvaluator  # noqa: E402

_SPECS = {(s.scheme.name, s.knowledge.name): s for s in tx.ALL_SPECS}


def _clamp(p: float) -> float:
    return min(max(p, 0.0), 1.0)


def definitional_cdf(ev: RatioCdfEvaluator, y: float) -> float:
    return _clamp(ev._definitional(y))


def definitional_esr(sc, spec) -> float:
    """ESR by quadrature with the definitional CDF in the integrand."""
    ev = RatioCdfEvaluator(sc, spec)

    def integrand(t):
        x = 1.0 + t / (1.0 - t)
        return (1.0 - definitional_cdf(ev, x)) / (x * (1.0 - t) ** 2)

    val, err = quad(integrand, 0.0, 1.0, epsabs=1e-9, epsrel=1e-10, limit=1000)
    if not math.isfinite(val) or err > max(1e-6, 1e-6 * abs(val)):
        raise RuntimeError(f"reference ESR quadrature did not converge for {spec.label}")
    return max(val / LN2, 0.0)


def reference_value(sc, spec, metric: str, esr_route: str) -> float:
    ev = RatioCdfEvaluator(sc, spec)
    if metric == "sop":
        return definitional_cdf(ev, sc.rho)
    if metric == "nzsr":
        return 1.0 - definitional_cdf(ev, 1.0)
    if esr_route == "quadrature":
        return tx.esr_quadrature(sc, spec)
    return definitional_esr(sc, spec)


def _ident(kwargs, spec_key, metric, route):
    """Hashable identity of a reference computation."""
    return (tuple(sorted(kwargs.items())), spec_key, metric, route)


def _task(args):
    ident, kwargs, spec_key, metric, route = args
    sc = tx.scenario_from_db(**kwargs)
    return ident, reference_value(sc, _SPECS[spec_key], metric, route)


# -- the entries of each workload, with the value the timed route gives ----

def point_grid_entries():
    tasks, timed = [], {}
    for u in wl.grid_units(0):
        kwargs = dict(n_transmitters=u.n, n_eavesdroppers=u.k, backhaul_reliability=u.s,
                      dest_snr_db=float(u.db), eave_snr_db=wl.eave_db(u.k),
                      threshold_rate=wl.GRID_THRESHOLD)
        sc, spec = tx.scenario_from_db(**kwargs), _SPECS[(u.scheme, u.knowledge)]
        timed[u.key("sop")], timed[u.key("nzsr")] = tx.sop(sc, spec), tx.nzsr(sc, spec)
        for metric in ("sop", "nzsr"):
            tasks.append((u.key(metric), kwargs, (u.scheme, u.knowledge), metric, None))
    return tasks, timed, lambda key: wl.TOLERANCES["prob"]


def preset_sweep_entries(scratch: Path):
    tasks, timed = [], {}
    for preset in wl.PRESETS:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["sweep", "--preset", preset, "--out", str(scratch / f"{preset}.csv")])
        if rc != 0:
            raise RuntimeError(f"{preset} exited {rc}")
        for label, kwargs in cli.PRESETS[preset][1]:
            with open(scratch / f"{preset}_{label}.csv", newline="") as fh:
                for row in csv.DictReader(fh):
                    key = f"{preset}_{label}|{row['x']}|{row['scheme']}-{row['knowledge']}|{row['metric']}"
                    timed[key] = float(row["exact"])
                    route = "definitional" if row["scheme"] == "OTS" else "quadrature"
                    tasks.append((key, dict(kwargs, dest_snr_db=float(row["x"])),
                                  (row["scheme"], row["knowledge"]), row["metric"], route))
    return tasks, timed, lambda key: wl.TOLERANCES["esr" if key.endswith("|esr") else "prob"]


def mc_verify_entries():
    tasks, timed = [], {}
    for name, n, k, s, db, eave in wl.VERIFY_SCENARIOS:
        kwargs = dict(n_transmitters=n, n_eavesdroppers=k, backhaul_reliability=s,
                      dest_snr_db=db, eave_snr_db=eave, threshold_rate=0.0)
        sc = tx.scenario_from_db(**kwargs)
        for (scheme, knowledge), spec in _SPECS.items():
            exact = {"sop": tx.sop(sc, spec), "nzsr": tx.nzsr(sc, spec),
                     "esr": tx.esr_quadrature(sc, spec)}
            for metric, value in exact.items():
                key = f"{name}|{spec.label}|{metric}"
                timed[key] = float(f"{value:.6e}")  # as verify prints it
                tasks.append((key, kwargs, (scheme, knowledge), metric, "definitional"))
    return tasks, timed, lambda key: wl.TOLERANCES["printed"]


def build() -> dict:
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="reference-", dir=ROOT / ".bench_out"))
    try:
        entries = {
            "point_grid": point_grid_entries(),
            "preset_sweep": preset_sweep_entries(scratch),
            "mc_verify": mc_verify_entries(),
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    # Presets repeat scenarios (fig5 s0.20 is fig6 N5K3): compute each once.
    unique = {}
    for tasks, _, _ in entries.values():
        for _key, *spec in tasks:
            unique.setdefault(_ident(*spec), (_ident(*spec), *spec))
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=len(os.sched_getaffinity(0)), mp_context=ctx) as pool:
        values = dict(pool.map(_task, unique.values(), chunksize=4))

    out = {}
    for workload, (tasks, timed, tol_of) in entries.items():
        table = {}
        for key, *spec in tasks:
            ref = values[_ident(*spec)]
            known_defect = not wl.close(timed[key], ref, tol_of(key))
            if known_defect and spec[1][0] != "MIN_ES":
                raise RuntimeError(f"{workload} {key}: timed route {timed[key]!r} misses "
                                   f"reference {ref!r} outside MIN-ES; fix the program")
            table[key] = [ref, known_defect]
        out[workload] = dict(sorted(table.items()))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    reference = build()
    reference["about"] = {
        "generator": "python3 bench/make_reference.py",
        "tolerances": {k: {"rel": r, "abs": a} for k, (r, a) in wl.TOLERANCES.items()},
        "known_defects": {w: sum(v[1] for v in t.values()) for w, t in reference.items()},
    }
    with open(BENCH / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, count in reference["about"]["known_defects"].items():
        print(f"{workload}: {len(reference[workload])} entries, {count} known defects")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
