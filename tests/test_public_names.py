"""The exported names and the names the benchmark harness binds still exist.

bench/ wraps or calls library functions by name; a deletion or rename
there must fail here, not only when the benchmark runs.
"""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import txsecrecy as tx

#: (module, dotted attribute, parameters) of every name bench/ imports,
#: wraps or calls; None leaves the signature unchecked.
BENCH_NAMES = (
    ("txsecrecy.metrics", "RatioCdfEvaluator.__init__", ("self", "scenario", "spec")),
    ("txsecrecy.metrics", "RatioCdfEvaluator.__call__", ("self", "y")),
    ("txsecrecy.metrics", "RatioCdfEvaluator._definitional", ("self", "y")),
    ("txsecrecy.metrics", "esr_quadrature", None),
    ("txsecrecy.metrics", "esr_closed_form", ("scenario", "spec")),
    ("txsecrecy.metrics", "LN2", None),
    ("txsecrecy.channel", "min_hypoexp_terms", ("omega", "rates")),
    ("txsecrecy.channel", "min_eave_sel_bka_terms", ("scenario",)),
    ("txsecrecy.combinatorics", "multinomial", ("n", "parts")),
    ("txsecrecy.specfun", "exp_scaled_ei", ("a",)),
    ("txsecrecy.asymptotics", "esr_asymptote", ("scenario", "spec")),
    ("txsecrecy.asymptotics", "esr_high_snr_ots", ("scenario", "spec")),
    ("txsecrecy.montecarlo", "estimate_metrics", None),
    ("txsecrecy.montecarlo", "_draw_fades", ("scenario", "rng", "size", "work")),
    ("txsecrecy.montecarlo", "_secrecy_rates", None),
    ("txsecrecy.cli", "main", None),
    ("txsecrecy.cli", "find_sop_crossover", None),
    ("txsecrecy.cli", "PRESETS", None),
    ("txsecrecy", "ALL_SPECS", None),
    ("txsecrecy", "McConfig", None),
    ("txsecrecy", "scenario_from_db", None),
    ("txsecrecy", "sop", None),
    ("txsecrecy", "nzsr", None),
)


def test_all_names_resolve_once():
    assert len(tx.__all__) == len(set(tx.__all__))
    missing = [name for name in tx.__all__ if not hasattr(tx, name)]
    assert missing == []


@pytest.mark.parametrize("module, attr, params", BENCH_NAMES,
                         ids=[f"{m}.{a}" for m, a, _ in BENCH_NAMES])
def test_benchmark_bound_name_exists(module, attr, params):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    if params is not None:
        assert tuple(inspect.signature(obj).parameters) == params


def test_library_does_not_import_scipy_integrate():
    # the library needs numpy alone: every integral runs on the one GK15
    # rule in metrics and e^a E1(a) comes from specfun; a fresh
    # interpreter, as the test modules import scipy, checked after import
    # and after one call down each path that reads the kernel
    src = str(Path(tx.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((src, os.environ.get("PYTHONPATH", "")))}
    code = """
import sys
import txsecrecy as tx, txsecrecy.cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = [scipy_loaded()]
spec = tx.SchemeSpec(tx.Scheme.MIN_ES, tx.Knowledge.BKU)
sc = tx.scenario_from_db(3, 2, 0.9, 20.0, (6.0, 8.0))
tx.sop(sc, spec)
tx.esr_closed_form(sc, spec)
tx.esr_quadrature(sc, spec)
low = tx.scenario_from_db(3, 2, 0.9, -30.0, (6.0, 8.0))
assert low.dest_rate > 600.0
tx.esr_quadrature(low, spec)
tx.esr_asymptote(sc, spec)
loaded.append(scipy_loaded())
print(loaded)
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[[], []]"
