"""Benchmark inputs and the comparator, generated from the workload seed.

Nothing here imports the library, so the inputs can be built and tested
without it.  A seed only reorders the work (and, for ``mc_verify``, is
the Monte Carlo seed); the set of scenarios is fixed by the workload, so
every pass of every seed does the same amount of work.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

WORKLOADS = ("preset_sweep", "point_grid", "mc_verify")

#: The paper's figure presets, run through ``txsecrecy sweep --preset``.
PRESETS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7")

#: point_grid axes; eavesdroppers sit at 6, 8, 10, ... dB.
GRID_N = (2, 5, 8, 12)
GRID_K = (1, 3, 6)
GRID_S = (0.5, 1.0)
GRID_DB = (0, 10, 20, 30, 40, 50, 60)
GRID_THRESHOLD = 1.0
SCHEMES = ("MIN_ES", "TTS", "OTS")
KNOWLEDGE = ("BKU", "BKA")

#: mc_verify scenarios: (name, N, K, s, dest dB, eavesdropper dBs).  The
#: threshold is 0, as in a scenario file that leaves it out.
VERIFY_SCENARIOS = (
    ("N5K3", 5, 3, 0.9, 20.0, (6.0, 9.0, 13.0)),
    ("N2K1", 2, 1, 0.5, 10.0, (13.0,)),
    ("N10K3", 10, 3, 0.9, 30.0, (6.0, 9.0, 13.0)),
)
VERIFY_TRIALS = 1_000_000

#: Comparator tolerances, |value - reference| <= rel * |reference| + abs.
#: SOP/NZSR: the definitional quadrature runs at epsrel 1e-12, and 1e-12
#: absolute covers the rounding of 1 - F.  ESR: the quadratures run at
#: epsabs 1e-9.  Verify: exact values are printed with 7 digits.
TOLERANCES = {
    "prob": (1e-6, 1e-12),
    "esr": (1e-6, 1e-8),
    "printed": (1e-5, 1e-12),
}


def eave_db(k: int) -> tuple:
    return tuple(6.0 + 2.0 * i for i in range(k))


@dataclass(frozen=True)
class GridUnit:
    """One point query: a scenario and a scheme/knowledge case."""

    n: int
    k: int
    s: float
    db: int
    scheme: str
    knowledge: str

    def key(self, metric: str) -> str:
        return f"N{self.n}|K{self.k}|s{self.s}|{self.db}dB|{self.scheme}-{self.knowledge}|{metric}"


def grid_units(seed: int) -> list:
    """The 1,008 point_grid units in seed order."""
    units = [
        GridUnit(n, k, s, db, scheme, knowledge)
        for n, k, s, db, scheme, knowledge in itertools.product(
            GRID_N, GRID_K, GRID_S, GRID_DB, SCHEMES, KNOWLEDGE
        )
    ]
    random.Random(seed).shuffle(units)
    return units


def preset_order(seed: int) -> list:
    order = list(PRESETS)
    random.Random(seed).shuffle(order)
    return order


def verify_ini(n: int, k: int, s: float, db: float, eave: tuple) -> str:
    """Scenario file text for ``txsecrecy verify``."""
    return (
        "[scenario]\n"
        f"n_transmitters = {n}\n"
        f"n_eavesdroppers = {k}\n"
        f"backhaul_reliability = {s}\n"
        f"dest_snr_db = {db}\n"
        f"eave_snr_db = {', '.join(str(e) for e in eave)}\n"
        "threshold_rate = 0.0\n"
    )


def verify_inputs(seed: int) -> list:
    """(scenario name, scenario file text) for mc_verify, in seed order."""
    files = [(name, verify_ini(n, k, s, db, eave)) for name, n, k, s, db, eave in VERIFY_SCENARIOS]
    random.Random(seed).shuffle(files)
    return files


def close(value: float, reference: float, tol: tuple) -> bool:
    rel, abs_ = tol
    return abs(value - reference) <= rel * abs(reference) + abs_


class Tally:
    """Checks attempted and failed in one pass.

    A failure is *expected* when it is one of the documented defects
    (see NOTES.md); every failure counts in ``failed``, and only an
    unexpected one makes the pass incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []

    def check(self, ok: bool, what: str, expected: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not expected:
                self.unexpected.append(what)


def compare_values(tally: Tally, values: dict, reference: dict, tol_of) -> None:
    """Check every reference entry against the value the pass returned.

    ``reference`` maps key -> [value, known_defect].  A missing value
    fails.  ``tol_of(key)`` gives the tolerance for a key.
    """
    for key, (ref, known_defect) in reference.items():
        got = values.get(key)
        ok = got is not None and close(got, ref, tol_of(key))
        tally.check(ok, f"{key}: got {got!r}, reference {ref!r}", expected=known_defect)
