"""Acceptance gate: the eight headline behaviors, one pass/fail line each.

Every test prints ``ACCEPTANCE <n> <name>: PASS`` on success so the gate
can be audited from the pytest -v -s output; tolerances are pinned in
the asserts.
"""

import math
import time

import pytest

import txsecrecy as tx
from txsecrecy import (
    ALL_SPECS,
    Knowledge,
    McConfig,
    Metric,
    Scheme,
    SchemeSpec,
)
from txsecrecy.cli import find_sop_crossover

EAVE_K3 = (6.0, 9.0, 13.0)
EAVE_K1 = (13.0,)
LN2 = math.log(2.0)

GRID_N = (2, 5)
GRID_S = (0.2, 0.9)
GRID_DB = (10.0, 25.0, 40.0)


def _grid_scenarios():
    for n in GRID_N:
        for s in GRID_S:
            for db in GRID_DB:
                yield tx.scenario_from_db(n, 3, s, db, EAVE_K3, threshold_rate=1.0)


@pytest.fixture(scope="module")
def grid_results():
    """Exact + Monte Carlo metrics on the 12-scenario grid, all six specs.

    Returns (results, build_seconds); the build time counts toward the
    oracle-triangle runtime budget.
    """
    start = time.perf_counter()
    cfg = McConfig(trials=1_000_000, seed=1)
    out = {}
    for sc in _grid_scenarios():
        key = (sc.n_transmitters, sc.backhaul_reliability, round(sc.dest_snr_db))
        mc = tx.estimate_many(sc, ALL_SPECS, cfg)
        per_spec = {}
        for spec in ALL_SPECS:
            esr_q = tx.esr_quadrature(sc, spec)
            esr_cf = (
                tx.esr_closed_form(sc, spec)
                if spec.scheme is not Scheme.OTS
                else None
            )
            per_spec[spec] = {
                "sop": tx.sop(sc, spec),
                "nzsr": tx.nzsr(sc, spec),
                "esr_quad": esr_q,
                "esr_closed": esr_cf,
                "mc": mc[spec],
            }
        out[key] = per_spec
    return out, time.perf_counter() - start


def test_acceptance_1_sop_saturation():
    start = time.perf_counter()
    for s in (0.2, 0.9):
        sc = tx.scenario_from_db(5, 3, s, 80.0, EAVE_K3, threshold_rate=1.0)
        for spec in ALL_SPECS:
            target = (1.0 - s) if spec.knowledge is Knowledge.BKU else (1.0 - s) ** 5
            assert abs(tx.sop(sc, spec) - target) < 1e-3, spec.label
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 sop-saturation-at-80dB: PASS ({elapsed:.2f}s)")


def test_acceptance_2_asymptote_independent_of_k():
    for s in (0.2, 0.9):
        sc1 = tx.scenario_from_db(5, 1, s, 80.0, EAVE_K1, threshold_rate=1.0)
        sc3 = tx.scenario_from_db(5, 3, s, 80.0, EAVE_K3, threshold_rate=1.0)
        for spec in ALL_SPECS:
            assert abs(tx.sop(sc1, spec) - tx.sop(sc3, spec)) < 1e-4, spec.label
    print("\nACCEPTANCE 2 sop-asymptote-independent-of-K: PASS")


def test_acceptance_3_diversity_orders():
    start = time.perf_counter()
    for n in (2, 5):
        sc = tx.scenario_from_db(n, 3, 1.0, 60.0, EAVE_K3, threshold_rate=1.0)
        for scheme in Scheme:
            fit = tx.diversity_order_fit(
                sc, SchemeSpec(scheme, Knowledge.BKU), window_db=(50.0, 70.0)
            )
            expected = 1.0 if scheme is Scheme.MIN_ES else float(n)
            assert abs(fit.estimated_order - expected) <= 0.1, (scheme.name, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 3 diversity-orders: PASS ({elapsed:.2f}s)")


def test_acceptance_4_esr_slope():
    dlog = math.log(10.0)  # ln(1/lambda_D) step for a 10 dB move
    cases = [(Scheme.MIN_ES, 1), (Scheme.MIN_ES, 3), (Scheme.TTS, 1),
             (Scheme.TTS, 3), (Scheme.OTS, 1)]
    for s in (0.2, 0.9):
        for scheme, k in cases:
            eave = EAVE_K1 if k == 1 else EAVE_K3
            sc55 = tx.scenario_from_db(5, k, s, 55.0, eave, threshold_rate=1.0)
            sc65 = sc55.with_dest_snr_db(65.0)
            for kn in Knowledge:
                spec = SchemeSpec(scheme, kn)
                if scheme is Scheme.OTS:
                    hi = tx.esr_quadrature(sc65, spec)
                    lo = tx.esr_quadrature(sc55, spec)
                else:
                    hi = tx.esr_closed_form(sc65, spec)
                    lo = tx.esr_closed_form(sc55, spec)
                slope = (hi - lo) / dlog
                expected = s / LN2 if kn is Knowledge.BKU else (1.0 - (1.0 - s) ** 5) / LN2
                assert abs(slope - expected) / expected <= 0.02, (spec.label, s, k)
    print("\nACCEPTANCE 4 esr-slope: PASS")


def test_acceptance_5_oracle_triangle(grid_results):
    results, build_s = grid_results
    start = time.perf_counter()
    for key, per_spec in results.items():
        for spec, res in per_spec.items():
            if res["esr_closed"] is not None:
                rel = abs(res["esr_closed"] - res["esr_quad"]) / max(
                    abs(res["esr_closed"]), 1e-300
                )
                assert rel <= 1e-6, (key, spec.label, rel)
            mc = res["mc"]
            for name, metric in (
                ("sop", Metric.SOP),
                ("nzsr", Metric.NZSR),
                ("esr_quad", Metric.ESR),
            ):
                est = mc[metric]
                sigma = max(est.std_error, 1e-12)
                assert abs(est.mean - res[name]) <= 3.0 * sigma, (
                    key, spec.label, name, est.mean, res[name],
                )
    elapsed = build_s + time.perf_counter() - start
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 5 oracle-triangle-12-scenarios: PASS ({elapsed:.2f}s)")


def test_acceptance_6_min_es_tts_crossover():
    sc = tx.scenario_from_db(5, 3, 0.9, 0.0, EAVE_K3, threshold_rate=1.0)
    for kn in Knowledge:
        min_es, tts = SchemeSpec(Scheme.MIN_ES, kn), SchemeSpec(Scheme.TTS, kn)
        low = sc.with_dest_snr_db(0.0)
        high = sc.with_dest_snr_db(40.0)
        assert tx.sop(low, min_es) < tx.sop(low, tts)
        assert tx.sop(high, tts) < tx.sop(high, min_es)
        xdb = find_sop_crossover(sc, kn, lo_db=0.0, hi_db=40.0)
        assert xdb is not None and 0.0 < xdb < 40.0
    print("\nACCEPTANCE 6 min-es/tts-crossover: PASS")


def test_acceptance_7_dominance_orderings(grid_results):
    results, _ = grid_results
    slack = 1e-12
    for key, per_spec in results.items():
        for kn in Knowledge:
            ots = per_spec[SchemeSpec(Scheme.OTS, kn)]
            tts = per_spec[SchemeSpec(Scheme.TTS, kn)]
            mes = per_spec[SchemeSpec(Scheme.MIN_ES, kn)]
            assert ots["sop"] <= tts["sop"] + slack, key
            assert ots["sop"] <= mes["sop"] + slack, key
            assert ots["esr_quad"] >= tts["esr_quad"] - slack, key
            assert ots["esr_quad"] >= mes["esr_quad"] - slack, key
        for scheme in Scheme:
            bku = per_spec[SchemeSpec(scheme, Knowledge.BKU)]
            bka = per_spec[SchemeSpec(scheme, Knowledge.BKA)]
            assert bka["sop"] <= bku["sop"] + slack, (key, scheme.name)
            assert bka["esr_quad"] >= bku["esr_quad"] - slack, (key, scheme.name)
    print("\nACCEPTANCE 7 dominance-and-knowledge-orderings: PASS")


def test_acceptance_8_identities():
    from dataclasses import replace

    from txsecrecy.channel import hypoexp_cdf, hypoexp_sf

    # NZSR = 1 - SOP at zero threshold
    sc = tx.scenario_from_db(4, 3, 0.7, 20.0, EAVE_K3, threshold_rate=1.0)
    sc0 = replace(sc, threshold_rate=0.0)
    for spec in ALL_SPECS:
        assert abs(tx.nzsr(sc, spec) - (1.0 - tx.sop(sc0, spec))) <= 1e-12

    # BKU = BKA at s = 1
    sc1 = replace(sc, backhaul_reliability=1.0)
    for scheme in Scheme:
        u, a = SchemeSpec(scheme, Knowledge.BKU), SchemeSpec(scheme, Knowledge.BKA)
        assert abs(tx.sop(sc1, u) - tx.sop(sc1, a)) <= 1e-9
        assert abs(tx.nzsr(sc1, u) - tx.nzsr(sc1, a)) <= 1e-9

    # hypoexponential at K = 1 is the plain exponential
    for x in (0.0, 0.4, 2.0, 15.0):
        assert abs(hypoexp_sf(x, (0.8,)) - math.exp(-0.8 * x)) <= 1e-12
        assert abs(hypoexp_cdf(x, (0.8,)) + math.expm1(-0.8 * x)) <= 1e-12
    print("\nACCEPTANCE 8 identities: PASS")
