import itertools
import math

import pytest

import txsecrecy as tx
from txsecrecy import ALL_SPECS, Knowledge, Scheme, SchemeSpec, cli
from txsecrecy.combinatorics import harmonic

from conftest import make_scenario, mp_min_es_parts, mp_min_table, mp_min_table_e1

LN2 = math.log(2.0)


def test_sop_asymptote_values_and_independence():
    # asymptote depends only on s (BKU) or (s, N) (BKA)
    for k in (1, 3):
        for dest_db in (10.0, 40.0):
            sc = make_scenario(n=5, k=k, s=0.2, dest_db=dest_db)
            for spec in ALL_SPECS:
                a = tx.sop_asymptote(sc, spec).value
                if spec.knowledge is Knowledge.BKU:
                    assert a == pytest.approx(0.8, rel=1e-15)
                else:
                    assert a == pytest.approx(0.8**5, rel=1e-15)
                assert tx.nzsr_asymptote(sc, spec) == pytest.approx(1.0 - a, rel=1e-14)


def test_exact_sop_reaches_asymptote_at_high_snr():
    for s in (0.2, 0.9):
        sc = make_scenario(n=5, k=3, s=s, dest_db=80.0)
        for spec in ALL_SPECS:
            gap = abs(tx.sop(sc, spec) - tx.sop_asymptote(sc, spec).value)
            assert gap < 1e-3


def test_diversity_order_analytic():
    assert tx.diversity_order_analytic(SchemeSpec(Scheme.MIN_ES, Knowledge.BKU), 5) == 1
    assert tx.diversity_order_analytic(SchemeSpec(Scheme.TTS, Knowledge.BKA), 4) == 4
    assert tx.diversity_order_analytic(SchemeSpec(Scheme.OTS, Knowledge.BKU), 3) == 3


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.name)
def test_diversity_order_fit(scheme):
    sc = make_scenario(n=2, k=3, s=1.0)
    fit = tx.diversity_order_fit(sc, SchemeSpec(scheme, Knowledge.BKU))
    assert fit.estimated_order == pytest.approx(fit.analytic_order, abs=0.1)


def test_diversity_order_fit_rejects_unreliable_backhaul():
    sc = make_scenario(s=0.9)
    with pytest.raises(tx.InvalidRegimeError):
        tx.diversity_order_fit(sc, SchemeSpec(Scheme.TTS, Knowledge.BKU))


def test_sop_high_snr_approx_accuracy():
    # relative error <= 5% at 50 dB and ~1% by 80 dB
    for scheme in Scheme:
        spec = SchemeSpec(scheme, Knowledge.BKU)
        sc50 = make_scenario(n=5, k=3, s=1.0, dest_db=50.0)
        rel50 = abs(
            tx.sop_high_snr_approx(sc50, spec) / tx.sop(sc50, spec) - 1.0
        )
        assert rel50 <= 0.05
        sc80 = sc50.with_dest_snr_db(80.0)
        rel80 = abs(
            tx.sop_high_snr_approx(sc80, spec) / tx.sop(sc80, spec) - 1.0
        )
        assert rel80 <= 0.01


def test_sop_high_snr_approx_min_es_k1_structure():
    # with a single eavesdropper the minimum of N exponentials has rate
    # N*lam_E, so the approximation is lam_D*(rho/(N*lam_E) + rho - 1)
    sc = make_scenario(n=5, k=1, s=1.0, dest_db=60.0)
    lam_e = sc.eave_rates[0]
    expected = sc.dest_rate * (sc.rho / (5.0 * lam_e) + sc.rho - 1.0)
    spec = SchemeSpec(Scheme.MIN_ES, Knowledge.BKU)
    assert tx.sop_high_snr_approx(sc, spec) == pytest.approx(expected, rel=1e-12)
    # and it is a genuine approximation of the exact SOP
    assert tx.sop_high_snr_approx(sc, spec) == pytest.approx(
        tx.sop(sc, spec), rel=0.05
    )


def test_sop_high_snr_approx_tts_leading_order():
    # leading term proportional to lambda_D^N
    spec = SchemeSpec(Scheme.TTS, Knowledge.BKU)
    sc60 = make_scenario(n=3, k=3, s=1.0, dest_db=60.0)
    sc80 = sc60.with_dest_snr_db(80.0)
    ratio = tx.sop_high_snr_approx(sc60, spec) / tx.sop_high_snr_approx(sc80, spec)
    assert ratio == pytest.approx((1e-6 / 1e-8) ** 3, rel=1e-12)


def _eave_k(n, k, s, db):
    return tx.scenario_from_db(n, k, s, db, tuple(6.0 + 2.0 * i for i in range(k)), threshold_rate=1.0)


@pytest.mark.parametrize("kn", list(Knowledge), ids=lambda k: k.name)
def test_sop_high_snr_approx_min_es_matches_mpmath(kn):
    # the term sum of E[min SE] gave -0.516 here
    mp = pytest.importorskip("mpmath")
    sc = _eave_k(15, 6, 1.0, 60.0)
    with mp.workdps(40):
        mean_min = mp.fsum(c / lam for c, lam in mp_min_table(15, sc.eave_rates, mp))
        want = float(mp.mpf(sc.dest_rate) * (sc.rho * mean_min + sc.rho - 1))
    got = tx.sop_high_snr_approx(sc, SchemeSpec(Scheme.MIN_ES, kn))
    assert abs(got - want) <= 1e-10 * want, (got, want)


@pytest.mark.parametrize("k", (3, 6))
def test_sop_high_snr_approx_tts_matches_moment_expansion(k):
    # lambda_D^N sum_n C(N,n) rho^n (rho-1)^(N-n) n! sum_k w_k / lam_k^n at 50 digits
    mp = pytest.importorskip("mpmath")
    for n_tx in range(3, 21):
        sc = _eave_k(n_tx, k, 1.0, 60.0)
        with mp.workdps(50):
            r = [mp.mpf(v) for v in sc.eave_rates]
            w = [mp.fprod(r) / (rk * mp.fprod(rj - rk for rj in r if rj != rk)) for rk in r]
            rho = mp.mpf(sc.rho)
            want = float(mp.mpf(sc.dest_rate) ** n_tx * mp.fsum(
                math.comb(n_tx, n) * rho**n * (rho - 1) ** (n_tx - n) * math.factorial(n)
                * mp.fsum(wk / rk**n for wk, rk in zip(w, r))
                for n in range(n_tx + 1)
            ))
        got = tx.sop_high_snr_approx(sc, SchemeSpec(Scheme.TTS, Knowledge.BKU))
        assert abs(got - want) <= 1e-10 * want, (n_tx, got, want)


def test_sop_high_snr_approx_rejects_unreliable_backhaul():
    sc = make_scenario(s=0.5)
    with pytest.raises(tx.InvalidRegimeError):
        tx.sop_high_snr_approx(sc, SchemeSpec(Scheme.TTS, Knowledge.BKU))


def test_esr_slope_values():
    sc = make_scenario(n=5, s=0.2)
    for spec in ALL_SPECS:
        slope = tx.esr_asymptote(sc, spec).slope
        if spec.knowledge is Knowledge.BKU:
            assert slope == pytest.approx(0.2 / LN2, rel=1e-14)
        else:
            assert slope == pytest.approx((1.0 - 0.8**5) / LN2, rel=1e-14)
    sc1 = make_scenario(n=5, k=1, s=1.0)
    for spec in ALL_SPECS:
        assert tx.esr_asymptote(sc1, spec).slope == pytest.approx(
            1.0 / LN2, rel=1e-14
        )


@pytest.mark.parametrize("k", (1, 3, 6))
def test_esr_slopes_of_all_schemes_are_equal(k):
    # the slope depends on s (and N for BKA) only: one value per knowledge
    # case whatever the scheme and the number of eavesdroppers, and one
    # value for all six specs at s = 1
    sc = make_scenario(n=4, k=k, s=0.6)
    for kn in Knowledge:
        slopes = {tx.esr_asymptote(sc, SchemeSpec(scheme, kn)).slope for scheme in Scheme}
        assert len(slopes) == 1
    sc1 = sc.with_reliability(1.0)
    assert len({tx.esr_asymptote(sc1, spec).slope for spec in ALL_SPECS}) == 1


@pytest.mark.parametrize("kn", list(Knowledge), ids=lambda k: k.name)
@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.name)
def test_esr_asymptote_line_matches_exact_at_60db(scheme, kn):
    sc = make_scenario(n=5, k=3, s=0.9, dest_db=60.0)
    spec = SchemeSpec(scheme, kn)
    line = tx.esr_asymptote(sc, spec).at_dest_rate(sc.dest_rate)
    exact = tx.esr_quadrature(sc, spec)
    assert line == pytest.approx(exact, rel=0.02)


def test_esr_finite_difference_slope():
    for s in (0.2, 0.9):
        for kn in Knowledge:
            sc55 = make_scenario(n=5, k=3, s=s, dest_db=55.0)
            sc65 = sc55.with_dest_snr_db(65.0)
            spec = SchemeSpec(Scheme.TTS, kn)
            num = tx.esr_closed_form(sc65, spec) - tx.esr_closed_form(sc55, spec)
            slope = num / math.log(10.0)  # 10 dB step in ln(1/lambda_D)
            assert slope == pytest.approx(
                tx.esr_asymptote(sc55, spec).slope, rel=0.02
            )


def test_esr_asymptote_offset_db_conversion():
    sc = make_scenario(n=5, k=3, s=0.9)
    a = tx.esr_asymptote(sc, SchemeSpec(Scheme.TTS, Knowledge.BKU))
    assert a.offset_db == pytest.approx(a.offset * 10.0 / math.log(10.0), rel=1e-15)


# OTS offsets of the former per-order partial-fraction expansion at N = 5,
# keyed by (K, s, knowledge)
PER_ORDER_OTS_OFFSETS = {
    (1, 0.3, Knowledge.BKU): 0.36150560332799875,
    (1, 0.3, Knowledge.BKA): 1.3740932040875364,
    (1, 0.9, Knowledge.BKU): 0.3615056033279952,
    (1, 0.9, Knowledge.BKA): 0.44703553176856525,
    (3, 0.3, Knowledge.BKU): 2.3357786106824943,
    (3, 0.3, Knowledge.BKA): 3.3318441187206407,
    (3, 0.9, Knowledge.BKU): 2.335778610682493,
    (3, 0.9, Knowledge.BKA): 2.4208965330354353,
}


def test_ots_offset_matches_per_order_expansion():
    for (k, s, kn), want in PER_ORDER_OTS_OFFSETS.items():
        sc = make_scenario(n=5, k=k, s=s)
        off = tx.esr_asymptote(sc, SchemeSpec(Scheme.OTS, kn)).offset
        assert off == pytest.approx(want, rel=1e-12), (k, s, kn)


def _mp_ots_offset(n, rates, a, mp):
    """gamma + int g(e^u) du / head at 40 digits, g as in _ots_offset."""
    with mp.workdps(40):
        r = [mp.mpf(v) for v in rates]
        w = [mp.fprod(r) / (rk * mp.fprod(rj - rk for rj in r if rj != rk)) for rk in r]
        a = mp.mpf(a)
        head = 1 - (1 - a) ** n

        def g(u):
            t = mp.exp(u)
            laplace = mp.fsum(wk * rk / (rk + t) for wk, rk in zip(w, r))
            return head * mp.exp(-t) - 1 + (1 - a * mp.exp(-t) * laplace) ** n

        val, err = mp.quad(g, [-90, -45, -20, -10, -6, -4, -2.5, -1, 0, 1, 2, 3, mp.log(300)],
                           method="gauss-legendre", maxdegree=4, error=True)
        assert err < 1e-15 * head
        return mp.euler + val / head


@pytest.mark.parametrize("n", (2, 5, 12, 20, 40))
@pytest.mark.parametrize("k", (1, 3, 6))
def test_ots_offset_matches_mpmath(n, k):
    # BKU integrates with a = 1 whatever s; BKA with a = s
    mp = pytest.importorskip("mpmath")
    sc = make_scenario(n=n, k=k)
    refs = {a: _mp_ots_offset(n, sc.eave_rates, a, mp) for a in (1.0, 0.3, 0.01)}
    for s, kn in itertools.product((0.01, 0.3, 1.0), Knowledge):
        off = tx.esr_asymptote(sc.with_reliability(s), SchemeSpec(Scheme.OTS, kn)).offset
        want = refs[1.0 if kn is Knowledge.BKU else s]
        assert abs(off - float(want)) <= 1e-12 * abs(float(want)), (s, kn, off, float(want))


@pytest.mark.parametrize("kn", list(Knowledge), ids=lambda k: k.name)
@pytest.mark.parametrize("n, k", [(12, 6), (20, 3)])
def test_ots_offset_matches_quadrature_at_80db(n, k, kn):
    # the former expansion returned -1,750,832 (N=12, K=6) and 4.630
    # (N=20, K=3) for BKU here
    sc = make_scenario(n=n, k=k, s=0.9, dest_db=80.0)
    spec = SchemeSpec(Scheme.OTS, kn)
    line = tx.esr_asymptote(sc, spec)
    implied = math.log(1.0 / sc.dest_rate) - tx.esr_quadrature(sc, spec) / line.slope
    assert line.offset == pytest.approx(implied, abs=1e-6)


def test_ots_offset_is_computed_once_per_table(monkeypatch, tmp_path):
    # the offset depends on neither lambda_D nor, for BKU, s: fig7 sweeps
    # 31 SNRs over two variants (N=5, K=1, s = 1 and 0.5), whose 124 OTS
    # ESR asymptote cells need two integrals, a = 1 (BKU, and BKA at
    # s = 1) and a = 0.5 (BKA at s = 0.5)
    gk15, calls = tx.asymptotics._adaptive_gk15, []
    monkeypatch.setattr(
        tx.asymptotics, "_adaptive_gk15", lambda *args: calls.append(args) or gk15(*args)
    )
    tx.asymptotics._ots_offset.cache_clear()
    assert cli.run_preset("fig7", tmp_path / "fig7.csv", None, "csv") == 0
    assert len(calls) == 2


def test_ots_offset_refuses_an_unconverged_integral(monkeypatch):
    monkeypatch.setattr(tx.asymptotics, "_adaptive_gk15", lambda *args: (1.0, 1e-6))
    tx.asymptotics._ots_offset.cache_clear()
    with pytest.raises(tx.QuadratureError):
        tx.esr_asymptote(make_scenario(), SchemeSpec(Scheme.OTS, Knowledge.BKU))
    tx.asymptotics._ots_offset.cache_clear()


@pytest.mark.parametrize("kn", list(Knowledge), ids=lambda k: k.name)
def test_ots_offset_does_not_depend_on_dest_snr(kn):
    spec = SchemeSpec(Scheme.OTS, kn)
    tx.asymptotics._ots_offset.cache_clear()
    at0 = tx.esr_asymptote(make_scenario(n=5, k=3, dest_db=0.0), spec)
    tx.asymptotics._ots_offset.cache_clear()
    at60 = tx.esr_asymptote(make_scenario(n=5, k=3, dest_db=60.0), spec)
    assert at0.offset.hex() == at60.offset.hex()
    assert at0.slope.hex() == at60.slope.hex()


def test_ots_offset_reduces_to_harmonic_form_for_weak_eavesdropper():
    # the harmonic-number offset is the lam_E -> 0 limit
    n = 5
    acc = math.fsum(
        math.comb(n, m) * (-1.0) ** (m + 1) * harmonic(m - 1)
        for m in range(1, n + 1)
    )
    sc = tx.scenario_from_db(n, 1, 1.0, 60.0, [80.0])
    off = tx.esr_asymptote(sc, SchemeSpec(Scheme.OTS, Knowledge.BKU)).offset
    lam_e = sc.eave_rates[0]
    assert off == pytest.approx(math.log(1.0 / lam_e) + acc, rel=1e-6)


@pytest.mark.parametrize("kn", list(Knowledge), ids=lambda k: k.name)
def test_esr_high_snr_ots_matches_quadrature(kn):
    sc = make_scenario(n=5, k=3, s=0.9, dest_db=60.0)
    spec = SchemeSpec(Scheme.OTS, kn)
    hs = tx.esr_high_snr_ots(sc, spec)
    exact = tx.esr_quadrature(sc, spec)
    assert hs == pytest.approx(exact, rel=0.02)


def test_esr_high_snr_ots_k1_matches_line():
    sc = make_scenario(n=5, k=1, s=0.9, dest_db=60.0)
    spec = SchemeSpec(Scheme.OTS, Knowledge.BKU)
    hs = tx.esr_high_snr_ots(sc, spec)
    line = tx.esr_asymptote(sc, spec).at_dest_rate(sc.dest_rate)
    assert hs == pytest.approx(line, rel=1e-3)


def test_esr_high_snr_ots_bku_linear_in_s():
    sc4 = make_scenario(n=4, k=3, s=0.4, dest_db=60.0)
    sc8 = sc4.with_reliability(0.8)
    spec = SchemeSpec(Scheme.OTS, Knowledge.BKU)
    v4, v8 = tx.esr_high_snr_ots(sc4, spec), tx.esr_high_snr_ots(sc8, spec)
    assert v8 == pytest.approx(2.0 * v4, rel=1e-12)


def test_esr_high_snr_ots_rejects_other_schemes():
    sc = make_scenario()
    with pytest.raises(tx.UnsupportedClosedFormError):
        tx.esr_high_snr_ots(sc, SchemeSpec(Scheme.TTS, Knowledge.BKU))


@pytest.mark.parametrize("kn", list(Knowledge), ids=lambda k: k.name)
@pytest.mark.parametrize(
    "n, k",
    [
        (12, 6),  # BKU: the term sum gave 6.906 for 4.21931
        (15, 6),  # BKU: the term sum gave -357,746 for 4.158
        (21, 1),  # refused as N > 20 before any table was built
    ],
)
def test_min_es_offset_matches_mpmath_term_table(n, k, kn):
    # gamma + sum_i w_i e^{lam_i} E1(lam_i) / norm over the 50-digit tables
    mp = pytest.importorskip("mpmath")
    sc = _eave_k(n, k, 0.9, 30.0)
    parts = mp_min_es_parts(sc, kn, mp)
    with mp.workdps(40):
        want = float(mp.euler + mp.fsum(
            w * mp_min_table_e1(m, sc.eave_rates, 0.0, mp) for w, m in parts
        ) / mp.fsum(w for w, _ in parts))
    got = tx.esr_asymptote(sc, SchemeSpec(Scheme.MIN_ES, kn)).offset
    assert abs(got - want) <= 1e-10 * want, (got, want)


def test_min_es_offset_is_computed_once_per_table(monkeypatch):
    # like the OTS offset, the MIN-ES one depends on neither lambda_D nor, for BKU, s
    calls = []
    real = tx.asymptotics._min_eave_integral
    monkeypatch.setattr(
        tx.asymptotics, "_min_eave_integral", lambda *args: calls.append(args) or real(*args)
    )
    tx.asymptotics._min_es_offset.cache_clear()
    for s in (0.5, 0.9):
        for db in (0.0, 30.0, 60.0):
            sc = make_scenario(n=5, k=3, s=s, dest_db=db)
            for kn in Knowledge:
                tx.esr_asymptote(sc, SchemeSpec(Scheme.MIN_ES, kn))
    assert len(calls) == 3  # a = 1, 0.5 and 0.9
