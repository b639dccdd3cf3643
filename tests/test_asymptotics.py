import itertools
import math

import pytest

import txsecrecy as tx
from txsecrecy import ALL_SPECS, Knowledge, Scheme, SchemeSpec
from txsecrecy.combinatorics import harmonic

from conftest import make_scenario

LN2 = math.log(2.0)
EULER = 0.5772156649015329


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


def test_esr_asymptote_ots_k3_matches_per_order_sum():
    # the line through slope and offset equals the per-order form of the
    # OTS high-SNR value,
    # sum_n C(N,n)(-1)^{n+1} w_n (ln(1/lambda_D) - gamma - k_n) / ln 2
    for kn, s, db in itertools.product(Knowledge, (0.3, 0.9), (40.0, 60.0)):
        spec = SchemeSpec(Scheme.OTS, kn)
        sc = make_scenario(n=5, k=3, s=s, dest_db=db)
        log_snr = math.log(1.0 / sc.dest_rate)
        total = []
        for n, k_n in enumerate(tx.asymptotics._ots_offset_terms(sc), start=1):
            weight = s if kn is Knowledge.BKU else s**n
            sign = math.comb(5, n) * (-1.0) ** (n + 1)
            total.append(sign * weight * (log_snr - (EULER + k_n)))
        want = math.fsum(total) / LN2
        line = tx.esr_asymptote(sc, spec).at_dest_rate(sc.dest_rate)
        assert line == pytest.approx(want, rel=1e-12)


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
