import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import txsecrecy as tx
from txsecrecy import ALL_SPECS, Knowledge, Scheme, SchemeSpec, channel
from txsecrecy.metrics import LN2, RatioCdfEvaluator, _sf_at_x0, _term_integral
from txsecrecy.specfun import exp_scaled_ei

from conftest import make_scenario


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
def test_closed_form_matches_definitional_quadrature(spec):
    # the expanded term tables and the unexpanded defining integrals are
    # two independent routes to the same CDF
    sc = make_scenario(n=4, k=3, s=0.7)
    ev = RatioCdfEvaluator(sc, spec)
    for y in (0.5, 1.0, 2.0, 7.0):
        assert ev._closed_form(y) == pytest.approx(ev._definitional(y), abs=1e-10)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
def test_ratio_cdf_limits(spec):
    sc = make_scenario()
    ev = RatioCdfEvaluator(sc, spec)
    assert ev(0.0) == 0.0
    assert ev(-3.0) == 0.0
    assert ev(1e9) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
@given(y=st.floats(1e-3, 100.0))
@settings(max_examples=40, deadline=None)
def test_ratio_cdf_bounded(spec, y):
    sc = make_scenario(n=3, k=2, s=0.5)
    v = tx.ratio_cdf(sc, spec, y)
    assert 0.0 <= v <= 1.0


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
def test_ratio_cdf_monotone(spec):
    sc = make_scenario(n=4, k=3, s=0.6)
    ev = RatioCdfEvaluator(sc, spec)
    grid = [0.01 * (1.12**i) for i in range(120)]
    vals = [ev(y) for y in grid]
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 1e-12


def test_ots_bku_low_dest_snr_limit():
    # as the destination SNR vanishes the outage saturates at 1 - s... from
    # above; at y = rho the CDF tends to 1 - s + s*1 = 1
    sc = make_scenario(s=0.3).with_dest_snr_db(-80.0)
    val = tx.ratio_cdf(sc, SchemeSpec(Scheme.OTS, Knowledge.BKU), sc.rho)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_sop_is_cdf_at_rho():
    sc = make_scenario(rth=1.5)
    for spec in ALL_SPECS:
        assert tx.sop(sc, spec) == tx.ratio_cdf(sc, spec, 2.0**1.5)


def test_nzsr_identity_with_zero_threshold_sop():
    sc = make_scenario(s=0.7, rth=1.0)
    sc0 = replace(sc, threshold_rate=0.0)
    for spec in ALL_SPECS:
        assert abs(tx.nzsr(sc, spec) - (1.0 - tx.sop(sc0, spec))) < 1e-12


def test_bku_equals_bka_at_perfect_backhaul():
    sc = make_scenario(s=1.0)
    for scheme in Scheme:
        u = SchemeSpec(scheme, Knowledge.BKU)
        a = SchemeSpec(scheme, Knowledge.BKA)
        assert abs(tx.sop(sc, u) - tx.sop(sc, a)) < 1e-9
        assert abs(tx.nzsr(sc, u) - tx.nzsr(sc, a)) < 1e-9


def test_knowledge_ordering():
    sc = make_scenario(s=0.6)
    for scheme in Scheme:
        u = tx.sop(sc, SchemeSpec(scheme, Knowledge.BKU))
        a = tx.sop(sc, SchemeSpec(scheme, Knowledge.BKA))
        assert a <= u + 1e-12


def test_ots_dominates_in_sop():
    sc = make_scenario(s=0.8)
    for kn in Knowledge:
        ots = tx.sop(sc, SchemeSpec(Scheme.OTS, kn))
        assert ots <= tx.sop(sc, SchemeSpec(Scheme.TTS, kn)) + 1e-12
        assert ots <= tx.sop(sc, SchemeSpec(Scheme.MIN_ES, kn)) + 1e-12


@pytest.mark.parametrize(
    "scheme", [Scheme.MIN_ES, Scheme.TTS], ids=lambda s: s.name
)
@pytest.mark.parametrize("kn", list(Knowledge), ids=lambda k: k.name)
def test_esr_closed_form_matches_quadrature(scheme, kn):
    spec = SchemeSpec(scheme, kn)
    for s in (0.3, 1.0):
        sc = make_scenario(n=4, k=3, s=s)
        cf = tx.esr_closed_form(sc, spec)
        q = tx.esr_quadrature(sc, spec)
        assert cf == pytest.approx(q, rel=1e-8)


def test_esr_closed_form_rejects_ots():
    sc = make_scenario()
    with pytest.raises(tx.UnsupportedClosedFormError):
        tx.esr_closed_form(sc, SchemeSpec(Scheme.OTS, Knowledge.BKU))


def test_esr_quadrature_direct_oracle():
    # brute-force the defining integral int_1^inf (1 - F(x)) / x dx on a
    # finite window plus analytic tail bound
    sc = make_scenario(n=2, k=2, s=0.5)
    spec = SchemeSpec(Scheme.TTS, Knowledge.BKU)
    ev = RatioCdfEvaluator(sc, spec)
    # piecewise over log-spaced windows; beyond 1e4 the integrand is
    # smaller than e^-100 (the survival decays like e^(-lambda_D x))
    edges = [1.0, 10.0, 100.0, 1e3, 1e4]
    body = sum(
        quad(lambda x: (1.0 - ev(x)) / x, lo, hi, limit=400)[0]
        for lo, hi in zip(edges, edges[1:])
    )
    val = tx.esr_quadrature(sc, spec)
    assert val == pytest.approx(body / math.log(2.0), rel=1e-5)


def test_esr_nonnegative_and_ordered():
    sc = make_scenario(s=0.7)
    for kn in Knowledge:
        mins = tx.esr_closed_form(sc, SchemeSpec(Scheme.MIN_ES, kn))
        tts = tx.esr_closed_form(sc, SchemeSpec(Scheme.TTS, kn))
        ots = tx.esr_quadrature(sc, SchemeSpec(Scheme.OTS, kn))
        assert 0.0 <= mins <= ots + 1e-9
        assert tts <= ots + 1e-9


def test_deep_tail_cancellation_fallback():
    # perfect backhaul at very high SNR: the alternating closed form
    # cancels to noise but the returned SOP must stay positive and scale
    # like lambda_D^N
    sc = make_scenario(n=5, k=3, s=1.0).with_dest_snr_db(70.0)
    spec = SchemeSpec(Scheme.TTS, Knowledge.BKU)
    v70 = tx.sop(sc, spec)
    v80 = tx.sop(sc.with_dest_snr_db(80.0), spec)
    assert 0.0 < v80 < v70 < 1e-23
    assert v70 / v80 == pytest.approx(1e5, rel=0.05)


def test_secrecy_report_consistency():
    sc = make_scenario()
    for spec in ALL_SPECS:
        rep = tx.secrecy_report(sc, spec)
        assert rep.sop == pytest.approx(tx.sop(sc, spec), abs=1e-14)
        assert rep.nzsr == pytest.approx(tx.nzsr(sc, spec), abs=1e-14)
        expected = (
            tx.EsrMethod.QUADRATURE
            if spec.scheme is Scheme.OTS
            else tx.EsrMethod.CLOSED_FORM
        )
        assert rep.esr_method is expected


def _concatenated_table(sc, spec):
    """(coeffs, lams, bs) of F's terms as one flat table, scalar weights folded in."""
    n_tx, s, lam_d = sc.n_transmitters, sc.s, sc.dest_rate
    if spec.scheme is Scheme.MIN_ES:
        if spec.knowledge is Knowledge.BKU:
            cs, lams = channel.min_hypoexp_terms(n_tx, sc.eave_rates)
            coeffs = [s * c for c in cs]
        else:
            coeffs, lams = channel.min_eave_sel_bka_terms(sc)
        return list(coeffs), list(lams), [lam_d] * len(coeffs)
    w = channel.hypoexp_weights(sc.eave_rates)
    coeffs, lams, bs = [], [], []
    for n in range(1, n_tx + 1):
        if spec.knowledge is Knowledge.BKU:
            mults = [(s * math.comb(n_tx, n) * (-1.0) ** (n + 1), n)]
        else:
            p_n = math.comb(n_tx, n) * (1.0 - s) ** (n_tx - n) * s**n
            mults = [(p_n * math.comb(n, q) * (-1.0) ** (q + 1), q) for q in range(1, n + 1)]
        for cq, q in mults:
            for wk, lk in zip(w, sc.eave_rates):
                coeffs.append(cq * wk)
                lams.append(lk)
                bs.append(q * lam_d)
    return coeffs, lams, bs


@pytest.mark.parametrize("scheme", [Scheme.MIN_ES, Scheme.TTS], ids=lambda s: s.name)
@pytest.mark.parametrize("kn", list(Knowledge), ids=lambda k: k.name)
def test_streamed_parts_match_concatenated_table_exactly(scheme, kn):
    # the per-part weights give the same floating-point operations as the
    # flat table with the weights folded into each coefficient
    spec = SchemeSpec(scheme, kn)
    sc = make_scenario(n=12, k=6, s=0.7, dest_db=30.0)
    ev = RatioCdfEvaluator(sc, spec)
    coeffs, lams, bs = _concatenated_table(sc, spec)
    assert list(ev.terms()) == list(zip(coeffs, lams, bs))
    for y in (0.25, 0.9, 1.0, 1.5, 2.0, 7.0, 40.0):
        if scheme is Scheme.MIN_ES:
            atom = 1.0 - sc.s if kn is Knowledge.BKU else (1.0 - sc.s) ** 12
            want = atom + math.fsum(
                c * (_sf_at_x0(lam, y) - _term_integral(lam, b, y))
                for c, lam, b in zip(coeffs, lams, bs)
            )
        else:
            head = math.fsum(
                wk * _sf_at_x0(lk, y)
                for wk, lk in zip(channel.hypoexp_weights(sc.eave_rates), sc.eave_rates)
            )
            want = head - math.fsum(
                c * _term_integral(lam, b, y) for c, lam, b in zip(coeffs, lams, bs)
            )
        assert ev._closed_form(y) == want
    esr = math.fsum(
        c * (exp_scaled_ei(lam + b) - exp_scaled_ei(b)) for c, lam, b in zip(coeffs, lams, bs)
    )
    assert tx.esr_closed_form(sc, spec) == max(esr / LN2, 0.0)


@pytest.mark.parametrize("scheme", [Scheme.MIN_ES, Scheme.TTS], ids=lambda s: s.name)
@pytest.mark.parametrize("kn", list(Knowledge), ids=lambda k: k.name)
def test_esr_closed_form_evaluates_shared_factor_once_per_part(scheme, kn, monkeypatch):
    # e^b Ei(-b) is the same for every term of a part; taking it once per
    # part must give the bits of the per-term sum
    spec = SchemeSpec(scheme, kn)
    calls = []
    monkeypatch.setattr(tx.metrics, "exp_scaled_ei", lambda x: calls.append(x) or exp_scaled_ei(x))
    for s, db in ((0.3, 10.0), (0.9, 40.0)):
        sc = make_scenario(n=12, k=6, s=s, dest_db=db)
        ev = RatioCdfEvaluator(sc, spec)
        per_term = math.fsum(
            c * (exp_scaled_ei(lam + b) - exp_scaled_ei(b)) for c, lam, b in ev.terms()
        )
        calls.clear()
        assert tx.esr_closed_form(sc, spec).hex() == max(per_term / LN2, 0.0).hex()
        assert len(calls) == len(ev.parts()) + sum(1 for _ in ev.terms())


@pytest.mark.parametrize("kn", list(Knowledge), ids=lambda k: k.name)
def test_min_es_beyond_expansion_order_raises_domain_error(kn):
    n_tx = channel.MULTINOMIAL_MAX_N + 1
    sc = tx.scenario_from_db(n_tx, 1, 0.9, 20.0, (13.0,), threshold_rate=1.0)
    channel._min_hypoexp_table.cache_clear()
    with pytest.raises(tx.DomainError):
        RatioCdfEvaluator(sc, SchemeSpec(Scheme.MIN_ES, kn))
    with pytest.raises(tx.DomainError):
        tx.esr_closed_form(sc, SchemeSpec(Scheme.MIN_ES, kn))
    # refused before any table is expanded
    assert channel._min_hypoexp_table.cache_info().misses == 0
    for scheme in (Scheme.TTS, Scheme.OTS):
        assert 0.0 <= tx.sop(sc, SchemeSpec(scheme, kn)) <= 1.0
