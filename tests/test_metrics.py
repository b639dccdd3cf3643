import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import txsecrecy as tx
from txsecrecy import ALL_SPECS, Knowledge, Scheme, SchemeSpec, channel, cli
from txsecrecy.metrics import LN2, RatioCdfEvaluator
from txsecrecy.specfun import exp_scaled_ei

from conftest import make_scenario, mp_min_es_parts, mp_min_table, mp_min_table_e1


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
def test_closed_form_matches_definitional_quadrature(spec):
    # the expanded term tables and the unexpanded defining integrals are
    # two independent routes to the same CDF
    sc = make_scenario(n=4, k=3, s=0.7)
    ev = RatioCdfEvaluator(sc, spec)
    for y in (0.5, 1.0, 2.0, 7.0):
        assert ev._closed_form(y) == pytest.approx(ev._definitional(y), abs=1e-10)


def _reference_definitional(ev, y):
    """The defining integral by scipy's quad in t = x/(1+x), per-scheme scalar integrands."""
    sc, spec = ev.scenario, ev.spec
    lam_d, s, n_tx = sc.dest_rate, sc.s, sc.n_transmitters
    w = channel.hypoexp_weights(sc.eave_rates)

    def eave_pdf(x):
        return math.fsum(wk * lk * math.exp(-lk * x) for wk, lk in zip(w, sc.eave_rates))

    def eave_sf(x):
        return math.fsum(wk * math.exp(-lk * x) for wk, lk in zip(w, sc.eave_rates))

    if spec.scheme is Scheme.MIN_ES:
        if spec.knowledge is Knowledge.BKU:
            def integrand(x):
                v = y * (x + 1.0) - 1.0
                fd = -math.expm1(-lam_d * v) if v > 0 else 0.0
                return fd * n_tx * eave_sf(x) ** (n_tx - 1) * eave_pdf(x)
            atom, scale = 1.0 - s, s
        else:
            def integrand(x):
                v = y * (x + 1.0) - 1.0
                fd = -math.expm1(-lam_d * v) if v > 0 else 0.0
                return fd * n_tx * (1.0 - s + s * eave_sf(x)) ** (n_tx - 1) * eave_pdf(x)
            atom, scale = (1.0 - s) ** n_tx, s
    elif spec.scheme is Scheme.TTS:
        if spec.knowledge is Knowledge.BKU:
            def dest_cdf(v):
                return (1.0 - s) + s * (-math.expm1(-lam_d * v)) ** n_tx
        else:
            def dest_cdf(v):
                return ((1.0 - s) + s * (-math.expm1(-lam_d * v))) ** n_tx

        def integrand(x):
            v = y * (x + 1.0) - 1.0
            return dest_cdf(v) * eave_pdf(x) if v > 0 else 0.0
        atom, scale = 0.0, 1.0
    else:
        def single(x):
            v = y * (x + 1.0) - 1.0
            return (-math.expm1(-lam_d * v)) * eave_pdf(x) if v > 0 else 0.0

        g, _ = quad(lambda t: single(t / (1 - t)) / (1 - t) ** 2, 0.0, 1.0,
                    epsabs=0.0, epsrel=1e-12, limit=500)
        if spec.knowledge is Knowledge.BKU:
            return (1.0 - s) + s * g**n_tx
        return ((1.0 - s) * eave_sf(max(0.0, 1.0 / y - 1.0)) + s * g) ** n_tx

    val, _ = quad(lambda t: integrand(t / (1 - t)) / (1 - t) ** 2, 0.0, 1.0,
                  epsabs=0.0, epsrel=1e-12, limit=500)
    return atom + scale * val


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
@pytest.mark.parametrize("args", (
    dict(n=4, k=3, s=0.7),
    dict(n=12, k=6, s=0.7, dest_db=30.0),
    dict(n=5, k=3, s=1.0, dest_db=70.0),
), ids=("n4k3", "n12k6", "n5k3-70dB"))
def test_definitional_matches_scalar_quad_reference(args, spec):
    # the array integrand on the GK15 rule against scalar closures on
    # scipy's quad: the same integral by two integrators
    ev = RatioCdfEvaluator(make_scenario(**args), spec)
    for y in (0.5, 1.0, 2.0, 7.0):
        want = _reference_definitional(ev, y)
        assert ev._definitional(y) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("spec", [SchemeSpec(Scheme.TTS, kn) for kn in Knowledge],
                         ids=lambda s: s.label)
def test_definitional_sees_the_integrand_at_small_y(spec):
    # the integrand is zero below x0 = 1/y - 1 = 499; the integral starts there
    sc = make_scenario(n=4, k=3, s=0.7)
    want = RatioCdfEvaluator(sc, spec)._closed_form(0.002)
    assert 0.0 < want < 1e-8
    assert tx.ratio_cdf(sc, spec, 0.002) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
def test_definitional_refuses_jittered_rates(spec):
    # six rates 2e-6 apart: sum |w_k| is about 8e27 and the eavesdropper
    # pdf is rounding noise
    sc = tx.Scenario(3, 6, 0.9, 0.01, tx.jitter_rates((0.5,) * 6), 1.0)
    with pytest.raises(tx.QuadratureError):
        RatioCdfEvaluator(sc, spec)._definitional(2.0)


@pytest.mark.parametrize("result", ((0.5, 1e-6), (math.nan, 0.0)), ids=("err", "nan"))
def test_definitional_refuses_an_unconverged_integral(monkeypatch, result):
    monkeypatch.setattr(tx.metrics, "_adaptive_gk15", lambda *args: result)
    sc = make_scenario(n=5, k=3, s=1.0, dest_db=70.0)
    with pytest.raises(tx.QuadratureError):
        tx.sop(sc, SchemeSpec(Scheme.TTS, Knowledge.BKU))


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
        assert type(q) is float
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


def _log_window_esr(ev, dest_rate):
    """int_1^inf (1 - F(x)) / x dx / ln 2 by scalar quad over decades of x."""
    top = math.ceil(math.log10(1.0 + 200.0 / dest_rate))
    return math.fsum(
        quad(lambda x: (1.0 - ev(x)) / x, 10.0**i, 10.0**(i + 1),
             epsabs=1e-14, epsrel=1e-11, limit=400)[0]
        for i in range(top)
    ) / math.log(2.0)


@pytest.mark.parametrize("kn", list(Knowledge), ids=lambda k: k.name)
@pytest.mark.parametrize("k", (1, 3))
@pytest.mark.parametrize("s", (0.2, 1.0))
@pytest.mark.parametrize("db", (0.0, 60.0))
def test_ots_esr_matches_log_window_oracle_at_preset_corners(db, s, k, kn):
    # corners of the fig5-fig7 presets (N = 5); the oracle integrates the
    # scalar CDF, closed form plus definitional fallback, in x
    sc = make_scenario(n=5, k=k, s=s, dest_db=db)
    spec = SchemeSpec(Scheme.OTS, kn)
    val = tx.esr_quadrature(sc, spec)
    assert type(val) is float
    assert val == pytest.approx(_log_window_esr(RatioCdfEvaluator(sc, spec), sc.dest_rate), rel=1e-8)


def test_esr_quadrature_never_takes_the_scalar_route(monkeypatch):
    # s = 1 at high SNR is where the scalar CDF falls back to nested quadrature
    def refuse(*args):
        raise AssertionError("scalar CDF route taken")

    monkeypatch.setattr(RatioCdfEvaluator, "_definitional", refuse)
    monkeypatch.setattr(RatioCdfEvaluator, "__call__", refuse)
    for db in (40.0, 60.0):
        sc = make_scenario(n=5, k=3, s=1.0, dest_db=db)
        for spec in ALL_SPECS:
            assert tx.esr_quadrature(sc, spec) > 0.0


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
def test_survival_matches_scalar_closed_form(spec):
    sc = make_scenario(n=4, k=3, s=0.7)
    ev = RatioCdfEvaluator(sc, spec)
    xs = np.geomspace(1.0, 1e4, 41)
    want = [1.0 - ev._closed_form(x) for x in xs]
    # each side within the rounding bound of the same table, plus 1 - F's
    tol = 2.0 * ev.survival_error_bound() + 2.0**-52
    assert ev.survival(xs) == pytest.approx(want, rel=1e-12, abs=tol)


def test_survival_chunks_give_the_unchunked_values(monkeypatch):
    sc = make_scenario(n=8, k=3, s=0.7)
    ev = RatioCdfEvaluator(sc, SchemeSpec(Scheme.MIN_ES, Knowledge.BKA))
    xs = np.geomspace(1.0, 1e3, 300)
    n_terms = sum(len(coeffs) for _, coeffs, _, _ in ev.parts())
    monkeypatch.setattr(tx.metrics, "_CHUNK_ELEMENTS", xs.size * n_terms)
    whole = ev.survival(xs)
    monkeypatch.setattr(tx.metrics, "_CHUNK_ELEMENTS", 7 * n_terms + 3)
    assert np.array_equal(ev.survival(xs), whole)


def test_esr_quadrature_refuses_rounding_dominated_table(monkeypatch):
    # TTS at N = 40: the binomial weights C(40, n) make sum |c_i| so large
    # that the integrand is rounding noise; the call must raise up front
    sc = make_scenario(n=40, k=3, s=0.9, dest_db=30.0)
    monkeypatch.setattr(RatioCdfEvaluator, "survival", lambda self, xs: pytest.fail("integrated"))
    for kn in Knowledge:
        with pytest.raises(tx.QuadratureError, match="rounding"):
            tx.esr_quadrature(sc, SchemeSpec(Scheme.TTS, kn))


def test_gk15_rule_is_exact_on_polynomials():
    # Kronrod 15 integrates degree 22 exactly, its embedded Gauss 7 degree 13
    nodes = tx.metrics._GK15_NODES
    for deg in range(23):
        exact = (1.0 - (-1.0) ** (deg + 1)) / (deg + 1)
        assert (tx.metrics._GK15_WEIGHTS * nodes**deg).sum() == pytest.approx(exact, abs=1e-15)
        if deg < 14:
            assert (tx.metrics._G7_WEIGHTS * nodes[1::2] ** deg).sum() == pytest.approx(exact, abs=1e-15)


def test_esr_nonnegative_and_ordered():
    sc = make_scenario(s=0.7)
    for kn in Knowledge:
        mins = tx.esr_closed_form(sc, SchemeSpec(Scheme.MIN_ES, kn))
        tts = tx.esr_closed_form(sc, SchemeSpec(Scheme.TTS, kn))
        ots = tx.esr_quadrature(sc, SchemeSpec(Scheme.OTS, kn))
        assert 0.0 <= mins <= ots + 1e-9
        assert tts <= ots + 1e-9


def test_definitional_bka_collapse_matches_loop_form():
    # the MIN-ES-BKA integrand mixes the minimum over n active transmitters
    # in one power; the loop over n it replaces is kept here as reference
    sc = make_scenario(n=12, k=6, s=0.7, dest_db=30.0)
    ev = RatioCdfEvaluator(sc, SchemeSpec(Scheme.MIN_ES, Knowledge.BKA))
    n_tx, s, lam_d = sc.n_transmitters, sc.s, sc.dest_rate
    w = channel.hypoexp_weights(sc.eave_rates)

    def loop_form(y):
        def integrand(x):
            v = y * (x + 1.0) - 1.0
            fd = -math.expm1(-lam_d * v) if v > 0 else 0.0
            sfx = math.fsum(wk * math.exp(-lk * x) for wk, lk in zip(w, sc.eave_rates))
            pdf = math.fsum(wk * lk * math.exp(-lk * x) for wk, lk in zip(w, sc.eave_rates))
            acc = 0.0
            for n in range(1, n_tx + 1):
                p_n = math.comb(n_tx, n) * (1.0 - s) ** (n_tx - n) * s**n
                acc += p_n * n * sfx ** (n - 1) * pdf
            return fd * acc

        val, _ = quad(lambda t: integrand(t / (1 - t)) / (1 - t) ** 2, 0.0, 1.0,
                      epsabs=0.0, epsrel=1e-12, limit=500)
        return (1.0 - s) ** n_tx + val

    for y in (0.5, 1.0, 2.0, 7.0):
        assert ev._definitional(y) == pytest.approx(loop_form(y), rel=1e-14, abs=0.0)


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


def _flat_terms(ev):
    """(c_i, lam_i, b_i) of every term of the evaluator's parts, weights folded in."""
    return [
        (weight * c, lam, b)
        for weight, coeffs, lams, b in ev.parts()
        for c, lam in zip(coeffs, lams)
    ]


def _sf_at_x0(mu, y):
    """P[term exponential >= x0], x0 = max(0, 1/y - 1)."""
    return math.exp(-mu * max(0.0, 1.0 / y - 1.0))


def _term_integral(mu, b, y):
    """Integral of the destination tail e^{-b(y(x+1)-1)} against mu e^{-mu x} over x >= x0."""
    x0 = max(0.0, 1.0 / y - 1.0)
    return mu * math.exp(-b * max(y - 1.0, 0.0) - mu * x0) / (b * y + mu)


@pytest.mark.parametrize("scheme", [Scheme.MIN_ES, Scheme.TTS], ids=lambda s: s.name)
@pytest.mark.parametrize("kn", list(Knowledge), ids=lambda k: k.name)
def test_streamed_parts_match_concatenated_table_exactly(scheme, kn):
    # the per-part weights give the same floating-point operations as the
    # flat table with the weights folded into each coefficient
    spec = SchemeSpec(scheme, kn)
    sc = make_scenario(n=12, k=6, s=0.7, dest_db=30.0)
    ev = RatioCdfEvaluator(sc, spec)
    coeffs, lams, bs = _concatenated_table(sc, spec)
    assert _flat_terms(ev) == list(zip(coeffs, lams, bs))
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
    if scheme is Scheme.MIN_ES:
        # above 2,000 terms the MIN-ES ESR is the integral, not the table sum
        assert tx.esr_closed_form(sc, spec) == tx.esr_quadrature(sc, spec)
        return
    esr = math.fsum(
        c * (exp_scaled_ei(lam + b) - exp_scaled_ei(b)) for c, lam, b in zip(coeffs, lams, bs)
    )
    assert tx.esr_closed_form(sc, spec) == max(esr / LN2, 0.0)


@pytest.mark.parametrize("kn", list(Knowledge), ids=lambda k: k.name)
@pytest.mark.parametrize("n", (1, 5, 12))
@pytest.mark.parametrize("k", (1, 3, 6))
def test_ots_closed_form_keeps_single_link_bits(kn, n, k):
    # OTS reads its single-link table from parts(); the single-link CDF
    # it replaced is kept here as reference, and every bit must agree
    sc = make_scenario(n=n, k=k, s=0.7, dest_db=30.0)
    ev = RatioCdfEvaluator(sc, SchemeSpec(Scheme.OTS, kn))
    w = channel.hypoexp_weights(sc.eave_rates)
    assert ev.parts() == ((1.0, w, sc.eave_rates, sc.dest_rate),)

    def reference(y):
        head = math.fsum(wk * _sf_at_x0(lk, y) for wk, lk in zip(w, sc.eave_rates))
        tail = math.fsum(
            wk * _term_integral(lk, sc.dest_rate, y) for wk, lk in zip(w, sc.eave_rates)
        )
        g = head - tail
        if kn is Knowledge.BKU:
            return (1.0 - sc.s) + sc.s * g**sc.n_transmitters
        return ((1.0 - sc.s) * head + sc.s * g) ** sc.n_transmitters

    for y in (0.25, 0.9, 1.0, 1.5, 7.0):
        assert ev._closed_form(y).hex() == reference(y).hex()


@pytest.mark.parametrize("scheme", [Scheme.MIN_ES, Scheme.TTS], ids=lambda s: s.name)
@pytest.mark.parametrize("kn", list(Knowledge), ids=lambda k: k.name)
def test_esr_closed_form_evaluates_shared_factor_once_per_part(scheme, kn, monkeypatch):
    # e^b Ei(-b) is the same for every term of a part; taking it once per
    # part must give the bits of the per-term sum.  MIN-ES sums no table
    # of N = 12, K = 6 (above 2,000 terms), so it is checked at N = 8, K = 3.
    spec = SchemeSpec(scheme, kn)
    n, k = (8, 3) if scheme is Scheme.MIN_ES else (12, 6)
    calls = []
    monkeypatch.setattr(tx.metrics, "exp_scaled_ei", lambda x: calls.append(x) or exp_scaled_ei(x))
    for s, db in ((0.3, 10.0), (0.9, 40.0)):
        sc = make_scenario(n=n, k=k, s=s, dest_db=db)
        ev = RatioCdfEvaluator(sc, spec)
        terms = _flat_terms(ev)
        per_term = math.fsum(
            c * (exp_scaled_ei(lam + b) - exp_scaled_ei(b)) for c, lam, b in terms
        )
        calls.clear()
        assert tx.esr_closed_form(sc, spec).hex() == max(per_term / LN2, 0.0).hex()
        assert len(calls) == len(ev.parts()) + len(terms)


def _mp_min_es_cdf(sc, kn, y, mp):
    """F(y >= 1) of MIN-ES summed over the 50-digit tables; x0 is 0 there."""
    n_tx, s, b, y = sc.n_transmitters, mp.mpf(sc.s), mp.mpf(sc.dest_rate), mp.mpf(y)
    tail = mp.exp(-b * (y - 1))

    def table_sum(n):
        return mp.fsum(
            c * (1 - lam * tail / (b * y + lam)) for c, lam in mp_min_table(n, sc.eave_rates, mp)
        )

    if kn is Knowledge.BKU:
        return 1 - s + s * table_sum(n_tx)
    return (1 - s) ** n_tx + mp.fsum(
        math.comb(n_tx, n) * (1 - s) ** (n_tx - n) * s**n * table_sum(n)
        for n in range(1, n_tx + 1)
    )


@pytest.mark.parametrize(
    "n, k, s, db, kn",
    [
        (15, 6, 0.9, 30.0, Knowledge.BKU),  # SOP 0.164325; the closed form gives 1.0
        (12, 6, 0.9, 10.0, Knowledge.BKA),  # SOP 0.996768; the closed form gives 0.193
        (12, 6, 1.0, 60.0, Knowledge.BKU),  # SOP 7.9386e-5; the closed form gives 0.551
        (8, 3, 1.0, 50.0, Knowledge.BKU),  # 45 terms, routed by the rounding bound
        (21, 1, 0.9, 20.0, Knowledge.BKA),  # refused as N > 20 before any table was built
        (40, 3, 0.9, 20.0, Knowledge.BKU),  # 861 terms
    ],
)
def test_routed_min_es_values_match_mpmath_term_table(n, k, s, db, kn):
    mp = pytest.importorskip("mpmath")
    sc = tx.scenario_from_db(n, k, s, db, tuple(6.0 + 2.0 * i for i in range(k)), threshold_rate=1.0)
    spec = SchemeSpec(Scheme.MIN_ES, kn)
    with mp.workdps(50):
        want_sop = _mp_min_es_cdf(sc, kn, sc.rho, mp)
        want_nzsr = 1 - _mp_min_es_cdf(sc, kn, 1.0, mp)
    for got, want in ((tx.sop(sc, spec), want_sop), (tx.nzsr(sc, spec), want_nzsr)):
        assert abs(got - float(want)) <= 1e-9 * float(want), (got, float(want))


@pytest.mark.parametrize("kn", list(Knowledge), ids=lambda k: k.name)
def test_min_es_table_size_gate(kn):
    # the size formulas count the terms of the tables they stand for
    for n_tx in range(1, 9):
        for k in range(1, 7):
            rates = tuple(0.25 / 1.6**i for i in range(k))
            orders = (n_tx,) if kn is Knowledge.BKU else range(1, n_tx + 1)
            size = sum(len(channel.min_hypoexp_terms(n, rates)[0]) for n in orders)
            assert tx.metrics._min_es_table_terms(n_tx, k, kn) == size
    # SOP and NZSR above the limit build no table; parts() still does
    sc = make_scenario(n=12, k=6, s=0.7, dest_db=30.0)
    spec = SchemeSpec(Scheme.MIN_ES, kn)
    assert tx.metrics._min_es_table_terms(12, 6, kn) > tx.metrics._MAX_TABLE_TERMS
    channel._min_hypoexp_table.cache_clear()
    tx.sop(sc, spec)
    tx.nzsr(sc, spec)
    assert channel._min_hypoexp_table.cache_info().misses == 0
    parts = RatioCdfEvaluator(sc, spec).parts()
    assert sum(len(coeffs) for _, coeffs, _, _ in parts) == tx.metrics._min_es_table_terms(12, 6, kn)
    assert len(parts) == (1 if kn is Knowledge.BKU else 12)


@pytest.mark.parametrize("kn", list(Knowledge), ids=lambda k: k.name)
def test_rounding_bound_guards_one_minus_f(kn):
    # N=5, K=6, s=0.5, 0 dB: F(1) is 1 - 3.5e-7, where the closed form's
    # rounding is small next to F but not next to 1 - F (NZSR 1.3e-3 off
    # for BKU, 7.9e-5 for BKA).  The integral forms F, not 1 - F, so NZSR
    # keeps about eight digits here, not nine.
    mp = pytest.importorskip("mpmath")
    sc = tx.scenario_from_db(5, 6, 0.5, 0.0, tuple(6.0 + 2.0 * i for i in range(6)), threshold_rate=1.0)
    with mp.workdps(50):
        want = 1 - _mp_min_es_cdf(sc, kn, 1.0, mp)
    got = tx.nzsr(sc, SchemeSpec(Scheme.MIN_ES, kn))
    assert abs(got - float(want)) <= 1e-6 * float(want), (got, float(want))


def _mp_min_es_esr(sc, kn, mp):
    """MIN-ES ESR in bits from the 50-digit tables, as esr_closed_form sums it.

    Every term is weight c_i (g(b) - g(lam_i + b)), g(a) = e^a E1(a),
    b = lambda_D.
    """
    with mp.workdps(40):
        b = mp.mpf(sc.dest_rate)
        gb = mp.exp(b) * mp.e1(b)
        return mp.fsum(
            w * (gb * mp.fsum(c for c, _ in mp_min_table(n, sc.eave_rates, mp))
                 - mp_min_table_e1(n, sc.eave_rates, sc.dest_rate, mp))
            for w, n in mp_min_es_parts(sc, kn, mp)
        ) / mp.log(2)


@pytest.mark.parametrize("kn", list(Knowledge), ids=lambda k: k.name)
@pytest.mark.parametrize(
    "n, k, db",
    [
        (10, 3, 30.0),  # BKU: the term sum gave 5.7676830 for 5.7676856
        (15, 6, 30.0),  # BKU: the term sum gave 0.0 for 3.62226
        (21, 1, 20.0),  # refused as N > 20 before any table was built
        (5, 3, -15.0),  # BKU: the term sum is 7.6e-6 off, past a bound of eps sum |t_i|
        (5, 1, -30.0),  # e^{lambda_D} overflows in the integral's kernel
    ],
)
def test_min_es_esr_matches_mpmath_term_table(n, k, db, kn):
    # the closed form routes to the integral past its rounding bound
    mp = pytest.importorskip("mpmath")
    sc = tx.scenario_from_db(n, k, 0.9, db, tuple(6.0 + 2.0 * i for i in range(k)))
    spec = SchemeSpec(Scheme.MIN_ES, kn)
    want = float(_mp_min_es_esr(sc, kn, mp))
    for got in (tx.esr_closed_form(sc, spec), tx.esr_quadrature(sc, spec)):
        assert abs(got - want) <= 1e-10 * want, (got, want)


@pytest.mark.parametrize("variant", ("s0.20", "s0.90"))
def test_min_es_esr_routes_agree_on_fig5_cells(variant):
    # fig5 (N = 5, K = 3) keeps the term sum; the integral agrees with it
    kwargs = dict(cli.PRESETS["fig5"][1])[variant]
    for db in range(0, 61, 2):
        sc = tx.scenario_from_db(dest_snr_db=float(db), **kwargs)
        for kn in Knowledge:
            spec = SchemeSpec(Scheme.MIN_ES, kn)
            cf, q = tx.esr_closed_form(sc, spec), tx.esr_quadrature(sc, spec)
            assert abs(cf - q) <= 1e-10 * q, (db, kn, cf, q)


def test_tts_esr_closed_form_refuses_rounding_dominated_sum():
    # TTS at N = 40: its binomial weights leave the term sum with about
    # three digits, and TTS has no integral route to fall back on
    sc = make_scenario(n=40, k=3, s=0.9, dest_db=30.0)
    for kn in Knowledge:
        with pytest.raises(tx.QuadratureError, match="rounding"):
            tx.esr_closed_form(sc, SchemeSpec(Scheme.TTS, kn))
