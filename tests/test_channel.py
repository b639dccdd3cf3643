import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import txsecrecy as tx
from txsecrecy import channel
from txsecrecy.channel import (
    _any_of,
    hypoexp_cdf,
    hypoexp_sf,
    hypoexp_weights,
    min_eave_sel_bka_terms,
    min_hypoexp_terms,
)
from txsecrecy.errors import DomainError, RateSeparationError

from conftest import make_scenario

RATES = (1.0, 2.0, 5.0)


def test_hypoexp_weights_sum_to_one():
    w = hypoexp_weights(RATES)
    assert math.fsum(w) == pytest.approx(1.0, abs=1e-14)


def test_hypoexp_k2_closed_form():
    # sum of Exp(1) and Exp(2): F(x) = 1 - 2 e^-x + e^-2x on both routes
    for x in (1.0, 7.0):
        assert hypoexp_cdf(x, (1.0, 2.0)) == pytest.approx(
            1.0 - 2.0 * math.exp(-x) + math.exp(-2.0 * x), rel=1e-14
        )


def test_hypoexp_k1_reduces_to_exponential():
    for x in (0.0, 0.3, 2.0, 10.0):
        assert abs(hypoexp_cdf(x, (1.7,)) + math.expm1(-1.7 * x)) < 1e-12
        assert abs(hypoexp_sf(x, (1.7,)) - math.exp(-1.7 * x)) < 1e-12


def test_hypoexp_cdf_matches_convolution_quadrature():
    # K=2 convolution oracle: P(X1 + X2 <= x) = int_0^x F2(x - t) f1(t) dt
    r1, r2 = 0.7, 1.9

    def conv(x):
        val, _ = quad(
            lambda t: r1 * math.exp(-r1 * t) * -math.expm1(-r2 * (x - t)), 0.0, x
        )
        return val

    for x in (0.2, 1.0, 3.0, 12.0):
        assert hypoexp_cdf(x, (r1, r2)) == pytest.approx(conv(x), rel=1e-9)


def test_hypoexp_cdf_integrates_pdf():
    w = hypoexp_weights(RATES)
    pdf = lambda t: math.fsum(wk * rk * math.exp(-rk * t) for wk, rk in zip(w, RATES))
    val, _ = quad(pdf, 0.0, 2.0)
    assert hypoexp_cdf(2.0, RATES) == pytest.approx(val, rel=1e-9)
    assert hypoexp_sf(2.0, RATES) == pytest.approx(1.0 - val, rel=1e-9)


@given(st.floats(0.0, 50.0), st.floats(0.0, 50.0))
@settings(max_examples=100, deadline=None)
def test_hypoexp_cdf_monotone_and_bounded(x1, x2):
    lo, hi = sorted((x1, x2))
    c1, c2 = hypoexp_cdf(lo, RATES), hypoexp_cdf(hi, RATES)
    assert 0.0 <= c1 <= c2 <= 1.0


def test_hypoexp_cdf_near_zero_has_no_cancellation_noise():
    # 1 - S(x) read 1.1e-16 at x = 0 and 0 just above it; the series
    # keeps the leading behaviour prod(r) x^K / K!
    assert hypoexp_cdf(0.0, RATES) == 0.0
    for x in (1e-100, 1e-12, 1e-6, 1e-3):
        lead = 10.0 * x**3 * (1.0 / 6.0 - x * 8.0 / 24.0)
        assert hypoexp_cdf(x, RATES) == pytest.approx(lead, rel=1e-5)
    # both routes agree where they meet
    edge = channel._CDF_SERIES_BELOW / max(RATES)
    below, above = hypoexp_cdf(edge * (1 - 1e-12), RATES), hypoexp_cdf(edge, RATES)
    assert below <= above == pytest.approx(below, rel=1e-10)


def test_hypoexp_duplicate_rates_rejected():
    with pytest.raises(RateSeparationError):
        hypoexp_weights((1.0, 1.0))
    with pytest.raises(RateSeparationError):
        hypoexp_cdf(1.0, (2.0, 2.0 + 1e-9))


def test_hypoexp_weights_are_shared_per_rate_tuple():
    w = hypoexp_weights(RATES)
    assert hypoexp_weights(RATES) is w
    assert hypoexp_weights(list(RATES)) is w
    # a refusal is not cached: equal rates raise on every call
    for _ in range(3):
        with pytest.raises(RateSeparationError):
            hypoexp_weights((1.0, 1.0))


@pytest.mark.parametrize("k", range(2, 7))
def test_jittered_equal_rates_build_a_scenario(k):
    # the default jitter must clear the separation check it is offered for
    for rate in (1e-3, 0.5, 40.0):
        with pytest.raises(RateSeparationError):
            tx.Scenario(3, k, 0.9, 0.01, (rate,) * k)
        sc = tx.Scenario(3, k, 0.9, 0.01, tx.jitter_rates((rate,) * k))
        assert len(set(sc.eave_rates)) == k


def test_min_hypoexp_terms_is_survival_power():
    # sum_i c_i e^{-lam_i x} must equal S(x)^omega pointwise
    for omega in (1, 2, 4):
        coeffs, lams = min_hypoexp_terms(omega, RATES)
        for x in (0.0, 0.1, 0.7, 2.5):
            expanded = math.fsum(
                c * math.exp(-lam * x) for c, lam in zip(coeffs, lams)
            )
            assert expanded == pytest.approx(
                hypoexp_sf(x, RATES) ** omega, abs=1e-12
            )


def test_min_hypoexp_terms_coefficients_sum_to_one():
    coeffs, _ = min_hypoexp_terms(5, RATES)
    assert math.fsum(coeffs) == pytest.approx(1.0, abs=1e-10)


def test_min_hypoexp_terms_is_built_once_per_order_and_rates(monkeypatch):
    # the expansion depends on neither s nor lambda_D: a dest-SNR x s sweep
    # of both MIN-ES cases at fixed (N, K) builds one table per n = 1..N
    n_tx, k = 5, 3
    built = []
    real = channel.multinomial
    monkeypatch.setattr(
        channel, "multinomial", lambda n, parts: built.append(n) or real(n, parts)
    )
    channel._min_hypoexp_table.cache_clear()
    for s in (0.3, 0.9, 1.0):
        for db in (0.0, 20.0, 40.0):
            sc = make_scenario(n=n_tx, k=k, s=s, dest_db=db)
            for kn in tx.Knowledge:
                spec = tx.SchemeSpec(tx.Scheme.MIN_ES, kn)
                tx.sop(sc, spec)
                tx.nzsr(sc, spec)
    info = channel._min_hypoexp_table.cache_info()
    assert (info.misses, info.currsize) == (n_tx, n_tx)
    # one multinomial per composition of each n into K parts
    assert len(built) == sum(math.comb(n + k - 1, k - 1) for n in range(1, n_tx + 1))
    assert set(built) == set(range(1, n_tx + 1))


def test_term_table_cache_holds_a_full_bka_set():
    n_tx = channel.TERM_TABLE_CACHE_SIZE // 3
    spec = tx.SchemeSpec(tx.Scheme.MIN_ES, tx.Knowledge.BKA)
    channel._min_hypoexp_table.cache_clear()
    for s in (0.5, 0.9):
        tx.sop(tx.scenario_from_db(n_tx, 1, s, 20.0, (13.0,)), spec)
    assert channel._min_hypoexp_table.cache_info().misses == n_tx


def test_min_hypoexp_terms_are_shared_and_immutable():
    coeffs, lams = min_hypoexp_terms(4, RATES)
    again = min_hypoexp_terms(4, list(RATES))
    assert again[0] is coeffs and again[1] is lams
    with pytest.raises(TypeError):
        coeffs[0] = 0.0
    with pytest.raises(TypeError):
        lams[0] = 0.0
    # evaluating metrics with the shared table leaves it unchanged
    sc = make_scenario(n=4, k=3, s=0.5)
    table = min_hypoexp_terms(4, sc.eave_rates)
    snapshot = tuple(tuple(v.hex() for v in col) for col in table)
    for kn in tx.Knowledge:
        spec = tx.SchemeSpec(tx.Scheme.MIN_ES, kn)
        tx.sop(sc, spec)
        tx.esr_closed_form(sc, spec)
    assert min_hypoexp_terms(4, sc.eave_rates) is table
    assert tuple(tuple(v.hex() for v in col) for col in table) == snapshot


def _min_eave_cdf(x, sc):
    """1 - (1 - F_1(x))^N of the least eavesdropping SNR over N links: the MIN-ES ESR factor."""
    return _any_of(hypoexp_cdf(x, sc.eave_rates), sc.n_transmitters, 1.0)


def test_min_eave_sel_cdf_matches_power_form():
    sc = make_scenario(n=4, k=3, s=0.9)
    for x in (0.0, 1.0, 10.0, 100.0):
        direct = 1.0 - hypoexp_sf(x, sc.eave_rates) ** sc.n_transmitters
        assert _min_eave_cdf(x, sc) == pytest.approx(direct, abs=1e-12)


def _bka_min_cdf(x, sc):
    """Atom (1-s)^N (no active backhaul) plus the continuous part of the BKA minimum."""
    coeffs, lams = min_eave_sel_bka_terms(sc)
    atom = (1.0 - sc.s) ** sc.n_transmitters
    return atom, atom + math.fsum(c * -math.expm1(-lam * x) for c, lam in zip(coeffs, lams))


def test_min_eave_sel_bka_atom_and_normalization():
    sc = make_scenario(n=5, k=3, s=0.2)
    coeffs, lams = min_eave_sel_bka_terms(sc)
    atom, _ = _bka_min_cdf(0.0, sc)
    assert atom == pytest.approx(0.8**5, rel=1e-14)
    pdf = lambda x: math.fsum(c * lam * math.exp(-lam * x) for c, lam in zip(coeffs, lams))
    cont, _ = quad(pdf, 0.0, math.inf, limit=300)
    assert atom + cont == pytest.approx(1.0, rel=1e-7)
    assert _bka_min_cdf(1e9, sc)[1] == pytest.approx(1.0, rel=1e-6)


def test_min_eave_sel_bka_monte_carlo():
    # literal simulation of the conditional minimum over active links
    sc = make_scenario(n=4, k=2, s=0.6)
    rng = np.random.default_rng(42)
    m = 400_000
    active = rng.random((m, 4)) < 0.6
    snr = np.zeros((m, 4))
    for lam in sc.eave_rates:
        snr += rng.exponential(1.0 / lam, (m, 4))
    snr[~active] = np.inf
    mins = snr.min(axis=1)
    x = 2.0
    atom, cdf = _bka_min_cdf(x, sc)
    assert (mins == np.inf).mean() == pytest.approx(atom, abs=0.003)
    emp = (mins[np.isfinite(mins)] <= x).mean() * np.isfinite(mins).mean()
    assert atom + emp == pytest.approx(cdf, abs=0.003)


# Six eavesdroppers at about 6, 8, ..., 16 dB: closely spaced rates whose
# alternating survival weights cancel in 1 - S(x) in the left tail.
SIX_RATES = (0.25, 0.16, 0.1, 0.063, 0.04, 0.025)
TAIL_XS = tuple(np.geomspace(1e-6, 400.0, 45)) + (2.0,)


def _mp_hypoexp_terms(x, rates, mp):
    """The (w_k, r_k, e^(-r_k x)) of the hypoexponential law at the working precision of ``mp``."""
    r = [mp.mpf(v) for v in rates]
    terms = []
    for k, rk in enumerate(r):
        denom = rk
        for j, rj in enumerate(r):
            if j != k:
                denom *= rj - rk
        terms.append((mp.fprod(r) / denom, rk, mp.exp(-rk * mp.mpf(x))))
    return terms


def _mp_hypoexp_sf(x, rates, mp):
    """S(x) = sum_k w_k e^(-r_k x) at the working precision of ``mp``."""
    return mp.fsum(wk * ek for wk, _, ek in _mp_hypoexp_terms(x, rates, mp))


def _assert_rel(got, want, rel=1e-12):
    assert abs(got - float(want)) <= rel * float(want), (got, float(want))


@pytest.mark.parametrize("rates", [SIX_RATES, RATES, (0.251, 0.126, 0.05), (0.05,)])
def test_hypoexp_cdf_left_tail_matches_mpmath(rates):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(80):
        for x in TAIL_XS:
            _assert_rel(hypoexp_cdf(x, rates), 1 - _mp_hypoexp_sf(x, rates, mp))


@pytest.mark.parametrize("n, k", [(4, 6), (10, 3), (1, 2)])
def test_min_eave_sel_cdf_left_tail_matches_mpmath(n, k):
    mp = pytest.importorskip("mpmath")
    sc = make_scenario(n=n, k=k)
    with mp.workdps(80):
        for x in TAIL_XS:
            want = 1 - _mp_hypoexp_sf(x, sc.eave_rates, mp) ** n
            _assert_rel(_min_eave_cdf(x, sc), want)


def test_cdf_array_forms_match_the_float_forms():
    # the ESR and line-offset integrands call both on arrays of nodes
    sc = make_scenario(n=12, k=6)
    xs = np.array(TAIL_XS + (1e3, 1e9))
    for cdf, arg in ((hypoexp_cdf, sc.eave_rates), (_min_eave_cdf, sc)):
        got = cdf(xs, arg)
        assert got.shape == xs.shape
        assert got.tolist() == [cdf(x, arg) for x in xs.tolist()]
    # F_1 = 1 gives 1, with no divide warning from log1p(-1)
    assert hypoexp_cdf(1e9, sc.eave_rates) == 1.0
    assert _min_eave_cdf(np.array([1e9]), sc).tolist() == [1.0]
    with pytest.raises(DomainError):
        hypoexp_cdf(np.array([1.0, -1e-300]), sc.eave_rates)
