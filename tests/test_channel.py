import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import txsecrecy as tx
from txsecrecy import channel
from txsecrecy.channel import (
    HypoexpDist,
    exp_cdf,
    exp_pdf,
    hypoexp_cdf,
    hypoexp_pdf,
    hypoexp_sf,
    hypoexp_weights,
    max_dest_sel_bka_cdf,
    max_dest_sel_cdf,
    min_eave_sel_bka_terms,
    min_eave_sel_cdf,
    min_eave_sel_pdf,
    min_hypoexp_terms,
)
from txsecrecy.errors import DomainError, RateSeparationError

from conftest import make_scenario

RATES = (1.0, 2.0, 5.0)


def test_exp_pdf_cdf():
    assert exp_pdf(0.0, 2.0) == 2.0
    assert exp_cdf(0.0, 2.0) == 0.0
    assert exp_cdf(1.0, 2.0) == pytest.approx(1.0 - math.exp(-2.0), rel=1e-15)
    with pytest.raises(DomainError):
        exp_cdf(-0.1, 1.0)


def test_hypoexp_weights_sum_to_one():
    w = hypoexp_weights(RATES)
    assert math.fsum(w) == pytest.approx(1.0, abs=1e-14)


def test_hypoexp_k2_closed_form():
    # sum of Exp(1) and Exp(2): pdf(x) = 2(e^-x - e^-2x)
    assert hypoexp_pdf(1.0, (1.0, 2.0)) == pytest.approx(
        2.0 * (math.exp(-1.0) - math.exp(-2.0)), rel=1e-14
    )


def test_hypoexp_k1_reduces_to_exponential():
    for x in (0.0, 0.3, 2.0, 10.0):
        assert abs(hypoexp_pdf(x, (1.7,)) - exp_pdf(x, 1.7)) < 1e-12
        assert abs(hypoexp_cdf(x, (1.7,)) - exp_cdf(x, 1.7)) < 1e-12


def test_hypoexp_pdf_matches_convolution_quadrature():
    # K=2 convolution oracle
    r1, r2 = 0.7, 1.9

    def conv(x):
        val, _ = quad(
            lambda t: r1 * math.exp(-r1 * t) * r2 * math.exp(-r2 * (x - t)), 0.0, x
        )
        return val

    for x in (0.2, 1.0, 3.0):
        assert hypoexp_pdf(x, (r1, r2)) == pytest.approx(conv(x), rel=1e-9)


def test_hypoexp_cdf_integrates_pdf():
    val, _ = quad(lambda t: hypoexp_pdf(t, RATES), 0.0, 2.0)
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


def test_hypoexp_dist_mean_and_rvs():
    dist = HypoexpDist(RATES)
    assert dist.mean == pytest.approx(1.0 + 0.5 + 0.2, rel=1e-14)
    rng = np.random.default_rng(0)
    draws = dist.rvs(200_000, rng)
    assert draws.mean() == pytest.approx(dist.mean, rel=0.01)


def test_hypoexp_duplicate_rates_rejected():
    with pytest.raises(RateSeparationError):
        hypoexp_weights((1.0, 1.0))
    with pytest.raises(RateSeparationError):
        HypoexpDist((2.0, 2.0 + 1e-9))


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


def test_min_eave_sel_cdf_matches_power_form():
    sc = make_scenario(n=4, k=3, s=0.9)
    for x in (0.0, 1.0, 10.0, 100.0):
        direct = 1.0 - hypoexp_sf(x, sc.eave_rates) ** sc.n_transmitters
        assert min_eave_sel_cdf(x, sc) == pytest.approx(direct, abs=1e-12)


def test_min_eave_sel_pdf_normalizes():
    sc = make_scenario(n=3, k=3)
    val, _ = quad(lambda t: min_eave_sel_pdf(t, sc), 0.0, math.inf, limit=200)
    assert val == pytest.approx(1.0, rel=1e-8)


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


def test_max_dest_sel_cdf_is_power_of_exponential():
    sc = make_scenario(n=5)
    for x in (0.0, 5.0, 50.0):
        direct = exp_cdf(x, sc.dest_rate) ** 5
        assert max_dest_sel_cdf(x, sc) == pytest.approx(direct, abs=1e-12)


def test_max_dest_sel_bka_cdf_mixture_power():
    sc = make_scenario(n=3, s=0.7)
    for x in (0.0, 5.0, 50.0):
        direct = (0.3 + 0.7 * exp_cdf(x, sc.dest_rate)) ** 3
        assert max_dest_sel_bka_cdf(x, sc) == pytest.approx(direct, abs=1e-12)


def test_max_dest_sel_bka_reduces_at_s1():
    sc = make_scenario(n=4, s=1.0)
    for x in (0.5, 5.0):
        assert max_dest_sel_bka_cdf(x, sc) == pytest.approx(
            max_dest_sel_cdf(x, sc), abs=1e-12
        )


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
            _assert_rel(min_eave_sel_cdf(x, sc), want)


@pytest.mark.parametrize(
    "n, k, xs", [(5, 3, (1, 10, 100)), (20, 3, (1, 10, 100)), (25, 2, (1, 10, 100)), (12, 6, (10, 100))]
)
def test_min_eave_sel_pdf_matches_mpmath(n, k, xs):
    # N f_1 S_1^(N-1), which needs no multinomial table; the former
    # table sum returned 0.1131 for 9.030e-4 at N=12, K=6, x=10.  There
    # the single-link density's alternating sum costs the most digits
    # (1.1e-12 relative).
    mp = pytest.importorskip("mpmath")
    sc = make_scenario(n=n, k=k)
    with mp.workdps(60):
        for x in xs:
            terms = _mp_hypoexp_terms(x, sc.eave_rates, mp)
            pdf = mp.fsum(wk * rk * ek for wk, rk, ek in terms)
            sf = mp.fsum(wk * ek for wk, _, ek in terms)
            _assert_rel(min_eave_sel_pdf(x, sc), n * pdf * sf ** (n - 1), rel=2e-12)


@pytest.mark.parametrize("s", [0.2, 0.9, 1.0])
def test_max_dest_sel_cdfs_left_tail_match_mpmath(s):
    # at N=4, 30 dB and x=1e-6 the CDF is 1e-36 (1 - S returned 7.8e-16)
    mp = pytest.importorskip("mpmath")
    sc = make_scenario(n=4, s=s, dest_db=30.0)
    with mp.workdps(80):
        lam = mp.mpf(sc.dest_rate)
        for x in TAIL_XS + (1e3, 1e4):
            tail = mp.exp(-lam * mp.mpf(x))
            _assert_rel(max_dest_sel_cdf(x, sc), (1 - tail) ** 4)
            _assert_rel(max_dest_sel_bka_cdf(x, sc), (1 - mp.mpf(s) * tail) ** 4)
