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
    min_eave_sel_bka,
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
    # both routes agree where they meet, x * max(rates) = 0.5
    edge = 0.5 / max(RATES)
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
    n_tx = channel.MULTINOMIAL_MAX_N
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


def test_min_hypoexp_terms_refuses_unsupported_order():
    with pytest.raises(DomainError):
        min_hypoexp_terms(channel.MULTINOMIAL_MAX_N + 1, RATES)


def test_min_eave_sel_cdf_matches_power_form():
    sc = make_scenario(n=4, k=3, s=0.9)
    for x in (0.0, 1.0, 10.0, 100.0):
        direct = 1.0 - hypoexp_sf(x, sc.eave_rates) ** sc.n_transmitters
        assert min_eave_sel_cdf(x, sc) == pytest.approx(direct, abs=1e-12)


def test_min_eave_sel_pdf_normalizes():
    sc = make_scenario(n=3, k=3)
    val, _ = quad(lambda t: min_eave_sel_pdf(t, sc), 0.0, math.inf, limit=200)
    assert val == pytest.approx(1.0, rel=1e-8)


def test_min_eave_sel_bka_atom_and_normalization():
    sc = make_scenario(n=5, k=3, s=0.2)
    mix = min_eave_sel_bka(sc)
    assert mix.point_mass_at_zero == pytest.approx(0.8**5, rel=1e-14)
    cont, _ = quad(mix.pdf, 0.0, math.inf, limit=300)
    assert mix.point_mass_at_zero + cont == pytest.approx(1.0, rel=1e-7)
    assert mix.cdf(1e9) == pytest.approx(1.0, rel=1e-6)


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
    mix = min_eave_sel_bka(sc)
    assert (mins == np.inf).mean() == pytest.approx(
        mix.point_mass_at_zero, abs=0.003
    )
    x = 2.0
    emp = (mins[np.isfinite(mins)] <= x).mean() * np.isfinite(mins).mean()
    assert mix.point_mass_at_zero + emp == pytest.approx(mix.cdf(x), abs=0.003)


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
