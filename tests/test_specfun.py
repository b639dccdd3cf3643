import math

import numpy as np
import pytest
import scipy.special as sc
from scipy.integrate import quad

from txsecrecy.errors import DomainError
from txsecrecy.specfun import _CF_FROM, _e1_scaled_cf, exp_scaled_ei


def test_ei_known_value():
    # Ei(-1) = -E1(1) = -0.21938393439552026..., through the fused kernel
    assert exp_scaled_ei(1.0) / math.e == pytest.approx(-0.21938393439552026, rel=1e-12)


def test_exp_scaled_ei_small_argument():
    assert exp_scaled_ei(1.0) == pytest.approx(math.e * sc.expi(-1.0), rel=1e-12)


def test_exp_scaled_ei_matches_quadrature():
    # e^a Ei(-a) = -int_0^inf e^{-a t} / (1 + t) dt
    for a in (0.05, 0.5, 3.0, 40.0):
        ref, _ = quad(lambda t: math.exp(-a * t) / (1.0 + t), 0.0, math.inf)
        assert exp_scaled_ei(a) == pytest.approx(-ref, rel=1e-10)


def test_exp_scaled_ei_large_argument_no_overflow():
    # asymptotics: e^a Ei(-a) ~ -1/a + 1/a^2 for large a
    for a in (700.0, 5_000.0, 1e4):
        val = exp_scaled_ei(a)
        approx = -1.0 / a + 1.0 / a**2 - 2.0 / a**3
        assert math.isfinite(val)
        assert val == pytest.approx(approx, rel=1e-6)


def test_exp_scaled_ei_branches_agree_at_switch():
    # both routes evaluated at the same point
    a = 600.0
    assert -_e1_scaled_cf(a) == pytest.approx(
        -math.exp(a) * sc.exp1(a), rel=1e-13
    )


def test_exp_scaled_ei_domain():
    with pytest.raises(DomainError):
        exp_scaled_ei(0.0)
    with pytest.raises(DomainError):
        exp_scaled_ei(-2.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            exp_scaled_ei(bad)


def test_exp_scaled_e1_forms_match_mpmath():
    # -exp_scaled_ei within 2e-15 of a 40-digit e^a E1(a) on a log grid
    # over [1e-300, 1e6] and at and beside every range boundary
    mp = pytest.importorskip("mpmath")
    edges = [1.0] + [2.0**e for e in range(1, 7)]
    assert edges[-1] == _CF_FROM
    beside = [x for b in edges for x in (math.nextafter(b, 0.0), b, math.nextafter(b, math.inf))]
    grid = np.concatenate([np.logspace(-300.0, 6.0, 1531), beside])
    with mp.workdps(40):
        for a in grid.tolist():
            want = mp.exp(a) * mp.e1(a)
            assert abs(-exp_scaled_ei(a) - want) <= 2e-15 * want, a
