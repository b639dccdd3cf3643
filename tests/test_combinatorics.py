import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txsecrecy.combinatorics import (
    MULTINOMIAL_MAX_N,
    enumerate_compositions,
    harmonic,
    multinomial,
    partial_fractions,
)
from txsecrecy.errors import RateSeparationError


def test_compositions_small_case():
    assert list(enumerate_compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]


def test_composition_count_matches_stars_and_bars():
    assert len(list(enumerate_compositions(5, 3))) == math.comb(7, 2) == 21


def test_compositions_match_brute_force():
    brute = sorted(
        c for c in itertools.product(range(5), repeat=3) if sum(c) == 4
    )
    assert sorted(enumerate_compositions(4, 3)) == brute


@given(st.integers(0, 8), st.integers(1, 4))
@settings(max_examples=50, deadline=None)
def test_compositions_complete_and_distinct(omega, k):
    comps = list(enumerate_compositions(omega, k))
    assert len(comps) == math.comb(omega + k - 1, k - 1)
    assert len(set(comps)) == len(comps)
    assert all(sum(c) == omega and len(c) == k and min(c) >= 0 for c in comps)
    assert comps == sorted(comps)  # lexicographic


def test_multinomial_values():
    assert multinomial(10, (3, 3, 4)) == 4200
    assert multinomial(0, (0, 0)) == 1
    assert multinomial(4, (4,)) == 1


@given(st.integers(1, 10), st.integers(1, 4))
@settings(max_examples=50, deadline=None)
def test_multinomial_theorem_row_sum(n, k):
    # sum over compositions of the multinomial coefficients is k^n
    total = sum(multinomial(n, c) for c in enumerate_compositions(n, k))
    assert total == k**n


def test_multinomial_rejects_bad_input():
    with pytest.raises(ValueError):
        multinomial(MULTINOMIAL_MAX_N + 1, (MULTINOMIAL_MAX_N + 1,))
    with pytest.raises(ValueError):
        multinomial(3, (1, 1))
    with pytest.raises(ValueError):
        multinomial(3, (4, -1))


def test_harmonic():
    assert harmonic(0) == 0.0
    assert harmonic(1) == 1.0
    assert harmonic(4) == pytest.approx(25.0 / 12.0, rel=1e-15)


def test_partial_fractions_simple_poles():
    # 1/((x-1)(x+2)) = (1/3)/(x-1) - (1/3)/(x+2)
    pfe = partial_fractions(1.0, [(1.0, 1), (-2.0, 1)])
    coefs = dict(zip((p for p, _ in pfe.poles), pfe.coefficients))
    assert coefs[1.0][0] == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert coefs[-2.0][0] == pytest.approx(-1.0 / 3.0, rel=1e-14)


def test_partial_fractions_repeated_pole_reconstructs():
    pfe = partial_fractions(2.5, [(0.0, 1), (-1.5, 3), (-4.0, 2)])
    for x in (1.0, 2.0, 3.7, 10.0):
        direct = 2.5 / (x * (x + 1.5) ** 3 * (x + 4.0) ** 2)
        assert pfe(x) == pytest.approx(direct, rel=1e-12)


def test_partial_fractions_simple_coefficients_sum_to_zero():
    # rational functions decaying faster than 1/x have cancelling log parts
    pfe = partial_fractions(1.0, [(0.0, 1), (-2.0, 2)])
    total = math.fsum(c[0] for c in pfe.coefficients)
    assert abs(total) < 1e-14


def test_partial_fractions_coincident_poles_rejected():
    with pytest.raises(RateSeparationError):
        partial_fractions(1.0, [(1.0, 1), (1.0 + 1e-15, 1)])

