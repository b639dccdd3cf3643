import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txsecrecy.combinatorics import enumerate_compositions, multinomial


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
        multinomial(3, (1, 1))
    with pytest.raises(ValueError):
        multinomial(3, (4, -1))
