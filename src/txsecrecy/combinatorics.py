"""Composition enumeration, multinomials, harmonics.

The multinomial expansions of the order-statistic distributions iterate
over all integer compositions of a whole number into K nonnegative
parts.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

def enumerate_compositions(omega: int, k: int) -> Iterator[tuple]:
    """Yield all compositions of ``omega`` into ``k`` nonnegative parts.

    Compositions are produced in lexicographic order; there are
    C(omega + k - 1, k - 1) of them (stars and bars).
    """
    if omega < 0:
        raise ValueError("omega must be nonnegative")
    if k < 1:
        raise ValueError("k must be positive")
    if k == 1:
        yield (omega,)
        return
    for first in range(omega + 1):
        for rest in enumerate_compositions(omega - first, k - 1):
            yield (first,) + rest


def multinomial(n: int, parts: Sequence[int]) -> int:
    """Exact multinomial coefficient n! / (i_1! ... i_K!).

    Integer arithmetic throughout, so exact at any ``n``.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if any(p < 0 for p in parts):
        raise ValueError("parts must be nonnegative")
    if sum(parts) != n:
        raise ValueError(f"parts {tuple(parts)} do not sum to n={n}")
    out = math.factorial(n)
    for p in parts:
        out //= math.factorial(p)
    return out


def harmonic(n: int) -> float:
    """n-th harmonic number, with H_0 = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.fsum(1.0 / j for j in range(1, n + 1))
