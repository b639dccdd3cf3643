"""Composition enumeration, multinomials, partial fractions, harmonics.

The multinomial expansions of the order-statistic distributions iterate
over all integer compositions of a whole number into K nonnegative
parts; the high-SNR secrecy-rate forms need the partial-fraction
expansion of constant-numerator rational functions with repeated real
poles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import RateSeparationError

#: Largest n for which multinomial coefficients are computed.
MULTINOMIAL_MAX_N = 20


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

    Integer arithmetic throughout; ``n`` beyond
    :data:`MULTINOMIAL_MAX_N` is rejected rather than silently losing
    precision downstream.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > MULTINOMIAL_MAX_N:
        raise ValueError(f"multinomial(n={n}) exceeds supported n <= {MULTINOMIAL_MAX_N}")
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


@dataclass(frozen=True)
class PartialFractionExpansion:
    """Expansion of c / prod_k (x - p_k)^{m_k} into simple fractions.

    ``coefficients[k][l-1]`` multiplies 1/(x - poles[k][0])**l for
    l = 1..m_k.
    """

    numerator: float
    poles: tuple            # ((location, multiplicity), ...)
    coefficients: tuple     # tuple of tuples, one per pole

    def __call__(self, x: float) -> float:
        terms = []
        for (loc, mult), coefs in zip(self.poles, self.coefficients):
            d = x - loc
            terms.extend(c / d**l for l, c in enumerate(coefs, start=1))
        return math.fsum(terms)


def partial_fractions(numerator: float, poles: Sequence[tuple]) -> PartialFractionExpansion:
    """Partial fractions of ``numerator / prod_k (x - p_k)^{m_k}``.

    The coefficient of 1/(x - p_k)^l is the Taylor coefficient of order
    (m_k - l) of the cofactor g_k(x) = numerator / prod_{j != k}
    (x - p_j)^{m_j} about p_k.  The Taylor series is built from the
    exact power series of ln g_k (no numeric differentiation).
    """
    poles = [(float(p), int(m)) for p, m in poles]
    if any(m < 1 for _, m in poles):
        raise ValueError("multiplicities must be positive")
    locs = [p for p, _ in poles]
    scale = max(1.0, max(abs(p) for p in locs))
    for a in range(len(locs)):
        for b in range(a + 1, len(locs)):
            if abs(locs[a] - locs[b]) < 1e-12 * scale:
                raise RateSeparationError(f"coincident pole locations {locs[a]!r}, {locs[b]!r}")

    all_coefs = []
    for k, (pk, mk) in enumerate(poles):
        # g_k(pk + t) = g_k(pk) * exp(sum_r c_r t^r) with
        # c_r = sum_{j != k} -m_j (-1)^(r+1) / (r d_j^r), d_j = pk - p_j.
        g0 = numerator
        log_coefs = [0.0] * mk  # c_1 .. c_{mk-1} needed (index r-1)
        for j, (pj, mj) in enumerate(poles):
            if j == k:
                continue
            d = pk - pj
            g0 /= d**mj
            for r in range(1, mk):
                log_coefs[r - 1] += -mj * (-1.0) ** (r + 1) / (r * d**r)
        # exp of the power series: b_0 = 1, b_r = (1/r) sum i*c_i*b_{r-i}
        taylor = [1.0]
        for r in range(1, mk):
            taylor.append(
                math.fsum(i * log_coefs[i - 1] * taylor[r - i] for i in range(1, r + 1)) / r
            )
        coefs = tuple(g0 * taylor[mk - l] for l in range(1, mk + 1))
        all_coefs.append(coefs)

    return PartialFractionExpansion(
        numerator=float(numerator),
        poles=tuple(poles),
        coefficients=tuple(all_coefs),
    )

