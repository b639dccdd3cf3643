"""The fused exponential-integral kernel e^a Ei(-a).

The closed-form ergodic secrecy rates are built from terms of the shape
e^a * Ei(-a) with ``a`` up to the sum of channel rate parameters; the
fused evaluation avoids overflow of e^a for large ``a``.
"""

from __future__ import annotations

import math

import scipy.special as sc

from .errors import DomainError


def _e1_scaled_cf(a: float, maxiter: int = 200, tol: float = 1e-15) -> float:
    """e^a * E1(a) by the modified Lentz continued fraction, a > 0.

    E1(a) = e^-a / (a + 1 - 1/(a + 3 - 4/(a + 5 - 9/(...)))).
    """
    tiny = 1e-300
    b = a + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, maxiter):
        an = -i * i
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < tol:
            return h
    return h


def exp_scaled_ei(a: float) -> float:
    """Fused e^a * Ei(-a) for a > 0, overflow-free up to a = 1e4."""
    if a <= 0.0:
        raise DomainError("exp_scaled_ei requires a > 0")
    if a < 600.0:
        # exp(a) stays finite; exp1 is accurate down to tiny a
        return -float(math.exp(a) * sc.exp1(a))
    return -_e1_scaled_cf(a)

