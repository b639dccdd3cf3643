"""Link-SNR distributions and order statistics of the selected link.

Destination links are exponential; the MRC-combined eavesdropping SNR is
hypoexponential with distinct rates; backhaul uncertainty turns both
into Bernoulli-exponential mixtures with an explicit point mass at zero.
The selection rules induce min/max order statistics whose multinomial /
binomial expansions are precomputed here as (coefficient, rate) term
tables reused by the exact metrics.  The MIN-ES expansion depends only
on the number of i.i.d. draws n and the eavesdropper rates, so it is
cached per (n, rates); the backhaul reliability s and the destination
rate lambda_D enter the metrics only as scalar weights on these tables.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .combinatorics import enumerate_compositions, multinomial
from .errors import DomainError
from .scenario import Scenario, check_rate_separation


def _require_nonneg(x: float) -> None:
    if x < 0:
        raise DomainError(f"SNR values are nonnegative, got {x!r}")


def exp_pdf(x: float, rate: float) -> float:
    _require_nonneg(x)
    return rate * math.exp(-rate * x)


def exp_cdf(x: float, rate: float) -> float:
    """CDF of an exponential SNR, 1 - e^(-rate*x)."""
    _require_nonneg(x)
    return -math.expm1(-rate * x)


def hypoexp_weights(rates: Sequence[float]) -> tuple:
    """Survival-function weights w_k of the hypoexponential law.

    S(x) = sum_k w_k e^(-rate_k x) with
    w_k = prod_m rate_m / (rate_k * prod_{j != k} (rate_j - rate_k)).
    The weights alternate in sign and sum to one.  They are computed
    once per rate tuple and shared; rates that nearly coincide raise
    :class:`~txsecrecy.errors.RateSeparationError` on every call.
    """
    return _hypoexp_weights(tuple(rates))


@functools.lru_cache(maxsize=256)
def _hypoexp_weights(rates: tuple) -> tuple:
    check_rate_separation(rates)
    prod_all = math.prod(rates)
    weights = []
    for k, rk in enumerate(rates):
        denom = rk
        for j, rj in enumerate(rates):
            if j != k:
                denom *= rj - rk
        weights.append(prod_all / denom)
    return tuple(weights)


def hypoexp_pdf(x: float, rates: Sequence[float]) -> float:
    """Density of a sum of independent exponentials with distinct rates."""
    _require_nonneg(x)
    w = hypoexp_weights(rates)
    val = math.fsum(wk * rk * math.exp(-rk * x) for wk, rk in zip(w, rates))
    return max(val, 0.0)  # clip roundoff from the alternating sum


#: Below this value of x * max(rates), :func:`hypoexp_cdf` sums its Taylor
#: series instead of forming 1 - S(x), whose alternating weights cancel in
#: the left tail (off by 9.9e-8 relative at x = 2 for rates 0.25, 0.16,
#: 0.1, 0.063, 0.04, 0.025, where x * max(rates) = 0.5).  Measured against
#: 80-digit mpmath over rate sets with K = 1..6 (closely spaced, spread over
#: 15 dB): with the switch at 6 both routes stay within 6e-13 relative; the
#: series loses accuracy as x grows and 1 - S as F shrinks.  At the switch
#: 40 terms reach the 120-term sum in every set; 44 leave a margin.
_CDF_SERIES_BELOW = 6.0
_CDF_SERIES_TERMS = 44


def hypoexp_cdf(x: float, rates: Sequence[float]) -> float:
    """CDF of the hypoexponential law, accurate in the left tail.

    Near zero, F(x) = prod_k r_k * sum_j (-x)^j h_j(r) x^K / (K + j)!,
    with h_j the complete homogeneous symmetric polynomial of degree j
    in the K rates.
    """
    _require_nonneg(x)
    w = hypoexp_weights(rates)
    if x * max(rates) < _CDF_SERIES_BELOW:
        h = [1.0] + [0.0] * (_CDF_SERIES_TERMS - 1)
        for r in rates:
            for j in range(1, _CDF_SERIES_TERMS):
                h[j] += r * h[j - 1]
        k = len(rates)
        series = math.fsum(
            (-x) ** j * hj / math.factorial(k + j) for j, hj in enumerate(h)
        )
        return min(max(math.prod(rates) * x**k * series, 0.0), 1.0)
    sf = math.fsum(wk * math.exp(-rk * x) for wk, rk in zip(w, rates))
    return min(max(1.0 - sf, 0.0), 1.0)


def hypoexp_sf(x: float, rates: Sequence[float]) -> float:
    _require_nonneg(x)
    w = hypoexp_weights(rates)
    return math.fsum(wk * math.exp(-rk * x) for wk, rk in zip(w, rates))


@dataclass(frozen=True)
class HypoexpDist:
    """Sum of independent exponentials with pairwise distinct rates."""

    rates: tuple

    def __post_init__(self):
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        if any(r <= 0 for r in self.rates):
            raise ValueError("rates must be positive")
        check_rate_separation(self.rates)

    def pdf(self, x: float) -> float:
        return hypoexp_pdf(x, self.rates)

    def cdf(self, x: float) -> float:
        return hypoexp_cdf(x, self.rates)

    def sf(self, x: float) -> float:
        return hypoexp_sf(x, self.rates)

    @property
    def mean(self) -> float:
        return math.fsum(1.0 / r for r in self.rates)

    def rvs(self, size: int, rng: np.random.Generator) -> np.ndarray:
        out = np.zeros(size)
        for r in self.rates:
            out += rng.exponential(1.0 / r, size)
        return out


def bka_weight(n_tx: int, n: int, s: float) -> float:
    """Probability C(N,n)(1-s)^(N-n) s^n that exactly n of N backhaul links are up."""
    return math.comb(n_tx, n) * (1.0 - s) ** (n_tx - n) * s**n


#: Term tables kept by :func:`min_hypoexp_terms`: three full BKA sets (one
#: table per n = 1..N) of the at most 2,000 terms the metrics expand (N = 20
#: at K = 3), a few hundred kB, for a sweep over a few eavesdropper sets.
TERM_TABLE_CACHE_SIZE = 60


def min_hypoexp_terms(omega: int, rates: Sequence[float]) -> tuple:
    """Term table of the min of ``omega`` i.i.d. hypoexponential draws.

    The survival function of the minimum is S(x)^omega; the multinomial
    theorem expands it into sum_i c_i e^(-lam_i x) over all compositions
    i of omega into K parts, with c_i = multinomial * prod_k w_k^{i_k}
    and lam_i the inner product of the composition with the rates.
    Returns (coefficients, combined_rates) as parallel tuples.

    The table depends on neither the backhaul reliability nor the
    destination rate, which the metrics apply as scalar weights.  It is
    built once per (omega, rates) and kept in a bounded cache of
    :data:`TERM_TABLE_CACHE_SIZE` tables; callers share the returned
    immutable tuples.
    """
    return _min_hypoexp_table(omega, tuple(rates))[0]


@functools.lru_cache(maxsize=TERM_TABLE_CACHE_SIZE)
def _min_hypoexp_table(omega: int, rates: tuple) -> tuple:
    """((coeffs, lams), sum_i |c_i|) of :func:`min_hypoexp_terms`.

    The absolute sum scales the rounding bound of the table's
    alternating sums; it is kept beside the table, so readers of the
    bound look up nothing more.
    """
    w = hypoexp_weights(rates)
    coeffs, lams = [], []
    for comp in enumerate_compositions(omega, len(rates)):
        c = float(multinomial(omega, comp))
        for wk, ik in zip(w, comp):
            c *= wk**ik
        coeffs.append(c)
        lams.append(math.fsum(ik * rk for ik, rk in zip(comp, rates)))
    return (tuple(coeffs), tuple(lams)), math.fsum(abs(c) for c in coeffs)


def min_eave_sel_pdf(x: float, scenario: Scenario) -> float:
    """Density N f_1(x) S_1(x)^(N-1) of the minimum eavesdropping SNR over N links.

    Formed from the single-link density and survival function, so it
    needs no multinomial table and holds at any N.
    """
    n_tx = scenario.n_transmitters
    sf = hypoexp_sf(x, scenario.eave_rates)
    return n_tx * hypoexp_pdf(x, scenario.eave_rates) * sf ** (n_tx - 1)


def min_eave_sel_cdf(x: float, scenario: Scenario) -> float:
    """CDF 1 - (1 - F_1(x))^N of the minimum eavesdropping SNR over N links.

    Formed from the single-link CDF F_1 as -expm1(N log1p(-F_1)), which
    keeps its relative accuracy in the left tail.
    """
    f1 = hypoexp_cdf(x, scenario.eave_rates)
    if f1 == 1.0:
        return 1.0
    return -math.expm1(scenario.n_transmitters * math.log1p(-f1))


def min_eave_sel_bka_terms(scenario: Scenario) -> tuple:
    """Continuous-part term table of the BKA minimum eavesdropping SNR.

    Conditions on the number n of active backhaul links: with
    probability C(N,n)(1-s)^(N-n) s^n the minimum runs over n i.i.d.
    hypoexponentials, whose expansion comes from
    :func:`min_hypoexp_terms`; n = 0 contributes the atom (1-s)^N.
    """
    n_tx = scenario.n_transmitters
    s = scenario.backhaul_reliability
    coeffs, lams = [], []
    for n in range(1, n_tx + 1):
        p_n = bka_weight(n_tx, n, s)
        cs, ls = min_hypoexp_terms(n, scenario.eave_rates)
        coeffs.extend(p_n * c for c in cs)
        lams.extend(ls)
    return tuple(coeffs), tuple(lams)


def max_dest_sel_cdf(x: float, scenario: Scenario) -> float:
    """CDF (1 - e^(-lambda_D x))^N of the max destination SNR over N links."""
    _require_nonneg(x)
    return (-math.expm1(-scenario.dest_rate * x)) ** scenario.n_transmitters


def max_dest_sel_bka_cdf(x: float, scenario: Scenario) -> float:
    """CDF (1 - s e^(-lambda_D x))^N of the max destination SNR over the active set.

    A transmitter whose backhaul is down contributes SNR 0.  The base is
    formed as (1 - s) + s (1 - e^(-lambda_D x)), a sum of nonnegative
    parts, so the power keeps its relative accuracy as x -> 0 at any s.
    """
    _require_nonneg(x)
    s = scenario.backhaul_reliability
    return ((1.0 - s) - s * math.expm1(-scenario.dest_rate * x)) ** scenario.n_transmitters
