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
from typing import Callable, Sequence

import numpy as np

from .combinatorics import MULTINOMIAL_MAX_N, enumerate_compositions, multinomial
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
    The weights alternate in sign and sum to one.
    """
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


#: Below this value of x * max(rates), 1 - S(x) has cancelled to rounding
#: noise (it reads 1.1e-16 at x = 0 for rates 1, 2, 5 and 0 just above),
#: so :func:`hypoexp_cdf` sums its Taylor series instead.  There every
#: series term is at most 0.5^j / j! of the first, so 20 terms suffice.
_CDF_SERIES_BELOW = 0.5
_CDF_SERIES_TERMS = 20


def hypoexp_cdf(x: float, rates: Sequence[float]) -> float:
    """CDF of the hypoexponential law, accurate to a few ulps as x -> 0.

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


@dataclass(frozen=True)
class MixtureDist:
    """Point mass at zero plus a continuous part (backhaul down / up)."""

    point_mass_at_zero: float
    continuous_pdf: Callable[[float], float]
    continuous_cdf: Callable[[float], float]

    def pdf(self, x: float) -> float:
        """Density of the continuous part only; the atom is separate."""
        return self.continuous_pdf(x)

    def cdf(self, x: float) -> float:
        _require_nonneg(x)
        return self.point_mass_at_zero + self.continuous_cdf(x)


def bka_weight(n_tx: int, n: int, s: float) -> float:
    """Probability C(N,n)(1-s)^(N-n) s^n that exactly n of N backhaul links are up."""
    return math.comb(n_tx, n) * (1.0 - s) ** (n_tx - n) * s**n


#: Term tables kept by :func:`min_hypoexp_terms`: three full BKA sets (one
#: table per active count n = 1..N) for N up to MULTINOMIAL_MAX_N, so a
#: sweep alternating between a few eavesdropper configurations keeps all
#: of them.  The largest set (N = 20, K = 6) holds 230,229 terms, ~15 MB.
TERM_TABLE_CACHE_SIZE = 3 * MULTINOMIAL_MAX_N


def check_expansion_order(omega: int) -> None:
    """Raise :class:`DomainError` if the min-of-``omega`` expansion is unsupported.

    The multinomial coefficients are exact only up to
    :data:`~txsecrecy.combinatorics.MULTINOMIAL_MAX_N` draws.
    """
    if omega > MULTINOMIAL_MAX_N:
        raise DomainError(
            f"the MIN-ES expansion supports at most {MULTINOMIAL_MAX_N} "
            f"transmitters, got {omega}"
        )


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
    check_expansion_order(omega)
    return _min_hypoexp_table(omega, tuple(rates))


@functools.lru_cache(maxsize=TERM_TABLE_CACHE_SIZE)
def _min_hypoexp_table(omega: int, rates: tuple) -> tuple:
    w = hypoexp_weights(rates)
    coeffs, lams = [], []
    for comp in enumerate_compositions(omega, len(rates)):
        c = float(multinomial(omega, comp))
        for wk, ik in zip(w, comp):
            c *= wk**ik
        coeffs.append(c)
        lams.append(math.fsum(ik * rk for ik, rk in zip(comp, rates)))
    return tuple(coeffs), tuple(lams)


def min_eave_sel_pdf(x: float, scenario: Scenario) -> float:
    """Density of the minimum MRC eavesdropping SNR over all N transmitters."""
    _require_nonneg(x)
    coeffs, lams = min_hypoexp_terms(scenario.n_transmitters, scenario.eave_rates)
    val = math.fsum(c * lam * math.exp(-lam * x) for c, lam in zip(coeffs, lams))
    return max(val, 0.0)


def min_eave_sel_cdf(x: float, scenario: Scenario) -> float:
    _require_nonneg(x)
    coeffs, lams = min_hypoexp_terms(scenario.n_transmitters, scenario.eave_rates)
    sf = math.fsum(c * math.exp(-lam * x) for c, lam in zip(coeffs, lams))
    return min(max(1.0 - sf, 0.0), 1.0)


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


def min_eave_sel_bka(scenario: Scenario) -> MixtureDist:
    """BKA minimum eavesdropping SNR: atom (1-s)^N plus continuous part."""
    atom = (1.0 - scenario.backhaul_reliability) ** scenario.n_transmitters
    coeffs, lams = min_eave_sel_bka_terms(scenario)

    def cont_pdf(x, _c=coeffs, _l=lams):
        _require_nonneg(x)
        return math.fsum(c * lam * math.exp(-lam * x) for c, lam in zip(_c, _l))

    def cont_cdf(x, _c=coeffs, _l=lams):
        _require_nonneg(x)
        return math.fsum(c * -math.expm1(-lam * x) for c, lam in zip(_c, _l))

    return MixtureDist(atom, cont_pdf, cont_cdf)


def min_eave_sel_bka_pdf(x: float, scenario: Scenario) -> float:
    """Continuous-part density of the BKA minimum eavesdropping SNR."""
    return min_eave_sel_bka(scenario).pdf(x)


def max_dest_sel_cdf(x: float, scenario: Scenario) -> float:
    """CDF of the max destination SNR over N links (binomial expansion)."""
    _require_nonneg(x)
    n_tx = scenario.n_transmitters
    lam_d = scenario.dest_rate
    acc = math.fsum(
        math.comb(n_tx, n) * (-1.0) ** (n + 1) * math.exp(-n * lam_d * x)
        for n in range(1, n_tx + 1)
    )
    return min(max(1.0 - acc, 0.0), 1.0)


def max_dest_sel_bka_cdf(x: float, scenario: Scenario) -> float:
    """CDF of the max destination SNR over the active set (double binomial)."""
    _require_nonneg(x)
    n_tx = scenario.n_transmitters
    s = scenario.backhaul_reliability
    lam_d = scenario.dest_rate
    terms = []
    for n in range(1, n_tx + 1):
        p_n = bka_weight(n_tx, n, s)
        for q in range(1, n + 1):
            terms.append(
                p_n * math.comb(n, q) * (-1.0) ** (q + 1) * math.exp(-q * lam_d * x)
            )
    return min(max(1.0 - math.fsum(terms), 0.0), 1.0)
