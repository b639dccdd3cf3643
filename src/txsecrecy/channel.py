"""Link-SNR distributions and order statistics of the selected link.

Destination links are exponential; the MRC-combined eavesdropping SNR is
hypoexponential with distinct rates.  Backhaul enters every scheme by
one rule, :func:`_thinning`; a slot whose pick is not delivered has
secrecy SNR ratio 0, a point mass in every ratio CDF.  The selection
rules induce min/max order statistics whose multinomial / binomial
expansions are precomputed here as (coefficient, rate) term tables
reused by the exact metrics.  The MIN-ES expansion depends only
on the number of i.i.d. draws n and the eavesdropper rates, so it is
cached per (n, rates); the backhaul reliability s and the destination
rate lambda_D enter the metrics only as scalar weights on these tables.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .combinatorics import enumerate_compositions, multinomial
from .errors import DomainError
from .scenario import Knowledge, Scenario, check_rate_separation


def _require_nonneg(x: float) -> None:
    if x < 0:
        raise DomainError(f"SNR values are nonnegative, got {x!r}")


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


def hypoexp_cdf(x, rates: Sequence[float]):
    """CDF of the hypoexponential law, accurate in the left tail; elementwise on an array x.

    Below x max(rates) = 6, F(x) = prod_k r_k x^K sum_j (-x)^j h_j(r) / (K + j)!,
    with h_j the complete homogeneous symmetric polynomial of degree j in
    the K rates, summed in Horner form; above it F = 1 - sum_k w_k e^{-r_k x}.
    """
    xs = np.asarray(x, dtype=float)
    _require_nonneg(float(xs.min(initial=0.0)))
    rates = tuple(rates)
    out = np.empty(xs.shape)
    low = xs * max(rates) < _CDF_SERIES_BELOW
    xl = xs[low]
    coeffs = _cdf_series(rates)
    series, neg = coeffs[0], -xl
    for c in coeffs[1:]:
        series = series * neg + c
    out[low] = math.prod(rates) * xl ** len(rates) * series
    sf = np.exp(-xs[~low][:, None] * np.array(rates)) * np.array(hypoexp_weights(rates))
    out[~low] = 1.0 - sf.sum(axis=1)
    out = np.clip(out, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


@functools.lru_cache(maxsize=256)
def _cdf_series(rates: tuple) -> tuple:
    """h_j(r) / (K + j)! of :func:`hypoexp_cdf`'s series, highest degree j first."""
    h = [1.0] + [0.0] * (_CDF_SERIES_TERMS - 1)
    for r in rates:
        for j in range(1, _CDF_SERIES_TERMS):
            h[j] += r * h[j - 1]
    return tuple(hj / math.factorial(len(rates) + j) for j, hj in reversed(list(enumerate(h))))


def hypoexp_sf(x: float, rates: Sequence[float]) -> float:
    """Survival function sum_k w_k e^(-rate_k x) of the hypoexponential law at a float x."""
    _require_nonneg(x)
    w = hypoexp_weights(rates)
    return math.fsum(wk * math.exp(-rk * x) for wk, rk in zip(w, rates))


def _log_laplace(theta, rates: Sequence[float]):
    """log E[e^(-theta X)] = -sum_k log1p(theta / rate_k) of the hypoexponential law.

    The Laplace transform prod_k rate_k / (rate_k + theta) of one link's
    MRC eavesdropping SNR, a product of factors in (0, 1] for theta >= 0:
    it reads no weights, so it keeps its relative accuracy at any rate
    spacing.  theta is a float or an array, taken elementwise.
    """
    return -np.log1p(np.divide.outer(theta, rates)).sum(axis=-1)


def _thinning(knowledge: Knowledge, s: float) -> tuple:
    """(a, p): the chances that a link takes part in the selection and that the pick delivers.

    BKU is (1, s), BKA (s, 1).  A slot is undelivered, with ratio 0, with
    probability (1-p) + p (1-a)^N, and delivers with p (1 - (1-a)^N).
    """
    return (1.0, s) if knowledge is Knowledge.BKU else (s, 1.0)


def bka_weight(n_tx: int, n: int, s: float) -> float:
    """Probability C(N,n)(1-s)^(N-n) s^n that exactly n of N backhaul links are up."""
    return math.comb(n_tx, n) * (1.0 - s) ** (n_tx - n) * s**n


#: Term tables kept by :func:`min_hypoexp_terms`: three full BKA sets (one
#: table per n = 1..N) at N = 20, for a sweep over a few eavesdropper sets.
#: The metrics expand no table above 300 terms, so the cache holds at most
#: 18,000 terms, about 1 MB.
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


def _any_of(p, n: int, a: float):
    """1 - (1 - a p)^n: some of n independent events, each of probability a p, occurs.

    Formed as -expm1(n log1p(-a p)), which keeps its relative accuracy
    as p -> 0; a p = 1 gives 1.  p is a float or an array.
    """
    with np.errstate(divide="ignore"):
        return -np.expm1(n * np.log1p(-a * np.asarray(p)))


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
