"""High-SNR behavior: SOP saturation, diversity order, ESR asymptotes.

As the destination SNR grows, the SOP saturates at (1-s) without
backhaul activity knowledge and at (1-s)^N with it, independent of the
scheme and of the eavesdroppers.  With perfect backhaul the SOP instead
decays polynomially with a scheme-dependent diversity order.  The ESR
grows along a straight line in ln(1/lambda_D) whose slope depends only
on s (and N in the BKA case), for every scheme and every number of
eavesdroppers; the power offset is scheme specific.  For MIN-ES and TTS,
which pick their link from one side only, it is E[ln(1 + E)] over the
selected eavesdropping SNR less E[ln(lambda_D D)] over the selected
destination SNR, each an integral of nonnegative probabilities; OTS
integrates the Laplace transform of one link's eavesdropping SNR.  Each is
computed once per (N, eavesdroppers, a) and holds at any N.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import _any_of, _log_laplace, _thinning, hypoexp_cdf
from .errors import InvalidRegimeError, QuadratureError, UnsupportedClosedFormError
from .metrics import LN2, _adaptive_gk15, _min_eave_integral, sop
from .scenario import Knowledge, Scenario, Scheme, SchemeSpec

_EULER = 0.5772156649015329


@dataclass(frozen=True)
class SopAsymptote:
    value: float
    regime_note: str


@dataclass(frozen=True)
class EsrAsymptote:
    """Straight-line ESR in ln(1/lambda_D): slope * (ln(1/lambda_D) - offset)."""

    slope: float
    offset: float

    def at_dest_rate(self, dest_rate: float) -> float:
        return self.slope * (math.log(1.0 / dest_rate) - self.offset)

    @property
    def offset_db(self) -> float:
        """Offset expressed on the dB SNR axis."""
        return self.offset * 10.0 / math.log(10.0)


@dataclass(frozen=True)
class DiversityFit:
    estimated_order: float
    fit_window_db: tuple
    analytic_order: int


def sop_asymptote(scenario: Scenario, spec: SchemeSpec) -> SopAsymptote:
    """High-SNR SOP saturation level, the undelivered mass; scheme- and K-independent."""
    a, p = _thinning(spec.knowledge, scenario.backhaul_reliability)
    floor = "(1-s)" if spec.knowledge is Knowledge.BKU else "(1-s)^N"
    note = f"{spec.knowledge.value} saturation {floor}, independent of scheme and K"
    return SopAsymptote((1.0 - p) + p * (1.0 - a) ** scenario.n_transmitters, note)


def nzsr_asymptote(scenario: Scenario, spec: SchemeSpec) -> float:
    return 1.0 - sop_asymptote(scenario, spec).value


def diversity_order_analytic(spec: SchemeSpec, n_transmitters: int) -> int:
    """Diversity order with perfect backhaul: 1 for MIN-ES, N otherwise."""
    if spec.scheme is Scheme.MIN_ES:
        return 1
    return n_transmitters


def diversity_order_fit(
    scenario: Scenario,
    spec: SchemeSpec,
    window_db: tuple = (50.0, 70.0),
    n_points: int = 9,
) -> DiversityFit:
    """Least-squares slope of log10(SOP) against log10(1/lambda_D).

    Requires perfect backhaul; with s < 1 the SOP saturates and the
    log-log slope measures the saturation floor, not the diversity.
    """
    if scenario.backhaul_reliability < 1.0:
        raise InvalidRegimeError("diversity order is defined only for s = 1")
    lo, hi = window_db
    if not hi > lo:
        raise ValueError("fit window must have positive width")
    snr_db = np.linspace(lo, hi, n_points)
    log_sop = np.array(
        [math.log10(sop(scenario.with_dest_snr_db(v), spec)) for v in snr_db]
    )
    log_snr = snr_db / 10.0  # log10 of linear SNR
    slope = np.polyfit(log_snr, log_sop, 1)[0]
    return DiversityFit(
        estimated_order=float(-slope),
        fit_window_db=(lo, hi),
        analytic_order=diversity_order_analytic(spec, scenario.n_transmitters),
    )


def sop_high_snr_approx(scenario: Scenario, spec: SchemeSpec) -> float:
    """First-order high-SNR SOP with perfect backhaul.

    Linearizes the destination CDF about zero, so the approximation per
    scheme reduces to moments of the eavesdropping SNR:

    - MIN-ES: lambda_D * (rho * E[min SE] + rho - 1)
    - TTS:    lambda_D^N * E[(rho(SE+1)-1)^N]
    - OTS:    (lambda_D * (rho * E[SE] + rho - 1))^N

    The MIN-ES and TTS moments are unexpanded integrals over the (least)
    eavesdropping SNR, :func:`~txsecrecy.metrics._min_eave_integral`.
    """
    if scenario.backhaul_reliability < 1.0:
        raise InvalidRegimeError("high-SNR SOP approximation assumes s = 1")
    lam_d, rho = scenario.dest_rate, scenario.rho
    lam_e, n_tx = scenario.eave_rates, scenario.n_transmitters
    if spec.scheme is Scheme.MIN_ES:
        mean_min = _min_eave_integral(lam_e, n_tx, 1.0, lambda x: x)
        return lam_d * (rho * mean_min + rho - 1.0)
    if spec.scheme is Scheme.OTS:
        mean_se = math.fsum(1.0 / lk for lk in lam_e)
        return (lam_d * (rho * mean_se + rho - 1.0)) ** n_tx
    moment = _min_eave_integral(lam_e, 1, 1.0, lambda x: (rho * (x + 1.0) - 1.0) ** n_tx)
    return lam_d**n_tx * moment


def esr_asymptote(scenario: Scenario, spec: SchemeSpec) -> EsrAsymptote:
    """Slope and power offset of the high-SNR ESR line, for every scheme and K.

    As lambda_D -> 0 the ESR in nats is
    E[1(D > 0) (ln(lambda_D D) - ln(1 + E))] + norm ln(1/lambda_D) + o(1)
    over the selected destination SNR D (0 where the backhaul is down)
    and eavesdropping SNR E, where norm = P(D > 0), the delivered mass
    p (1 - (1-a)^N), is s (BKU) or 1 - (1-s)^N (BKA).  So the slope is
    norm / ln 2, the same for every scheme and every number of
    eavesdroppers, and the offset is
    E[ln(1 + E)] - E[ln(lambda_D D)] given D > 0.  MIN-ES and TTS pick
    their link from one side only, so the two means are taken apart
    (:func:`_decoupled_offset`); for OTS the offset is one per order n of
    the selection power form, summed by the single integral of
    :func:`_ots_offset` over the Laplace transform of one link's
    eavesdropping SNR, with no term table or weights.  Both hold at any N.
    """
    n_tx, rates = scenario.n_transmitters, scenario.eave_rates
    a, p = _thinning(spec.knowledge, scenario.backhaul_reliability)
    if spec.scheme is Scheme.OTS:
        offset = _EULER + _ots_offset(n_tx, rates, a)
    else:
        offset = _decoupled_offset(spec.scheme, n_tx, rates, a)
    return EsrAsymptote(p * (1.0 - (1.0 - a) ** n_tx) / LN2, offset)


@functools.lru_cache(maxsize=64)
def _decoupled_offset(scheme: Scheme, n_tx: int, rates: tuple, a: float) -> float:
    """MIN-ES or TTS line offset, E[ln(1 + E)] - E[ln(lambda_D D)] given D > 0.

    a = 1 (BKU) or s (BKA).  MIN-ES takes the least eavesdropping SNR
    over the N (BKA: active) links and D is one exponential link, so
    E[ln(lambda_D D)] = -gamma; TTS takes one link's eavesdropping SNR
    and D is the (BKA: thinned) best of N exponential links.  The offset
    depends on neither lambda_D nor, for BKU, s.
    """
    if scheme is Scheme.MIN_ES:
        return _mean_log1p_least(n_tx, rates, a) + _EULER
    return _mean_log1p_least(1, rates, 1.0) - _mean_log_max(n_tx, a)


def _mean_log1p_least(n: int, rates: tuple, a: float) -> float:
    """E[ln(1 + X)] over the least X of n eavesdropping SNRs, each link present with probability a.

    Given that a link is present, E[ln(1 + X)] = int_0^inf P(X > t) dv
    with t = e^v - 1, and head P(X > t) = (1 - a F_1(t))^n - (1-a)^n,
    head = 1 - (1-a)^n, from one link's CDF F_1.  By Chernoff,
    P(X > t) <= 2^K e^{-r t / 2} with r the least rate, so the range
    stops at t = 2 (40 + K ln 2 + ln n) / r.
    """
    head = 1.0 - (1.0 - a) ** n
    t_max = 2.0 * (40.0 + len(rates) * math.log(2.0) + math.log(n)) / min(rates)

    def tail(v):
        return _thinned_gain(1.0 - hypoexp_cdf(np.expm1(v), rates), n, a) / head

    return _offset_integral(tail, 0.0, math.log1p(t_max))


def _mean_log_max(n: int, a: float) -> float:
    """E[ln M] for the largest M of n unit exponentials, each present with probability a.

    Given that one is present, E[ln M] = int_1^inf P(M > t) / t dt
    - int_0^1 P(M <= t) / t dt, two integrals of nonnegative parts in
    u = ln t, with head P(M > t) = 1 - (1 - a e^{-t})^n and
    head P(M <= t) = (1 - a e^{-t})^n - (1-a)^n, head = 1 - (1-a)^n.
    As P(M > t) <= n e^{-t} and P(M <= t) <= n t, the ranges
    u in [0, ln(40 + ln n)] and [-40 - ln n, 0] leave out about e^-40.
    """
    head = 1.0 - (1.0 - a) ** n

    def above(u):
        return _any_of(np.exp(-np.exp(u)), n, a) / head

    def below(u):
        return _thinned_gain(-np.expm1(-np.exp(u)), n, a) / head

    log_n = math.log(n)
    return (_offset_integral(above, 0.0, math.log(40.0 + log_n))
            - _offset_integral(below, -40.0 - log_n, 0.0))


def _thinned_gain(q, n: int, a: float):
    """(1 - a + a q)^n - (1-a)^n on an array q of probabilities.

    The chance that some of n links, each present with probability a,
    is present and every present one has its event of probability q.
    Formed by expm1/log1p where the difference cancels.
    """
    if a == 1.0:
        return q**n
    r = np.minimum(a * q / (1.0 - a), 1.0)
    grown = np.expm1(n * np.log1p(r))
    return np.where(r < 1.0, (1.0 - a) ** n * grown, (1.0 - a + a * q) ** n - (1.0 - a) ** n)


def _offset_integral(f, lo: float, hi: float) -> float:
    """int_lo^hi f(u) du on the GK15 rule, to 1e-14 relative or 1e-15 absolute.

    Raises :class:`QuadratureError` unless the value is finite and its
    error estimate at most 1e-10.
    """
    val, err = _adaptive_gk15(lambda x: f(lo + x), hi - lo, 1e-15, 1e-14)
    if not math.isfinite(val) or err > 1e-10:
        raise QuadratureError(f"ESR line offset integral did not converge: value={val}, err={err}")
    return val


@functools.lru_cache(maxsize=64)
def _ots_offset(n_tx: int, rates: tuple, a: float) -> float:
    """OTS line offset minus gamma, sum_n w_n k_n / norm, as one integral.

    Order n of the selection power form has weight w_n = C(N,n)
    (-1)^{n+1} s (BKU) or s^n (BKA) and, by Frullani, constant
    k_n = int_0^inf (e^{-t} - (e^{-t} T(t))^n) / t dt, where
    T(t) = prod_k r_k / (r_k + t) is the Laplace transform of one link's
    eavesdropping SNR (:func:`~txsecrecy.channel._log_laplace`, rates
    r_k).  The binomial sum over n folds into

        int_0^inf g(t) / t dt / head,
        g(t) = (1 - a e^{-t} T)^N - (1-a)^N - head (1 - e^{-t}),

    with a = 1 (BKU) or s (BKA) and head = 1 - (1-a)^N, so it depends on
    neither lambda_D nor, for BKU, s.  1 - e^{-t} T = -expm1(-t + ln T)
    reads no weights, so it keeps its relative accuracy at any rate
    spacing, and g is integrated in u = ln t by the ESR's GK15 rule; as
    |g| <= t head (1 + N (1 + E[SE])) and |g| <= N head e^{-t}, the range
    t in [e^-40 / (1 + N (1 + E[SE])), 40 + ln(1 + N)] leaves out less
    than e^-40 head.  Raises :class:`QuadratureError` if the value is not
    finite or its error estimate exceeds 1e-10 head.
    """
    head = 1.0 - (1.0 - a) ** n_tx
    lo = -40.0 - math.log1p(n_tx * (1.0 + math.fsum(1.0 / rk for rk in rates)))
    hi = math.log(40.0 + math.log1p(n_tx))

    def g(u):
        t = np.exp(lo + u)
        miss = -np.expm1(-t + _log_laplace(t, rates))
        return _thinned_gain(miss, n_tx, a) + head * np.expm1(-t)

    val, err = _adaptive_gk15(g, hi - lo, 1e-15 * head, 1e-14)
    if not math.isfinite(val) or err > 1e-10 * head:
        raise QuadratureError(f"OTS offset integral did not converge: value={val}, err={err}")
    return val / head


def esr_high_snr_ots(scenario: Scenario, spec: SchemeSpec) -> float:
    """High-SNR ergodic secrecy rate of OTS for any K.

    The :func:`esr_asymptote` line at the scenario's own lambda_D: exact
    in the lambda_D -> 0 limit for fixed eavesdropper rates, and reducing
    to the harmonic-number form when additionally lambda_E -> 0.
    """
    if spec.scheme is not Scheme.OTS:
        raise UnsupportedClosedFormError("esr_high_snr_ots applies to OTS only")
    return esr_asymptote(scenario, spec).at_dest_rate(scenario.dest_rate)
