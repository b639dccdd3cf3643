"""High-SNR behavior: SOP saturation, diversity order, ESR asymptotes.

As the destination SNR grows, the SOP saturates at (1-s) without
backhaul activity knowledge and at (1-s)^N with it, independent of the
scheme and of the eavesdroppers.  With perfect backhaul the SOP instead
decays polynomially with a scheme-dependent diversity order.  The ESR
grows along a straight line in ln(1/lambda_D) whose slope depends only
on s (and N in the BKA case), for every scheme and every number of
eavesdroppers; the power offset is scheme specific.  TTS sums one offset
constant per term of the ratio CDF's term table; MIN-ES integrates
ln(1 + x) over the selected eavesdropper, and OTS the Laplace transform
of its single-link table, each once per table and at any N.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRegimeError, QuadratureError, UnsupportedClosedFormError
from .metrics import LN2, RatioCdfEvaluator, _adaptive_gk15, _min_eave_integral, sop
from .scenario import Knowledge, Scenario, Scheme, SchemeSpec
from .specfun import exp_scaled_ei

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
    """High-SNR SOP saturation level; scheme- and K-independent."""
    s = scenario.backhaul_reliability
    if spec.knowledge is Knowledge.BKU:
        return SopAsymptote(1.0 - s, "BKU saturation (1-s), independent of scheme and K")
    return SopAsymptote(
        (1.0 - s) ** scenario.n_transmitters,
        "BKA saturation (1-s)^N, independent of scheme and K",
    )


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

    As lambda_D -> 0 the ESR in nats is sum_i w_i (ln(1/lambda_D) - gamma
    - k_i) + o(1), where the weights w_i sum to norm = s (BKU) or
    1 - (1-s)^N (BKA).  So the slope is norm / ln 2, the same for every
    scheme and every number of eavesdroppers, and the offset is
    gamma + sum_i w_i k_i / norm.  For TTS the (w_i, k_i) are one pair
    per term of :meth:`RatioCdfEvaluator.parts`, w_i = c_i and
    k_i = ln(b_i/lambda_D) - e^{lam_i} Ei(-lam_i), from integrating the
    term's 1 - F against dx/x.  For MIN-ES the sum is E[ln(1 + X)] over
    the selected eavesdropping SNR X (:func:`_min_es_offset`), and for
    OTS it is one per order n of the selection power form, summed by the
    single integral of :func:`_ots_offset`; both are valid at any N.
    """
    sc = scenario
    s, n_tx = sc.backhaul_reliability, sc.n_transmitters
    norm = s if spec.knowledge is Knowledge.BKU else 1.0 - (1.0 - s) ** n_tx
    a = 1.0 if spec.knowledge is Knowledge.BKU else s
    if spec.scheme is Scheme.MIN_ES:
        return EsrAsymptote(norm / LN2, _EULER + _min_es_offset(n_tx, sc.eave_rates, a))
    if spec.scheme is Scheme.OTS:
        ((_, w, lams, _),) = RatioCdfEvaluator(sc, spec).parts()
        return EsrAsymptote(norm / LN2, _EULER + _ots_offset(n_tx, w, lams, a))
    terms = (
        (weight * c) * (math.log(b / sc.dest_rate) - exp_scaled_ei(lam))
        for weight, coeffs, lams, b in RatioCdfEvaluator(sc, spec).parts()
        for c, lam in zip(coeffs, lams)
    )
    return EsrAsymptote(norm / LN2, _EULER + math.fsum(terms) / norm)


@functools.lru_cache(maxsize=64)
def _min_es_offset(n_tx: int, rates: tuple, a: float) -> float:
    """MIN-ES line offset minus gamma, E[ln(1 + X)] over the selected eavesdropping SNR X.

    As lambda_D -> 0 the MIN-ES ESR kernel e^{lambda_D} E1(lambda_D (1+x))
    is ln(1/lambda_D) - gamma - ln(1+x) + o(1); X has mass 1 - (1-a)^N,
    a = 1 (BKU) or s (BKA), so the offset depends on neither lambda_D
    nor, for BKU, s.
    """
    return a * _min_eave_integral(rates, n_tx, a, np.log1p) / (1.0 - (1.0 - a) ** n_tx)


@functools.lru_cache(maxsize=64)
def _ots_offset(n_tx: int, w: tuple, lams: tuple, a: float) -> float:
    """OTS line offset minus gamma, sum_n w_n k_n / norm, as one integral.

    Order n of the selection power form has weight w_n = C(N,n)
    (-1)^{n+1} s (BKU) or s^n (BKA) and, by Frullani, constant
    k_n = int_0^inf (e^{-t} - (e^{-t} T(t))^n) / t dt, where
    T(t) = sum_k w_k lam_k / (lam_k + t) is the Laplace transform of the
    single-link table (w, lams).  The binomial sum over n folds into

        int_0^inf g(t) / t dt / head,
        g(t) = (1 - a e^{-t} T)^N - (1-a)^N - head (1 - e^{-t}),

    with a = 1 (BKU) or s (BKA) and head = 1 - (1-a)^N, so it depends on
    neither lambda_D nor, for BKU, s.  1 - e^{-t} T is formed from
    nonnegative parts and g is integrated in u = ln t by the ESR's GK15
    rule; as |g| <= t head (1 + N (1 + E[SE])) and |g| <= N head e^{-t},
    the range t in [e^-40 / (1 + N (1 + E[SE])), 40 + ln(1 + N)] leaves
    out less than e^-40 head.  Raises :class:`QuadratureError` if the
    error estimate exceeds 1e-10 head.
    """
    head = 1.0 - (1.0 - a) ** n_tx
    w_arr, lam_arr = np.array(w), np.array(lams)
    lo = -40.0 - math.log1p(n_tx * (1.0 + math.fsum(1.0 / lk for lk in lams)))
    hi = math.log(40.0 + math.log1p(n_tx))

    def g(u):
        t = np.exp(lo + u)
        # 1 - e^{-t} T(t) = (1 - e^{-t}) + e^{-t} t sum_k w_k / (lam_k + t)
        miss = -np.expm1(-t) + np.exp(-t) * t * (w_arr / (lam_arr + t[:, None])).sum(axis=1)
        if a == 1.0:
            power = miss**n_tx
        else:
            # (1 - a + a miss)^N - (1-a)^N, by expm1/log1p where it cancels
            r = np.minimum(a * miss / (1.0 - a), 1.0)
            power = np.where(
                r < 1.0,
                (1.0 - a) ** n_tx * np.expm1(n_tx * np.log1p(r)),
                (1.0 - a + a * miss) ** n_tx - (1.0 - a) ** n_tx,
            )
        return power + head * np.expm1(-t)

    val, err = _adaptive_gk15(g, hi - lo, 1e-15 * head, 1e-14, 1000)
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
