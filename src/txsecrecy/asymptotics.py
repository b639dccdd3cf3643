"""High-SNR behavior: SOP saturation, diversity order, ESR asymptotes.

As the destination SNR grows, the SOP saturates at (1-s) without
backhaul activity knowledge and at (1-s)^N with it, independent of the
scheme and of the eavesdroppers.  With perfect backhaul the SOP instead
decays polynomially with a scheme-dependent diversity order.  The ESR
grows along a straight line in ln(1/lambda_D) whose slope depends only
on s (and N in the BKA case), for every scheme and every number of
eavesdroppers; the power offset is scheme specific.  All six lines come
from one offset formula over per-term constants, read from the ratio
CDF's term table for MIN-ES and TTS and from the per-order expansion of
the selection power form for OTS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import _power_terms, hypoexp_weights
from .combinatorics import partial_fractions
from .errors import InvalidRegimeError, UnsupportedClosedFormError
from .metrics import LN2, RatioCdfEvaluator, sop
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
    - TTS:    lambda_D^N * E[(rho(SE+1)-1)^N] by binomial expansion
    - OTS:    (lambda_D * (rho * E[SE] + rho - 1))^N
    """
    if scenario.backhaul_reliability < 1.0:
        raise InvalidRegimeError("high-SNR SOP approximation assumes s = 1")
    lam_d, rho = scenario.dest_rate, scenario.rho
    lam_e = scenario.eave_rates
    if spec.scheme is Scheme.MIN_ES:
        # at s = 1 the term table is the min over all N links, weight 1
        mean_min = math.fsum(
            weight * c / lam
            for weight, coeffs, lams, _ in RatioCdfEvaluator(scenario, spec).parts()
            for c, lam in zip(coeffs, lams)
        )
        return lam_d * (rho * mean_min + rho - 1.0)
    if spec.scheme is Scheme.OTS:
        mean_se = math.fsum(1.0 / lk for lk in lam_e)
        return (lam_d * (rho * mean_se + rho - 1.0)) ** scenario.n_transmitters
    # TTS: E[SE^n] = n! * sum_k w_k / lam_k^n over the survival weights
    w = hypoexp_weights(lam_e)
    n_tx = scenario.n_transmitters
    total = []
    for n in range(0, n_tx + 1):
        moment = math.factorial(n) * math.fsum(
            wk / lk**n for wk, lk in zip(w, lam_e)
        )
        total.append(math.comb(n_tx, n) * rho**n * (rho - 1.0) ** (n_tx - n) * moment)
    return lam_d**n_tx * math.fsum(total)


def esr_asymptote(scenario: Scenario, spec: SchemeSpec) -> EsrAsymptote:
    """Slope and power offset of the high-SNR ESR line, for every scheme and K.

    As lambda_D -> 0 the ESR in nats is sum_i w_i (ln(1/lambda_D) - gamma
    - k_i) + o(1), where the weights w_i sum to norm = s (BKU) or
    1 - (1-s)^N (BKA).  So the slope is norm / ln 2, the same for every
    scheme and every number of eavesdroppers, and the offset is
    gamma + sum_i w_i k_i / norm.  The (w_i, k_i) pairs are

    - MIN-ES and TTS: one per term of :meth:`RatioCdfEvaluator.parts`,
      w_i = c_i and k_i = ln(b_i/lambda_D) - e^{lam_i} Ei(-lam_i), from
      integrating the term's 1 - F against dx/x;
    - OTS: one per order n of the selection power form,
      w_n = C(N,n)(-1)^{n+1} s (BKU) or s^n (BKA), and k_n = ln n + E_n
      from :func:`_ots_offset_terms`.
    """
    sc = scenario
    s, n_tx = sc.backhaul_reliability, sc.n_transmitters
    norm = s if spec.knowledge is Knowledge.BKU else 1.0 - (1.0 - s) ** n_tx
    if spec.scheme is Scheme.OTS:
        terms = (
            math.comb(n_tx, n) * (-1.0) ** (n + 1)
            * (s if spec.knowledge is Knowledge.BKU else s**n) * k_n
            for n, k_n in enumerate(_ots_offset_terms(sc), start=1)
        )
    else:
        terms = (
            (weight * c) * (math.log(b / sc.dest_rate) - exp_scaled_ei(lam))
            for weight, coeffs, lams, b in RatioCdfEvaluator(sc, spec).parts()
            for c, lam in zip(coeffs, lams)
        )
    return EsrAsymptote(norm / LN2, _EULER + math.fsum(terms) / norm)


def _scaled_ei_partial_sums(p: float, l_max: int) -> list:
    """S_l = sum_{j<=l} I_j(p) with I_j = int_0^inf e^{-p u} (1+u)^{-j} du.

    I_1 = e^p E_1(p); the forward recurrence I_j = (1 - p I_{j-1})/(j-1)
    is stable (the division by j-1 damps roundoff).
    """
    i_j = -exp_scaled_ei(p)  # e^p E_1(p)
    sums = [i_j]
    for j in range(2, l_max + 1):
        i_j = (1.0 - p * i_j) / (j - 1)
        sums.append(sums[-1] + i_j)
    return sums


def _ots_offset_terms(scenario: Scenario) -> list:
    """Per-order offset constants k_n = ln n + E_n of the OTS ESR line.

    The n-th binomial term of the selection power form integrates to
    ln(1/lambda_D) - (gamma + ln n + E_n) + o(1) as lambda_D -> 0, with

        E_n = int_0^inf e^{-n t} (1 - T(t)^n) / t dt,
        T(t) = sum_k w_k / (1 + t/lam_k).

    T(t)^n is expanded by the multinomial theorem; each product of
    (1 + t/lam_k)^{-i_k} factors splits by partial fractions into simple
    (1 + t/lam_k)^{-l} terms whose integrals against e^{-n t}/t follow
    from the scaled-Ei recurrence.  Since T(0) = 1 the 1/t singularity
    cancels and the expansion coefficients sum to one.  For K = 1,
    lam_E -> 0 recovers the harmonic-number form
    k_n = ln(1/lam_E) - gamma + H_{n-1}.
    """
    lam_e = scenario.eave_rates
    w = hypoexp_weights(lam_e)
    terms = []
    for n in range(1, scenario.n_transmitters + 1):
        e_n = []
        for comp, c in _power_terms(n, w):
            active = [(lk, ik) for lk, ik in zip(lam_e, comp) if ik > 0]
            numerator = math.prod(lk**ik for lk, ik in active)
            pfe = partial_fractions(numerator, [(-lk, ik) for lk, ik in active])
            for (loc, mult), coefs in zip(pfe.poles, pfe.coefficients):
                lk = -loc
                s_l = _scaled_ei_partial_sums(n * lk, mult)
                e_n.extend(
                    c * b / lk**l * s_l[l - 1]
                    for l, b in enumerate(coefs, start=1)
                )
        terms.append(math.log(n) + math.fsum(e_n))
    return terms


def esr_high_snr_ots(scenario: Scenario, spec: SchemeSpec) -> float:
    """High-SNR ergodic secrecy rate of OTS for any K.

    The :func:`esr_asymptote` line at the scenario's own lambda_D: exact
    in the lambda_D -> 0 limit for fixed eavesdropper rates, and reducing
    to the harmonic-number form when additionally lambda_E -> 0.
    """
    if spec.scheme is not Scheme.OTS:
        raise UnsupportedClosedFormError("esr_high_snr_ots applies to OTS only")
    return esr_asymptote(scenario, spec).at_dest_rate(scenario.dest_rate)
