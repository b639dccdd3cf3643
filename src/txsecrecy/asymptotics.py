"""High-SNR behavior: SOP saturation, diversity order, ESR asymptotes.

As the destination SNR grows, the SOP saturates at (1-s) without
backhaul activity knowledge and at (1-s)^N with it, independent of the
scheme and of the eavesdroppers.  With perfect backhaul the SOP instead
decays polynomially with a scheme-dependent diversity order.  The ESR
grows along a straight line in ln(1/lambda_D) whose slope depends only
on s (and N in the BKA case); the power offset is scheme specific.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import bka_weight, hypoexp_weights, min_hypoexp_terms
from .combinatorics import enumerate_compositions, multinomial, partial_fractions
from .errors import InvalidRegimeError, UnsupportedClosedFormError
from .metrics import LN2, sop
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
        coeffs, lams = min_hypoexp_terms(scenario.n_transmitters, lam_e)
        mean_min = math.fsum(c / lam for c, lam in zip(coeffs, lams))
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
    """Slope and power offset of the high-SNR ESR line.

    Available for MIN-ES and TTS at any K and for OTS at K = 1 (the
    harmonic-number form); for OTS with K > 1 the high-SNR ESR has no
    straight-line decomposition -- use :func:`esr_high_snr_ots`.
    """
    sc = scenario
    s, n_tx = sc.backhaul_reliability, sc.n_transmitters
    lam_e = sc.eave_rates
    if spec.knowledge is Knowledge.BKU:
        slope = s / LN2
    else:
        slope = (1.0 - (1.0 - s) ** n_tx) / LN2

    if spec.scheme is Scheme.MIN_ES:
        if spec.knowledge is Knowledge.BKU:
            coeffs, lams = min_hypoexp_terms(n_tx, lam_e)
            offset = _EULER - math.fsum(
                c * exp_scaled_ei(lam) for c, lam in zip(coeffs, lams)
            )
        else:
            terms = []
            for n in range(1, n_tx + 1):
                p_n = bka_weight(n_tx, n, s)
                cs, ls = min_hypoexp_terms(n, lam_e)
                terms.extend(
                    p_n * c * (_EULER - exp_scaled_ei(lam)) for c, lam in zip(cs, ls)
                )
            offset = math.fsum(terms) / (1.0 - (1.0 - s) ** n_tx)
        return EsrAsymptote(slope, offset)

    if spec.scheme is Scheme.TTS:
        w = hypoexp_weights(lam_e)
        if spec.knowledge is Knowledge.BKU:
            terms = []
            for n in range(1, n_tx + 1):
                cn = math.comb(n_tx, n) * (-1.0) ** (n + 1)
                terms.extend(
                    cn * wk * (math.log(n) - exp_scaled_ei(lk))
                    for wk, lk in zip(w, lam_e)
                )
            offset = _EULER + math.fsum(terms)
        else:
            terms = []
            for n in range(1, n_tx + 1):
                p_n = bka_weight(n_tx, n, s)
                for q in range(1, n + 1):
                    cq = p_n * math.comb(n, q) * (-1.0) ** (q + 1)
                    terms.extend(
                        cq * wk * (_EULER + math.log(q) - exp_scaled_ei(lk))
                        for wk, lk in zip(w, lam_e)
                    )
            offset = math.fsum(terms) / (1.0 - (1.0 - s) ** n_tx)
        return EsrAsymptote(slope, offset)

    # OTS: straight-line form only for K = 1 (slope/offset decomposition
    # of the same line esr_high_snr_ots evaluates for any K).  Sending
    # lam_E -> 0 recovers the harmonic-number form
    # ln(1/lam_E) + sum_n C(N,n)(-1)^{n+1} H_{n-1}.
    if sc.n_eavesdroppers != 1:
        raise UnsupportedClosedFormError(
            "OTS slope/offset is available only for K = 1; "
            "use esr_high_snr_ots for the K > 1 high-SNR value"
        )
    offsets = _ots_offset_terms(sc)
    terms = []
    for n, t_n in enumerate(offsets, start=1):
        cn = math.comb(n_tx, n) * (-1.0) ** (n + 1)
        if spec.knowledge is Knowledge.BKA:
            cn *= s**n
        terms.append(cn * t_n)
    if spec.knowledge is Knowledge.BKU:
        offset = math.fsum(terms)
    else:
        offset = math.fsum(terms) / (1.0 - (1.0 - s) ** n_tx)
    return EsrAsymptote(slope, offset)


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
    """Per-order offset constants gamma + ln n + E_n of the OTS ESR line.

    The n-th binomial term of the selection power form integrates to
    ln(1/lambda_D) - (gamma + ln n + E_n) + o(1) as lambda_D -> 0, with

        E_n = int_0^inf e^{-n t} (1 - T(t)^n) / t dt,
        T(t) = sum_k w_k / (1 + t/lam_k).

    T(t)^n is expanded by the multinomial theorem; each product of
    (1 + t/lam_k)^{-i_k} factors splits by partial fractions into simple
    (1 + t/lam_k)^{-l} terms whose integrals against e^{-n t}/t follow
    from the scaled-Ei recurrence.  Since T(0) = 1 the 1/t singularity
    cancels and the expansion coefficients sum to one.
    """
    lam_e = scenario.eave_rates
    k_ev = scenario.n_eavesdroppers
    w = hypoexp_weights(lam_e)
    terms = []
    for n in range(1, scenario.n_transmitters + 1):
        e_n = []
        for comp in enumerate_compositions(n, k_ev):
            c = float(multinomial(n, comp))
            for wk, ik in zip(w, comp):
                c *= wk**ik
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
        terms.append(_EULER + math.log(n) + math.fsum(e_n))
    return terms


def esr_high_snr_ots(scenario: Scenario, spec: SchemeSpec) -> float:
    """High-SNR ergodic secrecy rate of OTS for any K.

    Evaluates the asymptotic line sum_n C(N,n)(-1)^{n+1} w_n
    (ln(1/lambda_D) - gamma - ln n - E_n) / ln 2 with w_n = s (BKU) or
    s^n (BKA); exact in the lambda_D -> 0 limit for fixed eavesdropper
    rates, and reducing to the harmonic-number form when additionally
    lambda_E -> 0.
    """
    if spec.scheme is not Scheme.OTS:
        raise UnsupportedClosedFormError("esr_high_snr_ots applies to OTS only")
    sc = scenario
    s, n_tx = sc.backhaul_reliability, sc.n_transmitters
    log_snr = math.log(1.0 / sc.dest_rate)
    total = []
    for n, t_n in enumerate(_ots_offset_terms(sc), start=1):
        weight = s if spec.knowledge is Knowledge.BKU else s**n
        sign = math.comb(n_tx, n) * (-1.0) ** (n + 1)
        total.append(sign * weight * (log_snr - t_n))
    return math.fsum(total) / LN2
