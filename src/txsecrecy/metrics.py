"""Exact secrecy metrics via the CDF of the destination/eavesdropper SNR ratio.

For every selection scheme and backhaul-knowledge case the CDF F(y) of
the selected link's ratio (1 + SNR_dest) / (1 + SNR_eave) has a closed
form built from exponential term tables.  The secrecy outage probability
is F(2^threshold_rate), the nonzero-secrecy-rate probability is
1 - F(1), and the ergodic secrecy rate is the integral of (1 - F(x))/x
over [1, inf) divided by ln 2 -- evaluated in closed form (MIN-ES, TTS)
or by adaptive quadrature (all schemes, authoritative for OTS).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from scipy.integrate import quad

from .channel import bka_weight, check_expansion_order, hypoexp_weights, min_hypoexp_terms
from .errors import QuadratureError, UnsupportedClosedFormError
from .scenario import Knowledge, Scenario, Scheme, SchemeSpec
from .specfun import exp_scaled_ei

LN2 = math.log(2.0)

#: Below this value the alternating closed forms of the ratio CDF are
#: dominated by cancellation and the definitional integral is used instead.
_CANCELLATION_FLOOR = 1e-8


def _term_integral(mu: float, b: float, y: float) -> float:
    """Integral of e^{-b(y(x+1)-1)} mu e^{-mu x} over x >= x0.

    x0 = max(0, 1/y - 1) is where the destination CDF argument
    y(x+1) - 1 becomes nonnegative.  Closed form:
    mu * exp(-b*max(y-1, 0) - mu*x0) / (b*y + mu).
    """
    x0 = max(0.0, 1.0 / y - 1.0)
    return mu * math.exp(-b * max(y - 1.0, 0.0) - mu * x0) / (b * y + mu)


def _sf_at_x0(mu: float, y: float) -> float:
    """P[term-exponential >= x0] for the truncation point of _term_integral."""
    x0 = max(0.0, 1.0 / y - 1.0)
    return math.exp(-mu * x0)


class EsrMethod(Enum):
    CLOSED_FORM = "closed_form"
    QUADRATURE = "quadrature"


@dataclass(frozen=True)
class RatioCdfEvaluator:
    """Evaluates F(y) of the post-selection SNR ratio for one scenario+scheme.

    For MIN-ES and TTS, F(y) is a sum of exponential terms c_i * term(lam_i,
    b_i, y), stored as a short tuple of parts (weight, coeffs, lams, b):
    every term of a part has c_i = weight * coeffs[i], lam_i = lams[i] and
    the same destination rate multiple b.  The MIN-ES coeffs/lams are the
    term tables :func:`~txsecrecy.channel.min_hypoexp_terms` caches per
    (n, eavesdropper rates) and are shared, never copied; s and lambda_D
    enter only as the scalar weight and b of each part.  Evaluation is a
    pure function of y and safe for concurrent use.
    """

    scenario: Scenario
    spec: SchemeSpec

    def __post_init__(self):
        sc, spec = self.scenario, self.spec
        n_tx, s, lam_d, lam_e = sc.n_transmitters, sc.s, sc.dest_rate, sc.eave_rates
        if spec.scheme is Scheme.MIN_ES:
            check_expansion_order(n_tx)
            if spec.knowledge is Knowledge.BKU:
                parts = ((s, *min_hypoexp_terms(n_tx, lam_e), lam_d),)
                atom = 1.0 - s
            else:
                # the minimum runs over the n active transmitters
                parts = tuple(
                    (bka_weight(n_tx, n, s), *min_hypoexp_terms(n, lam_e), lam_d)
                    for n in range(1, n_tx + 1)
                )
                atom = (1.0 - s) ** n_tx
            # F(y) = atom + sum_i c_i [P(X_i >= x0) - J(lam_i, lam_D, y)]
            object.__setattr__(self, "_parts", parts)
            object.__setattr__(self, "_atom", atom)
        elif spec.scheme is Scheme.TTS:
            w = hypoexp_weights(lam_e)
            if spec.knowledge is Knowledge.BKU:
                parts = tuple(
                    (s * math.comb(n_tx, n) * (-1.0) ** (n + 1), w, lam_e, n * lam_d)
                    for n in range(1, n_tx + 1)
                )
            else:
                parts = tuple(
                    (bka_weight(n_tx, n, s) * math.comb(n, q) * (-1.0) ** (q + 1),
                     w, lam_e, q * lam_d)
                    for n in range(1, n_tx + 1)
                    for q in range(1, n + 1)
                )
            # F(y) = P(SE >= x0) - sum c_i J(lam_i, b_i, y); the dead-backhaul
            # mass sits in the destination mixture, not in a separate atom.
            object.__setattr__(self, "_parts", parts)
            object.__setattr__(self, "_hypo_w", w)
        else:  # OTS: power forms of the single-link ratio CDF
            object.__setattr__(self, "_hypo_w", hypoexp_weights(lam_e))

    def terms(self):
        """Yield (c_i, lam_i, b_i) for every expanded term (MIN-ES and TTS)."""
        for weight, coeffs, lams, b in self._parts:
            for c, lam in zip(coeffs, lams):
                yield weight * c, lam, b

    # -- single-link ratio CDF (OTS building block) --------------------
    def _single_link_cdf(self, y: float) -> float:
        sc = self.scenario
        w = self._hypo_w
        head = math.fsum(wk * _sf_at_x0(lk, y) for wk, lk in zip(w, sc.eave_rates))
        tail = math.fsum(
            wk * _term_integral(lk, sc.dest_rate, y) for wk, lk in zip(w, sc.eave_rates)
        )
        return head - tail

    def _closed_form(self, y: float) -> float:
        sc, spec = self.scenario, self.spec
        if spec.scheme is Scheme.OTS:
            g = self._single_link_cdf(y)
            if spec.knowledge is Knowledge.BKU:
                return (1.0 - sc.s) + sc.s * g**sc.n_transmitters
            w = self._hypo_w
            head = math.fsum(wk * _sf_at_x0(lk, y) for wk, lk in zip(w, sc.eave_rates))
            return ((1.0 - sc.s) * head + sc.s * g) ** sc.n_transmitters
        # per-y invariants of _sf_at_x0 and _term_integral, hoisted out of
        # the term loop, which reads the parts directly (through terms() it
        # costs a third more); fsum is correctly rounded in any term order
        x0 = max(0.0, 1.0 / y - 1.0)
        ym1 = max(y - 1.0, 0.0)
        exp = math.exp
        if spec.scheme is Scheme.MIN_ES:
            body = math.fsum(
                (weight * c)
                * (exp(-lam * x0) - lam * exp(-b * ym1 - lam * x0) / (b * y + lam))
                for weight, coeffs, lams, b in self._parts
                for c, lam in zip(coeffs, lams)
            )
            return self._atom + body
        # TTS
        head = math.fsum(
            wk * exp(-lk * x0) for wk, lk in zip(self._hypo_w, sc.eave_rates)
        )
        tail = math.fsum(
            (weight * c) * (lam * exp(-b * ym1 - lam * x0) / (b * y + lam))
            for weight, coeffs, lams, b in self._parts
            for c, lam in zip(coeffs, lams)
        )
        return head - tail

    def _definitional(self, y: float) -> float:
        """Quadrature of the defining integral with unexpanded CDFs.

        Free of alternating-sign cancellation; used when the closed form
        loses all significant digits in its deep left tail (perfect
        backhaul at high SNR).
        """
        sc, spec = self.scenario, self.spec
        lam_d, s, n_tx = sc.dest_rate, sc.s, sc.n_transmitters
        w = self._hypo_w if spec.scheme is not Scheme.MIN_ES else hypoexp_weights(sc.eave_rates)

        def eave_pdf(x):
            return math.fsum(wk * lk * math.exp(-lk * x) for wk, lk in zip(w, sc.eave_rates))

        def eave_sf(x):
            return math.fsum(wk * math.exp(-lk * x) for wk, lk in zip(w, sc.eave_rates))

        if spec.scheme is Scheme.MIN_ES:
            if spec.knowledge is Knowledge.BKU:
                def integrand(x):
                    v = y * (x + 1.0) - 1.0
                    fd = -math.expm1(-lam_d * v) if v > 0 else 0.0
                    sfx = eave_sf(x)
                    return fd * n_tx * sfx ** (n_tx - 1) * eave_pdf(x)
                atom, scale = 1.0 - s, s
            else:
                def integrand(x):
                    v = y * (x + 1.0) - 1.0
                    fd = -math.expm1(-lam_d * v) if v > 0 else 0.0
                    acc = 0.0
                    sfx = eave_sf(x)
                    for n in range(1, n_tx + 1):
                        p_n = math.comb(n_tx, n) * (1.0 - s) ** (n_tx - n) * s**n
                        acc += p_n * n * sfx ** (n - 1) * eave_pdf(x)
                    return fd * acc
                atom, scale = (1.0 - s) ** n_tx, 1.0
        elif spec.scheme is Scheme.TTS:
            if spec.knowledge is Knowledge.BKU:
                def dest_cdf(v):
                    return (1.0 - s) + s * (-math.expm1(-lam_d * v)) ** n_tx
            else:
                def dest_cdf(v):
                    return ((1.0 - s) + s * (-math.expm1(-lam_d * v))) ** n_tx

            def integrand(x):
                v = y * (x + 1.0) - 1.0
                return dest_cdf(v) * eave_pdf(x) if v > 0 else 0.0
            atom, scale = 0.0, 1.0
        else:  # OTS

            def single(x):
                v = y * (x + 1.0) - 1.0
                return (-math.expm1(-lam_d * v)) * eave_pdf(x) if v > 0 else 0.0

            g, _ = quad(lambda t: single(t / (1 - t)) / (1 - t) ** 2, 0.0, 1.0,
                        epsabs=0.0, epsrel=1e-12, limit=500)
            if spec.knowledge is Knowledge.BKU:
                return (1.0 - s) + s * g**n_tx
            # an inactive transmitter carries ratio 1/(1 + SE), so its
            # per-link factor below y = 1 is the eavesdropper sf at x0
            head = eave_sf(max(0.0, 1.0 / y - 1.0))
            return ((1.0 - s) * head + s * g) ** n_tx

        val, _ = quad(lambda t: integrand(t / (1 - t)) / (1 - t) ** 2, 0.0, 1.0,
                      epsabs=0.0, epsrel=1e-12, limit=500)
        return atom + scale * val

    def __call__(self, y: float) -> float:
        if y <= 0.0:
            return 0.0
        val = self._closed_form(y)
        if val < _CANCELLATION_FLOOR:
            # deep left tail: alternating sums cancel; integrate instead
            val = self._definitional(y)
        return min(max(val, 0.0), 1.0)


def ratio_cdf(scenario: Scenario, spec: SchemeSpec, y: float) -> float:
    """CDF of the post-selection secrecy SNR ratio at ``y``."""
    return RatioCdfEvaluator(scenario, spec)(y)


def sop(scenario: Scenario, spec: SchemeSpec) -> float:
    """Secrecy outage probability, F(2^threshold_rate)."""
    return RatioCdfEvaluator(scenario, spec)(scenario.rho)


def nzsr(scenario: Scenario, spec: SchemeSpec) -> float:
    """Probability of a strictly positive secrecy rate, 1 - F(1)."""
    return 1.0 - RatioCdfEvaluator(scenario, spec)(1.0)


def esr_closed_form(scenario: Scenario, spec: SchemeSpec) -> float:
    """Closed-form ergodic secrecy rate for MIN-ES and TTS.

    Every term of 1 - F(x) integrates against 1/x into a difference of
    fused e^a Ei(-a) factors.  OTS has no well-defined closed form here
    (its published form needs the incomplete gamma at nonpositive order
    and negative argument); use :func:`esr_quadrature` instead.
    """
    if spec.scheme is Scheme.OTS:
        raise UnsupportedClosedFormError(
            "no closed-form ESR for OTS; use esr_quadrature"
        )
    ev = RatioCdfEvaluator(scenario, spec)
    # b_i is lambda_D for MIN-ES and the n (or q) multiple of it for TTS
    total = math.fsum(
        c * (exp_scaled_ei(lam + b) - exp_scaled_ei(b)) for c, lam, b in ev.terms()
    )
    return max(total / LN2, 0.0)


def esr_quadrature(
    scenario: Scenario,
    spec: SchemeSpec,
    epsabs: float = 1e-9,
) -> float:
    """Ergodic secrecy rate by adaptive quadrature of (1 - F(x))/x.

    The semi-infinite range is mapped to [0, 1) via x = 1 + t/(1-t).
    """
    ev = RatioCdfEvaluator(scenario, spec)

    def integrand(t):
        x = 1.0 + t / (1.0 - t)
        return (1.0 - ev(x)) / (x * (1.0 - t) ** 2)

    val, err = quad(integrand, 0.0, 1.0, epsabs=epsabs, epsrel=1e-10, limit=1000)
    if not math.isfinite(val) or err > max(1e-6, 1e-6 * abs(val)):
        raise QuadratureError(
            f"ESR quadrature did not converge for {spec.label}: value={val}, err={err}"
        )
    return max(val / LN2, 0.0)


@dataclass(frozen=True)
class SecrecyReport:
    """Exact NZSR/SOP/ESR for one scenario and scheme."""

    scenario: Scenario
    spec: SchemeSpec
    nzsr: float
    sop: float
    esr: float
    esr_method: EsrMethod


def secrecy_report(scenario: Scenario, spec: SchemeSpec) -> SecrecyReport:
    """Evaluate all exact metrics, preferring the closed-form ESR."""
    ev = RatioCdfEvaluator(scenario, spec)
    if spec.scheme is Scheme.OTS:
        esr, method = esr_quadrature(scenario, spec), EsrMethod.QUADRATURE
    else:
        esr, method = esr_closed_form(scenario, spec), EsrMethod.CLOSED_FORM
    return SecrecyReport(
        scenario=scenario,
        spec=spec,
        nzsr=1.0 - ev(1.0),
        sop=ev(scenario.rho),
        esr=esr,
        esr_method=method,
    )
