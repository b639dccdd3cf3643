"""Exact secrecy metrics via the CDF of the destination/eavesdropper SNR ratio.

For every selection scheme and backhaul-knowledge case the CDF F(y) of
the selected link's ratio (1 + SNR_dest) / (1 + SNR_eave) has a closed
form built from exponential term tables.  The secrecy outage probability
is F(2^threshold_rate), the nonzero-secrecy-rate probability is
1 - F(1), and the ergodic secrecy rate is the integral of (1 - F(x))/x
over [1, inf) divided by ln 2 -- evaluated in closed form (MIN-ES, TTS)
or by adaptive quadrature (all schemes, authoritative for OTS).

SOP and NZSR evaluate F at one point with a correctly rounded sum and
fall back to the definitional integral where the closed form cancels.
The ESR quadrature needs 1 - F only to absolute precision: it integrates
the closed form's tail sum, evaluated on numpy arrays of nodes, in
log space v = ln x up to V = ln(1 + (40 + ln N)/lambda_D), where
1 - F <= N e^{-lambda_D (x-1)} is below e^-40, and refuses
(:class:`QuadratureError`) a term table whose worst-case rounding error
over that range exceeds 1e-6 bits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
from scipy.integrate import quad

from .channel import bka_weight, check_expansion_order, hypoexp_weights, min_hypoexp_terms
from .errors import QuadratureError, UnsupportedClosedFormError
from .scenario import Knowledge, Scenario, Scheme, SchemeSpec
from .specfun import exp_scaled_ei

LN2 = math.log(2.0)

#: Below this value the alternating closed forms of the ratio CDF are
#: dominated by cancellation and the definitional integral is used instead.
_CANCELLATION_FLOOR = 1e-8

#: Upper bound on the points x terms products :meth:`RatioCdfEvaluator.survival`
#: forms at once; a MIN-ES-BKA table at N = 12, K = 6 has 18,563 terms.
_CHUNK_ELEMENTS = 1 << 16

#: QUADPACK's Gauss-Kronrod 7/15 rule on [-1, 1]: the 15 Kronrod nodes in
#: increasing order with their weights; the 7 Gauss nodes are the odd
#: positions, with the Gauss weights below.
_GK15_NODES = np.array((
    -0.991455371120812639206854697526329, -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926, -0.741531185599394439863864773280788,
    -0.586087235467691130294144845693013, -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245, 0.0,
    0.207784955007898467600689403773245, 0.405845151377397166906606412076961,
    0.586087235467691130294144845693013, 0.741531185599394439863864773280788,
    0.864864423359769072789712788640926, 0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
))
_GK15_WEIGHTS = np.array((
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
    0.204432940075298892414161999234649, 0.190350578064785409913256402421014,
    0.169004726639267902826583426598550, 0.140653259715525918745189590510238,
    0.104790010322250183839876322541518, 0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
))
_G7_WEIGHTS = np.array((
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
    0.381830050505118944950369775488975, 0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
))


class EsrMethod(Enum):
    CLOSED_FORM = "closed_form"
    QUADRATURE = "quadrature"


@dataclass(frozen=True)
class RatioCdfEvaluator:
    """Evaluates F(y) of the post-selection SNR ratio for one scenario+scheme.

    Every scheme reads one term table: a short tuple of parts
    (weight, coeffs, lams, b), where every term of a part has
    c_i = weight * coeffs[i], rate lam_i = lams[i] and the same
    destination rate multiple b.  With x0 = max(0, 1/y - 1), each term
    contributes c_i lam_i e^{-b (y-1)^+ - lam_i x0} / (b y + lam_i), the
    integral J_i(y) of the destination tail against the eavesdropper
    density, and

    - MIN-ES: F = atom + sum_i c_i (e^{-lam_i x0} - J_i), with one part
      (s, table of the min over N) for BKU and one part per active count
      n with the BKA weight for BKA; the MIN-ES coeffs/lams are the term
      tables :func:`~txsecrecy.channel.min_hypoexp_terms` caches per
      (n, eavesdropper rates), shared, never copied;
    - TTS: F = head - sum_i c_i J_i over the binomial parts of the max
      of the destination SNRs, head = P(SE >= x0);
    - OTS: the single link's g = head - sum_i c_i J_i from its one part
      (1, hypoexponential weights, eavesdropper rates, lambda_D), and
      F = (1-s) + s g^N (BKU) or ((1-s) head + s g)^N (BKA).

    s and lambda_D enter only as the scalar weight and b of each part.
    Evaluation is a pure function of y and safe for concurrent use.
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
            object.__setattr__(self, "_atom", atom)
        else:
            w = hypoexp_weights(lam_e)
            if spec.scheme is Scheme.OTS:
                parts = ((1.0, w, lam_e, lam_d),)
            elif spec.knowledge is Knowledge.BKU:
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
            # the dead-backhaul mass of TTS sits in the destination
            # mixture, not in a separate atom
            object.__setattr__(self, "_hypo_w", w)
        object.__setattr__(self, "_parts", parts)

    def parts(self) -> tuple:
        """The (weight, coeffs, lams, b) parts of the term table (all schemes)."""
        return self._parts

    # -- survival on x >= 1 (ESR integrand) ----------------------------
    @cached_property
    def _survival_table(self) -> tuple:
        """(c_i lam_i, lam_i, b_i) arrays of the tail sum, and its rounding scale.

        Built on first use: most evaluators never integrate the ESR.
        """
        c = np.concatenate([weight * np.array(coeffs) for weight, coeffs, _, _ in self._parts])
        lam = np.concatenate([np.array(lams) for _, _, lams, _ in self._parts])
        b = np.concatenate([np.full(len(lams), bp) for _, _, lams, bp in self._parts])
        scale = 1.0
        if self.spec.scheme is Scheme.OTS:
            # 1 - F is a power of the single-link tail t, whose slope in t
            # is at most N s
            scale = self.scenario.n_transmitters * self.scenario.s
        return c * lam, lam, b, scale * float(np.abs(c).sum())

    def survival(self, xs: np.ndarray) -> np.ndarray:
        """1 - F(x) on a 1-D array of x >= 1.

        There the truncation point x0 is 0, so for MIN-ES and TTS 1 - F is
        the tail sum sum_i c_i lam_i e^{-b_i (x-1)} / (b_i x + lam_i) alone;
        for OTS it is s (1 - (1 - t)^N) (BKU) or 1 - (1 - s t)^N (BKA) of
        the single-link tail t, formed without a 1 - F subtraction.  The
        points x terms products are formed in bounded chunks.
        """
        cl, lam, b, _ = self._survival_table
        xs = np.asarray(xs, dtype=float)
        out = np.empty(xs.size)
        step = max(1, _CHUNK_ELEMENTS // lam.size)
        for i in range(0, xs.size, step):
            x = xs[i:i + step, None]
            out[i:i + step] = (cl * np.exp(-b * (x - 1.0)) / (b * x + lam)).sum(axis=1)
        if self.spec.scheme is Scheme.OTS:
            n_tx, s = self.scenario.n_transmitters, self.scenario.s
            if self.spec.knowledge is Knowledge.BKU:
                return s * -np.expm1(n_tx * np.log1p(-out))
            return -np.expm1(n_tx * np.log1p(-s * out))
        return out

    def survival_error_bound(self) -> float:
        """Worst-case absolute rounding error of :meth:`survival`.

        eps sum_i |c_i| over the tail-sum coefficients, times N s for OTS.
        """
        return sys.float_info.epsilon * self._survival_table[3]

    def _closed_form(self, y: float) -> float:
        # per-y invariants hoisted out of the term loop, which reads the
        # parts directly; fsum is correctly rounded in any term order
        sc, spec = self.scenario, self.spec
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
        head = math.fsum(
            wk * exp(-lk * x0) for wk, lk in zip(self._hypo_w, sc.eave_rates)
        )
        tail = math.fsum(
            (weight * c) * (lam * exp(-b * ym1 - lam * x0) / (b * y + lam))
            for weight, coeffs, lams, b in self._parts
            for c, lam in zip(coeffs, lams)
        )
        if spec.scheme is Scheme.TTS:
            return head - tail
        # OTS: head - tail is the single-link CDF; an inactive transmitter
        # carries ratio 1/(1 + SE), whose per-link factor is the head
        if spec.knowledge is Knowledge.BKU:
            return (1.0 - sc.s) + sc.s * (head - tail) ** sc.n_transmitters
        return ((1.0 - sc.s) * head + sc.s * (head - tail)) ** sc.n_transmitters

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
                # the minimum over the n active transmitters, mixed over n:
                # sum_n C(N,n) (1-s)^(N-n) s^n n sf^(n-1) = N s (1 - s + s sf)^(N-1)
                def integrand(x):
                    v = y * (x + 1.0) - 1.0
                    fd = -math.expm1(-lam_d * v) if v > 0 else 0.0
                    sfx = eave_sf(x)
                    return fd * n_tx * (1.0 - s + s * sfx) ** (n_tx - 1) * eave_pdf(x)
                atom, scale = (1.0 - s) ** n_tx, s
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
    terms = []
    for weight, coeffs, lams, b in RatioCdfEvaluator(scenario, spec).parts():
        # b is lambda_D for MIN-ES and the n (or q) multiple of it for TTS,
        # the same for every term of the part
        eb = exp_scaled_ei(b)
        terms.extend((weight * c) * (exp_scaled_ei(lam + b) - eb) for c, lam in zip(coeffs, lams))
    return max(math.fsum(terms) / LN2, 0.0)


def _gk15(f, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """Kronrod value and QUADPACK error estimate of f on each [lo_i, hi_i].

    f maps a 1-D array of points to the array of its values; all 15
    nodes of every interval go to it in one call.
    """
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * _GK15_NODES
    fx = f(nodes.ravel()).reshape(nodes.shape)
    kronrod = (fx * _GK15_WEIGHTS).sum(axis=1)
    gauss = (fx[:, 1::2] * _G7_WEIGHTS).sum(axis=1)
    asc = (np.abs(fx - 0.5 * kronrod[:, None]) * _GK15_WEIGHTS).sum(axis=1)
    diff = np.abs(kronrod - gauss)
    # smaller than |K - G| once the rule has resolved f; 0 where f is flat
    err = asc * np.minimum(1.0, (200.0 * diff / np.where(asc > 0, asc, 1.0)) ** 1.5)
    return kronrod * half, err * half


def _adaptive_gk15(f, upper: float, epsabs: float, epsrel: float, limit: int) -> tuple:
    """Globally adaptive GK15 integral of f over [0, upper]: (value, error estimate).

    Each step bisects every interval whose error exceeds its length's
    share of the tolerance (and always the worst one) and evaluates all
    the new intervals in one call, until the summed error meets
    max(epsabs, epsrel |value|) or another step would pass ``limit``
    intervals.
    """
    lo, hi = np.array([0.0]), np.array([upper])
    val, err = _gk15(f, lo, hi)
    while True:
        total, total_err = float(val.sum()), float(err.sum())
        tol = max(epsabs, epsrel * abs(total))
        if not math.isfinite(total_err) or total_err <= tol:
            break
        split = (err * upper > tol * (hi - lo)) | (err == err.max())
        if lo.size + np.count_nonzero(split) > limit:
            break
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate((lo[split], mid))
        new_hi = np.concatenate((mid, hi[split]))
        new_val, new_err = _gk15(f, new_lo, new_hi)
        keep = ~split
        lo, hi = np.concatenate((lo[keep], new_lo)), np.concatenate((hi[keep], new_hi))
        val, err = np.concatenate((val[keep], new_val)), np.concatenate((err[keep], new_err))
    return total, total_err


def esr_quadrature(
    scenario: Scenario,
    spec: SchemeSpec,
    epsabs: float = 1e-9,
) -> float:
    """Ergodic secrecy rate by adaptive quadrature of 1 - F in log space.

    With x = e^v the ESR is the integral of 1 - F(e^v) over v >= 0,
    divided by ln 2.  The selected destination SNR is at most the best
    of N exponential links, so 1 - F(x) <= N e^{-lambda_D (x-1)} and the
    range stops at V = ln(1 + (40 + ln N)/lambda_D), past which the
    integrand is below e^-40.  The integrand is
    :meth:`RatioCdfEvaluator.survival`, the closed form evaluated on all
    nodes of a refinement step at once, with a vectorized globally
    adaptive Gauss-Kronrod 7/15 rule (targets ``epsabs`` and 1e-10
    relative, at most 1,000 subintervals).

    Raises :class:`QuadratureError` when the closed form's worst-case
    rounding error over the range, eps sum_i |c_i| V / ln 2, exceeds
    1e-6 (checked before integrating: the alternating MIN-ES tables of
    large N and K), when the error estimate exceeds
    max(1e-6, 1e-6 |value|), or when the value is not finite.
    """
    ev = RatioCdfEvaluator(scenario, spec)
    upper = math.log1p((40.0 + math.log(scenario.n_transmitters)) / scenario.dest_rate)
    rounding = ev.survival_error_bound() * upper / LN2
    if rounding > 1e-6:
        raise QuadratureError(
            f"ESR integrand of {spec.label} is dominated by rounding: "
            f"worst-case error {rounding:.3g} bits"
        )
    val, err = _adaptive_gk15(lambda v: ev.survival(np.exp(v)), upper, epsabs, 1e-10, 1000)
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
