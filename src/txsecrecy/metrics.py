"""Exact secrecy metrics via the CDF of the destination/eavesdropper SNR ratio.

For every selection scheme and backhaul-knowledge case the CDF F(y) of
the selected link's ratio (1 + SNR_dest) / (1 + SNR_eave) has a closed
form built from exponential term tables.  The secrecy outage probability
is F(2^threshold_rate), the nonzero-secrecy-rate probability is
1 - F(1), and the ergodic secrecy rate is the integral of (1 - F(x))/x
over [1, inf) divided by ln 2 -- evaluated in closed form (MIN-ES, TTS)
or by adaptive quadrature (all schemes, authoritative for OTS).

Every integral in the library runs on one vectorized adaptive
Gauss-Kronrod 7/15 rule; its callers raise :class:`QuadratureError`
rather than return an unconverged value.  A MIN-ES term table is summed
only while it has at most 2,000 terms (above that none is built) and its
rounding bound is at most 1e-6 of the value (of min(F, 1 - F) for SOP and
NZSR); elsewhere the value is one integral of a kernel against the
density of the selected eavesdropping SNR, :func:`_min_eave_integral`,
at any N.  Every scheme also integrates F where its closed form is below
1e-8.  For TTS and OTS the ESR quadrature integrates the closed form's
tail sum 1 - F, evaluated on numpy arrays of nodes, in log space up to
V = ln(1 + (40 + ln N)/lambda_D), where 1 - F <= N e^{-lambda_D (x-1)}
is below e^-40, and refuses (:class:`QuadratureError`) a term table
whose worst-case rounding error over that range exceeds 1e-6 bits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from scipy.special import exp1

from .channel import _min_hypoexp_table, bka_weight, hypoexp_weights
from .errors import QuadratureError, UnsupportedClosedFormError
from .scenario import Knowledge, Scenario, Scheme, SchemeSpec
from .specfun import exp_scaled_ei

LN2 = math.log(2.0)

#: Below this value the alternating closed forms of the ratio CDF are
#: dominated by cancellation and the definitional integral is used instead.
_CANCELLATION_FLOOR = 1e-8

#: MIN-ES SOP, NZSR and ESR integrate rather than expand a term table of
#: more terms than this; there the integral is the faster route (about
#: 0.5 ms a value against 0.7 ms for the 3,002 terms of MIN-ES-BKA at
#: N = 8, K = 6, and 6 ms at N = 12).
_MAX_TABLE_TERMS = 2000

#: A closed form is taken only while its rounding bound eps sum_i |t_i|
#: over its terms t_i is at most this share of the value: min(F, 1 - F)
#: for MIN-ES SOP and NZSR, the ESR for MIN-ES and TTS (Higham, Accuracy
#: and Stability of Numerical Algorithms, 2nd ed., ch. 4).
_ROUNDING_SHARE = 1e-6

#: Upper bound on the points x terms products :meth:`RatioCdfEvaluator.survival`
#: forms at once; a TTS-BKA table at N = 40, K = 6 has 4,920 terms.
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


def _min_es_table_terms(n_tx: int, k: int, knowledge: Knowledge) -> int:
    """Terms of the MIN-ES table: C(N+K-1, K-1) (BKU), or that summed over n = 1..N (BKA)."""
    if knowledge is Knowledge.BKU:
        return math.comb(n_tx + k - 1, k - 1)
    return math.comb(n_tx + k, k) - 1


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
        if spec.scheme is Scheme.MIN_ES:
            n_tx = sc.n_transmitters
            bku = spec.knowledge is Knowledge.BKU
            object.__setattr__(self, "_atom", 1.0 - sc.s if bku else (1.0 - sc.s) ** n_tx)
            terms = _min_es_table_terms(n_tx, sc.n_eavesdroppers, spec.knowledge)
            object.__setattr__(self, "_expand", terms <= _MAX_TABLE_TERMS)

    def parts(self) -> tuple:
        """The (weight, coeffs, lams, b) parts of the term table (all schemes).

        Built on first request, at any table size.
        """
        return self._table[0]

    @cached_property
    def _table(self) -> tuple:
        """(parts, rounding bound): the term table and eps sum_i |weight c_i| (MIN-ES).

        The bound is 0 for TTS and OTS, whose routes do not read it.
        """
        sc, spec = self.scenario, self.spec
        n_tx, s, lam_d, lam_e = sc.n_transmitters, sc.s, sc.dest_rate, sc.eave_rates
        abs_sum = 0.0
        if spec.scheme is Scheme.MIN_ES:
            if spec.knowledge is Knowledge.BKU:
                (coeffs, lams), abs_sum = _min_hypoexp_table(n_tx, lam_e)
                parts = ((s, coeffs, lams, lam_d),)
                abs_sum *= s
            else:
                # the minimum runs over the n active transmitters
                parts = []
                for n in range(1, n_tx + 1):
                    weight = bka_weight(n_tx, n, s)
                    (coeffs, lams), table_abs_sum = _min_hypoexp_table(n, lam_e)
                    parts.append((weight, coeffs, lams, lam_d))
                    abs_sum += weight * table_abs_sum
                parts = tuple(parts)
        elif spec.scheme is Scheme.OTS:
            parts = ((1.0, self._hypo_w, lam_e, lam_d),)
        elif spec.knowledge is Knowledge.BKU:
            # the dead-backhaul mass of TTS sits in the destination
            # mixture, not in a separate atom
            parts = tuple(
                (s * math.comb(n_tx, n) * (-1.0) ** (n + 1), self._hypo_w, lam_e, n * lam_d)
                for n in range(1, n_tx + 1)
            )
        else:
            parts = tuple(
                (bka_weight(n_tx, n, s) * math.comb(n, q) * (-1.0) ** (q + 1),
                 self._hypo_w, lam_e, q * lam_d)
                for n in range(1, n_tx + 1)
                for q in range(1, n + 1)
            )
        return parts, sys.float_info.epsilon * abs_sum

    @cached_property
    def _hypo_w(self) -> tuple:
        """One transmitter's eavesdropper sf weights (the TTS and OTS tables)."""
        return hypoexp_weights(self.scenario.eave_rates)

    # -- survival on x >= 1 (ESR integrand) ----------------------------
    @cached_property
    def _survival_table(self) -> tuple:
        """(c_i lam_i, lam_i, b_i) arrays of the tail sum, and its rounding scale.

        Built on first use: most evaluators never integrate the ESR.
        """
        parts = self.parts()
        c = np.concatenate([weight * np.array(coeffs) for weight, coeffs, _, _ in parts])
        lam = np.concatenate([np.array(lams) for _, _, lams, _ in parts])
        b = np.concatenate([np.full(len(lams), bp) for _, _, lams, bp in parts])
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

    def _eave_sf(self, x: float) -> float:
        """P(SE >= x) of one transmitter's colluding eavesdroppers."""
        rates = self.scenario.eave_rates
        return math.fsum(wk * math.exp(-lk * x) for wk, lk in zip(self._hypo_w, rates))

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
                for weight, coeffs, lams, b in self.parts()
                for c, lam in zip(coeffs, lams)
            )
            return self._atom + body
        head = self._eave_sf(x0)
        tail = math.fsum(
            (weight * c) * (lam * exp(-b * ym1 - lam * x0) / (b * y + lam))
            for weight, coeffs, lams, b in self.parts()
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

        Free of alternating-sign cancellation; used in the closed form's
        deep left tail and wherever a MIN-ES table is too large or too
        rounded (see :meth:`__call__`).  :func:`_min_eave_integral` takes,
        over x >= x0 = max(0, 1/y - 1), F_D = 1 - e^{-lambda_D (y (x+1) - 1)}
        over the least of N eavesdropping SNRs, each present with
        probability 1 (BKU) or s (BKA) (MIN-ES), or, over one link,
        (1-s) + s F_D^N (TTS-BKU), ((1-s) + s F_D)^N (TTS-BKA) or F_D
        (OTS, then raised to the N-th power as in :meth:`_closed_form`).
        """
        sc, spec = self.scenario, self.spec
        lam_d, s, n_tx, rates = sc.dest_rate, sc.s, sc.n_transmitters, sc.eave_rates
        x0 = max(0.0, 1.0 / y - 1.0)
        bku = spec.knowledge is Knowledge.BKU

        def fd(x):
            return -np.expm1(-lam_d * np.maximum(y * (x + 1.0) - 1.0, 0.0))

        if spec.scheme is Scheme.MIN_ES:
            return self._atom + s * _min_eave_integral(rates, n_tx, 1.0 if bku else s, fd, x0)
        if spec.scheme is Scheme.TTS:
            if bku:
                return _min_eave_integral(rates, 1, 1.0, lambda x: 1.0 - s + s * fd(x) ** n_tx, x0)
            return _min_eave_integral(rates, 1, 1.0, lambda x: (1.0 - s + s * fd(x)) ** n_tx, x0)
        val = _min_eave_integral(rates, 1, 1.0, fd, x0)
        if bku:
            return (1.0 - s) + s * val**n_tx
        # an inactive transmitter carries ratio 1/(1 + SE), so its
        # per-link factor below y = 1 is the eavesdropper sf at x0
        return ((1.0 - s) * self._eave_sf(x0) + s * val) ** n_tx

    def __call__(self, y: float) -> float:
        """F(y), clamped to [0, 1]: the closed form where it is safe, else the integral.

        Every scheme integrates (:meth:`_definitional`) where the closed
        form is below 1e-8, the deep left tail where its alternating sums
        cancel.  MIN-ES also integrates when its term table has more than
        2,000 terms, without building the table, and when the table's
        rounding bound eps sum_i |weight c_i| exceeds
        1e-6 min(F, 1 - F), so that both F and 1 - F keep six digits.
        The integral raises :class:`QuadratureError` rather than return
        an unconverged value.
        """
        if y <= 0.0:
            return 0.0
        min_es = self.spec.scheme is Scheme.MIN_ES
        if min_es and not self._expand:
            val = self._definitional(y)
        else:
            val = self._closed_form(y)
            if val < _CANCELLATION_FLOOR or (
                min_es and self._table[1] > _ROUNDING_SHARE * min(val, 1.0 - val)
            ):
                val = self._definitional(y)
        return min(max(val, 0.0), 1.0)


def ratio_cdf(scenario: Scenario, spec: SchemeSpec, y: float) -> float:
    """CDF of the post-selection secrecy SNR ratio at ``y``."""
    return RatioCdfEvaluator(scenario, spec)(y)


def sop(scenario: Scenario, spec: SchemeSpec) -> float:
    """Secrecy outage probability, F(2^threshold_rate).

    From the closed form or the definitional integral, routed as in
    :meth:`RatioCdfEvaluator.__call__`; MIN-ES builds no term table of
    more than 2,000 terms here.
    """
    return RatioCdfEvaluator(scenario, spec)(scenario.rho)


def nzsr(scenario: Scenario, spec: SchemeSpec) -> float:
    """Probability of a strictly positive secrecy rate, 1 - F(1).

    Routed as :func:`sop`; the MIN-ES rounding bound is held against
    min(F, 1 - F), so a closed-form 1 - F also keeps six digits.
    """
    return 1.0 - RatioCdfEvaluator(scenario, spec)(1.0)


def esr_closed_form(scenario: Scenario, spec: SchemeSpec) -> float:
    """Closed-form ergodic secrecy rate for MIN-ES and TTS.

    Each term of 1 - F(x) integrates against 1/x into weight c_i
    (e(lam_i + b) - e(b)), e(a) = e^a Ei(-a), summed while the rounding
    bound eps sum_i |weight c_i| (|e(lam_i + b)| + |e(b)|) is at most
    1e-6 of the sum.  Past it, and for a MIN-ES table of more than 2,000
    terms (not built), MIN-ES returns :func:`esr_quadrature`'s integral
    and TTS raises :class:`QuadratureError`.  OTS has no well-defined
    closed form here (its published form needs the incomplete gamma at
    nonpositive order and negative argument); use :func:`esr_quadrature`.
    """
    if spec.scheme is Scheme.OTS:
        raise UnsupportedClosedFormError("no closed-form ESR for OTS; use esr_quadrature")
    ev = RatioCdfEvaluator(scenario, spec)
    min_es = spec.scheme is Scheme.MIN_ES
    if min_es and not ev._expand:
        return esr_quadrature(scenario, spec)
    terms, scale = [], []
    for weight, coeffs, lams, b in ev.parts():
        # b is lambda_D for MIN-ES and the n (or q) multiple of it for TTS,
        # the same for every term of the part
        eb = exp_scaled_ei(b)
        for c, lam in zip(coeffs, lams):
            elb = exp_scaled_ei(lam + b)
            terms.append((weight * c) * (elb - eb))
            scale.append(abs(weight * c) * (abs(elb) + abs(eb)))
    esr = math.fsum(terms)
    bound = sys.float_info.epsilon * math.fsum(scale)
    if bound <= _ROUNDING_SHARE * abs(esr):
        return esr / LN2
    if min_es:
        return esr_quadrature(scenario, spec)
    raise QuadratureError(
        f"closed-form ESR of {spec.label} is dominated by rounding: "
        f"bound {bound / LN2:.3g} bits on {esr / LN2:.6g}"
    )


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


def _min_eave_integral(rates: tuple, n: int, a: float, phi, x0: float = 0.0) -> float:
    """int_{x0}^inf phi(x) n f(x) sigma(x)^{n-1} dx, sigma = 1 - a + a sf(x).

    With one link's eavesdropper pdf f and sf (``rates``), unexpanded,
    a n f sigma^{n-1} is the density of the least eavesdropping SNR of n
    transmitters each present with probability a; the caller applies a.
    phi maps an array of x to an array.  With x = x0 + E[SE] t/(1-t) it
    runs over t in [0, 1] on the GK15 rule (1e-13 relative) and raises
    :class:`QuadratureError` unless the value is finite and its error
    estimate at most 1e-10 |value|.
    """
    lam_e, w = np.array(rates), np.array(hypoexp_weights(rates))
    mean = float((1.0 / lam_e).sum())

    def integrand(t):
        x = x0 + mean * t / (1.0 - t)
        e = np.exp(-x[:, None] * lam_e)
        sigma = 1.0 - a + a * (e @ w)
        return n * sigma ** (n - 1) * phi(x) * (e @ (w * lam_e)) * mean / (1.0 - t) ** 2

    # at 1e-12 the GK15 estimate passed errors near 1e-11 where F is near 1
    val, err = _adaptive_gk15(integrand, 1.0, 0.0, 1e-13, 1000)
    if not math.isfinite(val) or err > 1e-10 * abs(val):
        raise QuadratureError(
            f"integral over the least eavesdropping SNR of {n} transmitters did not "
            f"converge: value={val}, err={err}"
        )
    return val


def esr_quadrature(scenario: Scenario, spec: SchemeSpec, epsabs: float = 1e-9) -> float:
    """Ergodic secrecy rate by adaptive quadrature.

    MIN-ES needs no term table at any N: for y >= 1, 1 - F(y) is s times
    the mean of e^{-lambda_D (y (1+x) - 1)} over the selected eavesdropping
    SNR x, so :func:`_min_eave_integral` (a = 1 for BKU, s for BKA; no
    ``epsabs``) takes the kernel e^{lambda_D} E1(lambda_D (1+x)).  TTS and
    OTS integrate 1 - F in log space: the integral of 1 - F(e^v) over v >= 0,
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
    1e-6 (checked before integrating: the alternating TTS tables of
    large N), when the error estimate exceeds max(1e-6, 1e-6 |value|),
    or when the value is not finite.
    """
    if spec.scheme is Scheme.MIN_ES:
        lam_d, s = scenario.dest_rate, scenario.s

        def kappa(x):
            if lam_d < 600.0:
                return math.exp(lam_d) * exp1(lam_d * (1.0 + x))
            # e^{lambda_D} overflows; the fused e^z Ei(-z) does not
            return -np.exp(-lam_d * x) * np.vectorize(exp_scaled_ei)(lam_d * (1.0 + x))

        a = 1.0 if spec.knowledge is Knowledge.BKU else s
        return s * _min_eave_integral(scenario.eave_rates, scenario.n_transmitters, a, kappa) / LN2
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
