"""Exact secrecy metrics via the CDF of the destination/eavesdropper SNR ratio.

For every selection scheme and backhaul-knowledge case the CDF F(y) of
the selected link's ratio (1 + SNR_dest) / (1 + SNR_eave) has a closed
form: from exponential term tables for MIN-ES and TTS, and from the
Laplace transform of one link's eavesdropping SNR for OTS.  The secrecy
outage probability is F(2^threshold_rate), the nonzero-secrecy-rate
probability is 1 - F(1), and the ergodic secrecy rate is the integral of
(1 - F(x))/x over [1, inf) divided by ln 2 -- summed term by term for
MIN-ES and TTS (:func:`esr_closed_form`) or integrated
(:func:`esr_quadrature`, all schemes).

Every integral in the library runs on one vectorized adaptive
Gauss-Kronrod 7/15 rule, of one row or of index-aligned rows (a sweep's
OTS ESR column), in integrand calls of at most 2,048 nodes; its callers
raise :class:`QuadratureError` rather than return an unconverged value.
Every MIN-ES and TTS closed form is taken only while its rounding bound
is at most 1e-6 of the value (of min(F, 1 - F) for SOP and NZSR), and a
MIN-ES table only up to 300 terms (above that none is built); elsewhere
F is one integral of F_D against the density of the selected eavesdropping
SNR, :func:`_min_eave_integral`, at any N, and the ESR is the quadrature.
MIN-ES picks its link by the eavesdroppers alone and TTS by the
destination alone, so their selected destination and eavesdropping SNRs
are independent and the ESR integrand is a product of two nonnegative
probabilities on numpy arrays of nodes, with no term table.  OTS needs
neither a table nor a bound: one link's tail is a product of factors in
(0, 1] that reads no hypoexponential weights.  Every metric reads F only
at y >= 1, the one range with closed forms; below it F is the integral.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import (
    _any_of,
    _log_laplace,
    _min_hypoexp_table,
    _thinning,
    bka_weight,
    hypoexp_cdf,
    hypoexp_sf,
    hypoexp_weights,
)
from .errors import QuadratureError, UnsupportedClosedFormError
from .scenario import Knowledge, Scenario, Scheme, SchemeSpec
from .specfun import exp_scaled_ei

LN2 = math.log(2.0)

#: MIN-ES SOP, NZSR and ESR integrate rather than expand a term table of
#: more terms than this, about where the integral becomes the faster
#: route: at y = 2 and 30 dB an SOP value from a cached table of 252
#: terms (BKU, N = 5, K = 6) took 0.07 ms against 0.09 ms for the
#: integral, from 462 terms 0.12 ms against 0.09 ms, and from 1,287 terms
#: 0.57 ms against 0.10 ms; at 0 and 60 dB the routes also cross between
#: 286 and 330 terms.
_MAX_TABLE_TERMS = 300

#: A closed form is taken only while its rounding bound eps sum_i |t_i|
#: over its terms t_i is at most this share of the value: min(F, 1 - F)
#: for every scheme's SOP and NZSR, and the ESR for MIN-ES and TTS
#: (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 4).
_ROUNDING_SHARE = 1e-6

#: Equal pieces of [0, upper] that :func:`_adaptive_gk15` starts from.  A
#: bisection step's cost is mostly per-call numpy overhead, not nodes, so
#: a start as fine as most integrals need saves the five or six steps a
#: single interval takes to reach it (16 and 64 pieces timed no better).
_GK15_START_PIECES = 32
#: Their ends j/32; as u/32 is exact too, u times it is np.linspace(0, u, 33).
_GK15_START_EDGES = np.arange(_GK15_START_PIECES + 1) / _GK15_START_PIECES

#: Intervals past which :func:`_adaptive_gk15` stops bisecting.
_GK15_MAX_PIECES = 1000

#: Most nodes per integrand call (a 31-point sweep column starts in eight).
_GK15_BLOCK_NODES = 2048

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


def _best_of_cdf(g, n: int, a: float, p: float):
    """(1-p) + p (1 - a + a g)^n: CDF of the best of n links of CDF g, thinned by (a, p)."""
    return (1.0 - p) + p * (1.0 - a + a * g) ** n


@dataclass(frozen=True)
class RatioCdfEvaluator:
    """Evaluates F(y) of the post-selection SNR ratio for one scenario+scheme.

    Backhaul enters by (a, p) of :func:`~txsecrecy.channel._thinning`.  A
    slot whose pick is not delivered has ratio 0, so F(0) = atom =
    (1-p) + p (1-a)^N <= F(y) for y > 0; y < 0 gives 0.  At y >= 1 MIN-ES
    and TTS read one term table: a short tuple of parts (weight, coeffs,
    lams, b), where every term of a part has c_i = weight * coeffs[i],
    rate lam_i = lams[i] and the same destination rate multiple b.  Each
    term contributes c_i lam_i e^{-b (y-1)} / (b y + lam_i), the integral
    J_i(y) of the destination tail against the eavesdropper density, and

    - MIN-ES: F = atom + sum_i c_i (1 - J_i), one part per count n of
      participating links, weight p C(N,n) (1-a)^(N-n) a^n, where not 0;
      the coeffs/lams are the term tables
      :func:`~txsecrecy.channel.min_hypoexp_terms` caches per
      (n, eavesdropper rates), shared, never copied;
    - TTS: F = head - sum_i c_i J_i over the binomial parts of the best
      destination tail, one per order q = 1..N, head = P(SE >= 0).

    s and lambda_D enter only as the scalar weight and b of each part.
    OTS has no table.  At y >= 1 one link's CDF is
    g = 1 - e^{-lambda_D (y-1)} L(lambda_D y), with L the Laplace
    transform of its eavesdropping SNR
    (:func:`~txsecrecy.channel._log_laplace`), and
    F = (1-p) + p (1 - a + a g)^N.  Below y = 1, which only
    :func:`ratio_cdf` reaches, every scheme's F is :meth:`_definitional`.
    Evaluation is a pure function of y and safe for concurrent use.
    """

    scenario: Scenario
    spec: SchemeSpec

    def __post_init__(self):
        sc, spec = self.scenario, self.spec
        a, p = _thinning(spec.knowledge, sc.s)
        object.__setattr__(self, "_thinned", (a, p))
        object.__setattr__(self, "_atom", (1.0 - p) + p * (1.0 - a) ** sc.n_transmitters)
        if spec.scheme is Scheme.MIN_ES:
            terms = _min_es_table_terms(sc.n_transmitters, sc.n_eavesdroppers, spec.knowledge)
            object.__setattr__(self, "_expand", terms <= _MAX_TABLE_TERMS)

    def parts(self) -> tuple:
        """The (weight, coeffs, lams, b) parts of the MIN-ES or TTS term table.

        Built on first request, at any table size.  OTS has no table and
        raises :class:`UnsupportedClosedFormError`.
        """
        if self.spec.scheme is Scheme.OTS:
            raise UnsupportedClosedFormError("OTS has no term table")
        return self._table[0]

    @cached_property
    def _table(self) -> tuple:
        """(parts, rounding bound) of the MIN-ES or TTS term table.

        The bound on the closed form's rounding is eps sum_i |weight c_i|
        for MIN-ES and eps (sum_k |w_k| + sum_i |weight c_i|) for TTS,
        whose head sum_k w_k is alternating too.
        """
        sc = self.scenario
        n_tx, lam_d, lam_e = sc.n_transmitters, sc.dest_rate, sc.eave_rates
        a, p = self._thinned
        if self.spec.scheme is Scheme.MIN_ES:
            # the minimum runs over the n links that take part, weighted by
            # the chance that n do and that the pick delivers
            parts, abs_sum = [], 0.0
            for n in range(1, n_tx + 1):
                weight = p * bka_weight(n_tx, n, a)
                if weight > 0.0:
                    (coeffs, lams), table_abs_sum = _min_hypoexp_table(n, lam_e)
                    parts.append((weight, coeffs, lams, lam_d))
                    abs_sum += weight * table_abs_sum
            parts = tuple(parts)
        else:
            # the best destination tail, p (1 - (1 - a e^{-u})^N), is
            # p sum_q C(N,q) (-1)^{q+1} a^q e^{-q u}
            w = hypoexp_weights(lam_e)
            parts = tuple(
                (p * math.comb(n_tx, q) * (-1.0) ** (q + 1) * a**q, w, lam_e, q * lam_d)
                for q in range(1, n_tx + 1)
            )
            # the head and every part read the same weights, and the
            # parts' |weight| sum to p ((1 + a)^N - 1)
            abs_sum = sum(map(abs, w)) * (1.0 + p * ((1.0 + a) ** n_tx - 1.0))
        return parts, sys.float_info.epsilon * abs_sum

    def _closed_form(self, y: float) -> tuple:
        """(F(y), bound on its rounding error) of MIN-ES or TTS from :attr:`_table`, at y >= 1."""
        # per-y invariants hoisted out of the term loop, which reads the
        # parts directly; fsum is correctly rounded in any term order
        bound = self._table[1]
        ym1 = y - 1.0
        exp = math.exp
        if self.spec.scheme is Scheme.MIN_ES:
            body = math.fsum(
                (weight * c) * (1.0 - lam * exp(-b * ym1) / (b * y + lam))
                for weight, coeffs, lams, b in self.parts()
                for c, lam in zip(coeffs, lams)
            )
            return self._atom + body, bound
        head = hypoexp_sf(0.0, self.scenario.eave_rates)
        tail = math.fsum(
            (weight * c) * (lam * exp(-b * ym1) / (b * y + lam))
            for weight, coeffs, lams, b in self.parts()
            for c, lam in zip(coeffs, lams)
        )
        return head - tail, bound

    def _definitional(self, y: float) -> float:
        """Quadrature of the defining integral with unexpanded CDFs.

        Free of alternating-sign cancellation; used below y = 1 and where
        the closed form is too rounded or a MIN-ES table too large (see
        :meth:`__call__`).  An undelivered slot has ratio 0, so F >= atom.
        :func:`_min_eave_integral` takes, over x >= x0 = max(0, 1/y - 1),
        F_D = 1 - e^{-lambda_D (y (x+1) - 1)} over the least of N
        eavesdropping SNRs, each present with probability a (MIN-ES:
        atom + p a times it), or over one link (1-p) + p (1 - a + a F_D)^N
        (TTS, plus atom F_1(x0) for the undelivered slots below x0) or F_D
        (OTS: g, and F = (1-p) + p (1 - a + a g)^N).
        """
        sc = self.scenario
        lam_d, n_tx, rates = sc.dest_rate, sc.n_transmitters, sc.eave_rates
        a, p = self._thinned
        x0 = max(0.0, 1.0 / y - 1.0)

        def fd(x):
            return -np.expm1(-lam_d * np.maximum(y * (x + 1.0) - 1.0, 0.0))

        if self.spec.scheme is Scheme.MIN_ES:
            return self._atom + p * a * _min_eave_integral(rates, n_tx, a, fd, x0)
        if self.spec.scheme is Scheme.TTS:
            val = _min_eave_integral(rates, 1, 1.0, lambda x: _best_of_cdf(fd(x), n_tx, a, p), x0)
            return val + self._atom * hypoexp_cdf(x0, rates) if x0 > 0.0 else val
        return _best_of_cdf(_min_eave_integral(rates, 1, 1.0, fd, x0), n_tx, a, p)

    def __call__(self, y: float) -> float:
        """F(y), clamped to [0, 1]: the closed form where it is safe, else the integral.

        Below y = 1 every scheme integrates (:meth:`_definitional`).  OTS
        takes its closed form (see the class docstring) with no bound or
        fallback: g = -expm1(log of the tail) keeps its relative accuracy
        as the tail nears 1, and so g^N as F -> 0.  MIN-ES and TTS
        integrate where the closed form's rounding bound (see
        :meth:`_closed_form`) exceeds 1e-6 min(F, 1 - F), so that both F
        and 1 - F keep six digits; a closed form that cancels to 0 or
        below always fails this test.  MIN-ES also integrates, faster,
        when its table would have more than 300 terms, and builds none.
        The integral raises :class:`QuadratureError` rather than return
        an unconverged value.
        """
        if y <= 0.0:
            return self._atom if y == 0.0 else 0.0
        sc, scheme = self.scenario, self.spec.scheme
        if y < 1.0 or (scheme is Scheme.MIN_ES and not self._expand):
            val = self._definitional(y)
        elif scheme is Scheme.OTS:
            lam_d = sc.dest_rate
            g = -math.expm1(-lam_d * (y - 1.0) + _log_laplace(lam_d * y, sc.eave_rates))
            val = _best_of_cdf(g, sc.n_transmitters, *self._thinned)
        else:
            val, bound = self._closed_form(y)
            if bound > _ROUNDING_SHARE * min(val, 1.0 - val):
                val = self._definitional(y)
        return min(max(val, 0.0), 1.0)


def ratio_cdf(scenario: Scenario, spec: SchemeSpec, y: float) -> float:
    """CDF of the post-selection secrecy SNR ratio at ``y``.

    An undelivered slot has ratio 0 in every scheme, so F(y) >= F(0) =
    1 - s (BKU) or (1 - s)^N (BKA) for y >= 0; y < 0 gives 0.
    """
    return RatioCdfEvaluator(scenario, spec)(y)


def sop(scenario: Scenario, spec: SchemeSpec) -> float:
    """Secrecy outage probability, F(2^threshold_rate).

    From the closed form or the definitional integral by one rounding
    rule (:meth:`RatioCdfEvaluator.__call__`); MIN-ES builds no term
    table of more than 300 terms here.
    """
    return RatioCdfEvaluator(scenario, spec)(scenario.rho)


def nzsr(scenario: Scenario, spec: SchemeSpec) -> float:
    """Probability of a strictly positive secrecy rate, 1 - F(1).

    MIN-ES and TTS are routed as :func:`sop`; their rounding bounds are
    held against min(F, 1 - F), so a closed-form 1 - F also keeps six
    digits.  OTS forms p (1 - (1 - a u)^N), with no subtraction from 1,
    of one link's tail u = L(lambda_D) (the ESR integrand at t = 0).
    """
    if spec.scheme is Scheme.OTS:
        a, p = _thinning(spec.knowledge, scenario.s)
        u = math.exp(_log_laplace(scenario.dest_rate, scenario.eave_rates))
        return float(p * _any_of(u, scenario.n_transmitters, a))
    return 1.0 - RatioCdfEvaluator(scenario, spec)(1.0)


def esr_closed_form(scenario: Scenario, spec: SchemeSpec) -> float:
    """Closed-form ergodic secrecy rate for MIN-ES and TTS.

    The paper's term sum (:func:`_esr_term_sum`) where it is taken, else
    :func:`esr_quadrature`'s integral.  OTS has no well-defined closed
    form here (its published form needs the incomplete gamma at
    nonpositive order and negative argument); use :func:`esr_quadrature`.
    """
    if spec.scheme is Scheme.OTS:
        raise UnsupportedClosedFormError("no closed-form ESR for OTS; use esr_quadrature")
    esr = _esr_term_sum(scenario, spec)
    return esr_quadrature(scenario, spec) if esr is None else esr


def _esr_term_sum(scenario: Scenario, spec: SchemeSpec) -> float | None:
    """The MIN-ES or TTS ESR in bits summed term by term, or None where it is not taken.

    Each term of 1 - F(x) integrates against 1/x into weight c_i
    (e(lam_i + b) - e(b)), e(a) = e^a Ei(-a).  The sum is taken while
    its rounding bound eps sum_i |weight c_i| (|e(lam_i + b)| + |e(b)|)
    is at most 1e-6 of it, and for MIN-ES only from a table of at most
    300 terms (none larger is built).
    """
    ev = RatioCdfEvaluator(scenario, spec)
    if spec.scheme is Scheme.MIN_ES and not ev._expand:
        return None
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
    return esr / LN2 if bound <= _ROUNDING_SHARE * abs(esr) else None


def _gk15(f, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """Kronrod value and QUADPACK error estimate of f on each piece [lo, hi] of (M, P) rows.

    f maps (M, n) points, row i on row i's pieces, to their values; it gets whole pieces
    of every row, at most :data:`_GK15_BLOCK_NODES` nodes a call.  No value depends on it.
    """
    rows, pieces = lo.shape
    step = max(1, _GK15_BLOCK_NODES // (15 * rows))
    if pieces > step:
        blocks = [_gk15(f, lo[:, j:j + step], hi[:, j:j + step]) for j in range(0, pieces, step)]
        return tuple(np.concatenate(part, axis=1) for part in zip(*blocks))
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[..., None] + half[..., None] * _GK15_NODES
    fx = f(nodes.reshape(rows, -1)).reshape(nodes.shape)
    # ufunc reduces: the ndarray sum/max/any methods add a Python call each
    kronrod = np.add.reduce(fx * _GK15_WEIGHTS, axis=-1)
    gauss = np.add.reduce(fx[..., 1::2] * _G7_WEIGHTS, axis=-1)
    asc = np.add.reduce(np.abs(fx - 0.5 * kronrod[..., None]) * _GK15_WEIGHTS, axis=-1)
    diff = np.abs(kronrod - gauss)
    # smaller than |K - G| once the rule has resolved f; 0 where f is flat
    err = asc * np.minimum(1.0, (200.0 * diff / np.where(asc > 0, asc, 1.0)) ** 1.5)
    return kronrod * half, err * half


def _adaptive_gk15(f, upper, epsabs: float, epsrel: float) -> tuple:
    """Globally adaptive GK15 integral of f over [0, upper]: (value, error estimate).

    For an array ``upper`` of M ends, row i of f's (M, n) points (see
    :func:`_gk15`) runs over [0, upper_i] and the results are arrays; a float
    ``upper`` is the one-row case, f on 1-D arrays.  Rows start from
    :data:`_GK15_START_PIECES` equal, index-aligned intervals; each step
    bisects every interval that an unconverged row would (error above its
    length's share of the row's tolerance, or its worst).  A row's value is
    fixed once its summed error meets max(epsabs, epsrel |value|), or at the
    last step before :data:`_GK15_MAX_PIECES` intervals.
    """
    one_row = isinstance(upper, float)
    col, g = (np.array([[upper]]), lambda x: f(x[0])[None]) if one_row else (upper[:, None], f)
    edges = _GK15_START_EDGES * col
    lo, hi = edges[:, :-1], edges[:, 1:]
    val, err = _gk15(g, lo, hi)
    todo, total, total_err = list(range(len(col))), [0.0] * len(col), [0.0] * len(col)
    while True:
        sums, sums_err = np.add.reduce(val, axis=1).tolist(), np.add.reduce(err, axis=1).tolist()
        tol = [max(epsabs, epsrel * abs(s)) for s in sums]
        for i in todo:
            total[i], total_err[i] = sums[i], sums_err[i]
        todo = [i for i in todo if math.isfinite(sums_err[i]) and sums_err[i] > tol[i]]
        if not todo:
            break
        want = ((err * col > np.array(tol)[:, None] * (hi - lo))
                | (err == np.maximum.reduce(err, axis=1, keepdims=True)))
        split = np.logical_or.reduce(want if len(todo) == len(col) else want[todo])
        if lo.shape[1] + np.count_nonzero(split) > _GK15_MAX_PIECES:
            break
        cut, keep = split.nonzero()[0], (~split).nonzero()[0]
        lo_cut, hi_cut = lo.take(cut, axis=1), hi.take(cut, axis=1)
        mid = 0.5 * (lo_cut + hi_cut)
        new_lo, new_hi = (np.concatenate(pair, axis=1) for pair in ((lo_cut, mid), (mid, hi_cut)))
        new = (new_lo, new_hi, *_gk15(g, new_lo, new_hi))
        lo, hi, val, err = (np.concatenate((old.take(keep, axis=1), add), axis=1)
                            for old, add in zip((lo, hi, val, err), new))
    return (total[0], total_err[0]) if one_row else (np.array(total), np.array(total_err))


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
    val, err = _adaptive_gk15(integrand, 1.0, 0.0, 1e-13)
    if not math.isfinite(val) or err > 1e-10 * abs(val):
        raise QuadratureError(
            f"integral over the least eavesdropping SNR of {n} transmitters did not "
            f"converge: value={val}, err={err}"
        )
    return val


def esr_quadrature(scenario: Scenario, spec: SchemeSpec, epsabs: float = 1e-9) -> float:
    """Ergodic secrecy rate by adaptive quadrature.

    With D the selected destination SNR (0 where the backhaul is down)
    and E the selected eavesdropping SNR, the ESR in nats is
    E[(ln(1+D) - ln(1+E))^+] = int_0^inf P(E < t < D) dv, t = e^v - 1.
    MIN-ES picks its link by the eavesdroppers alone and TTS by the
    destination alone, so D and E are independent and
    P(E < t < D) = F_E(t) sf_D(t), a product of nonnegative factors
    ((a, p) of :func:`~txsecrecy.channel._thinning`; F_1 is one
    link's :func:`~txsecrecy.channel.hypoexp_cdf` and
    :func:`~txsecrecy.channel._any_of` forms 1 - (1 - a u)^N):

    - MIN-ES: F_E = 1 - (1 - a F_1)^N, sf_D = p e^{-lambda_D t};
    - TTS:    F_E = F_1, sf_D = p (1 - (1 - a e^{-lambda_D t})^N).

    OTS couples D and E in its pick; it integrates 1 - F(1 + t) =
    p (1 - (1 - a u)^N), the TTS form, of one link's tail
    u = e^{-lambda_D t} L(lambda_D (1 + t)), L the Laplace transform of
    its eavesdropping SNR, which reads no weights.  The selected
    destination SNR is at most the best of N exponential links, so the
    integrand is at most N e^{-lambda_D t} and the range stops at
    V = ln(1 + (40 + ln N)/lambda_D), where that is e^-40.  It is the
    one-row case of :func:`_esr_rows`, which a sweep calls with a row per
    point (same bits), on the adaptive GK15 rule (targets ``epsabs`` and
    1e-10 relative, at most 1,000 subintervals).  Raises
    :class:`QuadratureError` when the error estimate exceeds
    max(1e-6, 1e-6 |value|) or the value is not finite.
    """
    (val,), (err,) = _esr_rows((scenario,), spec, epsabs)
    return _esr_bits(val, err, spec)


def _esr_rows(scenarios, spec: SchemeSpec, epsabs: float = 1e-9) -> tuple:
    """Values (nats) and errors of :func:`esr_quadrature`'s integral, rows sharing eave_rates."""
    rates = scenarios[0].eave_rates
    n_tx, lam_d, a, p, upper = np.array([
        (sc.n_transmitters, sc.dest_rate, *_thinning(spec.knowledge, sc.s),
         math.log1p((40.0 + math.log(sc.n_transmitters)) / sc.dest_rate)) for sc in scenarios
    ]).T[..., None]
    if spec.scheme is Scheme.MIN_ES:
        def integrand(v):
            t = np.expm1(v)
            return _any_of(hypoexp_cdf(t, rates), n_tx, a) * p * np.exp(-lam_d * t)
    elif spec.scheme is Scheme.TTS:
        def integrand(v):
            t = np.expm1(v)
            return hypoexp_cdf(t, rates) * p * _any_of(np.exp(-lam_d * t), n_tx, a)
    else:
        def integrand(v):
            t = np.expm1(v)
            tail = np.exp(-lam_d * t + _log_laplace(lam_d * (t + 1.0), rates))
            return p * _any_of(tail, n_tx, a)

    return _adaptive_gk15(integrand, upper[:, 0], epsabs, 1e-10)


def _esr_bits(val: float, err: float, spec: SchemeSpec) -> float:
    """One row of :func:`_esr_rows` in bits, or :class:`QuadratureError` unless it converged."""
    if not math.isfinite(val) or err > max(1e-6, 1e-6 * abs(val)):
        raise QuadratureError(
            f"ESR quadrature did not converge for {spec.label}: value={val}, err={err}"
        )
    return max(float(val) / LN2, 0.0)
