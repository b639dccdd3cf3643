"""The GK15 error estimate against the true quadrature error, from 40-digit mpmath.

Each check records the final partition of one ``_adaptive_gk15`` call,
applies the same Gauss-Kronrod rule on it to the integrand evaluated
in mpmath, and compares that rule's distance from the exact integral
(the truncation error the estimate stands for) with the claimed error.
The double value also differs from the rule by the rounding of its
integrand, which the estimate does not cover: for the OTS ESR
eps N s sum_k |w_k| V, the worst-case rounding over the range V of the
single-link weight table (the Laplace-transform integrand rounds less),
and 1e-12 of the value (some hundred times the largest seen) for the
other integrals, which state no bound.
"""

import math
import sys

import numpy as np
import pytest

import txsecrecy as tx
from txsecrecy import Knowledge, Scheme, SchemeSpec, asymptotics, metrics

from conftest import make_scenario, mp_decoupled_esr, mp_decoupled_esr_integrand

mp = pytest.importorskip("mpmath")

# the 15 Kronrod nodes and weights on [-1, 1] at full precision
_NODES = (
    "-0.991455371120812639206854697526329", "-0.949107912342758524526189684047851",
    "-0.864864423359769072789712788640926", "-0.741531185599394439863864773280788",
    "-0.586087235467691130294144845693013", "-0.405845151377397166906606412076961",
    "-0.207784955007898467600689403773245", "0",
)
_WEIGHTS = (
    "0.022935322010529224963732008058970", "0.063092092629978553290700663189204",
    "0.104790010322250183839876322541518", "0.140653259715525918745189590510238",
    "0.169004726639267902826583426598550", "0.190350578064785409913256402421014",
    "0.204432940075298892414161999234649", "0.209482141084727828012999174891714",
)


def _recorded_integral(monkeypatch, run):
    """(value, claimed error, final partition) of the one integral ``run()`` takes."""
    intervals, results = [], []
    gk15, adaptive = metrics._gk15, metrics._adaptive_gk15

    def recording_gk15(f, lo, hi):
        intervals.extend(zip(lo.ravel().tolist(), hi.ravel().tolist()))
        return gk15(f, lo, hi)

    def recording_adaptive(*args):
        results.append(adaptive(*args))
        return results[-1]

    monkeypatch.setattr(metrics, "_gk15", recording_gk15)
    monkeypatch.setattr(metrics, "_adaptive_gk15", recording_adaptive)
    monkeypatch.setattr(asymptotics, "_adaptive_gk15", recording_adaptive)
    run()
    ((value, claimed),) = results
    seen = set(intervals)
    # an interval was bisected if its left half was evaluated after it
    leaves = [(lo, hi) for lo, hi in intervals if (lo, 0.5 * (lo + hi)) not in seen]
    return value, claimed, leaves


def _mp_rule(f, leaves):
    """The GK15 Kronrod sum of the mpmath integrand f on the recorded partition."""
    nodes = [mp.mpf(x) for x in _NODES] + [-mp.mpf(x) for x in reversed(_NODES[:-1])]
    weights = [mp.mpf(w) for w in _WEIGHTS] + [mp.mpf(w) for w in reversed(_WEIGHTS[:-1])]
    total = []
    for lo, hi in leaves:
        mid, half = (mp.mpf(lo) + mp.mpf(hi)) / 2, (mp.mpf(hi) - mp.mpf(lo)) / 2
        total.append(half * mp.fsum(w * f(mid + half * x) for x, w in zip(nodes, weights)))
    return mp.fsum(total)


def _check(value, claimed, rule, exact, rounding):
    true_error = abs(rule - exact)
    assert claimed >= true_error, (claimed, float(true_error))
    # the value's whole error: the rule's, plus the integrand's rounding
    assert abs(value - exact) <= claimed + rounding, (value, float(exact))


def _mp_eave_pdf(sc):
    w = [mp.mpf(v) for v in tx.channel.hypoexp_weights(sc.eave_rates)]
    lam = [mp.mpf(v) for v in sc.eave_rates]
    return w, lam


def test_two_scale_definitional_error_estimate(monkeypatch):
    # F_D rises over 1/(lambda_D y) ~ 0.09 while the map's scale E[SE] is
    # 32; at a 1e-12 target the estimate once claimed 2.3e-13 here with
    # the value 9.0e-12 off
    sc = make_scenario(n=8, k=3, s=0.474, dest_db=18.7)
    ev = metrics.RatioCdfEvaluator(sc, SchemeSpec(Scheme.TTS, Knowledge.BKU))
    y, n_tx = 804.7, sc.n_transmitters
    value, claimed, leaves = _recorded_integral(monkeypatch, lambda: ev._definitional(y))
    with mp.workdps(40):
        w, lam = _mp_eave_pdf(sc)
        s, lam_d, yy = mp.mpf(sc.s), mp.mpf(sc.dest_rate), mp.mpf(y)
        mean = mp.mpf(float(np.sum(1.0 / np.array(sc.eave_rates))))

        def integrand(t):
            x = mean * t / (1 - t)
            fd = 1 - mp.exp(-lam_d * (yy * (x + 1) - 1))
            pdf = mp.fsum(wk * lk * mp.exp(-lk * x) for wk, lk in zip(w, lam))
            return (1 - s + s * fd**n_tx) * pdf * mean / (1 - t) ** 2

        # F_D^N expanded binomially: every term integrates in closed form
        exact = (1 - s) * mp.fsum(w) + s * mp.fsum(
            math.comb(n_tx, q) * (-1) ** q * mp.exp(-q * lam_d * (yy - 1))
            * mp.fsum(wk * lk / (q * lam_d * yy + lk) for wk, lk in zip(w, lam))
            for q in range(n_tx + 1)
        )
        _check(value, claimed, _mp_rule(integrand, leaves), exact, 1e-12 * value)


def _mp_ots_survival(sc, kn):
    """1 - F(x) of OTS at x >= 1 from the single-link table in mpmath."""
    w, lam = _mp_eave_pdf(sc)
    s, lam_d, n_tx = mp.mpf(sc.s), mp.mpf(sc.dest_rate), sc.n_transmitters

    def survival(x):
        t = mp.fsum(wk * lk * mp.exp(-lam_d * (x - 1)) / (lam_d * x + lk) for wk, lk in zip(w, lam))
        if kn is Knowledge.BKU:
            return s * (1 - (1 - t) ** n_tx)
        return 1 - (1 - s * t) ** n_tx

    return survival


@pytest.mark.parametrize("kn", list(Knowledge), ids=lambda k: k.name)
@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.name)
@pytest.mark.parametrize(
    "n, k, s, db", [(5, 3, 0.9, 20.0), (4, 6, 0.5, 0.0), (8, 3, 0.474, 18.7)]
)
def test_esr_quadrature_error_estimate(monkeypatch, scheme, kn, n, k, s, db):
    sc = make_scenario(n=n, k=k, s=s, dest_db=db)
    spec = SchemeSpec(scheme, kn)
    value, claimed, leaves = _recorded_integral(monkeypatch, lambda: tx.esr_quadrature(sc, spec))
    upper = math.log1p((40.0 + math.log(n)) / sc.dest_rate)
    with mp.workdps(40):
        if scheme is Scheme.OTS:
            survival = _mp_ots_survival(sc, kn)

            def integrand(v):
                return survival(mp.exp(v))

            exact = mp.quad(integrand, mp.linspace(0, upper, 17))
            abs_w = math.fsum(map(abs, tx.channel.hypoexp_weights(sc.eave_rates)))
            rounding = sys.float_info.epsilon * n * s * abs_w * upper
        else:
            integrand = mp_decoupled_esr_integrand(sc, spec, mp)
            exact = mp_decoupled_esr(sc, spec, mp) * mp.log(2)
            rounding = 1e-12 * value
        _check(value, claimed, _mp_rule(integrand, leaves), exact, rounding)


@pytest.mark.parametrize(
    "n, k, s, kn",
    [(5, 3, 0.9, Knowledge.BKU), (12, 6, 0.5, Knowledge.BKA), (40, 3, 0.9, Knowledge.BKU)],
    ids=("N5-BKU", "N12-BKA", "N40-BKU"),
)
def test_ots_offset_error_estimate(monkeypatch, n, k, s, kn):
    sc = make_scenario(n=n, k=k, s=s)
    w, lams = tx.channel.hypoexp_weights(sc.eave_rates), sc.eave_rates
    a = 1.0 if kn is Knowledge.BKU else s
    asymptotics._ots_offset.cache_clear()
    value, claimed, leaves = _recorded_integral(
        monkeypatch, lambda: asymptotics._ots_offset(n, lams, a)
    )
    lo = -40.0 - math.log1p(n * (1.0 + math.fsum(1.0 / lk for lk in lams)))
    hi = math.log(40.0 + math.log1p(n))
    with mp.workdps(40):
        am, wm, lm = mp.mpf(a), [mp.mpf(v) for v in w], [mp.mpf(v) for v in lams]
        head = 1 - (1 - am) ** n

        def g(u):
            t = mp.exp(lo + u)
            miss = 1 - mp.exp(-t) * mp.fsum(wk * lk / (lk + t) for wk, lk in zip(wm, lm))
            return (1 - am + am * miss) ** n - (1 - am) ** n - head * (1 - mp.exp(-t))

        exact = mp.quad(g, mp.linspace(0, hi - lo, 46))
        _check(value, claimed, _mp_rule(g, leaves), exact, 1e-12 * abs(value))
