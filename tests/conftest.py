import functools
import math

import pytest

import txsecrecy as tx

EAVE_DB_K3 = (6.0, 9.0, 13.0)
EAVE_DB_K1 = (13.0,)


def make_scenario(n=5, k=3, s=0.9, dest_db=20.0, rth=1.0):
    eave = EAVE_DB_K3[:k] if k <= 3 else tuple(6.0 + 2.0 * i for i in range(k))
    return tx.scenario_from_db(n, k, s, dest_db, eave, threshold_rate=rth)


@pytest.fixture(scope="session")
def base_scenario():
    return make_scenario()


@functools.lru_cache(maxsize=None)
def mp_min_table(n, rates, mp):
    """(c_i, lam_i) of the min of n hypoexponential draws, built in ``mp`` at 50 digits.

    c_i = n! prod_k w_k^i_k / i_k! over the compositions i of n, with
    the weights w_k formed in mp from the double rates.
    """
    with mp.workdps(50):
        r = [mp.mpf(v) for v in rates]
        w = []
        for k, rk in enumerate(r):
            denom = rk
            for j, rj in enumerate(r):
                if j != k:
                    denom *= rj - rk
            w.append(mp.fprod(r) / denom)
        rows = [(mp.mpf(math.factorial(n)), mp.mpf(0), n)]
        for k in range(len(r)):
            pw = [w[k] ** i / math.factorial(i) for i in range(n + 1)]
            rows = [
                (c * pw[i], lam + i * r[k], left - i)
                for c, lam, left in rows
                # the last part takes what is left
                for i in (range(left + 1) if k < len(r) - 1 else (left,))
            ]
        return tuple((c, lam) for c, lam, _ in rows)


def mp_min_es_parts(sc, kn, mp):
    """(weight, n) of the MIN-ES parts in ``mp``: (s, N) for BKU, one per active count n for BKA."""
    n_tx, s = sc.n_transmitters, mp.mpf(sc.s)
    if kn is tx.Knowledge.BKU:
        return [(s, n_tx)]
    return [(math.comb(n_tx, n) * (1 - s) ** (n_tx - n) * s**n, n) for n in range(1, n_tx + 1)]


@functools.lru_cache(maxsize=None)
def mp_min_table_e1(n, rates, shift, mp):
    """sum_i c_i e^a E1(a), a = lam_i + shift, over :func:`mp_min_table` at 40 digits."""
    with mp.workdps(40):
        return mp.fsum(
            c * mp.exp(lam + shift) * mp.e1(lam + shift) for c, lam in mp_min_table(n, rates, mp)
        )


def mp_hypoexp_cdf(rates, mp):
    """F_1(t) = 1 - sum_k w_k e^(-r_k t), the weights formed in ``mp`` from the double rates."""
    r = [mp.mpf(v) for v in rates]
    w = [
        mp.fprod(r) / (rk * mp.fprod(rj - rk for j, rj in enumerate(r) if j != k))
        for k, rk in enumerate(r)
    ]
    return lambda t: 1 - mp.fsum(wk * mp.exp(-rk * t) for wk, rk in zip(w, r))


def mp_decoupled_esr_integrand(sc, spec, mp):
    """P(E < t < D) at t = e^v - 1 for MIN-ES or TTS, from the factors F_E and sf_D in ``mp``."""
    f1 = mp_hypoexp_cdf(sc.eave_rates, mp)
    n, s, lam = sc.n_transmitters, mp.mpf(sc.s), mp.mpf(sc.dest_rate)
    a, p = (1, s) if spec.knowledge is tx.Knowledge.BKU else (s, 1)

    def integrand(v):
        t = mp.expm1(v)
        if spec.scheme is tx.Scheme.MIN_ES:
            return (1 - (1 - a * f1(t)) ** n) * p * mp.exp(-lam * t)
        return f1(t) * p * (1 - (1 - a * mp.exp(-lam * t)) ** n)

    return integrand


def mp_decoupled_esr(sc, spec, mp):
    """MIN-ES or TTS ESR in bits: the integral of :func:`mp_decoupled_esr_integrand` over v >= 0.

    The range is the library's, V = ln(1 + (40 + ln N)/lambda_D), split
    evenly and at t = 2^j, where F_E and sf_D turn.
    """
    upper = mp.log1p((40 + mp.log(sc.n_transmitters)) / mp.mpf(sc.dest_rate))
    turns = [mp.log1p(mp.mpf(2) ** j) for j in range(-12, 40)]
    points = sorted(set(mp.linspace(0, upper, 17) + [v for v in turns if v < upper]))
    integrand = mp_decoupled_esr_integrand(sc, spec, mp)
    return mp.quad(integrand, points, method="gauss-legendre") / mp.log(2)
