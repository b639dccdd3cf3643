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
