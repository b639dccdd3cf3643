"""Print the polynomial coefficients of ``txsecrecy.specfun``.

Each polynomial is the Chebyshev interpolant, at 50 significant digits
in mpmath, of the function named below, rounded to doubles and listed
highest degree first (Horner order):

- ``_SERIES``: E1(a) + ln a on a in [0, 1], degree 12, in a itself;
- ``_FITS[e - 1]``, e = 1..6: e^a E1(a) on a in [2^(e-1), 2^e], degree 21,
  in t = 4m - 3, where a = m 2^e with 1/2 <= m < 1 (``math.frexp``).

Usage: python tools/fit_exp_scaled_e1.py   (needs mpmath; about 3 s)
"""

import mpmath as mp

mp.mp.dps = 50

SERIES_DEGREE = 12
FIT_DEGREE = 21
FIT_RANGES = 6


def chebyshev_monomials(f, degree):
    """Monomial coefficients (lowest first) in t of f's interpolant at the Chebyshev nodes of [-1, 1]."""
    n = degree + 1
    angles = [mp.pi * (j + mp.mpf(1) / 2) / n for j in range(n)]
    values = [f(mp.cos(x)) for x in angles]
    cheb = [2 * mp.fsum(v * mp.cos(k * x) for v, x in zip(values, angles)) / n for k in range(n)]
    cheb[0] /= 2
    mono = [mp.mpf(0)] * n
    prev, cur = [], [mp.mpf(1)]  # T_{k-1}, T_k as monomials
    for c in cheb:
        for i, x in enumerate(cur):
            mono[i] += c * x
        # T_{k+1}(t) = 2t T_k(t) - T_{k-1}(t), with T_1 = t
        nxt = [mp.mpf(0)] + [(2 if prev else 1) * x for x in cur]
        for i, x in enumerate(prev):
            nxt[i] -= x
        prev, cur = cur, nxt
    return mono


def shift_to_unit_interval(mono):
    """p(2a - 1) as monomial coefficients (lowest first) in a."""
    out = []
    for c in reversed(mono):
        # out <- out (2a - 1) + c
        nxt = [mp.mpf(0)] * (len(out) + 1)
        for i, x in enumerate(out):
            nxt[i] -= x
            nxt[i + 1] += 2 * x
        nxt[0] += c
        out = nxt
    return out


def series():
    def q(t):
        a = (t + 1) / 2
        return mp.e1(a) + mp.log(a)

    return shift_to_unit_interval(chebyshev_monomials(q, SERIES_DEGREE))


def fit(e):
    def g(t):
        a = mp.mpf(2) ** (e - 2) * (t + 3)
        return mp.exp(a) * mp.e1(a)

    return chebyshev_monomials(g, FIT_DEGREE)


def block(coeffs, indent):
    floats = [repr(float(c)) for c in reversed(coeffs)]
    rows = [", ".join(floats[i:i + 3]) + "," for i in range(0, len(floats), 3)]
    return "\n".join(indent + row for row in rows)


if __name__ == "__main__":
    print("_SERIES = (\n" + block(series(), "    ") + "\n)")
    print("_FITS = (")
    for e in range(1, FIT_RANGES + 1):
        print(f"    (  # [{2 ** (e - 1)}, {2 ** e})\n" + block(fit(e), "        ") + "\n    ),")
    print(")")
