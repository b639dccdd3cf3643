"""The exponential-integral kernel g(a) = e^a E1(a) = -e^a Ei(-a), a > 0.

The closed-form ergodic secrecy rates are sums of terms e^a Ei(-a) with
``a`` up to the sum of channel rate parameters; :func:`exp_scaled_ei`
gives one float of it with the standard library only.  g is formed
without e^a, so it stays finite where e^a overflows.  The three ranges:

- a <= 1: the series E1(a) = -gamma - ln a - sum_k (-a)^k / (k k!)
  (Abramowitz & Stegun 5.1.11) as Q(a) - ln a, Q of degree 12 in a
  (``_SERIES``), then g = e^a (Q(a) - ln a);
- 1 < a < 64: on each [2^(e-1), 2^e) a degree-21 polynomial
  (``_FITS[e - 1]``) in t = 4m - 3, a = m 2^e as ``frexp`` splits it,
  so t in [-1, 1) is exact (per-range fits as in Cody & Thacher,
  Math. Comp. 22, 1968);
- a >= 64: the continued fraction (A&S 5.1.22, even contraction)
  evaluated from depth 6 back.

Both polynomial sets are Chebyshev interpolants from 50-digit mpmath
(``tools/fit_exp_scaled_e1.py``), their truncation error below 2e-17 of
g; what is left is rounding.
"""

from __future__ import annotations

import math

from .errors import DomainError

#: Q(a) = E1(a) + ln a on [0, 1], highest degree first.
_SERIES = (
    -1.1014676160341789e-10, 2.1084099428281176e-09, -2.7285723384050616e-08,
    3.0590626102218904e-07, -3.099993172187001e-06, 2.83445696885609e-05,
    -0.000231481447020872, 0.001666666658813628, -0.01041666666551649,
    0.0555555555554552, -0.24999999999999545, 0.9999999999999999,
    -0.5772156649015329,
)
#: e^a E1(a) on [2^(e-1), 2^e) in t = 4m - 3, a = m 2^e, e = 1..6, highest
#: degree first.
_FITS = (
    (  # [1, 2)
        -7.608170967139055e-12, 2.3827578084139986e-11, -3.2923907622314866e-11,
        1.0406420994918414e-10, -4.292156671321309e-10, 1.3598831167983092e-09,
        -4.188643641072552e-09, 1.3366934838451414e-08, -4.2939405521216554e-08,
        1.3819782069555877e-07, -4.470440700203412e-07, 1.455037491293381e-06,
        -4.7692982372840335e-06, 1.576316794470947e-05, -5.2620915524433474e-05,
        0.0001778019233582464, -0.0006098611425813346, 0.002131841249130874,
        -0.0076366280317339075, 0.02825430588366981, -0.10920499868754185,
        0.448256669291583,
    ),
    (  # [2, 4)
        -7.138924320503901e-12, 2.2295025172203582e-11, -3.0480601071844396e-11,
        9.595473308746462e-11, -3.9603174760611575e-10, 1.249094070134177e-09,
        -3.824781471387668e-09, 1.2135824826406418e-08, -3.873588263840044e-08,
        1.2374843136777618e-07, -3.969007030626925e-07, 1.2790942494222603e-06,
        -4.1440855313168615e-06, 1.3508498708338103e-05, -4.4347810971932295e-05,
        0.0001468126934921695, -0.0004908659505506281, 0.001660896584722885,
        -0.005702092673496215, 0.019930759016547873, -0.07124959307801483,
        0.2620837402553185,
    ),
    (  # [4, 8)
        -6.3599303686300434e-12, 1.977110277028077e-11, -2.6562625659632992e-11,
        8.309123816701251e-11, -3.43451194741488e-10, 1.0757169226026843e-09,
        -3.2641297966601143e-09, 1.026810203656514e-08, -3.2467634850186814e-08,
        1.0262096390919766e-07, -3.2520344088466674e-07, 1.0338807751625812e-06,
        -3.2981134780341755e-06, 1.0561123916045923e-05, -3.396340408528245e-05,
        0.00010975177080347163, -0.0003566157433945191, 0.0011660738102550136,
        -0.0038406918856815964, 0.012757480689995774, -0.042798074865559546,
        0.1452676292338869,
    ),
    (  # [8, 16)
        -5.229352756074658e-12, 1.6150772388179977e-11, -2.1162598051765136e-11,
        6.563187514954892e-11, -2.720761638963005e-10, 8.443458847998479e-10,
        -2.531644519929954e-09, 7.877383903780584e-09, -2.462015242705062e-08,
        7.681712853588007e-08, -2.400046253402669e-07, 7.512361718048307e-07,
        -2.3556707001390525e-06, 7.4010584473299895e-06, -2.3301832561781536e-05,
        7.353363553380977e-05, -0.00023263507464073318, 0.0007380127410721868,
        -0.0023484070120219705, 0.007497954000242538, -0.02402880077765641,
        0.07732613313891923,
    ),
    (  # [16, 32)
        -3.867736852646867e-12, 1.1853989795692227e-11, -1.507463850664363e-11,
        4.630548658994019e-11, -1.928395674681068e-10, 5.924991325872989e-10,
        -1.753680623295274e-09, 5.395213108446381e-09, -1.6665379384804536e-08,
        5.1336513701931365e-08, -1.5821797817072713e-07, 4.880741317379256e-07,
        -1.5067893989855798e-06, 4.655520835594739e-06, -1.4396453637049e-05,
        4.455902430494534e-05, -0.00013804849576582842, 0.0004281229823344254,
        -0.0013291483853788556, 0.004131198985112395, -0.012856089142610754,
        0.040059655523840325,
    ),
    (  # [32, 64)
        -2.5500408237051146e-12, 7.758445819161704e-12, -9.584330947662355e-12,
        2.9188802414139914e-11, -1.222234572291054e-10, 3.722513498034465e-10,
        -1.0893034363125653e-09, 3.3193819127913266e-09, -1.015469696310613e-08,
        3.09589063498983e-08, -9.438961093320979e-08, 2.879187720055986e-07,
        -8.784925358937381e-07, 2.6811774771798037e-06, -8.185398372153804e-06,
        2.499684882033952e-05, -7.636006370134011e-05, 0.0002333391261881217,
        -0.0007132701567255075, 0.0021810766604286793, -0.006671809861890848,
        0.020416345216965157,
    ),
)

#: g from the continued fraction at and above this argument.
_CF_FROM = 64.0

#: Levels of the continued fraction: at a = 64 five levels are within
#: 2e-16 of g and four are 5e-15 off.
_CF_DEPTH = 6

# _SERIES by name, for the unrolled Horner form in exp_scaled_ei
(_Q12, _Q11, _Q10, _Q9, _Q8, _Q7, _Q6, _Q5, _Q4, _Q3, _Q2, _Q1, _Q0) = _SERIES


def _horner(coeffs, x: float) -> float:
    """sum_j coeffs[j] x^(n-j)."""
    p = coeffs[0]
    for c in coeffs[1:]:
        p = p * x + c
    return p


def _e1_scaled_cf(a: float) -> float:
    """g(a) for a >= 64 by the continued fraction.

    e^a E1(a) = 1/(a + 1 - 1^2/(a + 3 - 2^2/(a + 5 - ...))), evaluated
    from depth ``_CF_DEPTH`` back.
    """
    f = 0.0
    for k in range(_CF_DEPTH, 0, -1):
        f = (k * k) / (a + (2 * k + 1) - f)
    return 1.0 / (a + 1.0 - f)


def exp_scaled_ei(a: float) -> float:
    """Fused e^a Ei(-a) = -e^a E1(a) for one float 0 < a < inf.

    Evaluated as the module docstring describes, at every finite a (the
    earlier form was overflow-free only up to a = 1e4).  Against 40-digit
    mpmath over 39,024 points (a log grid over [1e-300, 1e6], dense grids
    over (0, 1000] and both sides of every range boundary) the worst
    relative error is 6.0e-16, near a = 1; scipy's exp(a) exp1(a) is up
    to 1.2e-15 off.  Raises :class:`DomainError` unless 0 < a < inf,
    so also for NaN.
    """
    if not 0.0 < a < math.inf:
        raise DomainError(f"exp_scaled_ei requires 0 < a < inf, got {a!r}")
    if a <= 1.0:
        # _horner(_SERIES, a) unrolled: a figure sweep makes 88% of its
        # calls here, and the loop costs about a third more per call
        q = ((((((((((((_Q12 * a + _Q11) * a + _Q10) * a + _Q9) * a + _Q8) * a + _Q7) * a
                     + _Q6) * a + _Q5) * a + _Q4) * a + _Q3) * a + _Q2) * a + _Q1) * a + _Q0)
        return -math.exp(a) * (q - math.log(a))
    if a < _CF_FROM:
        m, e = math.frexp(a)
        return -_horner(_FITS[e - 1], 4.0 * m - 3.0)
    return -_e1_scaled_cf(a)

