"""Ergodic secrecy rate: closed forms, quadrature, and asymptotic lines.

The ESR integrates the survival of the post-selection SNR ratio against
1/x.  MIN-ES and TTS have exponential-integral closed forms; OTS is
integrated numerically.  At high SNR every scheme climbs a straight
line in ln(1/lambda_D) whose slope depends only on the backhaul
reliability (and N in the BKA case) -- not on the eavesdroppers.
"""

import math

import txsecrecy as tx
from txsecrecy import ALL_SPECS, Knowledge, Scheme, SchemeSpec

N, K, S = 5, 3, 0.9
EAVE_DB = [6.0, 9.0, 13.0]

sc = tx.scenario_from_db(N, K, S, 20.0, EAVE_DB)
print(f"N={N}, K={K}, s={S}, destination SNR 20 dB\n")
for spec in ALL_SPECS:
    q = tx.esr_quadrature(sc, spec)
    if spec.scheme is Scheme.OTS:
        print(f"{spec.label:<12} esr={q:.6f} bits (quadrature)")
    else:
        print(f"{spec.label:<12} esr={tx.esr_closed_form(sc, spec):.6f} bits (closed form), "
              f"quadrature cross-check {q:.6f}")

print("\nhigh-SNR lines, slope * (ln(1/lambda_D) - offset):")
for spec in ALL_SPECS:
    line = tx.esr_asymptote(sc, spec)
    print(f"{spec.label:<12} slope={line.slope:.5f}  offset={line.offset:.4f} nats "
          f"({line.offset_db:.2f} dB)")
    expected = S / math.log(2) if spec.knowledge is Knowledge.BKU else (1 - (1 - S) ** N) / math.log(2)
    assert abs(line.slope - expected) < 1e-12

print(f"\nline vs exact at 60 dB (K={K}):")
hi = sc.with_dest_snr_db(60.0)
for spec in (SchemeSpec(Scheme.TTS, Knowledge.BKU), SchemeSpec(Scheme.OTS, Knowledge.BKU)):
    print(f"{spec.label:<12} line={tx.esr_asymptote(hi, spec).at_dest_rate(hi.dest_rate):.5f} "
          f"exact={tx.esr_quadrature(hi, spec):.5f}")
