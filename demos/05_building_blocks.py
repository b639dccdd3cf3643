"""The distribution toolbox underneath the secrecy metrics.

Shows the hypoexponential law of the MRC-combined eavesdropping SNR,
the order-statistic term tables behind the selection schemes, and the
scaled exponential integral used by the closed forms.
"""

import numpy as np

import txsecrecy as tx
from txsecrecy.channel import (
    hypoexp_cdf,
    hypoexp_sf,
    hypoexp_weights,
    min_eave_sel_bka_terms,
    min_hypoexp_terms,
)
from txsecrecy.combinatorics import enumerate_compositions, multinomial
from txsecrecy.specfun import exp_scaled_ei

# K = 3 colluding eavesdroppers at 6, 9, 13 dB mean SNR
rates = tuple(tx.snr_db_to_rate(db) for db in (6.0, 9.0, 13.0))
mean = sum(1.0 / r for r in rates)
print(f"MRC eavesdropping SNR: mean {mean:.3f} (= sum of link means)")
print(f"survival weights {np.round(hypoexp_weights(rates), 4)} (sum to 1)")
cdf = hypoexp_cdf(np.array([0.1, 1.0, 10.0]), rates)  # elementwise on an array
print("CDF at 0.1, 1, 10: " + ", ".join(f"{v:.3e}" for v in cdf))

rng = np.random.default_rng(7)
draws = sum(rng.exponential(1.0 / r, 100_000) for r in rates)
print(f"empirical mean {draws.mean():.3f}, P[X > 20] = {(draws > 20).mean():.4f} "
      f"vs sf(20) = {hypoexp_sf(20.0, rates):.4f}\n")

# min over N transmitters: multinomial expansion of S(x)^N
coeffs, lams = min_hypoexp_terms(3, rates)
print(f"min over 3 draws expands into {len(coeffs)} exponential terms "
      f"({sum(1 for _ in enumerate_compositions(3, 3))} compositions of 3 into 3 parts)")
print(f"multinomial(3; 1,1,1) = {multinomial(3, (1, 1, 1))}")

# with backhaul knowledge the minimum runs over the active subset only
sc = tx.scenario_from_db(4, 3, 0.5, 20.0, [6.0, 9.0, 13.0])
bka_coeffs, _ = min_eave_sel_bka_terms(sc)
print(f"BKA minimum: {len(bka_coeffs)} terms over n = 1..4 active links, "
      f"point mass {(1.0 - sc.s) ** 4:.4f} at zero (all four backhauls down)\n")

# closed-form ESR terms are differences of e^a Ei(-a); the fused kernel
# stays finite where exp(a) alone would overflow
for a in (1.0, 50.0, 2000.0):
    print(f"e^{a:g} Ei(-{a:g}) = {exp_scaled_ei(a):.6e}")

