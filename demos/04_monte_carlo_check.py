"""Monte Carlo cross-validation of the closed forms.

Simulates the full system (Bernoulli backhaul, Rayleigh fades, MRC
eavesdroppers, literal selection rules) and compares the empirical
SOP/NZSR/ESR against the analytic values.  Batches are drawn from a
splittable seeded RNG, so reruns with the same seed are bit-identical
and all schemes share the same channel realizations.
"""

import txsecrecy as tx
from txsecrecy import ALL_SPECS, McConfig, Metric

sc = tx.scenario_from_db(5, 3, 0.9, 20.0, [6.0, 9.0, 13.0], threshold_rate=1.0)
cfg = McConfig(trials=500_000, seed=42)

print(f"{cfg.trials} trials, seed {cfg.seed}\n")
print(f"{'case':<12} {'metric':<5} {'exact':>12} {'mc':>12} {'stderr':>10} {'z':>6}")
estimates = tx.estimate_many(sc, ALL_SPECS, cfg)  # one draw per batch for all six cases
for spec in ALL_SPECS:
    exact = {
        Metric.SOP: tx.sop(sc, spec),
        Metric.NZSR: tx.nzsr(sc, spec),
        Metric.ESR: tx.esr_quadrature(sc, spec),
    }
    for metric in Metric:
        e = estimates[spec][metric]
        z = (e.mean - exact[metric]) / e.std_error
        print(f"{spec.label:<12} {metric.value:<5} {exact[metric]:12.6f} "
              f"{e.mean:12.6f} {e.std_error:10.2e} {z:+6.2f}")

# determinism: same config, same numbers
again = tx.estimate_metrics(sc, ALL_SPECS[0], cfg)[Metric.SOP]
assert again.mean == tx.estimate_metrics(sc, ALL_SPECS[0], cfg)[Metric.SOP].mean
print("\nreruns with the same seed are bit-identical")
