"""Seeded simulation of the full system; the oracle for every closed form.

Each trial draws the Bernoulli backhaul states, the exponential
destination fades, and the per-eavesdropper exponential fades (combined
by MRC into a per-transmitter sum), applies the literal selection rule,
and records the achieved secrecy rate.  Batches use a splittable RNG
(numpy SeedSequence with the batch index as spawn key) and merge in
batch order, so estimates are bit-identical for a given seed no matter
how batches are scheduled.

Fades are drawn in a fixed order independent of the scheme, so
estimates for different schemes under the same seed share the same
channel realizations (paired comparisons are exact).
:func:`estimate_many` draws each batch once and scores every requested
(scheme, knowledge) case on it; :func:`estimate_metrics` is its
one-case form and gives the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .scenario import Knowledge, Scenario, Scheme, SchemeSpec

#: Reported estimates below this trial count are statistically meaningless.
MIN_TRIALS = 10_000


class Metric(Enum):
    SOP = "sop"
    NZSR = "nzsr"
    ESR = "esr"


@dataclass(frozen=True)
class McConfig:
    trials: int = 1_000_000
    seed: int = 0
    batch_size: int = 250_000

    def __post_init__(self):
        if self.trials < MIN_TRIALS:
            raise ValueError(f"trials must be >= {MIN_TRIALS}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    trials: int
    metric: Metric
    seed: int


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(batch_index,)))


def _draw_fades(scenario: Scenario, rng: np.random.Generator, size: int):
    """Fades and backhaul states for ``size`` trials, in a fixed draw order."""
    n_tx = scenario.n_transmitters
    gamma_d = rng.exponential(1.0 / scenario.dest_rate, (size, n_tx))
    gamma_e = np.zeros((size, n_tx))
    for lam in scenario.eave_rates:
        gamma_e += rng.exponential(1.0 / lam, (size, n_tx))
    active = rng.random((size, n_tx)) < scenario.backhaul_reliability
    return gamma_d, gamma_e, active


def _secrecy_rates(spec: SchemeSpec, ratio, gamma_d, gamma_e, active) -> np.ndarray:
    """Per-trial achieved secrecy rates for one selection rule.

    ``ratio`` is (1 + gamma_d) / (1 + gamma_e), computed once per batch
    and shared by every rule.  Ties in the selection break toward the
    lowest transmitter index (argmin/argmax first occurrence).
    """
    if spec.scheme is Scheme.MIN_ES:
        criterion, pick_max = gamma_e, False
    elif spec.scheme is Scheme.TTS:
        criterion, pick_max = gamma_d, True
    else:
        criterion, pick_max = ratio, True

    rows = np.arange(gamma_d.shape[0])
    if spec.knowledge is Knowledge.BKU:
        idx = criterion.argmax(axis=1) if pick_max else criterion.argmin(axis=1)
        delivered = active[rows, idx]
    else:
        fill = -np.inf if pick_max else np.inf
        masked = np.where(active, criterion, fill)
        idx = masked.argmax(axis=1) if pick_max else masked.argmin(axis=1)
        delivered = active.any(axis=1)

    rates = np.maximum(np.log2(ratio[rows, idx]), 0.0)
    rates[~delivered] = 0.0
    return rates


def _tally(rates: np.ndarray, threshold: float) -> tuple:
    """(outages, positive rates, rate sum, rate sum of squares) of one batch."""
    return (
        int(np.count_nonzero(rates <= threshold)),
        int(np.count_nonzero(rates > 0.0)),
        float(rates.sum()),
        float(np.square(rates).sum()),
    )


def _estimates(n_outage: int, n_positive: int, rate_sum: float, rate_sumsq: float,
               trials: int, seed: int) -> dict:
    """Metric -> McEstimate from the run totals of one spec."""
    out = {}
    for metric, count in ((Metric.SOP, n_outage), (Metric.NZSR, n_positive)):
        p = count / trials
        out[metric] = McEstimate(
            mean=p,
            std_error=math.sqrt(p * (1.0 - p) / trials),
            trials=trials,
            metric=metric,
            seed=seed,
        )
    mean = rate_sum / trials
    var = max(rate_sumsq / trials - mean * mean, 0.0) * trials / (trials - 1)
    out[Metric.ESR] = McEstimate(
        mean=mean,
        std_error=math.sqrt(var / trials),
        trials=trials,
        metric=Metric.ESR,
        seed=seed,
    )
    return out


def estimate_many(scenario: Scenario, specs, config: McConfig) -> dict:
    """All three metrics for every spec from a single pass over shared fades.

    Each batch is drawn once and scored under every spec in ``specs``
    (duplicates collapse into one entry).  Returns a dict mapping each
    spec to a dict mapping :class:`Metric` to :class:`McEstimate`.
    """
    totals = dict.fromkeys(specs, (0, 0, 0.0, 0.0))
    done = 0
    batch_index = 0
    while done < config.trials:
        b = min(config.batch_size, config.trials - done)
        gamma_d, gamma_e, active = _draw_fades(scenario, _batch_rng(config.seed, batch_index), b)
        ratio = (1.0 + gamma_d) / (1.0 + gamma_e)
        for spec in totals:
            counts = _tally(_secrecy_rates(spec, ratio, gamma_d, gamma_e, active),
                            scenario.threshold_rate)
            totals[spec] = tuple(t + c for t, c in zip(totals[spec], counts))
        # free this batch before the next one is drawn
        del gamma_d, gamma_e, active, ratio
        done += b
        batch_index += 1
    return {spec: _estimates(*t, config.trials, config.seed) for spec, t in totals.items()}


def estimate_metrics(
    scenario: Scenario, spec: SchemeSpec, config: McConfig
) -> dict:
    """All three metrics for one spec; see :func:`estimate_many`."""
    return estimate_many(scenario, (spec,), config)[spec]


def estimate(
    scenario: Scenario, spec: SchemeSpec, config: McConfig, metric: Metric
) -> McEstimate:
    """Empirical estimate of one secrecy metric with its standard error."""
    return estimate_metrics(scenario, spec, config)[metric]
