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

A batch is scored in chunks of :data:`_CHUNK_ROWS` trials: each chunk
forms the ratio (1 + gamma_D) / (1 + gamma_E) once and picks the link
of every case with one argmax/argmin per scheme, writing the rates into
one (cases, batch) array.  The counts and sums are then taken over whole
batch rows, so the estimates do not depend on the chunk size.  A batch
therefore peaks at about batch_size * N * 17 bytes of fades and backhaul
states plus 8 bytes per trial and case of rates (about 55 MB for N = 10,
six cases and the default 250,000 trials), with the chunk temporaries a
few MB on top.

The loop runs on one thread.  Each batch is already a few large numpy
calls, and a thread pool would split the work across the cores that the
caller (a sweep, a test run) may be using, while tracing and timing
tools that follow the calling thread would no longer see all of it.
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


#: Trials of a batch scored at a time (and drawn at a time, for the later
#: eavesdropper fades and the backhaul uniforms).  16,384 rows of N = 10
#: doubles is 1.3 MB per chunk array, so the per-chunk temporaries stay
#: in cache instead of being fresh batch-sized arrays.
_CHUNK_ROWS = 16_384


def _row_chunks(size: int):
    for start in range(0, size, _CHUNK_ROWS):
        yield slice(start, min(start + _CHUNK_ROWS, size))


def _draw_fades(scenario: Scenario, rng: np.random.Generator, size: int):
    """Fades and backhaul states for ``size`` trials, in a fixed draw order.

    The destination fades come first, then each eavesdropper's fades,
    then the backhaul uniforms, each as one (size, N) stream.  The
    destination and first eavesdropper fades fill their arrays directly;
    the other eavesdroppers' fades and the uniforms pass through one
    reused row-chunk buffer.  Consecutive row slices consume the stream
    exactly as one fill does, and ``exponential(scale)`` is ``scale *
    standard_exponential()``, so the values are those of whole-array
    draws summed from zero.
    """
    shape = (size, scenario.n_transmitters)
    gamma_d = rng.standard_exponential(shape)
    gamma_d *= 1.0 / scenario.dest_rate
    gamma_e = np.empty(shape)
    buf = np.empty((min(size, _CHUNK_ROWS), shape[1]))
    first, *rest = scenario.eave_rates
    rng.standard_exponential(out=gamma_e)
    gamma_e *= 1.0 / first
    for lam in rest:
        for sl in _row_chunks(size):
            chunk = buf[: sl.stop - sl.start]
            rng.standard_exponential(out=chunk)
            chunk *= 1.0 / lam
            gamma_e[sl] += chunk
    active = np.empty(shape, dtype=bool)
    for sl in _row_chunks(size):
        chunk = buf[: sl.stop - sl.start]
        rng.random(out=chunk)
        np.less(chunk, scenario.backhaul_reliability, out=active[sl])
    return gamma_d, gamma_e, active


def _secrecy_rates(scheme: Scheme, ratio, gamma_d, gamma_e, active, out: dict) -> None:
    """Per-trial achieved secrecy rates of one selection rule, into ``out``.

    ``ratio`` is (1 + gamma_d) / (1 + gamma_e) of the same rows, shared
    by every rule.  ``out`` maps each requested :class:`Knowledge` to
    the 1-D array that receives its rates.  Ties in the selection break
    toward the lowest transmitter index (argmin/argmax first
    occurrence).  The BKU pick is the first best link overall, so where
    it is active it is also the BKA pick; only the other rows are
    re-picked among their active links.  A trial delivers when the
    picked link is active (under BKA, a row with no active link picks
    an inactive one).
    """
    if scheme is Scheme.MIN_ES:
        criterion, pick, fill = gamma_e, np.argmin, np.inf
    elif scheme is Scheme.TTS:
        criterion, pick, fill = gamma_d, np.argmax, -np.inf
    else:
        criterion, pick, fill = ratio, np.argmax, -np.inf

    n_tx = criterion.shape[1]
    flat = pick(criterion, axis=1)
    flat += np.arange(0, flat.size * n_tx, n_tx)
    delivered = active.take(flat)
    for knowledge in (Knowledge.BKU, Knowledge.BKA):
        rates = out.get(knowledge)
        if rates is None:
            continue
        if knowledge is Knowledge.BKA:
            missed = np.flatnonzero(~delivered)
            masked = np.where(active[missed], criterion[missed], fill)
            flat[missed] = pick(masked, axis=1) + missed * n_tx
            delivered[missed] = active.take(flat[missed])
        np.log2(ratio.take(flat), out=rates)
        np.maximum(rates, 0.0, out=rates)
        rates[~delivered] = 0.0


def _tally(rates: np.ndarray, threshold: float) -> tuple:
    """(outages, positive rates, rate sum, rate sum of squares) of one batch."""
    return (
        int(np.count_nonzero(rates <= threshold)),
        int(np.count_nonzero(rates > 0.0)),
        float(rates.sum()),
        float(np.square(rates).sum()),
    )


def _batch_counts(scenario: Scenario, by_scheme: dict, rng: np.random.Generator,
                  size: int) -> list:
    """:func:`_tally` of each case on one freshly drawn batch, in row order.

    ``by_scheme`` maps each scheme to {knowledge: case row}.  The
    batch's arrays are freed on return, before the next batch is drawn.
    """
    gamma_d, gamma_e, active = _draw_fades(scenario, rng, size)
    rates = np.empty((sum(map(len, by_scheme.values())), size))
    for sl in _row_chunks(size):
        ratio = gamma_d[sl] + 1.0
        ratio /= gamma_e[sl] + 1.0
        for scheme, rows in by_scheme.items():
            _secrecy_rates(scheme, ratio, gamma_d[sl], gamma_e[sl], active[sl],
                           {knowledge: rates[row, sl] for knowledge, row in rows.items()})
    # tallied over whole batch rows, so numpy's pairwise sums (and the
    # estimates) do not depend on the chunk size
    return [_tally(row, scenario.threshold_rate) for row in rates]


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
    by_scheme = {}
    for row, spec in enumerate(totals):
        by_scheme.setdefault(spec.scheme, {})[spec.knowledge] = row
    done = 0
    batch_index = 0
    while done < config.trials:
        b = min(config.batch_size, config.trials - done)
        rng = _batch_rng(config.seed, batch_index)
        batch = _batch_counts(scenario, by_scheme, rng, b)
        for spec, counts in zip(totals, batch):
            totals[spec] = tuple(t + c for t, c in zip(totals[spec], counts))
        done += b
        batch_index += 1
    return {spec: _estimates(*t, config.trials, config.seed) for spec, t in totals.items()}


def estimate_metrics(
    scenario: Scenario, spec: SchemeSpec, config: McConfig
) -> dict:
    """All three metrics for one spec; see :func:`estimate_many`."""
    return estimate_many(scenario, (spec,), config)[spec]
