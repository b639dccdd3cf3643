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

One :func:`estimate_many` call allocates one workspace, sized by its
largest batch (``min(batch_size, trials)``), reuses it for every batch
and chunk, and frees it on return.  A batch is drawn into the
workspace and scored in chunks of at most :data:`_CHUNK_ROWS` trials
and at most an eighth of the batch.  Each chunk forms the ratio
(1 + gamma_D) / (1 + gamma_E) once, picks each scheme's link once (by
folding the columns) and writes the rates into one (cases, batch)
array.  BKA copies the BKU rates and recomputes them only on the rows
whose BKU pick is down.  The counts and sums are then taken over whole
batch rows, so the estimates do not depend on the chunk size.  The
workspace holds batch * N * 17 bytes of fades and backhaul states,
8 bytes per trial and case of rates, and about chunk * (17 N + 42)
bytes of chunk arrays: for N = 10, six cases and the default 250,000
trials, 58.0 MB at the tracemalloc peak.

The loop runs on one thread.  Each batch is already a few large numpy
calls, and a thread pool would split the work across the cores that the
caller (a sweep, a test run) may be using, while tracing and timing
tools that follow the calling thread would no longer see all of it.
"""

from __future__ import annotations

import math
import numbers
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
        for name in ("trials", "seed", "batch_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
#: doubles is 1.3 MB per chunk array, so the chunk arrays stay in cache.
#: A chunk is also at most an eighth of the batch, so that for small
#: batches the chunk arrays add little to the batch arrays.
_CHUNK_ROWS = 16_384


def _row_chunks(size: int, rows: int):
    for start in range(0, size, rows):
        yield slice(start, min(start + rows, size))


class _Workspace:
    """Every array of one :func:`estimate_many` call.

    ``rows`` is the largest batch and ``cases`` the number of rate rows.
    A shorter batch, and each chunk, uses the leading rows of each array.
    """

    def __init__(self, rows: int, n_tx: int, cases: int):
        self.chunk_rows = chunk = min(_CHUNK_ROWS, -(-rows // 8))
        self.gamma_d = np.empty((rows, n_tx))
        self.gamma_e = np.empty((rows, n_tx))
        self.active = np.empty((rows, n_tx), dtype=bool)
        self.rates = np.empty((cases, rows))
        self.ratio = np.empty((chunk, n_tx))
        self.scratch = np.empty((chunk, n_tx))
        self.down = np.empty((chunk, n_tx), dtype=bool)
        self.best = np.empty(chunk)
        self.won = np.empty(chunk, dtype=bool)
        self.column = np.empty(chunk, dtype=np.intp)
        self.step = np.empty(chunk, dtype=np.intp)
        self.offsets = np.arange(0, chunk * n_tx, n_tx)
        self.flat = np.empty(chunk, dtype=np.intp)
        self.hit = np.empty(chunk, dtype=bool)


def _draw_fades(scenario: Scenario, rng: np.random.Generator, size: int,
                work: _Workspace):
    """Fades and backhaul states for ``size`` trials, in a fixed draw order.

    The destination fades come first, then each eavesdropper's fades,
    then the backhaul uniforms, each as one (size, N) stream, written
    into the leading rows of ``work``'s batch arrays.  The destination
    and first eavesdropper fades fill their arrays directly; the other
    eavesdroppers' fades and the uniforms pass through the chunk
    scratch.  Consecutive row slices consume the stream exactly as one
    fill does, and ``exponential(scale)`` is ``scale *
    standard_exponential()``, so the values are those of whole-array
    draws summed from zero.  Returns (gamma_d, gamma_e, active) views.
    """
    gamma_d = work.gamma_d[:size]
    gamma_e = work.gamma_e[:size]
    active = work.active[:size]
    rng.standard_exponential(out=gamma_d)
    gamma_d *= 1.0 / scenario.dest_rate
    first, *rest = scenario.eave_rates
    rng.standard_exponential(out=gamma_e)
    gamma_e *= 1.0 / first
    for lam in rest:
        for sl in _row_chunks(size, work.chunk_rows):
            chunk = work.scratch[: sl.stop - sl.start]
            rng.standard_exponential(out=chunk)
            chunk *= 1.0 / lam
            gamma_e[sl] += chunk
    for sl in _row_chunks(size, work.chunk_rows):
        chunk = work.scratch[: sl.stop - sl.start]
        rng.random(out=chunk)
        np.less(chunk, scenario.backhaul_reliability, out=active[sl])
    return gamma_d, gamma_e, active


#: (strictly better, fold) of the two selection criteria.
_LEAST = (np.less, np.minimum)
_GREATEST = (np.greater, np.maximum)


def _secrecy_rates(scheme: Scheme, ratio, gamma_d, gamma_e, active, out: dict,
                   work: _Workspace) -> None:
    """Per-trial achieved secrecy rates of one selection rule, into ``out``.

    ``ratio`` is (1 + gamma_d) / (1 + gamma_e) of the same rows, shared
    by every rule.  ``out`` maps each requested :class:`Knowledge` to
    the 1-D array that receives its rates; ``work`` lends the chunk
    arrays.  Ties in the selection break toward the lowest transmitter
    index.  The BKU pick is the first best link overall, so where it is
    active it is also the BKA pick: BKA copies the BKU rates and
    recomputes only the other rows, re-picked among their active links.
    A trial delivers when the picked link is active (under BKA, a row
    with no active link picks an inactive one).
    """
    if scheme is Scheme.MIN_ES:
        criterion, rule, fill = gamma_e, _LEAST, np.inf
    elif scheme is Scheme.TTS:
        criterion, rule, fill = gamma_d, _GREATEST, -np.inf
    else:
        criterion, rule, fill = ratio, _GREATEST, -np.inf

    # take(mode="clip") writes into out= without a buffered copy.  Every
    # index is in range as long as the chunk fits the workspace; a bad
    # index would be clamped, not raised, so the == tests against the
    # whole-batch reference in tests/test_montecarlo.py guard the indices
    rows, n_tx = criterion.shape
    assert rows <= work.chunk_rows
    flat = np.add(work.offsets[:rows], _first_best(criterion, rule, work),
                  out=work.flat[:rows])
    delivered = np.take(active, flat, out=work.hit[:rows], mode="clip")
    bka = out.get(Knowledge.BKA)
    rates = out.get(Knowledge.BKU, bka)
    _rates_at(ratio, flat, delivered, rates)
    if bka is None:
        return
    if bka is not rates:
        np.copyto(bka, rates)
    missed = np.flatnonzero(np.logical_not(delivered, out=delivered))
    m = missed.size
    down = np.take(active, missed, axis=0, out=work.down[:m], mode="clip")
    np.logical_not(down, out=down)
    masked = np.take(criterion, missed, axis=0, out=work.scratch[:m], mode="clip")
    np.copyto(masked, fill, where=down)
    flat = np.multiply(missed, n_tx, out=work.flat[:m])
    flat += _first_best(masked, rule, work)
    delivered = np.take(active, flat, out=work.hit[:m], mode="clip")
    repicked = work.scratch.reshape(-1)[:m]  # the masked criterion is spent
    _rates_at(ratio, flat, delivered, repicked)
    bka[missed] = repicked


def _first_best(criterion, rule, work: _Workspace) -> np.ndarray:
    """Column of each row's first best entry, as argmin/argmax along rows.

    ``rule`` is :data:`_LEAST` or :data:`_GREATEST`.  The columns are
    folded left to right and a column wins a row only when strictly
    better, so ties go to the first column, as in argmin/argmax (the
    criteria hold no NaN).  The fold makes a few calls per column over
    the whole chunk, where argmin/argmax along rows of a few entries
    pays a call per row.
    """
    better, fold = rule
    rows, n_tx = criterion.shape
    best, won = work.best[:rows], work.won[:rows]
    column, step = work.column[:rows], work.step[:rows]
    np.copyto(best, criterion[:, 0])
    column.fill(0)
    for j in range(1, n_tx):
        better(criterion[:, j], best, out=won)
        fold(best, criterion[:, j], out=best)
        np.multiply(won, j, out=step)
        np.maximum(column, step, out=column)
    return column


def _rates_at(ratio, flat, delivered, out) -> None:
    """max(log2 ratio, 0) at the flat picks, 0 where not ``delivered``, into ``out``."""
    np.take(ratio, flat, out=out, mode="clip")
    np.log2(out, out=out)
    np.maximum(out, 0.0, out=out)
    out *= delivered  # finite rates >= 0, so this writes +0.0 where not delivered


def _tally(rates: np.ndarray, threshold: float, work: _Workspace) -> tuple:
    """(outages, positive rates, rate sum, rate sum of squares) of one batch row.

    The comparisons and squares go into the batch's fade and backhaul
    arrays, which are spent once the batch is scored.
    """
    size = rates.size
    flags = work.active.reshape(-1)[:size]
    square = work.gamma_d.reshape(-1)[:size]
    return (
        int(np.count_nonzero(np.less_equal(rates, threshold, out=flags))),
        int(np.count_nonzero(np.greater(rates, 0.0, out=flags))),
        float(rates.sum()),
        float(np.square(rates, out=square).sum()),
    )


def _batch_counts(scenario: Scenario, by_scheme: dict, rng: np.random.Generator,
                  size: int, work: _Workspace) -> list:
    """:func:`_tally` of each case on one freshly drawn batch, in row order.

    ``by_scheme`` maps each scheme to {knowledge: case row}.
    """
    gamma_d, gamma_e, active = _draw_fades(scenario, rng, size, work)
    rates = work.rates[:, :size]
    for sl in _row_chunks(size, work.chunk_rows):
        n = sl.stop - sl.start
        ratio = np.add(gamma_d[sl], 1.0, out=work.ratio[:n])
        ratio /= np.add(gamma_e[sl], 1.0, out=work.scratch[:n])
        for scheme, rows in by_scheme.items():
            _secrecy_rates(scheme, ratio, gamma_d[sl], gamma_e[sl], active[sl],
                           {knowledge: rates[row, sl] for knowledge, row in rows.items()},
                           work)
    # tallied over whole batch rows, so numpy's pairwise sums (and the
    # estimates) do not depend on the chunk size
    return [_tally(row, scenario.threshold_rate, work) for row in rates]


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
    work = _Workspace(min(config.batch_size, config.trials), scenario.n_transmitters,
                      len(totals))
    done = 0
    batch_index = 0
    while done < config.trials:
        b = min(config.batch_size, config.trials - done)
        rng = _batch_rng(config.seed, batch_index)
        batch = _batch_counts(scenario, by_scheme, rng, b, work)
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
