"""Span tracer for the traced benchmark run, installed from outside the library.

Each wrapped call records one span: name, start, end, parent span and an
optional work amount.  Spans live in flat arrays in memory and are
written out after the pass.  A layer's self time is the time of its
spans minus the time of their child spans, so the self times of all
layers plus the benchmark's own spans add up to the traced wall time.

A name is wrapped wherever it is bound, because modules bind imported
names: wrapping ``channel.min_hypoexp_terms`` alone would miss the calls
``metrics`` makes through its own binding.
"""

from __future__ import annotations

import inspect
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.amount = array("q")
        self.amount_failed = set()  # name ids whose work amount could not be computed
        self._stack = [-1]

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self.amount.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, name: str):
        return _Span(self, self.intern(name))

    def __len__(self) -> int:
        return len(self.start)

    def unmeasured(self) -> list:
        """Span names whose work amount could not be computed."""
        return sorted(self.names[i] for i in self.amount_failed)

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "amount": np.frombuffer(self.amount, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.i = self.tracer.open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.i)
        return False


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the durations of direct children."""
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


@dataclass(frozen=True)
class Layer:
    """A library function to wrap: ``module.attr`` or ``module.Class.method``.

    ``amount(arguments, result)`` records a work count on the span;
    ``arguments`` maps the function's parameter names to the call's
    values, whether they were passed by position or by keyword.
    """

    span: str
    module: str
    attr: str
    amount: Callable | None = None


def _table_len(arguments, result):
    return len(result[0])


def _variates(arguments, result):
    # _draw_fades(scenario, rng, size): an exponential destination fade,
    # K eavesdropper fades and one backhaul uniform per transmitter.
    scenario, size = arguments["scenario"], arguments["size"]
    return size * scenario.n_transmitters * (scenario.n_eavesdroppers + 2)


#: Layer boundaries of the library.  Per-term helpers and quadrature
#: integrands are not wrapped: they run millions of times.
LAYERS = (
    Layer("cli.main", "txsecrecy.cli", "main"),
    Layer("cli.find_sop_crossover", "txsecrecy.cli", "find_sop_crossover"),
    Layer("metrics.evaluator_build", "txsecrecy.metrics", "RatioCdfEvaluator.__init__"),
    Layer("metrics.cdf", "txsecrecy.metrics", "RatioCdfEvaluator.__call__"),
    Layer("metrics.fallback", "txsecrecy.metrics", "RatioCdfEvaluator._definitional"),
    Layer("metrics.esr_quadrature", "txsecrecy.metrics", "esr_quadrature"),
    Layer("metrics.esr_closed_form", "txsecrecy.metrics", "esr_closed_form"),
    Layer("channel.term_table", "txsecrecy.channel", "min_hypoexp_terms", _table_len),
    Layer("channel.term_table", "txsecrecy.channel", "min_eave_sel_bka_terms", _table_len),
    Layer("combinatorics.multinomial", "txsecrecy.combinatorics", "multinomial"),
    Layer("specfun.exp_scaled_ei", "txsecrecy.specfun", "exp_scaled_ei"),
    Layer("asymptotics.esr_asymptote", "txsecrecy.asymptotics", "esr_asymptote"),
    Layer("asymptotics.esr_high_snr_ots", "txsecrecy.asymptotics", "esr_high_snr_ots"),
    Layer("montecarlo.estimate", "txsecrecy.montecarlo", "estimate_metrics"),
    Layer("montecarlo.draw", "txsecrecy.montecarlo", "_draw_fades", _variates),
    Layer("montecarlo.select", "txsecrecy.montecarlo", "_secrecy_rates"),
)


def _wrap(tracer: Tracer, nid: int, fn: Callable, amount: Callable | None) -> Callable:
    if amount is None:
        def traced(*args, **kwargs):
            i = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i)
    else:
        bind = inspect.signature(fn).bind

        def traced(*args, **kwargs):
            i = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
                try:
                    tracer.amount[i] = amount(bind(*args, **kwargs).arguments, result)
                except Exception:  # say a renamed parameter: unmeasured, not a crash
                    tracer.amount_failed.add(nid)
                return result
            finally:
                tracer.close(i)
    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer, layers, modules: dict):
    """Wrap every layer wherever its function is bound.

    ``modules`` maps module names to module objects (for example the
    library's entries of ``sys.modules``).  Returns the span names that
    could not be wrapped because their function no longer exists, and a
    callable that undoes the wrapping.
    """
    unmeasured, undo = [], []
    for layer in layers:
        owner = modules.get(layer.module)
        *path, name = layer.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, name, None) if owner is not None else None
        if not callable(fn):
            unmeasured.append(layer.span)
            continue
        wrapped = _wrap(tracer, tracer.intern(layer.span), fn, layer.amount)
        if path:  # a method: rebind on its class
            targets = [owner]
        else:
            targets = [m for m in modules.values() if any(v is fn for v in vars(m).values())]
        for target in targets:
            for attr, value in list(vars(target).items()):
                if value is fn:
                    setattr(target, attr, wrapped)
                    undo.append((target, attr, fn))

    def restore():
        for target, attr, fn in reversed(undo):
            setattr(target, attr, fn)

    return sorted(set(unmeasured)), restore


def layer_stats(tracer: Tracer, clock=None) -> dict:
    """Per span name: calls, self seconds, amount, and top-level calls/amount.

    ``clock`` maps perf_counter seconds to the seconds to report (the
    speed probe's reference clock); by default spans are timed raw.  A
    span is top level when its parent has another name, so a table built
    inside another table of the same layer is not counted twice.
    """
    a = tracer.arrays()
    if len(a["start"]) == 0:
        return {}
    clock = clock or (lambda t: t)
    own = self_times(a["parent"], clock(a["start"] / 1e9), clock(a["end"] / 1e9))
    names = a["name_id"]
    parent_name = np.where(a["parent"] >= 0, names[np.maximum(a["parent"], 0)], -1)
    top = parent_name != names
    n = len(tracer.names)
    calls = np.bincount(names, minlength=n)
    self_s = np.bincount(names, weights=own, minlength=n)
    amount = np.bincount(names, weights=a["amount"], minlength=n)
    top_calls = np.bincount(names[top], minlength=n)
    top_amount = np.bincount(names[top], weights=a["amount"][top], minlength=n)
    return {
        name: {
            "calls": int(calls[i]),
            "self_s": float(self_s[i]),
            "amount": int(amount[i]),
            "top_calls": int(top_calls[i]),
            "top_amount": int(top_amount[i]),
        }
        for i, name in enumerate(tracer.names)
    }


def _calls(span):
    return (span,), lambda st: st[span]["calls"]


def _top_calls(span):
    return (span,), lambda st: st[span]["top_calls"]


def _amount(span, scale=1, top=False):
    key = "top_amount" if top else "amount"
    return (span,), lambda st: scale * st[span][key]


def _self(*spans):
    return spans, lambda st: sum(st[s]["self_s"] for s in spans)


def _fallback_share():
    def share(st):
        cdf = st["metrics.cdf"]["calls"]
        return st["metrics.fallback"]["calls"] / cdf if cdf else 0.0
    return ("metrics.cdf", "metrics.fallback"), share


#: per-layer metric -> (unit, better, spans it reads, value from layer_stats).
#: Every ``_s`` metric is a self time.  ``montecarlo.variates`` is computed
#: from the batch shapes, and ``bytes_computed`` is 8 bytes per variate.
PER_LAYER = {
    "metrics.cdf_calls": ("count", "lower", *_calls("metrics.cdf")),
    "metrics.cdf_s": ("s", "lower", *_self("metrics.cdf")),
    "metrics.fallbacks": ("count", "lower", *_calls("metrics.fallback")),
    "metrics.fallback_s": ("s", "lower", *_self("metrics.fallback")),
    "metrics.fallback_share": ("ratio", "lower", *_fallback_share()),
    "metrics.evaluator_builds": ("count", "lower", *_calls("metrics.evaluator_build")),
    "metrics.evaluator_build_s": ("s", "lower", *_self("metrics.evaluator_build")),
    "metrics.esr_quadrature_s": ("s", "lower", *_self("metrics.esr_quadrature")),
    "metrics.esr_closed_form_s": ("s", "lower", *_self("metrics.esr_closed_form")),
    "channel.term_tables": ("count", "lower", *_top_calls("channel.term_table")),
    "channel.terms": ("count", "lower", *_amount("channel.term_table", top=True)),
    "channel.term_table_s": ("s", "lower", *_self("channel.term_table")),
    "combinatorics.multinomial_calls": ("count", "lower", *_calls("combinatorics.multinomial")),
    "combinatorics.multinomial_s": ("s", "lower", *_self("combinatorics.multinomial")),
    "specfun.exp_scaled_ei_calls": ("count", "lower", *_calls("specfun.exp_scaled_ei")),
    "specfun.exp_scaled_ei_s": ("s", "lower", *_self("specfun.exp_scaled_ei")),
    "asymptotics.esr_asymptote_s": ("s", "lower", *_self("asymptotics.esr_asymptote")),
    "asymptotics.esr_high_snr_ots_s": ("s", "lower", *_self("asymptotics.esr_high_snr_ots")),
    "cli.find_sop_crossover_s": ("s", "lower", *_self("cli.find_sop_crossover")),
    "cli.main_s": ("s", "lower", *_self("cli.main")),
    "montecarlo.estimate_calls": ("count", "lower", *_calls("montecarlo.estimate")),
    "montecarlo.estimate_s": ("s", "lower", *_self("montecarlo.estimate")),
    "montecarlo.draw_s": ("s", "lower", *_self("montecarlo.draw")),
    "montecarlo.select_s": ("s", "lower", *_self("montecarlo.select")),
    "montecarlo.batches": ("count", "lower", *_calls("montecarlo.draw")),
    "montecarlo.variates": ("count", "lower", *_amount("montecarlo.draw")),
    "montecarlo.bytes_computed": ("bytes", "lower", *_amount("montecarlo.draw", scale=8)),
    "bench.self_s": ("s", "lower", *_self("bench.pass", "bench.unit")),
}


def layer_metrics(stats: dict, unmeasured) -> dict:
    """Per-layer metric values of one traced pass; None where unmeasured."""
    empty = {"calls": 0, "self_s": 0.0, "amount": 0, "top_calls": 0, "top_amount": 0}
    out = {}
    for metric, (_unit, _better, spans, value) in PER_LAYER.items():
        if set(spans) & set(unmeasured):
            out[metric] = None
        else:
            out[metric] = value({s: stats.get(s, empty) for s in spans})
    return out
