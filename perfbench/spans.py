"""Span recording around the maxlindag layers, from outside the library.

For a traced run every public function of every layer module is replaced
by a wrapper that records one span per call: its name
(``<layer>.<function>``), start, end, the index of the span that was open
when it was called, and whether it raised.  The replacement covers every
namespace that holds the function, so ``identify.is_mlcm`` is wrapped as
well as ``mlcm.is_mlcm`` and nested calls get their parents right.  The
ancestor queries of ``Dag`` are wrapped the same way.  Spans stay in
memory; the per-layer metrics are computed from them when the run ends.

A span's self time is its duration minus the durations of its child
spans.  Work counters that need the call's input or output (chained
triples, cliques, bytes) are computed right after the call inside a
``trace.hook`` span, which is a child of the caller, so that the counting
never lands in any layer's self time.
"""
from __future__ import annotations

import functools
import inspect
import os
import time
from collections import defaultdict
from dataclasses import dataclass

import oracle

LAYERS = ("graph", "mlcm", "taildep", "identify", "simulate", "io", "cli")
DAG_QUERIES = ("ancestors", "ancestors_closed", "descendants")
RECOVERIES = (
    "recover_from_ordering",
    "recover_from_reachability",
    "recover_from_reachability_rmwm",
    "recover_rmwm_from_initials",
)
CHECKS = ("is_mlcm", "minimum_ml_dag", "is_rmwm_mlcm")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    raised: bool = False
    size: float = 0.0


class Recorder:
    """Call stack plus the list of finished and open spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def call(self, name, fn, args, kwargs, hook=None):
        parent = self._open[-1] if self._open else -1
        span = Span(name, 0.0, parent=parent)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = self.clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.raised = True
            raise
        finally:
            span.end = self.clock()
            self._open.pop()
        if hook is not None:
            counting = Span("trace.hook", self.clock(), parent=parent)
            self.spans.append(counting)
            span.size = hook(args, result)
            counting.end = self.clock()
        return result


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    return [span.end - span.start - c for span, c in zip(spans, covered)]


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# Counters computed from a call's arguments and result, keyed by span name.
HOOKS = {
    "mlcm.minimum_ml_dag": lambda args, result: oracle.chained_triples(args[0]),
    "mlcm.is_rmwm_mlcm": lambda args, result: oracle.chained_triples(args[0]),
    "taildep.maximum_chi_cliques": lambda args, result: len(result),
    "taildep.clique_initial_filter": lambda args, result: float(bool(result)),
    "identify.enumerate_all": lambda args, result: len(result),
    "identify.enumerate_all_rmwm": lambda args, result: len(result),
    "simulate.sample": lambda args, result: result.values.size,
    "io.read_matrix": lambda args, result: _file_size(args[0]),
    "io.read_model": lambda args, result: _file_size(args[0]),
    "io.write_matrix": lambda args, result: _file_size(args[1]),
    "io.write_model": lambda args, result: _file_size(args[1]),
}


def install(package, recorder: Recorder) -> list[tuple]:
    """Wrap the layer functions in every submodule namespace; return the undo list."""
    prefix = package.__name__ + "."
    layer_modules = {prefix + layer for layer in LAYERS}
    namespaces = [package] + [
        module for name, module in sorted(vars(package).items())
        if inspect.ismodule(module) and module.__name__.startswith(prefix)
    ]
    wrappers: dict = {}
    undo: list[tuple] = []

    def wrapped(fn, name):
        if fn not in wrappers:
            hook = HOOKS.get(name)

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return recorder.call(name, fn, args, kwargs, hook)

            wrappers[fn] = traced
        return wrappers[fn]

    for namespace in namespaces:
        for attr, value in list(vars(namespace).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if value.__module__ not in layer_modules:
                continue
            layer = value.__module__[len(prefix):]
            undo.append((namespace, attr, value))
            setattr(namespace, attr, wrapped(value, f"{layer}.{value.__name__}"))
    dag = package.graph.Dag
    for attr in DAG_QUERIES:
        method = vars(dag)[attr]
        undo.append((dag, attr, method))
        setattr(dag, attr, wrapped(method, f"graph.Dag.{attr}"))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)


def _ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``passes`` traced passes, per pass."""
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    size: dict[str, float] = defaultdict(float)
    layer_calls: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = defaultdict(float)
    layer_failed: dict[str, int] = defaultdict(int)
    leaf_checks = 0
    for span, self_s in zip(spans, selfs):
        layer, _, function = span.name.partition(".")
        if layer not in LAYERS:
            continue
        calls[function] += 1
        total[function] += span.end - span.start
        own[function] += self_s
        size[function] += span.size
        layer_calls[layer] += 1
        layer_self[layer] += self_s
        layer_failed[layer] += span.raised
        if function == "is_mlcm" and span.parent >= 0:
            leaf_checks += spans[span.parent].name == "identify.enumerate_all"

    n = max(passes, 1)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = layer_calls[layer] / n
        out[f"{layer}.self_s"] = layer_self[layer] / n
        out[f"{layer}.failed"] = layer_failed[layer] / n

    checks_s = sum(own[f] for f in CHECKS)
    triples = size["minimum_ml_dag"] + size["is_rmwm_mlcm"]
    out["mlcm.path_analysis_s"] = total["mlcm_from_weights"] / n
    out["mlcm.checks_s"] = checks_s / n
    out["mlcm.chained_triples"] = triples / n
    out["mlcm.ns_per_triple"] = _ratio(checks_s * 1e9, triples)
    out["taildep.chi_s"] = total["tdm_from_std_mlcm"] / n
    out["taildep.cliques_s"] = total["maximum_chi_cliques"] / n
    out["taildep.cliques_found"] = size["maximum_chi_cliques"] / n
    out["taildep.filter_s"] = total["clique_initial_filter"] / n
    out["taildep.filter_tested"] = calls["clique_initial_filter"] / n
    out["taildep.filter_pass_ratio"] = _ratio(
        size["clique_initial_filter"], calls["clique_initial_filter"]
    )
    out["taildep.check_rmwm_tdm_s"] = own["check_rmwm_tdm"] / n
    out["graph.ancestor_queries"] = sum(calls[f"Dag.{q}"] for q in DAG_QUERIES) / n
    out["identify.recover_s"] = sum(own[f] for f in RECOVERIES) / n
    out["identify.recover_calls"] = sum(calls[f] for f in RECOVERIES) / n
    out["identify.enumerate_self_s"] = (own["enumerate_all"] + own["enumerate_all_rmwm"]) / n
    out["identify.leaf_checks"] = leaf_checks / n
    out["identify.models_found"] = (size["enumerate_all"] + size["enumerate_all_rmwm"]) / n
    out["identify.leaf_yield"] = _ratio(size["enumerate_all"], leaf_checks)
    out["simulate.sample_s"] = total["sample"] / n
    out["simulate.sampled_values"] = size["sample"] / n
    out["simulate.values_per_s"] = _ratio(size["sample"], total["sample"])
    out["simulate.empirical_tdm_s"] = total["empirical_tdm"] / n
    out["simulate.block_maxima_s"] = total["scaled_block_maxima"] / n
    out["io.read_s"] = (total["read_matrix"] + total["read_model"]) / n
    out["io.write_s"] = (total["write_matrix"] + total["write_model"]) / n
    out["io.bytes_read"] = (size["read_matrix"] + size["read_model"]) / n
    out["io.bytes_written"] = (size["write_matrix"] + size["write_model"]) / n
    out["cli.commands"] = sum(c for f, c in calls.items() if f.startswith("cmd_")) / n
    return out
