"""Spans recorded from outside the package, and the per-layer metrics
derived from them.

The package itself carries no tracing. ``instrument`` replaces every
public function of every layer module with a wrapper that records one
span per call, in every ``morseband.*`` namespace that holds the
function (``verify``, ``cli``, ``coherent`` and ``moments`` import
functions by name, so patching the defining module alone would miss
their calls). ``restore`` puts the original objects back.

Spans stay in memory until the run ends. Each thread keeps its own span
stack, so a ``verify`` run on a thread pool nests correctly; a span
opened on a pool thread with an empty stack is adopted by the suite span
that submitted it. Spans under one verify check or one CLI request share
that check's or request's group id.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import threading
import time
from dataclasses import dataclass, field

LAYERS = ("model", "specfun", "quadrature", "states", "algebra", "coherent", "moments", "verify", "cli")

# The verify suites the benchmark runs, with the checks each must report.
SUITES = {
    "specfun": (
        "bessel_recurrence",
        "bessel_wronskian",
        "generating_identity",
        "polygamma_consistency",
        "laguerre_orthogonality",
    ),
    "states": ("orthonormality", "rodrigues_agreement", "y_translation", "density_y_flat"),
    "moments": (
        "moments_closed_quadrature",
        "lowest_delta",
        "uncertainty_limit_order",
        "landau_uncertainty_table",
    ),
}
CHECKS = tuple(name for names in SUITES.values() for name in names)

# log10(tol/measured) of a check measuring exactly 0 (lowest_delta does):
# about the decimal range of a double's significand, a fixed cap in place of inf.
MARGIN_CAP_DEC = 16.0


@dataclass
class Span:
    id: int
    parent: int | None
    group: int
    thread: int
    name: str
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.adopter: Span | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, opens_group: bool = False) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self.adopter
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        if opens_group or parent is None:
            group = span_id
        else:
            group = parent.group
        span = Span(
            span_id,
            None if parent is None else parent.id,
            group,
            threading.get_ident(),
            name,
            self.clock(),
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)


# ------------------------------------------------------------ per-call facts


def _call_key(args, kwargs):
    key = (args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        return repr(key)
    return key


def _values_nbytes(state) -> int:
    return int(getattr(getattr(state, "values", None), "nbytes", 0))


def _fd_facts(args, kwargs, result) -> dict:
    state = args[0] if args else kwargs["state"]
    axis = args[1] if len(args) > 1 else kwargs.get("axis")
    return {"y": axis == "y", "bytes": _values_nbytes(state) + _values_nbytes(result)}


def _state_facts(args, kwargs, result) -> dict:
    return {"key": _call_key(args, kwargs), "cells": int(result.values.size), "bytes": _values_nbytes(result)}


def _evaluations(args, kwargs, result) -> dict:
    return {"evaluations": int(result.evaluations)}


def _levels(args, kwargs, result) -> dict:
    n = int(args[0] if args else kwargs["n_max"])
    return {"levels": n * (n + 1) // 2}


# Extra facts recorded at the end of a span, from the call's arguments and
# result; byte counts are computed from array sizes, not measured traffic.
FACTS = {
    "quadrature.fd_derivative": _fd_facts,
    "states.wavefunction": _state_facts,
    "coherent.bg_state_closed": lambda a, k, r: {"key": _call_key(a, k)},
    "quadrature.integrate_radial": _evaluations,
    "quadrature.integrate_semi_infinite_u": _evaluations,
    "model.degeneracy_scan": _levels,
}


def _wrap(tracer: Tracer, name: str, func, opens_group: bool = False, facts=None):
    def traced(*args, **kwargs):
        span = tracer.begin(name, opens_group)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.end(span)
        if facts is not None:
            span.attrs.update(facts(args, kwargs, result))
        return result

    return traced


# Exact integer helpers called once per level (about 290k times in one
# sweep): a span each would cost more than their work, so they stay
# unwrapped and their time counts in their callers' self time.
UNWRAPPED = {"model.spectrum_product", "model.energy"}


def _public_functions(layer: str, module) -> dict[str, object]:
    out = {}
    for fname in getattr(module, "__all__", ()):
        obj = getattr(module, fname)
        if callable(obj) and not inspect.isclass(obj) and f"{layer}.{fname}" not in UNWRAPPED:
            out[fname] = obj
    return out


class Instrumentation:
    """Wrappers installed into the package; ``restore`` removes them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._patched: list[tuple[object, str, object]] = []
        self._checks_saved: dict | None = None

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"morseband.{layer}")
            for fname, func in _public_functions(layer, module).items():
                span_name = f"{layer}.{fname}"
                wrappers[id(func)] = (
                    func,
                    _wrap(self.tracer, span_name, func, layer == "cli", FACTS.get(span_name)),
                )
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "morseband" or mod_name.startswith("morseband.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        self._install_verify()

    def _install_verify(self) -> None:
        verify = importlib.import_module("morseband.verify")
        checks = verify._CHECKS
        self._checks_saved = dict(checks)
        for name, func in self._checks_saved.items():
            checks[name] = _wrap(self.tracer, f"verify.check.{name}", func, opens_group=True)
        run_named = verify._run_named
        tracer = self.tracer
        suite_of = {names: suite for suite, names in verify.SUITES.items()}

        def traced_run_named(names, tolerances, max_workers):
            span = tracer.begin("verify.suite")
            span.attrs["suite"] = suite_of.get(tuple(names), "+".join(names))
            previous, tracer.adopter = tracer.adopter, span
            try:
                return run_named(names, tolerances, max_workers)
            finally:
                tracer.adopter = previous
                tracer.end(span)

        self._patched.append((verify, "_run_named", run_named))
        verify._run_named = traced_run_named

    def restore(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
        if self._checks_saved is not None:
            importlib.import_module("morseband.verify")._CHECKS.update(self._checks_saved)
            self._checks_saved = None


# ------------------------------------------------------------- aggregation


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval that its child
    spans cover. Children on other threads may overlap one another; the
    union of their intervals is subtracted once."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        clipped = [
            (max(lo, s.start), min(hi, s.end))
            for lo, hi in children.get(s.id, ())
            if hi > s.start and lo < s.end
        ]
        out[s.id] = (s.end - s.start) - _union_length(clipped)
    return out


def tail_percentile(samples, min_beyond: int = 10):
    """Highest whole percentile (50 to 99, nearest rank) with at least
    ``min_beyond`` samples above it, as ``(percentile, value)``; None when
    even the median lacks that many."""
    data = sorted(samples)
    n = len(data)
    for pct in range(99, 49, -1):
        rank = math.ceil(pct * n / 100)
        if rank >= 1 and n - rank >= min_beyond:
            return pct, data[rank - 1]
    return None


def median(values):
    data = sorted(values)
    if not data:
        raise ValueError("median of no values")
    mid = len(data) // 2
    return data[mid] if len(data) % 2 else 0.5 * (data[mid - 1] + data[mid])


def check_margin(measured: float, tolerance: float, bound: str = "upper") -> float:
    """Decades between a measured value and its tolerance, positive when
    the check passes ("lower" checks pass when measured >= tolerance);
    capped at MARGIN_CAP_DEC."""
    measured = abs(float(measured))
    if bound == "lower":
        ratio = measured / tolerance
    else:
        ratio = math.inf if measured == 0.0 else tolerance / measured
    if ratio <= 0.0:
        return -MARGIN_CAP_DEC
    return min(MARGIN_CAP_DEC, math.log10(ratio))


# The per-layer catalogue: (name, unit, better). Names follow
# <module>.<function>.<what>; BENCHMARK.json lists the same entries.
def per_layer_catalogue() -> list[tuple[str, str, str]]:
    out = []
    for suite in SUITES:
        out.append((f"verify.suite_s.{suite}", "s", "lower"))
    for check in CHECKS:
        out.append((f"verify.check_s.{check}", "s", "lower"))
    for check in CHECKS:
        out.append((f"verify.margin_dec.{check}", "decades", "higher"))
    out.append(("verify.self_s", "s", "lower"))
    out += [
        ("coherent.bg_state_closed.calls", "count", "lower"),
        ("coherent.bg_state_closed.distinct", "count", "lower"),
        ("coherent.bg_state_closed.distinct_ratio", "ratio", "higher"),
        ("coherent.bg_state_closed.self_s", "s", "lower"),
        ("coherent.bg_measure_density.calls", "count", "lower"),
        ("coherent.bg_measure_density.self_s", "s", "lower"),
        ("states.wavefunction.calls", "count", "lower"),
        ("states.wavefunction.distinct", "count", "lower"),
        ("states.wavefunction.distinct_ratio", "ratio", "higher"),
        ("states.wavefunction.self_s", "s", "lower"),
        ("states.wavefunction.cells", "count", "lower"),
        ("states.wavefunction.bytes", "bytes", "lower"),
    ]
    for fname in (
        "apply_Lplus",
        "apply_Lminus",
        "apply_L3",
        "commutator_residual",
        "apply_casimir",
        "apply_hamiltonian",
    ):
        out += [(f"algebra.{fname}.calls", "count", "lower"), (f"algebra.{fname}.self_s", "s", "lower")]
    out += [
        ("quadrature.fd_derivative.calls", "count", "lower"),
        ("quadrature.fd_derivative.calls_y", "count", "lower"),
        ("quadrature.fd_derivative.self_s", "s", "lower"),
        ("quadrature.fd_derivative.bytes", "bytes", "lower"),
        ("quadrature.grid_inner_product.calls", "count", "lower"),
        ("quadrature.grid_inner_product.self_s", "s", "lower"),
        ("quadrature.weighted_norm.calls", "count", "lower"),
        ("quadrature.weighted_norm.self_s", "s", "lower"),
        ("quadrature.integrate_radial.calls", "count", "lower"),
        ("quadrature.integrate_radial.evaluations", "count", "lower"),
        ("quadrature.integrate_semi_infinite_u.calls", "count", "lower"),
        ("quadrature.integrate_semi_infinite_u.evaluations", "count", "lower"),
    ]
    for fname in ("bessel_i", "bessel_k", "bessel_j", "digamma", "trigamma", "ln_gamma", "laguerre"):
        out.append((f"specfun.{fname}.calls", "count", "lower"))
    out.append(("specfun.self_s", "s", "lower"))
    for fname in ("moments_quadrature", "moments_closed", "landau_delta"):
        out += [(f"moments.{fname}.calls", "count", "lower"), (f"moments.{fname}.self_s", "s", "lower")]
    out += [
        ("model.degeneracy_scan.calls", "count", "lower"),
        ("model.degeneracy_scan.levels", "count", "lower"),
        ("model.degeneracy_scan.self_s", "s", "lower"),
        ("model.degeneracy_scan.levels_per_s", "1/s", "higher"),
        ("cli.self_s", "s", "lower"),
        ("cli.bytes_out", "bytes", "lower"),
        ("cli.request_p50_ms", "ms", "lower"),
        ("cli.request_tail_ms", "ms", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("host.slowdown", "ratio", "lower"),
        ("host.wall_raw_s", "s", "lower"),
    ]
    return out


# Filled in by the caller from the checked outputs and the untraced round.
CALLER_METRICS = ("verify.margin_dec.", "cli.bytes_out", "cli.request_", "trace.overhead_s", "host.")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer values from one traced run's spans, for every catalogue
    name except those in CALLER_METRICS. Names read as
    ``<module>.<function>.<what>``; ``<module>.self_s`` sums the module."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    suites = {s.attrs.get("suite"): s for s in by_name.get("verify.suite", ())}

    def attr_sum(name, key):
        return float(sum(s.attrs.get(key, 0) for s in by_name.get(name, ())))

    def value(metric: str) -> float:
        head, _, what = metric.rpartition(".")
        group = by_name.get(head, ())
        if head == "verify.suite_s":
            span = suites.get(what)
            return 0.0 if span is None else span.end - span.start
        if head == "verify.check_s":
            return sum((s.end - s.start for s in by_name.get(f"verify.check.{what}", ())), 0.0)
        if what == "self_s" and "." not in head:
            return sum((selfs[s.id] for s in spans if s.name.startswith(head + ".")), 0.0)
        if what == "self_s":
            return sum((selfs[s.id] for s in group), 0.0)
        if what == "calls":
            return float(len(group))
        if what == "calls_y":
            return float(sum(1 for s in group if s.attrs.get("y")))
        if what == "distinct":
            return float(len({s.attrs["key"] for s in group}))
        if what == "distinct_ratio":
            return len({s.attrs["key"] for s in group}) / len(group) if group else 0.0
        if what == "levels_per_s":
            busy = value(f"{head}.self_s")
            return attr_sum(head, "levels") / busy if busy else 0.0
        return attr_sum(head, what)

    return {
        name: value(name)
        for name, _, _ in per_layer_catalogue()
        if not name.startswith(CALLER_METRICS)
    }


def span_record(s: Span) -> dict:
    attrs = {k: (v if isinstance(v, (int, float, str, bool)) else repr(v)) for k, v in s.attrs.items()}
    return {
        "id": s.id,
        "parent": s.parent,
        "group": s.group,
        "thread": s.thread,
        "name": s.name,
        "start": s.start,
        "end": s.end,
        "attrs": attrs,
    }
