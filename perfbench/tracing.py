"""In-memory span tracer that wraps revtori's public calls from outside.

Each wrapped call records a span (name, start, end, parent span, run id)
plus a few exact counts taken from its arguments or return value.  Spans
stay in memory until the benchmark ends.  Nothing in the package is
edited: wrappers replace module and class attributes while the tracer is
installed and the originals come back on ``uninstall``.  A target a later
version of the package no longer has is reported as absent, not as an
error.
"""

import dataclasses
import functools
import importlib
import os
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    run: str
    attrs: dict


def _evaluate_counts(span, args, kwargs, result):
    """Exact points, computed terms S * (2N+1)^(d+1) * P * m, computed bytes.

    Bytes are the coefficient block plus one complex exponential table of
    S x (axis length) per angle/time axis; both are computed from shapes,
    not measured.
    """
    field, x = args[0], args[1] if len(args) > 1 else kwargs["x"]
    coeffs = field.coeffs
    S = max(1, int(np.size(x)) // field.d)
    span.attrs["points"] = S
    span.attrs["terms"] = S * coeffs.size
    span.attrs["bytes"] = coeffs.nbytes + 16 * S * sum(coeffs.shape[:-2])


def _invert_counts(span, args, kwargs, result):
    span.attrs["iters"] = int(result[2])


def _stability_counts(span, args, kwargs, result):
    steps = int(round(result.t_max / result.dt))
    span.attrs["steps"] = steps
    span.attrs["orbit_steps"] = steps * len(result.rows)
    span.attrs["failed_orbits"] = sum(1 for row in result.rows if row["failed"])


def _write_counts(span, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    span.attrs["bytes"] = os.path.getsize(path)


# (span name, "module" or "module:Class", attribute, count recorder)
TARGETS = (
    ("fields.evaluate", "revtori.fields:FourierField", "evaluate_complex",
     _evaluate_counts),
    ("fields.fit", "revtori.fields", "field_from_grid_samples", None),
    ("fields.product", "revtori.fields:FourierField", "multiply", None),
    ("fields.product", "revtori.fields", "jacobian_apply", None),
    ("diophantine.certify", "revtori.diophantine", "certify", None),
    ("smoothing.decompose", "revtori.smoothing", "decompose", None),
    ("homological.solve", "revtori.homological", "solve_flow", None),
    ("newton.invert", "revtori.newton", "_invert_transform", _invert_counts),
    ("newton.step", "revtori.newton", "newton_step", None),
    ("newton.fit_embedding", "revtori.newton", "fit_embedding", None),
    ("newton.verify", "revtori.newton", "verify_invariance", None),
    ("integrators.midpoint", "revtori.integrators", "implicit_midpoint_step",
     None),
    ("lienard.reference_orbit", "revtori.lienard", "compute_reference_orbit",
     None),
    ("lienard.action_angle", "revtori.lienard", "action_angle", None),
    ("lienard.poincare", "revtori.lienard", "poincare_reversibility_residual",
     None),
    ("lienard.stability", "revtori.lienard", "lagrange_stability_experiment",
     _stability_counts),
    ("persistence.write", "revtori.persistence", "save_json", _write_counts),
    ("persistence.write", "revtori.persistence", "emit_csv", _write_counts),
)

# Forcing callables of a Lienard perturbation that get a call counter.  A
# fused ``forcing`` callable returning (f, g), where a version has one,
# counts once per call.
_FORCING_FIELDS = ("f", "g", "forcing")


class Tracer:
    """Collects spans; ``install`` wraps TARGETS, ``uninstall`` undoes it."""

    def __init__(self):
        self.spans = []
        self.run = "setup"
        self.paused = False
        self.absent = []
        self.forcing_calls = 0
        self._stack = []
        self._restore = []

    # -- spans ---------------------------------------------------------- #

    def _open(self, name):
        span = Span(name, perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1, self.run,
                    {"forcing0": self.forcing_calls})
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self, span):
        span.end = perf_counter()
        self._stack.pop()
        calls = self.forcing_calls - span.attrs.pop("forcing0")
        if calls:
            span.attrs["forcing_calls"] = calls

    @contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    @contextmanager
    def pause(self):
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def _wrap(self, name, fn, recorder):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.attrs["raised"] = 1
                raise
            finally:
                self._close(span)
            if recorder is not None:
                recorder(span, args, kwargs, result)
            return result
        return wrapper

    def _count_forcing(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.forcing_calls += 1
            return fn(*args, **kwargs)
        return counted

    # -- installing wrappers ------------------------------------------- #

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        self.absent = []
        for name, where, attr, recorder in TARGETS:
            modname, _, clsname = where.partition(":")
            try:
                owner = importlib.import_module(modname)
                if clsname:
                    owner = getattr(owner, clsname)
            except (ImportError, AttributeError):
                owner = None
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{where}.{attr}")
                continue
            wrapper = self._wrap(name, original, recorder)
            if clsname:
                self._patch(owner, attr, wrapper)
                continue
            # Callers that imported the function by name hold their own
            # binding; replace every binding of the same object.
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").startswith("revtori")
                        and vars(mod).get(attr) is original):
                    self._patch(mod, attr, wrapper)
        self._install_forcing_counter()

    def _install_forcing_counter(self):
        """Count calls of the forcing callables of every new perturbation."""
        lienard = sys.modules.get("revtori.lienard")
        make = getattr(lienard, "make_perturbation", None)
        if make is None:
            self.absent.append("revtori.lienard.make_perturbation")
            return

        @functools.wraps(make)
        def counting_make(*args, **kwargs):
            pert = make(*args, **kwargs)
            if self.paused or not dataclasses.is_dataclass(pert):
                return pert
            present = {f.name for f in dataclasses.fields(pert)}
            return dataclasses.replace(pert, **{
                key: self._count_forcing(getattr(pert, key))
                for key in _FORCING_FIELDS
                if key in present and callable(getattr(pert, key))})

        self._patch(lienard, "make_perturbation", counting_make)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------- #

    def aggregate(self, runs):
        """Per-name totals over the spans of the given run ids.

        ``s`` counts wall time once even when a name nests inside itself
        (``jacobian_apply`` calls ``multiply``); ``self_s`` subtracts the
        part of each span its child spans cover.
        """
        runs = set(runs)
        children = {}
        for i, span in enumerate(self.spans):
            if span.parent >= 0:
                children.setdefault(span.parent, []).append(span)
        totals = {}
        for i, span in enumerate(self.spans):
            if span.run not in runs:
                continue
            agg = totals.setdefault(span.name, {"calls": 0, "s": 0.0,
                                                "self_s": 0.0, "raised": 0})
            agg["calls"] += 1
            duration = span.end - span.start
            if not self._nested_in_same_name(span):
                agg["s"] += duration
            agg["self_s"] += duration - _covered(span, children.get(i, ()))
            for key, value in span.attrs.items():
                agg[key] = agg.get(key, 0) + value
        return totals

    def _nested_in_same_name(self, span):
        parent = span.parent
        while parent >= 0:
            if self.spans[parent].name == span.name:
                return True
            parent = self.spans[parent].parent
        return False

    def dump(self):
        return [dataclasses.asdict(span) for span in self.spans]


def _covered(span, kids):
    """Length of the union of the children's intervals inside ``span``."""
    total, reach = 0.0, span.start
    for kid in sorted(kids, key=lambda k: k.start):
        lo, hi = max(kid.start, reach), min(kid.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


# metric -> (span name, total) averaged per traced solve; 0 for unused layers
_PER_SOLVE = {
    "fields.evaluate.calls": ("fields.evaluate", "calls"),
    "fields.evaluate.s": ("fields.evaluate", "s"),
    "fields.evaluate.self_s": ("fields.evaluate", "self_s"),
    "fields.evaluate.points": ("fields.evaluate", "points"),
    "fields.evaluate.terms": ("fields.evaluate", "terms"),
    "fields.evaluate.bytes": ("fields.evaluate", "bytes"),
    "fields.fit.calls": ("fields.fit", "calls"),
    "fields.fit.s": ("fields.fit", "s"),
    "fields.product.s": ("fields.product", "s"),
    "homological.solve.calls": ("homological.solve", "calls"),
    "homological.solve.s": ("homological.solve", "s"),
    "smoothing.decompose.s": ("smoothing.decompose", "s"),
    "newton.invert.calls": ("newton.invert", "calls"),
    "newton.invert.s": ("newton.invert", "s"),
    "newton.invert.iters": ("newton.invert", "iters"),
    "newton.step.calls": ("newton.step", "calls"),
    "newton.step.s": ("newton.step", "s"),
    "newton.step.self_s": ("newton.step", "self_s"),
    "newton.fit_embedding.s": ("newton.fit_embedding", "s"),
    "newton.verify.s": ("newton.verify", "s"),
    "lienard.poincare.s": ("lienard.poincare", "s"),
    "integrators.midpoint.calls": ("integrators.midpoint", "calls"),
    "integrators.midpoint.s": ("integrators.midpoint", "s"),
    "lienard.stability.s": ("lienard.stability", "s"),
    "lienard.stability.orbit_steps": ("lienard.stability", "orbit_steps"),
    "lienard.stability.failed_orbits": ("lienard.stability", "failed_orbits"),
    "persistence.write.s": ("persistence.write", "s"),
    "persistence.write.bytes": ("persistence.write", "bytes"),
    "cli.main.s": ("cli.main", "s"),
    "cli.main.self_s": ("cli.main", "self_s"),
}

# metric -> span name, taken from the set-up run
_SETUP = {
    "cli.import.s": "cli.import",
    "diophantine.certify.s": "diophantine.certify",
    "lienard.reference_orbit.s": "lienard.reference_orbit",
    "lienard.action_angle.s": "lienard.action_angle",
}


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(tracer, runs, untraced_times, traced_times):
    """Per-layer metrics of BENCHMARK.json, per traced solve."""
    per = tracer.aggregate(runs)
    setup = tracer.aggregate(["setup"])

    def total(name, key, source=per):
        return source.get(name, {}).get(key, 0)

    n = len(runs)
    metrics = {metric: total(name, key) / n
               for metric, (name, key) in _PER_SOLVE.items()}
    metrics.update({metric: total(name, "s", setup)
                    for metric, name in _SETUP.items()})
    metrics["fields.evaluate.ns_per_term"] = _ratio(
        total("fields.evaluate", "s"), total("fields.evaluate", "terms"), 1e9)
    steps = total("newton.step", "calls")
    metrics["newton.step.completed_ratio"] = _ratio(
        steps - total("newton.step", "raised"), steps)
    metrics["lienard.stability.us_per_orbit_step"] = _ratio(
        total("lienard.stability", "s"),
        total("lienard.stability", "orbit_steps"), 1e6)
    metrics["lienard.forcing.calls_per_step"] = _ratio(
        total("lienard.stability", "forcing_calls"),
        total("lienard.stability", "steps"))
    traced = statistics.median(traced_times)
    untraced = statistics.median(untraced_times)
    metrics["trace.solve_s"] = traced
    metrics["trace.untraced_solve_s"] = untraced
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.spans"] = sum(1 for s in tracer.spans if s.run in runs) / n
    metrics["trace.absent"] = len(tracer.absent)
    return metrics
