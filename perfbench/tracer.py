"""Spans and counts at the boundaries between spherebound's layers.

The tracer wraps functions where one module calls another, by replacing
the module or class attribute the caller looks up; nothing in the package
changes.  Spans are kept in memory.  A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import mpmath
import numpy
import scipy.linalg
from spherebound import bounds, cubature, harness
from spherebound.moments import MomentOracle
from spherebound.polynomials import Polynomial

# per-layer metric name -> span name whose self time it reports
SELF_TIMES = {
    "basis.moment_matrix_s": "basis.moment_matrix",
    "basis.sphere_basis_s": "basis.sphere_basis",
    "basis.fraction_matrix_s": "basis.fraction_matrix",
    "linalg.gram_spectrum_s": "linalg.gram_spectrum",
    "linalg.pencil_eigh_s": "linalg.pencil_eigh",
    "bounds.self_s": "bounds",
    "bounds.density_grid_s": "bounds.density_grid",
    "mpmath.cholesky_s": "mpmath.cholesky",
    "mpmath.eigsy_s": "mpmath.eigsy",
    "polynomials.eval_many_s": "polynomials.eval_many",
    "polynomials.mul_s": "polynomials.mul",
    "cubature.rule_s": "cubature.rule",
    "orthopoly.gauss_rule_s": "orthopoly.gauss_rule",
    "sampling.sphere_points_s": "sampling.sphere_points",
    "harness.sweep_self_s": "harness.sweep",
}
COUNTS = (
    "basis.moment_matrix_calls", "basis.moment_entries", "linalg.pencil_calls",
    "linalg.pencil_m3", "moments.moment_fraction_calls",
    "polynomials.eval_term_points", "cubature.rule_nodes",
)


class Tracer:
    """In-memory span recorder for one traced round."""

    def __init__(self):
        self.spans = []          # (name, parent index or -1, start, duration)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._open = []          # [span index, name, start, time covered by children]

    def span(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._open[-1][0] if self._open else -1
        self.spans.append(None)
        frame = [index, name, time.perf_counter(), 0.0]
        self._open.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - frame[2]
            self._open.pop()
            self.spans[index] = (name, parent, frame[2], dur)
            self.self_time[name] += dur - frame[3]
            if self._open:
                self._open[-1][3] += dur

    def inside(self, name):
        return any(frame[1] == name for frame in self._open)

    def metrics(self):
        out = {key: self.self_time.get(name, 0.0) for key, name in SELF_TIMES.items()}
        out.update({key: self.counts.get(key, 0) for key in COUNTS})
        return out


def _timed(tracer, name):
    def make(orig):
        def wrapper(*args, **kwargs):
            return tracer.span(name, orig, *args, **kwargs)
        return wrapper
    return make


def _wrappers(tracer):
    """(owner, attribute, wrapper factory) for every traced call point."""
    counts = tracer.counts

    def moment_matrix(orig):
        def wrapper(E1, E2, *args, **kwargs):
            counts["basis.moment_matrix_calls"] += 1
            counts["basis.moment_entries"] += len(E1) * len(E2)
            return tracer.span("basis.moment_matrix", orig, E1, E2, *args, **kwargs)
        return wrapper

    def eigh(orig):
        def wrapper(a, b=None, *args, **kwargs):
            if b is None:
                return tracer.span("linalg.gram_spectrum", orig, a, *args, **kwargs)
            counts["linalg.pencil_calls"] += 1
            counts["linalg.pencil_m3"] += len(a) ** 3
            return tracer.span("linalg.pencil_eigh", orig, a, b, *args, **kwargs)
        return wrapper

    def rule(orig):
        def wrapper(*args, **kwargs):
            outermost = not tracer.inside("cubature.rule")
            out = tracer.span("cubature.rule", orig, *args, **kwargs)
            if outermost:
                counts["cubature.rule_nodes"] += out.size
            return out
        return wrapper

    def eval_many(orig):
        def wrapper(self, points, *args, **kwargs):
            counts["polynomials.eval_term_points"] += len(self.terms) * len(points)
            return tracer.span("polynomials.eval_many", orig, self, points, *args, **kwargs)
        return wrapper

    def moment_fraction(orig):
        def wrapper(*args, **kwargs):
            counts["moments.moment_fraction_calls"] += 1
            return orig(*args, **kwargs)
        return wrapper

    def t(name):
        return _timed(tracer, name)

    return [
        (harness, "sweep", t("harness.sweep")),
        (harness, "upper_bound", t("bounds")),
        (harness, "cubature_lower_bound", t("cubature.lower_bound")),
        (bounds, "upper_bound", t("bounds")),
        (bounds, "rational_upper_bound", t("bounds")),
        (bounds, "extract_density", t("bounds")),
        (bounds, "density_grid", t("bounds.density_grid")),
        (bounds, "sphere_basis", t("basis.sphere_basis")),
        (bounds, "moment_matrix", moment_matrix),
        (bounds, "gram_matrix_fraction", t("basis.fraction_matrix")),
        (bounds, "sphere_points", t("sampling.sphere_points")),
        (cubature, "cubature_lower_bound", t("cubature.lower_bound")),
        (cubature, "sphere_product_rule", rule),
        (cubature, "circle_rule", rule),
        (cubature, "gauss_rule", t("orthopoly.gauss_rule")),
        (Polynomial, "eval_many", eval_many),
        (Polynomial, "__mul__", t("polynomials.mul")),
        (MomentOracle, "moment_fraction", moment_fraction),
        (scipy.linalg, "eigh", eigh),
        (numpy.linalg, "eigvalsh", t("linalg.gram_spectrum")),
        (mpmath, "cholesky", t("mpmath.cholesky")),
        (mpmath, "eigsy", t("mpmath.eigsy")),
    ]


@contextmanager
def traced(tracer):
    """Install the wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, make in _wrappers(tracer):
            orig = getattr(owner, attr)
            saved.append((owner, attr, orig))
            setattr(owner, attr, make(orig))
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
