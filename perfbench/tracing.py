"""Per-layer spans recorded from outside cvcat.

The traced run replaces each layer's public functions at the module
attributes their callers look them up by (``cvcat.gate.airy_ai``,
``cvcat.analysis.apply_gate``, ...) with wrappers that append a span to an
in-memory list. Nothing in cvcat itself is edited, and the untraced run never
installs the wrappers. Self time is a span's duration minus the durations of
the spans it directly caused.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import defaultdict

import numpy as np

from cvcat import oracle

# Regime thresholds documented in cvcat.special_numerics: Maclaurin series
# for |z| <= 4, asymptotic expansions for |z| >= 9, ODE bridge in between.
SERIES_EDGE = 4.0
ASYMP_EDGE = 9.0

NAME, START, END, PARENT, COUNTS = range(5)


def _airy_counts(args, kwargs, result):
    z = np.abs(np.asarray(args[0], dtype=float))
    series = int(np.count_nonzero(z <= SERIES_EDGE))
    asymptotic = int(np.count_nonzero(z >= ASYMP_EDGE))
    return {"points": z.size, "points.series": series,
            "points.bridge": z.size - series - asymptotic,
            "points.asymptotic": asymptotic}


def _grid_counts(args, kwargs, result):
    return {"points": np.asarray(args[0]).size}


def _state_counts(args, kwargs, result):
    return {"points": result.n_points}


def _fidelity_counts(args, kwargs, result):
    a, b = args
    same = (a.x_min, a.x_max, a.n_points) == (b.x_min, b.x_max, b.n_points)
    return {"resampled": 0 if same else 1}


def _sweep_counts(args, kwargs, result):
    return {"rows": len(result),
            "failed_rows": sum(1 for row in result if row.error)}


def _two_mode_counts(args, kwargs, result):
    target, params = args[0], args[1]
    grid_2 = args[2] if len(args) > 2 else kwargs.get("grid_2")
    if grid_2 is None:
        grid_2 = oracle.ancilla_grid_for(params, target.n_points)
    return {"entries": target.n_points * grid_2.n_points,
            "points": target.n_points}


def _wigner_counts(args, kwargs, result):
    return {"cells": result.n_x * result.n_p}


def _cli_counts(args, kwargs, result):
    argv = list(args[0]) if args else []
    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    return {"bytes_out": os.path.getsize(out) if out and os.path.exists(out) else 0}


# (module, attribute, span name, counter). A layer function is listed once
# per module that calls it, because each caller holds its own reference.
TARGETS = (
    ("cvcat.gate", "airy_ai", "special_numerics.airy", _airy_counts),
    ("cvcat.gate", "airy_ai_scaled", "special_numerics.airy", _airy_counts),
    ("cvcat.oracle", "integrate_oscillatory_gaussian",
     "special_numerics.oscillatory_quad", None),
    ("cvcat.gate", "added_factor_grid", "gate.added_factor_grid", _grid_counts),
    ("cvcat.cli", "added_factor", "gate.added_factor", None),
    ("cvcat.gate", "apply_gate", "gate.apply_gate", None),
    ("cvcat.analysis", "apply_gate", "gate.apply_gate", None),
    ("cvcat.cli", "apply_gate", "gate.apply_gate", None),
    ("cvcat.gate", "outcome_probability_density",
     "gate.outcome_probability_density", None),
    ("cvcat.states", "make_squeezed_vacuum", "states.constructors", _state_counts),
    ("cvcat.states", "make_cubic_phase_state", "states.constructors", _state_counts),
    ("cvcat.analysis", "make_squeezed_vacuum", "states.constructors", _state_counts),
    ("cvcat.analysis", "make_ideal_cat", "states.constructors", _state_counts),
    ("cvcat.cli", "make_squeezed_vacuum", "states.constructors", _state_counts),
    ("cvcat.cli", "make_cubic_phase_state", "states.constructors", _state_counts),
    ("cvcat.cli", "make_ideal_cat", "states.constructors", _state_counts),
    ("cvcat.analysis", "fidelity", "analysis.fidelity", _fidelity_counts),
    ("cvcat.cli", "run_sweep", "analysis.run_sweep", _sweep_counts),
    ("cvcat.cli", "oracle_added_factor", "oracle.oracle_added_factor", None),
    ("cvcat.oracle", "oracle_two_mode", "oracle.oracle_two_mode", _two_mode_counts),
    ("cvcat.analysis", "wigner_transform", "phase_space.wigner_transform",
     _wigner_counts),
    ("cvcat.cli", "wigner_transform", "phase_space.wigner_transform",
     _wigner_counts),
    ("cvcat.analysis", "suggest_wigner_bounds",
     "phase_space.suggest_wigner_bounds", None),
    ("cvcat.cli", "suggest_wigner_bounds", "phase_space.suggest_wigner_bounds",
     None),
    ("cvcat.cli", "main", "cli.main", _cli_counts),
)

# Metric keys per span name, so that a layer a workload never reaches still
# reports zeros.
SPAN_KEYS = {
    "special_numerics.oscillatory_quad": ("calls", "self_s"),
    "special_numerics.airy": ("calls", "self_s", "points", "points.series",
                              "points.bridge", "points.asymptotic"),
    "gate.added_factor_grid": ("calls", "self_s", "points"),
    "gate.added_factor": ("calls", "self_s"),
    "gate.apply_gate": ("calls", "self_s"),
    "gate.outcome_probability_density": ("calls", "self_s"),
    "states.constructors": ("calls", "self_s", "points"),
    "analysis.fidelity": ("calls", "self_s", "resampled"),
    "analysis.run_sweep": ("calls", "self_s", "rows", "failed_rows"),
    "oracle.oracle_added_factor": ("calls", "self_s"),
    "oracle.oracle_two_mode": ("calls", "self_s", "entries", "points"),
    "phase_space.wigner_transform": ("calls", "self_s", "cells"),
    "phase_space.suggest_wigner_bounds": ("calls", "self_s"),
    "cli.main": ("calls", "self_s", "bytes_out"),
}


class Tracer:
    """In-memory span recorder; one list of spans per job."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[COUNTS] = counter(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target attribute; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name, counter in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def take(self):
        """Per-span-name totals of the spans recorded since the last take,
        plus the summed duration of the top-level spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        top = 0.0
        for span in spans:
            duration = span[END] - span[START]
            if span[PARENT] >= 0:
                child[span[PARENT]] += duration
            else:
                top += duration
        totals = defaultdict(lambda: defaultdict(float))
        for k, span in enumerate(spans):
            agg = totals[span[NAME]]
            agg["calls"] += 1
            agg["self_s"] += span[END] - span[START] - child[k]
            for key, value in (span[COUNTS] or {}).items():
                agg[key] += value
        spans.clear()
        return totals, top
