"""Per-module spans recorded from outside the program.

`instrument` wraps public names of g9cov at the module boundary where the
consumer imports them (for example `g9cov.covariants.rref`, not
`g9cov.linalg.rref`), so each call into a layer opens a span.  Spans nest
on a stack; a span's self time is its duration minus the time its child
spans cover.  Every span name maps to one self-time metric, so the self
times of all spans add up to the time covered by top-level spans.

CycNum operators are deliberately not wrapped: at millions of calls the
wrappers would become what is measured.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from oracle import VERIFY_CHECKS

# span name -> per-layer metric holding the span's self time
SELF_METRICS = {
    "cli.main": "cli.main_self_s",
    "session.get_session": "session.get_session_self_s",
    "group.closure": "group.closure_s",
    "group.products": "group.products_s",
    "group.classes": "group.classes_s",
    "reps.build": "reps.build_s",
    "reps.matrices": "reps.matrices_s",
    "reps.characters": "reps.characters_s",
    "reps.census": "reps.census_s",
    "reps.homomorphism": "reps.homomorphism_s",
    "poly.substitute": "poly.substitute_s",
    "poly.mul_poly": "poly.mul_poly_s",
    "molien.series": "molien.series_s",
    "covariants.slice": "covariants.slice_self_s",
    "covariants.generators": "covariants.generators_self_s",
    "covariants.rowreducer": "covariants.rowreducer_s",
    "covariants.freeness": "covariants.freeness_s",
    "covariants.det": "covariants.det_s",
    "covariants.tau": "covariants.tau_s",
    "linalg.rref": "linalg.rref_s",
}
SELF_METRICS.update({f"cli.check.{n}": f"cli.check.{n}_s" for n in VERIFY_CHECKS})

# span name -> count metric holding its number of calls
CALL_METRICS = {
    "poly.substitute": "poly.substitute_calls",
    "covariants.rowreducer": "covariants.rowreducer_adds",
    "molien.series": "molien.calls",
    "linalg.rref": "linalg.rref_calls",
}

# inclusive slice time by degree band: d <= 40 is verify's crosscheck range,
# 41..54 only its generator sweep, 55 and up only deep queries
SLICE_BANDS = (("covariants.slice_s.d0-40", 0, 40),
               ("covariants.slice_s.d41-54", 41, 54),
               ("covariants.slice_s.d55-up", 55, None))


class Frame:
    __slots__ = ("name", "start", "child", "rref_calls", "rref_cells")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.child = 0.0          # time covered by direct child spans
        self.rref_calls = 0
        self.rref_cells = 0


class Tracer:
    """Span stack with running self-time totals; spans are not stored."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)   # inclusive
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.max_rref_cells = 0
        self.bands: defaultdict[str, float] = defaultdict(float)
        self.top_s = 0.0            # time covered by top-level spans
        self.slices: list[dict] = []  # one record per solved slice
        self.stack: list[Frame] = []

    def enter(self, name: str) -> Frame:
        frame = Frame(name, self.clock())
        self.stack.append(frame)
        self.calls[name] += 1
        return frame

    def exit(self) -> float:
        frame = self.stack.pop()
        dur = self.clock() - frame.start
        self.self_s[frame.name] += dur - frame.child
        self.total_s[frame.name] += dur
        if self.stack:
            self.stack[-1].child += dur
        else:
            self.top_s += dur
        return dur

    def self_total(self) -> float:
        return sum(self.self_s.values())


def _wrap(tracer: Tracer, fn, name: str):
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()
    return wrapper


def _wrap_rref(tracer: Tracer, fn):
    def rref(rows):
        cells = len(rows) * (len(rows[0]) if rows else 0)
        tracer.counts["linalg.rref_cells"] += cells
        tracer.max_rref_cells = max(tracer.max_rref_cells, cells)
        if tracer.stack and tracer.stack[-1].name == "covariants.slice":
            tracer.stack[-1].rref_calls += 1
            tracer.stack[-1].rref_cells += cells
        tracer.enter("linalg.rref")
        try:
            return fn(rows)
        finally:
            tracer.exit()
    return rref


def _wrap_slice(tracer: Tracer, fn):
    def slice(engine, rid, d):
        if (rid, d) in getattr(engine, "_slices", ()):
            tracer.counts["covariants.slice_hits"] += 1
            return fn(engine, rid, d)
        frame = tracer.enter("covariants.slice")
        try:
            result = fn(engine, rid, d)
        finally:
            dur = tracer.exit()
        for band, lo, hi in SLICE_BANDS:
            if lo <= d and (hi is None or d <= hi):
                tracer.bands[band] += dur
        if frame.rref_calls:
            tracer.counts["covariants.slices_solved"] += 1
            tracer.counts["covariants.slice_rref_calls"] += frame.rref_calls
        tracer.slices.append({"rep": rid, "degree": d, "dim": len(result.basis),
                              "seconds": dur, "rref_calls": frame.rref_calls,
                              "rref_cells": frame.rref_cells})
        return result
    return slice


def instrument(tracer: Tracer):
    """Wrap the layer boundaries of g9cov; returns a function that undoes it."""
    from g9cov import cli, covariants, group, molien, poly, reps, session

    targets = [
        (cli, "get_session", "session.get_session"),
        (group, "closure", "group.closure"),
        (group.GroupTable, "compute_products", "group.products"),
        (group.GroupTable, "compute_orders", "group.classes"),
        (group.GroupTable, "compute_classes", "group.classes"),
        (group, "match_reference_classes", "group.classes"),
        (session, "build_all", "reps.build"),
        (session, "rep_matrices", "reps.matrices"),
        (covariants, "rep_matrices", "reps.matrices"),
        (molien, "rep_matrices", "reps.matrices"),
        (reps, "rep_matrices", "reps.matrices"),
        (session, "character_table", "reps.characters"),
        (cli, "verify_census", "reps.census"),
        (cli, "verify_homomorphism", "reps.homomorphism"),
        (poly.BiPoly, "substitute", "poly.substitute"),
        (poly.VecPoly, "mul_poly", "poly.mul_poly"),
        (covariants, "molien_series", "molien.series"),
        (cli, "molien_series", "molien.series"),
        (covariants.CovariantEngine, "generators", "covariants.generators"),
        (covariants.CovariantEngine, "verify_free", "covariants.freeness"),
        (covariants.CovariantEngine, "det_relation", "covariants.det"),
        (covariants.CovariantEngine, "tau_structure", "covariants.tau"),
        (covariants.RowReducer, "add", "covariants.rowreducer"),
    ]
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for owner, attr, name in targets:
        patch(owner, attr, _wrap(tracer, getattr(owner, attr), name))
    patch(covariants, "rref", _wrap_rref(tracer, covariants.rref))
    patch(covariants.CovariantEngine, "slice",
          _wrap_slice(tracer, covariants.CovariantEngine.slice))
    patch(cli, "CHECKS", [(n, _wrap(tracer, fn, f"cli.check.{n}"))
                          for n, fn in cli.CHECKS])

    def undo():
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)
    return undo


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics per traced pass, named as in BENCHMARK.json."""
    unknown = set(tracer.self_s) - set(SELF_METRICS)
    if unknown:
        raise RuntimeError(f"spans without a metric: {sorted(unknown)}")
    out = {m: tracer.self_s.get(n, 0.0) / passes for n, m in SELF_METRICS.items()}
    out.update({m: tracer.calls[n] / passes for n, m in CALL_METRICS.items()})
    out.update({b: tracer.bands[b] / passes for b, _, _ in SLICE_BANDS})
    for c in ("covariants.slices_solved", "covariants.slice_hits", "linalg.rref_cells"):
        out[c] = tracer.counts[c] / passes
    out["linalg.rref_max_cells"] = tracer.max_rref_cells
    solved = tracer.counts["covariants.slices_solved"]
    out["covariants.rref_per_slice"] = (
        tracer.counts["covariants.slice_rref_calls"] / solved if solved else 0.0)
    return out
