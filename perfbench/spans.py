"""Spans around the calls into each fieldcast layer, recorded from outside.

The tracer replaces the public layer functions at the module names the
program calls them by (``fieldcast.cli.assemble_forward``, the
``dlp_kernel`` that ``operator`` and ``fields`` imported, ...), records a
span per call in memory, and restores the originals afterwards.  Nothing
inside the package changes.
"""

from __future__ import annotations

import importlib
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

from fieldcast.solver import RANK_CUTOFF_RTOL

MIB = 1024.0 * 1024.0


@dataclass
class Span:
    name: str
    job: int
    id: int
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _assemble_attrs(args, result):
    m, n = result.matrix.shape
    return {"kernel_pairs": m * n, "matrix_mib": result.matrix.nbytes / MIB}


def rank_above_cutoff(sigma) -> int:
    """Singular values the solver keeps: those above its rank cutoff."""
    return int((sigma > RANK_CUTOFF_RTOL * sigma[0]).sum())


def _svd_attrs(args, result):
    return {"rank": rank_above_cutoff(result.sigma), "columns": int(result.vt.shape[1])}


def _dlp_attrs(args, result):
    return {"pairs": int(getattr(result, "size", 1))}


def _grid_attrs(args, result):
    return {"points": int(result.points.shape[0])}


def _solve_attrs(args, result):
    return {"iterations": result[1].bracket_iterations}


def _probe_attrs(args, result):
    scenario, n_samples = args[2], args[4]
    return {"points": n_samples * (len(scenario.regions) + 1)}


# (module, attribute, span name, attribute extractor, track peak memory)
TRACE_POINTS = [
    ("fieldcast.cli", "load_scenario", "scenario_io.load", None, False),
    ("fieldcast.cli", "validate_scenario", "geometry.validate", None, False),
    ("fieldcast.cli", "build_rules", "geometry.rules", None, False),
    ("fieldcast.cli", "assemble_forward", "operator.assemble", _assemble_attrs, True),
    ("fieldcast.cli", "weighted_svd", "operator.svd", _svd_attrs, False),
    ("fieldcast.operator", "dlp_kernel", "kernels.dlp", _dlp_attrs, False),
    ("fieldcast.fields", "dlp_kernel", "kernels.dlp", _dlp_attrs, False),
    ("fieldcast.cli", "build_target", "fields.target", None, False),
    ("fieldcast.cli", "eval_on_grid", "fields.grid_eval", _grid_attrs, True),
    ("fieldcast.cli", "solve_min_energy", "solver.solve", _solve_attrs, False),
    ("fieldcast.cli", "certify_solution", "certify.bound", None, False),
    ("fieldcast.cli", "empirical_mismatches", "certify.probe", _probe_attrs, False),
    ("fieldcast.cli", "write_report", "cli.write", None, False),
    ("fieldcast.cli", "write_spectrum", "cli.write", None, False),
    ("fieldcast.cli", "write_grid", "cli.write", None, False),
]


class Tracer:
    """In-memory span recorder for one single-threaded traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, job: int, peak: bool = False):
        parent = self._stack[-1].id if self._stack else None
        s = Span(name=name, job=job, id=len(self.spans), parent=parent,
                 start=time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        if peak:
            tracemalloc.start()
        try:
            yield s
        finally:
            if peak:
                s.attrs["peak_mib"] = tracemalloc.get_traced_memory()[1] / MIB
                tracemalloc.stop()
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, attrs, peak, job):
        def traced(*args, **kwargs):
            with self.span(name, job, peak) as s:
                result = fn(*args, **kwargs)
            if attrs is not None:
                s.attrs.update(attrs(args, result))
            return result

        return traced

    @contextmanager
    def installed(self, job: int):
        """Wrap every trace point for the duration of one job."""
        saved = []
        try:
            for module_name, attr, name, attrs, peak in TRACE_POINTS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, attrs, peak, job))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_time(span: Span, children: list[Span]) -> float:
    """Duration minus the part of it that child spans cover."""
    covered, reach = 0.0, span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, reach), min(c.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.duration - covered


def job_layers(spans: list[Span], root: Span) -> dict[str, float]:
    """Per-layer figures for the job whose root span is ``root``."""
    by_id = {s.id: s for s in spans}

    def under(s: Span, name: str) -> bool:
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name == name:
                return True
        return False

    mine = [s for s in spans if s.job == root.job and s is not root]
    named: dict[str, list[Span]] = {}
    for s in mine:
        named.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.duration for s in named.get(name, []))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in named.get(name, []))

    def attr_max(name, key):
        return max((s.attrs.get(key, 0.0) for s in named.get(name, [])), default=0.0)

    svds = named.get("operator.svd", [])
    rank = svds[0].attrs["rank"] if svds else 0
    grid_dlp = [s for s in named.get("kernels.dlp", []) if under(s, "fields.grid_eval")]
    return {
        "scenario_io.load_s": total("scenario_io.load"),
        "geometry.validate_s": total("geometry.validate"),
        "geometry.rules_s": total("geometry.rules"),
        "operator.assemble_s": total("operator.assemble"),
        "operator.assemble_peak_mib": attr_max("operator.assemble", "peak_mib"),
        "operator.kernel_pairs": attr_sum("operator.assemble", "kernel_pairs"),
        "operator.matrix_mib": attr_sum("operator.assemble", "matrix_mib"),
        "operator.svd_s": total("operator.svd"),
        "operator.rank_above_cutoff": rank,
        "operator.useful_rank_ratio": rank / svds[0].attrs["columns"] if svds else 0.0,
        "kernels.dlp_s": total("kernels.dlp"),
        "kernels.dlp_pairs": attr_sum("kernels.dlp", "pairs"),
        "fields.target_s": total("fields.target"),
        "fields.grid_eval_s": total("fields.grid_eval"),
        "fields.grid_points": attr_sum("fields.grid_eval", "points"),
        "fields.grid_kernel_pairs": sum(s.attrs["pairs"] for s in grid_dlp),
        "fields.grid_peak_mib": attr_max("fields.grid_eval", "peak_mib"),
        "solver.solve_total_s": total("solver.solve"),
        "solver.solves": len(named.get("solver.solve", [])),
        "certify.bound_s": total("certify.bound"),
        "certify.probe_s": total("certify.probe"),
        "certify.probe_points": attr_sum("certify.probe", "points"),
        "cli.write_s": total("cli.write"),
        "cli.self_s": self_time(root, [s for s in mine if s.parent == root.id]),
        "job_wall_s": root.duration,
    }


def solver_percentiles(spans: list[Span]) -> dict[str, float]:
    """Medians over every solve call of the run, pooled across jobs."""
    solves = [s for s in spans if s.name == "solver.solve"]
    if not solves:
        return {"solver.solve_s.p50": 0.0, "solver.bisection_iters.p50": 0.0}
    return {
        "solver.solve_s.p50": statistics.median(s.duration for s in solves),
        "solver.bisection_iters.p50": statistics.median(s.attrs["iterations"] for s in solves),
    }
