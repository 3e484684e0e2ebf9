"""Command-line pipeline: parse, validate, assemble, solve, certify, export.

Exit codes: 0 success; 2 usage error (:class:`UsageError`: ``--nodes``,
``--epsilon``, ``--grid`` or ladder text that cannot be used, and a grid too
large for physical memory, checked before any work, and an ``--out`` path
that cannot be made a directory, checked before assembly); 3 scenario
parse/validation failure (a scenario path that is not a file, a file that
is not UTF-8, repeats a key in one mapping or gives a key an explicit null,
node counts below ``geometry.MIN_NODES`` from the file or ``--nodes``, a
boundary whose rule or wanted field values cannot be built, a target trace
that is identically zero or not finite, and node counts whose operator and
factorization would exceed physical memory, as
:func:`fieldcast.operator.factorization_bytes` estimates before any rule is
built); 4 accuracy infeasible at the current resolution; 5 numerical
failure, including any other ``ValueError``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, blas
from .certify import BoundaryBound, certify_solution, empirical_mismatches
from .fields import (FieldGrid, build_target, default_grid, eval_on_grid, resolve_epsilon,
                     scenario_difference_fields)
from .geometry import (Discretization, Scenario, ScenarioValidationError, build_rules,
                       harmonic_count, rule_degree, rule_node_count, validate_scenario)
from .operator import (assemble_forward, dump_operator, factorization_bytes, matrix_rows,
                       weighted_svd)
from .scenario_io import ScenarioFormatError, load_scenario
from .solver import (InfeasibleAccuracyError, SolveReport, rank_above_cutoff, solve_min_energy,
                     sweep_alpha, sweep_epsilon, sweep_ladder)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_INFEASIBLE = 4
EXIT_NUMERICAL = 5

REPORT_FORMAT_VERSION = 4
SPECTRUM_FIT_COUNT = 30
EMPIRICAL_SAMPLES = 500
TABLE_BLOCK_ROWS = 4096
# Peak RSS (ru_maxrss) a ``run --grid`` adds per grid point, for the points,
# field columns, labels and evaluation temporaries (``grid.tsv``'s text is
# made one block at a time): 73 bytes from 400 x 400 to 800 x 800 on demo-2d
# and 82 from 50^3 to 80^3 on demo-3d, 108 with a dipole as its exterior
# target, whose evaluation forms a (p, 3) difference.
GRID_BYTES_PER_POINT = 128


class UsageError(Exception):
    """A command-line argument that cannot be used (exit 2)."""


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def _resolve_scenario_path(arg: str) -> Path:
    p = Path(arg)
    for candidate in [p, p.with_suffix(".scn")] if p.name else [p]:   # "." has no name
        if candidate.is_file():
            return candidate
    raise FileNotFoundError(f"scenario file not found: {arg}")


def _load(args) -> Scenario:
    s = load_scenario(_resolve_scenario_path(args.scenario))
    if args.nodes is not None:
        try:
            antenna, control = (int(p) for p in args.nodes.split(","))
        except ValueError:
            raise UsageError(f"--nodes expects '<antenna>,<control>', got {args.nodes!r}") from None
        s = replace(s, discretization=Discretization(antenna, control))
    if getattr(args, "epsilon", None) is not None:
        try:
            s = replace(s, epsilon="auto" if args.epsilon == "auto" else float(args.epsilon))
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    validate_scenario(s)
    return resolve_epsilon(s)


def _scenario_lines(s: Scenario, path: str) -> list[tuple[str, object]]:
    lines: list[tuple[str, object]] = [
        ("file", path),
        ("dim", s.dim),
        ("delta", float(s.delta)),
        ("epsilon", float(s.epsilon)),
        ("seed", s.seed),
        ("nodes-antenna", s.discretization.antenna),
        ("nodes-control", s.discretization.control),
        ("observation-radius", float(s.observation_radius)),
        ("outer-control-radius", float(s.outer_control_radius)),
        ("exterior-field", s.exterior_target.kind),
    ]
    for k, r in enumerate(s.regions, start=1):
        lines.append((f"region-{k}.center", ",".join(repr(float(c)) for c in r.center)))
        lines.append((f"region-{k}.radius", float(r.radius)))
        lines.append((f"region-{k}.control-radius", float(r.control_radius)))
        lines.append((f"region-{k}.field", r.target.kind))
    return lines


def _block_labels(count: int) -> list[str]:
    """Report labels of ``count`` control blocks: the regions, then the outer sphere."""
    return [f"region-{k}" for k in range(1, count)] + ["outer"]


def _spectrum_lines(sigma: np.ndarray, unresolved) -> list[tuple[str, object]]:
    count = min(SPECTRUM_FIT_COUNT, sigma.shape[0])
    usable = sigma[:count][sigma[:count] > 0]
    slope = float(np.polyfit(np.arange(usable.shape[0]), np.log10(usable), 1)[0])
    return [
        ("sigma-1", float(sigma[0])),
        ("sigma-min", float(sigma[-1])),
        ("count", int(sigma.shape[0])),
        ("rank-above-cutoff", rank_above_cutoff(sigma)),
        ("decay-slope-log10", slope),
        *((f"unresolved-{label}", float(share))
          for label, share in zip(_block_labels(len(unresolved)), unresolved)),
    ]


def _solve_lines(report: SolveReport) -> list[tuple[str, object]]:
    lines = [
        ("alpha-star", report.alpha_star),
        ("epsilon", report.epsilon),
        ("discrepancy", report.discrepancy),
        ("relative-gap", abs(report.discrepancy - report.epsilon) / report.epsilon),
        ("energy", report.energy),
        ("bracket-iterations", report.bracket_iterations),
        ("epsilon-floor", report.epsilon_floor),
        ("degenerate", report.degenerate),
    ]
    for label, res in zip(_block_labels(len(report.block_residuals)), report.block_residuals):
        lines.append((f"residual-{label}", res))
    return lines


def _certificate_lines(cert: tuple[BoundaryBound, ...]) -> list[tuple[str, object]]:
    lines = []
    for entry in cert:
        for key, val in (
            ("residual-l2", entry.mismatch_l2),
            ("l1-factor", entry.l1_factor),
            ("constant-conservative", entry.constant_conservative),
            ("bound-conservative", entry.bound_conservative),
        ):
            lines.append((f"{entry.label}.{key}", val))
    return lines


def write_report(path: Path, sections: list[tuple[str, list[tuple[str, object]]]]) -> None:
    with open(path, "w") as fh:
        fh.write(f"format-version: {REPORT_FORMAT_VERSION}\n")
        fh.write(f"generator: fieldcast {__version__}\n")
        for name, lines in sections:
            fh.write(f"\n[{name}]\n")
            for key, value in lines:
                fh.write(f"{key}: {_fmt(value)}\n")


def _cell_text(column) -> list[str]:
    """The text of each cell of one column block.  A sequence of str is
    written as it is; a float64 or int64 array is formatted once per distinct
    64-bit pattern, so ``-0.0`` and ``0.0`` keep their own text."""
    if not isinstance(column, np.ndarray):
        return column
    bits, index = np.unique(column.view(np.int64), return_inverse=True)
    text = [repr(v) for v in bits.view(column.dtype).tolist()]
    return [text[i] for i in index.tolist()]


def _rows_text(columns) -> str:
    """The lines of one block of rows, given each column's slice of it."""
    return "\n".join(map("\t".join, zip(*map(_cell_text, columns)))) + "\n"


def write_table(path: Path, header: list[str], columns) -> None:
    """Write a delimited output: ``format-version: 1``, the tab-separated
    header, then one tab-separated line per row.  Each column is a float64 or
    int64 array, whose cells are Python's shortest round-trip ``repr`` of the
    value (``-0.0`` keeps its sign, NaN reads ``nan``), or a sequence of str;
    all have one entry per row.  The text is made and written one block of
    ``TABLE_BLOCK_ROWS`` rows at a time, so it never holds more than one
    block's cells.  A column of another dtype or length raises ValueError,
    naming it, before the file is opened."""
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} column names for {len(columns)} columns")
    n = len(columns[0])
    for name, column in zip(header, columns):
        if len(column) != n:
            raise ValueError(f"column {name!r} has {len(column)} rows, not {n}")
        if isinstance(column, np.ndarray) and column.dtype not in (np.float64, np.int64):
            raise ValueError(f"column {name!r} is {column.dtype}, not float64 or int64")
    with open(path, "w") as fh:
        fh.write("format-version: 1\n" + "\t".join(header) + "\n")
        for lo in range(0, n, TABLE_BLOCK_ROWS):
            fh.write(_rows_text([c[lo: lo + TABLE_BLOCK_ROWS] for c in columns]))


def write_spectrum(path: Path, sigma: np.ndarray) -> None:
    write_table(path, ["index", "sigma"], [np.arange(sigma.shape[0]), sigma])


def write_grid(grid: FieldGrid, path) -> None:
    """Write a field grid: coordinates, total, target, mismatch and label per point."""
    coords = ["x", "y", "z"][: grid.points.shape[1]]
    write_table(path, coords + ["total", "target", "mismatch", "label"],
                [*grid.points.T, grid.values, grid.target, grid.mismatch, grid.labels])


@contextmanager
def _stage(timings: list[tuple[str, object]], name: str):
    """Append ``<name>-seconds`` and the wall time of the block to ``timings``."""
    t0 = time.perf_counter()
    yield
    timings.append((f"{name}-seconds", max(time.perf_counter() - t0, 1e-9)))


def _physical_memory() -> int:
    """Bytes of physical memory, the limit every size check holds a run to."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_size(s: Scenario) -> int:
    """Reject a discretization whose operator and factorization would not fit
    in physical memory, from its node counts alone: m rows
    (:func:`fieldcast.operator.matrix_rows`) by M antenna harmonics.  Every
    command releases the matrix to the SVD, so one estimate
    (:func:`fieldcast.operator.factorization_bytes`) bounds them all.  Returns m M^2, the factorization's flop measure."""
    d = s.discretization
    degree = rule_degree(d.antenna, s.dim)
    columns = harmonic_count(degree, s.dim)
    m = matrix_rows(s.dim, s.n_regions, rule_degree(d.control, s.dim), degree)
    n = rule_node_count(d.antenna, s.dim)
    need = factorization_bytes(m, rule_node_count(d.control, s.dim), n, columns)
    limit = _physical_memory()
    if need > limit:
        raise ScenarioValidationError([
            f"a {m} x {columns} operator and its weighted SVD need about {need / 2**30:.4g} GiB, "
            f"more than the {limit / 2**30:.4g} GiB of physical memory"])
    return m * columns**2


def _prepare(args, scenario: Scenario, timings):
    """The steps ``run`` and ``sweep`` share after loading the scenario: check
    the size, build the rules and the target (which rejects an identically
    zero trace), then make the output directory, assemble the operator and
    take the weighted SVD, so a scenario rejected before assembly leaves no
    directory.  The SVD consumes the operator's matrix, for every command.
    The BLAS thread count is chosen from the factorization's size first.
    Returns (out_dir, K, v, svd)."""
    timings.append(("blas-threads", blas.use_threads(_check_size(scenario))))
    with _stage(timings, "target"):
        antenna, controls = build_rules(scenario)
        v = build_target(scenario, controls)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"--out {args.out!r} cannot be made a directory: {exc.strerror}") from None
    with _stage(timings, "assemble"):
        K = assemble_forward(antenna, controls)
    with _stage(timings, "svd"):
        svd = weighted_svd(K, release=True)
    return out_dir, K, v, svd


def _write_record(args, out_dir: Path, scenario: Scenario, K, sigma: np.ndarray,
                  sections, outputs, timings) -> None:
    """Write ``spectrum.tsv`` and ``report.txt``: [scenario], [spectrum], the
    command's own sections, [outputs] and [timings]; print the report path."""
    spectrum_path = out_dir / "spectrum.tsv"
    write_spectrum(spectrum_path, sigma)
    report_path = out_dir / "report.txt"
    write_report(report_path, [
        ("scenario", _scenario_lines(scenario, args.scenario)),
        ("spectrum", _spectrum_lines(sigma, K.unresolved)),
        *sections,
        ("outputs", [("spectrum", spectrum_path.name), *outputs]),
        ("timings", timings),
    ])
    print(f"report: {report_path}")


def _grid_shape(text: str, dim: int) -> tuple[int, ...]:
    """The ``--grid`` counts: one integer >= 1 per dimension, whose points fit
    in physical memory at ``GRID_BYTES_PER_POINT`` each."""
    try:
        shape = tuple(int(p) for p in text.split(","))
    except ValueError:
        shape = ()
    if len(shape) != dim or min(shape) < 1:
        raise UsageError(f"--grid expects {dim} comma-separated counts >= 1, got {text!r}")
    need = math.prod(shape) * GRID_BYTES_PER_POINT
    limit = _physical_memory()
    if need > limit:
        raise UsageError(f"--grid {text!r} needs about {need / 2**30:.4g} GiB, "
                         f"more than the {limit / 2**30:.4g} GiB of physical memory")
    return shape


def cmd_run(args) -> int:
    timings: list[tuple[str, object]] = []
    scenario = _load(args)
    grid_shape = _grid_shape(args.grid, scenario.dim) if args.grid is not None else None
    out_dir, K, v, svd = _prepare(args, scenario, timings)
    with _stage(timings, "solve"):
        h, report = solve_min_energy(K, v, float(scenario.epsilon))
    with _stage(timings, "certify"):
        cert = certify_solution(report.block_residuals, scenario)
    with _stage(timings, "empirical"):
        rng = np.random.default_rng(scenario.seed)
        maxima = empirical_mismatches(h, scenario_difference_fields(scenario), scenario, rng,
                                      EMPIRICAL_SAMPLES)

    empirical_lines: list[tuple[str, object]] = [("samples", EMPIRICAL_SAMPLES)]
    for entry, observed in zip(cert, maxima):
        empirical_lines += [
            (f"{entry.label}.sampled-max", observed),
            (f"{entry.label}.bound-conservative", entry.bound_conservative),
            (f"{entry.label}.within-bound", observed <= entry.bound_conservative),
        ]

    outputs: list[tuple[str, object]] = []
    if grid_shape:
        with _stage(timings, "grid"):
            grid = eval_on_grid(h, scenario, default_grid(scenario, grid_shape))
            write_grid(grid, out_dir / "grid.tsv")
        outputs.append(("grid", "grid.tsv"))

    if args.dump_operator:
        dump_operator(K, out_dir / "operator.bin")
        outputs.append(("operator", "operator.bin"))

    _write_record(args, out_dir, scenario, K, svd.sigma, [
        ("solve", _solve_lines(report)),
        ("certificate", _certificate_lines(cert)),
        ("empirical", empirical_lines),
    ], outputs, timings)
    print(f"discrepancy: {report.discrepancy!r} (epsilon {report.epsilon!r})")
    print(f"energy: {report.energy!r}")
    for entry in cert:
        print(f"bound[{entry.label}]: {entry.bound_conservative!r}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    timings: list[tuple[str, object]] = []
    scenario = _load(args)
    name, text = ("alpha", args.alphas) if args.alphas is not None else ("epsilon", args.epsilons)
    try:
        ladder = sweep_ladder([float(p) for p in text.split(",") if p.strip()], name)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    out_dir, K, v, svd = _prepare(args, scenario, timings)
    with _stage(timings, "sweep"):
        rows = (sweep_alpha if name == "alpha" else sweep_epsilon)(K, v, ladder)
    sweep_path = out_dir / "sweep.tsv"
    write_table(sweep_path, [name, "discrepancy", "energy"], np.array(rows).T)
    _write_record(args, out_dir, scenario, K, svd.sigma, [], [("sweep", sweep_path.name)], timings)
    print(f"sweep: {sweep_path}")
    print(f"spectrum: {out_dir / 'spectrum.tsv'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fieldcast",
        description="Minimal-energy antenna densities for harmonic field control.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="solve a scenario and write report, spectrum, grids")
    run.add_argument("scenario", help="scenario file (.scn suffix may be omitted)")
    run.add_argument("--out", default="fieldcast-out", help="output directory")
    run.add_argument("--grid", default=None, metavar="NX[,NY[,NZ]]",
                     help="export the total field on a grid with these counts")
    run.add_argument("--nodes", default=None, metavar="ANTENNA,CONTROL",
                     help="override per-boundary node counts")
    run.add_argument("--epsilon", default=None, metavar="VALUE|auto",
                     help="override the scenario's accuracy budget")
    run.add_argument("--dump-operator", action="store_true",
                     help="write the operator matrix (control-sphere harmonics x antenna "
                          "harmonics) and spectrum as binary")
    run.set_defaults(func=cmd_run)

    # No abbreviations: "--epsilon" must not pass for "--epsilons".
    sweep = sub.add_parser("sweep", help="tabulate discrepancy/energy over a ladder",
                           allow_abbrev=False)
    sweep.add_argument("scenario")
    sweep.add_argument("--out", default="fieldcast-out")
    sweep.add_argument("--nodes", default=None, metavar="ANTENNA,CONTROL")
    group = sweep.add_mutually_exclusive_group(required=True)
    group.add_argument("--epsilons", default=None, metavar="E1,E2,...")
    group.add_argument("--alphas", default=None, metavar="A1,A2,...")
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.  The BLAS thread count is
    handed back as found, so an in-process caller keeps its own."""
    parser = build_parser()
    args = parser.parse_args(argv)
    with blas.thread_count_kept():
        try:
            return args.func(args)
        except (ScenarioFormatError, ScenarioValidationError, FileNotFoundError) as exc:
            print(f"error [validation]: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        except InfeasibleAccuracyError as exc:
            print(f"error [infeasible]: {exc}", file=sys.stderr)
            return EXIT_INFEASIBLE
        except UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except (ValueError, RuntimeError, np.linalg.LinAlgError, FloatingPointError) as exc:
            print(f"error [numerical]: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
