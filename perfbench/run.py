"""fieldcast benchmark: CLI jobs measured end to end, and a traced run per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload run-3d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each job is ``python -m fieldcast run|sweep`` on its own seeded scenario,
in its own process, one after another (a closed loop with one client).
Jobs start until ``--seconds`` have passed (set-up included), and at least
``MIN_JOBS`` run.  ``--trace 0`` reports the end-to-end metrics of those
processes; each job's times are scaled to a nominal host speed by a fixed
reference job run just before it (``hostref.py`` says why).  ``--trace 1``
instead runs the same jobs through ``fieldcast.cli.main`` in this process,
once plain and once with a span around every call into a layer, and
reports per-layer metrics, unscaled.  Every job's outputs are checked; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Scenario files, logs,
``context.json``, ``result.json`` and the spans of a traced run are left
under ``.perfbench-out/<workload>-seed<n>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import hostref
from jobs import ROOT, blas_threads, bootstrap, child_env, cli_argv, spawn

bootstrap()

# These import numpy and fieldcast, so they come after bootstrap().
import numpy  # noqa: E402

from fieldcast.fields import build_target  # noqa: E402
from fieldcast.geometry import Discretization, build_rules, validate_scenario  # noqa: E402
from fieldcast.operator import assemble_forward, weighted_svd  # noqa: E402
from fieldcast.scenario_io import load_scenario  # noqa: E402
from fieldcast.solver import residual_floor  # noqa: E402
from scenarios import set_up  # noqa: E402
from setup_worker import SetUpWorker  # noqa: E402
from spans import Tracer, job_layers, rank_above_cutoff, solver_percentiles  # noqa: E402
from workloads import WORKLOADS, load_reference, pool_order, run_in_process  # noqa: E402

OUT = ROOT / ".perfbench-out"

MIN_JOBS = 3
MIN_TRACED_JOBS = 2
IMPORT_REPEATS = 3
ANTENNA_POLAR_COUNTS = (8, 12, 16, 24)

END_TO_END = {
    "setup_s": "s",
    "job_wall_s.p50": "s",
    "job_cpu_s.p50": "s",
    "peak_rss_mib.max": "MiB",
}

# Layer figures measured per traced job; the run reports their medians.
JOB_LAYERS = {
    "scenario_io.load_s": "s",
    "geometry.validate_s": "s",
    "geometry.rules_s": "s",
    "operator.assemble_s": "s",
    "operator.assemble_peak_mib": "MiB",
    "operator.kernel_pairs": "count",
    "operator.matrix_mib": "MiB",
    "operator.svd_s": "s",
    "operator.rank_above_cutoff": "count",
    "operator.useful_rank_ratio": "ratio",
    "kernels.dlp_s": "s",
    "kernels.dlp_pairs": "count",
    "fields.target_s": "s",
    "fields.grid_eval_s": "s",
    "fields.grid_points": "count",
    "fields.grid_kernel_pairs": "count",
    "fields.grid_peak_mib": "MiB",
    "solver.solves": "count",
    "certify.bound_s": "s",
    "certify.probe_s": "s",
    "certify.probe_points": "count",
    "cli.write_s": "s",
    "cli.bytes_written": "count",
    "cli.self_s": "s",
}

PER_LAYER = {
    "cli.import_s": "s",
    **JOB_LAYERS,
    "solver.solve_s.p50": "s",
    "solver.bisection_iters.p50": "count",
    "cert_slack.p50": "ratio",
    **{f"operator.svd_s.antenna-{n}": "s" for n in ANTENNA_POLAR_COUNTS},
    **{f"operator.rank_above_cutoff.antenna-{n}": "count" for n in ANTENNA_POLAR_COUNTS},
    "baseline.job_wall_s.threads-1": "s",
    "baseline.job_wall_s.threads-all": "s",
    "trace.job_wall_s.p50": "s",
    "trace.overhead_s": "s",
}


def _median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def context(name: str, args, threads: int, shapes) -> dict:
    """Where and how the jobs ran."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        l3 = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        l3 = "unknown"
    return {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "l3_bytes": l3,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "matrix_shapes": sorted({tuple(s) for s in shapes}),
    }


def untraced(workload, args, work: Path, reference: dict):
    """End-to-end metrics over CLI jobs, one child process each.

    Each job's times are scaled to the nominal host speed by the reference
    job run just before it (see ``hostref``); unscaled medians stay in
    ``info``.
    """
    env = child_env(blas_threads())
    start = time.perf_counter()
    runs = []  # (job, set-up seconds, reference job, process, check) per job
    # Set-up runs in a worker process, so that this one, which spawns the
    # jobs, stays small (``setup_worker`` says why).
    with SetUpWorker(env) as worker:
        for sid in pool_order(args.seed):
            if len(runs) >= MIN_JOBS and time.perf_counter() - start >= args.seconds:
                break
            job, setup_s = worker.timed_set_up(
                workload.shape, sid, work, workload.ladder_points)
            ref = spawn([sys.executable, str(hostref.__file__)], env, work / "hostref.log")
            out = work / f"job-{sid}"
            proc = spawn(cli_argv(workload.command(job, out)), env, work / f"job-{sid}.log")
            check = workload.check(job, out, reference, proc.returncode)
            runs.append((job, setup_s, ref, proc, check))
            shutil.rmtree(out, ignore_errors=True)
    times = {  # each job's set-up, wall and CPU seconds
        "setup_s": [r[1] for r in runs],
        "job_wall_s.p50": [r[3].wall_s for r in runs],
        "job_cpu_s.p50": [r[3].cpu_s for r in runs],
    }
    scales = [hostref.NOMINAL_S / r[2].wall_s for r in runs]
    metrics = {name: statistics.median(t * k for t, k in zip(values, scales))
               for name, values in times.items()}
    metrics["peak_rss_mib.max"] = max(r[3].peak_rss_mib for r in runs)
    slack = [r[4].cert_slack for r in runs if r[4].cert_slack is not None]
    info = {
        "jobs": len(runs),
        "host_scale.p50": statistics.median(scales),
        "unscaled": {name: statistics.median(values) for name, values in times.items()},
        "cert_slack.p50": _median_or_zero(slack),
        "per_job": [dict(scenario=j.scenario_id, setup_s=s, epsilon=j.epsilon, floor=j.floor,
                         target_norm=j.target_norm, reference_wall_s=ref.wall_s,
                         **asdict(p), failures=c.failures)
                    for j, s, ref, p, c in runs],
    }
    checks = [(r[0].scenario_id, r[4]) for r in runs]
    return metrics, checks, [r[0].matrix_shape for r in runs], info


def import_seconds(env) -> float:
    """Median time a fresh interpreter takes to import ``fieldcast.cli``."""
    code = "import time; t = time.perf_counter(); import fieldcast.cli; print(time.perf_counter() - t)"
    times = [float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, check=True).stdout)
             for _ in range(IMPORT_REPEATS)]
    return statistics.median(times)


def antenna_ladder(scenario_path: Path) -> tuple[dict, dict]:
    """Weighted-SVD time and rank above the cutoff at each antenna polar
    count, control nodes unchanged; also the residual floor at each."""
    base = load_scenario(scenario_path)
    metrics, floors = {}, {}
    for n in ANTENNA_POLAR_COUNTS:
        s = validate_scenario(replace(
            base, discretization=Discretization(n, base.discretization.control)))
        antenna, controls = build_rules(s)
        K = assemble_forward(antenna, controls)
        t0 = time.perf_counter()
        sigma = weighted_svd(K).sigma
        metrics[f"operator.svd_s.antenna-{n}"] = time.perf_counter() - t0
        metrics[f"operator.rank_above_cutoff.antenna-{n}"] = rank_above_cutoff(sigma)
        floors[n] = residual_floor(K, build_target(s, controls))
    return metrics, floors


def traced(workload, args, work: Path, reference: dict):
    """Per-layer metrics: the same jobs through ``fieldcast.cli.main`` in
    this process, each once plain and once traced."""
    threads = blas_threads()
    start = time.perf_counter()
    metrics = {"cli.import_s": import_seconds(child_env(threads))}
    ids = pool_order(args.seed)
    first = set_up(workload.shape, ids[0], work, workload.ladder_points)

    # The first job again in child processes: with the jobs' BLAS threads,
    # and pinned to one thread as the single-threaded baseline.
    checks, baseline = [], {}
    for label, n in (("threads-all", threads), ("threads-1", 1)):
        out = work / f"baseline-{label}"
        proc = spawn(cli_argv(workload.command(first, out)), child_env(n), work / f"{out.name}.log")
        checks.append((first.scenario_id, workload.check(first, out, reference, proc.returncode)))
        metrics[f"baseline.job_wall_s.{label}"] = proc.wall_s
        baseline[label] = asdict(proc)
        shutil.rmtree(out, ignore_errors=True)

    floors = {}
    if workload.shape.dim == 3:
        ladder_metrics, floors = antenna_ladder(first.path)
        metrics.update(ladder_metrics)
    else:
        metrics.update({k: 0 for k in PER_LAYER if ".antenna-" in k})

    tracer = Tracer()
    layers, plain_walls, shapes = [], [], []
    for i, sid in enumerate(ids):
        if len(layers) >= MIN_TRACED_JOBS and time.perf_counter() - start >= args.seconds:
            break
        job = first if i == 0 else set_up(workload.shape, sid, work, workload.ladder_points)
        shapes.append(job.matrix_shape)
        plain_out, traced_out = work / f"plain-{sid}", work / f"traced-{sid}"
        # Alternate which of the two goes first, so neither always runs warm.
        for is_traced in ((False, True) if i % 2 == 0 else (True, False)):
            out = traced_out if is_traced else plain_out
            command = workload.command(job, out)
            if is_traced:
                with tracer.installed(sid), tracer.span("cli.main", sid) as root:
                    code, _ = run_in_process(command)
            else:
                code, wall = run_in_process(command)
                plain_walls.append(wall)
            checks.append((sid, workload.check(job, out, reference, code)))
        figures = job_layers(tracer.spans, root)
        figures["cli.bytes_written"] = sum(f.stat().st_size for f in traced_out.glob("*"))
        layers.append(figures)
        shutil.rmtree(plain_out, ignore_errors=True)
        shutil.rmtree(traced_out, ignore_errors=True)

    for name in JOB_LAYERS:
        metrics[name] = statistics.median(f[name] for f in layers)
    metrics.update(solver_percentiles(tracer.spans))
    slack = [c.cert_slack for _, c in checks if c.cert_slack is not None]
    metrics["cert_slack.p50"] = _median_or_zero(slack)
    metrics["trace.job_wall_s.p50"] = statistics.median(f["job_wall_s"] for f in layers)
    metrics["trace.overhead_s"] = metrics["trace.job_wall_s.p50"] - statistics.median(plain_walls)

    def share(*names):
        return statistics.median(sum(f[n] for n in names) / f["job_wall_s"] for f in layers)

    info = {
        "jobs": len(layers),
        "share_of_job_wall": {
            "operator.assemble+svd": share("operator.assemble_s", "operator.svd_s"),
            "fields.grid_eval+cli.write": share("fields.grid_eval_s", "cli.write_s"),
            "solver.total": share("solver.solve_total_s"),
        },
        "baseline": baseline,
        "antenna_floor": floors,
        "per_job": layers,
    }
    with open(work / "spans.jsonl", "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(asdict(s)) + "\n")
    return metrics, checks, shapes, info


def result(metrics: dict, units: dict, checks) -> dict:
    """The contract's result object: every named metric with its unit."""
    failed = sum(1 for _, c in checks if c.failures)
    return {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def run_workload(name: str, args) -> dict:
    workload = WORKLOADS[name]
    work = OUT / f"{name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    measure, units = (traced, PER_LAYER) if args.trace else (untraced, END_TO_END)
    metrics, checks, shapes, info = measure(workload, args, work, load_reference())
    res = result(metrics, units, checks)
    ctx = context(name, args, blas_threads(), shapes)
    (work / "context.json").write_text(json.dumps(ctx, indent=1) + "\n")
    (work / "result.json").write_text(json.dumps({**res, "info": info}, indent=1) + "\n")

    print(f"== {name}: {info['jobs']} jobs, seed {args.seed}, trace {args.trace}")
    print(f"context: {json.dumps(ctx)}")
    for sid, c in checks:
        for failure in c.failures:
            print(f"FAILED scenario {sid}: {failure}")
    print(f"failed_ratio: {res['failed']}/{res['attempted']} = {res['failed'] / res['attempted']}")
    if not args.trace:
        print(f"cert_slack.p50: {info['cert_slack.p50']!r} ratio")
        print(f"host_scale.p50: {info['host_scale.p50']!r}; unscaled: {json.dumps(info['unscaled'])}")
    for key, value in info.get("share_of_job_wall", {}).items():
        print(f"share of job wall, {key}: {value:.3f}")
    for metric, entry in res["metrics"].items():
        print(f"{metric}: {entry['value']!r} {entry['unit']}")
    return res, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    runs = {n: run_workload(n, args) for n in names}
    if args.workload == "all":
        units = PER_LAYER if args.trace else END_TO_END
        print("workload  failed_ratio  " + "  ".join(f"{m} [{u}]" for m, u in units.items())
              + ("" if args.trace else "  cert_slack.p50 [ratio]"))
        for n, (res, info) in runs.items():
            print(f"{n:9} {res['failed']}/{res['attempted']:<10} "
                  + "  ".join(f"{res['metrics'][m]['value']:.6g}" for m in units)
                  + ("" if args.trace else f"  {info['cert_slack.p50']:.6g}"))
        print(json.dumps({n: res for n, (res, _) in runs.items()}))
    else:
        print(json.dumps(runs[args.workload][0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
