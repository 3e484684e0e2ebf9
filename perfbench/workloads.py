"""The benchmark's workloads and the scenario pool they draw from.

Each workload draws its jobs from a pool of ``POOL`` scenario ids whose
energies ``reference.json`` records; a run's ``--seed`` fixes the order in
which it takes them, so no two jobs of a run share a scenario.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from fieldcast import cli
from jobs import Check, check_run, check_sweep
from scenarios import Job, Shape

POOL = 96
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Sweep energies are recorded at every 50th ladder point and the last.
SWEEP_POINTS = 500
SWEEP_RECORDED = tuple(range(0, SWEEP_POINTS, 50)) + (SWEEP_POINTS - 1,)


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    grid: str | None = None
    ladder_points: int = 0

    def command(self, job: Job, out_dir: Path) -> list[str]:
        """CLI arguments of one job."""
        if self.ladder_points:
            eps = ",".join(repr(e) for e in job.ladder)
            return ["sweep", str(job.path), "--epsilons", eps, "--out", str(out_dir)]
        extra = ["--grid", self.grid] if self.grid else []
        return ["run", str(job.path), "--out", str(out_dir), *extra]

    def check(self, job: Job, out_dir: Path, reference: dict, returncode: int) -> Check:
        """Check one finished job against ``reference.json``'s energies."""
        if returncode != 0:
            return Check([f"exit code {returncode}"])
        recorded = reference["energies"][self.name][job.scenario_id]
        if self.ladder_points:
            return check_sweep(out_dir, job.ladder, dict(zip(SWEEP_RECORDED, recorded)))
        return check_run(out_dir, recorded)


# BENCHMARK.json records why each workload was chosen.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("run-3d", Shape(dim=3, n_regions=2)),
        Workload("grid-2d", Shape(dim=2, n_regions=2), grid="200,200"),
        Workload("sweep-3d", Shape(dim=3, n_regions=1), ladder_points=SWEEP_POINTS),
    )
}


def pool_order(seed: int) -> list[int]:
    """The scenario ids a run with this seed takes, in order."""
    return random.Random(seed).sample(range(POOL), POOL)


def run_in_process(command: list[str]) -> tuple[int, float]:
    """``fieldcast.cli.main(command)`` in this process: (exit code, wall s).

    The CLI's own messages are discarded, so the benchmark's result stays
    the last line of standard output.
    """
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(command)
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed job, not the end of the run
        traceback.print_exc()
        code = 1
    return code, time.perf_counter() - t0


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)
