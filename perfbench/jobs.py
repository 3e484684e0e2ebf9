"""Running one CLI job in its own process, and checking what it wrote.

A job is ``python -m fieldcast run|sweep ...`` against the checkout's
``src/``.  The parent waits for it with ``os.wait4`` so that wall time,
user+sys time and peak RSS belong to that one child.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# A job's relative gap and each sweep row's |discrepancy - epsilon| / epsilon
# may not exceed the solver's stopping tolerance.
GAP_RTOL = 1e-3

# Far above any job's run time; keeps a hung job inside the time a run may take.
JOB_TIMEOUT_S = 120.0

# Energies may differ from the recorded reference by this much (relative):
# far above run-to-run rounding, far below any change of method or target.
ENERGY_RTOL = 1e-6


def blas_threads() -> int:
    """BLAS threads for every job and for set-up: the CPUs this process may
    use, so never more than nproc."""
    return len(os.sched_getaffinity(0))


def child_env(threads: int) -> dict[str, str]:
    """Environment of a job: the checkout's ``src`` and a pinned BLAS."""
    return dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=str(threads))


def bootstrap() -> None:
    """Make ``fieldcast`` importable from the checkout, with the jobs' BLAS
    thread count; call before anything imports numpy."""
    if not (SRC / "fieldcast" / "cli.py").is_file():
        sys.exit(f"error: no fieldcast sources under {SRC}")
    os.environ["OPENBLAS_NUM_THREADS"] = str(blas_threads())
    sys.path.insert(0, str(SRC))


@dataclass
class Process:
    """What the operating system reports for one finished child."""

    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mib: float


def spawn(argv: list[str], env: dict[str, str], log: Path) -> Process:
    """Run ``argv`` to completion; its stdout and stderr go to ``log``.

    A child still running after ``JOB_TIMEOUT_S`` is killed, and so fails.
    """
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: the child must not outlive us
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Process(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mib=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    )


def cli_argv(command: list[str]) -> list[str]:
    return [sys.executable, "-m", "fieldcast", *command]


def parse_report(text: str) -> dict[str, dict[str, str]]:
    """``report.txt`` as {section: {key: raw value}}."""
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
    for line in text.splitlines():
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], {})
        elif current is not None and ": " in line:
            key, value = line.split(": ", 1)
            current[key] = value
    return sections


@dataclass
class Check:
    """Failures found in one job's outputs, plus what the metrics need."""

    failures: list[str] = field(default_factory=list)
    cert_slack: float | None = None


def _energy_failure(energy: float, reference: float, where: str) -> list[str]:
    if abs(energy - reference) > ENERGY_RTOL * abs(reference):
        return [f"{where}energy {energy!r} differs from the recorded {reference!r}"]
    return []


def check_run(out_dir: Path, reference_energy: float) -> Check:
    """Check a ``run`` job: relative gap, every within-bound, the energy.

    The certificate slack is the largest bound-conservative / sampled-max
    over the boundaries in ``[empirical]``.
    """
    report = out_dir / "report.txt"
    if not report.exists():
        return Check(["report.txt is missing"])
    sections = parse_report(report.read_text())
    solve = sections.get("solve", {})
    empirical = sections.get("empirical", {})
    check = Check()
    try:
        gap = float(solve["relative-gap"])
        energy = float(solve["energy"])
    except (KeyError, ValueError):
        return Check(["[solve] lacks a numeric relative-gap or energy"])
    if not gap <= GAP_RTOL:
        check.failures.append(f"relative-gap {gap!r} exceeds {GAP_RTOL}")
    check.failures += _energy_failure(energy, reference_energy, "")

    labels = [k[: -len(".within-bound")] for k in empirical if k.endswith(".within-bound")]
    if not labels:
        check.failures.append("[empirical] has no within-bound entries")
    slack = []
    for label in labels:
        if empirical[f"{label}.within-bound"] != "yes":
            check.failures.append(f"{label}.within-bound is not yes")
        bound = float(empirical[f"{label}.bound-conservative"])
        sampled = float(empirical[f"{label}.sampled-max"])
        if sampled > 0:
            slack.append(bound / sampled)
    if slack:
        check.cert_slack = max(slack)
    return check


def check_sweep(out_dir: Path, ladder: tuple[float, ...],
                reference: dict[int, float]) -> Check:
    """Check a ``sweep`` job: one row per ladder value, discrepancy within
    the tolerance of each epsilon, energy nonincreasing in epsilon, and the
    energies at the recorded ladder indices."""
    path = out_dir / "sweep.tsv"
    if not path.exists():
        return Check(["sweep.tsv is missing"])
    lines = path.read_text().splitlines()
    if lines[:2] != ["format-version: 1", "epsilon\tdiscrepancy\tenergy"]:
        return Check(["sweep.tsv has an unexpected header"])
    try:
        rows = [tuple(float(x) for x in line.split("\t")) for line in lines[2:]]
    except ValueError:
        return Check(["sweep.tsv has a non-numeric row"])
    if [r[0] for r in rows] != list(ladder):
        return Check([f"sweep.tsv epsilons do not match the {len(ladder)}-point ladder"])
    check = Check()
    off = [i for i, (eps, disc, _) in enumerate(rows) if not abs(disc - eps) <= GAP_RTOL * eps]
    if off:
        check.failures.append(f"discrepancy misses epsilon at {len(off)} rows, first {off[0]}")
    rising = [i for i in range(1, len(rows)) if rows[i][2] > rows[i - 1][2]]
    if rising:
        check.failures.append(f"energy rises with epsilon at {len(rising)} rows, first {rising[0]}")
    for i, ref in reference.items():
        check.failures += _energy_failure(rows[i][2], ref, f"row {i}: ")
    return check
