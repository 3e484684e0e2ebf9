"""Record the energy of every pool scenario into ``reference.json``.

Run from the root of a checkout, once, at the commit whose behaviour the
benchmark's correctness checks should hold later commits to::

    python3 perfbench/record_reference.py

Each scenario is set up exactly as a benchmark job and solved by the CLI
in this process.
Every other output check must pass on every scenario, or nothing is
written.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from jobs import bootstrap, parse_report

bootstrap()

from scenarios import set_up  # noqa: E402  (needs bootstrap first)
from workloads import POOL, REFERENCE, SWEEP_RECORDED, WORKLOADS, run_in_process  # noqa: E402


def energies(workload, job, out_dir: Path):
    if workload.ladder_points:
        rows = (out_dir / "sweep.tsv").read_text().splitlines()[2:]
        return [float(rows[i].split("\t")[2]) for i in SWEEP_RECORDED]
    return float(parse_report((out_dir / "report.txt").read_text())["solve"]["energy"])


def main() -> int:
    recorded: dict[str, list] = {}
    failures = []
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        work = Path(tmp)
        for name, workload in WORKLOADS.items():
            recorded[name] = []
            for sid in range(POOL):
                job = set_up(workload.shape, sid, work, workload.ladder_points)
                out_dir = work / f"{name}-{sid}"
                code, _ = run_in_process(workload.command(job, out_dir))
                value = energies(workload, job, out_dir) if code == 0 else None
                recorded[name].append(value)
                reference = {"energies": {name: {sid: value}}}
                problems = workload.check(job, out_dir, reference, code).failures
                failures += [f"{name} scenario {sid}: {p}" for p in problems]
                print(f"{name} {sid}: {value!r} {problems or ''}", flush=True)
                shutil.rmtree(out_dir, ignore_errors=True)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    REFERENCE.write_text(json.dumps(
        {"pool": POOL, "sweep_recorded": list(SWEEP_RECORDED), "energies": recorded},
        indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
