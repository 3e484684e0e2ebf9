"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402
import yaml  # noqa: E402

import run  # noqa: E402
from fieldcast.geometry import validate_scenario  # noqa: E402
from fieldcast.scenario_io import parse_scenario  # noqa: E402
from jobs import Check  # noqa: E402
from scenarios import Job, generate, set_up  # noqa: E402
from spans import Tracer, job_layers  # noqa: E402
from workloads import (  # noqa: E402
    POOL, SWEEP_RECORDED, WORKLOADS, load_reference, pool_order, run_in_process)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("scenario_id", [0, 1, 2, 3, 41, POOL - 1])
def test_generated_scenarios_pass_validation(name, scenario_id):
    shape = WORKLOADS[name].shape
    doc = generate(shape, scenario_id)
    scenario = validate_scenario(parse_scenario(yaml.safe_dump(doc, sort_keys=False)))
    assert scenario.dim == shape.dim
    assert len(scenario.regions) == shape.n_regions
    assert scenario.exterior_target.kind == "zero"
    assert generate(shape, scenario_id) == doc


def test_a_run_never_repeats_a_scenario():
    for seed in range(5):
        order = pool_order(seed)
        assert sorted(order) == list(range(POOL))
        assert order == pool_order(seed)


def test_reference_covers_the_whole_pool():
    reference = load_reference()
    assert reference["pool"] == POOL
    assert reference["sweep_recorded"] == list(SWEEP_RECORDED)
    for name, workload in WORKLOADS.items():
        energies = reference["energies"][name]
        assert len(energies) == POOL
        if workload.ladder_points:
            assert all(len(e) == len(SWEEP_RECORDED) for e in energies)


def _write_report(out_dir: Path, within_bound: str = "yes", energy: float = 10.0) -> None:
    out_dir.mkdir(exist_ok=True)
    (out_dir / "report.txt").write_text(
        "format-version: 1\n\n[solve]\nrelative-gap: 0.0004\n"
        f"energy: {energy!r}\n\n[empirical]\nsamples: 500\n"
        "region-1.sampled-max: 0.5\nregion-1.bound-conservative: 2.0\n"
        "region-1.within-bound: yes\nexterior.sampled-max: 0.1\n"
        f"exterior.bound-conservative: 3.0\nexterior.within-bound: {within_bound}\n"
    )


def _run_job(out_dir: Path) -> tuple:
    job = Job(scenario_id=7, path=out_dir / "s.scn", epsilon=1.0, floor=0.5,
              target_norm=2.0, ladder=(), matrix_shape=(3, 2))
    return WORKLOADS["run-3d"], job, {"energies": {"run-3d": {7: 10.0}}}


def test_checker_passes_a_good_run_and_measures_slack(tmp_path):
    _write_report(tmp_path)
    workload, job, reference = _run_job(tmp_path)
    check = workload.check(job, tmp_path, reference, returncode=0)
    assert check.failures == []
    assert check.cert_slack == pytest.approx(30.0)


def test_checker_fails_a_nonzero_exit(tmp_path):
    _write_report(tmp_path)
    workload, job, reference = _run_job(tmp_path)
    assert workload.check(job, tmp_path, reference, returncode=4).failures == ["exit code 4"]


def test_checker_fails_within_bound_no(tmp_path):
    _write_report(tmp_path, within_bound="no")
    workload, job, reference = _run_job(tmp_path)
    failures = workload.check(job, tmp_path, reference, returncode=0).failures
    assert failures == ["exterior.within-bound is not yes"]


def test_checker_fails_an_energy_off_the_reference(tmp_path):
    _write_report(tmp_path, energy=10.001)
    workload, job, reference = _run_job(tmp_path)
    assert len(workload.check(job, tmp_path, reference, returncode=0).failures) == 1


def test_sweep_checker_fails_rising_energy(tmp_path):
    ladder = (1.0, 2.0, 3.0)
    rows = [(1.0, 1.0005, 5.0), (2.0, 2.0, 4.0), (3.0, 3.0, 4.5)]
    (tmp_path / "sweep.tsv").write_text(
        "format-version: 1\nepsilon\tdiscrepancy\tenergy\n"
        + "".join(f"{e!r}\t{d!r}\t{g!r}\n" for e, d, g in rows))
    job = Job(scenario_id=0, path=tmp_path / "s.scn", epsilon=1.0, floor=0.9,
              target_norm=4.0, ladder=ladder, matrix_shape=(3, 2))
    workload = WORKLOADS["sweep-3d"]
    reference = {"energies": {"sweep-3d": {0: [5.0]}}}
    failures = workload.check(job, tmp_path, reference, returncode=0).failures
    assert failures == ["energy rises with epsilon at 1 rows, first 2"]


def test_printer_emits_every_declared_metric_with_its_unit():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for key, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert declared == units
        res = run.result({name: 1.5 for name in units}, units, [(0, Check())])
        assert res["metrics"] == {n: {"value": 1.5, "unit": u} for n, u in declared.items()}
        assert (res["correct"], res["attempted"], res["failed"]) == (True, 1, 0)
        assert json.loads(json.dumps(res)) == res


def test_traced_job_yields_every_job_layer(tmp_path):
    workload = WORKLOADS["grid-2d"]
    job = set_up(workload.shape, 0, tmp_path)
    tracer = Tracer()
    with tracer.installed(0), tracer.span("cli.main", 0) as root:
        code, _ = run_in_process(["run", str(job.path), "--out", str(tmp_path / "out"),
                                  "--grid", "40,40"])
    assert code == 0
    figures = job_layers(tracer.spans, root)
    assert set(run.JOB_LAYERS) - set(figures) == {"cli.bytes_written"}
    assert figures["operator.kernel_pairs"] == 384 * 128
    assert 0 < figures["fields.grid_kernel_pairs"] <= figures["fields.grid_points"] * 128
    assert figures["solver.solves"] == 1
    assert 0 < figures["cli.self_s"] < figures["job_wall_s"]
