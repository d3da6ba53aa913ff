"""Tests of the benchmark itself (not of the library).

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import run
import worker
from nvtorus import affine, nielsen

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Stages each workload's traced op runs; every other per-stage metric is 0.
STAGES = {
    "decide-irreducible": {
        "specio.load_morphism", "morphisms.validate", "morphisms.index_orbits",
        "morphisms.linear_part", "morphisms.decompose", "affine.check_necessary.affine",
        "affine.check_necessary.not_affine", "affine.affine_data", "affine.diagnose_realization",
    },
    "nielsen-reducible": {
        "specio.load_morphism", "morphisms.validate", "morphisms.index_orbits",
        "morphisms.linear_part", "affine.torsion_witness", "morphisms.decompose",
        "affine.check_necessary.affine", "affine.affine_data", "affine.diagnose_realization",
        "nielsen.nielsen_of_morphism", "nielsen.count_fixed_points",
    },
    "verify-grid": {
        "specio.load_morphism", "constructions.build", "constructions.epsilon_perturbation",
        "constructions.verify",
    },
}


def small_pass(workload, tmp_path):
    """A few cheap items of a workload, with spec files written, and its warm-up."""
    manifest = gen.build(workload, 11)
    items = sorted(manifest["items"], key=lambda it: len(json.dumps(it["input"])))
    chosen, kinds = [], set()
    for item in items:
        if item["input"]["kind"] not in kinds:
            kinds.add(item["input"]["kind"])
            chosen.append(item)
    pass_file = run.write_pass_file(dict(manifest, items=chosen), tmp_path)
    spec = json.loads(pass_file.read_text())
    return spec["items"], spec["warmup"]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    first, again, other = gen.build(workload, 3), gen.build(workload, 3), gen.build(workload, 4)
    assert first["input_digest"] == again["input_digest"]
    assert first["items"] == again["items"]
    assert first["input_digest"] != other["input_digest"]
    assert first["descriptors"] == again["descriptors"]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_untampered_pass_has_no_failures(workload, tmp_path):
    items, warmup = small_pass(workload, tmp_path)
    result = worker.run_pass(workload, items, warmup)
    assert [error for _, _, error in result["ops"]] == [None] * len(items)


def shifted_point(verdict):
    r = verdict.realization
    points = list(r.points)
    points[-1] = tuple(a + 1 for a in points[-1])
    return affine.Verdict(verdict.outcome, realization=affine.AffineRealization(r.k, r.n, r.matrix, points))


def moved_witness(verdict):
    w = verdict.witness
    z = (w.z[0] + 1,) + tuple(w.z[1:])
    return affine.Verdict(verdict.outcome, witness=affine.Witness(w.index, z, w.cycle_length, w.value))


@pytest.mark.parametrize("tamper", [shifted_point, moved_witness])
def test_tampered_decide_output_counts_as_failed(tamper, tmp_path, monkeypatch):
    items, warmup = small_pass("decide-irreducible", tmp_path)
    honest = affine.decide_affine_irreducible
    wanted = "affine" if tamper is shifted_point else "not_affine"

    def tampered(psi):
        verdict = honest(psi)
        return tamper(verdict) if verdict.outcome.value == wanted else verdict

    monkeypatch.setattr(affine, "decide_affine_irreducible", tampered)
    result = worker.run_pass("decide-irreducible", items, warmup)
    failed = [it["id"] for it, (_, _, error) in zip(items, result["ops"]) if error]
    assert failed == [it["id"] for it in items if it["expect"][0]["verdict"] == wanted]
    metrics = run.end_to_end([result | {"maxrss_kb": 1}], 0.1)
    assert metrics["ok_ratio"][0] == pytest.approx(1 - len(failed) / len(items))


def test_tampered_fixed_point_count_counts_as_failed(tmp_path, monkeypatch):
    items, warmup = small_pass("nielsen-reducible", tmp_path)
    honest = nielsen.count_fixed_points
    monkeypatch.setattr(nielsen, "count_fixed_points", lambda r: honest(r) + 1)
    result = worker.run_pass("nielsen-reducible", items, warmup)
    assert all("fixed-point count" in error for _, _, error in result["ops"])


def test_wrong_grid_report_counts_as_failed(tmp_path, monkeypatch):
    items, warmup = small_pass("verify-grid", tmp_path)
    honest = worker.constructions.verify

    def coarser(sampled, grid):
        return honest(sampled, grid=grid - 1)

    monkeypatch.setattr(worker.constructions, "verify", coarser)
    result = worker.run_pass("verify-grid", items, warmup)
    assert all(error == "wrong number of grid samples" for _, _, error in result["ops"])


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_traced_pass_reports_every_stage_it_runs(workload, tmp_path):
    items, warmup = small_pass(workload, tmp_path)
    untraced = worker.run_pass(workload, items, warmup)
    traced = worker.run_pass(workload, items, warmup, trace=True)
    assert not any(error for _, _, error in traced["ops"])
    metrics = run.per_layer([traced], [untraced])
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    for stage, name in run.STAGE_METRICS.items():
        assert (metrics[name][0] > 0) == (stage in STAGES[workload]), stage
    counts = {"nielsen-reducible": "nielsen.count_fixed_points.points",
              "verify-grid": "constructions.verify.samples"}
    for workload_name, name in counts.items():
        assert (metrics[name][0] > 0) == (workload == workload_name)
    expected = sum(it["expect"]["samples"] for it in items) if workload == "verify-grid" else 0
    assert metrics["constructions.verify.samples"][0] == expected


def test_end_to_end_metrics_match_benchmark_json(tmp_path):
    items, warmup = small_pass("verify-grid", tmp_path)
    result = worker.run_pass("verify-grid", items, warmup) | {"maxrss_kb": 1}
    metrics = run.end_to_end([result] * 10, 0.1)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == declared


def test_refuses_to_run_without_library_source(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, str(Path(run.BENCH.name) / "run.py"), "--workload", "verify-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
