"""The benchmark's own tests: tiny smoke runs, the gate, and seeded inputs.

Run from the root of a checkout with ``python -m pytest bench -q``.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_line(done) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_end_to_end_metric(workload):
    result = result_line(bench("--workload", workload, "--seed", "5", "--seconds", "0",
                               "--trace", "0", "--size", "tiny"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tiny_traced_run_reports_every_layer_metric():
    result = result_line(bench("--workload", "score", "--seed", "5", "--seconds", "0",
                               "--trace", "1", "--size", "tiny"))
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # Score, evaluate, then sweep: one weighted posterior for the scores and
    # one per grid point, no optimizer.
    assert metrics["gpr.weighted_calls"] == 1 + len(run.SWEEP_GRID)
    assert metrics["gpr.restore_s"] > 0 and metrics["stats.evaluate_scores_s"] > 0
    assert metrics["stats.sweep_point_s"] > 0
    assert metrics["gpr.optimizer_runs"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "train", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.fixture(scope="module")
def scored(tmp_path_factory):
    """A tiny score workload, set up and prepared, with one passing score run."""
    run.load_program()
    workload = run.Score(7, run.SIZES["tiny"], tmp_path_factory.mktemp("score"))
    workload.setup()
    workload.prepare()
    stage = workload.stages()[0]
    directory = workload.work / "run"
    run.clear_outputs(directory, [stage])
    timing = run.normgp(stage.argv, directory, workload.work / "stages.log")
    assert run.Gate().judge(stage, directory, timing.code)
    return workload, stage, directory


def rewrite_scores(directory: Path, row: int, columns: tuple) -> None:
    path = directory / "scores.csv"
    rows = list(csv.reader(path.open(newline="")))
    for name in columns:
        position = rows[0].index(name)
        rows[row + 1][position] = repr(float(rows[row + 1][position]) * (1 + 1e-6))
    with path.open("w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


@pytest.mark.parametrize("columns", [("cov",), ("cov", "cov_w")])
def test_one_changed_cov_value_counts_as_failed(scored, tmp_path, columns):
    workload, stage, directory = scored
    corrupt = tmp_path / "run"
    shutil.copytree(directory, corrupt)
    # A row the oracle samples, so changing cov and cov_w together is caught too.
    rewrite_scores(corrupt, int(workload.rows[0]), columns)
    gate = run.Gate()
    assert not gate.judge(stage, corrupt, 0)
    assert (gate.attempted, gate.failed) == (1, 1)


def test_changed_bytes_between_runs_count_as_failed(scored, tmp_path):
    workload, stage, directory = scored
    gate = run.Gate()
    assert gate.judge(stage, directory, 0)
    again = tmp_path / "again"
    shutil.copytree(directory, again)
    # Same values, different bytes: only the byte comparison can catch it.
    path = again / "scores.csv"
    rows = list(csv.reader(path.open(newline="")))
    rows[1][1] = "0" + rows[1][1]
    with path.open("w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    assert not gate.judge(stage, again, 0)
    assert "differs from the first run's bytes" in gate.messages[-1]
    assert (gate.attempted, gate.failed) == (2, 1)


def test_seed_makes_the_inputs_deterministically(tmp_path):
    run.load_program()

    def inputs(seed, name):
        workload = run.Score(seed, run.SIZES["tiny"], tmp_path / name)
        workload.work.mkdir()
        return [(workload.work / f).read_bytes() for f in workload.setup()]

    first, again, other = inputs(3, "a"), inputs(3, "b"), inputs(4, "c")
    assert first == again
    assert all(x != y for x, y in zip(first, other))


def test_oracle_auc_is_the_mann_whitney_share():
    scores = np.array([0.1, 0.4, 0.35, 0.8, 0.4])
    positive = np.array([False, True, False, True, False])
    # Pairs (pos, neg): 0.4 beats 0.1 and 0.35, ties 0.4; 0.8 beats all three.
    assert run.oracle.auc(scores, positive) == pytest.approx(5.5 / 6)
