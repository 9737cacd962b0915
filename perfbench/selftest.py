"""The benchmark's own test.

    python3 -m pytest -q perfbench/selftest.py

Runs every workload at a tiny size through run.py, traced and untraced,
and checks the reported metric names and units; checks the tolerance of
the reference comparison.
"""

import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import refcheck  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "kernels.eval_block.self_s": "s",
    "kernels.eval_block.calls": "count",
    "kernels.eval_block.cells": "count",
    "kernels.eval_block.bytes_out": "B",
    "densities.draw_nodes.self_s": "s",
    "densities.trial_rng.self_s": "s",
    "densities.evaluate.self_s": "s",
    "densities.draw_nodes.nodes": "count",
    "leastsq.assemble_design.self_s": "s",
    "leastsq.singular_values.self_s": "s",
    "leastsq.gram_eig_check.self_s": "s",
    "worstcase.exact_wce_recovery.self_s": "s",
    "worstcase.exact_wce_discretization.self_s": "s",
    "worstcase.wce_nullspace_component.self_s": "s",
    "worstcase.bound.self_s": "s",
    "worstcase.model_bound_inputs.self_s": "s",
    "worstcase.trunc_dim": "count",
    "worstcase.trunc_clipped_share": "share",
    "concentration.deviation_trial.self_s": "s",
    "concentration.deviation_trial.calls": "count",
    "experiment.run.self_s": "s",
    "experiment.write.self_s": "s",
    "experiment.trial_s.recover": "s",
    "experiment.trial_s.discretize": "s",
    "experiment.trial_s.eig-check": "s",
    "experiment.trial_s.concentration": "s",
    "experiment.trial_s.sweep": "s",
    "experiment.cpu_s": "s",
    "experiment.useful_share": "share",
    "trace.overhead_share": "share",
    "trace.unattributed_share": "share",
}


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "0", "--seconds", "0.01", "--trace",
         str(trace), "--tiny"],
        cwd=os.path.dirname(HERE), capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(workload, trace):
    res = _bench(workload, trace)
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    expected = PER_LAYER if trace else END_TO_END
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == expected


def _perturbed(tmp_path, rel):
    ref = os.path.join(HERE, "reference", "recover-secular", "recover")
    got = tmp_path / "recover"
    shutil.copytree(ref, got)
    with open(got / "trials.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("wce_sq")
    rows[1][col] = repr(float(rows[1][col]) * (1.0 + rel))
    with open(got / "trials.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return ref, str(got), "row 1 col %d" % col


def test_reference_check_tolerance(tmp_path):
    ref, got, _cell = _perturbed(tmp_path / "a", 1e-12)
    assert refcheck.diff_dir(ref, got) is None
    ref, got, cell = _perturbed(tmp_path / "b", 1e-8)
    assert cell in refcheck.diff_dir(ref, got)


def test_reference_check_json_cells():
    assert refcheck.diff_json({"a": 1, "b": 0.5}, {"a": 1, "b": 0.5}) is None
    assert refcheck.diff_json({"b": 0.5}, {"b": 0.5 * (1 + 1e-12)}) is None
    assert refcheck.diff_json({"b": 0.5}, {"b": 0.5 * (1 + 1e-8)})
    assert refcheck.diff_json({"a": 1}, {"a": 1.0})
    assert refcheck.diff_json({"p": True}, {"p": False})
