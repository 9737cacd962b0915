"""The code paths each benchmark workload takes, at full size and seed 0.

The exact worst-case errors are cheap on the benchmark's workloads because
every recovery trial there factors its certified moment Gram: no design row
is evaluated, no design falls back to the streamed QR, and no draw outside
a cosine tail term builds a tail-index table.  A change that sends a
workload down a slower path fails here, not only in its timings.
"""

import importlib.util
from pathlib import Path

import pytest

from rkhslab import experiment
from rkhslab.densities import SamplingDensity
from rkhslab.kernels import CosineBasis, FourierBasis

_SPEC = importlib.util.spec_from_file_location(
    "workloads",
    Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)

# certified recovery designs per run
DESIGNS = {"recover-secular": 4, "sweep-dense": 7, "discretize-dense": 0,
           "small-trials": 0}


def counted(monkeypatch, owner, name, calls):
    """Replace owner.name by a wrapper that appends (args, result) to calls."""
    inner = getattr(owner, name)

    def wrapper(*args):
        out = inner(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(owner, name, wrapper)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_workload_takes_the_certified_moment_paths(workload, monkeypatch,
                                                   tmp_path):
    calls = {key: [] for key in ("fourier", "cosine", "gram", "qr", "table")}
    counted(monkeypatch, FourierBasis, "eval_block", calls["fourier"])
    counted(monkeypatch, CosineBasis, "eval_block", calls["cosine"])
    counted(monkeypatch, experiment, "gram_design", calls["gram"])
    counted(monkeypatch, experiment, "assemble_design", calls["qr"])
    counted(monkeypatch, SamplingDensity, "_tail_index_table", calls["table"])
    for name, text in workloads.config_texts(workload, 0):
        cfg = experiment.build_config(experiment.parse_config(text))
        experiment.run(cfg).write(str(tmp_path / name))

    assert len(calls["fourier"]) == 0
    assert len(calls["cosine"]) == 0
    assert len(calls["qr"]) == 0
    assert len(calls["gram"]) == DESIGNS[workload]
    for args, ds in calls["gram"]:
        assert ds is not None and ds.moments.shape[1] == args[3]
    # only discretize-dense's cosine tail term reads an eigen index; its
    # table's size depends on the seed
    if workload != "discretize-dense":
        assert len(calls["table"]) == 0
