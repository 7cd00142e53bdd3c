"""The benchmark's tracer resolves ``plr`` names by attribute, and its
workloads call ``plr`` and check the outputs: renaming or removing a name it
wraps, or breaking a workload's run or check, must fail here, not only in the
benchmark's self-check or as a lower ``ok_frac``."""

import json
from pathlib import Path

import pytest

import plr.cli

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_every_name_it_wraps(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT))
    from perfbench.tracing import Tracer

    before = dict(vars(plr.cli))
    tracer = Tracer()
    try:
        tracer.install()  # a KeyError names an attribute that no longer exists
        assert vars(plr.cli)["_sweep_point"] is not before["_sweep_point"]
    finally:
        tracer.uninstall()
    assert all(vars(plr.cli)[name] is value for name, value in before.items())


BENCHMARKED = [workload["name"] for workload in
               json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", BENCHMARKED)
def test_workload_runs_and_checks_at_tiny_size(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT))
    from perfbench import workloads

    monkeypatch.setattr(workloads, "OUT", str(tmp_path))
    workload = workloads.WORKLOADS[name](1, tiny=True)
    inst = workload.setup()[0]
    result = workload.check(inst, workload.run(inst))
    assert result.ok, result.problems
