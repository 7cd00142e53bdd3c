"""The benchmark's tracer resolves ``plr`` names by attribute: renaming or
removing one it wraps must fail here, not only in the benchmark's self-check."""

from pathlib import Path

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
