import dataclasses
import os
import re
import struct
import subprocess
import sys
import threading
import typing
import weakref

import numpy as np
import pytest

import plr
import plr.cli
from plr.cli import ConfigError, ExperimentConfig, main, parse_config
from plr.core import (FeasibleSet, SolverTrace, load_dense_csv, load_observations_csv,
                      save_dense_csv)
from plr.objectives import completion_objective
from plr.sensing import SensingEnsemble
from plr.solvers import (SolverAbort, SolverConfig, accelerated_proximal_gradient,
                         default_init, proximal_gradient)

COMPLETION_CFG = """\
# tiny synthetic completion experiment
mode = complete
source = synthetic
d1 = 8
d2 = 6
rank = 2
alpha = 30
beta = 1
p_obs = 0.75
seed = 5
solver = pmlsvt
max_iter = 200
step_recip = 1e-3
step_scale = 1.1
lambda = 0.01
"""

RECOVERY_CFG = """\
mode = recover
source = synthetic
d1 = 6
d2 = 5
rank = 2
alpha = 30
beta = 1
entry_floor = 1e-6
m = 40
p = 0.5
seed = 9
solver = pmlsvt
max_iter = 150
step_recip = 1e-4
step_scale = 1.1
lambda = 0.01
"""

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "data")

BIKE_CFG = f"""\
mode = complete
source = counts
counts_file = {DATA}/bike_toy.csv
alpha = 1000
beta = 1
p_obs = 0.5
seed = 4
solver = pmlsvt
max_iter = 100
step_recip = 1e-4
lambda = 10
"""


MATRIX_CFG = f"""\
mode = complete
source = matrix
matrix_file = {__file__}
alpha = 30
beta = 1
p_obs = 0.5
"""

IMAGE_CFG = f"""\
mode = complete
source = image
image_file = {DATA}/phantom16.pgm
patch_h = 4
patch_w = 4
alpha = 30
beta = 1
p_obs = 0.5
"""

# (source, a config of it, the keys that source never reads)
SOURCE_UNREAD = [
    ("synthetic", COMPLETION_CFG,
     ("matrix_file", "image_file", "patch_h", "patch_w", "trunc_rank", "counts_file")),
    ("matrix", MATRIX_CFG,
     ("d1", "d2", "rank", "image_file", "patch_h", "patch_w", "trunc_rank", "counts_file")),
    ("image", IMAGE_CFG, ("d1", "d2", "rank", "matrix_file", "counts_file")),
    ("counts", BIKE_CFG,
     ("d1", "d2", "rank", "matrix_file", "image_file", "patch_h", "patch_w", "trunc_rank")),
]


def fixed_step_cfg(solver):
    """COMPLETION_CFG run by ``solver``, without the keys only pmlsvt reads."""
    text = re.sub(r"^(step_recip|step_scale|lambda) = .*\n", "", COMPLETION_CFG, flags=re.M)
    return text.replace("solver = pmlsvt", f"solver = {solver}")


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_outputs(out_dir, skip_wall_time=True):
    """All output files as bytes, with the wall-time metric line dropped."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        data = open(os.path.join(out_dir, name), "rb").read()
        if skip_wall_time and name == "metrics.txt":
            data = b"\n".join(l for l in data.splitlines()
                              if not l.startswith(b"wall_time_s="))
        out[name] = data
    return out


def recovery_file_cfg(tmp_path, lines, name="file.cfg"):
    """A recovery on the output of RECOVERY_CFG's synth, made once in
    ``tmp_path / "full"``: its M.csv as a matrix source, RECOVERY_CFG's
    box, seed and solver settings, plus ``lines``."""
    if not (tmp_path / "full").exists():
        assert main(["synth", "--config", write_cfg(tmp_path, RECOVERY_CFG),
                     "--out", str(tmp_path / "full")]) == 0
    return write_cfg(tmp_path, (
        "mode = recover\nsource = matrix\n"
        f"matrix_file = {tmp_path / 'full' / 'M.csv'}\n"
        "alpha = 30\nbeta = 1\nrank_budget = 2\nseed = 9\n"
        "solver = pmlsvt\nmax_iter = 150\nstep_recip = 1e-4\n" + lines), name=name)


class TestParseConfig:
    def test_basic_and_comments(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("a = 1  # trailing\n# full comment\n\nb=two\n")
        assert parse_config(path) == {"a": "1", "b": "two"}

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("a = 1\na = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("just a line\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(path)


class TestExperimentConfig:
    def test_validation_requires_source_fields(self, tmp_path):
        cfg = write_cfg(tmp_path, "mode = complete\nsource = synthetic\nd1 = 4\n")
        ec = ExperimentConfig.from_file(cfg)
        with pytest.raises(ConfigError, match="d2"):
            ec.validate()

    def test_referenced_files_must_exist(self, tmp_path):
        cfg = write_cfg(tmp_path, (
            "mode = complete\nsource = matrix\nmatrix_file = nope.csv\n"
            "alpha = 2\nbeta = 1\np_obs = 0.5\n"))
        with pytest.raises(ConfigError, match="does not exist"):
            ExperimentConfig.from_file(cfg).validate()

    def test_single_run_rejects_sweep_axis(self, tmp_path):
        cfg = write_cfg(tmp_path, COMPLETION_CFG + "sweep_axis = rho\nsweep_values = 1,2\n")
        with pytest.raises(ConfigError, match="single experiment"):
            ExperimentConfig.from_file(cfg).validate()

    def test_seed_override(self, tmp_path):
        cfg = write_cfg(tmp_path, COMPLETION_CFG)
        ec = ExperimentConfig.from_file(cfg, seed_override=77)
        assert ec.seed == 77 and ec.obs_seed == 77

    def test_every_key_parses_to_its_declared_type(self, tmp_path):
        samples = {int: "3", float: "0.5", str: "x", bool: "yes", list: "2, 1.5"}
        types = typing.get_type_hints(ExperimentConfig)
        keys = {name: "lambda" if name == "penalty" else name for name in types}
        lines = {keys[name]: samples[t] for name, t in types.items()}
        lines.update(mode="Complete", source="synthetic", solver="PMLSVT")
        cfg = write_cfg(tmp_path, "".join(f"{k} = {v}\n" for k, v in lines.items()))
        ec = ExperimentConfig.from_file(cfg)
        assert {name: type(getattr(ec, name)) for name in types} == types
        assert (ec.mode, ec.solver, ec.penalty, ec.obs_seed) == ("completion", "pmlsvt", 0.5, 3)
        assert ec.sweep_values == [2.0, 1.5]

    def test_absent_keys_take_the_dataclass_defaults(self, tmp_path):
        cfg = write_cfg(tmp_path, "mode = recover\nsource = counts\n")
        ec = ExperimentConfig.from_file(cfg)
        # obs_seed is derived from seed
        assert ec == ExperimentConfig(mode="recovery", source="counts", obs_seed=0)

    def test_rule_tables_name_fields_and_owners(self):
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        required = {name for needs in plr.cli._REQUIRES.values()
                    for need in needs for name in need.split(" or ")}
        unread = {name for names in plr.cli._UNREAD_KEYS.values() for name in names}
        ranged = {name for names, _, _ in plr.cli._RANGES for name in names}
        assert required | unread | ranged <= fields
        choices = {plr.cli._ALIASES.get(c, c) for cs in plr.cli._CHOICES.values() for c in cs}
        owners = set(plr.cli._REQUIRES) | set(plr.cli._UNREAD_KEYS)
        # every owner is a chosen mode, source or solver, a key that fixes
        # another (obs_file, ensemble_file) or synth/solve, and every choice
        # has a row: none falls through the table lookups unread
        assert owners == choices | {"obs_file", "ensemble_file", plr.cli._SINGLE}
        assert set(plr.cli._ALIASES.values()) <= set(plr.cli._CHOICES["mode"])

    def test_readme_key_table_lists_every_config_key(self):
        readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
        table = readme.split("Every config key", 1)[1].split("\n\n", 2)[1]
        rows = table.splitlines()[2:]  # past the header and its rule
        assert rows and all(row.startswith("| `") for row in rows)
        listed = [key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])]
        keys = ["lambda" if f.name == "penalty" else f.name
                for f in dataclasses.fields(ExperimentConfig)]
        assert sorted(listed) == sorted(keys)

    def test_readme_owner_table_matches_the_rules(self):
        readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
        table = readme.split("| owner | requires | never reads |\n", 1)[1].split("\n\n", 1)[0]
        rows = table.splitlines()[1:]  # past the rule
        assert rows and all(row.startswith("| `") for row in rows)
        listed = {}
        for row in rows:
            owners, requires, unread = (re.findall(r"`([^`]+)`", cell)
                                        for cell in row.split("|")[1:4])
            for owner in owners:
                owner = plr.cli._SINGLE if owner in ("synth", "solve") else owner
                listed[owner] = (set(requires), set(unread))
        rules = {owner: ({key for need in plr.cli._REQUIRES.get(owner, ())
                          for key in need.split(" or ")},
                         {plr.cli._FIELD_KEYS.get(key, key)
                          for key in plr.cli._UNREAD_KEYS.get(owner, ())})
                 for owner in {*plr.cli._REQUIRES, *plr.cli._UNREAD_KEYS}}
        assert listed == rules

    def test_readme_config_examples_validate(self, tmp_path):
        readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
        # (info string, body) of each fenced block; a config block's first
        # line is a key = value pair
        blocks = re.findall(r"^```(\w*)\n(.*?)^```$", readme, flags=re.M | re.S)
        configs = {body.split()[0]: body for info, body in blocks
                   if not info and " = " in body.splitlines()[0]}
        assert sorted(configs) == ["mode", "sweep_axis"]  # the example and its sweep
        ExperimentConfig.from_file(write_cfg(tmp_path, configs["mode"])).validate()
        sweep = write_cfg(tmp_path, configs["mode"] + configs["sweep_axis"], name="sweep.cfg")
        ExperimentConfig.from_file(sweep).validate(need_sweep=True)


class TestSynthSolvePipeline:
    def test_completion_synth_is_reproducible(self, tmp_path):
        cfg = write_cfg(tmp_path, COMPLETION_CFG)
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        assert read_outputs(tmp_path / "a") == read_outputs(tmp_path / "b")
        assert set(read_outputs(tmp_path / "a")) == {"M.csv", "obs.csv"}

    def test_solve_from_synth_files(self, tmp_path):
        cfg = write_cfg(tmp_path, COMPLETION_CFG)
        main(["synth", "--config", cfg, "--out", str(tmp_path / "s")])
        solve_cfg = write_cfg(tmp_path, (
            "mode = complete\nsource = matrix\n"
            f"matrix_file = {tmp_path / 's' / 'M.csv'}\n"
            f"obs_file = {tmp_path / 's' / 'obs.csv'}\n"
            "alpha = 30\nbeta = 1\nrank_budget = 2\nseed = 5\n"
            "solver = pmlsvt\nmax_iter = 200\nstep_recip = 1e-3\nlambda = 0.01\n"),
            name="solve.cfg")
        assert main(["solve", "--config", solve_cfg, "--out", str(tmp_path / "r1")]) == 0
        assert main(["solve", "--config", solve_cfg, "--out", str(tmp_path / "r2")]) == 0
        out1 = read_outputs(tmp_path / "r1")
        out2 = read_outputs(tmp_path / "r2")
        assert out1 == out2
        assert set(out1) == {"Mhat.csv", "trace.csv", "metrics.txt"}
        Mhat = load_dense_csv(tmp_path / "r1" / "Mhat.csv")
        assert Mhat.shape == (8, 6) and Mhat.min() >= 1.0 and Mhat.max() <= 30.0
        metrics = (tmp_path / "r1" / "metrics.txt").read_text()
        for key in ("R=", "normalized_error=", "kl=", "hellinger=", "wall_time_s="):
            assert key in metrics

    @pytest.mark.parametrize("solver", ["proximal", "accelerated"])
    def test_fixed_step_solve_matches_the_library(self, tmp_path, solver):
        # observed cells alternate near alpha and beta, so the start lies
        # outside the rank-1 nuclear ball and each solver moves it its own way
        i, j = np.indices((8, 6))
        save_dense_csv(tmp_path / "M.csv", np.where((i + j) % 2 == 0, 29.0, 2.0))
        cfg = write_cfg(tmp_path, (
            f"mode = complete\nsource = matrix\nmatrix_file = {tmp_path / 'M.csv'}\n"
            "alpha = 30\nbeta = 1\nrank_budget = 1\np_obs = 0.75\nseed = 5\n"
            f"solver = {solver}\nmax_iter = 200\n"))
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
        trace = (tmp_path / "r" / "trace.csv").read_text().splitlines()
        assert len(trace) == 201
        assert all(row.split(",")[2] == repr(30.0 / 1.0**2) for row in trace[1:])
        fset = FeasibleSet(alpha=30.0, beta=1.0, rank_budget=1)
        obj = completion_objective(load_observations_csv(tmp_path / "s" / "obs.csv", (8, 6)),
                                   fset)
        X0 = default_init(obj, fset)
        assert np.linalg.svd(X0, compute_uv=False).sum() > fset.nuclear_radius(8, 6)
        runs = {name: run(obj, fset, X0, SolverConfig(max_iter=200))[0]
                for name, run in (("proximal", proximal_gradient),
                                  ("accelerated", accelerated_proximal_gradient))}
        save_dense_csv(tmp_path / "lib.csv", runs[solver])
        assert (tmp_path / "r" / "Mhat.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()
        assert np.abs(runs["proximal"] - runs["accelerated"]).max() > 1.0
        assert np.abs(runs[solver] - X0).max() > 1.0

    def test_recovery_config_rebuilds_the_stored_masks(self, tmp_path):
        base = f"y_file = {tmp_path / 'full' / 'y.csv'}\nlambda = 0.01\n"
        cfg_bin = recovery_file_cfg(
            tmp_path, base + f"ensemble_file = {tmp_path / 'full' / 'ensemble.bin'}\n",
            name="bin.cfg")
        assert set(os.listdir(tmp_path / "full")) == {"M.csv", "y.csv", "ensemble.bin"}
        # the config's m, p and seed rebuild the masks the synth stored
        cfg_seed = recovery_file_cfg(tmp_path, base + "m = 40\np = 0.5\n", name="seed.cfg")
        assert main(["solve", "--config", cfg_bin, "--out", str(tmp_path / "rb")]) == 0
        assert main(["solve", "--config", cfg_seed, "--out", str(tmp_path / "rs")]) == 0
        assert (tmp_path / "rb" / "Mhat.csv").read_bytes() == \
            (tmp_path / "rs" / "Mhat.csv").read_bytes()

    def test_recovery_alpha_below_the_entry_floor_solves(self, tmp_path):
        # entry_floor/m = 5e-8 is not below alpha, so beta falls back to alpha * 1e-9
        matrix_file = tmp_path / "M.csv"
        matrix_file.write_text("5,5,5\n5,5,4\n5,5,5\n")
        cfg = write_cfg(tmp_path, (
            f"mode = recover\nsource = matrix\nmatrix_file = {matrix_file}\n"
            "alpha = 1e-9\nentry_floor = 1e-6\nm = 20\np = 0.5\nmax_iter = 50\n"))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
        ec = ExperimentConfig.from_file(cfg)
        ec.validate()
        M, mask = plr.cli.build_ground_truth(ec)
        Mhat, _, fset = plr.cli.run_single_solve(ec, M, mask, ec.obs_seed)
        assert (fset.alpha, fset.beta, fset.total_intensity) == (1e-9, 1e-9 * 1e-9, 44.0)
        assert np.array_equal(load_dense_csv(tmp_path / "r" / "Mhat.csv"), Mhat)

    def test_image_source_completion(self, tmp_path, data_dir):
        cfg = write_cfg(tmp_path, (
            "mode = complete\nsource = image\n"
            f"image_file = {data_dir}/phantom16.pgm\n"
            "patch_h = 4\npatch_w = 4\ntrunc_rank = 3\n"
            "alpha = 255\nbeta = 1\np_obs = 0.8\nseed = 3\n"
            "solver = pmlsvt\nmax_iter = 100\nstep_recip = 1e-3\nlambda = 0.1\n"))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "img")]) == 0
        Mhat = load_dense_csv(tmp_path / "img" / "Mhat.csv")
        assert Mhat.shape == (16, 16)

    def test_full_observation_synth_has_all_rows(self, tmp_path):
        cfg = write_cfg(tmp_path, COMPLETION_CFG.replace("p_obs = 0.75\n", "p_obs = 1.0\n"))
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "full")]) == 0
        rows = (tmp_path / "full" / "obs.csv").read_text().splitlines()
        assert len(rows) == 1 + 8 * 6  # header + every entry

    def test_image_synth_matches_patch_dims(self, tmp_path, data_dir):
        cfg = write_cfg(tmp_path, (
            "mode = complete\nsource = image\n"
            f"image_file = {data_dir}/solar48.pgm\n"
            "patch_h = 8\npatch_w = 8\ntrunc_rank = 10\n"
            "alpha = 200\nbeta = 1\np_obs = 0.5\nseed = 2\n"))
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "img")]) == 0
        M = load_dense_csv(tmp_path / "img" / "M.csv")
        assert M.shape == (64, 36)

    def test_counts_source_reports_observed_fit(self, tmp_path):
        cfg = write_cfg(tmp_path, BIKE_CFG)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "bike")]) == 0
        metrics = (tmp_path / "bike" / "metrics.txt").read_text()
        assert "R_observed=" in metrics and "kl=nan" in metrics


class TestSweep:
    def test_sweep_csv_sorted_and_thread_invariant(self, tmp_path):
        cfg = write_cfg(tmp_path, COMPLETION_CFG.replace("p_obs = 0.75\n", "") + (
            "sweep_axis = p_obs\nsweep_values = 0.9,0.6\ntrials = 2\n"))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s1"),
                     "--threads", "1"]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s2"),
                     "--threads", "2"]) == 0
        text = (tmp_path / "s1" / "sweep.csv").read_text().splitlines()
        assert text[0] == "value,mean,std"
        rows = [[float(field) for field in line.split(",")] for line in text[1:]]
        assert all(len(row) == 3 for row in rows)
        values = [row[0] for row in rows]
        assert values == sorted(values) and len(values) == 2
        assert (tmp_path / "s1" / "sweep.csv").read_bytes() == \
            (tmp_path / "s2" / "sweep.csv").read_bytes()

    def test_sweep_requires_axis(self, tmp_path):
        cfg = write_cfg(tmp_path, COMPLETION_CFG)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_lambda_sweep_runs(self, tmp_path):
        cfg = write_cfg(tmp_path, COMPLETION_CFG.replace("lambda = 0.01\n", "") + (
            "sweep_axis = lambda\nsweep_values = 0.01,1.0\ntrials = 1\n"))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "lam")]) == 0


class TestFixedCountSweep:
    def test_y_file_lambda_sweep_row_equals_the_solve(self, tmp_path):
        # masks drawn from m, p and obs_seed, as the synth that wrote y.csv drew them
        y_file = f"y_file = {tmp_path / 'full' / 'y.csv'}\nm = 40\np = 0.5\n"
        cfg = recovery_file_cfg(tmp_path, y_file + "lambda = 0.01\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
        metrics = (tmp_path / "r" / "metrics.txt").read_text()
        err = re.search(r"^normalized_error=(.*)$", metrics, flags=re.M).group(1)
        cfg = recovery_file_cfg(tmp_path, y_file +
                                "sweep_axis = lambda\nsweep_values = 0.01\ntrials = 1\n",
                                name="sweep.cfg")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
        assert (tmp_path / "s" / "sweep.csv").read_text() == f"value,mean,std\n0.01,{err},0.0\n"

    @pytest.mark.parametrize("base,lines,message", [
        (RECOVERY_CFG, f"y_file = {__file__}\nsweep_axis = lambda\nsweep_values = 0.01\n"
         "trials = 4\n", "may sweep only lambda, with trials = 1"),
        (RECOVERY_CFG, f"y_file = {__file__}\nsweep_axis = rho\nsweep_values = 1,2\n"
         "trials = 1\n", "may sweep only lambda, with trials = 1"),
        (COMPLETION_CFG.replace("p_obs = 0.75\n", ""), f"obs_file = {__file__}\nsweep_axis = rho\n"
         "sweep_values = 1,2\ntrials = 1\n", "may sweep only lambda, with trials = 1"),
        (COMPLETION_CFG.replace("p_obs = 0.75\n", ""), f"obs_file = {__file__}\nsweep_axis = m\n"
         "sweep_values = 10,20\ntrials = 1\n", "may sweep only lambda, with trials = 1"),
        (RECOVERY_CFG.replace("m = 40\n", ""), f"ensemble_file = {__file__}\nsweep_axis = m\n"
         "sweep_values = 30,40\ntrials = 2\n", "ensemble_file never reads config key 'm'"),
        (RECOVERY_CFG.replace("m = 40\n", "").replace("p = 0.5\n", "p = 0.9\n"),
         f"ensemble_file = {__file__}\nsweep_axis = lambda\nsweep_values = 0.01,0.1\n"
         "trials = 1\n", "ensemble_file never reads config key 'p'")],
        ids=["y_file_trials", "y_file_rho", "obs_file_rho", "obs_file_m", "ensemble_file_m",
             "ensemble_file_p"])
    def test_sweep_the_files_do_not_describe_exits_2(self, tmp_path, capsys, base, lines,
                                                     message):
        cfg = write_cfg(tmp_path, base + lines)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "s").exists()


COMPLETION_SWEEPS = {
    # axis: (fixed key it replaces, sweep values)
    "p_obs": ("p_obs", "0.5,0.9"),
    "lambda": ("lambda", "0.01,0.1"),
    "rho": ("rho", "1,2"),
}


@pytest.mark.parametrize("axis", sorted(COMPLETION_SWEEPS))
def test_completion_sweep_matches_point_by_point(tmp_path, axis):
    fixed, values = COMPLETION_SWEEPS[axis]
    base = COMPLETION_CFG.replace("max_iter = 200", "max_iter = 30")
    base = re.sub(rf"^{fixed} = .*\n", "", base, flags=re.M)
    sweep = f"sweep_axis = {axis}\nsweep_values = {values}\ntrials = 2\n"
    cfg = write_cfg(tmp_path, base + sweep)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s"),
                 "--threads", "2"]) == 0
    got = (tmp_path / "s" / "sweep.csv").read_text()
    assert got == unshared_sweep_csv(cfg)


def counting(monkeypatch, name):
    """Replace plr.cli.<name> by a wrapper that records one entry per call."""
    calls = []
    original = getattr(plr.cli, name)

    def wrapper(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(plr.cli, name, wrapper)
    return calls


def unshared_sweep_csv(cfg):
    """sweep.csv text computed point by point, every input built per point."""
    ec = ExperimentConfig.from_file(cfg)
    ec.validate(need_sweep=True)
    lines = ["value,mean,std"]
    for value in sorted(ec.sweep_values):
        field = {"rho": "rho", "m": "m", "lambda": "penalty", "p_obs": "p_obs"}[ec.sweep_axis]
        pc = dataclasses.replace(ec, **{field: value})
        errs = []
        for trial in range(ec.trials):
            M, mask = plr.cli.build_ground_truth(pc)
            Mhat, _, fset = plr.cli.run_single_solve(pc, M, mask, pc.obs_seed + trial)
            errs.append(plr.cli.normalized_error(pc, M, Mhat, fset))
        errs = np.array(errs)
        lines.append(f"{value!r},{float(errs.mean())!r},{float(errs.std(ddof=0))!r}")
    return "\n".join(lines) + "\n"


SHARING_CASES = {
    # axis: (fixed key it replaces, sweep keys, ground-truth builds, ensemble builds)
    "rho": ("", "sweep_axis = rho\nsweep_values = 2,1\ntrials = 2\n", 2, 2),
    "lambda": ("lambda = 0.01\n", "sweep_axis = lambda\nsweep_values = 0.01,0.1\ntrials = 3\n",
               1, 3),
    "m": ("m = 40\n", "sweep_axis = m\nsweep_values = 30,40,50\ntrials = 2\n", 1, 6),
}


class TestSweepSharing:
    @pytest.mark.parametrize("axis", sorted(SHARING_CASES))
    def test_builds_each_shared_input_once(self, tmp_path, monkeypatch, axis):
        fixed, lines, truth_builds, ensemble_builds = SHARING_CASES[axis]
        base = RECOVERY_CFG.replace("max_iter = 150", "max_iter = 30").replace(fixed, "")
        cfg = write_cfg(tmp_path, base + lines)
        want = unshared_sweep_csv(cfg)
        truths = counting(monkeypatch, "build_ground_truth")
        ensembles = counting(monkeypatch, "build_sensing_ensemble")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
        assert len(truths) == truth_builds
        assert len(ensembles) == ensemble_builds
        assert (tmp_path / "s" / "sweep.csv").read_text() == want

    @pytest.mark.parametrize("source,reader", [("image", "read_pgm"),
                                               ("synthetic", "gen_exact_low_rank")])
    def test_reads_the_source_once(self, tmp_path, monkeypatch, data_dir, source, reader):
        if source == "image":  # recovery: each truth is rescaled to rho * total_intensity
            text = ("mode = recover\nsource = image\n"
                    f"image_file = {data_dir}/phantom16.pgm\n"
                    "patch_h = 4\npatch_w = 4\ntrunc_rank = 3\ntotal_intensity = 1e4\n"
                    "m = 40\np = 0.5\nseed = 3\nmax_iter = 5\nlambda = 0.01\n")
        else:  # completion: each truth is clamped into the box
            text = COMPLETION_CFG.replace("max_iter = 200", "max_iter = 5")
        cfg = write_cfg(tmp_path, text + "sweep_axis = rho\nsweep_values = 8,1,4,2\ntrials = 1\n")
        ec = ExperimentConfig.from_file(cfg)
        want = {rho: plr.cli.build_ground_truth(ec, rho)[0].tobytes() for rho in (1, 2, 4, 8)}
        reads = counting(monkeypatch, reader)
        got = {}
        original = plr.cli.run_single_solve

        def recording_solve(ec, M, mask, seed, ensemble=None):
            got[ec.rho] = M.tobytes()
            return original(ec, M, mask, seed, ensemble=ensemble)

        monkeypatch.setattr(plr.cli, "run_single_solve", recording_solve)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s"),
                     "--threads", "2"]) == 0
        assert len(reads) == 1
        assert got == want

    @pytest.mark.parametrize("mode,axis", [("recovery", axis) for axis in sorted(SHARING_CASES)] +
                             [("completion", axis) for axis in sorted(COMPLETION_SWEEPS)])
    def test_where_points_run(self, tmp_path, monkeypatch, mode, axis):
        if mode == "recovery":
            fixed, lines = SHARING_CASES[axis][:2]
            text = RECOVERY_CFG.replace("max_iter = 150", "max_iter = 10").replace(fixed, "")
        else:
            fixed, values = COMPLETION_SWEEPS[axis]
            text = re.sub(rf"^{fixed} = .*\n", "",
                          COMPLETION_CFG.replace("max_iter = 200", "max_iter = 10"), flags=re.M)
            lines = f"sweep_axis = {axis}\nsweep_values = {values}\ntrials = 2\n"
        cfg = write_cfg(tmp_path, text + lines)
        threads = []
        original = plr.cli.run_single_solve

        def recording_solve(*args, **kwargs):
            threads.append(threading.current_thread())
            return original(*args, **kwargs)

        monkeypatch.setattr(plr.cli, "run_single_solve", recording_solve)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s"),
                     "--threads", "2"]) == 0
        assert len(threads) >= 4
        # every sweep runs its points on the calling thread, at any --threads
        assert all(thread is threading.main_thread() for thread in threads)

    def test_fixed_ensemble_file_is_read_once(self, tmp_path, monkeypatch):
        cfg = recovery_file_cfg(tmp_path, (
            f"ensemble_file = {tmp_path / 'full' / 'ensemble.bin'}\n"
            "sweep_axis = lambda\nsweep_values = 0.01,0.1\ntrials = 2\n"))
        loads = counting(monkeypatch, "load_ensemble")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
        assert len(loads) == 1

    def test_holds_only_the_mask_sets_of_trials_in_flight(self, tmp_path, monkeypatch):
        refs, alive = [], []
        original = plr.cli.build_sensing_ensemble

        def tracking(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in refs))
            ensemble = original(*args, **kwargs)
            refs.append(weakref.ref(ensemble.packed))
            return ensemble

        monkeypatch.setattr(plr.cli, "build_sensing_ensemble", tracking)
        cfg = write_cfg(tmp_path, RECOVERY_CFG.replace("max_iter = 150", "max_iter = 10") +
                        "sweep_axis = rho\nsweep_values = 1,2,3\ntrials = 5\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
        assert len(refs) == 5
        # a trial's mask set is dropped before the next trial's is built
        assert max(alive) == 0

    def test_trial_points_share_one_read_only_ensemble_unpacked_once(self, tmp_path, monkeypatch):
        seen, unpacks, events = [], [], []
        original_solve = plr.cli.run_single_solve
        original_unpack = SensingEnsemble.indicator_matrix
        original_draw = plr.cli.sample_compressive_counts

        def counting_unpack(ensemble):
            if ensemble._dense is None:  # later calls return the cached matrix
                unpacks.append((ensemble, threading.current_thread()))
                events.append(("unpack", ensemble))
            return original_unpack(ensemble)

        def recording_draw(ensemble, M, seed):
            events.append(("draw", ensemble))
            return original_draw(ensemble, M, seed)

        def checking_solve(ec, M, mask, seed, ensemble=None, **kwargs):
            seen.append((seed, ensemble))
            result = original_solve(ec, M, mask, seed, ensemble=ensemble, **kwargs)
            # checked after the solve, so the check is not what unpacks the masks
            for array in (M, ensemble.packed, ensemble.indicator_matrix()):
                with pytest.raises(ValueError, match="read-only"):
                    array.flat[0] = 0
            return result

        monkeypatch.setattr(SensingEnsemble, "indicator_matrix", counting_unpack)
        monkeypatch.setattr(plr.cli, "run_single_solve", checking_solve)
        monkeypatch.setattr(plr.cli, "sample_compressive_counts", recording_draw)
        cfg = write_cfg(tmp_path, RECOVERY_CFG.replace("max_iter = 150", "max_iter = 10") +
                        "sweep_axis = rho\nsweep_values = 1,2,3\ntrials = 2\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
        by_trial = {}
        for seed, ensemble in seen:
            by_trial.setdefault(seed, []).append(ensemble)
        assert sorted(len(points) for points in by_trial.values()) == [3, 3]
        for points in by_trial.values():
            assert all(ensemble is points[0] for ensemble in points)
        # each trial's masks are unpacked once, by the thread running the sweep
        assert len(unpacks) == 2
        for (unpacked, thread), points in zip(unpacks, by_trial.values()):
            assert unpacked is points[0] and thread is threading.main_thread()
            # the sweep unpacks the masks before the trial's first count draw
            mine = [kind for kind, ensemble in events if ensemble is unpacked]
            assert mine == ["unpack"] + ["draw"] * 3


class TestErrorPaths:
    def test_bad_config_exits_nonzero(self, tmp_path):
        cfg = write_cfg(tmp_path, "mode = complete\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("line", ["lamda = 0.5", "penalty = 0.1",
                                      "ensemble_meta = ensemble.meta", "poissonize = true",
                                      "stop_on_objective_delta = true"])
    def test_unknown_key_exits_2(self, tmp_path, capsys, line):
        cfg = write_cfg(tmp_path, COMPLETION_CFG + line + "\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert f"unknown config key '{line.split()[0]}'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key", sorted(plr.cli._CHOICES))
    def test_unknown_choice_exits_2(self, tmp_path, capsys, key):
        text = re.sub(rf"^{key} = .*\n", "", COMPLETION_CFG, flags=re.M)
        cfg = write_cfg(tmp_path, text + f"{key} = Bogus\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert f"{key} must be one of {plr.cli._CHOICES[key]}, got 'bogus'" in \
            capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    # every float key and sweep value must be finite, as well as a number
    @pytest.mark.parametrize("key,value", [
        ("d1", "2.5"), ("sweep_values", "1,x"), ("lambda", "big"),
        ("sweep_values", "1,nan"), ("sweep_values", "1,inf"), ("sweep_values", "-inf,1"),
        *[(plr.cli._FIELD_KEYS.get(name, name), token)
          for name, t in typing.get_type_hints(ExperimentConfig).items() if t is float
          for token in ("nan", "inf", "-inf")]])
    def test_bad_value_exits_2_naming_its_key(self, tmp_path, capsys, key, value):
        text = re.sub(rf"^{key} = .*\n", "", COMPLETION_CFG, flags=re.M)
        cfg = write_cfg(tmp_path, text + f"{key} = {value}\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"config key '{key}': " in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_recovery_rejects_p_obs_sweep(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, RECOVERY_CFG + (
            "sweep_axis = p_obs\nsweep_values = 0.3,0.5\ntrials = 1\n"))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
        # the sweep point sets p_obs, which recovery never reads
        assert "recovery never reads config key 'p_obs'" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_repeated_sweep_value_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, COMPLETION_CFG + (
            "sweep_axis = rho\nsweep_values = 1,2,1\ntrials = 1\n"))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
        assert "sweep_values lists 1.0 more than once" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("command,lines,bad", [
        ("synth", "m = 40.7\n", "40.7"),
        ("sweep", "sweep_axis = m\nsweep_values = 30,40.5\ntrials = 1\n", "40.5")],
        ids=["config_m", "sweep_value"])
    def test_fractional_recovery_m_exits_2(self, tmp_path, capsys, command, lines, bad):
        cfg = write_cfg(tmp_path, RECOVERY_CFG.replace("m = 40\n", "") + lines)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert f"recovery m must be a whole number, got {bad}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command,base,lines,message", [
        ("solve", COMPLETION_CFG.replace("p_obs = 0.75\n", ""), "p_obs = 1.5\n",
         "config key 'p_obs' must lie in (0, 1], got 1.5"),
        ("solve", COMPLETION_CFG, "m = 0\n", "completion never reads config key 'm'"),
        ("solve", RECOVERY_CFG, "m = 0\n", "config key 'm' must be positive, got 0.0"),
        ("solve", COMPLETION_CFG, "max_iter = 0\n",
         "config key 'max_iter': max_iter must be >= 1, got 0"),
        ("solve", COMPLETION_CFG, "step_scale = 0.5\n",
         "config key 'step_scale': step_scale must exceed 1 and be finite, got 0.5"),
        ("solve", COMPLETION_CFG, "step_recip = -1\n",
         "config key 'step_recip': step_recip must be positive and finite, got -1.0"),
        ("synth", RECOVERY_CFG, "p = 1.5\n", "config key 'p' must lie in (0, 1), got 1.5"),
        ("solve", COMPLETION_CFG, "rho = -1\n", "config key 'rho' must be positive, got -1.0"),
        ("solve", COMPLETION_CFG, "rank_budget = 0\n",
         "config key 'rank_budget' must be >= 1, got 0"),
        ("solve", COMPLETION_CFG, "beta = 40\n",
         "config key 'beta' must lie below alpha = 30.0, got 40.0"),
        ("solve", COMPLETION_CFG, "seed = -1\n", "config key 'seed' must be >= 0, got -1"),
        ("solve", RECOVERY_CFG.replace("m = 40\n", ""), "", "recovery requires m or ensemble_file"),
        ("sweep", COMPLETION_CFG, "sweep_axis = lambda\nsweep_values = 0.1,-1\ntrials = 1\n",
         "config key 'lambda': penalty must be nonnegative and finite, got -1.0"),
        ("sweep", COMPLETION_CFG.replace("p_obs = 0.75\n", ""),
         "sweep_axis = p_obs\nsweep_values = 0.5,1.5\ntrials = 1\n",
         "config key 'p_obs' must lie in (0, 1], got 1.5"),
        ("sweep", RECOVERY_CFG.replace("m = 40\n", ""),
         "sweep_axis = m\nsweep_values = 0,40\ntrials = 1\n",
         "config key 'm' must be positive, got 0.0"),
        ("solve", BIKE_CFG, "rho = 0.5\n",
         "config key 'rho' must be 1 for completion from a counts file, whose counts are "
         "the observations; got 0.5"),
        ("sweep", BIKE_CFG, "sweep_axis = rho\nsweep_values = 1,2\ntrials = 1\n",
         "config key 'rho' must be 1 for completion from a counts file, whose counts are "
         "the observations; got 2.0"),
        ("sweep", COMPLETION_CFG, "sweep_axis = m\nsweep_values = 20,40\ntrials = 2\n",
         "completion never reads config key 'm'"),
        ("solve", COMPLETION_CFG, "lambda =\n", "line 15: empty key or value"),
        ("sweep", COMPLETION_CFG, "sweep_axis = trials\nsweep_values = 1,2\ntrials = 1\n",
         "sweep_axis must be one of ('rho', 'm', 'lambda', 'p_obs')"),
        ("sweep", COMPLETION_CFG, "sweep_axis = rho\nsweep_values = ,\ntrials = 1\n",
         "sweep requires a non-empty sweep_values list")],
        ids=["p_obs", "completion_m", "recovery_m", "max_iter", "step_scale", "step_recip", "p",
             "rho", "rank_budget", "beta", "seed", "no_m", "lambda_sweep", "p_obs_sweep",
             "m_sweep", "counts_rho", "counts_rho_sweep", "m_sweep_over_p_obs", "empty_value",
             "unknown_axis", "no_sweep_values"])
    def test_value_the_config_rules_out_exits_2_before_any_work(
            self, tmp_path, capsys, command, base, lines, message):
        for key in re.findall(r"^(\w+) =", lines, flags=re.M):
            base = re.sub(rf"^{key} = .*\n", "", base, flags=re.M)
        cfg = write_cfg(tmp_path, base + lines)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["synth", "solve"])
    def test_threads_is_a_sweep_only_flag(self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path, COMPLETION_CFG)
        with pytest.raises(SystemExit) as info:
            main([command, "--config", cfg, "--out", str(tmp_path / "x"), "--threads", "2"])
        assert info.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @staticmethod
    def _main_in_2_gb(*argv):
        """``plr.cli.main(argv)`` in a child process with a 2 GB address space."""
        code = ("import resource, sys\n"
                "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
                "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, hard))\n"
                "from plr.cli import main\n"
                "sys.exit(main(sys.argv[1:]))\n")
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(plr.__file__)))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       p for p in (package_root, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", code, *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        return proc.stderr

    def test_count_file_beyond_memory_exits_2_naming_it(self, tmp_path):
        counts = tmp_path / "counts.csv"
        counts.write_text("2000000,2000000,1\n")
        cfg = write_cfg(tmp_path, (
            f"mode = complete\nsource = counts\ncounts_file = {counts}\n"
            "alpha = 10\nbeta = 1\np_obs = 0.5\n"))
        # a 2 GB address space cannot hold the 2000000 x 2000000 matrix
        err = self._main_in_2_gb("solve", "--config", cfg, "--out", str(tmp_path / "x"))
        assert f"{counts}: the 2000000 x 2000000 hours-by-days matrix is too big to allocate" in err

    def test_masks_beyond_memory_exit_2(self, tmp_path):
        # 10**12 masks of 30 entries: the draw alone would take 218 TiB
        cfg = write_cfg(tmp_path, RECOVERY_CFG.replace("m = 40\n", "m = 1e12\n"))
        err = self._main_in_2_gb("synth", "--config", cfg, "--out", str(tmp_path / "x"))
        assert err.startswith("plr synth: error: Unable to allocate")

    @pytest.mark.parametrize("m,p,body,message", [
        (0, 0.5, b"", "m must be >= 1, got 0"),
        (1, float("nan"), b"\x00" * 4, "p must lie in (0, 1), got nan")],
        ids=["m_0", "p_nan"])
    def test_rejected_ensemble_file_exits_2(self, tmp_path, capsys, m, p, body, message):
        ensemble = tmp_path / "hand.bin"
        ensemble.write_bytes(struct.pack("<QQQdQ", 6, 5, m, p, 1) + body)
        cfg = recovery_file_cfg(tmp_path, f"ensemble_file = {ensemble}\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"{ensemble}: {message}" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def _file_ensemble_cfg(self, tmp_path, lines):
        """recovery_file_cfg with masks read from its 40-mask, p = 0.5
        ensemble.bin, plus ``lines``."""
        return recovery_file_cfg(
            tmp_path, f"ensemble_file = {tmp_path / 'full' / 'ensemble.bin'}\n" + lines)

    # the file fixes the masks' m and p, so the config may not set them, not
    # even to the file's own values (p's default 0.5 counts as unset)
    @pytest.mark.parametrize("lines,key", [
        ("m = 999\n", "m"), ("p = 0.9\n", "p"), ("m = 40\np = 0.5\n", "m")],
        ids=["m", "p", "agrees"])
    def test_ensemble_file_contradicting_the_config_exits_2(self, tmp_path, capsys, lines, key):
        cfg = self._file_ensemble_cfg(tmp_path, lines)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"ensemble_file never reads config key '{key}'" in err
        assert "Traceback" not in err and not (tmp_path / "x").exists()

    def test_sweep_on_an_ensemble_file_contradicting_the_config_exits_2(self, tmp_path, capsys):
        cfg = self._file_ensemble_cfg(
            tmp_path, "m = 999\nsweep_axis = lambda\nsweep_values = 0.01,0.1\ntrials = 1\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
        err = capsys.readouterr().err
        assert "ensemble_file never reads config key 'm'" in err
        assert "Traceback" not in err and not (tmp_path / "s").exists()

    def test_ensemble_file_of_another_shape_exits_2(self, tmp_path, capsys):
        cfg = self._file_ensemble_cfg(tmp_path, "")  # 6x5 masks
        matrix_file = tmp_path / "wide.csv"
        save_dense_csv(matrix_file, np.full((8, 6), 5.0))
        text = open(cfg).read().replace(str(tmp_path / "full" / "M.csv"), str(matrix_file))
        cfg = write_cfg(tmp_path, text, name="wide.cfg")
        for command in ("synth", "solve"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
            err = capsys.readouterr().err
            assert "ensemble shape (6, 5) != matrix (8, 6)" in err and "Traceback" not in err
            assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("edit,message", [
        (lambda lines: lines[:2] + ["2.5"] + lines[3:],
         "y.csv: line 3: invalid literal for int() with base 10: '2.5'"),
        (lambda lines: lines[:2] + ["-4"] + lines[3:], "y.csv: line 3: count -4 outside"),
        (lambda lines: lines[:-1], "y.csv: 39 counts, but the ensemble has m=40")],
        ids=["fractional", "negative", "short"])
    def test_bad_y_file_exits_2_naming_its_line(self, tmp_path, capsys, edit, message):
        y_file = tmp_path / "full" / "y.csv"
        cfg = self._file_ensemble_cfg(tmp_path, f"y_file = {y_file}\n")
        y_file.write_text("\n".join(edit(y_file.read_text().splitlines())) + "\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'full'}{os.sep}{message}" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_missing_config_file(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "none.cfg"),
                     "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("solver", ["proximal", "accelerated"])
    def test_recovery_rejects_fixed_step_solvers(self, tmp_path, capsys, solver):
        cfg = write_cfg(tmp_path, RECOVERY_CFG.replace("solver = pmlsvt", f"solver = {solver}"))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert "solver = pmlsvt" in capsys.readouterr().err

    @pytest.mark.parametrize("solver", ["proximal", "accelerated"])
    def test_lambda_sweep_rejects_fixed_step_solvers(self, tmp_path, capsys, solver):
        # only the sweep points set lambda
        cfg = write_cfg(tmp_path, fixed_step_cfg(solver) +
                        "sweep_axis = lambda\nsweep_values = 0.001,0.1\ntrials = 1\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
        assert f"{solver} never reads config key 'lambda'" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("mode,key", [
        ("recovery", "p_obs"), ("recovery", "obs_file"),
        ("completion", "p"), ("completion", "total_intensity"), ("completion", "entry_floor"),
        ("completion", "y_file"), ("completion", "ensemble_file")])
    def test_key_the_mode_never_reads_exits_2(self, tmp_path, capsys, mode, key):
        base = RECOVERY_CFG if mode == "recovery" else COMPLETION_CFG
        # p's 0.5 is its default, which counts as unset
        value = {"p": "0.9", "p_obs": "0.5", "total_intensity": "0.5", "entry_floor": "0.5"}.get(
            key, __file__)  # an existing file
        cfg = write_cfg(tmp_path, base + f"{key} = {value}\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert f"{mode} never reads config key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("solver,key,value", [
        ("pmlsvt", "tol", "5"),
        ("proximal", "lambda", "5"), ("proximal", "step_recip", "1e3"),
        ("proximal", "step_scale", "3"),
        ("accelerated", "lambda", "5"), ("accelerated", "step_recip", "1e3"),
        ("accelerated", "step_scale", "3")])
    def test_key_the_solver_never_reads_exits_2(self, tmp_path, capsys, solver, key, value):
        cfg = write_cfg(tmp_path, fixed_step_cfg(solver) + f"{key} = {value}\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert f"{solver} never reads config key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command,base,line,owner,key", [
        ("solve", COMPLETION_CFG.replace("p_obs = 0.75\n", "m = 36\n"),
         f"obs_file = {__file__}\n", "completion", "m"),
        ("solve", COMPLETION_CFG, f"obs_file = {__file__}\n", "obs_file", "p_obs"),
        ("solve", COMPLETION_CFG, "m = 36\n", "completion", "m"),
        ("synth", RECOVERY_CFG, f"ensemble_file = {__file__}\n", "ensemble_file", "m"),
        ("synth", RECOVERY_CFG.replace("m = 40\n", "").replace("p = 0.5\n", "p = 0.9\n"),
         f"ensemble_file = {__file__}\n", "ensemble_file", "p"),
        ("synth", COMPLETION_CFG, "trials = 3\n", "a single experiment", "trials"),
        ("solve", COMPLETION_CFG, "trials = 3\n", "a single experiment", "trials"),
        ("synth", COMPLETION_CFG, "sweep_values = 1,2\n", "a single experiment", "sweep_values"),
        ("solve", COMPLETION_CFG, "sweep_values = 1,2\n", "a single experiment", "sweep_values"),
        *[("solve", base, f"{key} = {__file__ if key.endswith('_file') else 4}\n", source, key)
          for source, base, keys in SOURCE_UNREAD for key in keys]],
        ids=["obs_file_m", "obs_file_p_obs", "p_obs_m", "synth_ensemble_file_m",
             "synth_ensemble_file_p", "synth_trials", "solve_trials", "synth_values",
             "solve_values",
             *[f"{source}_{key}" for source, _, keys in SOURCE_UNREAD for key in keys]])
    def test_key_a_single_run_never_reads_exits_2(self, tmp_path, capsys, command, base, line,
                                                  owner, key):
        cfg = write_cfg(tmp_path, base + line)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert f"{owner} never reads config key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_sweep_solver_abort_exits_3(self, tmp_path, capsys, monkeypatch):
        def aborting_pmlsvt(obj, fset, X0=None, config=None):
            raise SolverAbort("backtracking diverged", None, SolverTrace())

        monkeypatch.setattr(plr.cli, "pmlsvt", aborting_pmlsvt)
        cfg = write_cfg(tmp_path, RECOVERY_CFG.replace("m = 40\n", "") + (
            "sweep_axis = m\nsweep_values = 30,40\ntrials = 2\n"))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 3
        err = capsys.readouterr().err
        assert "plr sweep: aborted at value=30.0, trial=0: backtracking diverged" in err
        assert "Traceback" not in err
        assert not (tmp_path / "s").exists()

    def test_solve_abort_writes_partial_trace_and_exits_3(self, tmp_path, capsys, monkeypatch):
        def aborting_pmlsvt(obj, fset, X0=None, config=None):
            trace = SolverTrace()
            trace.record(1.5, 2.0)
            raise SolverAbort("backtracking diverged", None, trace)

        monkeypatch.setattr(plr.cli, "pmlsvt", aborting_pmlsvt)
        cfg = write_cfg(tmp_path, COMPLETION_CFG)
        out = tmp_path / "x"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "plr solve: aborted: backtracking diverged" in err
        assert "Traceback" not in err
        assert (out / "trace.csv").read_text() == "iter,objective,t\n1,1.5,2.0\n"
        assert os.listdir(out) == ["trace.csv"]

    # p_obs alone sizes a completion sample, so m exits 2 before any data is
    # read, even where it exceeds the 192 cells of the 24x8 matrix
    @pytest.mark.parametrize("source,reader", [("counts", "load_count_csv"),
                                               ("matrix", "load_dense_csv")],
                             ids=["counts", "matrix"])
    def test_completion_m_exits_2_before_the_source_is_read(self, tmp_path, capsys, monkeypatch,
                                                            source, reader):
        text = BIKE_CFG.replace("p_obs = 0.5\n", "m = 5000\n")
        if source == "matrix":
            matrix_file = tmp_path / "bike.csv"
            save_dense_csv(matrix_file, np.full((24, 8), 5.0))
            text = text.replace("source = counts\n", "source = matrix\n").replace(
                f"counts_file = {DATA}/bike_toy.csv", f"matrix_file = {matrix_file}")
        reads = counting(monkeypatch, reader)
        for command, lines in (("synth", ""), ("solve", ""), ("sweep", (
                "sweep_axis = lambda\nsweep_values = 1,10\ntrials = 1\n"))):
            cfg = write_cfg(tmp_path, text + lines)
            assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
            assert "completion never reads config key 'm'" in capsys.readouterr().err
            assert not (tmp_path / "x").exists()
        assert reads == []

    @pytest.mark.parametrize("command", ["synth", "solve"])
    @pytest.mark.parametrize("base,key,text,message", [
        (MATRIX_CFG, "matrix_file", "", "empty matrix file"),
        (MATRIX_CFG, "matrix_file", "1,2\n3\n", "line 2: expected 2 columns, got 1"),
        (IMAGE_CFG, "image_file", "P2\n4\n", "truncated PGM header"),
        (BIKE_CFG, "counts_file", "hour,day,count\n", "no count rows")],
        ids=["empty_matrix", "ragged_matrix", "truncated_pgm", "header_only_counts"])
    def test_unreadable_source_file_exits_2(self, tmp_path, capsys, command, base, key, text,
                                           message):
        source = tmp_path / "source.txt"
        source.write_text(text)
        cfg = write_cfg(tmp_path, re.sub(rf"^{key} = .*$", f"{key} = {source}", base,
                                         flags=re.M))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"{source}: {message}" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    # with a y_file the counts are read, not drawn, yet the truth is checked
    @pytest.mark.parametrize("command,y_file", [("synth", False), ("solve", False),
                                                ("solve", True)],
                             ids=["synth", "solve", "solve_y_file"])
    def test_negative_recovery_intensity_exits_2(self, tmp_path, capsys, command, y_file):
        matrix_file = tmp_path / "M.csv"
        matrix_file.write_text("5,5,5\n5,5,-4\n5,5,5\n")
        text = f"mode = recover\nsource = matrix\nmatrix_file = {matrix_file}\nm = 20\np = 0.5\n"
        if y_file:
            (tmp_path / "y.csv").write_text("3\n" * 20)
            text += f"y_file = {tmp_path / 'y.csv'}\n"
        cfg = write_cfg(tmp_path, text)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"plr {command}: error: intensity matrix must be nonnegative" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_nonpositive_threads_exits_2(self, tmp_path, capsys, threads):
        cfg = write_cfg(tmp_path, COMPLETION_CFG.replace("p_obs = 0.75\n", "") + (
            "sweep_axis = p_obs\nsweep_values = 0.8\ntrials = 1\n"))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x"),
                     "--threads", threads]) == 2
        assert f"--threads must be a positive integer, got {threads}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flag", [["--threads", "0"]], ids=["flag"])
    def test_bad_threads_exit_2_on_a_recovery_sweep(self, tmp_path, capsys, flag):
        # no sweep reads the thread count, but every sweep validates it
        cfg = write_cfg(tmp_path, RECOVERY_CFG + "sweep_axis = rho\nsweep_values = 1\ntrials = 1\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x"), *flag]) == 2
        assert "--threads must be a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_sweep_ignores_the_environment_for_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PLR_THREADS", "abc")
        cfg = write_cfg(tmp_path, COMPLETION_CFG.replace("p_obs = 0.75\n", "") + (
            "sweep_axis = p_obs\nsweep_values = 0.8\ntrials = 1\n"))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "env")]) == 0


def test_module_entrypoint_runs(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(COMPLETION_CFG)
    # The child must import the same plr as this process, whatever the
    # checkout path and the shell's working directory: put the absolute
    # directory holding the package first on its PYTHONPATH.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(plr.__file__)))
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "plr.cli", "synth", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, cwd=repo_root, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "M.csv").exists()
