import os
import warnings

import numpy as np
import pytest

from plr.core import (CompletionObservations, CompressiveObservations, FeasibleSet,
                      ShapeMismatchError, SolverTrace, _atomic_write, as_matrix,
                      load_dense_csv, load_observations_csv, save_dense_csv,
                      save_observations_csv, seeded_rng, validate_membership)


def test_as_matrix_rejects_another_shape_naming_both():
    assert as_matrix(np.ones((2, 3)), (2, 3)).shape == (2, 3)
    with pytest.raises(ShapeMismatchError, match=r"\(2, 3\) does not match \(3, 2\)"):
        as_matrix(np.ones((2, 3)), (3, 2))


class TestFeasibleSet:
    def test_lipschitz_is_alpha_over_beta_squared(self):
        fs = FeasibleSet(alpha=200.0, beta=1.0)
        assert fs.lipschitz() == 200.0
        fs = FeasibleSet(alpha=3.0 * 2.0, beta=2.0)
        assert fs.lipschitz() == pytest.approx(3.0 / 2.0)

    def test_nuclear_radius(self):
        fs = FeasibleSet(alpha=2.0, beta=1.0, rank_budget=4)
        assert fs.nuclear_radius(4, 4) == pytest.approx(2.0 * 8.0)

    @pytest.mark.parametrize("kwargs", [
        dict(alpha=-1.0, beta=0.5),
        dict(alpha=1.0, beta=1.0),
        dict(alpha=1.0, beta=2.0),
        dict(alpha=1.0, beta=0.5, rank_budget=0),
        dict(alpha=1.0, beta=0.5, total_intensity=0.0),
        dict(alpha=1.0, beta=0.5, entry_floor=0.0),
        *[{"alpha": 1.0, "beta": 0.5, name: value}
          for name in ("alpha", "total_intensity", "entry_floor") for value in (np.nan, np.inf)],
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            FeasibleSet(**kwargs)


class TestValidateMembership:
    def setup_method(self):
        self.fs = FeasibleSet(alpha=10.0, beta=2.0, rank_budget=2,
                              total_intensity=12.0, entry_floor=0.5)

    def test_box_interior_point_is_member_of_s(self):
        X = np.full((2, 2), 0.5 * (10.0 + 2.0))
        assert validate_membership(X, self.fs, "S")

    def test_below_box_reports_entry(self):
        X = np.full((2, 2), 5.0)
        X[1, 0] = 1.0  # beta/2
        report = validate_membership(X, self.fs, "Gamma1")
        assert not report
        assert report.violations[0] == "entry (1, 0) = 1.0 below lower bound 2.0"

    def test_scaled_identity_on_nuclear_boundary_is_member(self):
        # ||alpha*I_4||_* = 4*alpha equals the radius alpha*sqrt(1*16)
        fs = FeasibleSet(alpha=3.0, beta=1.0, rank_budget=1)
        X = 3.0 * np.eye(4)
        assert validate_membership(X, fs, "Gamma2")

    def test_nuclear_violation_reported(self):
        fs = FeasibleSet(alpha=1.0, beta=0.5, rank_budget=1)
        X = np.diag([4.0, 4.0, 4.0, 4.0])
        report = validate_membership(X, fs, "Gamma2")
        assert not report and "nuclear" in report.violations[0]

    def test_gamma0_total_intensity(self):
        X = np.array([[4.0, 2.0], [6.0, 0.0]])
        assert validate_membership(X, self.fs, "Gamma0")
        assert not validate_membership(2 * X, self.fs, "Gamma0")
        assert not validate_membership(X - 5.0, self.fs, "Gamma0")

    def test_monotone_in_alpha(self):
        # shrinking alpha toward beta can only remove members
        rng = seeded_rng(5)
        alphas = [10.0, 8.0, 6.0, 4.0, 2.5]
        for _ in range(20):
            X = rng.uniform(2.0, 10.0, (3, 4))
            was_member = True
            for a in alphas:
                fs = FeasibleSet(alpha=a, beta=2.0, rank_budget=3)
                ok = bool(validate_membership(X, fs, "S"))
                assert not (ok and not was_member), "membership regained under shrinking alpha"
                was_member = ok

    def test_unknown_set_and_bad_input(self):
        with pytest.raises(ValueError):
            validate_membership(np.ones((2, 2)), self.fs, "Gamma3")
        with pytest.raises(ShapeMismatchError):
            validate_membership(np.ones(4), self.fs, "S")


class TestSeededRng:
    def test_identical_streams(self):
        a = seeded_rng(1234).poisson(3.7, size=1000)
        b = seeded_rng(1234).poisson(3.7, size=1000)
        assert np.array_equal(a, b)

    def test_zero_rate_poisson(self):
        assert np.all(seeded_rng(7).poisson(0.0, size=100) == 0)

    def test_poisson_mean(self):
        # CLT band: 5 +- 3*sqrt(5/1e6) ~= 5 +- 0.0067, spec asks 5 +- 0.02
        draws = seeded_rng(99).poisson(5.0, size=10**6)
        assert abs(draws.mean() - 5.0) < 0.02

    def test_poisson_tail_bound(self):
        # P(Y - lam >= t) <= e^-t for t >= alpha*(e^2 - 3), lam <= alpha
        alpha = 5.0
        t = alpha * (np.e**2 - 3.0)
        n = 10**6
        draws = seeded_rng(2024).poisson(alpha, size=n)
        freq = np.mean(draws - alpha >= t)
        bound = np.exp(-t) + 3.0 * np.sqrt(np.exp(-t) / n)
        assert freq <= bound


class TestObservations:
    def test_sorted_and_immutable(self):
        obs = CompletionObservations(rows=[1, 0], cols=[0, 1], counts=[3, 4], dims=(2, 2))
        assert obs.rows.tolist() == [0, 1] and obs.counts.tolist() == [4, 3]
        with pytest.raises(ValueError):
            obs.rows[0] = 5

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            CompletionObservations(rows=[0, 0], cols=[1, 1], counts=[1, 2], dims=(2, 2))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CompletionObservations(rows=[2], cols=[0], counts=[1], dims=(2, 2))
        with pytest.raises(ValueError):
            CompletionObservations(rows=[0], cols=[0], counts=[-1], dims=(2, 2))

    def test_compressive_counts(self):
        y = CompressiveObservations(counts=[0, 3, 2])
        assert len(y) == 3
        with pytest.raises(ValueError):
            CompressiveObservations(counts=[[1, 2]])
        with pytest.raises(ValueError):
            CompressiveObservations(counts=[-1])

    @pytest.mark.parametrize("values,message", [
        ([1, 2.5], "count 2.5 at index 1 is not a whole number below 2**63"),
        ([0, np.nan], "count nan at index 1 is not a whole number below 2**63"),
        ([np.inf], "count inf at index 0 is not a whole number below 2**63"),
        ([3, 1e30], "count 1e+30 at index 1 is not a whole number below 2**63"),
        (np.array([2**63], dtype=np.uint64),
         "count 9223372036854775808 at index 0 is not a whole number below 2**63"),
        ([4, -2], "counts must be nonnegative, got -2 at index 1"),
        ([-np.inf], "counts must be nonnegative, got -inf at index 0")],
        ids=["fraction", "nan", "inf", "huge", "uint64", "negative", "minus_inf"])
    def test_counts_must_be_whole_numbers_below_2_63(self, values, message):
        # warnings as errors: a plain int64 cast warns on nan, inf and 1e30
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                CompressiveObservations(counts=values)
            assert str(err.value) == message
            with pytest.raises(ValueError) as err:
                CompletionObservations(rows=range(len(values)), cols=[0] * len(values),
                                       counts=values, dims=(len(values), 1))
            assert str(err.value) == message

    def test_whole_float_counts_are_kept(self):
        assert CompressiveObservations(counts=[1.0, 2**62]).counts.tolist() == [1, 2**62]
        obs = CompletionObservations(rows=[0], cols=[0], counts=[2.0], dims=(1, 1))
        assert obs.counts.dtype == np.int64 and obs.counts.tolist() == [2]


class TestFileFormats:
    def test_dense_roundtrip(self, tmp_path):
        X = seeded_rng(3).uniform(0.1, 9.9, (4, 3))
        path = tmp_path / "m.csv"
        save_dense_csv(path, X)
        assert np.array_equal(load_dense_csv(path), X)

    def test_dense_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n1.0,oops\n")
        with pytest.raises(ValueError, match="line 2"):
            load_dense_csv(path)

    def test_dense_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_dense_csv(path)

    def test_observations_roundtrip(self, tmp_path):
        obs = CompletionObservations(rows=[0, 2], cols=[1, 0], counts=[4, 9],
                                     dims=(3, 2))
        path = tmp_path / "obs.csv"
        save_observations_csv(path, obs)
        text = path.read_text().splitlines()
        assert text[0] == "row,col,count" and text[1] == "1,2,4"  # 1-based on disk
        back = load_observations_csv(path, (3, 2))
        assert np.array_equal(back.rows, obs.rows)
        assert np.array_equal(back.counts, obs.counts)

    def test_observations_header_required(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("1,2,4\n")
        with pytest.raises(ValueError, match="header"):
            load_observations_csv(path, (3, 2))

    @pytest.mark.parametrize("line,message", [
        ("4,1,5", "line 3: cell (4, 1) outside the 3x2 matrix"),
        ("1,3,5", "line 3: cell (1, 3) outside the 3x2 matrix"),
        ("0,1,5", "line 3: cell (0, 1) outside the 3x2 matrix"),
        ("2,1,-1", "line 3: negative count -1"),
        ("1,2,7", "line 3: duplicate cell (1, 2)")])
    def test_observations_errors_name_file_line_and_cell(self, tmp_path, line, message):
        path = tmp_path / "obs.csv"
        path.write_text(f"row,col,count\n1,2,4\n{line}\n")
        with pytest.raises(ValueError) as err:
            load_observations_csv(path, (3, 2))
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN"])
    def test_dense_rejects_non_finite_naming_line(self, tmp_path, token):
        path = tmp_path / "m.csv"
        path.write_text(f"1.0,2.0\n3.0,{token}\n")
        with pytest.raises(ValueError) as err:
            load_dense_csv(path)
        assert str(err.value) == f"{path}: line 2: non-finite entry"


class TestAtomicWrite:
    @pytest.mark.parametrize("data", ["text\n", b"\x00\xffbytes"])
    def test_writes_text_or_bytes(self, tmp_path, data):
        path = tmp_path / "out"
        _atomic_write(path, data)
        raw = data.encode() if isinstance(data, str) else data
        assert path.read_bytes() == raw
        assert os.listdir(tmp_path) == ["out"]

    def test_writes_chunks_in_order(self, tmp_path):
        path = tmp_path / "out"
        _atomic_write(path, b"head", memoryview(np.arange(6, dtype=np.uint8).reshape(2, 3)))
        assert path.read_bytes() == b"head" + bytes(range(6))
        _atomic_write(path, "a,", "b\n")
        assert path.read_text() == "a,b\n"

    def test_failed_write_keeps_old_file_and_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "out"
        _atomic_write(path, "old\n")
        with pytest.raises(UnicodeEncodeError):
            _atomic_write(path, "\ud800")  # a lone surrogate cannot be encoded
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out"]


def test_solver_trace_csv(tmp_path):
    trace = SolverTrace()
    trace.record(3.5, 0.1)
    trace.record(2.25, 0.2)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    assert path.read_text() == "iter,objective,t\n1,3.5,0.1\n2,2.25,0.2\n"
