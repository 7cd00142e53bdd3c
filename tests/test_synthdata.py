import os

import numpy as np
import pytest

from plr.core import FeasibleSet, ShapeMismatchError, seeded_rng
from plr.synthdata import (PatchLayout, WeakLqSpec, gen_exact_low_rank, gen_weak_lq,
                           image_to_patch_matrix, load_count_csv,
                           patch_matrix_to_image, rank_l_approx, read_pgm,
                           sample_completion_observations, write_pgm)


class TestGenExactLowRank:
    def setup_method(self):
        self.fset = FeasibleSet(alpha=200.0, beta=1.0, rank_budget=3)

    def test_rank_one_spectrum(self):
        M = gen_exact_low_rank(8, 6, 1, self.fset, seed=1)
        s = np.linalg.svd(M, compute_uv=False)
        assert s[1] <= 1e-9 * s[0]

    def test_entries_inside_box(self):
        for seed in range(5):
            M = gen_exact_low_rank(7, 9, 3, self.fset, seed=seed)
            assert M.min() >= self.fset.beta and M.max() <= self.fset.alpha

    def test_nuclear_norm_inside_budget(self):
        M = gen_exact_low_rank(10, 8, 3, self.fset, seed=2)
        nuc = np.linalg.svd(M, compute_uv=False).sum()
        assert nuc <= self.fset.alpha * np.sqrt(3 * 80)

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            gen_exact_low_rank(4, 4, 5, self.fset, seed=0)


class TestGenWeakLq:
    def test_boundary_spectrum_ratios(self):
        spec = WeakLqSpec(q=0.5, rho=0.8, total_intensity=100.0, dims=(8, 6))
        theta = spec.singular_values()
        assert theta[0] == pytest.approx(0.8 * 100.0)
        assert theta[3] / theta[0] == pytest.approx(4.0 ** (-2.0))

    def test_weak_lq_count_characterization(self):
        # |{j : theta_j >= c*I}| <= (rho/c)^q for all c > 0
        spec = WeakLqSpec(q=0.5, rho=0.8, total_intensity=50.0, dims=(10, 10))
        theta = spec.singular_values()
        for c in np.geomspace(1e-3, 2.0, 25):
            count = np.sum(theta >= c * spec.total_intensity)
            assert count <= (spec.rho / c) ** spec.q + 1e-9

    def test_output_in_recovery_set(self):
        spec = WeakLqSpec(q=0.6, rho=0.7, total_intensity=500.0, dims=(9, 7),
                          entry_floor=0.05)
        M = gen_weak_lq(spec, seed=3)
        assert M.sum() == pytest.approx(500.0, rel=1e-12)
        assert M.min() >= 0.05

    def test_decay_within_factor_two(self):
        spec = WeakLqSpec(q=0.5, rho=0.8, total_intensity=300.0, dims=(8, 8))
        M = gen_weak_lq(spec, seed=4)
        sigma = np.linalg.svd(M, compute_uv=False)
        bound = 2.0 * spec.rho * 300.0 * np.arange(1, 9) ** (-2.0)
        assert np.all(sigma <= bound + 1e-9)

    def test_decay_violated_after_rescale_warns(self):
        # the positive shift and rescale leave a near-constant matrix of total
        # I, whose top singular value ~ I / sqrt(d1 * d2) = 14.4 exceeds the
        # bound 2 * rho * I = 10 for this small rho
        spec = WeakLqSpec(q=0.5, rho=0.05, total_intensity=100.0, dims=(8, 6))
        with pytest.warns(UserWarning, match=r"sigma_1 = 14\.61 > 10 \(slack 2\.0\)"):
            M = gen_weak_lq(spec, seed=0)
        assert M.sum() == pytest.approx(100.0, rel=1e-12)

    def test_infeasible_floor_rejected(self):
        spec = WeakLqSpec(q=0.5, rho=0.8, total_intensity=10.0, dims=(5, 5),
                          entry_floor=1.0)
        with pytest.raises(ValueError):
            gen_weak_lq(spec, seed=0)


class TestRankLApprox:
    def test_full_rank_is_identity(self):
        X = seeded_rng(5).standard_normal((5, 4))
        assert np.allclose(rank_l_approx(X, 4), X, atol=1e-12)

    def test_diagonal_truncation(self):
        assert np.allclose(rank_l_approx(np.diag([3.0, 1.0]), 1), np.diag([3.0, 0.0]),
                           atol=1e-12)

    def test_tail_identity(self):
        rng = seeded_rng(6)
        X = rng.standard_normal((7, 5)) * 2
        s = np.linalg.svd(X, compute_uv=False)
        for ell in (1, 2, 4):
            err = np.linalg.norm(X - rank_l_approx(X, ell)) ** 2
            assert err == pytest.approx(np.sum(s[ell:] ** 2), abs=1e-10)

    def test_rejects_out_of_range(self):
        X = np.ones((3, 3))
        with pytest.raises(ValueError):
            rank_l_approx(X, 0)
        with pytest.raises(ValueError):
            rank_l_approx(X, 4)


class TestSampleCompletionObservations:
    def test_full_probability_observes_everything(self):
        M = seeded_rng(7).uniform(1, 5, (4, 5))
        obs = sample_completion_observations(M, 20.0, seed=8)
        assert len(obs) == 20

    def test_no_duplicates_and_in_range(self):
        M = seeded_rng(9).uniform(1, 5, (10, 10))
        obs = sample_completion_observations(M, 40.0, seed=10)
        flat = obs.rows * 10 + obs.cols
        assert np.unique(flat).size == flat.size

    def test_observed_count_concentrates(self):
        M = np.full((12, 12), 3.0)
        m_expected = 60.0
        sizes = [len(sample_completion_observations(M, m_expected, seed=s))
                 for s in range(2000)]
        p = m_expected / 144.0
        sd = np.sqrt(144 * p * (1 - p))
        assert abs(np.mean(sizes) - m_expected) <= 3.0 * sd / np.sqrt(len(sizes))

    def test_counts_are_poisson_at_rate(self):
        M = np.full((20, 20), 7.0)
        obs = sample_completion_observations(M, 400.0, seed=11)
        assert abs(obs.counts.mean() - 7.0) <= 3.0 * np.sqrt(7.0 / 400)

    def test_rejects_bad_m(self):
        M = np.ones((3, 3))
        with pytest.raises(ValueError):
            sample_completion_observations(M, 0.0, seed=0)
        with pytest.raises(ValueError):
            sample_completion_observations(M, 10.0, seed=0)


class TestPatchTransform:
    def test_layout_dims(self):
        layout = PatchLayout(image_shape=(48, 48), patch_shape=(8, 8))
        assert layout.matrix_shape == (64, 36)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            PatchLayout(image_shape=(48, 48), patch_shape=(7, 8))

    def test_round_trip_identity(self):
        rng = seeded_rng(12)
        layout = PatchLayout(image_shape=(12, 20), patch_shape=(3, 4))
        img = rng.uniform(0, 255, (12, 20))
        mat = image_to_patch_matrix(img, layout)
        assert mat.shape == (12, 20 // 4 * 4)
        assert np.array_equal(patch_matrix_to_image(mat, layout), img)

    def test_constant_image_constant_matrix(self):
        layout = PatchLayout(image_shape=(8, 8), patch_shape=(4, 4))
        mat = image_to_patch_matrix(np.full((8, 8), 9.0), layout)
        assert np.all(mat == 9.0)

    def test_frobenius_isometry(self):
        rng = seeded_rng(13)
        layout = PatchLayout(image_shape=(16, 16), patch_shape=(4, 4))
        img = rng.standard_normal((16, 16))
        mat = image_to_patch_matrix(img, layout)
        assert np.linalg.norm(mat) == pytest.approx(np.linalg.norm(img))

    def test_column_is_vectorized_patch(self):
        layout = PatchLayout(image_shape=(4, 4), patch_shape=(2, 2))
        img = np.arange(16.0).reshape(4, 4)
        mat = image_to_patch_matrix(img, layout)
        # patch (0,1) covers rows 0:2, cols 2:4, row-major vectorization
        assert mat[:, 1].tolist() == [2.0, 3.0, 6.0, 7.0]

    def test_wrong_shape_raises_shape_mismatch(self):
        layout = PatchLayout(image_shape=(4, 6), patch_shape=(2, 2))
        with pytest.raises(ShapeMismatchError, match=r"\(6, 4\) does not match \(4, 6\)"):
            image_to_patch_matrix(np.ones((6, 4)), layout)
        with pytest.raises(ShapeMismatchError, match=r"\(6, 4\) does not match \(4, 6\)"):
            patch_matrix_to_image(np.ones((6, 4)), layout)


class TestCountCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("hour,day,count\n1,1,5\n2,1,7\n1,2,0\n2,2,3\n")
        M, mask = load_count_csv(path)
        assert M.shape == (2, 2) and mask.all()
        assert M[0, 0] == 5 and M[1, 1] == 3

    def test_bike_shaped_fixture(self, tmp_path):
        rng = seeded_rng(14)
        lines = ["hour,day,count"]
        for h in range(1, 25):
            for d in range(1, 4):
                lines.append(f"{h},{d},{rng.integers(0, 50)}")
        path = tmp_path / "bike.csv"
        path.write_text("\n".join(lines) + "\n")
        M, mask = load_count_csv(path)
        assert M.shape == (24, 3) and mask.all()

    def test_missing_cells_flagged(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("hour,day,count\n1,1,5\n2,2,3\n")
        M, mask = load_count_csv(path)
        assert mask.sum() == 2 and not mask[0, 1]
        assert M[0, 1] == 0.0

    def test_duplicate_cell_rejected(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("hour,day,count\n1,1,5\n1,1,6\n")
        with pytest.raises(ValueError, match="line 3"):
            load_count_csv(path)

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("hour,day,count\n1,1,5\n2,oops,3\n")
        with pytest.raises(ValueError, match="line 3"):
            load_count_csv(path)

    def test_matrix_beyond_numpy_names_the_file(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text(f"{2**40},{2**40},1\n")
        with pytest.raises(ValueError) as info:
            load_count_csv(path)
        assert str(info.value) == (f"{path}: the {2**40} x {2**40} hours-by-days matrix "
                                   "is too big to allocate")

    def test_ships_bike_toy_fixture(self, data_dir):
        M, mask = load_count_csv(f"{data_dir}/bike_toy.csv")
        assert M.shape == (24, 8) and mask.all() and M.min() >= 0


class TestPgm:
    def test_round_trip(self, tmp_path):
        rng = seeded_rng(15)
        img = np.rint(rng.uniform(0, 255, (6, 9)))
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        assert np.array_equal(read_pgm(path), img)

    @pytest.mark.parametrize("name", ["solar48.pgm", "phantom16.pgm"])
    def test_rewrites_fixture_bytes_without_temporary_file(self, tmp_path, data_dir, name):
        write_pgm(tmp_path / name, read_pgm(f"{data_dir}/{name}"))
        with open(f"{data_dir}/{name}", "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read()
        assert os.listdir(tmp_path) == [name]

    def test_fixtures_load(self, data_dir):
        solar = read_pgm(f"{data_dir}/solar48.pgm")
        phantom = read_pgm(f"{data_dir}/phantom16.pgm")
        assert solar.shape == (48, 48) and phantom.shape == (16, 16)
        assert solar.max() <= 255 and solar.min() >= 0

    @pytest.mark.parametrize("text,message", [
        ("P2\n2 x\n255\n0 0\n0 0\n", "line 2: expected an integer, got 'x'"),
        ("P2\n2 2\n255\n0 0\n0 1.5\n", "line 5: expected an integer, got '1.5'"),
        ("P2\n2 2\n255 # max\n0 0\n# row 2\n0 256\n", "line 6: pixel 256 outside [0, 255]")])
    def test_errors_name_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "bad.pgm"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            read_pgm(path)
        assert str(err.value) == f"{path}: {message}"

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_text("P5\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(ValueError):
            read_pgm(path)

    def test_rejects_wrong_pixel_count(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_text("P2\n2 2\n255\n0 0 0\n")
        with pytest.raises(ValueError):
            read_pgm(path)
