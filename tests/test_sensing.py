import hashlib
import os
import struct
import tracemalloc

import numpy as np
import pytest

import plr.sensing
from oracles import sensing_masks_oracle
from plr.core import ShapeMismatchError, seeded_rng
from plr.sensing import (SensingEnsemble, apply_adjoint, apply_forward,
                         build_sensing_ensemble, empirical_rip_range, load_ensemble,
                         sample_compressive_counts, save_ensemble, tilde_forward,
                         xi_p_value)


def zero_mask_ensemble(d1=1, d2=1):
    """Ensemble whose single mask is all zeros."""
    packed = np.zeros((1, (d1 * d2 + 7) // 8), dtype=np.uint8)
    return SensingEnsemble(d1=d1, d2=d2, m=1, p=0.5, seed=0, packed=packed)


class TestXiP:
    def test_values(self):
        assert xi_p_value(0.5) == 1.0
        assert xi_p_value(0.3) == pytest.approx(np.sqrt(3.0 / (2 * 0.3 * 0.7)))

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_bad_p(self, p):
        with pytest.raises(ValueError):
            xi_p_value(p)


class TestBuild:
    def test_entries_are_zero_or_one_over_m(self):
        ens = build_sensing_ensemble(5, 7, 9, 0.4, seed=11)
        masks = [ens.mask_dense(i) for i in range(ens.m)]
        assert ens._dense is None  # mask_dense unpacks only its own row
        for i, mask in enumerate(masks):
            assert set(np.unique(mask).tolist()) <= {0.0, 1.0 / ens.m}
            assert np.array_equal(mask, (ens.indicator_matrix()[i] / ens.m).reshape(5, 7))

    def test_single_cell_two_point_support(self):
        for seed in range(20):
            ens = build_sensing_ensemble(1, 1, 1, 0.5, seed=seed)
            assert ens.mask_dense(0)[0, 0] in (0.0, 1.0)

    def test_zero_fraction_concentrates(self):
        # 2M entries per p: a set rate off by 1/256 gives |z| > 11 at each p
        for p in (0.5, 0.25, 0.3, 1 / 3, 0.97):
            ens = build_sensing_ensemble(40, 50, 1000, p, seed=3)
            entries = ens.m * ens.d1 * ens.d2
            set_bits = int(np.unpackbits(ens.packed).sum())
            z = (set_bits - entries * (1 - p)) / np.sqrt(entries * p * (1 - p))
            assert abs(z) < 5, (p, z)

    # each of these draws has 1-3 ties (k == floor(256 p)), and at p = 0.3
    # seed 1 sets one of its three and clears two
    @pytest.mark.parametrize("p,seed", [(0.3, 1), (0.3, 2), (0.5, 1), (0.5, 2)])
    def test_matches_entrywise_oracle(self, p, seed):
        ens = build_sensing_ensemble(6, 7, 10, p, seed)
        assert np.array_equal(ens.packed, np.array(sensing_masks_oracle(6, 7, 10, p, seed)))

    def test_block_size_is_not_part_of_the_stream(self, monkeypatch):
        # 35 entries per mask, so one-row blocks split the raw words
        args = (5, 7, 150, 0.3, 4)
        want = build_sensing_ensemble(*args)
        for rows in (1, 1000):
            monkeypatch.setattr(plr.sensing, "_BLOCK_ROWS", rows)
            ens = build_sensing_ensemble(*args)
            assert np.array_equal(ens.packed, want.packed)
            assert np.array_equal(ens.indicator_matrix(), want.indicator_matrix())

    @pytest.mark.parametrize("p,digest", [(0.5, "662f7a75eee2b38c"), (0.3, "57b382b8833d06d5")])
    def test_stream_is_pinned(self, p, digest):
        # a change here changes every recovery output drawn from m, p and a seed
        ens = build_sensing_ensemble(6, 7, 10, p, seed=1)
        assert hashlib.sha256(ens.packed.tobytes()).hexdigest()[:16] == digest

    def test_scratch_memory_is_a_block(self):
        d1, d2, m = 32, 32, 1024
        block = plr.sensing._BLOCK_ROWS * d1 * d2
        tracemalloc.start()
        try:
            ens = build_sensing_ensemble(d1, d2, m, 0.3, seed=5)
            draw_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            ens.indicator_matrix()
            unpack_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert draw_peak <= 1.5 * m * d1 * d2
        assert unpack_peak <= 8 * m * d1 * d2 + block + 16384

    def test_deterministic_given_seed(self):
        e1 = build_sensing_ensemble(6, 6, 12, 0.5, seed=21)
        e2 = build_sensing_ensemble(6, 6, 12, 0.5, seed=21)
        assert np.array_equal(e1.packed, e2.packed)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            build_sensing_ensemble(4, 4, 0, 0.5, seed=0)
        with pytest.raises(ValueError):
            build_sensing_ensemble(4, 4, 3, 1.0, seed=0)

    @pytest.mark.parametrize("changed,message", [
        ({"d2": 0, "packed": np.zeros((3, 0), np.uint8)},
         "need at least one matrix entry, got 6x0"),
        ({"m": 0, "packed": np.zeros((0, 4), np.uint8)}, "m must be >= 1, got 0"),
        ({"p": float("nan")}, "p must lie in (0, 1), got nan"),
        ({"packed": np.zeros((3, 3), np.uint8)},
         "packed masks have shape (3, 3), expected (3, 4)")],
        ids=["no_entries", "m_0", "p_nan", "packed_shape"])
    def test_construction_checks_every_field(self, changed, message):
        fields = {"d1": 6, "d2": 5, "m": 3, "p": 0.5, "seed": 1,
                  "packed": np.zeros((3, 4), np.uint8), **changed}
        with pytest.raises(ValueError) as err:
            SensingEnsemble(**fields)
        assert str(err.value) == message


class TestForward:
    def test_all_ones_mask_sums_entries(self):
        # m=1 with every bit set: the mask is the all-1/m = all-ones matrix
        packed = np.packbits(np.ones((1, 12), dtype=np.uint8), axis=1)
        ens = SensingEnsemble(d1=3, d2=4, m=1, p=0.01, seed=0, packed=packed)
        X = seeded_rng(1).uniform(0, 5, (3, 4))
        assert apply_forward(ens, X)[0] == pytest.approx(X.sum(), rel=1e-12)

    def test_zero_mask_measures_zero(self):
        ens = zero_mask_ensemble(3, 2)
        assert apply_forward(zero_mask_ensemble(3, 2), np.ones((3, 2)))[0] == 0.0

    def test_constant_matrix_lower_bound(self):
        c = 0.7
        ens = build_sensing_ensemble(4, 5, 8, 0.5, seed=5)
        out = apply_forward(ens, np.full((4, 5), c))
        nnz = ens.indicator_matrix().sum(axis=1)
        assert np.allclose(out, c * nnz / ens.m)
        assert np.all(out[nnz > 0] >= c / ens.m - 1e-12)

    def test_flux_and_positivity(self):
        rng = seeded_rng(6)
        for seed in range(10):
            ens = build_sensing_ensemble(6, 7, 10, 0.5, seed=seed)
            for _ in range(20):
                X = rng.uniform(0, 3, (6, 7))
                out = apply_forward(ens, X)
                assert out.min() >= 0.0
                assert out.sum() <= X.sum() + 1e-12 * X.sum()

    def test_shape_mismatch(self):
        ens = build_sensing_ensemble(3, 3, 2, 0.5, seed=0)
        for forward in (apply_forward, tilde_forward):
            with pytest.raises(ShapeMismatchError):
                forward(ens, np.ones((2, 3)))


class TestAdjoint:
    def test_zero_vector(self):
        ens = build_sensing_ensemble(3, 4, 5, 0.5, seed=9)
        assert np.array_equal(apply_adjoint(ens, np.zeros(5)), np.zeros((3, 4)))

    def test_unit_vector_returns_mask(self):
        ens = build_sensing_ensemble(3, 4, 1, 0.5, seed=10)
        assert np.array_equal(apply_adjoint(ens, np.array([1.0])), ens.mask_dense(0))

    def test_adjoint_identity(self):
        rng = seeded_rng(8)
        ens = build_sensing_ensemble(3, 4, 7, 0.5, seed=13)
        for _ in range(25):
            X = rng.standard_normal((3, 4))
            v = rng.standard_normal(7)
            lhs = float(np.dot(apply_forward(ens, X), v))
            rhs = float(np.vdot(X, apply_adjoint(ens, v)))
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) <= 1e-10 * scale

    def test_length_mismatch(self):
        ens = build_sensing_ensemble(3, 3, 4, 0.5, seed=0)
        with pytest.raises(ShapeMismatchError):
            apply_adjoint(ens, np.ones(5))


class TestSampling:
    def test_zero_matrix_zero_counts(self):
        ens = build_sensing_ensemble(4, 4, 6, 0.5, seed=1)
        y = sample_compressive_counts(ens, np.zeros((4, 4)), seed=2)
        assert np.all(y.counts == 0)

    def test_reproducible(self):
        ens = build_sensing_ensemble(4, 4, 6, 0.5, seed=1)
        M = seeded_rng(0).uniform(1, 20, (4, 4))
        a = sample_compressive_counts(ens, M, seed=33).counts
        b = sample_compressive_counts(ens, M, seed=33).counts
        assert np.array_equal(a, b)

    def test_poisson_mean_identity(self):
        # repeated draws at one fixed measurement index
        ens = build_sensing_ensemble(4, 4, 3, 0.5, seed=4)
        M = np.full((4, 4), 2.5)
        rate = apply_forward(ens, M)[0]
        reps = 10**5
        draws = seeded_rng(77).poisson(rate, size=reps)
        band = 3.0 * np.sqrt(rate / reps)
        assert abs(draws.mean() - rate) <= band


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        ens = build_sensing_ensemble(5, 6, 11, 0.35, seed=123)
        path = tmp_path / "ens.bin"
        save_ensemble(path, ens)
        back = load_ensemble(path)
        assert (back.d1, back.d2, back.m, back.p, back.seed) == (5, 6, 11, 0.35, 123)
        assert np.array_equal(back.packed, ens.packed)

    def test_saved_bytes_and_no_temporary_file(self, tmp_path):
        ens = build_sensing_ensemble(5, 6, 11, 0.35, seed=123)
        save_ensemble(tmp_path / "ens.bin", ens)
        header = struct.pack("<QQQdQ", 5, 6, 11, 0.35, 123)
        assert (tmp_path / "ens.bin").read_bytes() == header + ens.packed.tobytes()
        assert os.listdir(tmp_path) == ["ens.bin"]

    def test_regen_from_seed_matches_stored(self, tmp_path):
        ens = build_sensing_ensemble(5, 6, 11, 0.35, seed=123)
        regen = build_sensing_ensemble(ens.d1, ens.d2, ens.m, ens.p, ens.seed)
        assert np.array_equal(regen.packed, ens.packed)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 10)
        with pytest.raises(ValueError):
            load_ensemble(path)


def test_rip_diagnostic_runs():
    ens = build_sensing_ensemble(8, 8, 64, 0.5, seed=17)
    rng = seeded_rng(18)
    tests = [rng.standard_normal((8, 8)) for _ in range(8)]
    lo, hi = empirical_rip_range(ens, tests)
    assert 0.0 < lo <= hi
    # zero-mean part: constant matrices map near zero only in expectation;
    # just confirm tilde_forward is consistent with its affine reconstruction
    X = tests[0] / np.linalg.norm(tests[0])
    p, m = ens.p, ens.m
    A = ens.indicator_matrix() / m
    Z = (m * A - (1 - p)) / np.sqrt(p * (1 - p))
    want = (Z / np.sqrt(m)) @ X.ravel()
    assert np.allclose(tilde_forward(ens, X), want, atol=1e-10)
