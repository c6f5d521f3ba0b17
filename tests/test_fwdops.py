import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnpcert import (
    Image,
    Rng,
    gaussian_kernel,
    gaussian_noise,
    lambda_max_gram,
    load_pgm,
    make_blur,
    make_inpaint,
    make_superres,
    observe,
)
from pnpcert.fwdops import save_mask_pgm

from conftest import ORACLE_OPERATORS, dense_forward, synthetic_image


def _random_pair(op, seed):
    rng = Rng(seed)
    x = gaussian_noise(rng, op.n, 1.0)
    y = gaussian_noise(rng, op.m, 1.0)
    return x, y


def _operators_8x8():
    kernel = gaussian_kernel(3, 0.8)
    return [
        make_inpaint(8, 8, 0.4, Rng(11)),
        make_blur(8, 8, kernel),
        make_superres(8, 8, kernel, 2),
    ]


class TestInpaint:
    def test_full_fraction_is_identity(self):
        op = make_inpaint(4, 4, 1.0, Rng(0))
        x = np.arange(16.0)
        assert np.array_equal(op.apply(x), x)

    def test_rounding_rule(self):
        op = make_inpaint(4, 4, 0.3, Rng(0))
        assert op.m == 5  # round(4.8)

    def test_seed_determinism(self):
        a = make_inpaint(8, 8, 0.3, Rng(1))
        b = make_inpaint(8, 8, 0.3, Rng(1))
        assert np.array_equal(a.mask, b.mask)

    def test_mask_count(self):
        op = make_inpaint(8, 8, 0.3, Rng(1))
        assert op.mask.sum() == op.m == 19

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            make_inpaint(10, 10, 0.004, Rng(0))

    def test_gram_is_mask_product(self):
        op = make_inpaint(6, 6, 0.5, Rng(2))
        x = gaussian_noise(Rng(3), 36, 1.0)
        assert np.allclose(op.gram(x), x * op.mask, atol=0, rtol=0)


class TestBlur:
    def test_single_tap_identity(self):
        op = make_blur(5, 5, np.ones((1, 1)))
        x = gaussian_noise(Rng(4), 25, 1.0)
        assert np.array_equal(op.apply(x), x)

    def test_constant_preserved(self):
        op = make_blur(6, 6, gaussian_kernel(5, 1.0))
        c = np.full(36, 0.37)
        assert np.allclose(op.apply(c), c, atol=1e-15)

    def test_box_kernel_impulse(self):
        # hand-evaluated circular convolution of a 3x3 box with an impulse at (0,0)
        op = make_blur(4, 4, np.ones((3, 3)))
        x = np.zeros(16)
        x[0] = 1.0
        expected = np.zeros((4, 4))
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                expected[dy % 4, dx % 4] = 1.0 / 9.0
        assert np.allclose(op.apply(x).reshape(4, 4), expected, atol=1e-16)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            make_blur(4, 4, np.ones((2, 3)))

    def test_negative_taps_rejected(self):
        taps = np.ones((3, 3))
        taps[0, 0] = -0.1
        with pytest.raises(ValueError):
            make_blur(4, 4, taps)

    def test_gram_vs_dense_oracle(self):
        # brute-force O(n^2) dense matrix assembled from apply on basis vectors
        op = make_blur(8, 8, gaussian_kernel(3, 0.7))
        n = op.n
        dense = np.zeros((n, n))
        e = np.zeros(n)
        for i in range(n):
            e[i] = 1.0
            dense[:, i] = op.apply(e)
            e[i] = 0.0
        x = np.zeros(n)
        x[0] = 1.0  # impulse input
        assert np.allclose(op.gram(x), dense.T @ (dense @ x), atol=1e-14)

    def test_gram_zero(self):
        op = make_blur(4, 4, gaussian_kernel(3, 0.7))
        assert np.array_equal(op.gram(np.zeros(16)), np.zeros(16))

    def test_nonseparable_kernel(self):
        # plus-shaped kernel has rank 2
        taps = np.array([[0.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 0.0]])
        op = make_blur(6, 6, taps)
        for seed in range(20):
            x, y = _random_pair(op, 500 + seed)
            lhs = op.apply(x) @ y
            assert abs(lhs - x @ op.adjoint(y)) <= 1e-12 * (1.0 + abs(lhs))
        c = np.full(36, 0.3)
        assert np.allclose(op.apply(c), c, atol=1e-15)


class TestSuperres:
    def test_factor_one_is_blur(self):
        kernel = gaussian_kernel(3, 0.8)
        sr = make_superres(4, 4, kernel, 1)
        blur = make_blur(4, 4, kernel)
        x = gaussian_noise(Rng(5), 16, 1.0)
        assert sr.kind == "blur"
        assert np.array_equal(sr.apply(x), blur.apply(x))

    def test_identity_tap_decimates(self):
        op = make_superres(4, 4, np.ones((1, 1)), 2)
        x = np.arange(16.0)
        grid = x.reshape(4, 4)
        assert np.array_equal(op.apply(x), grid[::2, ::2].reshape(-1))

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            make_superres(5, 4, np.ones((1, 1)), 2)

    def test_adjoint_identity_8x8(self):
        op = make_superres(8, 8, gaussian_kernel(3, 0.8), 2)
        for seed in range(20):
            x, y = _random_pair(op, 100 + seed)
            lhs = op.apply(x) @ y
            rhs = x @ op.adjoint(y)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


class TestAdjointAndGram:
    @pytest.mark.parametrize("op_index", [0, 1, 2])
    def test_adjoint_identity_100_pairs(self, op_index):
        op = _operators_8x8()[op_index]
        for seed in range(100):
            x, y = _random_pair(op, 1000 + seed)
            lhs = op.apply(x) @ y
            rhs = x @ op.adjoint(y)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))

    @pytest.mark.parametrize("op_index", [0, 1, 2])
    def test_gram_psd_and_symmetric(self, op_index):
        op = _operators_8x8()[op_index]
        for seed in range(20):
            rng = Rng(2000 + seed)
            x = gaussian_noise(rng, op.n, 1.0)
            y = gaussian_noise(rng, op.n, 1.0)
            assert op.gram(x) @ x >= -1e-12
            assert op.gram(x) @ y == pytest.approx(x @ op.gram(y), abs=1e-10)

    @pytest.mark.parametrize("op_index", [0, 1, 2])
    def test_forward_of_ones_nonzero(self, op_index):
        op = _operators_8x8()[op_index]
        assert np.linalg.norm(op.apply(np.ones(op.n))) > 1e-10 * np.sqrt(op.n)

    def test_length_mismatch(self):
        op = make_blur(4, 4, np.ones((1, 1)))
        with pytest.raises(ValueError):
            op.apply(np.zeros(15))
        with pytest.raises(ValueError):
            op.adjoint(np.zeros(15))


class TestLambdaMax:
    def test_inpaint_is_one(self):
        op = make_inpaint(8, 8, 0.4, Rng(3))
        est = lambda_max_gram(op, tol=1e-12)
        assert est.converged
        assert est.value == pytest.approx(1.0, abs=1e-10)

    def test_blur_is_one(self):
        op = make_blur(8, 8, gaussian_kernel(5, 1.2))
        est = lambda_max_gram(op)
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_superres_matches_dense_eig(self):
        op = make_superres(8, 8, gaussian_kernel(3, 0.8), 2)
        n = op.n
        dense = np.zeros((n, n))
        e = np.zeros(n)
        for i in range(n):
            e[i] = 1.0
            dense[:, i] = op.gram(e)
            e[i] = 0.0
        top = np.linalg.eigvalsh(dense)[-1]
        est = lambda_max_gram(op)
        assert est.value == pytest.approx(top, abs=1e-12)

    @pytest.mark.parametrize("op_index", [0, 1, 2])
    def test_within_unit_bound(self, op_index):
        op = _operators_8x8()[op_index]
        est = lambda_max_gram(op, tol=1e-10)
        assert -1e-12 <= est.value <= 1.0 + 1e-8

    def test_nonconvergence_flagged(self):
        # at 8x8 one ARPACK restart already converges; 32x32 needs more than 3
        op = make_blur(32, 32, gaussian_kernel(5, 1.2))
        diag = 1.0 + Rng(9).uniforms(1024)
        est = lambda_max_gram(op, tol=1e-15, max_iter=3, diag=diag)
        assert not est.converged
        assert np.isnan(est.value)

    @pytest.mark.parametrize("tol, max_iter", [(np.nan, 10), (0.0, 10), (1e-8, 0)])
    def test_scaled_invalid_arguments_rejected(self, tol, max_iter):
        op = make_blur(8, 8, gaussian_kernel(5, 1.2))
        with pytest.raises(ValueError):
            lambda_max_gram(op, tol=tol, max_iter=max_iter, diag=np.ones(64))

    def test_exact_without_iterations(self):
        for op in _operators_8x8():
            est = lambda_max_gram(op)
            assert est.converged and est.iterations == 0

    def test_scaled_variant(self):
        op = make_inpaint(6, 6, 0.5, Rng(8))
        diag = 1.0 + Rng(9).uniforms(36)
        est = lambda_max_gram(op, tol=1e-13, diag=diag)
        dense = np.diag(1.0 / np.sqrt(diag)) @ np.diag(op.mask.astype(float)) @ np.diag(
            1.0 / np.sqrt(diag)
        )
        assert est.value == pytest.approx(np.linalg.eigvalsh(dense)[-1], abs=1e-9)

    def test_scaled_inpaint_is_exact(self):
        # D^-1/2 A'A D^-1/2 is the diagonal mask / d: its top entry, no ARPACK solve
        op = make_inpaint(16, 16, 0.3, Rng(8))
        diag = 1.0 + 5.0 * Rng(9).uniforms(256)
        est = lambda_max_gram(op, diag=diag)
        assert est.value == float((1.0 / diag[op.mask]).max())
        assert est.converged and est.iterations == 0


class TestObserve:
    def test_sigma_zero_inpaint(self):
        img = synthetic_image(8, 8)
        op = make_inpaint(8, 8, 0.5, Rng(1))
        b = observe(op, img, 0.0, Rng(2))
        assert np.array_equal(b, img.data[op.mask])

    def test_sigma_zero_blur_constant(self):
        img = Image(np.full(64, 0.42), 8, 8)
        op = make_blur(8, 8, gaussian_kernel(5, 1.0))
        b = observe(op, img, 0.0, Rng(2))
        assert np.allclose(b, 0.42, atol=1e-15)

    def test_dimension_mismatch(self):
        op = make_blur(8, 8, gaussian_kernel(3, 1.0))
        with pytest.raises(ValueError):
            observe(op, synthetic_image(4, 4), 0.0, Rng(0))

    def test_noise_changes_measurement(self):
        img = synthetic_image(8, 8)
        op = make_blur(8, 8, gaussian_kernel(3, 1.0))
        clean = observe(op, img, 0.0, Rng(2))
        noisy = observe(op, img, 0.03, Rng(2))
        assert not np.array_equal(clean, noisy)
        assert np.abs(noisy - clean).max() < 0.2


class TestMaskAndKernelFiles:
    def test_mask_pgm_roundtrip(self, tmp_path):
        op = make_inpaint(8, 8, 0.3, Rng(6))
        path = tmp_path / "mask.pgm"
        save_mask_pgm(op, path)
        back = load_pgm(path)
        assert (back.rows, back.cols) == (8, 8)
        assert np.array_equal(back.data, op.mask.astype(np.float64))  # exactly 0 or 1


@given(st.integers(0, 2**31), st.sampled_from([0.2, 0.5, 0.9]))
@settings(max_examples=20, deadline=None)
def test_adjoint_identity_randomized(seed, fraction):
    op = make_inpaint(6, 6, fraction, Rng(seed))
    rng = Rng(seed ^ 0xFFFF)
    x = gaussian_noise(rng, op.n, 1.0)
    y = gaussian_noise(rng, op.m, 1.0)
    lhs = op.apply(x) @ y
    assert abs(lhs - x @ op.adjoint(y)) <= 1e-12 * (1.0 + abs(lhs))


@given(st.sampled_from(sorted(ORACLE_OPERATORS)))
@settings(max_examples=20, deadline=None)
def test_lambda_max_matches_dense_eig(name):
    op = ORACLE_OPERATORS[name]()
    a = dense_forward(op)
    top = np.linalg.eigvalsh(a.T @ a)[-1]
    assert abs(lambda_max_gram(op).value - top) <= 1e-12
