import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from pnpcert import (
    Image,
    KernelParams,
    Rng,
    apply_w,
    build_denoiser,
    build_dsg,
    build_kernel,
    build_nlm,
    gaussian_kernel,
    gaussian_noise,
    make_blur,
    make_guide,
    make_inpaint,
    make_superres,
    observe,
    psnr,
)
from pnpcert.kernel_denoise import _index_dtype, _kernel_nnz, _window_value

from conftest import (
    reference_dsg,
    reference_kernel,
    reference_nlm,
    reference_symmetric,
    synthetic_image,
)


def brute_force_kernel(guide: Image, params: KernelParams) -> np.ndarray:
    """Double-loop reference: every pixel pair, explicit patch extraction."""
    rows, cols = guide.rows, guide.cols
    pr, wr = params.patch_radius, params.window_radius
    p = (2 * pr + 1) ** 2
    padded = np.pad(guide.grid(), pr, mode="symmetric")
    K = np.zeros((rows * cols, rows * cols))
    for r1 in range(rows):
        for c1 in range(cols):
            for r2 in range(rows):
                for c2 in range(cols):
                    di, dj = r2 - r1, c2 - c1
                    if abs(di) > wr or abs(dj) > wr:
                        continue
                    if params.window_shape == "box":
                        h = 1.0
                    else:
                        h = (1 - abs(di) / (wr + 1)) * (1 - abs(dj) / (wr + 1))
                    patch1 = padded[r1 : r1 + 2 * pr + 1, c1 : c1 + 2 * pr + 1]
                    patch2 = padded[r2 : r2 + 2 * pr + 1, c2 : c2 + 2 * pr + 1]
                    d2 = float(((patch1 - patch2) ** 2).sum())
                    K[r1 * cols + c1, r2 * cols + c2] = (
                        np.exp(-d2 / (2 * params.bandwidth**2 * p)) * h
                    )
    return K


def random_guide(rows, cols, seed, levels=0) -> Image:
    """Uniform pixels, rounded to ``levels`` gray levels when that is positive."""
    data = Rng(seed).uniforms(rows * cols)
    if levels:
        data = np.round(data * (levels - 1)) / (levels - 1)
    return Image(data, rows, cols)


class TestBuildKernel:
    def test_constant_guide_box(self):
        guide = Image(np.full(25, 0.5), 5, 5)
        params = KernelParams(patch_radius=1, window_radius=1, bandwidth=0.1)
        K = build_kernel(guide, params).toarray()
        # all in-window affinities are exactly 1; degree = truncated window size
        assert K[12, 12] == 1.0
        assert K[12, 7] == 1.0
        center_deg = K[12].sum()
        assert center_deg == 9.0  # interior pixel, full 3x3 window
        corner_deg = K[0].sum()
        assert corner_deg == 4.0  # corner window truncated to 2x2

    def test_unit_diagonal(self):
        guide = random_guide(6, 6, 3)
        K = build_kernel(guide, KernelParams(1, 2, 0.15))
        assert np.array_equal(K.diagonal(), np.ones(36))

    def test_exactly_symmetric(self):
        guide = random_guide(7, 5, 4)
        K = build_kernel(guide, KernelParams(1, 2, 0.1, "hat"))
        assert (K != K.T).nnz == 0  # bitwise symmetry

    @pytest.mark.parametrize("shape", ["box", "hat"])
    def test_matches_brute_force(self, shape):
        guide = random_guide(5, 5, 7)
        params = KernelParams(patch_radius=1, window_radius=2, bandwidth=0.12, window_shape=shape)
        K = build_kernel(guide, params).toarray()
        ref = brute_force_kernel(guide, params)
        assert np.abs(K - ref).max() <= 1e-15

    def test_window_limits_support(self):
        guide = random_guide(6, 6, 8)
        K = build_kernel(guide, KernelParams(0, 1, 0.1)).toarray()
        # pixels farther than the window radius have zero affinity
        assert K[0, 3] == 0.0
        assert K[0, 18] == 0.0

    def test_params_validation(self):
        with pytest.raises(ValueError):
            KernelParams(patch_radius=-1)
        with pytest.raises(ValueError):
            KernelParams(window_radius=0)
        with pytest.raises(ValueError):
            KernelParams(bandwidth=0.0)
        with pytest.raises(ValueError):
            KernelParams(window_shape="disk")


def csr_arrays(M):
    return M.data, M.indices, M.indptr


def assert_same_csr(got, want):
    for a, b in zip(csr_arrays(got), csr_arrays(want)):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def window_values(K, cols, params) -> np.ndarray:
    """h(di, dj) of every stored entry of K, from its row and column pixels."""
    row = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))
    di, dj = K.indices // cols - row // cols, K.indices % cols - row % cols
    return np.broadcast_to(_window_value(di, dj, params), K.data.shape)


def assert_within_summation_rounding(got, want, h, p):
    """Affinities whose p-term patch distances were summed in two orders.

    Any order of adding p nonnegative terms lies within (p - 1) eps/2 of the
    exact sum, relatively (Higham, Accuracy and Stability of Numerical
    Algorithms, 4.2), so with the division by the bandwidth term the two
    exponents t = d2 / denom differ by at most p eps t. np.exp is taken to be
    accurate to 2 eps on each side (its measured error is below 0.6 eps), the
    product by h to eps/2 each, and 2 p eps t leaves a factor 2 over first
    order. Where the affinity is subnormal or
    underflows to 0 (t above about 708), that rounding is absolute: at most
    2 subnormal spacings on each side.
    """
    eps = np.finfo(np.float64).eps
    t, normal = np.zeros_like(want), want > 0
    t[normal] = np.log(h[normal]) - np.log(want[normal])  # d2 / denom; 0 where want is 0
    bound = eps * (5.0 + 2.0 * p * t) * want + 4.0 * np.finfo(np.float64).smallest_subnormal
    assert np.all(np.abs(got - want) <= bound)


class TestCsrAssembly:
    """Direct CSR assembly against the COO assemblies in ``conftest``: bitwise
    in the box-sum order, to summation rounding in the flat patch order; the
    normalizations of that K against broadcasting ones, bitwise."""

    @given(
        shape=st.sampled_from([(1, 7), (7, 1), (2, 2), (9, 13)]),
        patch_radius=st.integers(0, 2),
        window_radius=st.integers(1, 14),  # up to wider than every shape
        window_shape=st.sampled_from(["box", "hat"]),
        bandwidth=st.floats(0.005, 1.0),  # below about 0.026 some affinities underflow to 0
        seed=st.integers(0, 2**31),
        levels=st.sampled_from([0, 4]),  # 4 gray levels: equal patches, zero distances
    )
    @settings(max_examples=60, deadline=None)
    @example(shape=(9, 13), patch_radius=2, window_radius=14, window_shape="hat",
             bandwidth=0.005, seed=3, levels=0)  # underflow, window wider than the image
    @example(shape=(9, 13), patch_radius=1, window_radius=14, window_shape="hat",
             bandwidth=0.05, seed=34, levels=4)  # integral-image distances go negative here
    def test_matches_reference(self, shape, patch_radius, window_radius, window_shape,
                               bandwidth, seed, levels):
        guide = random_guide(*shape, seed, levels)
        params = KernelParams(patch_radius, window_radius, bandwidth, window_shape)
        K = build_kernel(guide, params)
        assert_same_csr(K, reference_kernel(guide, params, box_order=True))
        assert K.has_canonical_format
        ref = reference_kernel(guide, params)
        for a, b in zip(csr_arrays(K)[1:], csr_arrays(ref)[1:]):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        h = window_values(K, shape[1], params)
        assert_within_summation_rounding(K.data, ref.data, h, (2 * patch_radius + 1) ** 2)

        # invariants, with no reference: bitwise symmetric, unit diagonal, and
        # 0 <= K_ij <= h(di, dj), which a negative distance would break
        assert (K != K.T).nnz == 0
        assert np.array_equal(K.diagonal(), np.ones(K.shape[0]))
        assert np.all(K.data >= 0.0)
        assert np.all(K.data <= h)
        before = [a.copy() for a in csr_arrays(K)]

        nlm = build_nlm(K)
        W_ref, deg_ref = reference_nlm(K)
        assert_same_csr(nlm.weights, W_ref)
        assert np.array_equal(nlm.degrees, deg_ref)
        assert_same_csr(nlm.symmetric, reference_symmetric(K, deg_ref))
        assert nlm.symmetric is nlm.symmetric  # built once, then cached

        dsg = build_dsg(K)
        W_ref, deg_ref, s_max = reference_dsg(K)
        assert dsg.kernel is None
        assert np.array_equal(dsg.degrees, deg_ref)
        assert dsg.norm_scale == s_max
        assert dsg.weights.has_canonical_format
        # the sparse sum of the reference drops affinities that underflowed
        # to 0; W keeps K's pattern, so its only extra entries are those zeros
        assert np.array_equal(dsg.weights.toarray(), W_ref.toarray())
        trimmed = dsg.weights.copy()
        trimmed.eliminate_zeros()
        assert_same_csr(trimmed, W_ref)
        if not np.any(K.data == 0):
            assert_same_csr(dsg.weights, W_ref)

        # test_acceptance builds both normalizations from one K
        for a, b in zip(csr_arrays(K), before):
            assert np.array_equal(a, b)

    def test_weights_share_kernel_index_arrays(self):
        K = build_kernel(random_guide(6, 7, 22), KernelParams(1, 2, 0.1))
        nlm, dsg = build_nlm(K), build_dsg(K)
        assert nlm.kernel is K
        for M in (nlm.weights, dsg.weights, nlm.symmetric):
            assert np.shares_memory(M.indices, K.indices)
            assert np.shares_memory(M.indptr, K.indptr)
        assert dsg.symmetric is dsg.weights  # a dsg denoiser keeps no K

    @pytest.mark.parametrize("rows, cols", [(1, 1), (1, 7), (7, 1), (2, 2), (9, 13), (30, 17)])
    @pytest.mark.parametrize("window_radius", [1, 3, 6])
    def test_nnz_closed_form(self, rows, cols, window_radius):
        K = build_kernel(random_guide(rows, cols, 23), KernelParams(0, window_radius, 0.1))
        assert _kernel_nnz(rows, cols, window_radius) == K.nnz
        assert K.indices.dtype == K.indptr.dtype == np.int32

    def test_index_dtype_flips_at_2_31(self):
        assert _index_dtype(2**31 - 1, 2**31 - 1) is np.int32
        assert _index_dtype(2**31, 10) is np.int64
        assert _index_dtype(10, 2**31) is np.int64


class TestBuildMemory:
    """tracemalloc sees numpy and scipy buffers; W stores 12 bytes per entry."""

    @pytest.mark.parametrize("mode", ["dsg", "nlm"])
    def test_peak_and_held_bytes(self, mode):
        guide = random_guide(96, 96, 24)
        gc.collect()
        tracemalloc.start()
        try:
            den = build_denoiser(guide, KernelParams(), mode)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        w_bytes = sum(a.nbytes for a in csr_arrays(den.weights))
        assert peak <= 3.0 * w_bytes
        if mode == "dsg":  # W and the degrees only
            assert held <= 1.1 * w_bytes

    def test_kernel_peak(self):
        # per offset, the box sums hold a few image-sized arrays, not a
        # (rows, cols, p) patch array
        guide = random_guide(96, 96, 24)
        gc.collect()
        tracemalloc.start()
        try:
            K = build_kernel(guide, KernelParams())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * sum(a.nbytes for a in csr_arrays(K))


class TestNlm:
    def test_constant_guide_rows(self):
        guide = Image(np.full(25, 0.3), 5, 5)
        den = build_nlm(build_kernel(guide, KernelParams(1, 1, 0.1)))
        W = den.weights.toarray()
        assert np.allclose(W[12][W[12] > 0], 1.0 / 9.0)

    def test_row_stochastic(self):
        guide = random_guide(6, 6, 9)
        den = build_nlm(build_kernel(guide, KernelParams(2, 2, 0.1)))
        assert np.abs(den.weights @ np.ones(36) - 1.0).max() <= 1e-12

    def test_eigenvalues_in_unit_interval(self):
        guide = random_guide(6, 6, 10)
        den = build_nlm(build_kernel(guide, KernelParams(1, 2, 0.15)))
        # spectrum of the nonsymmetric weights equals that of the symmetrized form
        eig = np.linalg.eigvalsh(reference_symmetric(den.kernel, den.degrees).toarray())
        assert eig.min() >= -1e-10
        assert eig.max() <= 1.0 + 1e-10

    def test_degrees_at_least_one(self):
        guide = random_guide(6, 6, 11)
        den = build_nlm(build_kernel(guide, KernelParams(1, 2, 0.1)))
        assert den.degrees.min() >= 1.0  # unit diagonal contributes to every row


class TestDsg:
    def test_symmetry_defect(self):
        guide = random_guide(6, 6, 12)
        den = build_dsg(build_kernel(guide, KernelParams(2, 2, 0.1)))
        W = den.weights
        assert np.abs((W - W.T).toarray()).max() <= 1e-14

    def test_row_stochastic(self):
        guide = random_guide(6, 6, 13)
        den = build_dsg(build_kernel(guide, KernelParams(2, 2, 0.1)))
        assert np.abs(den.weights @ np.ones(36) - 1.0).max() <= 1e-12

    def test_nonnegative_with_nonneg_correction(self):
        guide = random_guide(6, 6, 14)
        den = build_dsg(build_kernel(guide, KernelParams(1, 3, 0.08)))
        assert den.weights.toarray().min() >= 0.0
        assert den.norm_scale is not None and den.norm_scale > 0

    def test_constant_guide_correction_structure(self):
        # identical rows share one correction value, rows attaining the max
        # row sum get exactly zero, and the correction is never negative
        guide = Image(np.full(81, 0.5), 9, 9)
        K = build_kernel(guide, KernelParams(1, 1, 0.1))
        den = build_dsg(K)
        # a dsg denoiser keeps no K: S = D^-1/2 K D^-1/2 comes from the nlm one
        one_hat = build_nlm(K).symmetric @ np.ones(81)
        corr = 1.0 - one_hat / den.norm_scale
        interior = corr.reshape(9, 9)[2:7, 2:7].ravel()
        assert np.all(interior == interior[0])
        assert corr.min() == 0.0
        assert np.all(corr >= 0.0)

    def test_spectrum_and_spectral_gap(self):
        guide = random_guide(6, 6, 15)
        den = build_dsg(build_kernel(guide, KernelParams(1, 2, 0.15)))
        eig = np.sort(np.linalg.eigvalsh(den.weights.toarray()))
        assert eig.min() >= -1e-10
        assert eig.max() <= 1.0 + 1e-10
        assert eig[-1] == pytest.approx(1.0, abs=1e-12)  # constants are fixed
        assert eig[-2] < 1.0  # ... and are the only fixed vectors

    def test_norm_preservation_implies_fixed(self):
        # symmetric weights with unit-interval spectrum: ||W x|| = ||x|| iff W x = x
        guide = random_guide(6, 6, 16)
        den = build_dsg(build_kernel(guide, KernelParams(1, 2, 0.1)))
        ones = np.ones(36) / 6.0
        assert np.linalg.norm(apply_w(den, ones)) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(apply_w(den, ones) - ones) <= 1e-8
        for seed in range(10):
            x = gaussian_noise(Rng(600 + seed), 36, 1.0)
            x /= np.linalg.norm(x)
            wx = apply_w(den, x)
            if abs(np.linalg.norm(wx) - 1.0) <= 1e-10:
                assert np.linalg.norm(wx - x) <= 1e-8


class TestApplyW:
    def test_ones_preserved(self):
        den = build_denoiser(random_guide(6, 6, 17), KernelParams(1, 2, 0.1), "dsg")
        assert np.abs(apply_w(den, np.ones(36)) - 1.0).max() <= 1e-12

    def test_basis_vector_extracts_column(self):
        den = build_denoiser(random_guide(5, 5, 18), KernelParams(1, 1, 0.1), "nlm")
        W = den.weights.toarray()
        for i in (0, 7, 24):
            e = np.zeros(25)
            e[i] = 1.0
            assert np.array_equal(apply_w(den, e), W[:, i])

    def test_length_mismatch(self):
        den = build_denoiser(random_guide(5, 5, 19), KernelParams(1, 1, 0.1), "dsg")
        with pytest.raises(ValueError):
            apply_w(den, np.zeros(24))

    @given(st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, seed):
        den = build_denoiser(random_guide(4, 4, 20), KernelParams(1, 1, 0.1), "dsg")
        rng = Rng(seed)
        x = gaussian_noise(rng, 16, 1.0)
        y = gaussian_noise(rng, 16, 1.0)
        a, b = rng.uniform(), rng.uniform()
        lhs = apply_w(den, a * x + b * y)
        rhs = a * apply_w(den, x) + b * apply_w(den, y)
        assert np.abs(lhs - rhs).max() <= 1e-12


class TestMakeGuide:
    def test_deblur_guide_is_observed(self):
        img = synthetic_image(8, 8)
        op = make_blur(8, 8, gaussian_kernel(3, 1.0))
        b = observe(op, img, 0.0, Rng(1))
        guide = make_guide("deblur", b, op)
        assert np.array_equal(guide.data, b)

    def test_inpaint_full_mask_is_median(self):
        img = synthetic_image(8, 8)
        op = make_inpaint(8, 8, 1.0, Rng(1))
        b = observe(op, img, 0.0, Rng(2))
        guide = make_guide("inpaint", b, op)
        expected = ndimage.median_filter(img.grid(), size=3, mode="reflect")
        assert np.array_equal(guide.grid(), expected)

    def test_superres_constant(self):
        img = Image(np.full(64, 0.6), 8, 8)
        op = make_superres(8, 8, gaussian_kernel(3, 1.0), 2)
        b = observe(op, img, 0.0, Rng(3))
        guide = make_guide("superres", b, op)
        assert guide.rows == 8 and guide.cols == 8
        assert np.allclose(guide.data, 0.6, atol=1e-12)

    def test_task_mismatch(self):
        op = make_blur(8, 8, gaussian_kernel(3, 1.0))
        with pytest.raises(ValueError):
            make_guide("inpaint", np.zeros(64), op)

    def test_unknown_task(self):
        op = make_blur(8, 8, gaussian_kernel(3, 1.0))
        with pytest.raises(ValueError):
            make_guide("sharpen", np.zeros(64), op)
