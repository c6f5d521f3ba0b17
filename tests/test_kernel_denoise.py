import gc
import os
import threading
import tracemalloc
from dataclasses import fields

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
from pnpcert import kernel_denoise
from pnpcert.kernel_denoise import _window_value, band_product
from scipy.sparse._sparsetools import dia_matvec

from conftest import (
    reference_dsg,
    reference_kernel,
    reference_nlm,
    reference_row_sums,
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


def band_bytes(M) -> int:
    return M.data.nbytes + M.offsets.nbytes


def window_values(K, cols, params) -> np.ndarray:
    """h(di, dj) of every stored entry of a CSR K, from its row and column pixels."""
    row = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))
    di, dj = K.indices // cols - row // cols, K.indices % cols - row % cols
    return np.broadcast_to(_window_value(di, dj, params), K.data.shape)


def stencil(rows, cols, wr) -> np.ndarray:
    """Dense n x n mask of the pixel pairs at most wr apart on both axes."""
    r, c = np.divmod(np.arange(rows * cols), cols)
    return (np.abs(r[:, None] - r) <= wr) & (np.abs(c[:, None] - c) <= wr)


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


def assert_within_row_sum_rounding(got, want, m, mode):
    """Weights normalized by row sums of K taken in two orders.

    Two orders of adding m nonnegative terms differ by at most (m - 1) eps,
    relatively (the bound of ``assert_within_summation_rounding`` on each
    side). Each division, square root and product adds eps/2 on each side.
    nlm: W_ij = K_ij / D_i is off by at most (m + 1) eps, relatively. dsg:
    D^-1/2 K D^-1/2 is off by (m + 5) eps, its row sums and their maximum
    s_max by (2 m + 4) eps, so an entry of W = S / s_max by (3 m + 11) eps,
    relatively; on the diagonal the correction 1 - S 1 / s_max adds
    (4 m + 10) eps absolutely, as every ratio S 1 / s_max is at most 1. The
    factor 2 leaves room over first order.
    """
    eps = np.finfo(np.float64).eps
    if mode == "nlm":
        bound = 2.0 * (m + 1) * eps * want
    else:
        bound = 2.0 * eps * ((3 * m + 11) * want + (4 * m + 10) * np.eye(len(want)))
    assert np.all(np.abs(got - want) <= bound)


class TestCsrAssembly:
    """Band assembly against the CSR assemblies in ``conftest``: bitwise in the
    box-sum order, to summation rounding in the flat patch order; the
    normalizations of that K against broadcasting ones, bitwise when the
    references sum rows in the bands' order and to rounding otherwise."""

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
    @example(shape=(9, 13), patch_radius=0, window_radius=4, window_shape="box",
             bandwidth=0.015625, seed=0, levels=0)  # subnormal K_ij / D_i underflows to 0
    def test_matches_reference(self, shape, patch_radius, window_radius, window_shape,
                               bandwidth, seed, levels):
        guide = random_guide(*shape, seed, levels)
        params = KernelParams(patch_radius, window_radius, bandwidth, window_shape)
        K = build_kernel(guide, params)
        dense = K.toarray()
        # dense forms: the bands keep affinities that underflowed to 0, as the
        # reference does, but converting bands to CSR drops them
        assert np.array_equal(dense, reference_kernel(guide, params, box_order=True).toarray())
        ref = reference_kernel(guide, params)  # it stores the whole window stencil
        in_stencil = stencil(*shape, window_radius)
        assert ref.nnz == in_stencil.sum()
        assert not np.any(dense[~in_stencil])
        got = dense[in_stencil]  # row-major, as the CSR data of ref
        h = window_values(ref, shape[1], params)
        assert_within_summation_rounding(got, ref.data, h, (2 * patch_radius + 1) ** 2)

        # invariants, with no reference: bitwise symmetric, unit diagonal, and
        # 0 <= K_ij <= h(di, dj), which a negative distance would break
        assert np.array_equal(dense, dense.T)
        assert np.array_equal(K.diagonal(), np.ones(K.shape[0]))
        assert np.all(got >= 0.0)
        assert np.all(got <= h)

        Kc = K.tocsr()
        m = int(np.diff(ref.indptr).max())  # most terms in one row sum
        nlm = build_nlm(K)
        W_ref, deg_ref = reference_nlm(Kc, band_order=True)
        assert_same_csr(nlm.weights, W_ref)
        assert np.array_equal(nlm.bands.toarray(), W_ref.toarray())
        assert np.array_equal(nlm.degrees, deg_ref)
        assert_within_row_sum_rounding(nlm.bands.toarray(), reference_nlm(Kc)[0].toarray(),
                                       m, "nlm")
        assert nlm.bands is K  # scaled in place

        dsg = build_dsg(K2 := build_kernel(guide, params))
        W_ref, deg_ref, _ = reference_dsg(Kc, band_order=True)
        assert dsg.bands is K2  # scaled in place
        assert np.array_equal(dsg.degrees, deg_ref)
        # both CSR forms drop affinities that underflowed to 0
        assert_same_csr(dsg.weights, W_ref)
        assert np.array_equal(dsg.bands.toarray(), W_ref.toarray())
        assert_within_row_sum_rounding(dsg.bands.toarray(), reference_dsg(Kc)[0].toarray(),
                                       m, "dsg")

    def test_band_storage(self):
        guide, params = random_guide(6, 7, 22), KernelParams(1, 2, 0.1)
        K = build_kernel(guide, params)
        nlm = build_nlm(K)
        K2 = build_kernel(guide, params)
        dsg = build_dsg(K2)
        assert nlm.bands is K and dsg.bands is K2  # both consume their K
        for den in (nlm, dsg):  # one band set and its degrees, in either mode
            assert [f.name for f in fields(den)] == ["bands", "degrees", "mode"]
            assert not hasattr(den, "symmetric")
            # a new CSR copy on every access
            assert den.weights is not den.weights
            assert not np.shares_memory(den.weights.data, den.bands.data)

    @pytest.mark.parametrize("rows, cols", [(1, 1), (1, 7), (7, 1), (2, 2), (9, 13), (30, 17)])
    @pytest.mark.parametrize("window_radius", [1, 3, 6])
    def test_nnz_closed_form(self, rows, cols, window_radius):
        # bandwidth 0.1 on one-pixel patches: every affinity is at least exp(-50)
        K = build_kernel(random_guide(rows, cols, 23), KernelParams(0, window_radius, 0.1))
        mask = stencil(rows, cols, window_radius)
        assert np.array_equal(K.toarray() != 0, mask)
        per_axis = [sum(min(i, window_radius) + min(size - 1 - i, window_radius) + 1
                        for i in range(size)) for size in (rows, cols)]
        assert K.tocsr().nnz == per_axis[0] * per_axis[1]
        # one band per distinct flat offset j - i, ascending
        assert np.array_equal(K.offsets, np.unique(np.subtract(*np.nonzero(mask)[::-1])))


class TestBuildMemory:
    """tracemalloc sees numpy and scipy buffers; W stores 8 bytes per band entry."""

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
        w_bytes = band_bytes(den.bands)
        # both modes scale K's bands in place and hold W and the degrees only
        assert peak <= 1.2 * w_bytes
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
        assert peak <= 1.15 * band_bytes(K)


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
        guide, params = random_guide(6, 6, 10), KernelParams(1, 2, 0.15)
        den = build_nlm(build_kernel(guide, params))
        # spectrum of the nonsymmetric weights equals that of the symmetrized form
        K = build_kernel(guide, params)  # build_nlm consumed the first K
        eig = np.linalg.eigvalsh(reference_symmetric(K, den.degrees).toarray())
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

    def test_constant_guide_correction_structure(self):
        # identical rows share one correction value, rows attaining the max
        # row sum get exactly zero, and the correction is never negative
        guide = Image(np.full(81, 0.5), 9, 9)
        params = KernelParams(1, 1, 0.1)
        den = build_dsg(build_kernel(guide, params))
        # a denoiser keeps no K: S 1 with S = D^-1/2 K D^-1/2 comes from a second K,
        # summed in build_dsg's order, and s_max is its largest entry
        S = reference_symmetric(build_kernel(guide, params), den.degrees)
        one_hat = reference_row_sums(S, band_order=True)
        s_max = one_hat.max()
        corr = 1.0 - one_hat / s_max
        assert np.array_equal(den.bands.diagonal(), S.diagonal() * (1 / s_max) + corr)
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


    @given(
        shape=st.sampled_from([(1, 7), (7, 1), (5, 3), (3, 4), (9, 13), (12, 10)]),
        window_radius=st.integers(1, 6),  # 2 * window_radius >= cols on the narrow shapes
        mode=st.sampled_from(["dsg", "nlm"]),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    @example(shape=(5, 3), window_radius=2, mode="dsg", seed=1)  # offsets (0, 2), (1, -1) share
    def test_band_product_matches_csr(self, shape, window_radius, mode, seed):
        # bands sorted by offset add each row's terms in ascending column
        # order, which is the order of a CSR product
        guide = random_guide(*shape, seed)
        den = build_denoiser(guide, KernelParams(1, window_radius, 0.1, "hat"), mode)
        x = gaussian_noise(Rng(seed), den.n, 1.0)
        assert np.array_equal(apply_w(den, x), den.weights @ x)
        K = build_kernel(guide, KernelParams(1, window_radius, 0.1, "hat"))
        assert np.array_equal(K @ x, K.tocsr() @ x)


def split_denoiser(rows, cols, mode):
    """A denoiser whose 121 bands hold more than SPLIT_BYTES."""
    den = build_denoiser(synthetic_image(rows, cols), KernelParams(2, 5, 0.1, "hat"), mode)
    assert den.bands.data.nbytes >= kernel_denoise.SPLIT_BYTES
    return den


def count_half_products(monkeypatch) -> list:
    calls = []

    def counted(n_row, *args):
        calls.append((n_row, threading.get_ident()))
        return dia_matvec(n_row, *args)

    monkeypatch.setattr(kernel_denoise, "dia_matvec", counted)
    return calls


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="the split needs two CPUs")
class TestBandProduct:
    @pytest.mark.parametrize("shape", [(96, 96), (97, 96)])  # even and odd n
    @pytest.mark.parametrize("mode", ["dsg", "nlm"])
    def test_split_is_bitwise_the_full_product(self, shape, mode, monkeypatch):
        den = split_denoiser(*shape, mode)
        W, n = den.bands, den.n
        halves = count_half_products(monkeypatch)
        for seed in range(10):
            x = gaussian_noise(Rng(seed), n, 1.0)
            assert np.array_equal(band_product(W, x), W @ x)
        rows = sorted(r for r, _ in halves)  # the worker's half may come first
        assert rows == sorted([n // 2, n - n // 2] * 10)
        # a worker that starts late leaves its half to the caller, but not ten times running
        assert any(thread != threading.get_ident() for _, thread in halves)
        # the builds' own products (degrees, dsg's row sums) split too
        monkeypatch.setattr(kernel_denoise, "SPLIT_BYTES", np.inf)
        serial = build_denoiser(synthetic_image(*shape), KernelParams(2, 5, 0.1, "hat"), mode)
        assert len(halves) == 20
        assert np.array_equal(serial.degrees, den.degrees)
        assert np.array_equal(serial.bands.data, W.data)

    def test_busy_worker_leaves_its_half_to_the_caller(self, monkeypatch):
        W = split_denoiser(97, 96, "dsg").bands
        x = gaussian_noise(Rng(6), W.shape[0], 1.0)
        halves = count_half_products(monkeypatch)
        release = threading.Event()
        blocker = kernel_denoise._worker().submit(release.wait, 10)
        try:
            assert np.array_equal(band_product(W, x), W @ x)
            assert [thread for _, thread in halves] == [threading.get_ident()] * 2
        finally:
            release.set()
        assert blocker.result(timeout=10)

    def test_split_copies_no_bands(self):
        W = split_denoiser(97, 96, "dsg").bands
        x = gaussian_noise(Rng(5), W.shape[0], 1.0)
        band_product(W, x)  # starts the worker outside the trace
        tracemalloc.start()
        try:
            band_product(W, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * x.nbytes  # the output and the shifted offsets, no band data

    def test_split_checks_the_length(self):
        W = split_denoiser(96, 96, "dsg").bands
        with pytest.raises(ValueError, match="length mismatch"):
            band_product(W, np.zeros(W.shape[1] - 1))

    def test_small_bands_start_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        halves = count_half_products(monkeypatch)
        den = build_denoiser(synthetic_image(48, 48), KernelParams(2, 5, 0.1, "hat"), "dsg")
        assert den.bands.data.nbytes < kernel_denoise.SPLIT_BYTES
        x = gaussian_noise(Rng(4), den.n, 1.0)
        assert np.array_equal(apply_w(den, x), den.bands @ x)
        assert halves == []


class TestMakeGuide:
    def test_deblur_guide_is_observed(self):
        img = synthetic_image(8, 8)
        op = make_blur(8, 8, gaussian_kernel(3, 1.0))
        b = observe(op, img, 0.0, Rng(1))
        guide = make_guide(b, op)
        assert np.array_equal(guide.data, b)

    def test_inpaint_full_mask_is_median(self):
        img = synthetic_image(8, 8)
        op = make_inpaint(8, 8, 1.0, Rng(1))
        b = observe(op, img, 0.0, Rng(2))
        guide = make_guide(b, op)
        expected = ndimage.median_filter(img.grid(), size=3, mode="reflect")
        assert np.array_equal(guide.grid(), expected)

    def test_superres_constant(self):
        img = Image(np.full(64, 0.6), 8, 8)
        op = make_superres(8, 8, gaussian_kernel(3, 1.0), 2)
        b = observe(op, img, 0.0, Rng(3))
        guide = make_guide(b, op)
        assert guide.rows == 8 and guide.cols == 8
        assert np.allclose(guide.data, 0.6, atol=1e-12)

    def test_length_mismatch(self):
        op = make_blur(8, 8, gaussian_kernel(3, 1.0))
        with pytest.raises(ValueError, match="length mismatch"):
            make_guide(np.zeros(63), op)
