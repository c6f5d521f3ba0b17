from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnpcert import (
    Image,
    IterationOperator,
    KernelParams,
    Rng,
    accelerated_radius,
    apply_w,
    build_denoiser,
    build_kernel,
    check_assumption,
    gaussian_kernel,
    gaussian_noise,
    lambda_max_gram,
    make_blur,
    make_guide,
    make_inpaint,
    make_superres,
    observe,
    spectral_radius,
)
from pnpcert import kernel_denoise, spectral
from pnpcert.kernel_denoise import KernelDenoiser
from pnpcert.spectral import SpectralReport, build_report
from scipy import sparse

from conftest import (
    dense_oracle, fixed_point, materialize, momentum_companion, offset, reference_symmetric,
    spy, synthetic_image,
)


def small_problem(rows=8, cols=8, mode="dsg", fraction=0.3, seed=0):
    truth = synthetic_image(rows, cols)
    op = make_inpaint(rows, cols, fraction, Rng(seed))
    b = observe(op, truth, 0.02, Rng(seed + 1))
    guide_img = synthetic_image(rows, cols)
    # hat window: the window Toeplitz matrix is PSD, so the affinity matrix is a
    # Schur product of PSD matrices and the weights get a [0, 1] spectrum
    den = build_denoiser(guide_img, KernelParams(1, 2, 0.15, "hat"), mode)
    return op, b, den


def dense_gram(op):
    return materialize(op.gram, op.n)


class TestApplyP:
    def test_gamma_zero_is_denoiser(self):
        op, _, den = small_problem()
        it = IterationOperator("pnp", op, den, 0.0)
        x = gaussian_noise(Rng(1), op.n, 1.0)
        assert np.array_equal(it.apply(x), apply_w(den, x))

    def test_theta_zero_full_mask(self):
        rows = cols = 6
        op = make_inpaint(rows, cols, 1.0, Rng(2))
        den = build_denoiser(synthetic_image(rows, cols), KernelParams(1, 2, 0.1), "dsg")
        mu = 0.8
        it = IterationOperator("red", op, den, mu=mu, theta=0.0)
        ones = np.ones(op.n)
        assert np.abs(it.apply(ones) - 1.0 / (1.0 + mu)).max() <= 1e-12

    def test_columns_assemble_dense_product(self):
        op, _, den = small_problem()
        gamma = 0.6
        it = IterationOperator("pnp", op, den, gamma)
        assembled = materialize(it.apply, op.n)
        W = den.weights.toarray()
        expected = W @ (np.eye(op.n) - gamma * dense_gram(op))
        assert np.abs(assembled - expected).max() <= 1e-12

    def test_length_mismatch(self):
        op, _, den = small_problem()
        it = IterationOperator("pnp", op, den, 0.5)
        with pytest.raises(ValueError):
            it.apply(np.zeros(op.n + 1))

    def test_data_term_length_mismatch(self):
        op, _, den = small_problem()
        it = IterationOperator("pnp", op, den, 0.5)
        with pytest.raises(ValueError, match="length mismatch"):
            it.data_term(np.zeros(op.m + 1))

    def test_scaled_apply_matches_definition(self):
        op, _, den = small_problem(mode="nlm")
        gamma = 0.4
        it = IterationOperator("scaled_pnp", op, den, gamma)
        x = gaussian_noise(Rng(3), op.n, 1.0)
        dinv = 1.0 / den.degrees
        expected = den.weights @ (x - gamma * (dinv * op.gram(x)))
        assert np.abs(it.apply(x) - expected).max() <= 1e-14

    @pytest.mark.parametrize("mode", ["dsg", "nlm"])
    def test_offset_matches_definition(self, mode):
        # q = gamma W A^T b for pnp and gamma W D^-1 A^T b for the scaled map
        op, b, den = small_problem(mode=mode)
        gamma = 0.4
        it = IterationOperator("pnp" if mode == "dsg" else "scaled_pnp", op, den, gamma)
        scale = np.ones(op.n) if mode == "dsg" else 1.0 / den.degrees
        expected = gamma * (den.weights @ (scale * op.adjoint(b)))
        assert np.abs(offset(it, b) - expected).max() <= 1e-14

    def test_red_offset_solves_regularized_system(self):
        op, b, den = small_problem()
        mu = 0.5
        it = IterationOperator("red", op, den, mu=mu, theta=0.5)
        r = offset(it, b)
        assert np.abs(r + mu * op.gram(r) - mu * op.adjoint(b)).max() <= 1e-10


class TestConstructor:
    """``IterationOperator`` checks the parameters its kind reads."""

    @pytest.mark.parametrize("kind", ["pnp", "scaled_pnp"])
    def test_nan_gamma_rejected(self, kind):
        op, _, den = small_problem(mode="nlm")
        with pytest.raises(ValueError, match="gamma"):
            IterationOperator(kind, op, den, gamma=np.nan)

    def test_nan_mu_rejected(self):
        op, _, den = small_problem()
        with pytest.raises(ValueError, match="mu"):
            IterationOperator("red", op, den, mu=np.nan, theta=0.5)

    def test_unknown_kind_rejected(self):
        op, _, den = small_problem()
        with pytest.raises(ValueError, match="kind"):
            IterationOperator("sharpen", op, den, gamma=0.5, mu=0.5, theta=0.5)

    def test_size_mismatch_rejected(self):
        op, _, den = small_problem()
        small_op = make_inpaint(6, 6, 0.3, Rng(0))
        with pytest.raises(ValueError, match="size"):
            IterationOperator("pnp", small_op, den, 0.5)

    def test_dinv_is_not_an_init_field(self):
        assert "_dinv" not in {f.name for f in fields(IterationOperator) if f.init}
        op, _, den = small_problem(mode="nlm")
        with pytest.raises(TypeError):
            IterationOperator("scaled_pnp", op, den, 0.5, _dinv=np.ones(op.n))
        assert np.array_equal(IterationOperator("scaled_pnp", op, den, 0.5)._dinv,
                              1.0 / den.degrees)
        assert IterationOperator("pnp", op, den, 0.5)._dinv is None

    @given(value=st.none() | st.floats(allow_nan=True, allow_infinity=True))
    @settings(max_examples=60, deadline=None)
    def test_accepts_exactly_the_valid_values(self, value):
        # gamma >= 0 (pnp kinds), mu > 0 and 0 <= theta <= 1 (red); None and nan fail
        op, _, den = small_problem(mode="nlm")
        cases = [
            (lambda: IterationOperator("pnp", op, den, gamma=value), ">= 0"),
            (lambda: IterationOperator("scaled_pnp", op, den, gamma=value), ">= 0"),
            (lambda: IterationOperator("red", op, den, mu=value, theta=0.5), "> 0"),
            (lambda: IterationOperator("red", op, den, mu=0.5, theta=value), "in [0, 1]"),
        ]
        valid = {
            ">= 0": value is not None and value >= 0,
            "> 0": value is not None and value > 0,
            "in [0, 1]": value is not None and 0 <= value <= 1,
        }
        for build, rule in cases:
            if valid[rule]:
                build()
            else:
                with pytest.raises(ValueError):
                    build()


class TestSpectralRadius:
    def test_denoiser_alone_has_radius_one(self):
        op, _, den = small_problem()
        it = IterationOperator("pnp", op, den, 0.0)
        est = spectral_radius(it, tol=1e-12)
        assert est.converged
        assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_matches_dense_oracle_inpaint(self):
        op, _, den = small_problem()
        gamma = 0.9 / lambda_max_gram(op).value
        it = IterationOperator("pnp", op, den, gamma)
        _, eig = dense_oracle(it.apply, op.n)
        top = float(np.max(np.real(eig)))
        est = spectral_radius(it, tol=1e-13)
        assert est.value == pytest.approx(top, abs=1e-8)

    def test_scaled_matches_symmetrized_dense(self):
        op, _, den = small_problem(mode="nlm")
        gamma = 0.8 / lambda_max_gram(op, diag=den.degrees).value
        it = IterationOperator("scaled_pnp", op, den, gamma)
        # oracle: dense product of the symmetrized weights and scaled gram
        K = build_kernel(synthetic_image(8, 8), KernelParams(1, 2, 0.15, "hat"))
        Ws = reference_symmetric(K, den.degrees).toarray()
        dis = 1.0 / np.sqrt(den.degrees)
        Gs = np.eye(op.n) - gamma * (dis[:, None] * dense_gram(op) * dis[None, :])
        eig = np.linalg.eigvals(Ws @ Gs)
        est = spectral_radius(it, tol=1e-13)
        assert est.value == pytest.approx(float(np.max(np.real(eig))), abs=1e-8)
        # and the true (unsymmetrized) map has the same spectrum
        eig_plain = np.linalg.eigvals(materialize(it.apply, op.n))
        assert np.max(np.abs(np.sort(np.real(eig)) - np.sort(np.real(eig_plain)))) <= 1e-9

    def test_red_matches_dense(self):
        op, _, den = small_problem()
        mu, theta = 0.5, 0.5
        it = IterationOperator("red", op, den, mu=mu, theta=theta)
        _, eig = dense_oracle(it.apply, op.n)
        est = spectral_radius(it, tol=1e-13)
        assert est.value == pytest.approx(float(np.max(np.real(eig))), abs=1e-8)

    def test_unconverged_flagged(self):
        op, _, den = small_problem()
        it = IterationOperator("pnp", op, den, 0.7)
        est = spectral_radius(it, tol=1e-16, max_iter=2)
        assert not est.converged

    @pytest.mark.parametrize("tol, max_iter", [(0.0, 10), (-1e-8, 10), (np.nan, 10),
                                               (1e-8, 0), (1e-8, -1)])
    def test_invalid_arguments_rejected(self, tol, max_iter):
        op, _, den = small_problem()
        it = IterationOperator("pnp", op, den, 0.7)
        with pytest.raises(ValueError):
            spectral_radius(it, tol=tol, max_iter=max_iter)

    def test_power_vs_dense_at_n256(self):
        op, _, den = small_problem(rows=16, cols=16)
        gamma = 0.9 / lambda_max_gram(op).value
        it = IterationOperator("pnp", op, den, gamma)
        _, eig = dense_oracle(it.apply, op.n)
        top = float(np.max(np.real(eig)))
        est = spectral_radius(it, tol=1e-13, max_iter=200000)
        assert abs(est.value - top) / top <= 1e-6


class TestAcceleratedRadius:
    def test_zero(self):
        assert accelerated_radius(0.0) == 0.0

    def test_quarter(self):
        assert accelerated_radius(0.25) == 0.5

    def test_negative_eigenvalue_separates_roots(self):
        # real roots of modulus |mu| + sqrt(mu^2 - mu); the larger crosses 1 at -1/3
        assert accelerated_radius(-0.25) == pytest.approx(0.25 + np.sqrt(0.3125), abs=1e-15)
        assert accelerated_radius(-1.0 / 3.0) == pytest.approx(1.0, abs=1e-15)
        assert accelerated_radius(-0.33) < 1.0 < accelerated_radius(-0.34)
        assert accelerated_radius(1.0) == 1.0 < accelerated_radius(1.01)
        assert np.isnan(accelerated_radius(np.nan))

    @pytest.mark.parametrize("mu", [-2.0, -0.5, -0.1, 0.0, 0.3, 0.99, 1.5, 0.5 + 0.2j, -0.3 - 0.1j])
    def test_matches_companion_roots(self, mu):
        roots = np.roots([1.0, -2.0 * mu, mu])
        assert accelerated_radius(mu) == pytest.approx(np.abs(roots).max(), abs=1e-14)

    def test_companion_eigenvalues_match_sqrt_relation(self):
        op, _, den = small_problem()
        gamma = 0.9 / lambda_max_gram(op).value
        it = IterationOperator("pnp", op, den, gamma)
        P, eig_p = dense_oracle(it.apply, op.n)
        R = momentum_companion(P)
        eig_r = np.linalg.eigvals(R)
        assert abs(np.abs(eig_r).max() - np.sqrt(np.max(np.real(eig_p)))) <= 1e-7


class TestCompanionOracle:
    """The certified rate is the radius of the dense 2n x 2n companion matrix,
    on both sides of the step bound 1 / lambda_max(A^T A)."""

    @pytest.mark.parametrize("task", ["inpaint", "deblur", "superres"])
    def test_pnp_rate_matches_dense_companion(self, task):
        truth = synthetic_image(16, 16)
        taps = gaussian_kernel(5, 1.5)
        op = {
            "inpaint": lambda: make_inpaint(16, 16, 0.3, Rng(41)),
            "deblur": lambda: make_blur(16, 16, taps),
            "superres": lambda: make_superres(16, 16, taps, 2),
        }[task]()
        b = observe(op, truth, 0.02, Rng(42))
        den = build_denoiser(make_guide(b, op), KernelParams(1, 2, 0.15, "hat"), "dsg")
        checks = check_assumption(den, op)
        assert checks.spectrum_ok
        lam = lambda_max_gram(op).value
        for frac in (0.5, 0.9, 1.2, 1.5, 1.9):
            it = IterationOperator("pnp", op, den, frac / lam)
            report = build_report(task, it, frac, lam, checks, power_tol=1e-12)
            R = momentum_companion(materialize(it.apply, op.n))
            radius = float(np.abs(np.linalg.eigvals(R)).max())
            assert abs(report.rho_accel - radius) <= 1e-10, (frac, report.rho_accel, radius)
            assert report.certified == (radius < 1.0)


class TestFixedPoint:
    def test_zero_offset(self):
        op, _, den = small_problem()
        it = IterationOperator("pnp", op, den, 0.5)
        assert np.array_equal(fixed_point(it, np.zeros(op.n)), np.zeros(op.n))

    def test_matches_dense_solve(self):
        op, b, den = small_problem()
        gamma = 0.9 / lambda_max_gram(op).value
        it = IterationOperator("pnp", op, den, gamma)
        q = offset(it, b)
        x = fixed_point(it, q, tol=1e-14)
        P = materialize(it.apply, op.n)
        expected = np.linalg.solve(np.eye(op.n) - P, q)
        assert np.abs(x - expected).max() <= 1e-8

    def test_red_fixed_point_dense(self):
        op, b, den = small_problem()
        it = IterationOperator("red", op, den, mu=0.5, theta=0.5)
        r = offset(it, b)
        x = fixed_point(it, r, tol=1e-13)
        P = materialize(it.apply, op.n)
        expected = np.linalg.solve(np.eye(op.n) - P, r)
        assert np.abs(x - expected).max() <= 1e-8


class TestDenseOracle:
    def test_identity(self):
        mat, eig = dense_oracle(lambda x: x, 5)
        assert np.array_equal(mat, np.eye(5))
        assert np.allclose(eig, 1.0)

    def test_diagonal(self):
        d = np.linspace(0.1, 0.9, 9)
        mat, eig = dense_oracle(lambda x: d * x, 9)
        assert np.allclose(np.sort(eig), np.sort(d))

    def test_symmetric_path_real(self):
        den = build_denoiser(synthetic_image(5, 5), KernelParams(1, 2, 0.12), "dsg")
        _, eig = dense_oracle(lambda x: den.weights @ x, 25)
        assert eig.dtype.kind == "f"  # symmetric solver path, exactly real

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            materialize(lambda x: x, 5000)


class _ZeroOp:
    """Synthetic operator with A = 0, for violating the A 1 != 0 check."""

    def __init__(self, n):
        self.n = n
        self.m = n

    def apply(self, x):
        return np.zeros_like(x)


class TestCheckAssumption:
    def test_all_verdicts_true(self):
        op, _, den = small_problem()
        checks = check_assumption(den, op)
        assert checks.stochastic_ok
        assert checks.forward_ok
        assert checks.spectrum_ok
        assert checks.fix_ok

    @pytest.mark.parametrize("mode", ["dsg", "nlm"])
    def test_underflowing_affinities_disconnect_the_weights(self, mode):
        # window_radius >= 1 does not make W irreducible: with a step guide
        # and a tiny bandwidth every affinity across the step underflows to 0
        from scipy.sparse.csgraph import connected_components

        grid = np.zeros((8, 8))
        grid[:, 4:] = 1.0
        den = build_denoiser(Image.from_grid(grid), KernelParams(0, 1, 1e-3, "hat"), mode)
        assert connected_components(den.weights, directed=False)[0] == 2
        checks = check_assumption(den, small_problem()[0])
        assert checks.stochastic_ok and checks.spectrum_ok
        assert not checks.fix_ok
        assert checks.second_eigenvalue == pytest.approx(1.0, abs=1e-12)

    def test_split_products_give_the_serial_values(self, monkeypatch):
        # 96^2 with 121 bands is above SPLIT_BYTES; no value may move
        op = make_inpaint(96, 96, 0.3, Rng(1))
        guide = synthetic_image(96, 96)
        split = check_assumption(build_denoiser(guide, KernelParams(2, 5, 0.1, "hat"), "dsg"), op)
        monkeypatch.setattr(kernel_denoise, "SPLIT_BYTES", np.inf)
        serial = check_assumption(build_denoiser(guide, KernelParams(2, 5, 0.1, "hat"), "dsg"), op)
        assert repr(split) == repr(serial)

    @pytest.mark.parametrize("mode", ["dsg", "nlm"])
    def test_split_operator_in_both_modes(self, mode, monkeypatch):
        # a threshold of 0 splits a small instance, whose solve is quick in both modes
        op, _, _ = small_problem(12, 12)
        guide = synthetic_image(12, 12)
        checks = {}
        for threshold in (0, np.inf):
            monkeypatch.setattr(kernel_denoise, "SPLIT_BYTES", threshold)
            den = build_denoiser(guide, KernelParams(1, 2, 0.15, "hat"), mode)
            checks[threshold] = repr(check_assumption(den, op))
        assert checks[0] == checks[np.inf]

    def test_arpack_no_convergence_fails_spectrum_checks(self, monkeypatch):
        import scipy.sparse.linalg as spla

        def no_convergence(*args, **kwargs):
            raise spla.ArpackNoConvergence("ARPACK error -1: no convergence", [], [])

        monkeypatch.setattr(spla, "eigsh", no_convergence)
        op, _, den = small_problem()
        checks = check_assumption(den, op)
        assert np.isnan([checks.spectrum_low, checks.second_eigenvalue, checks.spectrum_high]).all()
        assert not checks.spectrum_ok and not checks.spectrum_converged
        assert not checks.fix_ok
        assert checks.stochastic_ok and checks.forward_ok

    @pytest.mark.parametrize("mode", ["dsg", "nlm"])
    def test_spectrum_iterations_count_applications_of_w(self, mode, monkeypatch):
        op, _, _ = small_problem()
        den = build_denoiser(synthetic_image(8, 8), KernelParams(1, 2, 0.15, "hat"), mode)
        products = []
        band_product = spectral.band_product
        monkeypatch.setattr(spectral, "band_product",
                            lambda W, x: products.append(1) or band_product(W, x))
        checks = check_assumption(den, op)
        assert checks.spectrum_converged
        # one product for the row sums, then one per Lanczos step
        assert checks.spectrum_iterations == len(products) - 1 > 0

    def test_zero_forward_fails(self):
        _, _, den = small_problem()
        checks = check_assumption(den, _ZeroOp(den.n))
        assert not checks.forward_ok
        assert checks.stochastic_ok and checks.spectrum_ok and checks.fix_ok

    def test_identity_denoiser_with_partial_mask_fails(self):
        op = make_inpaint(8, 8, 0.3, Rng(11))
        eye = sparse.identity(op.n, format="dia")
        den = KernelDenoiser(bands=eye, degrees=np.ones(op.n), mode="dsg")
        checks = check_assumption(den, op)
        # every vector is fixed: the eigenvalue 1 is not simple
        assert not checks.fix_ok
        assert checks.stochastic_ok and checks.forward_ok and checks.spectrum_ok

    @pytest.mark.parametrize("window", ["box", "hat"])
    @pytest.mark.parametrize("mode", ["dsg", "nlm"])
    @pytest.mark.parametrize("rows, cols", [(2, 2), (2, 5), (3, 3), (4, 7), (6, 6), (9, 8),
                                            (12, 12)])
    def test_matches_dense_eigenvalues(self, rows, cols, mode, window):
        guide, params = synthetic_image(rows, cols), KernelParams(1, 2, 0.15, window)
        den = build_denoiser(guide, params, mode)
        sym = (den.weights if mode == "dsg"
               else reference_symmetric(build_kernel(guide, params), den.degrees))
        eig = np.linalg.eigvalsh(sym.toarray())
        checks = check_assumption(den, make_inpaint(rows, cols, 0.5, Rng(3)))
        assert checks.spectrum_low == pytest.approx(eig[0], abs=1e-12)
        assert checks.second_eigenvalue == pytest.approx(eig[-2], abs=1e-12)
        assert checks.spectrum_high == pytest.approx(eig[-1], abs=1e-12)

    @pytest.mark.parametrize("mode", ["dsg", "nlm"])
    def test_indefinite_weights_above_dense_size(self, mode):
        # n = 4356: a box window makes W indefinite (lambda_min -0.072 for
        # dsg, -0.235 for nlm), and the spectrum check must see it at this n
        op = make_inpaint(66, 66, 0.3, Rng(15))
        den = build_denoiser(synthetic_image(66, 66), KernelParams(1, 2, 0.15, "box"), mode)
        checks = check_assumption(den, op)
        assert checks.spectrum_low < -0.05
        assert not checks.spectrum_ok
        assert checks.stochastic_ok and checks.forward_ok and checks.fix_ok

    def test_box_window_indefiniteness_is_flagged(self):
        # box windows on smooth guides can make W indefinite; the certifier
        # must detect that instead of assuming the PSD premise
        op = make_inpaint(8, 8, 0.3, Rng(14))
        den = build_denoiser(synthetic_image(8, 8), KernelParams(1, 2, 0.15, "box"), "dsg")
        checks = check_assumption(den, op)
        assert not checks.spectrum_ok
        assert checks.spectrum_low < -1e-8


class TestSpectrumInContractiveInterval:
    """Randomized instances: the step operator's spectrum stays in [0, 1)."""

    @pytest.mark.parametrize("kind", ["inpaint", "blur", "superres"])
    def test_pnp_spectrum(self, kind):
        rng = Rng(123)
        truth = synthetic_image(8, 8)
        if kind == "inpaint":
            op = make_inpaint(8, 8, 0.3, Rng(12))
        elif kind == "blur":
            op = make_blur(8, 8, gaussian_kernel(5, 1.5))
        else:
            op = make_superres(8, 8, gaussian_kernel(5, 1.5), 2)
        den = build_denoiser(truth, KernelParams(1, 2, 0.15, "hat"), "dsg")
        bound = 1.0 / lambda_max_gram(op).value
        for u in rng.uniforms(7):
            gamma = (0.02 + 0.96 * u) * bound
            it = IterationOperator("pnp", op, den, gamma)
            _, eig = dense_oracle(it.apply, op.n)
            re, im = np.real(eig), np.imag(eig)
            assert np.abs(im).max() <= 1e-8
            assert re.min() >= -1e-8
            assert re.max() < 1.0

    @pytest.mark.parametrize("theta", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    def test_red_spectrum(self, mu, theta):
        op, _, den = small_problem()
        it = IterationOperator("red", op, den, mu=mu, theta=theta)
        _, eig = dense_oracle(it.apply, op.n)
        re, im = np.real(eig), np.imag(eig)
        assert np.abs(im).max() <= 1e-8
        assert re.min() >= -1e-8
        assert re.max() < 1.0


class TestInpaintingTheorem:
    """On inpainting A^T A is the projection onto the observed pixels, which
    commutes with D, so P has the spectrum of M^1/2 S M^1/2 with M >= 0 and S
    W's symmetric form: real and in [0, 1] with either weights."""

    @given(shape=st.tuples(st.integers(2, 7), st.integers(2, 7)).filter(
               lambda rc: rc[0] * rc[1] >= 4),
           fraction=st.floats(0.125, 1.0), seed=st.integers(0, 2**32 - 1),
           pair=st.sampled_from([("pnp", "dsg"), ("pnp", "nlm"), ("red", "dsg"),
                                 ("red", "nlm"), ("scaled_pnp", "nlm")]),
           value=st.floats(0.0, 1.0, exclude_min=True), mu=st.floats(1e-3, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_spectrum_is_real_and_in_the_unit_interval(self, shape, fraction, seed, pair,
                                                       value, mu):
        rows, cols = shape
        kind, mode = pair
        op = make_inpaint(rows, cols, fraction, Rng(seed))  # 0.125 n >= 0.5 observes a pixel
        grid = synthetic_image(rows, cols).grid() + 0.1 * gaussian_noise(
            Rng(seed), op.n, 1.0).reshape(rows, cols)
        den = build_denoiser(Image.from_grid(grid), KernelParams(1, 2, 0.15, "hat"), mode)
        assert check_assumption(den, op).spectrum_ok
        if kind == "red":
            it = IterationOperator("red", op, den, mu=mu, theta=value)
        else:
            diag = den.degrees if kind == "scaled_pnp" else None
            it = IterationOperator(kind, op, den, value / lambda_max_gram(op, diag=diag).value)
        eig = np.linalg.eigvals(materialize(it.apply, op.n))
        assert np.abs(eig.imag).max() <= 1e-12
        assert -1e-12 <= eig.real.min() and eig.real.max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("mode", ["dsg", "nlm"])
    @pytest.mark.parametrize("rows, cols, fraction", [(8, 8, 0.3), (7, 9, 0.7), (16, 16, 0.3)])
    def test_pnp_at_fraction_one_is_the_hole_eigenvalue(self, rows, cols, fraction, mode):
        # M = I - Pi_O = Pi_U, so the nonzero spectrum of P is that of S_UU
        op = make_inpaint(rows, cols, fraction, Rng(5))
        guide, params = synthetic_image(rows, cols), KernelParams(1, 2, 0.15, "hat")
        den = build_denoiser(guide, params, mode)
        sym = (den.weights if mode == "dsg"
               else reference_symmetric(build_kernel(guide, params), den.degrees))
        hole = ~op.mask
        top = np.linalg.eigvalsh(sym.toarray()[np.ix_(hole, hole)])[-1]
        est = spectral_radius(IterationOperator("pnp", op, den, 1.0), tol=1e-12)
        assert est.converged
        assert abs(est.value - top) <= 1e-12

    @pytest.mark.parametrize("mode", ["dsg", "nlm"])
    @pytest.mark.parametrize("mu", [0.3, 1.0, 4.0])
    def test_red_is_pnp_on_the_same_weights(self, mu, mode):
        # (I + mu Pi_O)^-1 = I - mu / (1 + mu) Pi_O, and AB has the spectrum of BA
        op = make_inpaint(12, 12, 0.4, Rng(5))
        den = build_denoiser(synthetic_image(12, 12), KernelParams(1, 2, 0.15, "hat"), mode)
        spectra = [
            np.sort(np.linalg.eigvals(materialize(it.apply, op.n)).real)
            for it in (IterationOperator("red", op, den, mu=mu, theta=1.0),
                       IterationOperator("pnp", op, den, mu / (1.0 + mu)))
        ]
        assert np.abs(spectra[0] - spectra[1]).max() <= 1e-12


FLOOR_CASES = [
    (task, kind, mode)
    for task in ("inpaint", "deblur", "superres")
    for kind, mode in (("pnp", "dsg"), ("red", "dsg"), ("scaled_pnp", "nlm"),
                       ("pnp", "nlm"), ("red", "nlm"))
    if mode == "dsg" or kind == "scaled_pnp" or task == "inpaint"
]


class TestSpectrumFloor:
    """Where P's spectrum is real, the spectrum check's low end (read as 0
    when the check passes) floors it: at min(low, 0) for red and pnp
    fractions f <= 1, and at 1 - f above 1 when the check passes. A floor
    whose rate is within the largest-modulus eigenvalue's leaves that one
    eigenvalue to set the rate, so no smallest-real-part solve runs."""

    @given(shape=st.tuples(st.integers(3, 8), st.integers(3, 8)),
           case=st.sampled_from(FLOOR_CASES), window=st.sampled_from(["box", "hat"]),
           value=st.floats(0.01, 4.0 / 3.0, exclude_max=True),
           mu=st.floats(1e-2, 10.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_floor_bounds_the_dense_spectrum(self, shape, case, window, value, mu, seed):
        task, kind, mode = case
        rows, cols = (side + side % 2 for side in shape)  # superres decimates by 2
        taps = gaussian_kernel(5, 1.2)
        op = {"inpaint": lambda: make_inpaint(rows, cols, 0.4, Rng(seed)),
              "deblur": lambda: make_blur(rows, cols, taps),
              "superres": lambda: make_superres(rows, cols, taps, 2)}[task]()
        grid = synthetic_image(rows, cols).grid() + 0.1 * gaussian_noise(
            Rng(seed), op.n, 1.0).reshape(rows, cols)
        den = build_denoiser(Image.from_grid(grid), KernelParams(1, 2, 0.15, window), mode)
        checks = check_assumption(den, op)
        lam = lambda_max_gram(op, diag=den.degrees if kind == "scaled_pnp" else None).value
        if kind == "red":
            value = min(value, 1.0)
            it = IterationOperator("red", op, den, mu=mu, theta=value)
        else:
            it = IterationOperator(kind, op, den, value / lam)
        low = 0.0 if checks.spectrum_ok else checks.spectrum_low
        if kind == "red" or value <= 1.0:
            floor = min(low, 0.0)
        else:
            floor = 1.0 - value if checks.spectrum_ok else None
        which = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "arpack_eigenvalue", spy(spectral.arpack_eigenvalue, 2, which))
            report = build_report(task, it, value, lam, checks, power_tol=1e-12)
        assert report.rho_step.converged
        if floor is None:
            assert "SR" in which
            return
        P = materialize(it.apply, op.n)
        eig = np.linalg.eigvals(P)
        assert np.abs(eig.imag).max() <= 1e-10
        assert eig.real.min() >= floor - 1e-12
        skip = accelerated_radius(floor) <= accelerated_radius(report.rho_step.value)
        assert ("SR" in which) == (not skip)
        if skip:
            radius = np.abs(np.linalg.eigvals(momentum_companion(P))).max()
            assert abs(report.rho_accel - radius) <= 1e-8


class TestReport:
    def test_build_and_serialize(self):
        op, _, den = small_problem()
        lam_hat = lambda_max_gram(op).value
        it = IterationOperator("pnp", op, den, 0.9 / lam_hat)
        checks = check_assumption(den, op)
        report = build_report("inpaint", it, 0.9, lam_hat, checks, power_tol=1e-10)
        assert report.assumptions is checks
        assert report.certified
        assert report.rho_accel == pytest.approx(np.sqrt(report.rho_step.value))
        row = report.csv_row()
        fields = row.split(",")
        assert fields[0] == "inpaint" and fields[1] == "dsg"
        assert fields[5] == "true"
        kv = report.to_kv()
        assert "rho_P=" in kv and "rho_R=" in kv and "certified=true" in kv

    def test_unconverged_eigensolve_is_not_certified(self):
        op, _, den = small_problem()
        lam_hat = lambda_max_gram(op).value
        it = IterationOperator("pnp", op, den, 0.9 / lam_hat)
        report = build_report("inpaint", it, 0.9, lam_hat, check_assumption(den, op),
                              power_tol=1e-16, power_max_iter=1)
        assert not report.rho_step.converged and not report.certified
        assert np.isnan(report.rho_step.value) and np.isnan(report.rho_accel)
        assert "rho_P=nan" in report.to_kv() and report.csv_row().endswith(",nan,nan,false")

    def test_failed_assumption_solve_leaves_no_floor(self, monkeypatch):
        # a box window fails the spectrum check, but its low end floors P's
        # spectrum within the rate; a failed check solve leaves low = nan, so
        # the smallest-real-part solve must run (min(0.0, nan) would read 0.0)
        op = make_inpaint(8, 8, 0.3, Rng(14))
        den = build_denoiser(synthetic_image(8, 8), KernelParams(1, 2, 0.15, "box"), "dsg")
        it = IterationOperator("pnp", op, den, 0.5)
        which, solve = [], spectral.arpack_eigenvalue

        def failing_ends(apply, n, sel, *args, **kw):
            which.append(sel)
            if sel == "BE":
                return spectral.EigenEstimate(np.full(3, np.nan), False, 0)
            return solve(apply, n, sel, *args, **kw)

        checks = check_assumption(den, op)
        assert not checks.spectrum_ok and checks.spectrum_low < 0.0
        monkeypatch.setattr(spectral, "arpack_eigenvalue", spy(solve, 2, which))
        build_report("inpaint", it, 0.5, 1.0, checks)
        assert which == ["LM"]
        which.clear()
        monkeypatch.setattr(spectral, "arpack_eigenvalue", failing_ends)
        failed = check_assumption(den, op)
        assert np.isnan(failed.spectrum_low)
        report = build_report("inpaint", it, 0.5, 1.0, failed)
        assert which == ["BE", "LM", "SR"] and report.rho_step.converged

    def test_unconverged_rate_solve_makes_no_low_solve(self, monkeypatch):
        # the report is refused whatever the smallest-real-part solve finds,
        # so even a map outside the theorem (a box window) makes none
        op = make_inpaint(8, 8, 0.3, Rng(14))
        den = build_denoiser(synthetic_image(8, 8), KernelParams(1, 2, 0.15, "box"), "dsg")
        checks = check_assumption(den, op)
        assert not checks.spectrum_ok
        which = []
        monkeypatch.setattr(spectral, "arpack_eigenvalue",
                            spy(spectral.arpack_eigenvalue, 2, which))
        report = build_report("inpaint", IterationOperator("pnp", op, den, 0.9), 0.9, 1.0,
                              checks, power_tol=1e-16, power_max_iter=1)
        assert which == ["LM"]
        assert not report.certified and report.csv_row().endswith(",nan,nan,false")

    def test_solve_keys_appended_after_heuristic(self):
        op, _, den = small_problem()
        lam_hat = lambda_max_gram(op).value
        checks = check_assumption(den, op)
        report = build_report("inpaint", IterationOperator("pnp", op, den, 0.9 / lam_hat), 0.9,
                              lam_hat, checks)
        assert report.to_kv().splitlines()[-3:] == [
            "check_heuristic=false", "check_spectrum_converged=true",
            f"check_spectrum_iterations={checks.spectrum_iterations}",
        ]

    def test_header_shape(self):
        from pnpcert.spectral import SWEEP_CSV_HEADER

        assert SWEEP_CSV_HEADER == "task,denoiser_mode,gamma_or_invL,rho_P,rho_R,certified"
