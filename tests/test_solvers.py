import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from pnpcert import (
    KernelParams,
    Image,
    MomentumSchedule,
    Rng,
    build_denoiser,
    gaussian_kernel,
    gaussian_noise,
    lambda_max_gram,
    make_blur,
    make_inpaint,
    observe,
    parse_schedule,
    pnp_fista,
    prox_quadratic,
    red_apg,
    scaled_pnp_fista,
)
from pnpcert.kernel_denoise import KernelDenoiser
from pnpcert.solvers import DivergenceError, solve_shifted_gram
from pnpcert.spectral import IterationOperator

from conftest import ORACLE_OPERATORS, dense_forward, fixed_point, offset, synthetic_image


def identity_denoiser(n: int, mode: str = "dsg") -> KernelDenoiser:
    eye = sparse.identity(n, format="dia")
    return KernelDenoiser(bands=eye, degrees=np.ones(n), mode=mode)


def inpaint_problem(rows=16, cols=16, fraction=0.3, sigma=0.03, mode="dsg", seed=0):
    truth = synthetic_image(rows, cols)
    op = make_inpaint(rows, cols, fraction, Rng(seed))
    b = observe(op, truth, sigma, Rng(seed + 1))
    guide_vec = np.zeros(op.n)
    guide_vec[op.mask] = b
    from pnpcert import make_guide

    guide = make_guide(b, op)
    den = build_denoiser(guide, KernelParams(1, 3, 0.15), mode)
    return truth, op, b, den


class TestAlpha:
    def test_beck_first_is_zero(self):
        assert MomentumSchedule("beck").alpha(1) == 0.0

    def test_beck_second_matches_recurrence(self):
        t1 = 1.0
        t2 = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t1 * t1))
        t3 = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t2 * t2))
        sched = MomentumSchedule("beck")
        assert sched.alpha(2) == (t2 - 1.0) / t3
        assert sched.alpha(2) == pytest.approx(0.28175, abs=1e-4)

    def test_beck_random_access(self):
        # cache-independent: asking for k=5 first equals sequential evaluation
        a = MomentumSchedule("beck").alpha(5)
        sched = MomentumSchedule("beck")
        for k in range(1, 5):
            sched.alpha(k)
        assert sched.alpha(5) == a

    def test_log1p_first_negative(self):
        got = MomentumSchedule("log1p").alpha(1)
        assert got == pytest.approx(1.0 - 1.0 / math.log(2.0), abs=1e-15)
        assert got < 0

    def test_chambolle(self):
        sched = MomentumSchedule("chambolle", a=3.0)
        assert sched.alpha(1) == 0.0
        assert sched.alpha(9) == pytest.approx(8.0 / 12.0)

    def test_geometric(self):
        assert MomentumSchedule("geometric").alpha(3) == 1.0 - 0.125

    def test_constant(self):
        assert MomentumSchedule("constant", c=0.25).alpha(100) == 0.25

    @pytest.mark.parametrize(
        "kind,k,gap",
        [("beck", 200000, 1e-4), ("chambolle", 200000, 1e-4),
         ("log1p", 10**9, 0.05), ("geometric", 100, 1e-15)],
    )
    def test_limits_to_one(self, kind, k, gap):
        sched = MomentumSchedule(kind)
        assert 1.0 - sched.alpha(k) <= gap
        assert sched.alpha(k) > sched.alpha(max(2, k // 100))

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            MomentumSchedule("beck").alpha(0)

    def test_parse(self):
        assert parse_schedule("beck").kind == "beck"
        assert parse_schedule("chambolle(4)").a == 4.0
        assert parse_schedule("constant(0.5)").c == 0.5
        assert parse_schedule("constant(0)").c == 0.0
        with pytest.raises(ValueError):
            parse_schedule("beck(2)")
        with pytest.raises(ValueError):
            parse_schedule("nope")


class TestProxQuadratic:
    def test_tiny_mu_is_identity(self):
        _, op, b, _ = inpaint_problem()
        v = gaussian_noise(Rng(20), op.n, 1.0)
        x = prox_quadratic(op, b, 1e-12, v)
        assert np.abs(x - v).max() <= 1e-8

    def test_inpaint_closed_form(self):
        _, op, b, _ = inpaint_problem(sigma=0.02)
        v = gaussian_noise(Rng(21), op.n, 1.0)
        mu = 0.7
        x = prox_quadratic(op, b, mu, v)
        expected = v.copy()
        expected[op.mask] = (v[op.mask] + mu * b) / (1.0 + mu)
        assert np.abs(x - expected).max() <= 1e-14

    def test_blur_matches_dense_solve(self):
        truth = synthetic_image(8, 8)
        op = make_blur(8, 8, gaussian_kernel(5, 1.2))
        b = observe(op, truth, 0.01, Rng(22))
        v = gaussian_noise(Rng(23), 64, 1.0)
        mu = 1.3
        x = prox_quadratic(op, b, mu, v)
        dense = np.zeros((64, 64))
        e = np.zeros(64)
        for i in range(64):
            e[i] = 1.0
            dense[:, i] = e + mu * op.gram(e)
            e[i] = 0.0
        expected = np.linalg.solve(dense, v + mu * op.adjoint(b))
        assert np.abs(x - expected).max() <= 1e-12

    @given(
        st.sampled_from(sorted(ORACLE_OPERATORS)),
        st.floats(1e-2, 10.0),
        st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_closed_form_matches_dense_solve(self, name, mu, seed):
        op = ORACLE_OPERATORS[name]()
        a = dense_forward(op)
        rng = Rng(seed)
        b = gaussian_noise(rng, op.m, 1.0)
        v = gaussian_noise(rng, op.n, 1.0)
        x = prox_quadratic(op, b, mu, v)
        expected = np.linalg.solve(np.eye(op.n) + mu * a.T @ a, v + mu * a.T @ b)
        assert np.abs(x - expected).max() <= 1e-12

    def test_cg_settings_are_ignored(self):
        _, op, b, _ = inpaint_problem()
        v = gaussian_noise(Rng(26), op.n, 1.0)
        exact = prox_quadratic(op, b, 0.7, v)
        assert np.array_equal(prox_quadratic(op, b, 0.7, v, cg_tol=1.0, cg_max_iter=1), exact)

    def test_mu_nonpositive_rejected(self):
        _, op, b, _ = inpaint_problem()
        with pytest.raises(ValueError):
            prox_quadratic(op, b, 0.0, np.zeros(op.n))


class TestPnpFista:
    def test_identity_denoiser_projects_to_measurements(self):
        truth = synthetic_image(8, 8)
        op = make_inpaint(8, 8, 0.4, Rng(30))
        b = observe(op, truth, 0.0, Rng(31))
        it = IterationOperator("pnp", op, identity_denoiser(op.n), 0.9)
        trace = pnp_fista(it, b, MomentumSchedule("constant", c=0.0), np.zeros(op.n),
                          max_iter=500, stop_tol=1e-13)
        assert np.abs(trace.final[op.mask] - b).max() <= 1e-8
        assert np.abs(trace.final[~op.mask]).max() == 0.0

    def test_fixed_point_is_stationary(self):
        _, op, b, den = inpaint_problem()
        gamma = 0.9 / lambda_max_gram(op).value
        it = IterationOperator("pnp", op, den, gamma)
        x_star = fixed_point(it, offset(it, b), tol=1e-14)
        trace = pnp_fista(it, b, MomentumSchedule("beck"), x_star, max_iter=5)
        first_step = it.apply(x_star) + offset(it, b)
        assert np.linalg.norm(first_step - x_star) <= 1e-10 * (1 + np.linalg.norm(x_star))
        assert np.linalg.norm(trace.final - x_star) <= 1e-9

    def test_tail_rate_within_certified_bound(self):
        _, op, b, den = inpaint_problem()
        gamma = 0.9 / lambda_max_gram(op).value
        it = IterationOperator("pnp", op, den, gamma)
        from pnpcert.spectral import accelerated_radius, spectral_radius

        rho = spectral_radius(it, tol=1e-12)
        assert rho.converged and rho.value < 1
        rate = accelerated_radius(rho.value)
        x_star = fixed_point(it, offset(it, b), tol=1e-14)
        trace = pnp_fista(it, b, MomentumSchedule("beck"), np.zeros(op.n),
                          max_iter=20000, stop_tol=1e-9, x_ref=x_star)
        tail = slice(3 * trace.iterations // 4, trace.iterations)
        slope = np.polyfit(trace.k[tail], np.log(trace.dist_to_ref[tail]), 1)[0]
        assert slope <= math.log(rate) + 0.02

    def test_non_accelerated_converges(self):
        _, op, b, den = inpaint_problem()
        it = IterationOperator("pnp", op, den, 0.9 / lambda_max_gram(op).value)
        trace = pnp_fista(it, b, MomentumSchedule("constant", c=0.0), np.zeros(op.n),
                          max_iter=20000, stop_tol=1e-10)
        assert trace.converged

    def test_divergence_guard(self):
        _, op, b, den = inpaint_problem()
        it = IterationOperator("pnp", op, den, 2000.0)
        with pytest.raises(DivergenceError) as err:
            pnp_fista(it, b, MomentumSchedule("beck"), np.zeros(op.n), max_iter=2000)
        assert err.value.iteration >= 1

    def test_gamma_required(self):
        # the map pnp_fista iterates cannot be built without a step size
        _, op, _, den = inpaint_problem()
        with pytest.raises(ValueError):
            IterationOperator("pnp", op, den, None)

    def test_fixed_point_consistency_after_stop(self):
        _, op, b, den = inpaint_problem()
        it = IterationOperator("pnp", op, den, 0.9 / lambda_max_gram(op).value)
        stop_tol = 1e-9
        trace = pnp_fista(it, b, MomentumSchedule("beck"), np.zeros(op.n),
                          max_iter=20000, stop_tol=stop_tol)
        assert trace.converged
        step = it.apply(trace.final) + offset(it, b)
        assert np.linalg.norm(trace.final - step) <= 10 * stop_tol * np.linalg.norm(
            trace.final
        )

    def test_guide_warmup_runs(self):
        truth, op, b, _ = inpaint_problem()
        params = KernelParams(1, 3, 0.15)
        from pnpcert import make_guide

        guide = make_guide(b, op)
        den = build_denoiser(guide, params, "dsg")
        rebuild = lambda x: IterationOperator(
            "pnp", op, build_denoiser(Image(x, 16, 16), params, "dsg"), 0.5)
        trace = pnp_fista(IterationOperator("pnp", op, den, 0.5), b, MomentumSchedule("beck"),
                          np.zeros(op.n), max_iter=50, rebuild=rebuild, warmup_iters=3)
        assert np.all(np.isfinite(trace.final))

    def test_warmup_without_factory_rejected(self):
        # warm-up iterations need a ``rebuild`` that returns the next map
        _, op, b, den = inpaint_problem()
        with pytest.raises(ValueError):
            pnp_fista(IterationOperator("pnp", op, den, 0.5), b, MomentumSchedule("beck"),
                      np.zeros(op.n), warmup_iters=2)


class TestRedApg:
    # L = 2 and lambda = 1: theta = 1/L and mu = theta / lambda
    THETA = MU = 0.5

    def test_fixed_point_is_stationary(self):
        _, op, b, den = inpaint_problem()
        it = IterationOperator("red", op, den, mu=self.MU, theta=self.THETA)
        x_star = fixed_point(it, offset(it, b), tol=1e-14)
        # the stationary pre-image of x*: v* = theta W x* + (1 - theta) x*
        w_xstar = den.weights @ x_star
        v_star = self.THETA * w_xstar + (1.0 - self.THETA) * x_star
        trace = red_apg(it, b, MomentumSchedule("beck"), v_star, max_iter=10)
        dists = [np.linalg.norm(x) for x in (trace.final - x_star,)]
        assert max(dists) <= 1e-8

    def test_theta_one_blends_to_pure_denoise(self):
        _, op, b, den = inpaint_problem()
        mu = 1.0  # L = 1, lambda = 1
        it = IterationOperator("red", op, den, mu=mu, theta=1.0)
        v0 = gaussian_noise(Rng(40), op.n, 1.0)
        trace = red_apg(it, b, MomentumSchedule("beck"), v0, max_iter=3)
        # replicate the three iterations manually with theta = 1
        v = v0.copy()
        x_prev = None
        for k in range(1, 4):
            x = solve_shifted_gram(op, mu, v + mu * op.adjoint(b))
            if k == 1:
                x_prev = x.copy()
            a = MomentumSchedule("beck").alpha(k)
            y = x + a * (x - x_prev)
            v = den.weights @ y
            x_prev = x
        assert np.allclose(trace.final, x_prev, atol=1e-12)

    def test_initialization_independence(self):
        _, op, b, den = inpaint_problem()
        it = IterationOperator("red", op, den, mu=self.MU, theta=self.THETA)
        sched = MomentumSchedule("beck")
        t0 = red_apg(it, b, sched, np.zeros(op.n), max_iter=20000, stop_tol=1e-10)
        t1 = red_apg(it, b, sched, Rng(9).uniforms(op.n), max_iter=20000, stop_tol=1e-10)
        diff = np.linalg.norm(t0.final - t1.final) / np.linalg.norm(t0.final)
        assert diff <= 1e-6

    def test_trace_has_psnr_when_truth_given(self):
        truth, op, b, den = inpaint_problem()
        it = IterationOperator("red", op, den, mu=self.MU, theta=self.THETA)
        trace = red_apg(it, b, MomentumSchedule("beck"), np.zeros(op.n), max_iter=20,
                        truth=truth.data)
        assert trace.psnr is not None and len(trace.psnr) == trace.iterations


class TestScaledPnpFista:
    def test_unit_degrees_match_plain(self):
        truth = synthetic_image(8, 8)
        op = make_inpaint(8, 8, 0.5, Rng(50))
        b = observe(op, truth, 0.0, Rng(51))
        den_dsg = build_denoiser(
            synthetic_image(8, 8), KernelParams(1, 2, 0.15), "dsg"
        )
        # synthetic nlm-mode denoiser with the same weights and unit degrees
        den_unit = KernelDenoiser(bands=den_dsg.bands, degrees=np.ones(op.n), mode="nlm")
        sched = MomentumSchedule("beck")
        a = pnp_fista(IterationOperator("pnp", op, den_dsg, 0.7), b, sched, np.zeros(op.n),
                      max_iter=60, stop_tol=0.0)
        c = scaled_pnp_fista(IterationOperator("scaled_pnp", op, den_unit, 0.7), b, sched,
                             np.zeros(op.n), max_iter=60, stop_tol=0.0)
        assert np.abs(a.final - c.final).max() <= 1e-12

    def test_fixed_point_is_stationary(self):
        _, op, b, den = inpaint_problem(mode="nlm")
        gamma = 0.9 / lambda_max_gram(op, diag=den.degrees).value
        it = IterationOperator("scaled_pnp", op, den, gamma)
        x_star = fixed_point(it, offset(it, b), tol=1e-14)
        trace = scaled_pnp_fista(it, b, MomentumSchedule("beck"), x_star, max_iter=5)
        assert np.linalg.norm(trace.final - x_star) <= 1e-9

    def test_requires_nlm_mode(self):
        # the scaled map, which carries the degree diagonal, needs nlm weights
        _, op, _, den = inpaint_problem(mode="dsg")
        with pytest.raises(ValueError):
            IterationOperator("scaled_pnp", op, den, 0.5)

    def test_two_initializations_same_limit(self):
        _, op, b, den = inpaint_problem(mode="nlm")
        gamma = 0.9 / lambda_max_gram(op, diag=den.degrees).value
        it = IterationOperator("scaled_pnp", op, den, gamma)
        sched = MomentumSchedule("beck")
        t0 = scaled_pnp_fista(it, b, sched, np.zeros(op.n), max_iter=20000, stop_tol=1e-10)
        t1 = scaled_pnp_fista(it, b, sched, Rng(52).uniforms(op.n), max_iter=20000,
                              stop_tol=1e-10)
        assert np.linalg.norm(t0.final - t1.final) / np.linalg.norm(t0.final) <= 1e-6


class TestTraceCsv:
    def test_full_columns(self, tmp_path):
        truth, op, b, den = inpaint_problem()
        ref = np.zeros(op.n)
        trace = pnp_fista(IterationOperator("pnp", op, den, 0.5), b, MomentumSchedule("beck"),
                          np.zeros(op.n), max_iter=5, truth=truth.data, x_ref=ref)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,alpha,step_norm,dist_to_ref,psnr"
        assert len(lines) == trace.iterations + 1
        row = lines[1].split(",")
        assert int(row[0]) == 1
        assert float(row[2]) == trace.step_norm[0]
        assert float(row[3]) == trace.dist_to_ref[0]

    def test_missing_columns_empty(self, tmp_path):
        _, op, b, den = inpaint_problem()
        trace = pnp_fista(IterationOperator("pnp", op, den, 0.5), b, MomentumSchedule("beck"),
                          np.zeros(op.n), max_iter=3)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        row = path.read_text().splitlines()[1].split(",")
        assert row[3] == "" and row[4] == ""


@given(st.integers(0, 2**31))
@settings(max_examples=15, deadline=None)
def test_step_map_is_affine(seed):
    # the frozen one-step update: Step(x) - Step(y) is linear in x - y
    _, op, b, den = inpaint_problem()
    gamma = 0.45
    it = IterationOperator("pnp", op, den, gamma)
    q = offset(it, b)
    rng = Rng(seed)
    x = gaussian_noise(rng, op.n, 1.0)
    y = gaussian_noise(rng, op.n, 1.0)
    lhs = (it.apply(x) + q) - (it.apply(y) + q)
    rhs = it.apply(x - y)
    assert np.abs(lhs - rhs).max() <= 1e-10


@pytest.mark.parametrize("kind", ["pnp", "red", "scaled"])
def test_matches_hand_rolled_recurrence(kind):
    # x_{k+1} = P y_k + q, y_k = x_k + alpha_k (x_k - x_{k-1}), from apply/offset
    _, op, b, den = inpaint_problem(mode="nlm" if kind == "scaled" else "dsg")
    sched = MomentumSchedule("log1p")  # alpha_1 != 0 exercises the start
    x0 = Rng(53).uniforms(op.n)
    max_iter = 25
    if kind == "red":
        it = IterationOperator("red", op, den, mu=0.5, theta=0.5)
        trace = red_apg(it, b, sched, x0, max_iter=max_iter, stop_tol=0.0)
        x = x_prev = prox_quadratic(op, b, it.mu, x0)
    else:
        map_kind, solve = {"pnp": ("pnp", pnp_fista),
                           "scaled": ("scaled_pnp", scaled_pnp_fista)}[kind]
        it = IterationOperator(map_kind, op, den, 0.45)
        trace = solve(it, b, sched, x0, max_iter=max_iter, stop_tol=0.0)
        x_prev, x = x0, it.apply(x0) + offset(it, b)
    q = offset(it, b)
    steps = [np.linalg.norm(x - x_prev)]  # red's first step is zero: x_0 := x_1
    for k in range(1, max_iter):
        y = x + sched.alpha(k) * (x - x_prev)
        x_prev, x = x, it.apply(y) + q
        steps.append(np.linalg.norm(x - x_prev))
    assert trace.iterations == max_iter
    assert np.linalg.norm(trace.final - x) <= 1e-12 * np.linalg.norm(x)
    assert np.array_equal(trace.k, np.arange(1, max_iter + 1))
    assert trace.alpha.tolist() == [sched.alpha(k) for k in range(1, max_iter + 1)]
    if kind == "red":
        assert trace.step_norm[0] == 0.0
    assert np.abs(trace.step_norm - steps).max() <= 1e-12 * np.linalg.norm(x)


def test_one_solver_for_every_algorithm():
    # the map carries the scheme, so the algorithm names share one loop
    assert pnp_fista is red_apg is scaled_pnp_fista
