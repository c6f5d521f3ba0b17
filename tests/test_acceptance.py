"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Instances are deterministic (seeded) and desk-scale.
Spectrum-sensitive instances use the hat search window, whose banded window
matrix is positive semidefinite, so the denoiser weights have a [0, 1]
spectrum by construction rather than by luck.
"""

import functools
import math
import time

import numpy as np
import pytest

from pnpcert import (
    Image,
    IterationOperator,
    KernelParams,
    MomentumSchedule,
    Rng,
    accelerated_radius,
    build_denoiser,
    build_dsg,
    build_kernel,
    build_nlm,
    gaussian_kernel,
    gaussian_noise,
    lambda_max_gram,
    make_blur,
    make_guide,
    make_inpaint,
    make_superres,
    observe,
    pnp_fista,
    prox_quadratic,
    red_apg,
    save_pgm,
    scaled_pnp_fista,
    spectral_radius,
)
from pnpcert.cli import main
from pnpcert.imgcore import psnr_vec

from conftest import (
    dense_oracle, fixed_point, materialize, momentum_companion, offset, reference_symmetric,
    synthetic_image,
)
from test_kernel_denoise import brute_force_kernel


def criterion(num, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {num} [{label}]: FAIL", flush=True)
                raise
            print(f"\ncriterion {num} [{label}]: PASS ({time.time() - start:.1f}s)",
                  flush=True)
        return wrapper
    return decorate


HAT = KernelParams(patch_radius=2, window_radius=5, bandwidth=0.1, window_shape="hat")


def _inpaint32():
    truth = synthetic_image(32, 32)
    op = make_inpaint(32, 32, 0.3, Rng(100))
    b = observe(op, truth, 0.03, Rng(101))
    den = build_denoiser(make_guide(b, op), HAT, "dsg")
    return truth, op, b, den


@pytest.fixture(scope="module")
def inpaint32():
    return _inpaint32()


@criterion(1, "denoiser properties on random guides")
def test_criterion_1():
    params = KernelParams()  # shipped defaults: 5x5 patches, 11x11 box window
    for seed in range(10):
        guide = Image(Rng(seed).uniforms(256), 16, 16)
        ones = np.ones(256)
        # both normalizations scale their K in place, so each gets its own
        for den in (build_nlm(build_kernel(guide, params)),
                    build_dsg(build_kernel(guide, params))):
            assert np.abs(den.weights @ ones - 1.0).max() <= 1e-12
            if den.mode == "dsg":
                defect = np.abs((den.weights - den.weights.T).toarray()).max()
                assert defect <= 1e-14
                dense = den.weights.toarray()
            else:
                K = build_kernel(guide, params)
                dense = reference_symmetric(K, den.degrees).toarray()
            eig = np.sort(np.linalg.eigvalsh(dense))
            assert eig[0] >= -1e-8
            assert eig[-1] <= 1.0 + 1e-8
            assert eig[-2] < 1.0


@criterion(2, "step-operator spectra inside [0, 1)")
def test_criterion_2():
    truth = synthetic_image(16, 16)
    taps = gaussian_kernel(9, 2.0)
    ops = {
        "inpaint": make_inpaint(16, 16, 0.3, Rng(201)),
        "deblur": make_blur(16, 16, taps),
        "superres": make_superres(16, 16, taps, 2),
    }
    for task, op in ops.items():
        b = observe(op, truth, 0.02, Rng(202))
        den = build_denoiser(make_guide(b, op), HAT, "dsg")
        lam = lambda_max_gram(op).value
        for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
            it = IterationOperator("pnp", op, den, frac / lam)
            _, eig = dense_oracle(it.apply, op.n)
            re, im = np.real(eig), np.imag(eig)
            assert np.abs(im).max() <= 1e-8
            assert re.min() >= -1e-8
            assert re.max() <= 1.0 - 1e-10
        for mu in (0.5, 1.0, 2.0):
            for theta in (0.25, 0.5, 1.0):
                it = IterationOperator("red", op, den, mu=mu, theta=theta)
                _, eig = dense_oracle(it.apply, op.n)
                re, im = np.real(eig), np.imag(eig)
                assert np.abs(im).max() <= 1e-8
                assert re.min() >= -1e-8
                assert re.max() <= 1.0 - 1e-10


@criterion(3, "companion eigenvalues follow the sqrt relation")
def test_criterion_3():
    truth = synthetic_image(8, 8)
    op = make_inpaint(8, 8, 0.4, Rng(301))
    b = observe(op, truth, 0.02, Rng(302))
    den = build_denoiser(make_guide(b, op), KernelParams(1, 2, 0.1, "hat"), "dsg")
    gamma = 0.9 / lambda_max_gram(op).value
    it = IterationOperator("pnp", op, den, gamma)
    P, eig_p = dense_oracle(it.apply, op.n)
    eig_r = np.linalg.eigvals(momentum_companion(P))
    assert abs(np.abs(eig_r).max() - math.sqrt(np.max(np.real(eig_p)))) <= 1e-7


def _convergence_battery(b, solver, it, label):
    n = it.n
    run = functools.partial(solver, it, b, max_iter=20000, stop_tol=1e-9)
    inits = [np.zeros(n), it.op.adjoint(b), Rng(404).uniforms(n)]
    sched = MomentumSchedule("beck")
    finals = [run(sched, x0).final for x0 in inits]
    for i in range(len(finals)):
        for j in range(i + 1, len(finals)):
            rel = np.linalg.norm(finals[i] - finals[j]) / np.linalg.norm(finals[i])
            assert rel <= 1e-6, f"{label}: inits {i},{j} differ by {rel:.2e}"

    x_star = fixed_point(it, offset(it, b), tol=1e-13)
    rel = np.linalg.norm(finals[0] - x_star) / np.linalg.norm(x_star)
    assert rel <= 1e-6, f"{label}: limit vs fixed point {rel:.2e}"

    rho = spectral_radius(it, tol=1e-12)
    assert rho.converged and rho.value < 1.0
    rate = accelerated_radius(rho.value)
    trace = run(MomentumSchedule("beck"), np.zeros(n), x_ref=x_star)
    tail = slice(3 * trace.iterations // 4, trace.iterations)
    slope = np.polyfit(trace.k[tail], np.log(trace.dist_to_ref[tail]), 1)[0]
    assert slope <= math.log(rate) + 0.02, f"{label}: slope {slope:.4f} vs rate {rate:.6f}"


@criterion(4, "global linear convergence at 32x32")
def test_criterion_4(inpaint32):
    truth, op, b, den = inpaint32
    gamma = 0.9 / lambda_max_gram(op).value
    _convergence_battery(b, pnp_fista, IterationOperator("pnp", op, den, gamma), "pnp")
    # lambda = 1, L = 2: theta = 1/L, mu = theta / lambda
    _convergence_battery(b, red_apg, IterationOperator("red", op, den, mu=0.5, theta=0.5), "red")


@criterion(5, "scaled iteration with plain nlm weights")
def test_criterion_5():
    truth = synthetic_image(32, 32)
    op = make_blur(32, 32, gaussian_kernel(9, 2.0))
    b = observe(op, truth, 0.03, Rng(501))
    den = build_denoiser(make_guide(b, op), HAT, "nlm")
    lam_d = lambda_max_gram(op, diag=den.degrees).value
    it = IterationOperator("scaled_pnp", op, den, 0.9 / lam_d)
    sched = MomentumSchedule("beck")
    a = scaled_pnp_fista(it, b, sched, np.zeros(op.n), max_iter=20000, stop_tol=1e-9)
    c = scaled_pnp_fista(it, b, sched, Rng(502).uniforms(op.n), max_iter=20000,
                         stop_tol=1e-9)
    rel = np.linalg.norm(a.final - c.final) / np.linalg.norm(a.final)
    assert rel <= 1e-6

    # dense certification of the symmetrized product at 16x16
    truth16 = synthetic_image(16, 16)
    op16 = make_blur(16, 16, gaussian_kernel(9, 2.0))
    b16 = observe(op16, truth16, 0.03, Rng(503))
    den16 = build_denoiser(make_guide(b16, op16), HAT, "nlm")
    gamma16 = 0.9 / lambda_max_gram(op16, diag=den16.degrees).value
    it16 = IterationOperator("scaled_pnp", op16, den16, gamma16)
    _, eig = dense_oracle(it16.apply, op16.n)
    re, im = np.real(eig), np.imag(eig)
    assert np.abs(im).max() <= 1e-8
    assert re.min() >= -1e-8
    assert re.max() <= 1.0 - 1e-10


def _write_cfg(tmp_path, name, **values):
    lines = [f"{k} = {v}" for k, v in values.items()]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def _base_cfg(tmp_path, task, algorithm, out):
    return dict(
        task=task, image=str(tmp_path / "truth32.pgm"), crop=0, seed=6,
        noise_sigma=0.03, mask_fraction=0.3, kernel_size=9, kernel_sigma=2.0,
        denoiser="dsg", patch_radius=2, window_radius=5, bandwidth=0.1,
        window_shape="hat", algorithm=algorithm, schedule="beck", gamma=0.9,
        out=str(tmp_path / out),
    )


@criterion(6, "certification sweep: 20 rows, all rates below one")
def test_criterion_6(tmp_path):
    save_pgm(synthetic_image(32, 32), tmp_path / "truth32.pgm")
    rows = []
    for task in ("inpaint", "deblur"):
        for algorithm in ("pnp_fista", "red_apg"):
            out = f"{task}_{algorithm}"
            cfg = _write_cfg(tmp_path, f"{out}.cfg",
                             **_base_cfg(tmp_path, task, algorithm, out))
            code = main(["certify", "--config", str(cfg),
                         "--grid", "0.10,0.25,0.50,0.75,0.90",
                         "--power-tol", "1e-9"])
            assert code == 0
            text = (tmp_path / out / "certify.csv").read_text().splitlines()
            assert text[0] == "task,denoiser_mode,gamma_or_invL,rho_P,rho_R,certified"
            rows.extend(text[1:])
    assert len(rows) == 20
    for row in rows:
        fields = row.split(",")
        assert float(fields[4]) < 1.0
        assert fields[5] == "true"


@criterion(7, "momentum schedules all reach the common limit")
def test_criterion_7(tmp_path):
    save_pgm(synthetic_image(32, 32), tmp_path / "truth32.pgm")
    cfg = _write_cfg(tmp_path, "sched.cfg",
                     **_base_cfg(tmp_path, "inpaint", "pnp_fista", "sched"))
    specs = "beck,chambolle(3),log1p,geometric,constant(0)"
    code = main(["schedules", "--config", str(cfg), "--schedules", specs,
                 "--ref-iters", "20000"])
    assert code == 0
    out = tmp_path / "sched"
    x_star = np.load(out / "reference.npy")
    threshold = 1e-5 * np.linalg.norm(x_star)
    for name in ("beck", "chambolle_3", "log1p", "geometric", "constant_0"):
        lines = (out / f"schedule_{name}.csv").read_text().splitlines()
        assert lines[0] == "k,alpha,step_norm,dist_to_ref,psnr"
        dists = np.array([float(line.split(",")[3]) for line in lines[1:]])
        assert len(dists) <= 20000
        assert dists.min() <= threshold, f"{name}: min distance {dists.min():.3e}"


@criterion(8, "dual-route oracle equivalences")
def test_criterion_8():
    truth = synthetic_image(8, 8)
    taps = gaussian_kernel(3, 0.8)
    ops = [
        make_inpaint(8, 8, 0.4, Rng(801)),
        make_blur(8, 8, taps),
        make_superres(8, 8, taps, 2),
    ]
    # adjoint identity, 100 random pairs per operator
    for op in ops:
        for seed in range(100):
            rng = Rng(8000 + seed)
            x = gaussian_noise(rng, op.n, 1.0)
            y = gaussian_noise(rng, op.m, 1.0)
            lhs = op.apply(x) @ y
            assert abs(lhs - x @ op.adjoint(y)) <= 1e-12 * (1.0 + abs(lhs))

    # closed-form prox against a dense solve at 8x8
    op = ops[1]
    b = observe(op, truth, 0.02, Rng(802))
    v = gaussian_noise(Rng(803), 64, 1.0)
    mu = 0.8
    got = prox_quadratic(op, b, mu, v)
    system = np.eye(64) + mu * materialize(op.gram, 64)
    expected = np.linalg.solve(system, v + mu * op.adjoint(b))
    assert np.abs(got - expected).max() <= 1e-12

    # ARPACK on the iterated map against the dense eigensolver at n = 256
    op16 = make_inpaint(16, 16, 0.3, Rng(804))
    b16 = observe(op16, synthetic_image(16, 16), 0.02, Rng(805))
    den16 = build_denoiser(make_guide(b16, op16), HAT, "dsg")
    gamma = 0.9 / lambda_max_gram(op16).value
    it = IterationOperator("pnp", op16, den16, gamma)
    _, eig = dense_oracle(it.apply, op16.n)
    top = float(np.max(np.real(eig)))
    est = spectral_radius(it, tol=1e-13, max_iter=200000)
    assert abs(est.value - top) / top <= 1e-6

    # kernel assembly against the brute-force double loop at 5x5
    guide = Image(Rng(807).uniforms(25), 5, 5)
    params = KernelParams(1, 2, 0.12, "box")
    K = build_kernel(guide, params).toarray()
    assert np.abs(K - brute_force_kernel(guide, params)).max() <= 1e-15


@criterion(9, "end-to-end deblurring improves over the observation")
def test_criterion_9():
    truth = synthetic_image(64, 64)
    op = make_blur(64, 64, gaussian_kernel(25, 1.6))
    b = observe(op, truth, 0.03, Rng(901))
    psnr_observed = psnr_vec(b, truth.data)
    den = build_denoiser(make_guide(b, op), HAT, "dsg")
    gamma = 0.9 / lambda_max_gram(op).value

    pnp = pnp_fista(IterationOperator("pnp", op, den, gamma), b, MomentumSchedule("beck"),
                    np.zeros(op.n), max_iter=300, stop_tol=1e-9)
    assert psnr_vec(pnp.final, truth.data) > psnr_observed

    # lambda = 1, L = 2: theta = 1/L, mu = theta / lambda
    red = red_apg(IterationOperator("red", op, den, mu=0.5, theta=0.5), b,
                  MomentumSchedule("beck"), np.zeros(op.n), max_iter=150, stop_tol=1e-9)
    assert psnr_vec(red.final, truth.data) > psnr_observed
