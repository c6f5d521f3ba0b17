"""Independent reference for the certified spectral radius rho(P).

For the dsg denoiser W is symmetric, and the frozen update maps are similar
to symmetric positive semidefinite matrices:

* pnp: P = W (I - g A'A)              ~  M W M,   M = (I - g A'A)^1/2
* red: P = (I + mu A'A)^-1 C, C = theta W + (1 - theta) I  ~  M C M,
  M = (I + mu A'A)^-1/2

A'A is the diagonal mask for inpainting and a Fourier multiplier |H|^2 for
circular blur, so M is applied exactly (no CG, no power loop), and the top
eigenvalue of M C M comes from ARPACK. Only W, the mask and lambda_hat are
taken from the program; the blur symbol is rebuilt here from the config.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh


def blur_symbol(rows: int, cols: int, size: int, sigma: float) -> np.ndarray:
    """|H|^2 on the DFT grid for a centred, normalized Gaussian kernel."""
    ax = np.arange(size) - size // 2
    dy, dx = np.meshgrid(ax, ax, indexing="ij")
    taps = np.exp(-(dx**2 + dy**2) / (2.0 * sigma**2))
    taps /= taps.sum()
    embedded = np.zeros((rows, cols))
    np.add.at(embedded, (dy % rows, dx % cols), taps)
    return np.abs(np.fft.fft2(embedded)) ** 2


def gram_multiplier(cfg, op, rows: int, cols: int, power_fn):
    """x -> f(A'A) x for a spectral function f given as ``power_fn``."""
    if cfg.task == "inpaint":
        scale = power_fn(op.mask.astype(np.float64))
        return lambda x: scale * x
    if cfg.task == "deblur":
        scale = power_fn(blur_symbol(rows, cols, cfg.kernel_size, cfg.kernel_sigma))
        return lambda x: np.fft.ifft2(np.fft.fft2(x.reshape(rows, cols)) * scale).real.ravel()
    raise ValueError(f"no reference for task {cfg.task!r}")


def reference_radius(prob, grid_value: float) -> float:
    """rho(P) of the map ``pnpcert certify`` analyses at ``grid_value``."""
    cfg = prob.cfg
    rows, cols = prob.truth.rows, prob.truth.cols
    W = prob.denoiser.weights
    if cfg.algorithm == "pnp_fista":
        g = grid_value / prob.lambda_hat.value
        half = gram_multiplier(cfg, prob.op, rows, cols,
                               lambda s: np.sqrt(np.clip(1.0 - g * s, 0.0, None)))
        inner = lambda x: W @ x
    elif cfg.algorithm == "red_apg":
        mu, theta = grid_value / cfg.lam, grid_value
        half = gram_multiplier(cfg, prob.op, rows, cols, lambda s: 1.0 / np.sqrt(1.0 + mu * s))
        inner = lambda x: theta * (W @ x) + (1.0 - theta) * x
    else:
        raise ValueError(f"no reference for algorithm {cfg.algorithm!r}")
    n = W.shape[0]
    sym = LinearOperator((n, n), matvec=lambda x: half(inner(half(np.ravel(x)))),
                         dtype=np.float64)
    v0 = np.random.default_rng(0).standard_normal(n)
    value = eigsh(sym, k=1, which="LA", v0=v0, ncv=min(n, 40), tol=1e-12,
                  maxiter=100 * n, return_eigenvectors=False)
    return float(value[0])
