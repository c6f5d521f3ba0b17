"""Data-driven linear kernel denoisers built from a guide image.

The affinity between pixels i and j is a Gaussian of their guide-patch
distance, masked by a window function around i. Two normalizations of the
affinity matrix K are provided: the row-stochastic non-local-means weights
D^-1 K, and the symmetric doubly stochastic variant (DSG-NLM) built from
the two-sided normalization D^-1/2 K D^-1/2 plus a diagonal correction.

Both act on images as a fixed sparse matrix-vector product once built, so
the denoiser is an exactly linear map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage, sparse

from .fwdops import ForwardOp
from .imgcore import Image

DENSE_CAP = 4096  # largest n for which dense materialization paths are allowed


@dataclass(frozen=True)
class KernelParams:
    """Affinity construction parameters.

    ``window_radius >= 1`` keeps the affinity graph strongly connected on the
    pixel grid (every pixel reaches its 4-neighborhood), which makes the
    normalized weights irreducible.
    """

    patch_radius: int = 2
    window_radius: int = 5
    bandwidth: float = 0.1
    window_shape: str = "box"  # "box" | "hat"

    def __post_init__(self):
        if self.patch_radius < 0:
            raise ValueError("patch_radius must be >= 0")
        if self.window_radius < 1:
            raise ValueError("window_radius must be >= 1")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.window_shape not in ("box", "hat"):
            raise ValueError(f"unknown window_shape: {self.window_shape!r}")


@dataclass(frozen=True)
class KernelDenoiser:
    """Sparse affinity matrix K, its row sums D, and normalized weights W."""

    kernel: sparse.csr_matrix   # K, symmetric nonnegative, positive diagonal
    degrees: np.ndarray         # D = K 1
    weights: sparse.csr_matrix  # W, row-stochastic
    mode: str                   # "nlm" | "dsg"
    norm_scale: float | None = None  # max of D^-1/2 K D^-1/2 1 (dsg only)

    @property
    def n(self) -> int:
        return self.weights.shape[0]


def _window_value(di: int, dj: int, params: KernelParams) -> float:
    r = params.window_radius
    if params.window_shape == "box":
        return 1.0
    return (1.0 - abs(di) / (r + 1.0)) * (1.0 - abs(dj) / (r + 1.0))


def build_kernel(guide: Image, params: KernelParams) -> sparse.csr_matrix:
    """Assemble the sparse affinity matrix from the guide image.

    K_ij = exp(-||patch_i - patch_j||^2 / (2 * bandwidth^2 * p)) * h(i - j)
    with p the patch pixel count. Patches use symmetric boundary reflection;
    the search window is truncated at image borders. Each unordered pair is
    computed once and mirrored, so K is symmetric bitwise; K_ii = 1 exactly.
    """
    rows, cols = guide.rows, guide.cols
    n = rows * cols
    pr, wr = params.patch_radius, params.window_radius
    side = 2 * pr + 1
    p = side * side
    padded = np.pad(guide.grid(), pr, mode="symmetric")
    patches = sliding_window_view(padded, (side, side)).reshape(rows, cols, p)
    denom = 2.0 * params.bandwidth**2 * p
    idx = np.arange(n).reshape(rows, cols)

    ii_parts = [idx.ravel()]
    jj_parts = [idx.ravel()]
    val_parts = [np.ones(n)]
    for di in range(0, wr + 1):
        for dj in range(-wr if di > 0 else 1, wr + 1):
            ra, rb = max(0, -di), min(rows, rows - di)
            ca, cb = max(0, -dj), min(cols, cols - dj)
            if ra >= rb or ca >= cb:
                continue
            pa = patches[ra:rb, ca:cb]
            pb = patches[ra + di : rb + di, ca + dj : cb + dj]
            d2 = ((pa - pb) ** 2).sum(axis=2)
            vals = (np.exp(-d2 / denom) * _window_value(di, dj, params)).ravel()
            ii = idx[ra:rb, ca:cb].ravel()
            jj = idx[ra + di : rb + di, ca + dj : cb + dj].ravel()
            ii_parts.extend((ii, jj))
            jj_parts.extend((jj, ii))
            val_parts.extend((vals, vals))
    K = sparse.coo_matrix(
        (np.concatenate(val_parts), (np.concatenate(ii_parts), np.concatenate(jj_parts))),
        shape=(n, n),
    ).tocsr()
    K.sort_indices()
    return K


def build_nlm(kernel: sparse.csr_matrix) -> KernelDenoiser:
    """Row-stochastic weights W = D^-1 K with D = diag(K 1)."""
    deg = np.asarray(kernel.sum(axis=1)).ravel()
    if np.any(deg <= 0):
        raise ValueError("affinity matrix has a nonpositive row sum")
    W = sparse.csr_matrix(kernel.multiply(1.0 / deg[:, None]))
    W.sort_indices()
    return KernelDenoiser(kernel=kernel, degrees=deg, weights=W, mode="nlm")


def build_dsg(kernel: sparse.csr_matrix) -> KernelDenoiser:
    """Symmetric doubly stochastic weights.

    W = S / s_max + diag(1 - S 1 / s_max) with S = D^-1/2 K D^-1/2 and
    s_max the largest entry of S 1. The diagonal correction is nonnegative
    by construction and restores exact row sums of 1.
    """
    deg = np.asarray(kernel.sum(axis=1)).ravel()
    if np.any(deg <= 0):
        raise ValueError("affinity matrix has a nonpositive row sum")
    dis = 1.0 / np.sqrt(deg)
    S = kernel.multiply(dis[:, None]).multiply(dis[None, :]).tocsr()
    one_hat = np.asarray(S.sum(axis=1)).ravel()
    s_max = float(one_hat.max())
    W = sparse.csr_matrix(S / s_max + sparse.diags(1.0 - one_hat / s_max))
    W.sort_indices()
    return KernelDenoiser(kernel=kernel, degrees=deg, weights=W, mode="dsg", norm_scale=s_max)


def build_denoiser(guide: Image, params: KernelParams, mode: str) -> KernelDenoiser:
    kernel = build_kernel(guide, params)
    if mode == "nlm":
        return build_nlm(kernel)
    if mode == "dsg":
        return build_dsg(kernel)
    raise ValueError(f"unknown denoiser mode: {mode!r}")


def apply_w(denoiser: KernelDenoiser, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.size != denoiser.n:
        raise ValueError(f"length mismatch: expected {denoiser.n}, got {x.size}")
    return denoiser.weights @ x


def symmetric_weights(denoiser: KernelDenoiser) -> sparse.csr_matrix:
    """Two-sided normalization D^-1/2 K D^-1/2; similar to the nlm weights."""
    dis = 1.0 / np.sqrt(denoiser.degrees)
    return denoiser.kernel.multiply(dis[:, None]).multiply(dis[None, :]).tocsr()


def make_guide(task: str, observed: np.ndarray, op: ForwardOp) -> Image:
    """Guide image from the measurements, fixed before any solver iteration.

    inpaint: zero-fill unobserved pixels, then a 3x3 median filter;
    deblur: the observed image verbatim;
    superres: bicubic upsampling of the observed image by the stride factor.
    """
    observed = np.asarray(observed, dtype=np.float64).reshape(-1)
    if observed.size != op.m:
        raise ValueError(f"length mismatch: expected {op.m} measurements, got {observed.size}")
    kind_for_task = {"inpaint": "inpaint", "deblur": "blur", "superres": "superres"}
    if task not in kind_for_task:
        raise ValueError(f"unknown task: {task!r}")
    if kind_for_task[task] != op.kind:
        raise ValueError(f"task {task!r} does not match operator kind {op.kind!r}")
    if task == "inpaint":
        filled = np.zeros(op.n)
        filled[op.mask] = observed
        grid = ndimage.median_filter(
            filled.reshape(op.rows_in, op.cols_in), size=3, mode="reflect"
        )
        return Image.from_grid(grid)
    if task == "deblur":
        return Image(observed, op.rows_in, op.cols_in)
    small = observed.reshape(op.rows_in // op.factor, op.cols_in // op.factor)
    # 'mirror' keeps the cubic-spline prefilter exact (constants reproduce)
    grid = ndimage.zoom(small, op.factor, order=3, mode="mirror", grid_mode=True)
    return Image.from_grid(grid)
