"""Data-driven linear kernel denoisers built from a guide image.

The affinity between pixels i and j is a Gaussian of their guide-patch
distance, masked by a window function around i. Two normalizations of the
affinity matrix K are provided: the row-stochastic non-local-means weights
D^-1 K, and the symmetric doubly stochastic variant (DSG-NLM) built from
the two-sided normalization D^-1/2 K D^-1/2 plus a diagonal correction.
K's CSR arrays are filled directly from its window stencil; W scales a new
data vector and shares K's index arrays.

Both act on images as a fixed sparse matrix-vector product once built, so
the denoiser is an exactly linear map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import ndimage, sparse

from .fwdops import ForwardOp
from .imgcore import Image

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
    """Weights W sharing the index arrays of K, and D; dsg keeps no K."""

    kernel: sparse.csr_matrix | None  # K, symmetric nonnegative, positive diagonal
    degrees: np.ndarray         # D = K 1
    weights: sparse.csr_matrix  # W, row-stochastic
    mode: str                   # "nlm" | "dsg"
    norm_scale: float | None = None  # max of D^-1/2 K D^-1/2 1 (dsg only)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @cached_property
    def symmetric(self) -> sparse.csr_matrix:
        """W's symmetric similar form, built once: W for dsg, D^-1/2 K D^-1/2 for nlm."""
        if self.kernel is None:
            return self.weights
        dis = 1.0 / np.sqrt(self.degrees)
        return _scaled(self.kernel, dis, dis)


def _window_value(di: int, dj: int, params: KernelParams) -> float:
    r = params.window_radius
    if params.window_shape == "box":
        return 1.0
    return (1.0 - abs(di) / (r + 1.0)) * (1.0 - abs(dj) / (r + 1.0))


def _stencil(size: int, wr: int) -> tuple[np.ndarray, np.ndarray]:
    """Per position on one axis: the in-image window offsets below it, and in all."""
    below = np.minimum(np.arange(size), wr)
    return below, below + np.minimum(np.arange(size)[::-1], wr) + 1


def _kernel_nnz(rows: int, cols: int, wr: int) -> int:
    return int(_stencil(rows, wr)[1].sum()) * int(_stencil(cols, wr)[1].sum())


def _index_dtype(nnz: int, n: int) -> type:
    """int32 CSR indices while nnz and n fit, as ``coo_matrix.tocsr()`` chooses."""
    return np.int32 if max(nnz, n) <= np.iinfo(np.int32).max else np.int64


def _box_sums(sq: np.ndarray, side: int) -> np.ndarray:
    """Sums of sq over every side x side block: down the rows, then across, in shift order."""
    m, k = sq.shape[0] - side + 1, sq.shape[1] - side + 1
    down = sq[:m].copy()
    for s in range(1, side):
        down += sq[s : s + m]
    out = down[:, :k].copy()
    for s in range(1, side):
        out += down[:, s : s + k]
    return out


def build_kernel(guide: Image, params: KernelParams) -> sparse.csr_matrix:
    """Assemble the sparse affinity matrix from the guide image.

    K_ij = exp(-||patch_i - patch_j||^2 / (2 * bandwidth^2 * p)) * h(i - j)
    with p the patch pixel count. Patches use symmetric boundary reflection;
    the search window is truncated at image borders. Each offset's patch
    distances are box sums of the squared differences of the padded guide
    and its shift (Darbon et al., ISBI 2008): O(n) per offset, not O(n p),
    and never negative. Each unordered pair is computed once and written to
    both of its slots, so K is symmetric bitwise; K_ii = 1 exactly. Row
    (r, c) keeps offset (di, dj) at slot diag[r, c] + di * nc[c] + dj, where
    diag[r, c] holds K_ii and nc[c] counts the in-image column offsets.
    """
    rows, cols = guide.rows, guide.cols
    n = rows * cols
    pr, wr = params.patch_radius, params.window_radius
    side = 2 * pr + 1
    p = side * side
    padded = np.pad(guide.grid(), pr, mode="symmetric")
    denom = 2.0 * params.bandwidth**2 * p
    (below_r, nr), (below_c, nc) = _stencil(rows, wr), _stencil(cols, wr)
    nnz = _kernel_nnz(rows, cols, wr)
    indptr = np.zeros(n + 1, dtype=(itype := _index_dtype(nnz, n)))
    np.cumsum(np.outer(nr, nc), out=indptr[1:], dtype=itype)
    diag = indptr[:-1].reshape(rows, cols) + (below_r[:, None] * nc + below_c)
    idx = np.arange(n, dtype=itype).reshape(rows, cols)
    data, indices = np.empty(nnz), np.empty(nnz, dtype=itype)
    data[diag], indices[diag] = 1.0, idx
    for di in range(0, wr + 1):
        for dj in range(-wr if di > 0 else 1, wr + 1):
            ra, rb = max(0, -di), min(rows, rows - di)
            ca, cb = max(0, -dj), min(cols, cols - dj)
            if ra >= rb or ca >= cb:
                continue
            a, b = np.s_[ra:rb, ca:cb], np.s_[ra + di : rb + di, ca + dj : cb + dj]
            pa = np.s_[ra : rb + 2 * pr, ca : cb + 2 * pr]
            pb = np.s_[ra + di : rb + di + 2 * pr, ca + dj : cb + dj + 2 * pr]
            d2 = _box_sums((padded[pa] - padded[pb]) ** 2, side)
            vals = np.exp(-d2 / denom) * _window_value(di, dj, params)
            # pixel a stores offset (di, dj); its partner b stores (-di, -dj)
            slot_a = diag[a] + (di * nc[ca:cb] + dj)
            slot_b = diag[b] - (di * nc[ca + dj : cb + dj] + dj)
            data[slot_a], indices[slot_a] = vals, idx[b]
            data[slot_b], indices[slot_b] = vals, idx[a]
    return sparse.csr_matrix((data, indices, indptr), shape=(n, n))


_CHUNK = 1 << 16  # entries per gather in _scaled


def _scaled(kernel: sparse.csr_matrix, left: np.ndarray, right=None) -> sparse.csr_matrix:
    """K_ij * left_i (* right_j) in K's CSR order; it shares K's index arrays."""
    data = np.repeat(left, np.diff(kernel.indptr))
    data *= kernel.data
    if right is not None:  # gathered a chunk at a time: no second nnz-sized array
        for s in range(0, data.size, _CHUNK):
            data[s : s + _CHUNK] *= right[kernel.indices[s : s + _CHUNK]]
    return sparse.csr_matrix((data, kernel.indices, kernel.indptr), shape=kernel.shape)


def build_nlm(kernel: sparse.csr_matrix) -> KernelDenoiser:
    """Row-stochastic weights W = D^-1 K with D = diag(K 1)."""
    deg = np.asarray(kernel.sum(axis=1)).ravel()
    if np.any(deg <= 0):
        raise ValueError("affinity matrix has a nonpositive row sum")
    W = _scaled(kernel, 1.0 / deg)
    return KernelDenoiser(kernel=kernel, degrees=deg, weights=W, mode="nlm")


def build_dsg(kernel: sparse.csr_matrix) -> KernelDenoiser:
    """Symmetric doubly stochastic weights.

    W = S / s_max + diag(1 - S 1 / s_max) with S = D^-1/2 K D^-1/2 and
    s_max the largest entry of S 1. The diagonal correction is nonnegative
    by construction and restores exact row sums of 1; it is added in place
    at the diagonal slots, which K must store.
    """
    deg = np.asarray(kernel.sum(axis=1)).ravel()
    if np.any(deg <= 0):
        raise ValueError("affinity matrix has a nonpositive row sum")
    rows = np.arange(kernel.shape[0], dtype=kernel.indices.dtype)
    diag = np.flatnonzero(kernel.indices == np.repeat(rows, np.diff(kernel.indptr)))
    dis = 1.0 / np.sqrt(deg)
    W = _scaled(kernel, dis, dis)
    one_hat = np.asarray(W.sum(axis=1)).ravel()
    s_max = float(one_hat.max())
    W.data *= 1 / s_max
    W.data[diag] += 1.0 - one_hat / s_max
    return KernelDenoiser(kernel=None, degrees=deg, weights=W, mode="dsg", norm_scale=s_max)


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
