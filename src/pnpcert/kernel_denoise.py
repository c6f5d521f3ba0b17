"""Data-driven linear kernel denoisers built from a guide image.

The affinity between pixels i and j is a Gaussian of their guide-patch
distance, masked by a window function around i. Two normalizations of the
affinity matrix K are provided: the row-stochastic non-local-means weights
D^-1 K, and the symmetric doubly stochastic variant (DSG-NLM) built from
the two-sided normalization D^-1/2 K D^-1/2 plus a diagonal correction.
Every row uses the same window stencil, so K and W are banded: they are
stored as scipy DIA matrices with one band per flat window offset
di * cols + dj (Saad, Iterative Methods for Sparse Linear Systems, 3.4).
The bands are sorted by offset, so a product adds each row's terms in
ascending column order, as a CSR product does. Both normalizations scale
K's bands in place into W's, so a denoiser holds one band set.

Both act on images as a fixed sparse matrix-vector product once built, so
the denoiser is an exactly linear map. Every product with a band set goes
through ``band_product``: from ``SPLIT_BYTES`` of band data on, it runs the
top and bottom row halves on two threads, bitwise equal to the one-thread
product. ``make_guide`` derives the guide from the measurements by the
forward operator's kind alone.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np
from scipy import ndimage, sparse
from scipy.sparse._sparsetools import dia_matvec  # scipy's private DIA kernel: y += A x in place

from .fwdops import ForwardOp, check_len
from .imgcore import Image

# Band data, in bytes, from which a product runs as two row halves on two
# threads (``band_product``).
SPLIT_BYTES = 8 * 2**20


@dataclass(frozen=True)
class KernelParams:
    """Affinity construction parameters.

    ``window_radius >= 1`` puts every pixel's 4-neighborhood in its window,
    but that alone does not make the normalized weights irreducible: an
    affinity that underflows to 0 (a small ``bandwidth`` across a guide
    edge) removes its edge, and the graph can fall apart into components.
    ``spectral.check_assumption`` then finds the eigenvalue 1 repeated.
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
    """Weights W as bands, and the degrees D of their K, in either mode. dsg's W
    is symmetric; nlm's W = D^-1 K is similar to D^1/2 W D^-1/2 = D^-1/2 K D^-1/2."""

    bands: sparse.dia_matrix    # W, row-stochastic
    degrees: np.ndarray         # D = K 1
    mode: str                   # "nlm" | "dsg"

    @property
    def n(self) -> int:
        return self.bands.shape[0]

    @property
    def weights(self) -> sparse.csr_matrix:
        """W as a new CSR matrix on every access, without stored zeros.

        For code that reads CSR arrays, such as the benchmark's tracer and
        oracle; the package itself multiplies with ``bands``.
        """
        return self.bands.tocsr()


def _window_value(di: int, dj: int, params: KernelParams) -> float:
    r = params.window_radius
    if params.window_shape == "box":
        return 1.0
    return (1.0 - abs(di) / (r + 1.0)) * (1.0 - abs(dj) / (r + 1.0))


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


def build_kernel(guide: Image, params: KernelParams) -> sparse.dia_matrix:
    """Assemble the sparse affinity matrix from the guide image.

    K_ij = exp(-||patch_i - patch_j||^2 / (2 * bandwidth^2 * p)) * h(i - j)
    with p the patch pixel count. Patches use symmetric boundary reflection;
    the search window is truncated at image borders. Each offset's patch
    distances are box sums of the squared differences of the padded guide
    and its shift (Darbon et al., ISBI 2008): O(n) per offset, not O(n p),
    and never negative. Each unordered pair is computed once and written to
    both of its bands, so K is symmetric bitwise; K_ii = 1 exactly.

    A DIA band o holds the entry of row i, column j = i + o at position j.
    Reshaped to the image grid, it is indexed by the column pixel, so pixel
    offset (di, dj) fills one rectangle of band o and one of band -o. When
    cols <= 2 * window_radius, two pixel offsets can share a flat offset;
    they fill disjoint positions of its band. Positions with no entry hold 0.
    """
    rows, cols = guide.rows, guide.cols
    n = rows * cols
    pr, wr = params.patch_radius, params.window_radius
    side = 2 * pr + 1
    p = side * side
    padded = np.pad(guide.grid(), pr, mode="symmetric")
    denom = 2.0 * params.bandwidth**2 * p
    pairs = [(di, dj) for di in range(0, min(wr, rows - 1) + 1)
             for dj in range(-wr if di > 0 else 1, wr + 1) if abs(dj) < cols]
    flat = {di * cols + dj for di, dj in pairs}
    offsets = np.array(sorted(flat | {0} | {-o for o in flat}), dtype=np.int32)
    band = {int(o): k for k, o in enumerate(offsets)}
    data = np.zeros((offsets.size, rows, cols))
    data[band[0]] = 1.0
    for di, dj in pairs:
        rb, ca, cb = rows - di, max(0, -dj), min(cols, cols - dj)
        a, b = np.s_[:rb, ca:cb], np.s_[di:, ca + dj : cb + dj]
        pa, pb = np.s_[: rb + 2 * pr, ca : cb + 2 * pr], np.s_[di:, ca + dj : cb + dj + 2 * pr]
        d2 = _box_sums((padded[pa] - padded[pb]) ** 2, side)
        vals = np.exp(-d2 / denom) * _window_value(di, dj, params)
        # K[a, b] sits at column b of band o, K[b, a] at column a of band -o
        o = di * cols + dj
        data[band[o]][b] = vals
        data[band[-o]][a] = vals
    return sparse.dia_matrix((data.reshape(offsets.size, n), offsets), shape=(n, n))


def _scale(bands: sparse.dia_matrix, left: np.ndarray, right=None) -> sparse.dia_matrix:
    """In place, and returned: every entry K_ij becomes K_ij * left_i (* right_j)."""
    n = bands.shape[0]
    for row, o in zip(bands.data, bands.offsets):
        lo, hi = max(0, o), min(n, n + o)  # the band's in-matrix columns j = i + o
        row[lo:hi] *= left[lo - o : hi - o]
    if right is not None:  # outside [lo, hi) a band holds zeros, which stay 0
        bands.data *= right
    return bands


@functools.cache
def _worker():
    """The one thread that multiplies bottom halves, started by the first split product."""
    from concurrent.futures import ThreadPoolExecutor  # imported here: serial runs never load it
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="band-product")


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_worker.cache_clear)  # a forked child has no worker


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def band_product(bands: sparse.dia_matrix, x: np.ndarray) -> np.ndarray:
    """``bands @ x`` for a flat x, bitwise; every product with a band set goes through here.

    From ``SPLIT_BYTES`` of band data on, with at least two CPUs allowed, the
    calling thread multiplies the top n//2 rows while one persistent worker
    thread multiplies the rest; scipy's DIA kernel releases the GIL. The
    bottom half reads the same data array with the offsets shifted by n//2,
    so W is never copied, and each half fills its slice of one output that
    the calling thread allocates (an allocation on the worker would grow a
    second malloc arena: 0.4-0.7 MB of peak RSS at 256^2). If the worker has
    not started its half when the top half is done, the calling thread takes
    that half back. Each row still adds its band terms in offset order from
    0, so the result is bitwise ``bands @ x``.

    Medians per product on 2 cores, 121 bands, one thread -> two: 48^2
    (2.1 MiB) 0.16-0.18 -> 0.16-0.20 ms, 72^2 (4.8 MiB) 0.39-0.49 -> 0.31-0.38
    ms, 96^2 (8.5 MiB) 0.65-0.72 -> 0.46-0.59 ms, 256^2 (60.5 MiB) 8.8-9.0 ->
    4.7-4.8 ms. Below the threshold a split saves at most about 0.1 ms, inside
    the run-to-run spread, so there the product is ``bands @ x`` on one thread.
    """
    if bands.data.nbytes < SPLIT_BYTES or _cpus() < 2:
        return bands @ x
    (n, cols), h = bands.shape, bands.shape[0] // 2
    x = check_len(x, cols)  # the kernel does not check lengths
    y = np.zeros(n)
    shape = (len(bands.offsets), bands.data.shape[1])  # bands, band length
    bottom = (n - h, cols, *shape, bands.offsets + h, bands.data, x, y[h:])
    lower = _worker().submit(dia_matvec, *bottom)
    dia_matvec(h, cols, *shape, bands.offsets, bands.data, x, y[:h])
    if lower.cancel():  # the worker has not started: its CPU is taken, so this thread goes on
        dia_matvec(*bottom)
    else:
        lower.result()
    return y


def _degrees(kernel: sparse.dia_matrix) -> np.ndarray:
    """D = K 1, each row summed in ascending column order."""
    deg = band_product(kernel, np.ones(kernel.shape[1]))
    if np.any(deg <= 0):
        raise ValueError("affinity matrix has a nonpositive row sum")
    return deg


def build_nlm(kernel: sparse.dia_matrix) -> KernelDenoiser:
    """Row-stochastic weights W = D^-1 K with D = diag(K 1). K is consumed: its
    bands are scaled in place and become W's, so build a second K for any other use."""
    deg = _degrees(kernel)
    return KernelDenoiser(bands=_scale(kernel, 1.0 / deg), degrees=deg, mode="nlm")


def build_dsg(kernel: sparse.dia_matrix) -> KernelDenoiser:
    """Symmetric doubly stochastic weights.

    W = S / s_max + diag(1 - S 1 / s_max) with S = D^-1/2 K D^-1/2 and
    s_max the largest entry of S 1. The diagonal correction is nonnegative
    by construction and restores exact row sums of 1; it is added to the
    offset-0 band. K is consumed, as by ``build_nlm``; s_max is not kept.
    """
    deg = _degrees(kernel)
    dis = 1.0 / np.sqrt(deg)
    W = _scale(kernel, dis, dis)
    one_hat = band_product(W, np.ones(W.shape[1]))
    s_max = float(one_hat.max())
    W.data *= 1 / s_max
    W.data[np.flatnonzero(W.offsets == 0)[0]] += 1.0 - one_hat / s_max
    return KernelDenoiser(bands=W, degrees=deg, mode="dsg")


def build_denoiser(guide: Image, params: KernelParams, mode: str) -> KernelDenoiser:
    kernel = build_kernel(guide, params)
    if mode == "nlm":
        return build_nlm(kernel)
    if mode == "dsg":
        return build_dsg(kernel)
    raise ValueError(f"unknown denoiser mode: {mode!r}")


def apply_w(denoiser: KernelDenoiser, x: np.ndarray) -> np.ndarray:
    return band_product(denoiser.bands, check_len(x, denoiser.n))


def make_guide(observed: np.ndarray, op: ForwardOp) -> Image:
    """Guide image from the measurements, fixed before any solver iteration,
    chosen by the operator's kind (a superres factor of 1 builds a blur):

    inpaint: A^T b (unobserved pixels 0), then a 3x3 median filter;
    blur: the observed image verbatim;
    superres: bicubic upsampling of the observed image by the stride factor.
    """
    observed = check_len(observed, op.m)
    if op.kind == "inpaint":
        grid = ndimage.median_filter(
            op.adjoint(observed).reshape(op.rows_in, op.cols_in), size=3, mode="reflect"
        )
        return Image.from_grid(grid)
    if op.kind == "blur":
        return Image(observed, op.rows_in, op.cols_in)
    small = observed.reshape(op.meas_shape)
    # 'mirror' keeps the cubic-spline prefilter exact (constants reproduce)
    grid = ndimage.zoom(small, op.factor, order=3, mode="mirror", grid_mode=True)
    return Image.from_grid(grid)
