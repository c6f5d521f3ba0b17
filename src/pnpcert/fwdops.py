"""Matrix-free forward operators with exact adjoints and closed-form solves.

Three measurement models on a rows x cols pixel grid:

* ``inpaint``  -- row selection of a random pixel subset,
* ``blur``     -- 2-D circular convolution with a normalized nonnegative kernel,
* ``superres`` -- circular blur followed by stride-``factor`` decimation.

Circular boundary handling makes the blur a multiplier in the 2-D DFT basis
(Hansen, Nagy & O'Leary, *Deblurring Images*, SIAM 2006): the kernel, with
its centred taps wrapped onto the grid, is transformed once at construction
and apply/adjoint multiply by the symbol H and its conjugate. The same
structure gives the shifted Gram solve (I + mu A^T A)^-1 and the largest
Gram eigenvalue in closed form: A^T A is diag(mask) for inpainting and
|H|^2 for blur; for blur+decimation A A^T is circulant on the coarse grid,
with the alias average of |H|^2 as symbol, so the solve follows by the
Woodbury identity (Zhao et al., IEEE TIP 2016).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft

from .imgcore import Image, Rng, gaussian_noise, save_pgm


def arpack_start(n: int) -> np.ndarray:
    """The start vector of every ARPACK solve: n standard normals from a fixed
    seed of numpy's default generator, so each solve is deterministic."""
    return np.random.default_rng(0x9D2C5680).standard_normal(n)


@dataclass(frozen=True)
class EigenEstimate:
    """Eigenvalues, exact (0 iterations) or from ARPACK (nan if unconverged)."""

    value: float | complex | np.ndarray  # one value, or an ascending array of k > 1
    converged: bool
    iterations: int  # applications of the operator


def check_arpack_args(tol: float, max_iter: int) -> None:
    """ValueError unless 0 < tol < 1 and max_iter >= 1: a relative tolerance
    of 1 or more (inf included) accepts any vector as an eigenvector."""
    if not (0 < tol < 1 and max_iter >= 1):
        raise ValueError("eigensolver tol must lie in (0, 1) and max_iter be at least 1")


def arpack_eigenvalue(apply, n: int, which: str, tol: float, max_iter: int,
                      k: int = 1) -> EigenEstimate:
    """``k`` eigenvalues of the linear map ``apply`` on R^n, from ``arpack_start(n)``;
    every eigensolve of the package goes through here.

    ``which`` is ARPACK's selector: "LA" or "BE" (both ends) for a symmetric
    map (``eigsh``), "LM" or "SR" for any (``eigs``; a non-real eigenvalue
    comes back complex). ``check_arpack_args`` checks ``tol`` (relative) and
    ``max_iter`` (restart cap); ARPACK's size rule is checked here: ValueError
    unless n > k (eigsh) or n > k + 1 (eigs). For k > 1 the values come back
    ascending. If ARPACK does not converge, every value is nan. On any other
    ARPACK error, the map is applied to the start vector once more: an exactly
    zero image (almost surely the zero map) gives 0.0 values, converged, else nan.
    """
    check_arpack_args(tol, max_iter)
    symmetric = which in ("LA", "BE")
    bound = k if symmetric else k + 1
    if n <= bound:
        solver = "eigsh" if symmetric else "eigs"
        raise ValueError(f"ARPACK {solver} needs n > {bound} for {k} eigenvalue(s), got n = {n}")
    # imported here: loading ARPACK costs about 8 MB of RSS that run never uses
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigs, eigsh

    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        return apply(x.reshape(-1))

    try:
        mu = (eigsh if symmetric else eigs)(
            LinearOperator((n, n), matvec=counted, dtype=np.float64), k=k, which=which,
            v0=arpack_start(n), tol=tol, maxiter=max_iter, return_eigenvectors=False,
        )
    except ArpackNoConvergence:
        return EigenEstimate(float("nan") if k == 1 else np.full(k, np.nan), False, calls)
    except ArpackError:  # e.g. -9, "starting vector is zero": the map sent it to 0
        value = float("nan") if np.any(counted(arpack_start(n))) else 0.0
        return EigenEstimate(value if k == 1 else np.full(k, value), value == 0.0, calls)
    if k > 1:
        return EigenEstimate(np.sort(mu), True, calls)
    (mu,) = mu
    return EigenEstimate(float(mu.real) if mu.imag == 0 else complex(mu), True, calls)


@dataclass(frozen=True)
class ForwardOp:
    """Linear measurement operator A acting on flat row-major images."""

    kind: str  # "inpaint" | "blur" | "superres"
    rows_in: int
    cols_in: int
    m: int
    mask: np.ndarray | None = None    # bool, length n (inpaint)
    kernel: np.ndarray | None = None  # 2-D taps summing to 1 (blur/superres)
    factor: int = 1
    # rfft2 of the kernel wrapped onto the grid (blur/superres)
    symbol: np.ndarray | None = None
    # eigenvalues of A A^T in rfft2 layout on the measurement grid: |H|^2 for
    # blur, the mean of |H|^2 over the factor x factor aliases for superres
    aat_symbol: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.rows_in * self.cols_in

    @property
    def meas_shape(self) -> tuple[int, int]:
        return self.rows_in // self.factor, self.cols_in // self.factor

    def _convolve(self, g: np.ndarray, transpose: bool) -> np.ndarray:
        if self.kernel.size == 1:  # a single normalized tap is the identity
            return g
        h = np.conj(self.symbol) if transpose else self.symbol
        return fft.irfft2(fft.rfft2(g) * h, s=g.shape)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = check_len(x, self.n)
        if self.kind == "inpaint":
            return x[self.mask]
        out = self._convolve(x.reshape(self.rows_in, self.cols_in), transpose=False)
        if self.kind == "superres":
            out = out[:: self.factor, :: self.factor]
        return out.reshape(-1)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        y = check_len(y, self.m)
        if self.kind == "inpaint":
            out = np.zeros(self.n)
            out[self.mask] = y
            return out
        if self.kind == "superres":
            up = np.zeros((self.rows_in, self.cols_in))
            up[:: self.factor, :: self.factor] = y.reshape(self.meas_shape)
            g = up
        else:
            g = y.reshape(self.rows_in, self.cols_in)
        return self._convolve(g, transpose=True).reshape(-1)

    def gram(self, x: np.ndarray) -> np.ndarray:
        """A^T A x, composed from apply and adjoint (never rediscretized).

        For inpainting it is x with the unobserved pixels set to +0.0, which
        is bitwise ``adjoint(apply(x))`` (signed zeros and nan included)
        without the gather and the scatter.
        """
        if self.kind == "inpaint":
            return np.where(self.mask, check_len(x, self.n), 0.0)
        return self.adjoint(self.apply(x))


def check_len(v: np.ndarray, n: int) -> np.ndarray:
    """v as a flat float64 array; ValueError unless it has n entries (every length check)."""
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if v.size != n:
        raise ValueError(f"length mismatch: expected {n}, got {v.size}")
    return v


def l2_norm(v: np.ndarray) -> float:
    """Euclidean norm of a flat vector, summed by numpy's own einsum loop.

    numpy's linear-algebra norm calls BLAS ``ddot``, whose result changes in
    its last bits with the BLAS thread count, and whose threads compete with
    the band product for the cores; this sum runs on the calling thread.
    """
    return math.sqrt(np.einsum("i,i->", v, v))


def _wrap_kernel(rows: int, cols: int, kernel: np.ndarray) -> np.ndarray:
    """The centred kernel wrapped onto a rows x cols grid.

    Taps that land on the same pixel (kernels wider than the grid) add up,
    which is what circular convolution with the full kernel does.
    """
    kh, kw = kernel.shape
    dy, dx = np.indices(kernel.shape)
    h = np.zeros((rows, cols))
    np.add.at(h, ((dy - kh // 2) % rows, (dx - kw // 2) % cols), kernel)
    return h


def _validate_kernel(kernel: np.ndarray) -> np.ndarray:
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 2:
        raise ValueError("kernel must be 2-D")
    if kernel.shape[0] % 2 == 0 or kernel.shape[1] % 2 == 0:
        raise ValueError(f"kernel side lengths must be odd, got {kernel.shape}")
    if np.any(kernel < 0):
        raise ValueError("kernel taps must be nonnegative")
    total = kernel.sum()
    if total <= 0:
        raise ValueError("kernel must have at least one positive tap")
    return kernel / total


def gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    """Isotropic Gaussian taps on a size x size window, normalized to sum 1."""
    if size % 2 == 0:
        raise ValueError(f"kernel size must be odd, got {size}")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    ax = np.arange(size) - size // 2
    dy, dx = np.meshgrid(ax, ax, indexing="ij")
    taps = np.exp(-(dx**2 + dy**2) / (2.0 * sigma**2))
    return taps / taps.sum()


def make_inpaint(rows: int, cols: int, fraction: float, rng: Rng) -> ForwardOp:
    """Random pixel-sampling operator keeping round(fraction * n) pixels.

    The kept set is the first m entries of a Fisher-Yates shuffle of the
    pixel indices; measurement rows are ordered by increasing pixel index.
    """
    n = rows * cols
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    m = int(np.floor(fraction * n + 0.5))  # round half up
    if m < 1:
        raise ValueError("mask would be empty: at least one pixel must be sampled")
    perm = np.arange(n)
    rng.shuffle(perm)
    mask = np.zeros(n, dtype=bool)
    mask[perm[:m]] = True
    return ForwardOp(kind="inpaint", rows_in=rows, cols_in=cols, m=m, mask=mask)


def make_blur(rows: int, cols: int, kernel: np.ndarray) -> ForwardOp:
    """Circular 2-D convolution operator; taps are normalized to sum 1."""
    kernel = _validate_kernel(kernel)
    symbol = fft.rfft2(_wrap_kernel(rows, cols, kernel))
    return ForwardOp(
        kind="blur", rows_in=rows, cols_in=cols, m=rows * cols, kernel=kernel,
        symbol=symbol, aat_symbol=np.abs(symbol) ** 2,
    )


def make_superres(rows: int, cols: int, kernel: np.ndarray, factor: int) -> ForwardOp:
    """Blur-then-decimate operator with sampling phase (0, 0)."""
    if factor < 1:
        raise ValueError("factor must be a positive integer")
    if factor == 1:
        return make_blur(rows, cols, kernel)
    if rows % factor or cols % factor:
        raise ValueError(f"grid {rows}x{cols} not divisible by factor {factor}")
    kernel = _validate_kernel(kernel)
    h = _wrap_kernel(rows, cols, kernel)
    r, c = rows // factor, cols // factor
    # decimation folds fine frequency (k + p r, l + q c) onto coarse (k, l)
    aliases = np.abs(fft.fft2(h)).reshape(factor, r, factor, c) ** 2
    coarse = aliases.mean(axis=(0, 2))[:, : c // 2 + 1]
    return ForwardOp(
        kind="superres", rows_in=rows, cols_in=cols, m=r * c, kernel=kernel, factor=factor,
        symbol=fft.rfft2(h), aat_symbol=coarse,
    )


def observe(op: ForwardOp, truth: Image, sigma: float, rng: Rng) -> np.ndarray:
    """Synthesize measurements: forward-apply the truth and add white Gaussian noise."""
    if (truth.rows, truth.cols) != (op.rows_in, op.cols_in):
        raise ValueError(
            f"image {truth.rows}x{truth.cols} does not match operator grid "
            f"{op.rows_in}x{op.cols_in}"
        )
    return op.apply(truth.data) + gaussian_noise(rng, op.m, sigma)


def solve_shifted_gram(op: ForwardOp, mu: float, rhs: np.ndarray) -> np.ndarray:
    """Exact solution x of (I + mu A^T A) x = rhs, for mu >= 0.

    inpaint divides by 1 + mu * mask, blur by 1 + mu |H|^2 in Fourier space,
    and superres applies the Woodbury identity
    (I + mu A^T A)^-1 = I - mu A^T (I + mu A A^T)^-1 A
    with A A^T diagonal in the coarse grid's Fourier basis.
    """
    rhs = check_len(rhs, op.n)
    if op.kind == "inpaint":
        return rhs / (1.0 + mu * op.mask)
    if op.kind == "blur":
        grid = rhs.reshape(op.rows_in, op.cols_in)
        spec = fft.rfft2(grid) / (1.0 + mu * op.aat_symbol)
        return fft.irfft2(spec, s=grid.shape).reshape(-1)
    coarse = op.apply(rhs).reshape(op.meas_shape)
    spec = fft.rfft2(coarse) / (1.0 + mu * op.aat_symbol)
    return rhs - mu * op.adjoint(fft.irfft2(spec, s=coarse.shape))


def lambda_max_gram(
    op: ForwardOp,
    tol: float = 1e-10,
    max_iter: int = 10000,
    diag: np.ndarray | None = None,
) -> EigenEstimate:
    """Largest eigenvalue of A^T A.

    Without ``diag`` the value is exact: 1 for inpainting, and the largest
    eigenvalue of A A^T (max |H|^2, or its alias average for superres)
    otherwise; ``tol`` and ``max_iter`` are then unused. With ``diag`` set
    to a positive vector d, it is the top eigenvalue of the diagonally
    rescaled Gram map diag(d)^-1/2 A^T A diag(d)^-1/2: the largest entry of
    mask / d for inpainting, one ARPACK solve otherwise.
    """
    if diag is None:
        top = 1.0 if op.kind == "inpaint" else float(op.aat_symbol.max())
        return EigenEstimate(top, True, 0)
    diag = check_len(diag, op.n)
    if np.any(diag <= 0):
        raise ValueError("diag entries must be positive")
    if op.kind == "inpaint":  # the map is diagonal
        return EigenEstimate(float(np.max(op.mask / diag)), True, 0)
    dis = 1.0 / np.sqrt(diag)
    return arpack_eigenvalue(lambda v: dis * op.gram(dis * v), op.n, "LA", tol, max_iter)


def save_mask_pgm(op: ForwardOp, path) -> None:
    """Write the inpainting mask as a PGM: observed pixels byte 255, missing 0."""
    if op.kind != "inpaint":
        raise ValueError("mask export is defined for inpainting operators only")
    save_pgm(Image(op.mask.astype(np.float64), op.rows_in, op.cols_in), path)
