import runpy
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy import sparse

from pnpcert import Image, Rng, gaussian_kernel, make_blur, make_inpaint, make_superres
from pnpcert.kernel_denoise import _window_value


def synthetic_grid(rows: int, cols: int) -> np.ndarray:
    """Deterministic test image: smooth waves plus a ramp, values in [0, 1]."""
    r = np.arange(rows)[:, None] / max(rows - 1, 1)
    c = np.arange(cols)[None, :] / max(cols - 1, 1)
    g = 0.5 + 0.3 * np.sin(4.0 * np.pi * r) * np.cos(6.0 * np.pi * c) + 0.2 * (c - 0.5)
    return np.clip(g, 0.0, 1.0)


def synthetic_image(rows: int, cols: int) -> Image:
    return Image.from_grid(synthetic_grid(rows, cols))


# odd, non-square and kernel-wider-than-grid cases of each operator kind
ORACLE_OPERATORS = {
    "inpaint 7x9": lambda: make_inpaint(7, 9, 0.4, Rng(12)),
    "blur 7x9": lambda: make_blur(7, 9, gaussian_kernel(5, 1.1)),
    "blur 8x8, 25 taps": lambda: make_blur(8, 8, gaussian_kernel(25, 1.6)),
    "blur plus 5x6": lambda: make_blur(5, 6, np.array([[0, 1, 0], [1, 2, 1], [0, 1, 0]])),
    "superres 6x10 x2": lambda: make_superres(6, 10, gaussian_kernel(3, 0.8), 2),
    "superres 8x8 x2, 25 taps": lambda: make_superres(8, 8, gaussian_kernel(25, 1.6), 2),
    "superres 9x6 x3": lambda: make_superres(9, 6, gaussian_kernel(5, 1.0), 3),
}


DENSE_CAP = 4096  # largest n the dense reference paths materialize


def materialize(apply_fn, n: int, cap: int = DENSE_CAP) -> np.ndarray:
    """Dense matrix of a linear map, assembled column-by-column from basis vectors."""
    if n > cap:
        raise ValueError(f"dense materialization capped at n <= {cap}")
    cols = np.empty((n, n))
    e = np.zeros(n)
    for i in range(n):
        e[i] = 1.0
        cols[:, i] = apply_fn(e)
        e[i] = 0.0
    return cols


def dense_oracle(apply_fn, n: int, cap: int = DENSE_CAP) -> tuple[np.ndarray, np.ndarray]:
    """Materialize a map and return (matrix, eigenvalues).

    Uses a symmetric eigensolver when the materialized matrix is symmetric to
    rounding error, otherwise a general one (complex eigenvalues admitted).
    """
    mat = materialize(apply_fn, n, cap)
    scale = np.abs(mat).max()
    if np.abs(mat - mat.T).max() <= 1e-12 * (1.0 + scale):
        return mat, np.linalg.eigvalsh(mat)
    return mat, np.linalg.eigvals(mat)


def fixed_point(iter_op, q: np.ndarray, tol: float = 1e-12,
                max_iter: int = 1_000_000) -> np.ndarray:
    """Solve (I - P) x = q by Richardson iteration x <- P x + q.

    Converges when rho(P) < 1; run the certifier first. Stops when the
    update step satisfies ||x - (P x + q)|| <= tol * ||q||.
    """
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    qn = np.linalg.norm(q)
    if qn == 0.0:
        return np.zeros(iter_op.n)
    x = q.copy()
    for _ in range(max_iter):
        x_new = iter_op.apply(x) + q
        if np.linalg.norm(x_new - x) <= tol * qn:
            return x_new
        x = x_new
    raise RuntimeError(f"fixed-point iteration did not reach tol={tol} in {max_iter} steps")


def offset(iter_op, b: np.ndarray) -> np.ndarray:
    """Constant term q of the affine update x -> P x + q for measurements b."""
    return iter_op.step(np.zeros(iter_op.n), iter_op.data_term(b))


def spy(fn, position, seen):
    """``fn``, recording its positional argument ``position`` in ``seen`` on each call."""
    def wrapper(*args, **kwargs):
        seen.append(args[position])
        return fn(*args, **kwargs)
    return wrapper


def momentum_companion(p_dense: np.ndarray) -> np.ndarray:
    """Dense 2n x 2n companion matrix [[2P, -P], [I, 0]] of the limit update."""
    n = p_dense.shape[0]
    top = np.hstack([2.0 * p_dense, -p_dense])
    bottom = np.hstack([np.eye(n), np.zeros((n, n))])
    return np.vstack([top, bottom])


def reference_kernel(guide: Image, params, box_order: bool = False) -> sparse.csr_matrix:
    """K as a COO matrix of mirrored offset blocks, converted and sorted.

    Each patch distance sums the p squared pixel differences of two patches:
    by default as one ``sum`` over the flattened patch, or, with
    ``box_order``, in the order ``build_kernel`` adds them: down each patch
    column in row order, then the column sums from left to right. The
    box-order reference must match ``build_kernel`` bitwise; the default one
    differs only by the rounding of the two summation orders.
    """
    rows, cols = guide.rows, guide.cols
    n = rows * cols
    pr, wr = params.patch_radius, params.window_radius
    side = 2 * pr + 1
    p = side * side
    padded = np.pad(guide.grid(), pr, mode="symmetric")
    windows = sliding_window_view(padded, (side, side))  # [r, c, k, l] = padded[r + k, c + l]
    denom = 2.0 * params.bandwidth**2 * p
    idx = np.arange(n).reshape(rows, cols)
    ii_parts, jj_parts, val_parts = [idx.ravel()], [idx.ravel()], [np.ones(n)]
    for di in range(0, wr + 1):
        for dj in range(-wr if di > 0 else 1, wr + 1):
            ra, rb = max(0, -di), min(rows, rows - di)
            ca, cb = max(0, -dj), min(cols, cols - dj)
            if ra >= rb or ca >= cb:
                continue
            sq = (windows[ra:rb, ca:cb] - windows[ra + di : rb + di, ca + dj : cb + dj]) ** 2
            if box_order:
                column_sums = sq[:, :, 0]
                for k in range(1, side):
                    column_sums = column_sums + sq[:, :, k]
                d2 = column_sums[:, :, 0]
                for l in range(1, side):
                    d2 = d2 + column_sums[:, :, l]
            else:
                d2 = sq.reshape(rb - ra, cb - ca, p).sum(axis=2)
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


def reference_row_sums(K: sparse.csr_matrix, band_order: bool = False) -> np.ndarray:
    """K 1 by ``sum``, or, with ``band_order``, by a CSR product with ones,
    which adds each row in ascending column order as the bands' product does."""
    if band_order:
        return K @ np.ones(K.shape[1])
    return np.asarray(K.sum(axis=1)).ravel()


def reference_nlm(K: sparse.csr_matrix, band_order: bool = False,
                  ) -> tuple[sparse.csr_matrix, np.ndarray]:
    """(W, D) of the nlm weights by broadcasting ``multiply``.

    A subnormal K_ij divided by D_i > 1 can underflow to 0; ``multiply``
    stores such a 0, and W is returned without stored zeros, as
    ``KernelDenoiser.weights`` is.
    """
    deg = reference_row_sums(K, band_order)
    W = sparse.csr_matrix(K.multiply(1.0 / deg[:, None]))
    W.eliminate_zeros()
    W.sort_indices()
    return W, deg


def reference_symmetric(K: sparse.csr_matrix, deg: np.ndarray) -> sparse.csr_matrix:
    """S = D^-1/2 K D^-1/2 by broadcasting ``multiply``."""
    dis = 1.0 / np.sqrt(deg)
    return K.multiply(dis[:, None]).multiply(dis[None, :]).tocsr()


def reference_dsg(K: sparse.csr_matrix, band_order: bool = False,
                  ) -> tuple[sparse.csr_matrix, np.ndarray, float]:
    """(W, D, s_max) of the dsg weights by sparse sums: S / s_max + diag(1 - S 1 / s_max)."""
    deg = reference_row_sums(K, band_order)
    S = reference_symmetric(K, deg)
    one_hat = reference_row_sums(S, band_order)
    s_max = float(one_hat.max())
    W = sparse.csr_matrix(S / s_max + sparse.diags(1.0 - one_hat / s_max))
    W.sort_indices()
    return W, deg, s_max


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, name: str, *argv: str) -> None:
    """Run scripts/<name> as ``python scripts/<name> argv...`` would, in-process,
    and require it to end without ``sys.exit`` or with exit code 0."""
    monkeypatch.setattr(sys, "argv", [name, *argv])
    try:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    except SystemExit as exc:
        assert exc.code == 0


def dense_forward(op):
    """A as a dense m x n matrix, assembled from apply on basis vectors."""
    return np.stack([op.apply(e) for e in np.eye(op.n)], axis=1)


@pytest.fixture
def image16() -> Image:
    return synthetic_image(16, 16)


@pytest.fixture
def image32() -> Image:
    return synthetic_image(32, 32)
