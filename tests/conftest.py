import numpy as np
import pytest

from pnpcert import Image, Rng, gaussian_kernel, make_blur, make_inpaint, make_superres


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


def dense_forward(op):
    """A as a dense m x n matrix, assembled from apply on basis vectors."""
    return np.stack([op.apply(e) for e in np.eye(op.n)], axis=1)


@pytest.fixture
def image16() -> Image:
    return synthetic_image(16, 16)


@pytest.fixture
def image32() -> Image:
    return synthetic_image(32, 32)
