"""Flat-vector grayscale images, PGM I/O, a reproducible RNG, and quality metrics.

Images are stored as flat row-major float64 vectors in nominal range [0, 1].
Values are never clamped except when writing PGM output: the iterative
reconstruction schemes are linear maps and clamping would break that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

_MASK64 = 0xFFFFFFFFFFFFFFFF


class PgmFormatError(ValueError):
    """A PGM file violates the supported subset (P2/P5, maxval 255)."""


@dataclass(frozen=True)
class Image:
    """Grayscale image as a flat row-major vector plus its grid dimensions."""

    data: np.ndarray
    rows: int
    cols: int

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError(f"image dimensions must be positive, got {self.rows}x{self.cols}")
        data = np.asarray(self.data, dtype=np.float64).reshape(-1)
        if data.size != self.rows * self.cols:
            raise ValueError(
                f"data length {data.size} does not match {self.rows}x{self.cols}"
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("image data must be finite")
        object.__setattr__(self, "data", data)

    def grid(self) -> np.ndarray:
        """View of the pixel data as a (rows, cols) array."""
        return self.data.reshape(self.rows, self.cols)

    @classmethod
    def from_grid(cls, grid) -> "Image":
        g = np.asarray(grid, dtype=np.float64)
        if g.ndim != 2:
            raise ValueError("expected a 2-D array")
        return cls(g.reshape(-1), g.shape[0], g.shape[1])


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Rng:
    """xoshiro256++ stream seeded from a 64-bit integer via splitmix64.

    Every derived draw (uniforms, Gaussian pairs, bounded integers) is pinned
    to a fixed protocol so that a given seed reproduces the same stream
    bit-for-bit on any platform:

    * ``uniform`` takes the top 53 bits of the next output: ``(u64 >> 11) * 2**-53``.
    * Gaussian values come from Box-Muller on consecutive uniform pairs
      ``(u1, u2)``, cosine branch first, with ``log(1 - u1)`` so the argument
      stays positive.
    * ``below(b)`` reduces the next output modulo ``b``.
    """

    def __init__(self, seed: int):
        s = seed & _MASK64
        state = []
        for _ in range(4):
            s, v = _splitmix64(s)
            state.append(v)
        self._s = state

    def u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s0 + s3) & _MASK64, 23) + s0) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def uniform(self) -> float:
        return (self.u64() >> 11) * 2.0**-53

    def below(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.u64() % bound

    def uniforms(self, n: int) -> np.ndarray:
        return np.array([self.uniform() for _ in range(n)], dtype=np.float64)

    def shuffle(self, items: np.ndarray) -> None:
        """In-place Fisher-Yates shuffle using modulo-reduced draws."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def gaussian_noise(rng: Rng, n: int, sigma: float) -> np.ndarray:
    """Vector of n i.i.d. N(0, sigma^2) draws from the pinned Box-Muller protocol."""
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if sigma == 0.0:
        return np.zeros(n)
    out = np.empty(n)
    i = 0
    while i < n:
        u1 = 1.0 - rng.uniform()  # (0, 1]
        u2 = rng.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        out[i] = r * math.cos(2.0 * math.pi * u2)
        if i + 1 < n:
            out[i + 1] = r * math.sin(2.0 * math.pi * u2)
        i += 2
    return sigma * out


def _read_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    """Next whitespace-delimited token, skipping '#' comments. Returns (token, next_pos)."""
    n = len(buf)
    while pos < n:
        c = buf[pos : pos + 1]
        if c == b"#":
            while pos < n and buf[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not buf[pos : pos + 1].isspace() and buf[pos : pos + 1] != b"#":
        pos += 1
    return buf[start:pos], pos


def _parse_header_int(buf: bytes, pos: int, field: str) -> tuple[int, int]:
    tok, pos = _read_token(buf, pos)
    try:
        value = int(tok)
    except ValueError:
        raise PgmFormatError(f"invalid {field}: {tok!r}") from None
    if value <= 0:
        raise PgmFormatError(f"invalid {field}: {value}")
    return value, pos


def load_pgm(path) -> Image:
    """Load a P5 (binary) or P2 (ASCII) PGM with maxval 255; pixels map to v/255."""
    with open(path, "rb") as fh:
        buf = fh.read()
    magic, pos = _read_token(buf, 0)
    if magic not in (b"P2", b"P5"):
        raise PgmFormatError(f"invalid magic: {magic!r}")
    width, pos = _parse_header_int(buf, pos, "width")
    height, pos = _parse_header_int(buf, pos, "height")
    maxval, pos = _parse_header_int(buf, pos, "maxval")
    if maxval != 255:
        raise PgmFormatError(f"unsupported maxval: {maxval} (only 255)")
    n = width * height
    if magic == b"P5":
        pos += 1  # single whitespace byte after maxval
        payload = buf[pos : pos + n]
        if len(payload) < n:
            raise PgmFormatError(f"truncated payload: expected {n} bytes, got {len(payload)}")
        values = np.frombuffer(payload, dtype=np.uint8).astype(np.float64)
    else:
        values = np.empty(n)
        for i in range(n):
            tok, pos = _read_token(buf, pos)
            if not tok:
                raise PgmFormatError(f"truncated payload: expected {n} values, got {i}")
            try:
                v = int(tok)
            except ValueError:
                raise PgmFormatError(f"invalid payload value: {tok!r}") from None
            if not 0 <= v <= 255:
                raise PgmFormatError(f"invalid payload value: {v}")
            values[i] = v
    return Image(values / 255.0, height, width)


def save_pgm(img: Image, path) -> None:
    """Write binary P5, clamping to [0, 1] and quantizing with round-half-up."""
    clamped = np.clip(img.data, 0.0, 1.0)
    bytes_ = np.floor(clamped * 255.0 + 0.5).astype(np.uint8)
    header = f"P5\n{img.cols} {img.rows}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(bytes_.tobytes())


def psnr(x: Image, ref: Image) -> float:
    """Peak signal-to-noise ratio in dB with peak 1.0; +inf when the images match."""
    if (x.rows, x.cols) != (ref.rows, ref.cols):
        raise ValueError(
            f"dimension mismatch: {x.rows}x{x.cols} vs {ref.rows}x{ref.cols}"
        )
    return psnr_vec(x.data, ref.data)


def psnr_vec(x: np.ndarray, ref: np.ndarray) -> float:
    mse = float(np.mean((np.asarray(x) - np.asarray(ref)) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def _ssim_window(size: int = 11, sigma: float = 1.5) -> np.ndarray:
    ax = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(ax**2) / (2.0 * sigma**2))
    win = np.outer(g, g)
    return win / win.sum()


def ssim(x: Image, ref: Image) -> float:
    """Mean structural similarity: 11x11 Gaussian window (sigma 1.5), C1=0.01^2,
    C2=0.03^2, dynamic range 1, symmetric boundary padding."""
    if (x.rows, x.cols) != (ref.rows, ref.cols):
        raise ValueError(
            f"dimension mismatch: {x.rows}x{x.cols} vs {ref.rows}x{ref.cols}"
        )
    if min(x.rows, x.cols) < 11:
        raise ValueError("image smaller than the 11x11 SSIM window")
    win = _ssim_window()
    a = x.grid()
    b = ref.grid()
    # scipy 'reflect' is symmetric padding (edge pixel repeated)
    filt = lambda im: ndimage.correlate(im, win, mode="reflect")
    mu_a = filt(a)
    mu_b = filt(b)
    var_a = filt(a * a) - mu_a * mu_a
    var_b = filt(b * b) - mu_b * mu_b
    cov = filt(a * b) - mu_a * mu_b
    c1 = 0.01**2
    c2 = 0.03**2
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))
