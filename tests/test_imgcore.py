import hashlib
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnpcert import Image, Rng, gaussian_noise, load_pgm, make_inpaint, psnr, save_pgm, ssim
from pnpcert.imgcore import PgmFormatError

from conftest import synthetic_grid

MASK = (1 << 64) - 1


# --- independent RNG reference, transcribed from the published algorithms ---

def _ref_splitmix(seed):
    state = seed & MASK
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        yield z ^ (z >> 31)


def _ref_xoshiro(seed, count):
    rotl = lambda x, k: ((x << k) | (x >> (64 - k))) & MASK
    gen = _ref_splitmix(seed)
    s = [next(gen) for _ in range(4)]
    out = []
    for _ in range(count):
        out.append((rotl((s[0] + s[3]) & MASK, 23) + s[0]) & MASK)
        t = (s[1] << 17) & MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = rotl(s[3], 45)
    return out


def _ref_uniforms(raw):
    return [(v >> 11) * 2.0**-53 for v in raw]


def _ref_fisher_yates(items, raw):
    items = list(items)
    for i, v in zip(range(len(items) - 1, 0, -1), raw):
        j = v % (i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def _ref_box_muller(raw, n):
    u = _ref_uniforms(raw)
    out = []
    for u1, u2 in zip(u[0::2], u[1::2]):
        r = math.sqrt(-2.0 * math.log(1.0 - u1))
        out += [r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)]
    return out[:n]


# sizes around the lane boundaries of u64s (lanes of ceil(sqrt(n)) outputs)
STREAM_SIZES = sorted({0, 1, 2, 3, 1000, 65535,
                       *(k * k + d for k in range(2, 6) for d in (-1, 0, 1))})

# sha256 of the mask bytes (inpaint), then the noise bytes, that build_problem
# draws for each benchmark instance, keyed by (task, side, seed); frozen from
# the scalar stream that u64s replaced
GOLDEN_DRAWS = {
    ("inpaint", 256, 0): "be0646a946641cfd001aa98eec51c66c894886d2a93fd825ee671127933bf16c",
    ("inpaint", 256, 7): "01db0cef2406fd753d486d3015cd99182ee5d013a8643cd4e382709bd2cf78f4",
    ("inpaint", 72, 0): "14ed2fb9fcb36651996695792a5c16c66a690f52ca674e7b75963bf6d8c5a1fe",
    ("inpaint", 72, 7): "208fa94ba3315a2ab7558844203ef13384e8b2486dab71d2dfd741c13533ae51",
    ("deblur", 48, 0): "e077b11a8b2f92276abc52b1433e8be71ae851e2e042d3451cfeab586ae6d8d0",
    ("deblur", 48, 7): "25331dd45c13701778857df6a1b26cd421a4b346314434ac72de4eb999742e18",
    ("deblur", 64, 0): "9e2d4b4ceb4faf87ea2355b59c0915ccd86c3594a95e3e129edc74ea21d9dd98",
    ("deblur", 64, 7): "79b955155b62d970d3db11af769e3d9ef1deaa0507b74dcdb8b95ee6bc8e4f9d",
    ("superres", 64, 0): "c09d8e5e4abba46b1840aa5bc33ed6a159d2e81de1f4df542c1db9f8f4029f3a",
    ("superres", 64, 7): "3ab9e3bff4edbd2c6796d201bd5807b19302eb52e2c5891ff71677eb8c2ec725",
}


class TestBulkStream:
    @pytest.mark.parametrize("n", STREAM_SIZES)
    def test_u64s_is_the_reference_stream_and_leaves_its_state(self, n):
        rng = Rng(99)
        ref = _ref_xoshiro(99, n + 1)
        got = rng.u64s(n)
        assert got.dtype == np.uint64
        assert got.tolist() == ref[:n]
        assert rng.u64s(1).tolist() == [ref[n]]

    @given(st.integers(0, 2**64 - 1), st.lists(st.integers(0, 300), min_size=3, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_draws_in_sequence_equal_one_draw(self, seed, sizes):
        a, b = Rng(seed), Rng(seed)
        parts = np.concatenate([a.u64s(k) for k in sizes])
        assert np.array_equal(parts, b.u64s(sum(sizes)))
        assert a.u64s(1).tolist() == b.u64s(1).tolist()

    @pytest.mark.parametrize("draw", [
        lambda rng: rng.u64s(-1),
        lambda rng: rng.uniforms(-1),
        lambda rng: gaussian_noise(rng, -1, 1.0),
        lambda rng: gaussian_noise(rng, -1, 0.0),
    ])
    def test_negative_count_rejected_naming_it(self, draw):
        with pytest.raises(ValueError, match="got -1"):
            draw(Rng(1))

    def test_uniforms_are_the_uniform_protocol(self):
        rng = Rng(3)
        ref = _ref_xoshiro(3, 101)
        assert rng.uniforms(100).tolist() == _ref_uniforms(ref[:100])
        assert rng.u64s(1).tolist() == [ref[100]]

    @pytest.mark.parametrize("n", [0, 1, 2, 257, 5184])
    def test_shuffle_is_reference_fisher_yates(self, n):
        draws = max(n - 1, 0)
        ref = _ref_xoshiro(5, draws + 1)
        expected = _ref_fisher_yates(range(n), ref)
        rng = Rng(5)
        items = np.arange(n)
        rng.shuffle(items)
        assert items.tolist() == expected
        assert rng.u64s(1).tolist() == [ref[draws]]
        values = np.linspace(0.0, 1.0, n)
        shuffled = values.copy()
        Rng(5).shuffle(shuffled)
        assert shuffled.tolist() == values[expected].tolist()
        pairs = np.stack([np.arange(n), -np.ones(n, dtype=int)], axis=1)
        Rng(5).shuffle(pairs[:, 0])  # a strided view, shuffled in place
        assert pairs[:, 0].tolist() == expected
        assert (pairs[:, 1] == -1).all()

    @pytest.mark.parametrize("n", [1, 2, 5, 4097])
    def test_gaussian_noise_is_reference_box_muller(self, n):
        draws = n + n % 2
        ref = _ref_xoshiro(8, draws + 1)
        rng = Rng(8)
        got = gaussian_noise(rng, n, 0.5)
        assert got.tolist() == [0.5 * v for v in _ref_box_muller(ref, n)]
        assert rng.u64s(1).tolist() == [ref[draws]]

    def test_sigma_zero_draws_nothing(self):
        rng = Rng(1)
        gaussian_noise(rng, 10, 0.0)
        assert rng.u64s(1).tolist() == _ref_xoshiro(1, 1)

    @pytest.mark.parametrize("task, side, seed", sorted(GOLDEN_DRAWS))
    def test_benchmark_instance_draws_are_frozen(self, task, side, seed):
        rng = Rng(seed)
        digest = hashlib.sha256()
        m = side * side if task == "deblur" else (side // 2) ** 2  # superres: factor 2
        if task == "inpaint":
            op = make_inpaint(side, side, 0.3, rng)
            digest.update(op.mask.tobytes())
            m = op.m
        digest.update(gaussian_noise(rng, m, 0.03).tobytes())
        assert digest.hexdigest() == GOLDEN_DRAWS[task, side, seed]


class TestRng:
    def test_matches_reference_stream(self):
        rng = Rng(42)
        assert rng.u64s(64).tolist() == _ref_xoshiro(42, 64)

    def test_known_values_seed_42(self):
        # frozen from the reference transcription above
        rng = Rng(42)
        assert rng.u64s(2).tolist() == [15021278609987233951, 5881210131331364753]

    def test_uniform_protocol(self):
        rng = Rng(7)
        raw = _ref_xoshiro(7, 3)
        expected = [(v >> 11) * 2.0**-53 for v in raw]
        assert rng.uniforms(3).tolist() == expected

    def test_same_seed_same_stream(self):
        a = gaussian_noise(Rng(5), 64, 1.0)
        b = gaussian_noise(Rng(5), 64, 1.0)
        assert np.array_equal(a, b)

    def test_box_muller_pairing(self):
        raw = _ref_xoshiro(42, 2)
        u = [(v >> 11) * 2.0**-53 for v in raw]
        r = math.sqrt(-2.0 * math.log(1.0 - u[0]))
        expected = [r * math.cos(2.0 * math.pi * u[1]), r * math.sin(2.0 * math.pi * u[1])]
        got = gaussian_noise(Rng(42), 2, 1.0)
        assert got.tolist() == expected


class TestGaussianNoise:
    def test_sigma_zero(self):
        assert np.array_equal(gaussian_noise(Rng(1), 10, 0.0), np.zeros(10))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            gaussian_noise(Rng(1), 10, -0.1)

    def test_moments_seed_42(self):
        n, sigma = 100000, 0.03
        x = gaussian_noise(Rng(42), n, sigma)
        assert abs(x.mean()) < 3.0 * sigma / math.sqrt(n)
        assert abs(x.std(ddof=0) - sigma) < 0.02 * sigma

    def test_odd_length(self):
        # one leftover value from the final pair is discarded
        full = gaussian_noise(Rng(9), 6, 1.0)
        odd = gaussian_noise(Rng(9), 5, 1.0)
        assert np.array_equal(odd, full[:5])


class TestImage:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Image(np.zeros(5), 2, 3)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Image(np.array([0.0, np.nan, 0.0, 0.0]), 2, 2)
        with pytest.raises(ValueError):
            Image(np.array([0.0, np.inf, 0.0, 0.0]), 2, 2)

    @pytest.mark.parametrize("data", [np.array(["0.5"] * 4), np.full(4, 0.5 + 1j),
                                      np.array([None] * 4)])
    def test_non_real_rejected(self, data):
        with pytest.raises(ValueError, match="real numbers"):
            Image(data, 2, 2)
        with pytest.raises(ValueError, match="real numbers"):
            Image.from_grid(data.reshape(2, 2))

    def test_grid_roundtrip(self):
        g = synthetic_grid(4, 6)
        img = Image.from_grid(g)
        assert img.rows == 4 and img.cols == 6
        assert np.array_equal(img.grid(), g)


class TestPgm:
    def test_p2_values_scale(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_text("P2\n2 2\n255\n0 255\n128 64\n")
        img = load_pgm(path)
        assert (img.rows, img.cols) == (2, 2)
        assert img.data.tolist() == [0.0, 1.0, 128 / 255, 64 / 255]

    def test_p5_equals_p2(self, tmp_path):
        p2 = tmp_path / "a.pgm"
        p2.write_text("P2\n3 2\n255\n0 10 20\n30 40 250\n")
        p5 = tmp_path / "b.pgm"
        p5.write_bytes(b"P5\n3 2\n255\n" + bytes([0, 10, 20, 30, 40, 250]))
        assert np.array_equal(load_pgm(p2).data, load_pgm(p5).data)

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_text("P2\n# a comment\n2 # inline\n1\n255\n7 9\n")
        assert load_pgm(path).data.tolist() == [7 / 255, 9 / 255]

    def test_maxval_error_names_field(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_text("P2\n2 1\n65535\n0 0\n")
        with pytest.raises(PgmFormatError, match="maxval"):
            load_pgm(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_text("P6\n1 1\n255\n0\n")
        with pytest.raises(PgmFormatError, match="magic"):
            load_pgm(path)

    def test_truncated_p5(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(10))
        with pytest.raises(PgmFormatError, match="payload"):
            load_pgm(path)

    def test_truncated_p2(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_text("P2\n4 4\n255\n1 2 3 # three\n")
        with pytest.raises(PgmFormatError, match="truncated payload: expected 16 values, got 3"):
            load_pgm(path)

    def test_bad_width(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_text("P2\nxx 4\n255\n0\n")
        with pytest.raises(PgmFormatError, match="width"):
            load_pgm(path)

    @pytest.mark.parametrize("field, index", [("width", 1), ("height", 2), ("maxval", 3)])
    @pytest.mark.parametrize("token", ["0", "x7", "+5", "1_0", None])
    def test_bad_header_field_names_it(self, tmp_path, field, index, token):
        header = ["P2", "2", "1", "255"]
        if token is None:  # missing: the file ends before the field
            header = header[:index]
        else:
            header[index] = token
        path = tmp_path / "a.pgm"
        path.write_text(" ".join(header) + ("\n0 0\n" if token is not None else ""))
        with pytest.raises(PgmFormatError, match=field):
            load_pgm(path)

    @pytest.mark.parametrize("sample", ["256", "1000", "-1", "+5", "1_0", "7e1", "0x10", "1\x00"])
    def test_bad_sample_rejected(self, tmp_path, sample):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P2\n2 1\n255\n0 " + sample.encode() + b"\n")
        with pytest.raises(PgmFormatError, match="payload value"):
            load_pgm(path)

    def test_trailing_bytes_after_raster_ignored(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_text("P2 2 1 255 7 0255 junk # end 3\n")
        assert load_pgm(path).data.tolist() == [7 / 255, 1.0]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_p2_rewrite_of_p5_loads_bitwise_equal(self, data):
        rows = data.draw(st.integers(1, 6), label="rows")
        cols = data.draw(st.integers(1, 6), label="cols")
        pixels = data.draw(st.binary(min_size=rows * cols, max_size=rows * cols), label="pixels")
        gap = st.lists(
            st.one_of(st.sampled_from([" ", "\t", "\n", "\r", "\r\n", "\f", "\v"]),
                      st.text("ab 1#\t", max_size=5).map(lambda t: f"#{t}\n")),
            max_size=3,
        ).map("".join)
        # a separator is whitespace with comments, or a comment glued to the token before it
        sep = st.one_of(gap.map(lambda g: " " + g), gap.map(lambda g: "#c\n" + g))
        tokens = ["P2", str(cols), str(rows), "255", *map(str, pixels)]
        text = data.draw(gap) + "".join(t + data.draw(sep) for t in tokens)
        with tempfile.TemporaryDirectory() as tmp:
            p5, p2 = Path(tmp) / "a.pgm", Path(tmp) / "b.pgm"
            p5.write_bytes(f"P5\n{cols} {rows}\n255\n".encode() + pixels)
            p2.write_bytes(text.encode())
            a, b = load_pgm(p5), load_pgm(p2)
        assert (b.rows, b.cols) == (a.rows, a.cols) == (rows, cols)
        assert a.data.tobytes() == b.data.tobytes()

    def test_save_halfgray(self, tmp_path):
        img = Image(np.full(4, 0.5), 2, 2)
        path = tmp_path / "a.pgm"
        save_pgm(img, path)
        assert load_pgm(path).data.tolist() == [128 / 255] * 4

    def test_save_clamps(self, tmp_path):
        img = Image(np.array([-0.2, 1.7, 0.0, 1.0]), 2, 2)
        path = tmp_path / "a.pgm"
        save_pgm(img, path)
        assert load_pgm(path).data.tolist() == [0.0, 1.0, 0.0, 1.0]

    def test_roundtrip_quantization_bound(self, tmp_path):
        img = Image(Rng(3).uniforms(64), 8, 8)
        path = tmp_path / "a.pgm"
        save_pgm(img, path)
        back = load_pgm(path)
        assert np.abs(back.data - img.data).max() <= 1.0 / 510 + 1e-15

    @given(st.lists(st.floats(min_value=-0.5, max_value=1.5), min_size=6, max_size=6))
    @settings(max_examples=50)
    def test_roundtrip_matches_clamp(self, values):
        img = Image(np.array(values), 2, 3)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "a.pgm"
            save_pgm(img, path)
            back = load_pgm(path)
        clamped = np.clip(img.data, 0.0, 1.0)
        assert np.abs(back.data - clamped).max() <= 1.0 / 510 + 1e-15


class TestPsnr:
    def test_identical_is_inf(self, image16):
        assert psnr(image16, image16) == math.inf

    def test_constant_offset(self):
        ref = Image(np.zeros(36), 6, 6)
        x = Image(np.full(36, 0.1), 6, 6)
        assert psnr(x, ref) == pytest.approx(20.0, abs=1e-12)

    def test_alternating(self):
        ref = Image(np.zeros(4), 2, 2)
        x = Image(np.array([0.0, 0.2, 0.0, 0.2]), 2, 2)
        # oracle: direct mean-squared-error evaluation
        mse = np.mean((x.data - ref.data) ** 2)
        assert mse == pytest.approx(0.02)
        assert psnr(x, ref) == pytest.approx(10.0 * math.log10(1.0 / mse), abs=1e-12)
        assert psnr(x, ref) == pytest.approx(16.98970004336019, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            psnr(Image(np.zeros(4), 2, 2), Image(np.zeros(6), 2, 3))

    @given(st.integers(0, 2**32))
    @settings(max_examples=25)
    def test_symmetry(self, seed):
        rng = Rng(seed)
        a = Image(rng.uniforms(16), 4, 4)
        b = Image(rng.uniforms(16), 4, 4)
        assert psnr(a, b) == psnr(b, a)


def _ssim_scalar_oracle(a: np.ndarray, b: np.ndarray) -> float:
    """Independent scalar reimplementation: explicit loops, symmetric padding."""
    size, sigma = 11, 1.5
    half = size // 2
    ax = np.arange(size) - half
    w1 = np.exp(-(ax**2) / (2 * sigma**2))
    win = np.outer(w1, w1)
    win = win / win.sum()
    pa = np.pad(a, half, mode="symmetric")
    pb = np.pad(b, half, mode="symmetric")
    c1, c2 = 0.01**2, 0.03**2
    total = 0.0
    rows, cols = a.shape
    for r in range(rows):
        for c in range(cols):
            wa = pa[r : r + size, c : c + size]
            wb = pb[r : r + size, c : c + size]
            mu_a = (win * wa).sum()
            mu_b = (win * wb).sum()
            var_a = (win * wa * wa).sum() - mu_a**2
            var_b = (win * wb * wb).sum() - mu_b**2
            cov = (win * wa * wb).sum() - mu_a * mu_b
            total += ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
                (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
            )
    return total / (rows * cols)


class TestSsim:
    def test_self_is_one(self, image16):
        assert ssim(image16, image16) == pytest.approx(1.0, abs=1e-12)

    def test_inverted_below_one(self, image32):
        inverted = Image(1.0 - image32.data, 32, 32)
        assert ssim(inverted, image32) < 1.0

    def test_matches_scalar_oracle(self):
        ramp = synthetic_grid(32, 32)
        noisy = ramp + gaussian_noise(Rng(7), 32 * 32, 0.1).reshape(32, 32)
        got = ssim(Image.from_grid(noisy), Image.from_grid(ramp))
        want = _ssim_scalar_oracle(noisy, ramp)
        assert got == pytest.approx(want, abs=1e-9)

    def test_too_small_rejected(self):
        small = Image(np.zeros(64), 8, 8)
        with pytest.raises(ValueError):
            ssim(small, small)

    def test_dimension_mismatch(self, image16, image32):
        with pytest.raises(ValueError):
            ssim(image16, image32)
