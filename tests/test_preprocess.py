"""Preprocessing stages against brute-force oracles and their invariants."""

import numpy as np
import pytest

from bfpcnn.errors import ConfigError, DataError
from bfpcnn.preprocess import (
    GrayImage,
    _merge_exchange,
    histogram_equalize,
    median_filter,
    normalize,
    prepare,
    read_pgm,
    resize,
    write_pgm,
)

from util import reference_median_filter


# -- independent oracles (pure python loops) ---------------------------------

def equalize_oracle(pixels: np.ndarray) -> np.ndarray:
    h, w = pixels.shape
    hist = [0] * 256
    for row in pixels:
        for p in row:
            hist[int(p)] += 1
    total = h * w
    cdf, acc = [], 0
    for count in hist:
        acc += count
        cdf.append(acc / total)
    present = [k for k in range(256) if hist[k]]
    cdf_min, cdf_max = cdf[present[0]], cdf[present[-1]]
    if cdf_max == cdf_min:
        return pixels.copy()
    out = np.zeros_like(pixels)
    for i in range(h):
        for j in range(w):
            scaled = (cdf[int(pixels[i, j])] - cdf_min) / (cdf_max - cdf_min) * 255
            out[i, j] = int(scaled + 0.5)  # round half up
    return out


def median_oracle(pixels: np.ndarray, window: int) -> np.ndarray:
    h, w = pixels.shape
    r = window // 2
    out = np.zeros_like(pixels)
    for i in range(h):
        for j in range(w):
            vals = []
            for di in range(-r, r + 1):
                for dj in range(-r, r + 1):
                    ii = min(max(i + di, 0), h - 1)
                    jj = min(max(j + dj, 0), w - 1)
                    vals.append(pixels[ii, jj])
            out[i, j] = sorted(vals)[len(vals) // 2]
    return out


def resize_oracle(pixels: np.ndarray, target: int) -> np.ndarray:
    h, w = pixels.shape
    out = np.zeros((target, target), np.uint8)
    for i in range(target):
        for j in range(target):
            out[i, j] = pixels[(i * h) // target, (j * w) // target]
    return out


def cdf_ramp_deviation(pixels: np.ndarray) -> float:
    hist = np.bincount(pixels.reshape(-1), minlength=256)
    cdf = np.cumsum(hist) / pixels.size
    ramp = (np.arange(256) + 1) / 256
    return float(np.mean(np.abs(cdf - ramp)))


def random_image(rng, max_side=32) -> GrayImage:
    h = int(rng.integers(2, max_side + 1))
    w = int(rng.integers(2, max_side + 1))
    lo = int(rng.integers(0, 128))
    hi = int(rng.integers(lo + 1, 256))
    return GrayImage(rng.integers(lo, hi + 1, size=(h, w)).astype(np.uint8))


class TestHistogramEqualize:
    def test_constant_unchanged(self):
        img = GrayImage(np.full((5, 4), 100, np.uint8))
        assert np.array_equal(histogram_equalize(img).pixels, img.pixels)

    def test_two_level_case(self):
        img = GrayImage(np.array([[10, 10], [20, 20]], np.uint8))
        assert histogram_equalize(img).pixels.tolist() == [[0, 0], [255, 255]]

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(1000 + seed)
        img = random_image(rng)
        assert np.array_equal(histogram_equalize(img).pixels, equalize_oracle(img.pixels))

    @pytest.mark.parametrize("seed", range(25))
    def test_flattens_cdf(self, seed):
        rng = np.random.default_rng(2000 + seed)
        img = random_image(rng)
        out = histogram_equalize(img)
        assert cdf_ramp_deviation(out.pixels) <= cdf_ramp_deviation(img.pixels) + 1e-12

    @pytest.mark.parametrize("seed", range(50))
    def test_idempotent_within_one_level(self, seed):
        rng = np.random.default_rng(3000 + seed)
        once = histogram_equalize(random_image(rng))
        twice = histogram_equalize(once)
        diff = np.abs(once.pixels.astype(int) - twice.pixels.astype(int))
        assert diff.max() <= 1

    def test_monotone_mapping(self):
        rng = np.random.default_rng(9)
        img = random_image(rng)
        out = histogram_equalize(img)
        pairs = sorted(zip(img.pixels.reshape(-1), out.pixels.reshape(-1)))
        for (a, fa), (b, fb) in zip(pairs, pairs[1:]):
            if a < b:
                assert fa <= fb


class TestMedianFilter:
    def test_window_one_identity(self):
        rng = np.random.default_rng(4)
        img = random_image(rng)
        assert np.array_equal(median_filter(img, 1).pixels, img.pixels)

    def test_center_spike_removed(self):
        arr = np.zeros((3, 3), np.uint8)
        arr[1, 1] = 255
        out = median_filter(GrayImage(arr), 3)
        assert np.array_equal(out.pixels, np.zeros((3, 3), np.uint8))

    def test_constant_unchanged(self):
        img = GrayImage(np.full((4, 6), 77, np.uint8))
        assert np.array_equal(median_filter(img, 5).pixels, img.pixels)

    def test_even_window_rejected(self):
        with pytest.raises(ConfigError, match="window must be odd and positive, got 4"):
            median_filter(GrayImage(np.zeros((3, 3), np.uint8)), 4)

    @pytest.mark.parametrize("seed,window", [(s, w) for s in range(15) for w in (3, 5)])
    def test_matches_oracle(self, seed, window):
        rng = np.random.default_rng(4000 + seed)
        img = random_image(rng, max_side=16)
        assert np.array_equal(median_filter(img, window).pixels,
                              median_oracle(img.pixels, window))

    @pytest.mark.parametrize("kind", ["random", "two-level", "zeros", "full", "constant"])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 3), (64, 80)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("window", [1, 3, 5, 7, 9, 15])
    def test_matches_np_median(self, window, shape, kind):
        """Bit for bit the ``np.median`` filter it replaced, also where the
        window is larger than the image. All-255 images equal the +inf that
        a missing input stands for, where the network leaves pairs out."""
        rng = np.random.default_rng(window * 1000 + shape[0] * 100 + shape[1])
        pixels = {
            "random": lambda: rng.integers(0, 256, shape),
            "two-level": lambda: rng.integers(0, 2, shape) * 255,
            "zeros": lambda: np.zeros(shape),
            "full": lambda: np.full(shape, 255),
            "constant": lambda: np.full(shape, 131),
        }[kind]().astype(np.uint8)
        assert np.array_equal(median_filter(GrayImage(pixels), window).pixels,
                              reference_median_filter(pixels, window))

    def test_network_sorts_every_binary_input(self):
        """The 0-1 principle: a comparator network that sorts every 0/1
        input sorts every input, so each network up to 20 wires (window 3
        has 9) is checked against all 2**n binary columns."""
        for n in range(1, 21):
            codes = np.arange(1 << n, dtype=np.uint32)
            v = [((codes >> k) & 1).astype(np.uint8) for k in range(n)]
            for a, b in _merge_exchange(n):
                assert 0 <= a < b < n
                v[a], v[b] = np.minimum(v[a], v[b]), np.maximum(v[a], v[b])
            for k in range(n - 1):
                assert np.all(v[k] <= v[k + 1]), (n, k)

    @pytest.mark.parametrize("seed", range(10))
    def test_values_come_from_neighborhood(self, seed):
        rng = np.random.default_rng(5000 + seed)
        img = random_image(rng, max_side=12)
        out = median_filter(img, 3)
        h, w = img.pixels.shape
        for i in range(h):
            for j in range(w):
                i0, i1 = max(i - 1, 0), min(i + 1, h - 1)
                j0, j1 = max(j - 1, 0), min(j + 1, w - 1)
                assert out.pixels[i, j] in img.pixels[i0:i1 + 1, j0:j1 + 1]


class TestResize:
    def test_identity_when_same_size(self):
        rng = np.random.default_rng(6)
        img = GrayImage(rng.integers(0, 256, (7, 7)).astype(np.uint8))
        assert np.array_equal(resize(img, 7).pixels, img.pixels)

    def test_constant_stays_constant(self):
        img = GrayImage(np.full((5, 3), 42, np.uint8))
        assert np.all(resize(img, 11).pixels == 42)

    def test_checkerboard_downscale(self):
        board = np.zeros((4, 4), np.uint8)
        board[::2, ::2] = 255
        board[1::2, 1::2] = 255
        out = resize(GrayImage(board), 2)
        expect = np.array([[board[0, 0], board[0, 2]], [board[2, 0], board[2, 2]]])
        assert np.array_equal(out.pixels, expect)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_floor_oracle(self, seed):
        rng = np.random.default_rng(6000 + seed)
        img = random_image(rng, max_side=17)
        target = int(rng.integers(1, 24))
        assert np.array_equal(resize(img, target).pixels,
                              resize_oracle(img.pixels, target))

    @pytest.mark.parametrize("scale", [2, 3])
    def test_upscale_downscale_roundtrip(self, scale):
        rng = np.random.default_rng(77)
        img = GrayImage(rng.integers(0, 256, (6, 6)).astype(np.uint8))
        up = resize(img, 6 * scale)
        back = resize(up, 6)
        assert np.array_equal(back.pixels, img.pixels)


class TestGrayImage:
    @pytest.mark.parametrize("pixels", [np.zeros(4, np.uint8), np.zeros((0, 3), np.uint8)],
                             ids=["1-d", "empty"])
    def test_rejects_non_grid(self, pixels):
        with pytest.raises(ValueError, match="non-empty 2-D"):
            GrayImage(pixels)


class TestNormalize:
    def test_boundary_values(self):
        img = GrayImage(np.array([[0, 128, 255]], np.uint8))
        out = normalize(img)
        assert out[0, 0] == 0.0
        assert out[0, 2] == 1.0
        assert abs(out[0, 1] - 128 / 255) < 1e-7

    def test_strictly_monotone(self):
        img = GrayImage(np.arange(256, dtype=np.uint8).reshape(16, 16))
        vals = normalize(img).reshape(-1)
        assert np.all(np.diff(vals) > 0)

    def test_range(self):
        rng = np.random.default_rng(8)
        out = normalize(random_image(rng))
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestPipeline:
    def test_constant_image(self):
        img = GrayImage(np.full((6, 6), 90, np.uint8))
        out = prepare(img, target=6, window=3, full=True)
        assert np.allclose(out, 90 / 255)

    def test_two_level_compose(self):
        img = GrayImage(np.array([[10, 10], [20, 20]], np.uint8))
        out = prepare(img, target=2, window=1, full=True)
        assert np.allclose(out, [[0, 0], [1, 1]])

    @pytest.mark.parametrize("seed", range(10))
    def test_output_in_unit_range(self, seed):
        rng = np.random.default_rng(7000 + seed)
        out = prepare(random_image(rng), target=12, window=3, full=True)
        assert out.shape == (12, 12)
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestPgmIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(10)
        img = random_image(rng)
        path = tmp_path / "img.pgm"
        write_pgm(img, path)
        back = read_pgm(path)
        assert back.height == img.height and back.width == img.width
        assert np.array_equal(back.pixels, img.pixels)

    def test_exact_header_layout(self, tmp_path):
        img = GrayImage(np.array([[1, 2], [3, 4]], np.uint8))
        path = tmp_path / "img.pgm"
        write_pgm(img, path)
        assert path.read_bytes() == b"P5\n2 2\n255\n\x01\x02\x03\x04"

    def test_reads_comments(self, tmp_path):
        path = tmp_path / "c.pgm"
        # a comment before the magic or between any fields, and every
        # whitespace byte as a separator
        for header in (b"P5\n# a comment\n2 1\n255\n",
                       b"# before the magic\nP5\n2 1\n255\n",
                       b"P5\n# width\n2\n# height\n1 # maxval\n255\n",
                       b"P5\r\n2 \t1\x0b\x0c255\n"):
            path.write_bytes(header + b"\x05\x06")
            img = read_pgm(path)
            assert img.pixels.tolist() == [[5, 6]], header

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(DataError,
                           match=r"not a valid 8-bit binary PGM \(truncated pixel data\)"):
            read_pgm(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00")
        with pytest.raises(DataError, match=r"not a valid 8-bit binary PGM \(bad magic\)"):
            read_pgm(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="nope.pgm: .*No such file or directory"):
            read_pgm(tmp_path / "nope.pgm")
