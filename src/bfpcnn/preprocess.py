"""Four-stage image preprocessing: histogram equalization, median filtering,
nearest-neighbor resizing and pixel normalization, plus binary PGM I/O."""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

INTENSITY_LEVELS = 256
DEFAULT_WINDOW = 3
DEFAULT_TARGET = 224


@dataclass
class GrayImage:
    """2-D grid of 8-bit intensities, stored row-major."""

    pixels: np.ndarray  # uint8, shape (height, width)

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.uint8)
        if self.pixels.ndim != 2 or 0 in self.pixels.shape:
            raise ValueError(f"image pixels must be a non-empty 2-D grid, "
                             f"got shape {self.pixels.shape}")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


def histogram_equalize(img: GrayImage) -> GrayImage:
    """Remap intensities through the cumulative histogram to flatten contrast.

    Each pixel p maps to round((CDF(p) - CDF_min) / (CDF_max - CDF_min) * 255)
    where CDF_min is the CDF at the darkest intensity present. A constant
    image (CDF_max == CDF_min) is returned unchanged.
    """
    hist = np.bincount(img.pixels.reshape(-1), minlength=INTENSITY_LEVELS)
    cdf = np.cumsum(hist) / img.pixels.size
    present = np.nonzero(hist)[0]
    cdf_min = cdf[present[0]]
    cdf_max = cdf[present[-1]]
    if cdf_max == cdf_min:
        return GrayImage(img.pixels.copy())
    scaled = (cdf - cdf_min) / (cdf_max - cdf_min) * (INTENSITY_LEVELS - 1)
    lut = np.floor(scaled + 0.5).clip(0, 255).astype(np.uint8)  # round half up
    return GrayImage(np.take(lut, img.pixels))


def check_window(window: int) -> None:
    """Raise ``ConfigError`` unless ``window`` is odd and positive."""
    if window < 1 or window % 2 == 0:
        raise ConfigError(f"window must be odd and positive, got {window}")


def _merge_exchange(n: int):
    """Compare-exchange pairs (a, b), a < b, of Batcher's merge-exchange
    sort (Knuth, TAOCP vol. 3, 5.2.2 Algorithm M) for the next power of two
    >= n; a missing input acts as +inf, so pairs with b >= n are left out."""
    p = top = 1 << (n - 1).bit_length() >> 1
    while p:
        q, r, d = top, 0, p
        while True:
            for a in range(n - d):
                if a & p == r:
                    yield a, a + d
            if q == p:
                break
            q, r, d = q >> 1, p, q - p
        p >>= 1


def median_filter(img: GrayImage, window: int = DEFAULT_WINDOW) -> GrayImage:
    """Replace each pixel by the exact median of its window x window
    neighborhood, borders padded by edge replication: the middle output of a
    min/max sorting network over the window**2 shifted copies (integer only)."""
    check_window(window)
    (h, w), r = img.pixels.shape, window // 2
    padded = np.pad(img.pixels, r, mode="edge")
    v = [padded[i:i + h, j:j + w].copy() for i in range(window) for j in range(window)]
    for a, b in _merge_exchange(len(v)):
        lo = np.minimum(v[a], v[b])
        np.maximum(v[a], v[b], out=v[b])
        v[a] = lo
    return GrayImage(v[len(v) // 2])


def resize(img: GrayImage, target: int) -> GrayImage:
    """Nearest-neighbor resize to target x target.

    Output pixel (i, j) reads source (floor(i*h/t), floor(j*w/t)); integer
    arithmetic keeps the floor exact for every index.
    """
    rows = (np.arange(target) * img.height) // target
    cols = (np.arange(target) * img.width) // target
    return GrayImage(img.pixels[np.ix_(rows, cols)])


def normalize(img: GrayImage) -> np.ndarray:
    """Scale intensities to [0, 1] by dividing by 255: float32 [H, W]."""
    return img.pixels.astype(np.float32) / np.float32(255.0)


STAGES = ("equalized", "filtered", "resized")


def stages(img: GrayImage, target: int, window: int) -> tuple[GrayImage, ...]:
    """The image after each of STAGES, in order: equalize, median-filter, resize."""
    equalized = histogram_equalize(img)
    filtered = median_filter(equalized, window)
    return equalized, filtered, resize(filtered, target)


def prepare(img: GrayImage, target: int, window: int, full: bool) -> np.ndarray:
    """The model input for one image, float32 [target, target]: the resized
    image of ``stages`` when ``full``, else a plain resize; then normalized."""
    return normalize(stages(img, target, window)[-1] if full else resize(img, target))


# -- binary PGM (P5) ---------------------------------------------------------

def read_pgm(path) -> GrayImage:
    """Read an 8-bit binary PGM file."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    try:
        magic, rest = _next_token(raw, 0)
        if magic != b"P5":
            raise ValueError("bad magic")
        width_tok, rest = _next_token(raw, rest)
        height_tok, rest = _next_token(raw, rest)
        maxval_tok, rest = _next_token(raw, rest)
        width, height, maxval = int(width_tok), int(height_tok), int(maxval_tok)
        if width < 1 or height < 1 or maxval != 255:
            raise ValueError("unsupported header")
        data = raw[rest + 1: rest + 1 + width * height]  # single byte after maxval
        if len(data) != width * height:
            raise ValueError("truncated pixel data")
    except (ValueError, IndexError) as exc:
        raise DataError(f"{path}: not a valid 8-bit binary PGM ({exc})") from exc
    pixels = np.frombuffer(data, dtype=np.uint8).reshape(height, width)
    return GrayImage(pixels.copy())


def write_pgm(img: GrayImage, path) -> None:
    """Write an 8-bit binary PGM file: P5 header, maxval 255, raw bytes."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(img.pixels.tobytes())
    os.replace(tmp, path)


_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


def _next_token(raw: bytes, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comment lines between header fields
    token = _HEADER_TOKEN.match(raw, pos)
    if not token[1]:
        raise ValueError("missing header token")
    return token[1], token.end()

