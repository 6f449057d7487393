"""Shared helpers for the test suite: gradient checking against central
finite differences, random tensor construction kept away from the kinks of
relu/maxpool so the differences stay meaningful, a reference copy of
self-attention built from separate tape ops, a per-tap im2col pair that
the layers' strided window view must match, and the ``np.median`` filter
that the preprocessing sorting network must match."""

import numpy as np

from bfpcnn.blocks import _gather_positions
from bfpcnn.layers import _axis_geometry, softmax
from bfpcnn.tensor import Tensor, apply_op, matmul

FD_STEP = 1e-3


def finite_diff_grad(f, x: Tensor, h: float) -> Tensor:
    """Central-difference gradient of a scalar-valued function at ``x``.

    Independent of the tape: evaluates ``f`` at 2n perturbed copies of ``x``.
    The effective step is measured in float64 from the actually stored
    float32 values, which removes most representation error.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    flat = x.data.reshape(-1)
    out = np.zeros(flat.size, dtype=np.float64)
    for i in range(flat.size):
        plus = flat.copy()
        plus[i] += np.float32(h)
        minus = flat.copy()
        minus[i] -= np.float32(h)
        span = float(plus[i]) - float(minus[i])
        fp = f(Tensor(list(x.shape), plus)).item()
        fm = f(Tensor(list(x.shape), minus)).item()
        out[i] = (fp - fm) / span
    return Tensor(list(x.shape), out.astype(np.float32))


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Elementwise |a-b| / max(|a|, |b|, 1), reduced to the worst case."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / denom))


def smooth_values(rng: np.random.Generator, shape, margin: float = 5e-3,
                  scale: float = 1.0) -> np.ndarray:
    """Uniform values in [-scale, scale] pushed at least ``margin`` from 0
    so a +-FD_STEP probe cannot cross a relu kink."""
    vals = rng.uniform(-scale, scale, size=shape)
    vals = np.where(np.abs(vals) < margin, np.sign(vals + 1e-12) * margin, vals)
    return vals.astype(np.float32)


def distinct_values(rng: np.random.Generator, shape, gap: float = 5e-2) -> np.ndarray:
    """Values with pairwise gaps > 2*FD_STEP, so maxpool argmaxes are stable
    under probing."""
    n = int(np.prod(shape))
    base = np.arange(n, dtype=np.float32) * gap
    return (base[rng.permutation(n)] - 0.5 * gap * n).reshape(shape)


def check_grad(f, x: Tensor, tol: float = 1e-3, h: float = FD_STEP) -> float:
    """Assert autodiff and finite differences agree for d f / d x.

    ``f`` maps a tensor to a scalar Tensor; ``x`` must not be reused across
    calls (a fresh tracked tensor is built from its data).
    """
    probe = Tensor(list(x.shape), x.data.reshape(-1).copy(), requires_grad=True)
    out = f(probe)
    out.backward()
    auto = probe.grad.copy()
    numeric = finite_diff_grad(f, Tensor(list(x.shape), x.data.reshape(-1).copy()), h)
    err = rel_err(auto, numeric.data)
    assert err <= tol, f"gradient mismatch: rel err {err:.3e} > {tol:.0e}"
    return err


def check_param_grad(loss_fn, param: Tensor, tol: float, h: float = FD_STEP,
                     indices=None) -> float:
    """Finite-difference check of d loss / d param for a live parameter.

    ``loss_fn`` re-evaluates the loss reading ``param.data`` in place;
    ``indices`` restricts the sweep to a subset of flat positions.
    """
    param.grad = None
    loss_fn().backward()
    auto = param.grad.reshape(-1).copy()
    flat = param.data.reshape(-1)
    positions = range(flat.size) if indices is None else indices
    worst = 0.0
    for i in positions:
        orig = flat[i]
        flat[i] = np.float32(orig + np.float32(h))
        hi = float(flat[i])
        fp = loss_fn().item()
        flat[i] = np.float32(orig - np.float32(h))
        lo = float(flat[i])
        fm = loss_fn().item()
        flat[i] = orig
        fd = (fp - fm) / (hi - lo)
        denom = max(abs(fd), abs(auto[i]), 1.0)
        worst = max(worst, abs(fd - auto[i]) / denom)
    assert worst <= tol, f"param gradient mismatch: rel err {worst:.3e} > {tol:.0e}"
    return worst


def _bmm(a: Tensor, b: Tensor) -> Tensor:
    a_data, b_data = a.data, b.data
    return apply_op("bmm", (a, b), a_data @ b_data,
                    lambda g: (g @ b_data.transpose(0, 2, 1), a_data.transpose(0, 2, 1) @ g))


def _mul_scalar(x: Tensor, c: float) -> Tensor:
    c = np.float32(c)
    return apply_op("mul_scalar", (x,), x.data * c, lambda g: (g * c,))


def _dropout(x: Tensor, rate: float, mode: str, rng) -> Tensor:
    if mode == "infer" or rate == 0.0:
        return x
    scale = np.float32(1.0 / (1.0 - rate))
    mask = (rng.random(x.shape, dtype=np.float32) >= rate) * scale
    return apply_op("dropout", (x,), x.data * mask, lambda g: (g * mask,))


def reference_self_attention(x: Tensor, p, mode: str, rng=None):
    """``blocks.self_attention`` with ``return_attn``, written as the chain of
    separate tape ops (batched product, scale, row softmax, dropout, batched
    product) that the fused attention op must match bit for bit."""
    n, c, h, w = x.shape
    t = h * w
    seq = x.reshape([n, c, t]).transpose(0, 2, 1)
    idx = np.empty((n, t), dtype=np.int64)
    for i in range(n):
        idx[i] = np.lexsort(seq.data[i].T[::-1])
    canon = _gather_positions(seq, idx)

    flat = canon.reshape([n * t, c])
    q = matmul(flat, p.wq).reshape([n, t, c])
    k = matmul(flat, p.wk).reshape([n, t, c])
    v = matmul(flat, p.wv).reshape([n, t, c])

    scale = float(np.float32(1.0) / np.sqrt(np.float32(c)))
    scores = _mul_scalar(_bmm(q, k.transpose(0, 2, 1)), scale)
    attn = softmax(scores.reshape([n * t, t])).reshape([n, t, t])
    mixed = _bmm(_dropout(attn, p.dropout, mode, rng), v)
    projected = matmul(mixed.reshape([n * t, c]), p.wo)
    projected = _dropout(projected, p.dropout, mode, rng).reshape([n, t, c])

    restored = _gather_positions(projected, np.argsort(idx, axis=1))
    return restored.transpose(0, 2, 1).reshape([n, c, h, w]), attn.data.copy()


def reference_im2col(x: np.ndarray, kh: int, kw: int, stride: int, dilation: int,
                     padding, fill: float = 0.0):
    """``layers._im2col`` as a copy per kernel tap into a fresh
    [N, C, kh, kw, oh, ow] array; its geometry suits ``reference_col2im``."""
    n, c, h, w = x.shape
    pt, pb, oh = _axis_geometry(h, kh, stride, dilation, padding)
    pl, pr, ow = _axis_geometry(w, kw, stride, dilation, padding)
    if pt or pb or pl or pr:
        x = np.pad(x, ((0, 0), (0, 0), (pt, pb), (pl, pr)),
                   constant_values=np.float32(fill))
    col = np.empty((n, c, kh, kw, oh, ow), dtype=np.float32)
    for i in range(kh):
        i0 = i * dilation
        for j in range(kw):
            j0 = j * dilation
            col[:, :, i, j] = x[:, :, i0:i0 + stride * oh:stride,
                                j0:j0 + stride * ow:stride]
    return col, ((n, c, h, w), stride, dilation, (pt, pl, oh, ow))


def reference_col2im(dcol: np.ndarray, geometry) -> np.ndarray:
    """``layers._col2im`` with the padded extent and tap offsets re-derived
    from the kernel, stride and dilation."""
    (n, c, h, w), stride, dilation, (pt, pl, oh, ow) = geometry
    kh, kw = dcol.shape[2], dcol.shape[3]
    eff_h = (kh - 1) * dilation + 1
    eff_w = (kw - 1) * dilation + 1
    ph = max(h + pt, (oh - 1) * stride + eff_h)
    pw = max(w + pl, (ow - 1) * stride + eff_w)
    dx = np.zeros((n, c, ph, pw), dtype=np.float32)
    for i in range(kh):
        i0 = i * dilation
        for j in range(kw):
            j0 = j * dilation
            dx[:, :, i0:i0 + stride * oh:stride,
               j0:j0 + stride * ow:stride] += dcol[:, :, i, j]
    return dx[:, :, pt:pt + h, pl:pl + w]


def reference_median_filter(pixels: np.ndarray, window: int) -> np.ndarray:
    """``preprocess.median_filter`` as one ``np.median`` over each
    edge-padded window x window neighborhood, which the sorting network
    replaced; uint8 [H, W] in and out."""
    h, w = pixels.shape
    padded = np.pad(pixels, window // 2, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, (window, window))
    # odd count of values: the median is an element of the neighborhood
    return np.median(windows.reshape(h, w, -1), axis=-1).astype(np.uint8)
