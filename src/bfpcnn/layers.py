"""Differentiable layer primitives: convolution (plain, depthwise/separable,
dilated), max pooling, batch normalization, relu, dense, flatten, depth
concatenation, dropout and softmax.

Convolutions are cross-correlations (no kernel flip) lowered to im2col
through one strided window view of the padded input: the forward pass is a
single matrix product over the view's columns, which 1x1 stride-1 kernels
read in place and larger ones copy once, and the backward pass adds column
gradients back through the same view. Max pooling reads the same view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import DataError
from .tensor import Tensor, apply_op

Mode = Literal["train", "infer"]
Padding = Literal["valid", "same"]

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


@dataclass
class Conv2DParams:
    """Weights [out_ch, in_ch, kh, kw], bias [out_ch], stride, padding mode
    and optional dilation rate."""

    weights: Tensor
    bias: Tensor
    stride: int = 1
    padding: Padding = "same"
    dilation: int = 1

    def __post_init__(self):
        if self.bias.shape != self.weights.shape[:1]:
            raise ValueError("bias length must equal the output channel count")
        if self.stride < 1 or self.dilation < 1:
            raise ValueError("stride and dilation must be >= 1")
        if min(self.weights.shape[2:]) < 1:
            raise ValueError("kernel dims must be >= 1")

    @classmethod
    def create(cls, rng: np.random.Generator | None, in_ch: int, out_ch: int, kernel: int,
               stride: int = 1, padding: Padding = "same", dilation: int = 1) -> "Conv2DParams":
        w = he_uniform(rng, (out_ch, in_ch, kernel, kernel), in_ch * kernel * kernel)
        return cls(w, Tensor([out_ch], 0.0, requires_grad=True), stride, padding, dilation)


@dataclass
class BatchNormParams:
    """Per-channel scale/shift plus running statistics."""

    gamma: Tensor
    beta: Tensor
    running_mean: Tensor
    running_var: Tensor

    @classmethod
    def create(cls, channels: int) -> "BatchNormParams":
        return cls(Tensor([channels], 1.0, requires_grad=True),
                   Tensor([channels], 0.0, requires_grad=True),
                   Tensor([channels], 0.0), Tensor([channels], 1.0))


def he_uniform(rng: np.random.Generator | None, shape, fan_in: int) -> Tensor:
    """Kaiming-uniform init, drawn directly in float32 for determinism.

    Built in place: the default head weight is large enough that an extra
    copy would double peak memory. With no generator nothing is drawn and
    the values are left uninitialised, for a checkpoint to fill.
    """
    if rng is None:
        vals = np.empty(shape, dtype=np.float32)
    else:
        bound = np.float32(np.sqrt(6.0 / fan_in))
        vals = rng.random(int(np.prod(shape)), dtype=np.float32)
        vals -= np.float32(0.5)
        vals *= np.float32(2.0) * bound
        vals = vals.reshape(shape)
    t = Tensor._wrap(vals)
    t.requires_grad = True
    return t


# -- im2col plumbing ----------------------------------------------------------

def _axis_geometry(size: int, kernel: int, stride: int, dilation: int,
                   padding: Padding) -> tuple[int, int, int]:
    """(pad_before, pad_after, out_size) for one spatial axis."""
    eff = (kernel - 1) * dilation + 1
    if padding == "same":
        out = -(-size // stride)
        total = max((out - 1) * stride + eff - size, 0)
        before = total // 2  # extra padding goes after (bottom/right)
        return before, total - before, out
    if eff > size:
        raise ValueError(f"kernel extent {eff} exceeds input size {size}")
    return 0, 0, (size - eff) // stride + 1


def _windows(x: np.ndarray, stride: int, dilation: int, taps) -> np.ndarray:
    """[N, C, kh, kw, oh, ow] view of a padded [N, C, H, W] array, for
    ``taps = (kh, kw, oh, ow)``: element (i, j, y, x) is
    x[..., y*stride + i*dilation, x*stride + j*dilation]."""
    sn, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x, (*x.shape[:2], *taps), (sn, sc, sh * dilation, sw * dilation, sh * stride, sw * stride))


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, dilation: int,
            padding: Padding, fill: float = 0.0):
    """Window view of ``x`` padded with ``fill``, and the geometry through
    which ``_col2im`` scatters back."""
    h, w = x.shape[2:]
    pt, pb, oh = _axis_geometry(h, kh, stride, dilation, padding)
    pl, pr, ow = _axis_geometry(w, kw, stride, dilation, padding)
    if pt or pb or pl or pr:
        x = np.pad(x, ((0, 0), (0, 0), (pt, pb), (pl, pr)),
                   constant_values=np.float32(fill))
    return (_windows(x, stride, dilation, (kh, kw, oh, ow)),
            (x.shape, stride, dilation, pt, pl, h, w))


def _col2im(dcol: np.ndarray, geometry) -> np.ndarray:
    padded, stride, dilation, pt, pl, h, w = geometry
    dx = np.zeros(padded, dtype=np.float32)
    view = _windows(dx, stride, dilation, dcol.shape[2:])
    for i, j in np.ndindex(dcol.shape[2:4]):
        view[:, :, i, j] += dcol[:, :, i, j]
    return dx[:, :, pt:pt + h, pl:pl + w]


# -- layers -------------------------------------------------------------------

def conv2d(x: Tensor, p: Conv2DParams) -> Tensor:
    """Cross-correlation with bias: out[f, i, j] = sum_m,n x[c, i+m, j+n] * w[f, c, m, n] + b[f]."""
    n = x.shape[0]
    out_ch, in_ch, kh, kw = p.weights.shape
    col, geometry = _im2col(x.data, kh, kw, p.stride, p.dilation, p.padding)
    oh, ow = col.shape[4:]
    # copies unless the view already is a matrix, as for 1x1 stride-1 kernels
    cols = col.reshape(n, in_ch * kh * kw, oh * ow)
    w2 = p.weights.data.reshape(out_ch, -1)
    out = np.matmul(w2, cols) + p.bias.data.reshape(1, out_ch, 1)

    def backward(g: np.ndarray):
        g2 = g.reshape(n, out_ch, oh * ow)
        dw = np.matmul(g2, cols.transpose(0, 2, 1)).sum(axis=0)
        dx = None
        # guarded: the stem's input batch is untracked, and an unneeded
        # col2im scatter there would cost every train step
        if x.requires_grad:
            dcols = np.matmul(w2.T, g2)
            dx = _col2im(dcols.reshape(n, in_ch, kh, kw, oh, ow), geometry)
        return dx, dw.reshape(out_ch, in_ch, kh, kw), g2.sum(axis=(0, 2))

    return apply_op("conv2d", (x, p.weights, p.bias), out.reshape(n, out_ch, oh, ow),
                    backward)


def _depthwise_conv2d(x: Tensor, depthwise: Tensor) -> Tensor:
    """Per-channel 3x3-style convolution, same padding, stride 1."""
    c, _, kh, kw = depthwise.shape
    col, geometry = _im2col(x.data, kh, kw, 1, 1, "same")
    # a copy: einsum sums the strided view in another order (weight grad at N = 1)
    col = np.ascontiguousarray(col)
    dw = depthwise.data.reshape(c, kh, kw)
    out = np.einsum("ncijhw,cij->nchw", col, dw, optimize=True)

    def backward(g: np.ndarray):
        dcol = np.einsum("cij,nchw->ncijhw", dw, g, optimize=True)
        grad_w = np.einsum("ncijhw,nchw->cij", col, g, optimize=True)
        return _col2im(dcol, geometry), grad_w.reshape(depthwise.shape)

    return apply_op("depthwise_conv2d", (x, depthwise), out, backward)


def separable_conv2d(x: Tensor, depthwise: Tensor, pointwise: Tensor,
                     bias: Tensor) -> Tensor:
    """Depthwise convolution per channel followed by a 1x1 pointwise mix."""
    c = x.shape[1]
    if depthwise.shape[0] != c:  # einsum would broadcast a 1-channel kernel
        raise ValueError(f"depthwise kernel {depthwise.shape} does not match {c} input channels")
    if pointwise.shape[1] != c or pointwise.shape[2:] != (1, 1):
        raise ValueError(f"pointwise kernel {pointwise.shape} does not match {c} input channels")
    mixed = _depthwise_conv2d(x, depthwise)
    return conv2d(mixed, Conv2DParams(pointwise, bias, stride=1, padding="same"))


def maxpool2d(x: Tensor, k: int, stride: int, padding: Padding = "valid") -> Tensor:
    """Max over k x k windows; the gradient routes to the first (row-major)
    maximal element of each window."""
    n, c, h, w = x.shape
    if k < 1 or stride < 1:
        raise ValueError("k and stride must be >= 1")
    # -inf padding keeps padded cells out of every max
    col, geometry = _im2col(x.data, k, k, stride, 1, padding, fill=-np.inf)
    flat = col.reshape(n, c, k * k, *col.shape[4:])
    arg = flat.argmax(axis=2)
    out = np.take_along_axis(flat, arg[:, :, None], axis=2).squeeze(2)

    def backward(g: np.ndarray):
        dcol = np.zeros_like(flat)
        np.put_along_axis(dcol, arg[:, :, None], g[:, :, None], axis=2)
        return (_col2im(dcol.reshape(n, c, k, k, *arg.shape[2:]), geometry),)

    return apply_op("maxpool2d", (x,), out, backward)


def batchnorm(x: Tensor, p: BatchNormParams, mode: Mode) -> Tensor:
    """Per-channel normalization: scale gamma, shift beta.

    Train mode normalizes by biased batch statistics and updates the running
    buffers in place; infer mode uses the running statistics.
    """
    n, c, h, w = x.shape
    if p.gamma.shape != (c,):
        raise ValueError(f"batchnorm: {c} channels vs parameters {p.gamma.shape}")
    gamma, beta = p.gamma, p.beta
    g4 = gamma.data.reshape(1, c, 1, 1)
    m = n * h * w
    if mode == "train":
        if m < 2:
            raise DataError("train-mode batchnorm needs >= 2 values per channel")
        mu = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))  # biased
        mom = np.float32(BN_MOMENTUM)
        p.running_mean.data[:] = (1 - mom) * p.running_mean.data + mom * mu
        p.running_var.data[:] = (1 - mom) * p.running_var.data + mom * var
    else:
        mu, var = p.running_mean.data, p.running_var.data
    inv = 1.0 / np.sqrt(var + np.float32(BN_EPS))
    inv4 = inv.reshape(1, c, 1, 1)
    centered = x.data - mu.reshape(1, c, 1, 1)
    xhat = centered * inv4
    out = g4 * xhat + beta.data.reshape(1, c, 1, 1)

    def backward(g: np.ndarray):
        dxhat = g * g4
        dx = dxhat * inv4
        if mode == "train":  # dx has batch-statistics terms
            dvar = (dxhat * centered).sum(axis=(0, 2, 3)) * (-0.5) * inv ** 3
            dmu = -(dxhat.sum(axis=(0, 2, 3)) * inv) \
                - dvar * 2.0 / m * centered.sum(axis=(0, 2, 3))
            dx = (dx + dvar.reshape(1, c, 1, 1) * 2.0 / m * centered
                  + dmu.reshape(1, c, 1, 1) / m)
        return dx, (g * xhat).sum(axis=(0, 2, 3)), g.sum(axis=(0, 2, 3))

    return apply_op("batchnorm", (x, gamma, beta), out, backward)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0); gradient is 0 at x == 0."""
    mask = x.data > 0
    return apply_op("relu", (x,), np.where(mask, x.data, np.float32(0)),
                    lambda g: (g * mask,))


def concat_depth(*xs: Tensor) -> Tensor:
    """Stack feature maps along the channel axis, in argument order."""
    if any(x.data.ndim != 4 for x in xs):
        raise ValueError("concat_depth expects rank-4 tensors")
    bounds = np.cumsum([x.shape[1] for x in xs[:-1]])
    return apply_op("concat_depth", xs, np.concatenate([x.data for x in xs], axis=1),
                    lambda g: np.split(g, bounds, axis=1))


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map: x @ w + b for x [N, D], w [D, U], b [U]."""
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ValueError(f"dense expects rank-2 input and weights, got {x.shape}, {w.shape}")
    if x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ValueError(f"dense: {x.shape} @ {w.shape} + {b.shape}")
    out = x.data @ w.data + b.data
    x_data, w_data = x.data, w.data
    return apply_op("dense", (x, w, b), out,
                    lambda g: (g @ w_data.T, x_data.T @ g, g.sum(axis=0)))


def flatten(x: Tensor) -> Tensor:
    """Collapse all but the batch dimension, row-major."""
    n = x.shape[0]
    return x.reshape([n, x.size // n])


def softmax(logits: Tensor) -> Tensor:
    """Row-wise softmax, max-shifted for stability; rows sum to 1."""
    if logits.data.ndim != 2:
        raise ValueError(f"softmax expects [N, K], got {logits.shape}")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)
    return apply_op("softmax", (logits,), out,
                    lambda g: (out * (g - (g * out).sum(axis=1, keepdims=True)),))


def dropout_mask(shape, rate: float, mode: Mode,
                 rng: np.random.Generator | None) -> np.ndarray | None:
    """Inverted-dropout multiplier: 0 with probability ``rate``, else
    1/(1-rate), drawn from ``rng``; ``None`` at inference or at rate 0, the
    only cases that may pass no ``rng``."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
    if mode == "infer" or rate == 0.0:
        return None
    if rng is None:
        raise ValueError("training with dropout needs an explicit rng")
    scale = np.float32(1.0 / (1.0 - rate))
    return (rng.random(shape, dtype=np.float32) >= rate) * scale


def dropout(x: Tensor, rate: float, mode: Mode, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout through ``dropout_mask``; identity when it is ``None``."""
    mask = dropout_mask(x.shape, rate, mode, rng)
    if mask is None:
        return x
    return apply_op("dropout", (x,), x.data * mask, lambda g: (g * mask,))
