"""Composite blocks: inception (multi-scale parallel convolutions), single-head
self-attention over spatial positions, multi-dilation spatial attention and
residual blocks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import (
    BatchNormParams,
    Conv2DParams,
    Mode,
    batchnorm,
    concat_depth,
    conv2d,
    dropout,
    dropout_mask,
    he_uniform,
    maxpool2d,
    relu,
)
from .tensor import Tensor, apply_op, matmul, records


@dataclass
class InceptionParams:
    """The four parallel paths' convolutions, from the filter counts
    ``f = (f11, f21, f22, f31, f32, f41)``: 1x1 (f11) / 1x1->3x3 (f21, f22) /
    1x1->5x5 (f31, f32) / pool->1x1 (f41)."""

    p1: Conv2DParams
    p2a: Conv2DParams
    p2b: Conv2DParams
    p3a: Conv2DParams
    p3b: Conv2DParams
    p4: Conv2DParams

    @classmethod
    def create(cls, rng: np.random.Generator | None, in_ch: int,
               f: tuple[int, ...]) -> "InceptionParams":
        f11, f21, f22, f31, f32, f41 = f
        return cls(
            p1=Conv2DParams.create(rng, in_ch, f11, 1),
            p2a=Conv2DParams.create(rng, in_ch, f21, 1),
            p2b=Conv2DParams.create(rng, f21, f22, 3),
            p3a=Conv2DParams.create(rng, in_ch, f31, 1),
            p3b=Conv2DParams.create(rng, f31, f32, 5),
            p4=Conv2DParams.create(rng, in_ch, f41, 1),
        )


def inception_channels(f: tuple[int, ...]) -> int:
    """Output depth of an inception block with filter counts ``f``."""
    f11, _, f22, _, f32, f41 = f
    return f11 + f22 + f32 + f41


def inception_block(x: Tensor, params: InceptionParams) -> Tensor:
    """Four parallel paths, same-padded and stride 1, relu after every conv,
    concatenated along depth in path order."""
    p1 = relu(conv2d(x, params.p1))
    p2 = relu(conv2d(relu(conv2d(x, params.p2a)), params.p2b))
    p3 = relu(conv2d(relu(conv2d(x, params.p3a)), params.p3b))
    pooled = maxpool2d(x, 2, 1, padding="same")
    p4 = relu(conv2d(pooled, params.p4))
    return concat_depth(p1, p2, p3, p4)


@dataclass
class SelfAttentionParams:
    """[C, C] projections for single-head attention over spatial positions;
    ``dropout`` applies to the attention weights and to the output."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    dropout: float

    @classmethod
    def create(cls, rng: np.random.Generator | None, channels: int,
               dropout: float) -> "SelfAttentionParams":
        return cls(
            wq=he_uniform(rng, (channels, channels), channels),
            wk=he_uniform(rng, (channels, channels), channels),
            wv=he_uniform(rng, (channels, channels), channels),
            wo=he_uniform(rng, (channels, channels), channels),
            dropout=dropout,
        )


def _gather_positions(x: Tensor, idx: np.ndarray) -> Tensor:
    """Reorder the position axis of [N, T, C] by a per-sample permutation."""
    n, t, _ = x.shape
    rows = idx[:, :, None]

    def backward(g: np.ndarray):
        scattered = np.zeros_like(g)
        np.put_along_axis(scattered, rows, g, axis=1)
        return (scattered,)

    return apply_op("gather_positions", (x,),
                    np.take_along_axis(x.data, rows, axis=1), backward)


def _attend(q: Tensor, k: Tensor, v: Tensor, scale: float, rate: float, mode: Mode,
            rng: np.random.Generator | None,
            keep_attn: bool = False) -> tuple[Tensor, np.ndarray | None]:
    """dropout(softmax(q @ kᵀ * scale)) @ v over [N, T, C] operands, recorded
    as one tape node; with ``keep_attn`` also returns the pre-dropout
    [N, T, T] weights.

    The float ops and their order are those of the separate batched product,
    scale, row softmax, dropout and product, so the bits are the same. Both
    passes run one sample at a time, so each works on a [T, T] block that
    stays in cache: in the forward, a slice of the [N, T, T] buffer when the
    backward or the caller needs the weights, else one buffer that every
    sample reuses.
    """
    q_data, k_data, v_data = q.data, k.data, v.data
    n, t, _ = q_data.shape
    c = np.float32(scale)
    mask = dropout_mask((n, t, t), rate, mode, rng)
    taped = records((q, k, v))
    every = taped or keep_attn
    a = np.empty((n if every else 1, t, t), dtype=np.float32)
    mixed = np.empty_like(v_data)
    for i in range(n):
        s = a[i if every else 0]
        np.matmul(q_data[i], k_data[i].T, out=s)
        s *= c
        s -= s.max(axis=1, keepdims=True)
        np.exp(s, out=s)
        s /= s.sum(axis=1, keepdims=True)
        np.matmul(s if mask is None else s * mask[i], v_data[i], out=mixed[i])

    def backward(g: np.ndarray):
        dq, dk, dv = np.empty_like(q_data), np.empty_like(k_data), np.empty_like(v_data)
        for i in range(n):
            s = a[i]
            np.matmul((s if mask is None else s * mask[i]).T, g[i], out=dv[i])
            d = g[i] @ v_data[i].T
            if mask is not None:
                d *= mask[i]
            d -= (d * s).sum(axis=1, keepdims=True)
            d *= s
            d *= c
            np.matmul(d, k_data[i], out=dq[i])
            dk[i] = (q_data[i].T @ d).T
        return dq, dk, dv

    return apply_op("attention", (q, k, v), mixed, backward), a if keep_attn else None


def self_attention(x: Tensor, p: SelfAttentionParams, mode: Mode,
                   rng: np.random.Generator | None = None, return_attn: bool = False):
    """Scaled dot-product attention across the H*W spatial positions.

    Positions are internally reordered into a canonical order derived from
    their feature vectors before any reduction over the position axis runs,
    and restored afterwards. Every sum over positions therefore sees the
    same operand bytes whatever order the caller supplied, which makes the
    op bitwise equivariant under position permutations.

    Returns the attention branch alone (the caller adds any residual), or
    (output, attention) with ``return_attn`` where attention is the
    row-stochastic matrix in canonical order.
    """
    n, c, h, w = x.shape
    t = h * w
    seq = x.reshape([n, c, t]).transpose(0, 2, 1)  # [N, T, C]

    # per sample, lexicographic by feature vector; first feature is the primary key
    idx = np.lexsort(seq.data.transpose(2, 0, 1)[::-1])
    canon = _gather_positions(seq, idx)

    flat = canon.reshape([n * t, c])
    q = matmul(flat, p.wq).reshape([n, t, c])
    k = matmul(flat, p.wk).reshape([n, t, c])
    v = matmul(flat, p.wv).reshape([n, t, c])

    scale = float(np.float32(1.0) / np.sqrt(np.float32(c)))
    mixed, attn = _attend(q, k, v, scale, p.dropout, mode, rng, return_attn)
    projected = matmul(mixed.reshape([n * t, c]), p.wo)
    projected = dropout(projected, p.dropout, mode, rng).reshape([n, t, c])

    restored = _gather_positions(projected, np.argsort(idx, axis=1))

    out = restored.transpose(0, 2, 1).reshape([n, c, h, w])
    if return_attn:
        return out, attn.copy()
    return out


@dataclass
class SpatialAttentionParams:
    """One dilated-convolution branch per dilation rate, summed elementwise;
    ``filters`` None matches the input channel count."""

    branches: list[tuple[Conv2DParams, BatchNormParams]]

    @classmethod
    def create(cls, rng: np.random.Generator | None, in_ch: int, filters: int | None,
               kernel: int, dilations: tuple[int, ...]) -> "SpatialAttentionParams":
        if not dilations:
            raise ValueError("need at least one dilation rate")
        filters = in_ch if filters is None else filters
        branches = []
        for rate in dilations:
            conv = Conv2DParams.create(rng, in_ch, filters, kernel,
                                       padding="same", dilation=rate)
            branches.append((conv, BatchNormParams.create(filters)))
        return cls(branches)


def spatial_attention(x: Tensor, params: SpatialAttentionParams, mode: Mode) -> Tensor:
    """Sum of the same-padded dilated convolution branches, each batch-normalized."""
    out = None
    for conv_p, bn_p in params.branches:
        branch = batchnorm(conv2d(x, conv_p), bn_p, mode)
        out = branch if out is None else out + branch
    return out


@dataclass
class ResidualBlockParams:
    conv1: Conv2DParams
    bn1: BatchNormParams
    conv2: Conv2DParams
    bn2: BatchNormParams

    @classmethod
    def create(cls, rng: np.random.Generator | None, channels: int) -> "ResidualBlockParams":
        return cls(
            conv1=Conv2DParams.create(rng, channels, channels, 3),
            bn1=BatchNormParams.create(channels),
            conv2=Conv2DParams.create(rng, channels, channels, 3),
            bn2=BatchNormParams.create(channels),
        )


def residual_block(x: Tensor, params: ResidualBlockParams, mode: Mode) -> Tensor:
    """x + (conv3x3 -> BN -> relu -> conv3x3 -> BN), relu on the sum."""
    inner = batchnorm(conv2d(x, params.conv1), params.bn1, mode)
    inner = batchnorm(conv2d(relu(inner), params.conv2), params.bn2, mode)
    return relu(x + inner)
