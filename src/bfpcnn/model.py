"""Full classifier assembly: stem and refinement convolutions, two inception
blocks bracketing the dual attention mechanisms, separable residual blocks,
and the dense head. Also binary checkpoints."""

from __future__ import annotations

import contextlib
import mmap
import os
import struct
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .blocks import (
    InceptionParams,
    ResidualBlockParams,
    SelfAttentionParams,
    SpatialAttentionParams,
    inception_block,
    inception_channels,
    residual_block,
    self_attention,
    spatial_attention,
)
from .errors import DataError
from .layers import (
    BatchNormParams,
    Conv2DParams,
    Mode,
    batchnorm,
    conv2d,
    dense,
    dropout,
    flatten,
    he_uniform,
    maxpool2d,
    relu,
    separable_conv2d,
    softmax,
)
from .tensor import Tensor, no_tape

# the classifier's outputs in order, and the dataset's class directory names
CLASS_NAMES = ("MildDemented", "ModerateDemented", "NonDemented", "VeryMildDemented")

CHECKPOINT_MAGIC = b"BFPC"
CHECKPOINT_VERSION = 2
# every payload starts at a multiple of this file offset, so that a mapped
# payload is an aligned float32 array: numpy copies unaligned operands
PAYLOAD_ALIGN = 64


@dataclass
class ModelConfig:
    """Widths and knobs for the layer stack; each field ``<name>`` is the
    config key ``model.<name>``. The default geometry follows the common
    inception-style widths; every width is sweepable."""

    input_size: int = 224
    stem_filters: int = 64
    stem_kernel: int = 7
    refine_filters: tuple[int, ...] = (64, 192)
    # per inception block, the six counts of blocks.InceptionParams
    inception1: tuple[int, ...] = (64, 96, 128, 16, 32, 32)
    inception2: tuple[int, ...] = (128, 128, 192, 32, 96, 64)
    sep_blocks: tuple[int, ...] = (128, 256)
    spatial_filters: int | None = None  # None: match the input channel count
    spatial_kernel: int = 3
    spatial_dilations: tuple[int, ...] = (1, 2)
    dense_units: int = 512
    dropout: float = 0.5
    attn_dropout: float = 0.1
    # None only inside load_checkpoint: build_model then draws no weights,
    # because the checkpoint fills every tensor
    seed: int | None = 0

    def __post_init__(self):
        if not self.spatial_dilations:
            raise ValueError("need at least one dilation rate")
        if min(self.spatial_kernel, *self.spatial_dilations,
               1 if self.spatial_filters is None else self.spatial_filters) < 1:
            raise ValueError("spatial kernel, filters and dilations must be >= 1")
        for counts in (self.inception1, self.inception2):
            if len(counts) != 6:
                raise ValueError(f"inception config needs 6 filter counts, "
                                 f"got {','.join(map(str, counts))!r}")
            if min(counts) < 1:
                raise ValueError("all inception filter counts must be >= 1")
        pooled_side(self.input_size)
        if min(self.stem_filters, self.stem_kernel, self.dense_units,
               *self.refine_filters, *self.sep_blocks) < 1:
            raise ValueError("every width and kernel must be >= 1")
        if not 0.0 <= self.dropout < 1.0 or not 0.0 <= self.attn_dropout < 1.0:
            raise ValueError("dropout rates must lie in [0, 1)")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


# -- layers -------------------------------------------------------------------

@dataclass
class Layer:
    """One step of the stack: ``forward(x, mode, rng)`` and the
    ``(suffix, tensor)`` entries it owns, in checkpoint order. ``forward`` is
    a plain attribute so tools can wrap it in place."""

    forward: Callable[[Tensor, Mode, np.random.Generator | None], Tensor]
    tensors: list[tuple[str, Tensor]] = field(default_factory=list)


def _conv_tensors(conv: Conv2DParams, prefix: str = "") -> list[tuple[str, Tensor]]:
    return [(f"{prefix}weight", conv.weights), (f"{prefix}bias", conv.bias)]


def _bn_tensors(bn: BatchNormParams, prefix: str = "") -> list[tuple[str, Tensor]]:
    return [(f"{prefix}gamma", bn.gamma), (f"{prefix}beta", bn.beta),
            (f"{prefix}running_mean", bn.running_mean),
            (f"{prefix}running_var", bn.running_var)]


def _conv_relu(conv: Conv2DParams) -> Layer:
    return Layer(lambda x, mode, rng: relu(conv2d(x, conv)), _conv_tensors(conv))


def _inception(p: InceptionParams) -> Layer:
    paths = ("p1", "p2a", "p2b", "p3a", "p3b", "p4")
    return Layer(lambda x, mode, rng: inception_block(x, p),
                 [entry for path in paths
                  for entry in _conv_tensors(getattr(p, path), f"{path}.")])


def _sep_conv(depthwise: Tensor, pointwise: Tensor, bias: Tensor, bn: BatchNormParams,
              shortcut: Conv2DParams | None) -> Layer:
    """separable conv -> BN, added to the (projected) input, then relu."""

    def fwd(x, mode, rng):
        y = batchnorm(separable_conv2d(x, depthwise, pointwise, bias), bn, mode)
        s = x if shortcut is None else conv2d(x, shortcut)
        return relu(y + s)

    tensors = [("depthwise", depthwise), ("pointwise", pointwise),
               ("bias", bias)] + _bn_tensors(bn, "bn.")
    if shortcut is not None:
        tensors += _conv_tensors(shortcut, "shortcut.")
    return Layer(fwd, tensors)


def _dense(w: Tensor, b: Tensor, apply_relu: bool) -> Layer:
    def fwd(x, mode, rng):
        out = dense(x, w, b)
        return relu(out) if apply_relu else out

    return Layer(fwd, [("weight", w), ("bias", b)])


@dataclass
class ModelGraph:
    """Ordered layer stack with its parameter tensors."""

    config: ModelConfig
    layers: list[tuple[str, Layer]]

    def named_tensors(self):
        """``(name, tensor, trainable)`` in checkpoint order."""
        for layer_name, layer in self.layers:
            for suffix, t in layer.tensors:
                yield f"{layer_name}.{suffix}", t, t.requires_grad

    def parameters(self) -> list[Tensor]:
        return [t for _, t, trainable in self.named_tensors() if trainable]

    def zero_grads(self) -> None:
        for p in self.parameters():
            p.grad = None


def pooled_side(input_size: int) -> int:
    """Spatial extent after the stride-2 stem and the 3x3 stride-2 pool; every
    later layer keeps it, so every batchnorm and the head see it."""
    side = -(-input_size // 2)
    if side < 3:
        raise ValueError(f"input_size must be >= 5 to leave the 3x3 stem pool "
                         f"3 pixels, got {input_size}")
    return (side - 3) // 2 + 1


def build_model(cfg: ModelConfig) -> ModelGraph:
    """Instantiate the layer stack; deterministic for a given cfg.seed. With
    ``seed=None`` the weights are allocated but not drawn."""
    rng = None if cfg.seed is None else np.random.default_rng(cfg.seed)
    layers: list[tuple[str, Layer]] = []
    side = pooled_side(cfg.input_size)

    stem = Conv2DParams.create(rng, 1, cfg.stem_filters, cfg.stem_kernel,
                               stride=2, padding="same")
    layers.append(("stem", _conv_relu(stem)))
    layers.append(("pool", Layer(lambda x, mode, rng: maxpool2d(x, 3, 2))))
    c = cfg.stem_filters

    refine_bn = BatchNormParams.create(c)
    layers.append(("refine.bn", Layer(lambda x, mode, rng: batchnorm(x, refine_bn, mode),
                                      _bn_tensors(refine_bn))))
    for i, f in enumerate(cfg.refine_filters, start=1):
        layers.append((f"refine.conv{i}", _conv_relu(Conv2DParams.create(rng, c, f, 3))))
        c = f

    layers.append(("inception1", _inception(InceptionParams.create(rng, c, cfg.inception1))))
    c = inception_channels(cfg.inception1)

    attn = SelfAttentionParams.create(rng, c, cfg.attn_dropout)
    layers.append(("attention",
                   Layer(lambda x, mode, rng: x + self_attention(x, attn, mode, rng=rng),
                         [(name, getattr(attn, name)) for name in ("wq", "wk", "wv", "wo")])))

    for i, f in enumerate(cfg.sep_blocks, start=1):
        depthwise = he_uniform(rng, (c, 1, 3, 3), 9)
        pointwise = he_uniform(rng, (f, c, 1, 1), c)
        bias = Tensor([f], 0.0, requires_grad=True)
        shortcut = None if f == c else Conv2DParams.create(rng, c, f, 1)
        layers.append((f"sep{i}", _sep_conv(depthwise, pointwise, bias,
                                            BatchNormParams.create(f), shortcut)))
        c = f

    spatial = SpatialAttentionParams.create(rng, c, cfg.spatial_filters, cfg.spatial_kernel,
                                            cfg.spatial_dilations)
    layers.append(("spatial",
                   Layer(lambda x, mode, rng: spatial_attention(x, spatial, mode),
                         [entry for i, (conv, bn) in enumerate(spatial.branches, start=1)
                          for entry in _conv_tensors(conv, f"branch{i}.")
                          + _bn_tensors(bn, f"branch{i}.bn.")])))
    c = c if cfg.spatial_filters is None else cfg.spatial_filters

    layers.append(("inception2", _inception(InceptionParams.create(rng, c, cfg.inception2))))
    c = inception_channels(cfg.inception2)

    res = ResidualBlockParams.create(rng, c)
    layers.append(("residual",
                   Layer(lambda x, mode, rng: residual_block(x, res, mode),
                         _conv_tensors(res.conv1, "a.") + _bn_tensors(res.bn1, "a.bn.")
                         + _conv_tensors(res.conv2, "b.") + _bn_tensors(res.bn2, "b.bn."))))

    layers.append(("flatten", Layer(lambda x, mode, rng: flatten(x))))
    flat = c * side * side
    layers.append(("head", _dense(he_uniform(rng, (flat, cfg.dense_units), flat),
                                  Tensor([cfg.dense_units], 0.0, requires_grad=True), True)))
    layers.append(("head_dropout",
                   Layer(lambda x, mode, rng: dropout(x, cfg.dropout, mode, rng))))
    classes = len(CLASS_NAMES)
    layers.append(("classify", _dense(he_uniform(rng, (cfg.dense_units, classes),
                                                 cfg.dense_units),
                                      Tensor([classes], 0.0, requires_grad=True),
                                      False)))
    layers.append(("softmax", Layer(lambda x, mode, rng: softmax(x))))

    return ModelGraph(cfg, layers)


def forward(model: ModelGraph, batch: Tensor, mode: Mode,
            rng: np.random.Generator | None = None) -> Tensor:
    """Run the stack on a [N, 1, S, S] batch; returns [N, len(CLASS_NAMES)] rows
    of class probabilities. An infer forward records no tape."""
    s = model.config.input_size
    if batch.data.ndim != 4 or batch.shape[1] != 1 or batch.shape[2:] != (s, s):
        raise DataError(f"expected [N, 1, {s}, {s}], got {list(batch.shape)}")
    x = batch
    with no_tape() if mode == "infer" else contextlib.nullcontext():
        for _, layer in model.layers:
            x = layer.forward(x, mode, rng)
    return x


# -- checkpoints ---------------------------------------------------------------

def save_checkpoint(model: ModelGraph, path) -> None:
    """magic 'BFPC', version u32, count u32, then per tensor: name (u16 length
    + utf-8), rank u8, dims u32 each, zero bytes up to the next multiple of
    PAYLOAD_ALIGN, f32 little-endian payload."""
    entries = list(model.named_tensors())
    # written beside ``path`` and renamed over it, never rewritten in place:
    # a model loaded from the old file keeps mapping the old file's bytes
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(entries)))
        for name, tensor, _ in entries:
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", tensor.data.ndim))
            for dim in tensor.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(bytes(-fh.tell() % PAYLOAD_ALIGN))
            # the file takes the array's own buffer, so saving copies no payload
            fh.write(np.ascontiguousarray(tensor.data, dtype="<f4"))
    os.replace(tmp, path)


def load_checkpoint(path, cfg: ModelConfig) -> ModelGraph:
    """Rebuild the model for ``cfg`` without drawing weights, then make every
    tensor a view of its payload in a copy-on-write mapping of the file,
    bitwise: writes to the model never reach the file. The file must hold
    exactly ``named_tensors()`` in order, as ``save_checkpoint`` writes them."""
    view = _Reader(path)
    if view.take(4).tobytes() != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: expected magic {CHECKPOINT_MAGIC!r}")
    version = view.uint("<I")
    if version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: version {version}, supported {CHECKPOINT_VERSION}")
    count = view.uint("<I")

    # the tensors stay uninitialised until their payloads replace them, so
    # any failure below must raise before the model is returned
    model = build_model(replace(cfg, seed=None))
    model.config = cfg
    expected = [(name, t) for name, t, _ in model.named_tensors()]
    for i in range(count):
        name = view.take(view.uint("<H")).tobytes().decode("utf-8", "backslashreplace")
        dims = tuple(view.uint("<I") for _ in range(view.uint("<B")))
        if i == len(expected):
            raise DataError(f"{path}: unexpected tensor {name!r} after the "
                            f"model's last, {expected[-1][0]!r}")
        want, target = expected[i]
        if (name, dims) != (want, target.shape):
            raise DataError(f"{path}: tensor {i} is {name!r} {dims}, "
                            f"model expects {want!r} {target.shape}")
        if view.take(-view.pos % PAYLOAD_ALIGN).any():
            raise DataError(f"{path}: nonzero padding before the payload of "
                            f"tensor {i}, {name!r}")
        payload = view.take(target.data.nbytes).view("<f4").reshape(dims)
        # on a little-endian host a view of the mapping, elsewhere a native copy
        target.data = payload.astype(np.float32, copy=False)
    if view.pos < len(view.raw):
        raise DataError(f"{path}: unexpected data after byte {view.pos}")
    if count < len(expected):
        raise DataError(f"{path}: ends after {count} tensors, "
                        f"model expects {expected[count][0]!r} next")
    return model


class _Reader:
    """Walks a checkpoint's fields in order through a copy-on-write mapping of
    the file; a field that runs past the end says where the file ended."""

    def __init__(self, path):
        self.path = path
        with open(path, "rb") as fh:
            # a zero-byte file cannot be mapped, and holds no field anyway
            mapping = (mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
                       if os.fstat(fh.fileno()).st_size else b"")
        # one byte view per file, sliced per field: a np.frombuffer per
        # tensor would leave a buffer export on every tensor
        self.raw = np.frombuffer(mapping, np.uint8)
        self.pos = 0

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` bytes, as a view of the mapping."""
        start, self.pos = self.pos, self.pos + n
        if self.pos > len(self.raw):
            raise DataError(f"{self.path}: ended at byte {len(self.raw)}, needed {self.pos}")
        return self.raw[start:self.pos]

    def uint(self, fmt: str) -> int:
        """One little-endian unsigned field of struct format ``fmt``."""
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]
