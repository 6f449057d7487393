"""Model assembly, forward contracts, parameter counting, checkpoints."""

import hashlib
import re
import tracemalloc
from collections import Counter
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from bfpcnn.blocks import (
    SelfAttentionParams,
    self_attention,
)
from bfpcnn.cli import RunSpec, read_kv_file
from bfpcnn.errors import ConfigError, DataError
from bfpcnn.model import (
    CLASS_NAMES,
    ModelConfig,
    build_model,
    forward,
    load_checkpoint,
    save_checkpoint,
)
from bfpcnn.tensor import TapeNode, Tensor
from bfpcnn.train import TrainConfig, cross_entropy_loss

from util import check_param_grad


def tiny_config(seed=0, **overrides) -> ModelConfig:
    base = dict(
        input_size=16,
        stem_filters=2,
        refine_filters=(2,),
        inception1=(1, 1, 1, 1, 1, 1),
        inception2=(1, 1, 1, 1, 1, 1),
        sep_blocks=(4,),
        spatial_filters=None, spatial_kernel=3, spatial_dilations=(1, 2),
        dense_units=4,
        dropout=0.0,
        attn_dropout=0.0,
        seed=seed,
    )
    base.update(overrides)
    return ModelConfig(**base)


def expected_param_count(cfg: ModelConfig) -> int:
    """Closed-form count, derived independently from the layer recipe."""
    total = 0
    c = 1
    total += cfg.stem_filters * c * cfg.stem_kernel ** 2 + cfg.stem_filters
    c = cfg.stem_filters
    side = -(-cfg.input_size // 2)
    side = (side - 3) // 2 + 1
    total += 2 * c  # refine bn
    for f in cfg.refine_filters:
        total += f * c * 9 + f
        c = f

    def inception(c_in, counts):
        f11, f21, f22, f31, f32, f41 = counts
        count = f11 * c_in + f11
        count += f21 * c_in + f21
        count += f22 * f21 * 9 + f22
        count += f31 * c_in + f31
        count += f32 * f31 * 25 + f32
        count += f41 * c_in + f41
        return count, f11 + f22 + f32 + f41

    added, c = inception(c, cfg.inception1)
    total += added
    total += 4 * c * c  # attention projections at d_k == channels

    for f in cfg.sep_blocks:
        total += c * 9 + f * c + f + 2 * f
        if f != c:
            total += f * c + f  # 1x1 shortcut
        c = f

    filters = cfg.spatial_filters or c
    for _ in cfg.spatial_dilations:
        total += filters * c * cfg.spatial_kernel ** 2 + filters + 2 * filters
    c = filters

    added, c = inception(c, cfg.inception2)
    total += added
    total += 2 * (c * c * 9 + c) + 2 * (2 * c)  # residual block

    flat = c * side * side
    total += flat * cfg.dense_units + cfg.dense_units
    total += cfg.dense_units * len(CLASS_NAMES) + len(CLASS_NAMES)
    return total


class TestBuild:
    def test_tiny_forward_shape_and_rows(self):
        model = build_model(tiny_config())
        rng = np.random.default_rng(0)
        batch = Tensor([2, 1, 16, 16], rng.random((2, 1, 16, 16), dtype=np.float32))
        out = forward(model, batch, "infer")
        assert out.shape == (2, 4)
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(out.data > 0) and np.all(out.data < 1)

    def test_seed_determinism(self):
        a = build_model(tiny_config(seed=11))
        b = build_model(tiny_config(seed=11))
        for (name_a, ta, _), (name_b, tb, _) in zip(a.named_tensors(), b.named_tensors()):
            assert name_a == name_b
            assert np.array_equal(ta.data, tb.data)

    def test_different_seeds_differ(self):
        a = build_model(tiny_config(seed=1))
        b = build_model(tiny_config(seed=2))
        stem_a = dict((n, t) for n, t, _ in a.named_tensors())["stem.weight"]
        stem_b = dict((n, t) for n, t, _ in b.named_tensors())["stem.weight"]
        assert not np.array_equal(stem_a.data, stem_b.data)

    def test_shape_underflow(self):
        with pytest.raises(ValueError, match="input_size must be >= 5"):
            tiny_config(input_size=4)

    @pytest.mark.parametrize("size", [5, 6, 7, 8])
    def test_smallest_input_sizes_forward(self, size):
        # sizes 5 to 8 leave a 1x1 map after the stem pool, smaller than the
        # inception 2x2 same-padded pool
        model = build_model(tiny_config(input_size=size))
        batch = np.random.default_rng(size).random((2, 1, size, size), dtype=np.float32)
        out = forward(model, Tensor([2, 1, size, size], batch), "infer")
        assert out.shape == (2, 4)
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("override", [
        {"stem_filters": 0}, {"stem_kernel": 0}, {"dense_units": 0},
        {"refine_filters": (2, 0)}, {"sep_blocks": (-4,)},
    ])
    def test_nonpositive_width_rejected(self, override):
        with pytest.raises(ValueError):
            tiny_config(**override)

    @pytest.mark.parametrize("fields", [
        {"spatial_kernel": 0}, {"spatial_filters": 0}, {"spatial_dilations": (1, 0)},
        {"spatial_dilations": ()},
    ])
    def test_nonpositive_spatial_value_rejected(self, fields):
        with pytest.raises(ValueError):
            tiny_config(**fields)

    def test_batch_shape_checked(self):
        model = build_model(tiny_config())
        with pytest.raises(DataError, match=r"expected \[N, 1, 16, 16\], got "):
            forward(model, Tensor([2, 1, 8, 8], 0.0), "infer")
        with pytest.raises(DataError, match=r"expected \[N, 1, 16, 16\], got "):
            forward(model, Tensor([2, 3, 16, 16], 0.0), "infer")


class TestParamCount:
    def test_dense_and_conv_formulas(self):
        assert 12 * 4 + 4 == 52
        assert 8 * 1 * 3 * 3 + 8 == 80

    def test_tiny_config_closed_form(self):
        cfg = tiny_config()
        model = build_model(cfg)
        assert sum(p.size for p in model.parameters()) == expected_param_count(cfg)

    def test_spec_tiny_variant_closed_form(self):
        cfg = tiny_config(
            input_size=32,
            stem_filters=4,
            refine_filters=(4,),
            inception1=(4, 4, 4, 4, 4, 4),
            inception2=(4, 4, 4, 4, 4, 4),
            sep_blocks=(8,),
            dense_units=8,
        )
        model = build_model(cfg)
        assert sum(p.size for p in model.parameters()) == expected_param_count(cfg)

    def test_running_stats_not_counted(self):
        model = build_model(tiny_config())
        trainable = sum(p.size for p in model.parameters())
        with_buffers = sum(t.size for _, t, _ in model.named_tensors())
        assert with_buffers > trainable


class TestForwardProperties:
    def test_identical_rows_for_identical_inputs(self):
        model = build_model(tiny_config())
        rng = np.random.default_rng(5)
        one = rng.random((1, 1, 16, 16), dtype=np.float32)
        batch = np.concatenate([one, one], axis=0)
        out = forward(model, Tensor([2, 1, 16, 16], batch), "infer")
        assert np.array_equal(out.data[0], out.data[1])

    @pytest.mark.parametrize("scale", [0.0, 1.0, 1e3])
    def test_stability_across_scales(self, scale):
        model = build_model(tiny_config())
        rng = np.random.default_rng(6)
        batch = (rng.random((2, 1, 16, 16), dtype=np.float32) * np.float32(scale))
        out = forward(model, Tensor([2, 1, 16, 16], batch), "infer")
        assert np.all(np.isfinite(out.data))
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-6)

    def test_train_mode_dropout_needs_rng(self):
        model = build_model(tiny_config(dropout=0.5))
        with pytest.raises(ValueError):
            forward(model, Tensor([2, 1, 16, 16], 0.5), "train")

    @pytest.mark.parametrize("mode", ["infer", "train"])
    def test_attention_layer_adds_residual(self, mode):
        model = build_model(tiny_config(attn_dropout=0.2))
        layer = dict(model.layers)["attention"]
        # 4 channels: the output depth of tiny_config's inception1
        params = SelfAttentionParams.create(np.random.default_rng(0), 4, 0.2)
        params.wq, params.wk, params.wv, params.wo = (t for _, t in layer.tensors)
        xv = np.random.default_rng(8).random((2, 4, 3, 3), dtype=np.float32)
        out = layer.forward(Tensor([2, 4, 3, 3], xv.copy()), mode, np.random.default_rng(9))
        x = Tensor([2, 4, 3, 3], xv.copy())
        expected = x + self_attention(x, params, mode, rng=np.random.default_rng(9))
        assert np.array_equal(out.data, expected.data)

    def test_train_mode_runs_with_rng(self):
        model = build_model(tiny_config(dropout=0.5, attn_dropout=0.1))
        out = forward(model, Tensor([2, 1, 16, 16], 0.5), "train",
                      rng=np.random.default_rng(3))
        assert out.shape == (2, 4)


class TestGradientFlow:
    def test_parameter_gradients_match_fd(self):
        model = build_model(tiny_config(seed=3))
        # move off the pristine init: zero biases leave exact-zero
        # activations sitting on relu kinks where FD is ill-defined
        jiggle = np.random.default_rng(2)
        for _, p, trainable in model.named_tensors():
            if trainable:
                p.data += jiggle.uniform(-0.05, 0.05, p.shape).astype(np.float32)
        rng = np.random.default_rng(7)
        batch_data = rng.random((2, 1, 16, 16), dtype=np.float32)
        weights = rng.random((2, 4), dtype=np.float32)

        def loss_fn():
            batch = Tensor([2, 1, 16, 16], batch_data.copy())
            out = forward(model, batch, "train")
            return (out * Tensor([2, 4], weights.copy())).sum()

        named = dict((n, t) for n, t, tr in model.named_tensors() if tr)
        for name in ("stem.weight", "refine.bn.gamma", "attention.wq",
                     "sep1.depthwise", "classify.bias"):
            param = named[name]
            take = min(param.data.size, 6)
            check_param_grad(loss_fn, param, tol=1e-2, indices=range(take))


# (name, shape, trainable) of build_model(tiny_config()) in checkpoint order.
# Checkpoints are matched to the model by these names and shapes, so a rename
# or reshape makes existing checkpoints unloadable; a reorder changes the
# bytes save_checkpoint writes.
TINY_LAYOUT = [
    ("stem.weight", (2, 1, 7, 7), True), ("stem.bias", (2,), True),
    ("refine.bn.gamma", (2,), True), ("refine.bn.beta", (2,), True),
    ("refine.bn.running_mean", (2,), False), ("refine.bn.running_var", (2,), False),
    ("refine.conv1.weight", (2, 2, 3, 3), True), ("refine.conv1.bias", (2,), True),
    ("inception1.p1.weight", (1, 2, 1, 1), True), ("inception1.p1.bias", (1,), True),
    ("inception1.p2a.weight", (1, 2, 1, 1), True), ("inception1.p2a.bias", (1,), True),
    ("inception1.p2b.weight", (1, 1, 3, 3), True), ("inception1.p2b.bias", (1,), True),
    ("inception1.p3a.weight", (1, 2, 1, 1), True), ("inception1.p3a.bias", (1,), True),
    ("inception1.p3b.weight", (1, 1, 5, 5), True), ("inception1.p3b.bias", (1,), True),
    ("inception1.p4.weight", (1, 2, 1, 1), True), ("inception1.p4.bias", (1,), True),
    ("attention.wq", (4, 4), True), ("attention.wk", (4, 4), True),
    ("attention.wv", (4, 4), True), ("attention.wo", (4, 4), True),
    ("sep1.depthwise", (4, 1, 3, 3), True), ("sep1.pointwise", (4, 4, 1, 1), True),
    ("sep1.bias", (4,), True), ("sep1.bn.gamma", (4,), True),
    ("sep1.bn.beta", (4,), True), ("sep1.bn.running_mean", (4,), False),
    ("sep1.bn.running_var", (4,), False),
    ("spatial.branch1.weight", (4, 4, 3, 3), True),
    ("spatial.branch1.bias", (4,), True), ("spatial.branch1.bn.gamma", (4,), True),
    ("spatial.branch1.bn.beta", (4,), True),
    ("spatial.branch1.bn.running_mean", (4,), False),
    ("spatial.branch1.bn.running_var", (4,), False),
    ("spatial.branch2.weight", (4, 4, 3, 3), True),
    ("spatial.branch2.bias", (4,), True), ("spatial.branch2.bn.gamma", (4,), True),
    ("spatial.branch2.bn.beta", (4,), True),
    ("spatial.branch2.bn.running_mean", (4,), False),
    ("spatial.branch2.bn.running_var", (4,), False),
    ("inception2.p1.weight", (1, 4, 1, 1), True), ("inception2.p1.bias", (1,), True),
    ("inception2.p2a.weight", (1, 4, 1, 1), True), ("inception2.p2a.bias", (1,), True),
    ("inception2.p2b.weight", (1, 1, 3, 3), True), ("inception2.p2b.bias", (1,), True),
    ("inception2.p3a.weight", (1, 4, 1, 1), True), ("inception2.p3a.bias", (1,), True),
    ("inception2.p3b.weight", (1, 1, 5, 5), True), ("inception2.p3b.bias", (1,), True),
    ("inception2.p4.weight", (1, 4, 1, 1), True), ("inception2.p4.bias", (1,), True),
    ("residual.a.weight", (4, 4, 3, 3), True), ("residual.a.bias", (4,), True),
    ("residual.a.bn.gamma", (4,), True), ("residual.a.bn.beta", (4,), True),
    ("residual.a.bn.running_mean", (4,), False),
    ("residual.a.bn.running_var", (4,), False),
    ("residual.b.weight", (4, 4, 3, 3), True), ("residual.b.bias", (4,), True),
    ("residual.b.bn.gamma", (4,), True), ("residual.b.bn.beta", (4,), True),
    ("residual.b.bn.running_mean", (4,), False),
    ("residual.b.bn.running_var", (4,), False),
    ("head.weight", (36, 4), True), ("head.bias", (4,), True),
    ("classify.weight", (4, 4), True), ("classify.bias", (4,), True),
]


class TestTapeContract:
    def test_closures_return_one_gradient_per_input_and_write_nothing(self):
        model = build_model(tiny_config(seed=4))
        batch = np.random.default_rng(4).random((2, 1, 16, 16), dtype=np.float32)
        loss = cross_entropy_loss(forward(model, Tensor([2, 1, 16, 16], batch), "train"),
                                  [0, 3])
        stack, seen, kinds = [loss], set(), Counter()
        while stack:
            t = stack.pop()
            if id(t) in seen or t.node is None:
                continue
            seen.add(id(t))
            kinds[t.node.op_kind] += 1
            grads = t.node.backward_fn(np.ones_like(t.data))
            assert len(grads) == len(t.node.inputs), t.node.op_kind
            for inp, g in zip(t.node.inputs, grads):
                assert inp.grad is None, t.node.op_kind
                if inp.requires_grad:
                    assert g is not None and g.shape == inp.shape, t.node.op_kind
                    assert g.dtype == np.float32, t.node.op_kind
            stack.extend(t.node.inputs)
        assert {"conv2d", "depthwise_conv2d", "maxpool2d", "batchnorm", "relu",
                "concat_depth", "gather_positions", "matmul", "attention", "softmax",
                "dense", "cross_entropy", "reshape", "transpose", "add"} <= set(kinds)
        assert kinds["attention"] == 1  # the model's one attention layer

    def test_infer_forward_records_no_tape(self):
        model = build_model(tiny_config(seed=8, attn_dropout=0.2))
        batch = np.random.default_rng(8).random((2, 1, 16, 16), dtype=np.float32)
        probs = forward(model, Tensor([2, 1, 16, 16], batch), "infer")
        assert probs.node is None and not probs.requires_grad
        with pytest.raises(ValueError, match="no recorded computation"):
            cross_entropy_loss(probs, [0, 1]).backward()
        assert all(p.grad is None for p in model.parameters())

    def test_train_forward_records_after_a_failed_infer_forward(self):
        model = build_model(tiny_config(seed=9))
        _, layer = model.layers[-1]
        inner = layer.forward

        def failing(x, mode, rng):
            raise RuntimeError("inside the untaped forward")

        layer.forward = failing
        batch = np.random.default_rng(9).random((2, 1, 16, 16), dtype=np.float32)
        with pytest.raises(RuntimeError):
            forward(model, Tensor([2, 1, 16, 16], batch), "infer")
        layer.forward = inner
        probs = forward(model, Tensor([2, 1, 16, 16], batch), "train")
        assert probs.node is not None
        cross_entropy_loss(probs, [0, 1]).backward()
        assert all(p.grad is not None for p in model.parameters())

    @staticmethod
    def _train_step_grads(model, rng_seed):
        batch = np.random.default_rng(5).random((2, 1, 16, 16), dtype=np.float32)
        probs = forward(model, Tensor([2, 1, 16, 16], batch), "train",
                        rng=np.random.default_rng(rng_seed))
        cross_entropy_loss(probs, [1, 2]).backward()
        return [p.grad for p in model.parameters()]

    def test_parameter_grads_are_float32_of_the_parameter_shape(self):
        model = build_model(tiny_config(seed=6, dropout=0.3, attn_dropout=0.2))
        for p, g in zip(model.parameters(), self._train_step_grads(model, 1)):
            assert g is not None and g.dtype == np.float32 and g.shape == p.shape

    def test_closures_never_write_into_their_gradient(self, monkeypatch):
        cfg = tiny_config(seed=7, dropout=0.3, attn_dropout=0.2)
        expected = self._train_step_grads(build_model(cfg), 2)
        node_init = TapeNode.__init__

        def read_only_g(node, op_kind, inputs, backward_fn):
            def wrapped(g):
                view = g.view()
                view.flags.writeable = False  # any write into g now raises
                return backward_fn(view)
            node_init(node, op_kind, inputs, wrapped)

        monkeypatch.setattr(TapeNode, "__init__", read_only_g)
        got = self._train_step_grads(build_model(cfg), 2)
        for a, b in zip(expected, got):
            assert np.array_equal(a, b)


class TestCheckpoint:
    def test_tensor_layout_pinned(self):
        entries = [(name, t.shape, trainable)
                   for name, t, trainable in build_model(tiny_config()).named_tensors()]
        assert entries == TINY_LAYOUT

    def test_roundtrip_bitwise(self, tmp_path):
        cfg = tiny_config(seed=9)
        model = build_model(cfg)
        rng = np.random.default_rng(8)
        batch = rng.random((2, 1, 16, 16), dtype=np.float32)
        before = forward(model, Tensor([2, 1, 16, 16], batch.copy()), "infer").data
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)

        restored = load_checkpoint(path, tiny_config(seed=123))  # same shapes
        after = forward(restored, Tensor([2, 1, 16, 16], batch.copy()), "infer").data
        assert np.array_equal(before, after)
        for (na, ta, _), (nb, tb, _) in zip(model.named_tensors(),
                                            restored.named_tensors()):
            assert na == nb
            assert np.array_equal(ta.data, tb.data)

    def test_save_peak_allocation_bounded(self, tmp_path):
        model = build_model(tiny_config(input_size=64, dense_units=64))
        tensor_bytes = sum(t.data.nbytes for _, t, _ in model.named_tensors())
        tracemalloc.start()
        try:
            save_checkpoint(model, tmp_path / "model.ckpt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # writing each tensor from its own buffer needs no payload copy
        assert peak < 0.5 * tensor_bytes

    def test_load_peak_allocation_bounded(self, tmp_path):
        cfg = tiny_config(input_size=64, dense_units=64)
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(cfg), path)
        # the model's own size: its tensors plus the Python objects around
        # them, which at this width add about 0.14x the tensor bytes
        tracemalloc.start()
        try:
            model = build_model(cfg)
            own = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        del model
        tracemalloc.start()
        try:
            load_checkpoint(path, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # each payload is read into its tensor's buffer: no copy of the file
        # or of any tensor, which would add at least the 0.98x head weight
        assert peak < 1.1 * own

    def test_fresh_build_draws_pinned_bits(self):
        # load_checkpoint builds without drawing; a fresh build must still
        # draw exactly these bits, in this order, for seeded runs to repeat
        digest = hashlib.sha256()
        for _, t, _ in build_model(tiny_config(seed=5)).named_tensors():
            digest.update(t.data.tobytes())
        assert digest.hexdigest() == (
            "ea41a647237a42e0a7d1fd9a8ed86a4cf23be81a57050f7b334e103216e0c6a1")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(tiny_config()), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="expected magic b'BFPC'"):
            load_checkpoint(path, tiny_config())

    # version 1 packed each payload right after its dims, unaligned
    @pytest.mark.parametrize("version", [1, 9])
    def test_version_mismatch(self, tmp_path, version):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(tiny_config()), path)
        raw = bytearray(path.read_bytes())
        raw[4] = version
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match=f"version {version}, supported 2"):
            load_checkpoint(path, tiny_config())

    def test_truncated(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(tiny_config()), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(DataError, match="ended at byte .*, needed"):
            load_checkpoint(path, tiny_config())

    # the first entry, "stem.weight" [2, 1, 7, 7], starts at byte 12: name
    # length at 12, name at 14, rank at 25, dims at 26, padding at 42,
    # payload at 64
    @pytest.mark.parametrize("cut", [0, 6, 19, 32, 50, 142, -1],
                             ids=["empty", "header", "name", "dims", "padding", "payload",
                                  "last-byte"])
    def test_truncated_anywhere(self, tmp_path, cut):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(tiny_config()), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:cut])
        with pytest.raises(DataError, match=f"ended at byte {len(raw[:cut])}, needed"):
            load_checkpoint(path, tiny_config())

    def test_missing_tensor_named(self, tmp_path):
        path = tmp_path / "model.ckpt"
        model = build_model(tiny_config())
        entries = [e for e in model.named_tensors() if e[0] != "sep1.bias"]
        save_checkpoint(SimpleNamespace(named_tensors=lambda: entries), path)
        with pytest.raises(DataError, match="model expects 'sep1.bias'"):
            load_checkpoint(path, tiny_config())

    def test_trailing_data_refused(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(tiny_config()), path)
        size = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b"garbage" * 10)
        with pytest.raises(DataError,
                           match=f"{re.escape(str(path))}: unexpected data after byte {size}"):
            load_checkpoint(path, tiny_config())

    def test_non_utf8_name_refused(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(tiny_config()), path)
        raw = bytearray(path.read_bytes())
        raw[14] = 0xFF  # first byte of the name "stem.weight"
        path.write_bytes(bytes(raw))
        # the message spells the bad byte out, as repr shows a backslash
        expected = f"{path}: tensor 0 is " + r"'\\xfftem.weight'"
        with pytest.raises(DataError, match=re.escape(expected)):
            load_checkpoint(path, tiny_config())

    def test_repeated_name_refused(self, tmp_path):
        path = tmp_path / "model.ckpt"
        entries = list(build_model(tiny_config()).named_tensors())
        save_checkpoint(SimpleNamespace(named_tensors=lambda: entries + entries[:1]), path)
        with pytest.raises(DataError,
                           match=f"{re.escape(str(path))}: unexpected tensor 'stem.weight'"):
            load_checkpoint(path, tiny_config())

    # each entry: how to spoil a saved tiny checkpoint, and the refusal's text
    # after the path; the loader reads entries in named_tensors() order
    SPOILED = {
        "missing-middle": (
            lambda save, e, raw: save(e[:26] + e[27:]),
            "tensor 26 is 'sep1.bn.gamma' (4,), model expects 'sep1.bias' (4,)"),
        "missing-last": (
            lambda save, e, raw: save(e[:-1]),
            f"ends after {len(TINY_LAYOUT) - 1} tensors, model expects "
            "'classify.bias' next"),
        "appended-duplicate": (
            lambda save, e, raw: save(e + e[:1]),
            "unexpected tensor 'stem.weight' after the model's last, 'classify.bias'"),
        "swapped": (
            lambda save, e, raw: save(e[:2] + [e[3], e[2]] + e[4:]),
            "tensor 2 is 'refine.bn.beta' (2,), model expects 'refine.bn.gamma' (2,)"),
        "wrong-dims": (
            lambda save, e, raw: save(
                list(build_model(tiny_config(stem_filters=3)).named_tensors())),
            "tensor 0 is 'stem.weight' (3, 1, 7, 7), model expects 'stem.weight' "
            "(2, 1, 7, 7)"),
        "non-utf8-name": (
            lambda save, e, raw: raw[:14] + b"\xff" + raw[15:],
            r"tensor 0 is '\\xfftem.weight' (2, 1, 7, 7), model expects 'stem.weight' "
            "(2, 1, 7, 7)"),
        "trailing-bytes": (
            lambda save, e, raw: raw + b"x",
            "unexpected data after byte {size}"),
        "nonzero-padding": (
            lambda save, e, raw: raw[:63] + b"\x01" + raw[64:],
            "nonzero padding before the payload of tensor 0, 'stem.weight'"),
    }

    @pytest.mark.parametrize("case", SPOILED)
    def test_spoiled_checkpoint_refused_naming_tensors(self, tmp_path, case):
        spoil, message = self.SPOILED[case]
        path = tmp_path / "model.ckpt"

        def save_entries(entries):
            save_checkpoint(SimpleNamespace(named_tensors=lambda: entries), path)
            return path.read_bytes()

        entries = list(build_model(tiny_config()).named_tensors())
        raw = save_entries(entries)
        path.write_bytes(spoil(save_entries, entries, raw))
        expected = f"{path}: " + message.format(size=len(raw))
        with pytest.raises(DataError, match=f"^{re.escape(expected)}$"):
            load_checkpoint(path, tiny_config())

    def test_config_shape_conflict(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(tiny_config()), path)
        with pytest.raises(DataError, match=r"tensor 0 is 'stem.weight' \(2, 1, 7, 7\), "
                                            r"model expects 'stem.weight' \(3, 1, 7, 7\)"):
            load_checkpoint(path, tiny_config(stem_filters=3))

    def test_wire_format_layout(self, tmp_path):
        # independent parse of the declared byte layout: magic, u32 version,
        # u32 count, then (u16 name length, name, u8 rank, u32 dims, zero
        # padding to a multiple of 64 bytes, f32 data)
        import struct

        model = build_model(tiny_config(seed=2))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        assert raw[:4] == b"BFPC"
        version, count = struct.unpack_from("<II", raw, 4)
        assert version == 2
        entries = list(model.named_tensors())
        assert count == len(entries)
        pos = 12
        for name, tensor, _ in entries:
            (name_len,) = struct.unpack_from("<H", raw, pos)
            pos += 2
            assert raw[pos:pos + name_len].decode("utf-8") == name
            pos += name_len
            rank = raw[pos]
            pos += 1
            dims = struct.unpack_from(f"<{rank}I", raw, pos)
            pos += 4 * rank
            assert dims == tensor.shape
            payload_at = -(-pos // 64) * 64
            assert raw[pos:payload_at] == bytes(payload_at - pos)
            pos = payload_at
            n = int(np.prod(dims))
            payload = np.frombuffer(raw, dtype="<f4", count=n, offset=pos)
            assert np.array_equal(payload.reshape(dims), tensor.data)
            pos += 4 * n
        assert pos == len(raw)  # no trailer

    def test_loaded_model_and_file_stay_apart(self, tmp_path):
        # the load maps the file copy-on-write, and a save replaces the file:
        # neither a write into the model nor a re-save reaches the other
        cfg = tiny_config(seed=4)
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(cfg), path)
        saved = path.read_bytes()
        loaded = load_checkpoint(path, cfg)
        head = {name: t for name, t, _ in loaded.named_tensors()}["head.weight"]
        head.data[...] = 7.0
        assert path.read_bytes() == saved

        loaded = load_checkpoint(path, cfg)
        batch = np.random.default_rng(3).standard_normal((2, 1, 16, 16), dtype=np.float32)
        before = forward(loaded, Tensor(batch.shape, batch), "infer").data.copy()
        tensors = [t.data.copy() for _, t, _ in loaded.named_tensors()]
        save_checkpoint(build_model(replace(cfg, seed=5)), path)
        assert path.read_bytes() != saved
        for (_, t, _), kept in zip(loaded.named_tensors(), tensors):
            assert np.array_equal(t.data, kept)
        assert np.array_equal(forward(loaded, Tensor(batch.shape, batch), "infer").data,
                              before)


class TestConfigSerialization:
    def test_kv_roundtrip(self):
        spec = RunSpec(tiny_config(seed=17, dense_units=6), TrainConfig(), False, 3)
        assert RunSpec.from_kv(spec.to_kv()) == spec

    def test_kv_roundtrip_every_field_set(self):
        cfg = ModelConfig(
            input_size=33, stem_filters=3, stem_kernel=5, refine_filters=(4, 6, 2),
            inception1=(1, 2, 3, 4, 5, 6), inception2=(6, 5, 4, 3, 2, 1),
            sep_blocks=(7,), spatial_filters=5, spatial_kernel=5,
            spatial_dilations=(3, 1, 2), dense_units=9, dropout=0.125,
            attn_dropout=0.3, seed=12)
        # an lr whose shortest repr takes all 17 digits
        train_cfg = TrainConfig(learning_rate=0.1 + 0.2, epochs=3, batch_size=5,
                                optimizer="sgd", seed=9, val_fraction=0.3)
        for changed, default in ((cfg, ModelConfig()), (train_cfg, TrainConfig())):
            assert all(getattr(changed, f.name) != getattr(default, f.name)
                       for f in fields(changed))
        # spatial_filters written as a number, then as "auto"
        for model_cfg in (cfg, replace(cfg, spatial_filters=None)):
            spec = RunSpec(model_cfg, train_cfg, preprocess_full=True, window=5)
            assert RunSpec.from_kv(spec.to_kv()) == spec

    def test_kv_file_parse(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("a = 1\n# comment\nb = two words  # trailing\n\n")
        assert read_kv_file(path) == {"a": "1", "b": "two words"}

    def test_kv_file_not_utf8_names_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"a = 1\n# \xff\xfe\n")
        with pytest.raises(ConfigError,
                           match=f"^{re.escape(str(path))}: not UTF-8 text \\(byte 8\\)$"):
            read_kv_file(path)

    def test_kv_file_rejects_garbage(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("not a pair\n")
        with pytest.raises(ConfigError, match="run.cfg:1: expected 'key = value'"):
            read_kv_file(path)

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad model configuration value: "):
            RunSpec.from_kv({"model.input_size": "huge"})


@pytest.mark.slow
class TestDefaultConfig:
    def test_default_build_and_forward(self):
        cfg = ModelConfig()
        assert (cfg.input_size == 224
                and RunSpec(cfg, TrainConfig(), False, 3).to_kv()["model.class_count"] == "4")
        assert cfg.stem_filters == 64 and cfg.stem_kernel == 7
        model = build_model(cfg)
        assert sum(p.size for p in model.parameters()) == expected_param_count(cfg)
        rng = np.random.default_rng(1)
        batch = rng.random((2, 1, 224, 224), dtype=np.float32)
        out = forward(model, Tensor([2, 1, 224, 224], batch), "infer")
        assert out.shape == (2, 4)
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-6)
