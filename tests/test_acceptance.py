"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion. Headline paper-scale accuracies are out of reach at desk
scale by design; these properties are the replacement.
"""

import time

import numpy as np
import pytest

from bfpcnn.blocks import (
    InceptionParams,
    ResidualBlockParams,
    SelfAttentionParams,
    SpatialAttentionParams,
    _attend,
    inception_block,
    residual_block,
    self_attention,
    spatial_attention,
)
from bfpcnn.cli import main, resolve_run_spec
from bfpcnn.data import gen_synthetic, load_dataset
from bfpcnn.errors import DataError
from bfpcnn.layers import (
    BatchNormParams,
    Conv2DParams,
    batchnorm,
    conv2d,
    dense,
    dropout,
    maxpool2d,
    relu,
    separable_conv2d,
    softmax,
)
from bfpcnn.model import (
    ModelConfig,
    build_model,
    forward,
    load_checkpoint,
    save_checkpoint,
)
from bfpcnn.tensor import Tensor, matmul
from bfpcnn.train import (
    TrainConfig,
    compute_metrics,
    confusion_matrix,
    cross_entropy_loss,
    train,
)

from test_preprocess import equalize_oracle, median_oracle, random_image, resize_oracle
from bfpcnn.preprocess import GrayImage, histogram_equalize, median_filter, resize
from util import check_grad, check_param_grad, distinct_values, smooth_values

LAYER_TOL = 1e-3
COMPOSITE_TOL = 1e-2
END_TO_END_TOL = 1e-2


def announce(number: int, ok: bool, message: str) -> None:
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {message}")
    assert ok


def tiny_config(**overrides) -> ModelConfig:
    base = dict(
        input_size=16,
        stem_filters=2,
        refine_filters=(2,),
        inception1=(1, 1, 1, 1, 1, 1),
        inception2=(1, 1, 1, 1, 1, 1),
        sep_blocks=(4,),
        dense_units=4,
        dropout=0.0,
        attn_dropout=0.0,
        seed=3,
    )
    base.update(overrides)
    return ModelConfig(**base)


def reduced_config() -> ModelConfig:
    """The desk-scale model for the convergence criterion."""
    return ModelConfig(
        input_size=64,
        stem_filters=8,
        refine_filters=(8,),
        inception1=(4, 4, 4, 4, 4, 4),
        inception2=(4, 4, 4, 4, 4, 4),
        sep_blocks=(16,),
        spatial_filters=None, spatial_kernel=3, spatial_dilations=(1, 2),
        dense_units=64,
        dropout=0.25,
        attn_dropout=0.0,
        seed=7,
    )


def test_criterion_1_table_defaults():
    spec = resolve_run_spec(None, None, None, None, None)
    ok = (spec.train.learning_rate == 0.001
          and spec.train.epochs == 100
          and spec.train.batch_size == 128)
    announce(1, ok, "CLI defaults are lr=0.001, epochs=100, batch=128 "
                    "(paper-scale accuracies replaced by this property suite)")


def test_criterion_2_gradient_correctness():
    started = time.monotonic()
    cases = 0

    def op_case(f, values, tol=LAYER_TOL):
        nonlocal cases
        check_grad(f, Tensor(list(values.shape), values.reshape(-1).copy()), tol=tol)
        cases += 1

    for seed in range(10):
        rng = np.random.default_rng(10_000 + seed)

        x = smooth_values(rng, (3, 4))
        c = smooth_values(rng, (3, 4))
        op_case(lambda t: ((t * Tensor([3, 4], c.copy())) + t * Tensor([3, 4], 0.5)).sum(), x)

        w = smooth_values(rng, (4, 2))
        op_case(lambda t: matmul(t, Tensor([4, 2], w.copy())).sum(),
                smooth_values(rng, (3, 4)))

        q, k, v, up = (smooth_values(rng, (2, 3, 4)) for _ in range(4))
        rate = 0.3 * (seed % 2)  # odd seeds: one fixed-seed dropout mask for every probe

        def attend(*qkv):
            out, _ = _attend(*qkv, 0.5, rate, "train", np.random.default_rng(seed))
            return (out * Tensor([2, 3, 4], up.copy())).sum()

        def fixed(a):
            return Tensor([2, 3, 4], a.copy())

        op_case(lambda t: attend(t, fixed(k), fixed(v)), q)
        op_case(lambda t: attend(fixed(q), t, fixed(v)), k)
        op_case(lambda t: attend(fixed(q), fixed(k), t), v)

        op_case(lambda t: (t.transpose(0, 2, 1).reshape([4, 6])
                           * t.transpose(0, 2, 1).reshape([4, 6])).sum(),
                smooth_values(rng, (2, 3, 4)))

        op_case(lambda t: (relu(t) * relu(t)).sum(), smooth_values(rng, (3, 4)))

        wv = smooth_values(rng, (2, 2, 3, 3))
        op_case(lambda t: conv2d(t, Conv2DParams(
            Tensor([2, 2, 3, 3], wv.copy()), Tensor([2], 0.1), 1, "same")).sum(),
            smooth_values(rng, (1, 2, 3, 3)))

        dw = smooth_values(rng, (2, 1, 3, 3))
        pw = smooth_values(rng, (3, 2, 1, 1))
        op_case(lambda t: separable_conv2d(
            t, Tensor([2, 1, 3, 3], dw.copy()), Tensor([3, 2, 1, 1], pw.copy()),
            Tensor([3], 0.0)).sum(), smooth_values(rng, (1, 2, 4, 4)))

        op_case(lambda t: maxpool2d(t, 2, 2).sum(),
                distinct_values(rng, (1, 2, 4, 4)))

        gv = smooth_values(rng, (2,))
        bv = smooth_values(rng, (2,))
        cw = smooth_values(rng, (2, 2, 3, 3))
        op_case(lambda t: (batchnorm(t, BatchNormParams(
            Tensor([2], gv.copy()), Tensor([2], bv.copy()),
            Tensor([2], 0.0), Tensor([2], 1.0)), "train")
            * Tensor([2, 2, 3, 3], cw.copy())).sum(),
            smooth_values(rng, (2, 2, 3, 3), scale=1.5))

        dwv = smooth_values(rng, (4, 2))
        op_case(lambda t: dense(t, Tensor([4, 2], dwv.copy()),
                                Tensor([2], 0.1)).sum(),
                smooth_values(rng, (3, 4)))

        sc = smooth_values(rng, (2, 4))
        op_case(lambda t: (softmax(t) * Tensor([2, 4], sc.copy())).sum(),
                smooth_values(rng, (2, 4)))

        op_case(lambda t: dropout(t, 0.4, "train", np.random.default_rng(1234 + seed)).sum(),
                smooth_values(rng, (4, 4)))

    # composite blocks, at the composite budget
    for seed in range(4):
        rng = np.random.default_rng(20_000 + seed)

        ip = InceptionParams.create(rng, 2, (1, 1, 1, 1, 1, 1))
        op_case(lambda t: inception_block(t, ip).sum(),
                smooth_values(rng, (1, 2, 4, 4)), tol=COMPOSITE_TOL)

        ap = SelfAttentionParams.create(rng, 2, 0.0)
        op_case(lambda t: (t + self_attention(t, ap, "infer")).sum(),
                smooth_values(rng, (1, 2, 2, 2)), tol=COMPOSITE_TOL)

        sp = SpatialAttentionParams.create(rng, 2, 2, 3, (1, 2))
        op_case(lambda t: spatial_attention(t, sp, "train").sum(),
                smooth_values(rng, (1, 2, 4, 4)), tol=COMPOSITE_TOL)

        rp = ResidualBlockParams.create(rng, 2)
        op_case(lambda t: residual_block(t, rp, "train").sum(),
                smooth_values(rng, (1, 2, 3, 3)), tol=COMPOSITE_TOL)

    # end-to-end: d(loss)/d(every parameter) on a tiny model. The sweep runs
    # at a generic parameter point: the pristine init sits exactly on relu
    # kinks (zero biases propagate exact zeros), where one-sided subgradients
    # and central differences legitimately disagree. A seed whose jiggle
    # leaves some activation within h of a kink is skipped; a real autodiff
    # defect fails every seed.
    end_to_end_error = None
    for jiggle_seed in (2, 5, 9):
        model = build_model(tiny_config())
        jiggle = np.random.default_rng(jiggle_seed)
        for _, p, trainable in model.named_tensors():
            if trainable:
                p.data += jiggle.uniform(-0.05, 0.05, p.shape).astype(np.float32)
        rng = np.random.default_rng(99)
        batch_data = rng.random((2, 1, 16, 16), dtype=np.float32)
        labels = np.array([0, 2])

        def loss_fn():
            batch = Tensor([2, 1, 16, 16], batch_data.reshape(-1).copy())
            return cross_entropy_loss(forward(model, batch, "train"), labels)

        try:
            swept = 0
            for _, param, trainable in model.named_tensors():
                if trainable:
                    check_param_grad(loss_fn, param, tol=END_TO_END_TOL)
                    swept += 1
            cases += swept
            end_to_end_error = None
            break
        except AssertionError as exc:
            end_to_end_error = exc
    assert end_to_end_error is None, f"end-to-end sweep failed on all seeds: {end_to_end_error}"

    elapsed = time.monotonic() - started
    announce(2, cases >= 100 and elapsed < 120,
             f"finite-difference checks: {cases} seeded cases "
             f"(layers {LAYER_TOL:.0e}, composites/end-to-end {COMPOSITE_TOL:.0e}) "
             f"in {elapsed:.1f}s < 120s")


def test_criterion_3_preprocessing_oracles():
    started = time.monotonic()
    hand = histogram_equalize(GrayImage(
        np.array([[10, 10], [20, 20]], np.uint8)))
    assert hand.pixels.tolist() == [[0, 0], [255, 255]]
    for seed in range(50):
        rng = np.random.default_rng(30_000 + seed)
        img = random_image(rng, max_side=32)
        assert np.array_equal(histogram_equalize(img).pixels,
                              equalize_oracle(img.pixels))
        window = int(rng.choice([3, 5]))
        assert np.array_equal(median_filter(img, window).pixels,
                              median_oracle(img.pixels, window))
        target = int(rng.integers(1, 40))
        assert np.array_equal(resize(img, target).pixels,
                              resize_oracle(img.pixels, target))
    elapsed = time.monotonic() - started
    announce(3, elapsed < 30,
             f"equalize/median/resize match brute-force oracles exactly on 50 "
             f"random images in {elapsed:.1f}s < 30s")


def test_criterion_4_concatenation_bitwise():
    for seed in range(5):
        rng = np.random.default_rng(40_000 + seed)
        cfg = (2, 3, 2, 2, 3, 2)
        params = InceptionParams.create(rng, 3, cfg)
        xv = smooth_values(rng, (2, 3, 5, 5))
        out = inception_block(Tensor([2, 3, 5, 5], xv.copy()), params).data

        x = Tensor([2, 3, 5, 5], xv.copy())
        paths = [
            relu(conv2d(x, params.p1)).data,
            relu(conv2d(relu(conv2d(x, params.p2a)), params.p2b)).data,
            relu(conv2d(relu(conv2d(x, params.p3a)), params.p3b)).data,
            relu(conv2d(maxpool2d(x, 2, 1, padding="same"), params.p4)).data,
        ]
        offset = 0
        for path in paths:
            width = path.shape[1]
            assert np.array_equal(out[:, offset:offset + width], path)
            offset += width
    announce(4, True, "inception output channels equal standalone path outputs "
                      "bitwise on random inputs")


def test_criterion_5_attention_normalization_and_equivariance():
    for seed in range(5):
        rng = np.random.default_rng(50_000 + seed)
        c, h, w = 3, 2, 3
        t = h * w
        params = SelfAttentionParams.create(rng, c, 0.0)
        xv = smooth_values(rng, (2, c, h, w))
        _, attn = self_attention(Tensor([2, c, h, w], xv.copy()), params,
                                 "infer", return_attn=True)
        assert np.allclose(attn.sum(axis=2), 1.0, atol=1e-6)

        base = self_attention(Tensor([2, c, h, w], xv.copy()), params, "infer").data
        perm = rng.permutation(t)
        permuted = xv.reshape(2, c, t)[:, :, perm].reshape(2, c, h, w)
        moved = self_attention(Tensor([2, c, h, w], permuted.copy()), params,
                               "infer").data
        assert np.array_equal(moved.reshape(2, c, t),
                              base.reshape(2, c, t)[:, :, perm])
    announce(5, True, "attention rows sum to 1 +- 1e-6; position-permutation "
                      "equivariance holds bitwise with dropout off")


def test_criterion_6_metrics_oracle():
    hand = compute_metrics(confusion_matrix([0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 1, 1],
                                            [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1], 2))
    assert abs(hand.precision[0] - 5 / 7) < 1e-12
    assert abs(hand.recall[0] - 5 / 6) < 1e-12
    assert abs(hand.f1[0] - 10 / 13) < 1e-12

    for seed in range(100):
        rng = np.random.default_rng(60_000 + seed)
        n = int(rng.integers(10, 300))
        k = int(rng.integers(2, 6))
        preds = rng.integers(0, k, n)
        labels = rng.integers(0, k, n)
        metrics = compute_metrics(confusion_matrix(preds, labels, k))

        # direct-count oracle, no confusion matrix involved
        assert abs(metrics.accuracy - np.mean(preds == labels)) < 1e-12
        for cls in range(k):
            tp = np.sum((preds == cls) & (labels == cls))
            fp = np.sum((preds == cls) & (labels != cls))
            fn = np.sum((preds != cls) & (labels == cls))
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            f1 = (2 * precision * recall / (precision + recall)
                  if precision + recall else 0.0)
            assert abs(metrics.precision[cls] - precision) < 1e-12
            assert abs(metrics.recall[cls] - recall) < 1e-12
            assert abs(metrics.f1[cls] - f1) < 1e-12

        total_tp = sum(np.sum((preds == c) & (labels == c)) for c in range(k))
        micro_precision = total_tp / n
        assert abs(micro_precision - metrics.accuracy) < 1e-12
    announce(6, True, "metrics match the direct-count oracle to 1e-12 on 100 "
                      "random confusion matrices; micro-precision == accuracy")


def test_criterion_7_desk_scale_convergence(tmp_path):
    started = time.monotonic()
    manifest = gen_synthetic(tmp_path / "data", per_class=32, size=64, seed=7)
    dataset = load_dataset(manifest, target=64)
    model = build_model(reduced_config())
    report = train(model, dataset, TrainConfig(
        learning_rate=1e-4, epochs=30, batch_size=16, optimizer="adam",
        seed=11, val_fraction=0.2))
    elapsed = time.monotonic() - started

    train_rows = [r for r in report.history if r.phase == "train"]
    val_rows = [r for r in report.history if r.phase == "val"]
    losses = [r.loss for r in train_rows]
    windows = [float(np.mean(losses[i:i + 5])) for i in range(0, len(losses), 5)]
    monotone = all(b <= a for a, b in zip(windows, windows[1:]))

    ok = (train_rows[-1].accuracy >= 0.95
          and val_rows[-1].accuracy >= 0.85
          and monotone
          and elapsed < 900)
    announce(7, ok,
             f"reduced model on gen_synthetic(32, 64, seed=7): train accuracy "
             f"{train_rows[-1].accuracy:.3f} >= 0.95, val accuracy "
             f"{val_rows[-1].accuracy:.3f} >= 0.85 within 30 epochs; 5-epoch "
             f"loss windows monotone={monotone}; {elapsed:.0f}s < 900s")


def test_criterion_8_reproducibility(tmp_path):
    gen_synthetic(tmp_path / "data", per_class=4, size=16, seed=1)
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "model.input_size = 16\nmodel.stem_filters = 2\n"
        "model.refine_filters = 2\nmodel.inception1 = 1,1,1,1,1,1\n"
        "model.inception2 = 1,1,1,1,1,1\nmodel.sep_blocks = 4\n"
        "model.dense_units = 8\nmodel.dropout = 0.5\nmodel.attn_dropout = 0.1\n")
    for name in ("r1", "r2"):
        code = main(["train", "--data", str(tmp_path / "data"),
                     "--config", str(cfg), "--epochs", "2", "--batch", "8",
                     "--seed", "13", "--out", str(tmp_path / name)])
        assert code == 0
    ckpt_equal = ((tmp_path / "r1" / "model.ckpt").read_bytes()
                  == (tmp_path / "r2" / "model.ckpt").read_bytes())
    history_equal = ((tmp_path / "r1" / "history.csv").read_bytes()
                     == (tmp_path / "r2" / "history.csv").read_bytes())
    announce(8, ckpt_equal and history_equal,
             "same-seed runs produce byte-identical checkpoints and history CSVs")


def test_criterion_9_serialization(tmp_path):
    cfg = tiny_config(seed=21)
    model = build_model(cfg)
    rng = np.random.default_rng(17)
    batch = rng.random((2, 1, 16, 16), dtype=np.float32)
    before = forward(model, Tensor([2, 1, 16, 16], batch.reshape(-1).copy()),
                     "infer").data
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    restored = load_checkpoint(path, tiny_config(seed=99))
    after = forward(restored, Tensor([2, 1, 16, 16], batch.reshape(-1).copy()),
                    "infer").data
    bitwise = np.array_equal(before, after)

    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="expected magic b'BFPC'"):
        load_checkpoint(bad, tiny_config())
    with pytest.raises(DataError, match=r"is 'stem.weight' \(2, 1, 7, 7\), "
                                        r"model expects 'stem.weight' \(3, 1, 7, 7\)"):
        load_checkpoint(path, tiny_config(stem_filters=3))
    announce(9, bitwise, "checkpoint round-trip is bitwise on a fixed batch; "
                         "corrupted magic and shape conflicts raise")


def test_criterion_10_softmax_stability():
    rng = np.random.default_rng(71)
    logits = (rng.random((8, 4), dtype=np.float32) * 2 - 1) * np.float32(1e4)
    out = softmax(Tensor([8, 4], logits.reshape(-1)))
    finite = bool(np.all(np.isfinite(out.data)))
    normalized = bool(np.allclose(out.data.sum(axis=1), 1.0, atol=1e-6))
    announce(10, finite and normalized,
             "softmax stays finite and normalized for logits up to 1e4")
