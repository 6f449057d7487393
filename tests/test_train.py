"""Loss, optimizers, splitting, metrics oracles, and the training loop."""

import math
from dataclasses import replace

import numpy as np
import pytest

from bfpcnn.cli import history_csv
from bfpcnn.errors import DataError
from bfpcnn.model import ModelConfig, build_model
from bfpcnn.tensor import Tensor
from bfpcnn.train import (
    Dataset,
    EpochStats,
    OptimizerState,
    TrainConfig,
    compute_metrics,
    confusion_matrix,
    cross_entropy_loss,
    evaluate,
    normalized,
    optimizer_step,
    stratified_split,
    train,
)


class TestCrossEntropy:
    def test_perfect_prediction(self):
        probs = Tensor([2, 4], [1, 0, 0, 0, 0, 0, 1, 0])
        assert cross_entropy_loss(probs, [0, 2]).item() == 0.0

    def test_uniform_is_log_k(self):
        probs = Tensor([3, 4], 0.25)
        assert abs(cross_entropy_loss(probs, [0, 1, 2]).item() - math.log(4)) < 1e-6

    def test_zero_probability_clamped(self):
        probs = Tensor([1, 4], [0.0, 1.0, 0.0, 0.0])
        loss = cross_entropy_loss(probs, [0]).item()
        assert abs(loss - (-math.log(1e-12))) < 1e-2  # ~27.63, finite

    def test_label_out_of_range(self):
        with pytest.raises(DataError, match=r"labels must lie in \[0, 4\)"):
            cross_entropy_loss(Tensor([1, 4], 0.25), [4])
        with pytest.raises(DataError, match=r"labels must lie in \[0, 4\)"):
            cross_entropy_loss(Tensor([1, 4], 0.25), [-1])

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="rows of probabilities"):
            cross_entropy_loss(Tensor([2, 4], 0.25), [0])

    def test_gradient_matches_analytic(self):
        vals = np.array([[0.2, 0.3, 0.4, 0.1]], np.float32)
        probs = Tensor([1, 4], vals.reshape(-1), requires_grad=True)
        cross_entropy_loss(probs, [2]).backward()
        expect = np.zeros((1, 4), np.float32)
        expect[0, 2] = -1.0 / (1 * 0.4)
        assert np.allclose(probs.grad, expect, rtol=1e-5)


class TestOptimizer:
    def test_sgd_definition(self):
        p = Tensor([1], [1.0], requires_grad=True)
        p.grad = np.array([2.0], np.float32)
        cfg = TrainConfig(learning_rate=0.1, optimizer="sgd")
        optimizer_step([p], OptimizerState.for_params([p], cfg), cfg)
        assert abs(p.data[0] - 0.8) < 1e-6

    @pytest.mark.parametrize("name", ["sgd", "adam"])
    def test_zero_gradient_keeps_params(self, name):
        p = Tensor([3], [1.0, 2.0, 3.0], requires_grad=True)
        p.grad = np.zeros(3, np.float32)
        cfg = TrainConfig(optimizer=name)
        optimizer_step([p], OptimizerState.for_params([p], cfg), cfg)
        assert np.array_equal(p.data, np.array([1, 2, 3], np.float32))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_adam_first_step_magnitude(self, scale):
        p = Tensor([2], [0.0, 0.0], requires_grad=True)
        p.grad = np.array([scale, -scale], np.float32)
        cfg = TrainConfig(learning_rate=0.001, optimizer="adam")
        optimizer_step([p], OptimizerState.for_params([p], cfg), cfg)
        assert np.allclose(np.abs(p.data), cfg.learning_rate, rtol=1e-3)

    def test_adam_accumulates_state(self):
        p = Tensor([1], [0.0], requires_grad=True)
        cfg = TrainConfig(learning_rate=0.01, optimizer="adam")
        state = OptimizerState.for_params([p], cfg)
        for _ in range(3):
            p.grad = np.array([1.0], np.float32)
            optimizer_step([p], state, cfg)
        assert state.step == 3
        assert p.data[0] < 0

    def test_sgd_first_order_loss_decrease(self):
        # smooth quadratic: one step changes loss by -lr*|g|^2 + O(lr^2)
        target = np.array([0.5, -1.0, 2.0, 0.25], np.float32)
        p = Tensor([4], [1.0, 1.0, 1.0, 1.0], requires_grad=True)
        cfg = TrainConfig(learning_rate=1e-4, optimizer="sgd")

        def loss_of():
            diff = Tensor([4], p.data.copy(), requires_grad=True) + Tensor([4], -target)
            return (diff * diff).sum()

        before = loss_of().item()
        diff = p + Tensor([4], -target)
        loss = (diff * diff).sum()
        loss.backward()
        grad_sq = float((p.grad.astype(np.float64) ** 2).sum())
        optimizer_step([p], OptimizerState.for_params([p], cfg), cfg)
        after = loss_of().item()
        assert after < before
        assert abs((after - before) + cfg.learning_rate * grad_sq) \
            <= 0.05 * cfg.learning_rate * grad_sq

    def test_rejects_negative_lr(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)

    def test_rejects_unknown_optimizer(self):
        with pytest.raises(ValueError):
            TrainConfig(optimizer="lbfgs")


class TestConfusionMatrix:
    def test_perfect_predictions(self):
        counts = confusion_matrix([0, 1, 2, 3], [0, 1, 2, 3], 4)
        assert np.array_equal(counts, np.eye(4, dtype=np.int64))
        assert np.allclose(np.diag(normalized(counts)), 1.0)

    def test_direct_tally(self):
        counts = confusion_matrix([0, 1], [1, 1], 2)
        assert counts.dtype == np.int64
        assert counts.tolist() == [[0, 0], [1, 1]]

    def test_normalized_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        preds = rng.integers(0, 4, 50)
        labels = rng.integers(0, 3, 50)  # class 3 never appears as truth
        counts = confusion_matrix(preds, labels, 4)
        norm = normalized(counts)
        sums = norm.sum(axis=1)
        populated = counts.sum(axis=1) > 0
        assert np.allclose(sums[populated], 1.0)
        assert np.all(norm[~populated] == 0.0)

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="predictions vs"):
            confusion_matrix([0, 1], [0], 2)

    def test_range_checked(self):
        with pytest.raises(DataError, match=r"predictions must lie in \[0, 2\)"):
            confusion_matrix([0, 5], [0, 1], 2)


class TestComputeMetrics:
    def test_perfect_diagonal(self):
        m = compute_metrics(np.eye(4, dtype=np.int64) * 5)
        assert m.accuracy == 1.0
        assert m.macro_precision == m.macro_recall == m.macro_f1 == 1.0

    def test_hand_case(self):
        m = compute_metrics(np.array([[5, 1], [2, 4]]))
        assert abs(m.accuracy - 0.75) < 1e-12
        assert abs(m.precision[0] - 5 / 7) < 1e-12
        assert abs(m.recall[0] - 5 / 6) < 1e-12
        assert abs(m.f1[0] - 10 / 13) < 1e-12

    def test_absent_class_defined_as_zero(self):
        m = compute_metrics(np.array([[3, 0, 0], [0, 2, 0], [0, 0, 0]]))
        assert m.precision[2] == m.recall[2] == m.f1[2] == 0.0

    def test_empty_matrix(self):
        with pytest.raises(DataError, match="no samples tallied"):
            compute_metrics(np.zeros((3, 3), np.int64))

    @pytest.mark.parametrize("seed", range(5))
    def test_accuracy_matches_direct_count(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = 200
        preds = rng.integers(0, 4, n)
        labels = rng.integers(0, 4, n)
        m = compute_metrics(confusion_matrix(preds, labels, 4))
        assert abs(m.accuracy - np.mean(preds == labels)) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_micro_average_identity(self, seed):
        rng = np.random.default_rng(200 + seed)
        preds = rng.integers(0, 4, 150)
        labels = rng.integers(0, 4, 150)
        counts = confusion_matrix(preds, labels, 4)
        tp = np.diag(counts).astype(np.float64)
        fp = counts.sum(axis=0) - tp
        fn = counts.sum(axis=1) - tp
        micro_p = tp.sum() / (tp.sum() + fp.sum())
        micro_r = tp.sum() / (tp.sum() + fn.sum())
        acc = compute_metrics(counts).accuracy
        assert abs(micro_p - acc) < 1e-12
        assert abs(micro_r - acc) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_f1_between_precision_and_recall(self, seed):
        rng = np.random.default_rng(300 + seed)
        preds = rng.integers(0, 3, 60)
        labels = rng.integers(0, 3, 60)
        m = compute_metrics(confusion_matrix(preds, labels, 3))
        for p, r, f in zip(m.precision, m.recall, m.f1):
            if p > 0 and r > 0:
                assert min(p, r) - 1e-12 <= f <= max(p, r) + 1e-12


class TestSplit:
    def test_stratified_proportions(self):
        labels = np.array([0] * 10 + [1] * 20 + [2] * 5)
        train_idx, val_idx = stratified_split(labels, 0.2,
                                              np.random.default_rng(1))
        assert len(train_idx) + len(val_idx) == 35
        for cls, expect_val in ((0, 2), (1, 4), (2, 1)):
            assert np.count_nonzero(labels[val_idx] == cls) == expect_val

    def test_every_class_on_both_sides(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        train_idx, val_idx = stratified_split(labels, 0.5, np.random.default_rng(2))
        assert set(labels[train_idx]) == {0, 1, 2}
        assert set(labels[val_idx]) == {0, 1, 2}

    def test_single_sample_class_rejected(self):
        with pytest.raises(DataError, match=r"has 1 sample\(s\); need one per split"):
            stratified_split(np.array([0, 0, 1]), 0.2, np.random.default_rng(3))

    def test_deterministic(self):
        labels = np.tile(np.arange(4), 8)
        a = stratified_split(labels, 0.25, np.random.default_rng(5))
        b = stratified_split(labels, 0.25, np.random.default_rng(5))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def toy_dataset(n_per_class=6, size=16, seed=0) -> Dataset:
    """Class k: base level 0.15 + 0.22k plus mild noise; trivially learnable."""
    rng = np.random.default_rng(seed)
    images, labels = [], []
    for cls in range(4):
        for _ in range(n_per_class):
            base = 0.15 + 0.22 * cls
            img = base + rng.normal(0, 0.03, (1, size, size))
            images.append(np.clip(img, 0, 1))
            labels.append(cls)
    return Dataset(np.stack(images).astype(np.float32), np.array(labels))


def toy_model(seed=0):
    return build_model(ModelConfig(
        input_size=16,
        stem_filters=2,
        refine_filters=(2,),
        inception1=(1, 1, 1, 1, 1, 1),
        inception2=(1, 1, 1, 1, 1, 1),
        sep_blocks=(4,),
        spatial_filters=None, spatial_kernel=3, spatial_dilations=(1, 2),
        dense_units=8,
        dropout=0.0,
        attn_dropout=0.0,
        seed=seed,
    ))


class TestTrainLoop:
    def test_zero_lr_keeps_params_and_metrics_constant(self):
        model = toy_model()
        before = [t.data.copy() for t in model.parameters()]
        data = toy_dataset()
        cfg = TrainConfig(learning_rate=0.0, epochs=3, batch_size=8,
                          optimizer="sgd", seed=1, val_fraction=0.25)
        report = train(model, data, cfg)
        for prev, param in zip(before, model.parameters()):
            assert np.array_equal(prev, param.data)
        # classification metrics stay constant; loss may drift because the
        # batchnorm running buffers are forward-pass state, not parameters
        train_rows = [r for r in report.history if r.phase == "train"]
        for attr in ("accuracy", "precision", "recall", "f1"):
            assert len({getattr(r, attr) for r in train_rows}) == 1

    def test_same_seed_identical_history(self):
        cfg = TrainConfig(learning_rate=0.01, epochs=2, batch_size=8,
                          optimizer="adam", seed=9, val_fraction=0.25)
        r1 = train(toy_model(seed=4), toy_dataset(), cfg)
        r2 = train(toy_model(seed=4), toy_dataset(), cfg)
        assert r1.history == r2.history

    def test_learns_toy_problem(self):
        cfg = TrainConfig(learning_rate=0.005, epochs=20, batch_size=8,
                          optimizer="adam", seed=2, val_fraction=0.25)
        report = train(toy_model(seed=1), toy_dataset(n_per_class=8), cfg)
        final_train = [r for r in report.history if r.phase == "train"][-1]
        first_train = [r for r in report.history if r.phase == "train"][0]
        assert final_train.loss < first_train.loss
        assert final_train.accuracy >= 0.9

    def test_history_rows_reproducible_by_external_eval(self):
        model = toy_model(seed=6)
        data = toy_dataset(seed=3)
        cfg = TrainConfig(learning_rate=0.01, epochs=2, batch_size=8,
                          optimizer="adam", seed=5, val_fraction=0.25)
        report = train(model, data, cfg)
        split_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(3)[0])
        train_idx, _ = stratified_split(data.labels, cfg.val_fraction, split_rng)
        preds, loss = evaluate(model, data.images[train_idx], data.labels[train_idx],
                               cfg.batch_size)
        last = [r for r in report.history if r.phase == "train"][-1]
        m = compute_metrics(confusion_matrix(preds, data.labels[train_idx], 4))
        assert abs(loss - last.loss) < 1e-6
        assert abs(m.accuracy - last.accuracy) < 1e-6

    @pytest.mark.parametrize("epochs", [0, 2])
    def test_report_carries_split_and_final_confusion(self, epochs):
        model = toy_model(seed=6)
        data = toy_dataset(seed=3)
        cfg = TrainConfig(learning_rate=0.01, epochs=epochs, batch_size=8,
                          optimizer="adam", seed=5, val_fraction=0.25)
        report = train(model, data, cfg)
        split_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(3)[0])
        train_idx, val_idx = stratified_split(data.labels, cfg.val_fraction, split_rng)
        preds, _ = evaluate(model, data.images[val_idx], data.labels[val_idx],
                            cfg.batch_size)
        assert np.array_equal(report.train_idx, train_idx)
        assert np.array_equal(report.val_idx, val_idx)
        assert np.array_equal(report.confusion,
                              confusion_matrix(preds, data.labels[val_idx], 4))

    def test_zero_epochs_train_no_batch_so_none_is_too_small(self):
        # 5 px leaves 1x1 after the stem pool, and 16 train samples in
        # batches of 15 leave a last batch of one sample, which one epoch
        # refuses (see test_cli) but zero epochs never run
        model = build_model(replace(toy_model().config, input_size=5))
        cfg = TrainConfig(epochs=0, batch_size=15, val_fraction=0.25)
        assert train(model, toy_dataset(size=5), cfg).history == []
        with pytest.raises(DataError, match="the last batch of 1 is 1x1"):
            train(model, toy_dataset(size=5), replace(cfg, epochs=1))

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError, match="dataset is empty"):
            train(toy_model(), Dataset(np.zeros((0, 1, 16, 16), np.float32),
                                       np.zeros(0, np.int64)),
                  TrainConfig(epochs=1))


class TestHistoryCsv:
    def test_format(self):
        rows = [EpochStats(1, "train", 1.5, 0.25, 0.2, 0.3, 0.24),
                EpochStats(1, "val", 1.6, 0.2, 0.1, 0.2, 0.13)]
        text = history_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,phase,loss,accuracy,precision,recall,f1"
        assert lines[1] == "1,train,1.500000,0.250000,0.200000,0.300000,0.240000"
        assert len(lines) == 3
