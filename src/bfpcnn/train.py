"""Cross-entropy training loop with sgd/adam, stratified splitting, and
multiclass evaluation: confusion matrices, per-class precision/recall/F1."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .model import CLASS_NAMES, ModelGraph, forward, pooled_side
from .tensor import Tensor, apply_op

LOSS_CLAMP = 1e-12
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    epochs: int = 100
    batch_size: int = 128
    optimizer: str = "adam"
    seed: int = 0
    val_fraction: float = 0.2

    def __post_init__(self):
        # zero is allowed: the no-op training contract relies on it
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be >= 0 and finite, got {self.learning_rate}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in (0, 1)")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class Dataset:
    """In-memory samples ready for the model: [N, 1, S, S] in [0, 1]."""

    images: np.ndarray
    labels: np.ndarray  # indices into CLASS_NAMES

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.images) != len(self.labels):
            raise DataError("images and labels differ in length")

    def __len__(self) -> int:
        return len(self.labels)


def cross_entropy_loss(probs: Tensor, labels) -> Tensor:
    """Mean negative log probability of the true class, clamped at 1e-12."""
    labels = np.asarray(labels, dtype=np.int64)
    n, k = probs.shape
    if labels.shape != (n,):
        raise DataError(f"{n} rows of probabilities, {labels.shape} labels")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise DataError(f"labels must lie in [0, {k})")
    picked = probs.data[np.arange(n), labels]
    clamped = np.maximum(picked, np.float32(LOSS_CLAMP))
    value = np.float32(-np.log(clamped.astype(np.float64)).mean())

    def backward(g: np.ndarray):
        grad = np.zeros_like(probs.data)
        live = picked >= LOSS_CLAMP  # clamped entries have zero slope
        rows = np.arange(n)[live]
        grad[rows, labels[live]] = -1.0 / (n * clamped[live])
        return (grad * g,)

    return apply_op("cross_entropy", (probs,), np.asarray(value).reshape(()), backward)


@dataclass
class OptimizerState:
    """Per-parameter adam moments; empty for sgd."""

    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_params(cls, params: list[Tensor], cfg: TrainConfig) -> "OptimizerState":
        state = cls()
        if cfg.optimizer == "adam":
            state.m = [np.zeros_like(p.data) for p in params]
            state.v = [np.zeros_like(p.data) for p in params]
        return state


def optimizer_step(params: list[Tensor], state: OptimizerState,
                   cfg: TrainConfig) -> OptimizerState:
    """Apply one update in place from each parameter's accumulated gradient."""
    lr = np.float32(cfg.learning_rate)
    if cfg.optimizer == "sgd":
        for p in params:
            if p.grad is not None:
                p.data -= lr * p.grad
        return state
    state.step += 1
    b1, b2 = np.float32(ADAM_BETA1), np.float32(ADAM_BETA2)
    correction1 = np.float32(1.0 - ADAM_BETA1 ** state.step)
    correction2 = np.float32(1.0 - ADAM_BETA2 ** state.step)
    for p, m, v in zip(params, state.m, state.v):
        if p.grad is None:
            continue
        m *= b1
        m += (1 - b1) * p.grad
        v *= b2
        v += (1 - b2) * (p.grad * p.grad)
        m_hat = m / correction1
        v_hat = v / correction2
        p.data -= lr * m_hat / (np.sqrt(v_hat) + np.float32(ADAM_EPS))
    return state


def confusion_matrix(preds, labels, class_count: int) -> np.ndarray:
    """int64 counts[true][predicted] over the evaluated samples."""
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.shape != labels.shape:
        raise DataError(f"{preds.shape} predictions vs {labels.shape} labels")
    for name, vals in (("predictions", preds), ("labels", labels)):
        if vals.size and (vals.min() < 0 or vals.max() >= class_count):
            raise DataError(f"{name} must lie in [0, {class_count})")
    counts = np.zeros((class_count, class_count), dtype=np.int64)
    np.add.at(counts, (labels, preds), 1)
    return counts


def normalized(counts: np.ndarray) -> np.ndarray:
    """Confusion rows divided by their sums; empty rows stay zero."""
    return _safe_div(counts, counts.sum(axis=1, keepdims=True))


@dataclass
class EpochStats:
    epoch: int
    phase: str
    loss: float
    accuracy: float
    precision: float
    recall: float
    f1: float


@dataclass
class MetricsReport:
    accuracy: float
    precision: list[float]
    recall: list[float]
    f1: list[float]
    macro_precision: float
    macro_recall: float
    macro_f1: float


@dataclass
class TrainReport:
    """Per-epoch series, the train/val split and the final validation counts."""

    history: list[EpochStats]
    train_idx: np.ndarray
    val_idx: np.ndarray
    confusion: np.ndarray


def compute_metrics(counts: np.ndarray) -> MetricsReport:
    """Accuracy is trace/total; per-class ratios define 0/0 as 0."""
    total = counts.sum()
    if total == 0:
        raise DataError("no samples tallied")
    tp = np.diag(counts).astype(np.float64)
    fp = counts.sum(axis=0) - tp
    fn = counts.sum(axis=1) - tp
    precision = _safe_div(tp, tp + fp)
    recall = _safe_div(tp, tp + fn)
    f1 = _safe_div(2 * precision * recall, precision + recall)
    return MetricsReport(
        accuracy=float(tp.sum() / total),
        precision=list(precision),
        recall=list(recall),
        f1=list(f1),
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
    )


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.zeros_like(num, dtype=np.float64)
    np.divide(num, den, out=out, where=den > 0)
    return out


def stratified_split(labels: np.ndarray, val_fraction: float,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Seeded per-class split keeping at least one sample on each side."""
    train_idx: list[np.ndarray] = []
    val_idx: list[np.ndarray] = []
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        if len(members) < 2:
            raise DataError(f"class {cls} has {len(members)} sample(s); need one per split")
        members = rng.permutation(members)
        n_val = min(max(int(round(len(members) * val_fraction)), 1), len(members) - 1)
        val_idx.append(members[:n_val])
        train_idx.append(members[n_val:])
    return np.sort(np.concatenate(train_idx)), np.sort(np.concatenate(val_idx))


def evaluate(model: ModelGraph, images: np.ndarray, labels: np.ndarray,
             batch_size: int) -> tuple[np.ndarray, float]:
    """Inference over a sample set: (argmax predictions, mean loss)."""
    preds = np.empty(len(labels), dtype=np.int64)
    loss_sum = 0.0
    for start in range(0, len(labels), batch_size):
        stop = min(start + batch_size, len(labels))
        batch = images[start:stop]
        probs = forward(model, Tensor(batch.shape, batch), "infer")
        preds[start:stop] = probs.data.argmax(axis=1)
        loss_sum += cross_entropy_loss(probs, labels[start:stop]).item() * (stop - start)
    return preds, loss_sum / max(len(labels), 1)


def _phase_stats(model: ModelGraph, data: Dataset, idx: np.ndarray, epoch: int,
                 phase: str, batch_size: int) -> tuple[EpochStats, np.ndarray]:
    preds, loss = evaluate(model, data.images[idx], data.labels[idx], batch_size)
    counts = confusion_matrix(preds, data.labels[idx], len(CLASS_NAMES))
    m = compute_metrics(counts)
    return EpochStats(epoch, phase, loss, m.accuracy, m.macro_precision,
                      m.macro_recall, m.macro_f1), counts


def train(model: ModelGraph, data: Dataset, cfg: TrainConfig) -> TrainReport:
    """Seeded mini-batch training; history rows are post-epoch evaluations of
    both splits in infer mode (running statistics), so an external evaluation
    of the same samples reproduces them."""
    if len(data) == 0:
        raise DataError("dataset is empty")
    split_rng, shuffle_rng, dropout_rng = [
        np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(3)]
    train_idx, val_idx = stratified_split(data.labels, cfg.val_fraction, split_rng)
    smallest = len(train_idx) % cfg.batch_size or cfg.batch_size
    side = pooled_side(model.config.input_size)
    if cfg.epochs and smallest * side * side < 2:
        raise DataError("train-mode batchnorm needs >= 2 values per channel: "
                        f"the last batch of {smallest} is {side}x{side} at every batchnorm")

    params = model.parameters()
    state = OptimizerState.for_params(params, cfg)
    history: list[EpochStats] = []
    counts: np.ndarray | None = None

    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(train_idx)
        for start in range(0, len(order), cfg.batch_size):
            chosen = order[start:start + cfg.batch_size]
            batch = data.images[chosen]
            model.zero_grads()
            # unnamed, the step's graph dies with its backward sweep
            cross_entropy_loss(forward(model, Tensor(batch.shape, batch), "train",
                                       rng=dropout_rng), data.labels[chosen]).backward()
            optimizer_step(params, state, cfg)
        train_stats, _ = _phase_stats(model, data, train_idx, epoch, "train",
                                      cfg.batch_size)
        val_stats, counts = _phase_stats(model, data, val_idx, epoch, "val",
                                         cfg.batch_size)
        history.append(train_stats)
        history.append(val_stats)

    if counts is None:  # epochs == 0: still report the initial state
        _, counts = _phase_stats(model, data, val_idx, 0, "val", cfg.batch_size)
    return TrainReport(history, train_idx, val_idx, counts)
