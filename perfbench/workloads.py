"""The benchmark's three workloads and the checks on their outputs.

Every workload is one closed-loop caller running a session against the
public API, at its own scale. Its request loop is what the workload was
chosen to stress (see README.md in this directory):

  train    train() on the seeded tree; a request is one optimizer step
  eval     evaluate() over the seeded tree; a request is one batch
  predict  ``bfpcnn predict`` calls, each loading the checkpoint

Between requests the session takes turns at three side measurements, so
that each of their medians samples the whole run, not one moment of it.
Each sample starts from a collected heap:

  setup    gen_synthetic raw tree, ingest, load_dataset, build_model
  prep     one ``bfpcnn preprocess`` pass over the raw tree
  ckpt     save_checkpoint, then load_checkpoint compared bitwise, then
           (unless the requests are predicts) one checked predict

After the session, a loss probe runs the workload's loss computation on
inputs that are the same for every seed (see ``probe_loss``).
"""

from __future__ import annotations

import contextlib
import gc
import io
import math
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from bfpcnn import cli, data, model, train
from bfpcnn.tensor import Tensor

from spans import Tracer, patch, untraced

# Desk widths from the README example config.
DESK = {
    "model.stem_filters": "8",
    "model.refine_filters": "8",
    "model.inception1": "4,4,4,4,4,4",
    "model.inception2": "4,4,4,4,4,4",
    "model.sep_blocks": "16",
    "model.dense_units": "64",
    "model.dropout": "0.25",
    "train.lr": "0.0001",
    "train.batch": "16",
}
PRINT_ROUNDING = 5e-7  # predict prints probabilities with six decimals
ROW_SUM_TOL = 1e-5
POOL = 16  # images predict requests cycle through
MIN_TURN_S = 0.1  # a side turn repeats its measurement until it has run this long
MIN_SAMPLES = 5  # of each side measurement
MIN_REQUESTS = 5
EPOCH_S = 1.5  # train: --seconds per epoch, about one epoch's time on 2 cores
PROBE_SEED = 0  # data and training seed of the loss probe, whatever --seed is


@dataclass(frozen=True)
class Workload:
    name: str
    request: str  # "train", "eval" or "predict"
    config: dict  # RunSpec keys, as in a `bfpcnn train --config` file
    raw_size: int  # side of the generated raw images
    per_class: int  # raw images per class
    side_turns: int = 1  # side measurements after each request (train: each evaluation)


WORKLOADS = {
    w.name: w for w in (
        Workload("train-desk", "train", {**DESK, "model.input_size": "64"},
                 raw_size=64, per_class=40),
        Workload("infer-attn128", "eval", {**DESK, "model.input_size": "128"},
                 raw_size=128, per_class=16, side_turns=2),
        Workload("io-default64", "predict", {"model.input_size": "64"},
                 raw_size=192, per_class=16),
    )
}


class Checks:
    """Counts output checks; a failing check is reported, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[what] += 1

    def probs(self, probs: np.ndarray, what: str) -> None:
        rows = np.asarray(probs, dtype=np.float64)
        self.expect(bool(np.isfinite(rows).all()
                         and np.all(np.abs(rows.sum(axis=1) - 1.0) <= ROW_SUM_TOL)), what)


@dataclass
class Session:
    spec: cli.RunSpec
    run_dir: Path
    manifest: data.DatasetManifest
    dataset: train.Dataset
    graph: model.ModelGraph


def setup(w: Workload, seed: int, epochs: int, work: Path, index: int) -> Session:
    # Weights come from one fixed seed, whatever the data seed.
    kv = dict(w.config, **{"train.seed": str(seed), "model.seed": "0",
                           "train.epochs": str(epochs)})
    spec = cli.RunSpec.from_kv(kv)
    run_dir = work / f"setup{index}"
    manifest = data.gen_synthetic(run_dir / "raw", w.per_class, w.raw_size, seed)
    dataset = data.load_dataset(manifest, target=spec.model.input_size,
                                window=spec.window, full_pipeline=spec.preprocess_full)
    graph = model.build_model(spec.model)
    (run_dir / "config.txt").write_text(
        "".join(f"{k} = {v}\n" for k, v in sorted(spec.to_kv().items())))
    return Session(spec, run_dir, manifest, dataset, graph)


def _quiet_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def load_and_compare(graph: model.ModelGraph, path: Path, cfg, checks: Checks) -> float:
    """Load ``path`` and check it equals ``graph`` bitwise, tensor by tensor;
    returns the load time. A load that raises is a failed check."""
    t0 = perf_counter()
    try:
        loaded = model.load_checkpoint(path, cfg)
    except Exception:  # any failure to load is a failed round trip
        traceback.print_exc(file=sys.stderr)
        loaded = None
    elapsed = perf_counter() - t0
    checks.expect(loaded is not None and _same_tensors(graph, loaded), "checkpoint round trip")
    return elapsed


def _same_tensors(a: model.ModelGraph, b: model.ModelGraph) -> bool:
    left, right = list(a.named_tensors()), list(b.named_tensors())
    return len(left) == len(right) and all(
        na == nb and ta.data.dtype == tb.data.dtype and ta.shape == tb.shape
        and ta.data.tobytes() == tb.data.tobytes()
        for (na, ta, _), (nb, tb, _) in zip(left, right))


def predict_output_ok(text: str, ref: np.ndarray) -> bool:
    """Printed label is the argmax of ``ref``; every printed probability is
    within print rounding of it."""
    lines = text.strip().splitlines()
    if len(lines) != len(data.CLASS_NAMES) + 1:
        return False
    for name, line, p in zip(data.CLASS_NAMES, lines, ref):
        fields = line.split()
        if len(fields) != 2 or fields[0] != name:
            return False
        if abs(float(fields[1]) - float(p)) > PRINT_ROUNDING + 1e-12:
            return False
    return lines[-1] == f"predicted: {data.CLASS_NAMES[int(np.argmax(ref))]}"


class Run:
    """One session: the kept set-up, the side measurements and the checks."""

    def __init__(self, w: Workload, seed: int, seconds: float, work: Path, checks: Checks):
        self.w, self.seed, self.seconds, self.work, self.checks = w, seed, seconds, work, checks
        self.epochs = max(1, round(seconds / EPOCH_S))
        self.side = {"setup": [], "prep": [], "ckpt": []}
        self.turn = 0
        self.predicts = 0
        self.s = self._setup()
        self.ckpt: Path | None = None  # the newest checkpoint, which predicts load
        files = [path for path, _ in self.s.manifest.labelled_files()]
        self.pool_index = list(range(0, len(files), max(1, len(files) // POOL)))[:POOL]
        self.pool = [files[i] for i in self.pool_index]

    def _setup(self) -> Session:
        gc.collect()
        t0 = perf_counter()
        s = setup(self.w, self.seed, self.epochs, self.work, len(self.side["setup"]))
        self.side["setup"].append(perf_counter() - t0)
        return s

    def side_turns(self) -> None:
        for _ in range(self.w.side_turns):
            self._side_turn()

    def _side_turn(self) -> None:
        """Take the next side measurement, round robin, as many times as fit
        in MIN_TURN_S (at least once): cheap ones get more samples."""
        kind = ("setup", "prep", "ckpt")[self.turn % 3]
        self.turn += 1
        measure = {"setup": self._extra_setup, "prep": self._prep,
                   "ckpt": self.checkpoint}[kind]
        start = perf_counter()
        measure()
        while perf_counter() - start < MIN_TURN_S:
            measure()
        if kind == "ckpt" and self.w.request != "predict":
            with untraced():  # a check here, not a measured request
                self.predict()

    def _extra_setup(self) -> None:
        shutil.rmtree(self._setup().run_dir)

    def finish_side(self) -> None:
        while min(len(v) for v in self.side.values()) < MIN_SAMPLES:
            self._side_turn()

    def _prep(self) -> None:
        out = self.work / "prep"
        size = self.s.spec.model.input_size
        gc.collect()
        t0 = perf_counter()
        rc, _ = _quiet_cli(["preprocess", "--in", str(self.s.manifest.root), "--out", str(out),
                            "--target", str(size), "--window", str(self.s.spec.window)])
        self.side["prep"].append(perf_counter() - t0)
        written = sorted(out.glob("*/*.pgm"))
        with untraced():
            self.checks.expect(rc == 0 and len(written) == len(self.s.dataset)
                               and all(data.read_pgm(p).pixels.shape == (size, size)
                                       for p in written[::8]), "preprocess output")
        shutil.rmtree(out)

    def checkpoint(self) -> None:
        """Save to a new file, as `bfpcnn train` does, then load it back."""
        path = self.s.run_dir / f"model{len(self.side['ckpt'])}.ckpt"
        gc.collect()
        t0 = perf_counter()
        model.save_checkpoint(self.s.graph, path)
        saved = perf_counter() - t0
        self.side["ckpt"].append(
            saved + load_and_compare(self.s.graph, path, self.s.spec.model, self.checks))
        if self.ckpt is not None:
            self.ckpt.unlink()
        self.ckpt = path

    def predict(self) -> float:
        """One ``bfpcnn predict`` call on the next pool image, checked against
        an in-process forward of the same model on the same input; returns
        its time."""
        k = self.predicts % len(self.pool)
        self.predicts += 1
        x = self.s.dataset.images[self.pool_index[k]][None]
        with untraced():
            ref = model.forward(self.s.graph, Tensor(list(x.shape), x.reshape(-1)),
                                "infer").data[0]
        t0 = perf_counter()
        try:
            rc, text = _quiet_cli(["predict", "--ckpt", str(self.ckpt),
                                   "--image", str(self.pool[k])])
        except Exception:  # a crashing request is a failed request
            traceback.print_exc(file=sys.stderr)
            rc, text = -1, ""
        elapsed = perf_counter() - t0
        self.checks.expect(rc == 0 and predict_output_ok(text, ref), "predict output")
        return elapsed

    # -- request loops: each returns request seconds and items per second --

    def train_requests(self):
        """train() for the configured epochs. A step runs from the end of the
        previous step, or of an epoch-end evaluation and the side turn after
        it, to the end of its optimizer update. Items per second is the
        median over epochs of train samples over the epoch's steps and
        evaluations, side turns left out."""
        steps: list[float] = []
        epochs: list[list] = []  # [train samples, busy seconds] per epoch
        mark = [0.0]
        evaluated = [True]  # so the next train forward opens an epoch

        def after(fn):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                now = perf_counter()
                steps.append(now - mark[0])
                epochs[-1][1] += now - mark[0]
                mark[0] = now
                return out
            return wrapped

        def then_side_turns(fn):
            def wrapped(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                finally:
                    epochs[-1][1] += perf_counter() - mark[0]
                    evaluated[0] = True
                    self.side_turns()
                    mark[0] = perf_counter()
            return wrapped

        def count(mode, rows, _seconds):
            if mode == "train":
                if evaluated[0]:
                    epochs.append([0, 0.0])
                    evaluated[0] = False
                epochs[-1][0] += rows

        with patch(train, "optimizer_step", after, everywhere=False), \
                patch(train, "evaluate", then_side_turns, everywhere=False), \
                checked_forwards(self.checks, count), checked_losses(self.checks):
            mark[0] = perf_counter()
            report = train.train(self.s.graph, self.s.dataset, self.s.spec.train)
        train_rows = [row for row in report.history if row.phase == "train"]
        self.checks.expect(len(train_rows) == self.epochs, "train history")
        return steps, statistics.median(n / busy for n, busy in epochs)

    def eval_requests(self):
        """evaluate() over the seeded tree until the time budget is spent.
        Items per second is the median over passes."""
        batches: list[float] = []
        rates: list[float] = []
        start = perf_counter()
        with checked_forwards(self.checks, lambda _m, _r, dt: batches.append(dt)), \
                checked_losses(self.checks):
            while perf_counter() - start < self.seconds or len(batches) < MIN_REQUESTS:
                t0 = perf_counter()
                preds, _ = train.evaluate(self.s.graph, self.s.dataset.images,
                                          self.s.dataset.labels,
                                          self.s.spec.train.batch_size)
                rates.append(len(preds) / (perf_counter() - t0))
                self.side_turns()
        return batches, statistics.median(rates)

    def predict_requests(self):
        """Predict calls until the time budget is spent."""
        self.checkpoint()
        times: list[float] = []
        start = perf_counter()
        while perf_counter() - start < self.seconds or len(times) < MIN_REQUESTS:
            times.append(self.predict())
            self.side_turns()
        return times, len(times) / sum(times)

    def metrics(self) -> dict[str, float]:
        loop = {"train": self.train_requests, "eval": self.eval_requests,
                "predict": self.predict_requests}[self.w.request]
        requests, items_per_s = loop()
        self.finish_side()
        n_images = len(self.s.dataset)
        return {
            "setup_s": statistics.median(self.side["setup"]),
            "request_ms_p50": 1e3 * statistics.median(requests),
            "items_per_s": items_per_s,
            "prep_images_per_s": n_images / statistics.median(self.side["prep"]),
            "ckpt_roundtrip_ms": 1e3 * statistics.median(self.side["ckpt"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }


@contextlib.contextmanager
def checked_forwards(checks: Checks, on_batch):
    """Check every probability batch train.py computes; ``on_batch(mode,
    rows, seconds)`` sees each one."""
    def make(fn):
        def wrapped(graph, batch, mode, *args, **kwargs):
            t0 = perf_counter()
            probs = fn(graph, batch, mode, *args, **kwargs)
            on_batch(mode, batch.shape[0], perf_counter() - t0)
            checks.probs(probs.data, "probability rows")
            return probs
        return wrapped

    with patch(train, "forward", make, everywhere=False):
        yield


@contextlib.contextmanager
def checked_losses(checks: Checks, on_loss=None):
    """Check that every loss train.py computes is finite; ``on_loss(value)``
    sees each one."""
    def make(fn):
        def wrapped(*args, **kwargs):
            loss = fn(*args, **kwargs)
            checks.expect(math.isfinite(loss.item()), "finite loss")
            if on_loss is not None:
                on_loss(loss.item())
            return loss
        return wrapped

    with patch(train, "cross_entropy_loss", make, everywhere=False):
        yield


def probe_loss(w: Workload, work: Path, checks: Checks) -> float:
    """The workload's loss computation on inputs that are the same whatever
    the seed: one epoch of train() (train), or evaluate() over the tree from
    the initial weights (eval at the configured batch, predict one image at
    a time as predict sees them). Returns the mean of every loss it
    computes, which moves only when the numerics do."""
    s = setup(w, PROBE_SEED, 1, work, 0)
    losses: list[float] = []
    with checked_forwards(checks, lambda *_: None), checked_losses(checks, losses.append):
        if w.request == "train":
            train.train(s.graph, s.dataset, s.spec.train)
        else:
            batch = 1 if w.request == "predict" else s.spec.train.batch_size
            train.evaluate(s.graph, s.dataset.images, s.dataset.labels, batch)
    shutil.rmtree(s.run_dir)
    return statistics.fmean(losses)


def run(w: Workload, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    """Run a workload, then its loss probe; with ``traced``, also run the
    workload under the tracer, and report the tracer's per-layer metrics
    and overhead."""
    checks = Checks()
    end_to_end = Run(w, seed, seconds, work / "untraced", checks).metrics()
    gc.collect()
    end_to_end["loss_mean"] = probe_loss(w, work / "probe", checks)
    result = {"checks": checks, "end_to_end": end_to_end}
    if traced:
        gc.collect()
        tracer = Tracer()
        with tracer.installed():
            traced_e2e = Run(w, seed, seconds, work / "traced", checks).metrics()
        traced_e2e["loss_mean"] = end_to_end["loss_mean"]
        per_layer = tracer.metrics()
        per_layer["trace.overhead_pct"] = 100.0 * (
            traced_e2e["request_ms_p50"] / end_to_end["request_ms_p50"] - 1.0)
        result.update(traced_end_to_end=traced_e2e, per_layer=per_layer)
    return result
