"""Command-line entry point: synthetic data generation, preprocessing,
training, evaluation and single-image prediction.

Exit codes: 0 success, 1 usage or configuration error, 2 data error.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import errors
from .data import CLASS_NAMES, gen_synthetic, ingest, load_dataset
from .model import (
    ModelConfig,
    build_model,
    forward,
    load_checkpoint,
    save_checkpoint,
)
from .preprocess import (
    DEFAULT_TARGET,
    DEFAULT_WINDOW,
    STAGES,
    check_window,
    prepare,
    read_pgm,
    stages,
    write_pgm,
)
from .tensor import Tensor
from .train import (
    EpochStats,
    TrainConfig,
    compute_metrics,
    confusion_matrix,
    evaluate,
    normalized,
    train,
)


@dataclass
class RunSpec:
    """Fully resolved run settings: defaults, then config file, then flags."""

    model: ModelConfig
    train: TrainConfig
    preprocess_full: bool
    window: int

    def to_kv(self) -> dict[str, str]:
        return {**_section_kv("model", self.model),
                "model.class_count": str(len(CLASS_NAMES)),
                **_section_kv("train", self.train),
                "preprocess.full": "true" if self.preprocess_full else "false",
                "preprocess.window": str(self.window)}

    @classmethod
    def from_kv(cls, kv: dict[str, str]) -> "RunSpec":
        unknown = [k for k in kv if k not in _KNOWN_KEYS]
        if unknown:
            raise errors.ConfigError(f"unknown configuration keys: {sorted(unknown)}")
        try:
            if int(kv.get("model.class_count", len(CLASS_NAMES))) != len(CLASS_NAMES):
                raise errors.ConfigError(f"model.class_count must be {len(CLASS_NAMES)}, "
                                         f"one per class in {CLASS_NAMES}")
            model = _section("model", ModelConfig, kv)
        except (TypeError, ValueError) as exc:
            raise errors.ConfigError(f"bad model configuration value: {exc}") from exc
        try:
            train_cfg = _section("train", TrainConfig, kv)
            full = _parse_bool(kv.get("preprocess.full", "false"))
            window = int(kv.get("preprocess.window", DEFAULT_WINDOW))
        except ValueError as exc:
            raise errors.ConfigError(f"bad configuration value: {exc}") from exc
        if full:
            check_window(window)
        return cls(model, train_cfg, full, window)


# the only keys not named ``<section>.<field>``
_SHORT_KEYS = {"learning_rate": "lr", "batch_size": "batch"}


def _key(section: str, name: str) -> str:
    return f"{section}.{_SHORT_KEYS.get(name, name)}"


def _section_kv(section: str, cfg) -> dict[str, str]:
    """The ``config.txt`` keys of ``section`` that hold ``cfg``'s fields."""
    return {_key(section, f.name): _format(getattr(cfg, f.name)) for f in fields(cfg)}


def _section(section: str, cls, kv: dict[str, str]):
    """A ``cls`` from the ``section`` keys in ``kv``, defaults for the rest."""
    return cls(**{f.name: _parse(kv[_key(section, f.name)], f.default)
                  for f in fields(cls) if _key(section, f.name) in kv})


def _format(value) -> str:
    """A config field's value as ``config.txt`` holds it."""
    if value is None:
        return "auto"
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value)


def _parse(raw: str, default):
    """``raw`` as a value of ``default``'s type; ``_format`` inverted."""
    if default is None:
        return None if raw == "auto" else int(raw)
    if isinstance(default, tuple):
        return tuple(int(tok) for tok in raw.split(",") if tok.strip() != "")
    return type(default)(raw)


_KNOWN_KEYS = frozenset(
    RunSpec(ModelConfig(), TrainConfig(), False, DEFAULT_WINDOW).to_kv())


def _parse_bool(raw: str) -> bool:
    value = raw.strip().lower()
    if value in ("true", "1", "yes"):
        return True
    if value in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def read_kv_file(path) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment. A key may be set once."""
    values: dict[str, str] = {}
    set_on: dict[str, int] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise errors.ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise errors.ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in set_on:
            raise errors.ConfigError(
                f"{path}:{lineno}: {key} is already set on line {set_on[key]}")
        set_on[key] = lineno
        values[key] = value.strip()
    return values


def _write_kv(path: Path, kv: dict[str, str]) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in sorted(kv.items())))


def resolve_run_spec(config_path, lr, epochs, batch, seed) -> RunSpec:
    kv: dict[str, str] = {}
    if config_path is not None:
        try:
            kv.update(read_kv_file(config_path))
        except OSError as exc:  # a flag that names no readable file is a usage error
            raise errors.ConfigError(f"--config {config_path}: {exc.strerror}") from None
    if lr is not None:
        kv["train.lr"] = repr(lr)
    if epochs is not None:
        kv["train.epochs"] = str(epochs)
    if batch is not None:
        kv["train.batch"] = str(batch)
    if seed is not None:
        kv["train.seed"] = str(seed)
        kv.setdefault("model.seed", str(seed))
    return RunSpec.from_kv(kv)


def _int_at_least(raw: str, low: int) -> int:
    value = int(raw)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _positive_int(raw: str) -> int:
    return _int_at_least(raw, 1)


def _non_negative_int(raw: str) -> int:
    return _int_at_least(raw, 0)


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; argparse's default of 2 is reserved for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def build_parser() -> _Parser:
    parser = _Parser(prog="bfpcnn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen", help="write a synthetic dataset")
    gen.add_argument("--out", required=True)
    gen.add_argument("--per-class", type=_positive_int, required=True)
    gen.add_argument("--size", type=_positive_int, required=True)
    gen.add_argument("--seed", type=_non_negative_int, required=True)

    prep = sub.add_parser("preprocess", help="equalize, filter and resize a tree")
    prep.add_argument("--in", dest="in_root", required=True)
    prep.add_argument("--out", required=True)
    prep.add_argument("--target", type=_positive_int, default=DEFAULT_TARGET)
    prep.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    prep.add_argument("--stages", action="store_true",
                      help="also write per-stage intermediate images")

    tr = sub.add_parser("train", help="train a model into a run directory")
    tr.add_argument("--data", required=True)
    tr.add_argument("--config")
    tr.add_argument("--lr", type=float)
    tr.add_argument("--epochs", type=int)
    tr.add_argument("--batch", type=int)
    tr.add_argument("--seed", type=_non_negative_int)
    tr.add_argument("--out", required=True)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    ev.add_argument("--ckpt", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--out", required=True)

    pred = sub.add_parser("predict", help="classify one PGM image")
    pred.add_argument("--ckpt", required=True)
    pred.add_argument("--image", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "gen": cmd_gen,
        "preprocess": cmd_preprocess,
        "train": cmd_train,
        "eval": cmd_eval,
        "predict": cmd_predict,
    }
    try:
        return handlers[args.command](args)
    except errors.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (errors.DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cmd_gen(args) -> int:
    with _StagingDir(args.out) as staging:
        manifest = gen_synthetic(staging, args.per_class, args.size, args.seed)
    for name, count in zip(CLASS_NAMES, manifest.counts):
        print(f"{name}: {count}")
    print(f"wrote {sum(manifest.counts)} images under {args.out}")
    return 0


def cmd_preprocess(args) -> int:
    staging_dir = _StagingDir(args.out)  # refuse an existing --out before any work
    check_window(args.window)
    manifest = ingest(args.in_root)
    written = 0
    with staging_dir as out_root:
        for name in CLASS_NAMES:
            (out_root / name).mkdir()
            if args.stages:
                for stage in STAGES:
                    (out_root / "stages" / stage / name).mkdir(parents=True)
            for path in manifest.files[name]:
                images = stages(read_pgm(path), args.target, args.window)
                write_pgm(images[-1], out_root / name / path.name)
                if args.stages:
                    for stage, img in zip(STAGES, images):
                        write_pgm(img, out_root / "stages" / stage / name / path.name)
                written += 1
    print(f"preprocessed {written} images into {Path(args.out)}")
    return 0


def _write_scores(out: Path, counts: np.ndarray, first_line: str = "") -> float:
    """Write metrics.txt and both confusion CSVs from the counts; returns the
    accuracy."""
    m = compute_metrics(counts)
    lines = [f"accuracy {m.accuracy:.6f}"]
    for i, name in enumerate(CLASS_NAMES):
        lines.append(f"{name} precision {m.precision[i]:.6f} "
                     f"recall {m.recall[i]:.6f} f1 {m.f1[i]:.6f}")
    lines.append(f"macro precision {m.macro_precision:.6f} "
                 f"recall {m.macro_recall:.6f} f1 {m.macro_f1:.6f}")
    (out / "metrics.txt").write_text(first_line + "\n".join(lines) + "\n")
    header = ",".join(CLASS_NAMES)
    for name, rows, fmt in (("confusion.csv", counts, str),
                            ("confusion_normalized.csv", normalized(counts), "{:.6f}".format)):
        table = [header] + [",".join(map(fmt, row)) for row in rows]
        (out / name).write_text("\n".join(table) + "\n")
    return m.accuracy


def history_csv(history: list[EpochStats]) -> str:
    lines = ["epoch,phase,loss,accuracy,precision,recall,f1"]
    for row in history:
        lines.append(f"{row.epoch},{row.phase},{row.loss:.6f},{row.accuracy:.6f},"
                     f"{row.precision:.6f},{row.recall:.6f},{row.f1:.6f}")
    return "\n".join(lines) + "\n"


class _StagingDir:
    """Build run artifacts in a sibling temp dir, renamed into place last."""

    def __init__(self, final: Path):
        self.final = Path(final)
        if self.final.exists():
            raise errors.ConfigError(f"output directory {final} already exists")
        self.tmp = self.final.with_name(f"{self.final.name}.partial{os.getpid()}")

    def __enter__(self) -> Path:
        # a failure removes the outermost directory that mkdir creates here
        self.made = next((p for p in reversed(self.tmp.parents) if not p.exists()),
                         self.tmp)
        self.tmp.mkdir(parents=True)
        return self.tmp

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            os.rename(self.tmp, self.final)
        else:
            shutil.rmtree(self.made)
        return False


def cmd_train(args) -> int:
    staging_dir = _StagingDir(args.out)  # refuse an existing --out before any work
    spec = resolve_run_spec(args.config, args.lr, args.epochs, args.batch, args.seed)
    manifest = ingest(args.data)
    dataset = load_dataset(manifest, target=spec.model.input_size,
                           window=spec.window, full_pipeline=spec.preprocess_full)
    model = build_model(spec.model)
    report = train(model, dataset, spec.train)

    files = [path for path, _ in manifest.labelled_files()]
    with staging_dir as staging:
        _write_kv(staging / "config.txt", spec.to_kv())
        save_checkpoint(model, staging / "model.ckpt")
        (staging / "history.csv").write_text(history_csv(report.history))
        accuracy = _write_scores(staging, report.confusion)
        # each line is a file's name as the file system holds it, UTF-8 or not
        for split, idx in (("train", report.train_idx), ("val", report.val_idx)):
            (staging / f"{split}_files.txt").write_bytes(
                b"".join(os.fsencode(files[i]) + b"\n" for i in idx))
    print(f"run complete: {args.out} (val accuracy {accuracy:.4f})")
    return 0


def _run_spec(ckpt_path) -> RunSpec:
    """The settings of the run that wrote ``ckpt_path``, from its config.txt."""
    return RunSpec.from_kv(read_kv_file(Path(ckpt_path).parent / "config.txt"))


def cmd_eval(args) -> int:
    staging_dir = _StagingDir(args.out)  # refuse an existing --out before any work
    spec = _run_spec(args.ckpt)
    manifest = ingest(args.data)
    dataset = load_dataset(manifest, target=spec.model.input_size,
                           window=spec.window, full_pipeline=spec.preprocess_full)
    model = load_checkpoint(args.ckpt, spec.model)  # only once the data has loaded
    preds, loss = evaluate(model, dataset.images, dataset.labels,
                           spec.train.batch_size)
    counts = confusion_matrix(preds, dataset.labels, len(CLASS_NAMES))
    with staging_dir as staging:
        accuracy = _write_scores(staging, counts, f"loss {loss:.6f}\n")
    print(f"eval complete: {args.out} (accuracy {accuracy:.4f})")
    return 0


def cmd_predict(args) -> int:
    spec = _run_spec(args.ckpt)
    batch = prepare(read_pgm(args.image), spec.model.input_size, spec.window,
                    spec.preprocess_full)[None, None]
    model = load_checkpoint(args.ckpt, spec.model)
    print_prediction(forward(model, Tensor(batch.shape, batch), "infer").data.reshape(-1))
    return 0


def print_prediction(probs: np.ndarray) -> None:
    """Print one ``<class> <probability>`` line per class, then the argmax.

    Nine decimals keep the rounding of four values within 2e-9 in total, so
    the printed row sums to 1 within 1e-6 as the softmax row does.
    """
    for name, p in zip(CLASS_NAMES, probs):
        print(f"{name} {p:.9f}")
    print(f"predicted: {CLASS_NAMES[int(probs.argmax())]}")


if __name__ == "__main__":
    sys.exit(main())
