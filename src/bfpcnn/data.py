"""Dataset layout, PGM ingestion and the synthetic desk-scale generator.

Datasets are directories with one subdirectory per class, fixed order:
MildDemented, ModerateDemented, NonDemented, VeryMildDemented. The label
index of a class is its position in that list.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .model import CLASS_NAMES
from .preprocess import DEFAULT_WINDOW, GrayImage, prepare, read_pgm, write_pgm
from .train import Dataset


@dataclass
class DatasetManifest:
    root: Path
    files: dict[str, list[Path]]  # per name in CLASS_NAMES

    @property
    def counts(self) -> list[int]:
        return [len(self.files[name]) for name in CLASS_NAMES]

    def labelled_files(self) -> list[tuple[Path, int]]:
        out = []
        for label, name in enumerate(CLASS_NAMES):
            out.extend((path, label) for path in self.files[name])
        return out


def ingest(root) -> DatasetManifest:
    """List a dataset root's files, lexicographically per class; a root with
    no file at all is refused. Each reader of the files names the first one
    that is not a valid PGM."""
    root = Path(root)
    files: dict[str, list[Path]] = {}
    for name in CLASS_NAMES:
        class_dir = root / name
        if not class_dir.is_dir():
            raise DataError(f"{root}: missing class directory {name!r}")
        files[name] = sorted(p for p in class_dir.iterdir() if p.is_file())
    if not any(files.values()):
        raise DataError(f"{root}: dataset is empty")
    return DatasetManifest(root, files)


def gen_synthetic(out, per_class: int, size: int, seed: int) -> DatasetManifest:
    """Write a deterministic synthetic dataset.

    Class k images combine a class-dependent base intensity with 1+2k bright
    discs plus noise. Discs sit on distinct cells of a jittered 3x3 grid so
    they never merge: the per-image disc count (and so the bright area) is
    exact, giving clean spatial separation between classes even when the
    intensity histogram gets re-equalized.
    """
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    out = Path(out)
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size]
    cell = size / 3.0
    slots = [(cell * (r + 0.5), cell * (c + 0.5)) for r in range(3) for c in range(3)]
    for cls, name in enumerate(CLASS_NAMES):
        class_dir = out / name
        class_dir.mkdir(parents=True, exist_ok=True)
        for i in range(per_class):
            base = 40.0 + 45.0 * cls + rng.uniform(-10.0, 10.0)
            img = rng.normal(base, 8.0, (size, size))
            chosen = rng.choice(len(slots), size=min(1 + 2 * cls, len(slots)),
                                replace=False)
            for slot in chosen:
                cy = slots[slot][0] + rng.uniform(-2.5, 2.5)
                cx = slots[slot][1] + rng.uniform(-2.5, 2.5)
                radius = size / 9 * rng.uniform(0.97, 1.03)
                lift = rng.uniform(60.0, 80.0)
                img += lift * ((yy - cy) ** 2 + (xx - cx) ** 2 <= radius ** 2)
            pixels = np.clip(img, 0, 255).astype(np.uint8)
            write_pgm(GrayImage(pixels), class_dir / f"{name}_{i:04d}.pgm")
    return ingest(out)


def load_dataset(manifest: DatasetManifest, target: int, window: int = DEFAULT_WINDOW,
                 full_pipeline: bool = False) -> Dataset:
    """Stack every file into a model-ready batch.

    By default images are resized and normalized (the model's input
    contract); ``full_pipeline`` additionally applies histogram equalization
    and median filtering, for trees that were not run through the
    preprocess command first.
    """
    images, labels = [], []
    for path, label in manifest.labelled_files():
        images.append(prepare(read_pgm(path), target, window, full_pipeline)[None])
        labels.append(label)
    return Dataset(np.stack(images), np.asarray(labels))
