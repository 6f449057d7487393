"""End-to-end command-line behavior: generation, preprocessing, training,
evaluation, prediction, exit codes and artifact layout."""

import os
import shutil
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from bfpcnn.cli import main, print_prediction, resolve_run_spec
from bfpcnn.data import CLASS_NAMES, gen_synthetic, ingest, load_dataset
from bfpcnn.errors import DataError
from bfpcnn.layers import softmax
from bfpcnn.preprocess import GrayImage, read_pgm, write_pgm
from bfpcnn.tensor import Tensor
from bfpcnn.train import optimizer_step

TINY_MODEL_KV = """
model.input_size = 16
model.stem_filters = 2
model.refine_filters = 2
model.inception1 = 1,1,1,1,1,1
model.inception2 = 1,1,1,1,1,1
model.sep_blocks = 4
model.dense_units = 8
model.dropout = 0.0
model.attn_dropout = 0.0
model.seed = 3
"""


def with_settings(text: str, extra: str) -> str:
    """``text`` then ``extra``, minus ``text``'s lines for the keys ``extra``
    sets: a config file may set each key once."""
    keys = {line.split("=", 1)[0].strip() for line in extra.splitlines() if "=" in line}
    kept = [line for line in text.splitlines(keepends=True)
            if line.split("=", 1)[0].strip() not in keys]
    return "".join(kept) + extra


def write_tiny_config(path: Path, extra: str = "") -> Path:
    path.write_text(with_settings(TINY_MODEL_KV, extra))
    return path


def copy_split(run: Path, split: str, dest: Path) -> Path:
    """A data tree holding exactly the files of ``split`` in ``run``."""
    for name in CLASS_NAMES:
        (dest / name).mkdir(parents=True)
    for line in (run / f"{split}_files.txt").read_text().strip().split("\n"):
        shutil.copy(line, dest / Path(line).parent.name / Path(line).name)
    return dest


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestGen:
    def test_counts_and_layout(self, tmp_path):
        out = tmp_path / "data"
        assert main(["gen", "--out", str(out), "--per-class", "3",
                     "--size", "24", "--seed", "5"]) == 0
        manifest = ingest(out)
        assert manifest.counts == [3, 3, 3, 3]
        for name in CLASS_NAMES:
            assert (out / name).is_dir()

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        gen_synthetic(a, per_class=8, size=64, seed=7)
        gen_synthetic(b, per_class=8, size=64, seed=7)
        assert tree_bytes(a) == tree_bytes(b)

    def test_existing_out_refused_and_left_intact(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["gen", "--out", str(out), "--per-class", "2",
                     "--size", "8", "--seed", "1"]) == 0
        before = tree_bytes(out)
        assert main(["gen", "--out", str(out), "--per-class", "1",
                     "--size", "8", "--seed", "2"]) == 1
        assert "already exists" in capsys.readouterr().err
        assert tree_bytes(out) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]

    def test_seed_changes_content(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        gen_synthetic(a, per_class=2, size=16, seed=1)
        gen_synthetic(b, per_class=2, size=16, seed=2)
        assert tree_bytes(a) != tree_bytes(b)


class TestIngest:
    def test_missing_class_dir(self, tmp_path):
        gen_synthetic(tmp_path / "d", per_class=1, size=8, seed=0)
        shutil.rmtree(tmp_path / "d" / "ModerateDemented")
        with pytest.raises(DataError, match="missing class directory 'ModerateDemented'"):
            ingest(tmp_path / "d")

    def test_truncated_image_named(self, tmp_path):
        gen_synthetic(tmp_path / "d", per_class=1, size=8, seed=0)
        bad = tmp_path / "d" / "NonDemented" / "broken.pgm"
        bad.write_bytes(b"P5\n8 8\n255\nxx")
        with pytest.raises(DataError, match="not a valid 8-bit binary PGM") as err:
            load_dataset(ingest(tmp_path / "d"), target=8)
        assert "broken.pgm" in str(err.value)

    def test_each_file_parsed_once(self, tmp_path, monkeypatch):
        gen_synthetic(tmp_path / "d", per_class=2, size=8, seed=0)
        parsed = []
        monkeypatch.setattr("bfpcnn.data.read_pgm",
                            lambda path: parsed.append(path) or read_pgm(path))
        manifest = ingest(tmp_path / "d")
        load_dataset(manifest, target=8)
        files = [path for path, _ in manifest.labelled_files()]
        assert len(files) == 8
        assert parsed == files

    def test_lexicographic_order(self, tmp_path):
        gen_synthetic(tmp_path / "d", per_class=3, size=8, seed=0)
        manifest = ingest(tmp_path / "d")
        for name in CLASS_NAMES:
            files = [p.name for p in manifest.files[name]]
            assert files == sorted(files)


class TestPreprocessCommand:
    def test_output_geometry(self, tmp_path):
        gen_synthetic(tmp_path / "in", per_class=2, size=20, seed=3)
        assert main(["preprocess", "--in", str(tmp_path / "in"),
                     "--out", str(tmp_path / "out"), "--target", "12"]) == 0
        manifest = ingest(tmp_path / "out")
        assert manifest.counts == [2, 2, 2, 2]
        for path, _ in manifest.labelled_files():
            img = read_pgm(path)
            assert (img.height, img.width) == (12, 12)

    def test_constant_images_stay_constant(self, tmp_path):
        in_root = tmp_path / "in"
        for name in CLASS_NAMES:
            (in_root / name).mkdir(parents=True)
            write_pgm(GrayImage(np.full((10, 10), 70, np.uint8)),
                      in_root / name / "c.pgm")
        assert main(["preprocess", "--in", str(in_root),
                     "--out", str(tmp_path / "out"), "--target", "10"]) == 0
        out = read_pgm(tmp_path / "out" / "NonDemented" / "c.pgm")
        assert np.all(out.pixels == out.pixels[0, 0])

    def test_stages_written(self, tmp_path):
        gen_synthetic(tmp_path / "in", per_class=1, size=16, seed=2)
        assert main(["preprocess", "--in", str(tmp_path / "in"),
                     "--out", str(tmp_path / "out"), "--target", "8",
                     "--stages"]) == 0
        for stage in ("equalized", "filtered", "resized"):
            stage_dir = tmp_path / "out" / "stages" / stage / "MildDemented"
            assert any(stage_dir.iterdir())

    def test_rerun_idempotent_within_one_level(self, tmp_path):
        # stripes: median-stable images, so the second pass is governed by
        # equalization idempotence alone (noisy images get reshaped by the
        # median stage and can legitimately move further)
        in_root = tmp_path / "in"
        rng = np.random.default_rng(9)
        for name in CLASS_NAMES:
            (in_root / name).mkdir(parents=True)
            levels = np.sort(rng.choice(256, size=8, replace=False)).astype(np.uint8)
            img = np.repeat(levels, 2)[:, None].repeat(16, axis=1)
            write_pgm(GrayImage(img), in_root / name / "s.pgm")
        main(["preprocess", "--in", str(in_root),
              "--out", str(tmp_path / "o1"), "--target", "16"])
        main(["preprocess", "--in", str(tmp_path / "o1"),
              "--out", str(tmp_path / "o2"), "--target", "16"])
        m1 = ingest(tmp_path / "o1")
        for path, _ in m1.labelled_files():
            twin = tmp_path / "o2" / path.parent.name / path.name
            a = read_pgm(path).pixels.astype(int)
            b = read_pgm(twin).pixels.astype(int)
            assert np.abs(a - b).max() <= 1

    def test_existing_out_dir_refused(self, tmp_path):
        gen_synthetic(tmp_path / "in", per_class=1, size=8, seed=2)
        (tmp_path / "out").mkdir()
        assert main(["preprocess", "--in", str(tmp_path / "in"),
                     "--out", str(tmp_path / "out"), "--target", "8"]) == 1
        assert not any((tmp_path / "out").iterdir())

    def test_even_window_leaves_no_output(self, tmp_path):
        gen_synthetic(tmp_path / "in", per_class=1, size=8, seed=2)
        assert main(["preprocess", "--in", str(tmp_path / "in"),
                     "--out", str(tmp_path / "out"), "--target", "8",
                     "--window", "4", "--stages"]) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in"]

    def test_failure_removes_the_parents_it_made(self, tmp_path):
        gen_synthetic(tmp_path / "in", per_class=1, size=8, seed=2)
        bad = tmp_path / "in" / "NonDemented" / "NonDemented_0000.pgm"
        good = bad.read_bytes()
        bad.write_bytes(b"P5\n8 8\n255\nxx")
        (tmp_path / "kept").mkdir()
        out = tmp_path / "kept" / "new" / "parent" / "prep"
        args = ["preprocess", "--in", str(tmp_path / "in"), "--out", str(out),
                "--target", "8"]
        assert main(args) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in", "kept"]
        assert not any((tmp_path / "kept").iterdir())
        bad.write_bytes(good)
        assert main(args) == 0  # a command that succeeds keeps them
        assert ingest(out).counts == [1, 1, 1, 1]


    @pytest.mark.parametrize("window", ["4", "0"])
    def test_bad_window_refused_before_reading_the_tree(self, tmp_path, capsys, window):
        for name in CLASS_NAMES:
            (tmp_path / "in" / name).mkdir(parents=True)
        assert main(["preprocess", "--in", str(tmp_path / "in"),
                     "--out", str(tmp_path / "out"), "--window", window]) == 1
        assert capsys.readouterr().err == \
            f"error: window must be odd and positive, got {window}\n"
        assert not (tmp_path / "out").exists()


class TestRunSpec:
    def test_table_defaults(self):
        spec = resolve_run_spec(None, None, None, None, None)
        assert spec.train.learning_rate == 0.001
        assert spec.train.epochs == 100
        assert spec.train.batch_size == 128
        assert spec.train.optimizer == "adam"

    def test_default_config_echo(self):
        # every key and value of a default config.txt: a renamed config field
        # would otherwise rename its key silently
        assert resolve_run_spec(None, None, None, None, None).to_kv() == {
            "model.attn_dropout": "0.1",
            "model.class_count": "4",
            "model.dense_units": "512",
            "model.dropout": "0.5",
            "model.inception1": "64,96,128,16,32,32",
            "model.inception2": "128,128,192,32,96,64",
            "model.input_size": "224",
            "model.refine_filters": "64,192",
            "model.seed": "0",
            "model.sep_blocks": "128,256",
            "model.spatial_dilations": "1,2",
            "model.spatial_filters": "auto",
            "model.spatial_kernel": "3",
            "model.stem_filters": "64",
            "model.stem_kernel": "7",
            "preprocess.full": "false",
            "preprocess.window": "3",
            "train.batch": "128",
            "train.epochs": "100",
            "train.lr": "0.001",
            "train.optimizer": "adam",
            "train.seed": "0",
            "train.val_fraction": "0.2",
        }

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("train.lr = 0.5\ntrain.epochs = 7\n")
        spec = resolve_run_spec(cfg, 0.25, None, None, None)
        assert spec.train.learning_rate == 0.25
        assert spec.train.epochs == 7

    def test_seed_flag_sets_model_seed(self, tmp_path):
        spec = resolve_run_spec(None, None, None, None, 42)
        assert spec.train.seed == 42
        assert spec.model.seed == 42

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("zap = 1\n")
        assert main(["train", "--data", "x", "--config", str(cfg),
                     "--out", str(tmp_path / "r")]) == 1

    def test_misspelled_model_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model.inceptoin1 = 1,1,1,1,1,1\n")
        assert main(["train", "--data", "x", "--config", str(cfg),
                     "--out", str(tmp_path / "r")]) == 1
        assert "unknown configuration keys" in capsys.readouterr().err


def run_tiny_training(tmp_path, run_name="run", seed="3", epochs="2",
                      extra_cfg="", per_class=4) -> Path:
    data = tmp_path / "data"
    if not data.exists():
        gen_synthetic(data, per_class=per_class, size=16, seed=1)
    cfg = write_tiny_config(tmp_path / "tiny.cfg", extra_cfg)
    out = tmp_path / run_name
    code = main(["train", "--data", str(data), "--config", str(cfg),
                 "--epochs", epochs, "--batch", "8", "--seed", seed,
                 "--out", str(out)])
    assert code == 0
    return out


class TestTrainCommand:
    def test_run_directory_contents(self, tmp_path):
        out = run_tiny_training(tmp_path)
        expected = {"config.txt", "model.ckpt", "history.csv", "confusion.csv",
                    "confusion_normalized.csv", "metrics.txt",
                    "train_files.txt", "val_files.txt"}
        assert {p.name for p in out.iterdir()} == expected

    def test_config_echo_contains_resolved_values(self, tmp_path):
        out = run_tiny_training(tmp_path)
        echo = (out / "config.txt").read_text()
        assert "train.lr = 0.001\n" in echo
        assert "train.batch = 8\n" in echo
        assert "model.input_size = 16\n" in echo

    def test_zero_lr_constant_metrics(self, tmp_path):
        data = tmp_path / "data"
        gen_synthetic(data, per_class=4, size=16, seed=1)
        cfg = write_tiny_config(tmp_path / "tiny.cfg")
        out = tmp_path / "zero"
        assert main(["train", "--data", str(data), "--config", str(cfg),
                     "--lr", "0", "--epochs", "3", "--batch", "8",
                     "--seed", "3", "--out", str(out)]) == 0
        rows = (out / "history.csv").read_text().strip().split("\n")[1:]
        accs = {r.split(",")[3] for r in rows if r.split(",")[1] == "train"}
        assert len(accs) == 1

    def test_same_seed_identical_artifacts(self, tmp_path):
        out1 = run_tiny_training(tmp_path, "run1")
        out2 = run_tiny_training(tmp_path, "run2")
        bytes1 = tree_bytes(out1)
        bytes2 = tree_bytes(out2)
        assert set(bytes1) == set(bytes2)
        # every artifact byte-identical; file lists name absolute paths under
        # the same data directory, so they match too
        assert bytes1 == bytes2

    def test_non_utf8_file_name_listed_as_its_bytes(self, tmp_path):
        data = tmp_path / "data"
        gen_synthetic(data, per_class=4, size=16, seed=1)
        odd = data / "NonDemented" / os.fsdecode(b"\xff_odd.pgm")
        shutil.copy(data / "NonDemented" / "NonDemented_0000.pgm", odd)
        out = run_tiny_training(tmp_path, epochs="1")
        lines = ((out / "train_files.txt").read_bytes()
                 + (out / "val_files.txt").read_bytes()).splitlines()
        assert os.fsencode(odd) in lines
        assert sorted(lines) == sorted(os.fsencode(p) for p in data.rglob("*.pgm"))

    def test_existing_out_dir_refused(self, tmp_path):
        (tmp_path / "run").mkdir()
        data = tmp_path / "data"
        gen_synthetic(data, per_class=2, size=16, seed=1)
        cfg = write_tiny_config(tmp_path / "tiny.cfg")
        assert main(["train", "--data", str(data), "--config", str(cfg),
                     "--epochs", "1", "--out", str(tmp_path / "run")]) == 1

    def test_confusion_csv_layout(self, tmp_path):
        out = run_tiny_training(tmp_path)
        lines = (out / "confusion.csv").read_text().strip().split("\n")
        assert lines[0] == ",".join(CLASS_NAMES)
        assert len(lines) == 5
        norm_lines = (out / "confusion_normalized.csv").read_text().strip().split("\n")
        for row in norm_lines[1:]:
            vals = [float(v) for v in row.split(",")]
            assert abs(sum(vals) - 1.0) < 1e-5 or sum(vals) == 0.0


class TestEvalCommand:
    def test_eval_reproduces_final_train_metrics(self, tmp_path):
        out = run_tiny_training(tmp_path, epochs="2")
        subset = copy_split(out, "train", tmp_path / "subset")
        ev = tmp_path / "evalrun"
        assert main(["eval", "--ckpt", str(out / "model.ckpt"),
                     "--data", str(subset), "--out", str(ev)]) == 0

        history = (out / "history.csv").read_text().strip().split("\n")[1:]
        last_train = [r for r in history if r.split(",")[1] == "train"][-1]
        _, _, loss, acc, prec, rec, f1 = last_train.split(",")
        metrics = (ev / "metrics.txt").read_text().split("\n")
        got_loss = float(metrics[0].split()[1])
        got_acc = float(metrics[1].split()[1])
        assert abs(got_loss - float(loss)) <= 1e-6
        assert abs(got_acc - float(acc)) <= 1e-6

    def test_eval_of_val_split_rewrites_run_scores(self, tmp_path):
        # train and eval write their scores through one writer, so an eval
        # of the val files reproduces the run's score files
        out = run_tiny_training(tmp_path, epochs="2")
        subset = copy_split(out, "val", tmp_path / "subset")
        ev = tmp_path / "evalrun"
        assert main(["eval", "--ckpt", str(out / "model.ckpt"),
                     "--data", str(subset), "--out", str(ev)]) == 0
        for name in ("confusion.csv", "confusion_normalized.csv"):
            assert (ev / name).read_bytes() == (out / name).read_bytes()
        loss_line, rest = (ev / "metrics.txt").read_text().split("\n", 1)
        assert rest == (out / "metrics.txt").read_text()
        last_val = (out / "history.csv").read_text().strip().split("\n")[-1].split(",")
        assert last_val[1] == "val"
        assert abs(float(loss_line.split()[1]) - float(last_val[2])) <= 1e-6

    def test_data_checked_before_checkpoint_load(self, tmp_path, capsys, monkeypatch):
        out = run_tiny_training(tmp_path, epochs="1")
        loads = []
        monkeypatch.setattr("bfpcnn.cli.load_checkpoint", lambda *args: loads.append(args))
        ev = tmp_path / "evalrun"
        assert main(["eval", "--ckpt", str(out / "model.ckpt"),
                     "--data", str(tmp_path / "absent"), "--out", str(ev)]) == 2
        assert "missing class directory" in capsys.readouterr().err
        assert not ev.exists()
        assert loads == []

    def test_eval_outputs(self, tmp_path):
        out = run_tiny_training(tmp_path)
        ev = tmp_path / "evalrun"
        assert main(["eval", "--ckpt", str(out / "model.ckpt"),
                     "--data", str(tmp_path / "data"), "--out", str(ev)]) == 0
        assert {p.name for p in ev.iterdir()} == {
            "metrics.txt", "confusion.csv", "confusion_normalized.csv"}


class TestPredictCommand:
    def test_probabilities_and_argmax(self, tmp_path, capsys):
        out = run_tiny_training(tmp_path)
        capsys.readouterr()  # drop training output
        image = next((tmp_path / "data" / "NonDemented").glob("*.pgm"))
        assert main(["predict", "--ckpt", str(out / "model.ckpt"),
                     "--image", str(image)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 5
        probs = {}
        for line in lines[:4]:
            name, value = line.rsplit(" ", 1)
            probs[name] = float(value)
        assert set(probs) == set(CLASS_NAMES)
        assert abs(sum(probs.values()) - 1.0) <= 1e-6
        best = max(probs, key=probs.get)
        assert lines[4] == f"predicted: {best}"

    def test_image_checked_before_checkpoint_load(self, tmp_path, capsys, monkeypatch):
        out = run_tiny_training(tmp_path, epochs="1")
        loads = []
        monkeypatch.setattr("bfpcnn.cli.load_checkpoint", lambda *args: loads.append(args))
        assert main(["predict", "--ckpt", str(out / "model.ckpt"),
                     "--image", str(tmp_path / "absent.pgm")]) == 2
        assert "absent.pgm" in capsys.readouterr().err
        assert loads == []

    def test_identical_images_identical_output(self, tmp_path, capsys):
        out = run_tiny_training(tmp_path)
        capsys.readouterr()  # drop training output
        image = next((tmp_path / "data" / "MildDemented").glob("*.pgm"))
        twin = tmp_path / "twin.pgm"
        shutil.copy(image, twin)
        main(["predict", "--ckpt", str(out / "model.ckpt"), "--image", str(image)])
        first = capsys.readouterr().out
        main(["predict", "--ckpt", str(out / "model.ckpt"), "--image", str(twin)])
        second = capsys.readouterr().out
        assert first == second

    def test_printed_rows_keep_softmax_contract(self, capsys):
        # logit scales from near-uniform rows (1e-3) to saturated ones (1e2),
        # plus rows with one class pushed to ~1 and the others to ~0
        rng = np.random.default_rng(17)
        k = len(CLASS_NAMES)
        spread = rng.standard_normal((2000, k)) * np.logspace(-3, 2, 2000)[:, None]
        saturated = rng.standard_normal((200, k))
        saturated[np.arange(200), rng.integers(0, k, 200)] += rng.uniform(15, 90, 200)
        logits = np.concatenate([spread, saturated])
        rows = softmax(Tensor(logits.shape, logits)).data
        for row in rows:
            print_prediction(row)
            lines = capsys.readouterr().out.strip().split("\n")
            assert len(lines) == k + 1
            printed = [line.rsplit(" ", 1) for line in lines[:k]]
            assert [name for name, _ in printed] == list(CLASS_NAMES)
            # the sum as a reader parsing floats sees it, like the test above
            assert abs(sum(float(text) for _, text in printed) - 1.0) <= 1e-6
            for (_, text), p in zip(printed, row):
                half_unit = Decimal(5) / 10 ** (len(text.split(".")[1]) + 1)
                assert abs(Decimal(text) - Decimal(float(p))) <= half_unit
            assert lines[k] == f"predicted: {CLASS_NAMES[int(np.argmax(row))]}"


class TestExitCodes:
    def test_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["train"])  # missing required flags
        assert exc.value.code == 1

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["explode"])
        assert exc.value.code == 1

    def test_data_error(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "absent"),
                     "--out", str(tmp_path / "run")]) == 2

    def test_data_error_leaves_no_run_dir(self, tmp_path, capsys):
        run = run_tiny_training(tmp_path, epochs="1")
        capsys.readouterr()  # drop training output
        absent = tmp_path / "absent"
        out = tmp_path / "eval"
        assert main(["eval", "--ckpt", str(run / "model.ckpt"),
                     "--data", str(absent), "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: {absent}: missing class directory 'MildDemented'\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "train", "preprocess"])
    def test_empty_dataset_is_data_error(self, tmp_path, capsys, command):
        empty = tmp_path / "empty"
        for name in CLASS_NAMES:
            (empty / name).mkdir(parents=True)
        # eval refuses the tree before it loads the checkpoint, a zero-byte
        # file whose refusal would print another line
        run = tmp_path / "run"
        run.mkdir()
        write_tiny_config(run / "config.txt")
        (run / "model.ckpt").touch()
        out = tmp_path / "out"
        args = {"eval": ["eval", "--ckpt", str(run / "model.ckpt"), "--data", str(empty)],
                "train": ["train", "--data", str(empty)],
                "preprocess": ["preprocess", "--in", str(empty)]}[command]
        assert main(args + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {empty}: dataset is empty\n"
        assert not out.exists()

    def test_repeated_config_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("train.epochs = 1\n# no training\n train.epochs=0\n")
        out = tmp_path / "run"
        # absent data would exit 2, so exit 1 shows no data was read
        assert main(["train", "--data", str(tmp_path / "absent"), "--config", str(cfg),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"error: {cfg}:3: train.epochs is already set on line 1\n"
        assert not out.exists()

    def test_non_utf8_train_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"train.lr = 0.5\n# \xff\xfe\n")
        out = tmp_path / "run"
        assert main(["train", "--data", str(tmp_path / "absent"), "--config", str(cfg),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: not UTF-8 text (byte 17)\n"
        assert not out.exists()

    @pytest.mark.parametrize("name, reason", [
        ("nope.cfg", "No such file or directory"),
        ("a_dir", "Is a directory"),
    ], ids=["missing", "directory"])
    def test_unreadable_train_config_is_config_error(self, tmp_path, capsys, name, reason):
        (tmp_path / "a_dir").mkdir()
        cfg = tmp_path / name
        out = tmp_path / "run"
        # absent data would exit 2, so exit 1 shows no data was read
        assert main(["train", "--data", str(tmp_path / "absent"), "--config", str(cfg),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --config {cfg}: {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_run_without_config_is_data_error(self, tmp_path, capsys, command):
        run = run_tiny_training(tmp_path, epochs="1")
        (run / "config.txt").unlink()
        capsys.readouterr()  # drop training output
        image = next((tmp_path / "data" / "NonDemented").glob("*.pgm"))
        target = (["--data", str(tmp_path / "data"), "--out", str(tmp_path / "eval")]
                  if command == "eval" else ["--image", str(image)])
        assert main([command, "--ckpt", str(run / "model.ckpt"), *target]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "config.txt" in err and err.count("\n") == 1
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_non_utf8_run_config_is_config_error(self, tmp_path, capsys, command):
        run = run_tiny_training(tmp_path, epochs="1")
        config = run / "config.txt"
        size = config.stat().st_size
        with open(config, "ab") as fh:
            fh.write(b"# \xff\xfe")
        capsys.readouterr()  # drop training output
        image = next((tmp_path / "data" / "NonDemented").glob("*.pgm"))
        target = (["--data", str(tmp_path / "data"), "--out", str(tmp_path / "eval")]
                  if command == "eval" else ["--image", str(image)])
        assert main([command, "--ckpt", str(run / "model.ckpt"), *target]) == 1
        assert capsys.readouterr().err == \
            f"error: {config}: not UTF-8 text (byte {size + 2})\n"
        assert not (tmp_path / "eval").exists()

    def test_non_utf8_checkpoint_name_is_data_error(self, tmp_path, capsys):
        run = run_tiny_training(tmp_path, epochs="1")
        ckpt = run / "model.ckpt"
        raw = bytearray(ckpt.read_bytes())
        raw[14] = 0xFF  # first byte of the first tensor name
        ckpt.write_bytes(bytes(raw))
        capsys.readouterr()  # drop training output
        image = next((tmp_path / "data" / "NonDemented").glob("*.pgm"))
        assert main(["predict", "--ckpt", str(ckpt), "--image", str(image)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("lines, message", [
        ("model.input_size = 4\n", "input_size must be >= 5"),
        ("preprocess.full = true\npreprocess.window = 4\n",
         "window must be odd and positive, got 4"),
    ], ids=["input-size-4", "even-window"])
    @pytest.mark.parametrize("command", ["train", "eval", "predict"])
    def test_bad_setting_refused_before_reading_data(self, tmp_path, capsys, command,
                                                     lines, message):
        # absent data would exit 2, so exit 1 shows no data was read
        out = tmp_path / "out"
        absent = str(tmp_path / "absent")
        if command == "train":
            cfg = write_tiny_config(tmp_path / "tiny.cfg", lines)
            args = ["train", "--data", absent, "--config", str(cfg), "--out", str(out)]
        else:
            run = run_tiny_training(tmp_path, epochs="1")
            config = run / "config.txt"  # the bad value replaces the run's own
            config.write_text(with_settings(config.read_text(), lines))
            capsys.readouterr()  # drop training output
            args = [command, "--ckpt", str(run / "model.ckpt")] + (
                ["--data", absent, "--out", str(out)] if command == "eval"
                else ["--image", absent])
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("lines, flags, message", [
        ("preprocess.full = maybe\n", [],
         "bad configuration value: expected a boolean, got 'maybe'"),
        ("model.dropout = 1.5\n", [],
         "bad model configuration value: dropout rates must lie in [0, 1)"),
        ("model.inception1 = 0,1,1,1,1,1\n", [],
         "bad model configuration value: all inception filter counts must be >= 1"),
        ("model.inception1 = 1,2,3\n", [],
         "bad model configuration value: inception config needs 6 filter counts, got '1,2,3'"),
        ("train.val_fraction = 1.5\n", [],
         "bad configuration value: val_fraction must lie in (0, 1)"),
        ("", ["--batch", "0"],
         "bad configuration value: batch_size must be >= 1 and epochs >= 0"),
        ("", ["--epochs", "-1"],
         "bad configuration value: batch_size must be >= 1 and epochs >= 0"),
    ], ids=["full-maybe", "dropout", "inception-zero", "inception-three", "val-fraction",
            "batch-0", "epochs-negative"])
    def test_bad_train_setting_is_config_error(self, tmp_path, capsys, lines, flags,
                                               message):
        # absent data would exit 2, so exit 1 shows no data was read
        cfg = write_tiny_config(tmp_path / "tiny.cfg", lines)
        out = tmp_path / "run"
        assert main(["train", "--data", str(tmp_path / "absent"), "--config", str(cfg),
                     *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("raw, reason", [
        (b"P5\n2 2\n65535\n" + bytes(8), "unsupported header"),
        (b"P5\n0 2\n255\n", "unsupported header"),
        (b"P5\n2 2\n", "missing header token"),
        (b"P5\n2 2\n255#x\n" + bytes(4), "invalid literal for int() with base 10: b'255#x'"),
    ], ids=["16-bit", "zero-width", "no-maxval", "comment-glued-to-maxval"])
    def test_bad_pgm_header_is_data_error(self, tmp_path, capsys, raw, reason):
        data = tmp_path / "data"
        gen_synthetic(data, per_class=2, size=16, seed=1)
        bad = data / "NonDemented" / "NonDemented_0001.pgm"
        bad.write_bytes(raw)
        # a tiny model keeps the run cheap, should the header ever be accepted
        cfg = write_tiny_config(tmp_path / "tiny.cfg")
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: {bad}: not a valid 8-bit binary PGM ({reason})\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "tiny.cfg"]

    def test_even_window_in_config_is_config_error(self, tmp_path):
        gen_synthetic(tmp_path / "data", per_class=2, size=16, seed=1)
        cfg = write_tiny_config(tmp_path / "tiny.cfg",
                                "preprocess.full = true\npreprocess.window = 4\n")
        out = tmp_path / "run"
        assert main(["train", "--data", str(tmp_path / "data"), "--config", str(cfg),
                     "--epochs", "1", "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("line", [
        "model.stem_kernel = 0", "model.spatial_kernel = 0", "model.dense_units = 0",
        "model.stem_filters = 0", "model.refine_filters = 0",
        "model.spatial_filters = 0", "model.spatial_dilations = 1,-2",
        "model.sep_blocks = 0", "model.spatial_dilations =",
    ])
    def test_nonpositive_width_is_config_error(self, tmp_path, capsys, line):
        gen_synthetic(tmp_path / "data", per_class=2, size=16, seed=1)
        cfg = write_tiny_config(tmp_path / "tiny.cfg", line + "\n")
        out = tmp_path / "run"
        assert main(["train", "--data", str(tmp_path / "data"), "--config", str(cfg),
                     "--epochs", "1", "--out", str(out)]) == 1
        assert "bad model configuration value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("count", [3, 6])
    def test_class_count_other_than_class_list_is_config_error(self, tmp_path, capsys,
                                                               count):
        gen_synthetic(tmp_path / "data", per_class=2, size=16, seed=1)
        cfg = write_tiny_config(tmp_path / "tiny.cfg", f"model.class_count = {count}\n")
        out = tmp_path / "run"
        assert main(["train", "--data", str(tmp_path / "data"), "--config", str(cfg),
                     "--epochs", "1", "--out", str(out)]) == 1
        assert "model.class_count must be 4" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["gen", "--per-class", "0", "--size", "8", "--seed", "1"],
        ["gen", "--per-class", "1", "--size", "0", "--seed", "1"],
        ["preprocess", "--target", "0"],
    ], ids=["per-class", "size", "target"])
    def test_nonpositive_count_is_usage_error(self, tmp_path, capsys, args):
        gen_synthetic(tmp_path / "data", per_class=1, size=8, seed=1)
        if args[0] == "preprocess":
            args = args + ["--in", str(tmp_path / "data")]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--out", str(tmp_path / "out")])
        assert exc.value.code == 1
        assert "must be >= 1, got 0" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]

    @pytest.mark.parametrize("command, seed, line", [
        ("gen", "-1", ""),
        ("train", "-1", ""),
        ("train", None, "model.seed = -1\n"),
        ("train", None, "train.seed = -1\n"),
    ], ids=["gen-flag", "train-flag", "model-seed-key", "train-seed-key"])
    def test_negative_seed_rejected_before_any_work(self, tmp_path, capsys,
                                                     command, seed, line):
        out = tmp_path / "out"
        if command == "gen":
            args = ["gen", "--per-class", "1", "--size", "8"]
        else:
            # absent data would exit 2, so exit 1 shows no data was read
            cfg = write_tiny_config(tmp_path / "tiny.cfg", line)
            args = ["train", "--data", str(tmp_path / "absent"), "--config", str(cfg)]
        if seed is not None:
            args += ["--seed", seed]
        try:
            code = main(args + ["--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        assert code == 1
        assert "must be >= 0, got -1" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            [] if command == "gen" else ["tiny.cfg"])

    @pytest.mark.parametrize("command", ["train", "eval", "preprocess"])
    def test_existing_out_refused_before_reading_data(self, tmp_path, capsys, command):
        out = tmp_path / "run"
        out.mkdir()
        data_flag = "--in" if command == "preprocess" else "--data"
        args = [data_flag, str(tmp_path / "absent"), "--out", str(out)]
        if command == "eval":
            args = ["--ckpt", str(tmp_path / "no.ckpt")] + args
        assert main([command] + args) == 1
        assert "already exists" in capsys.readouterr().err

    def test_one_sample_final_batch_is_data_error(self, tmp_path, capsys, monkeypatch):
        # 12 training samples in batches of 11 leave a last batch of one
        # sample at 1x1 after the stem pool: train-mode batchnorm cannot run
        gen_synthetic(tmp_path / "data", per_class=4, size=8, seed=1)
        cfg = write_tiny_config(tmp_path / "tiny.cfg", "model.input_size = 5\n")
        out = tmp_path / "run"
        steps = []
        monkeypatch.setattr("bfpcnn.train.optimizer_step",
                            lambda *args: steps.append(1) or optimizer_step(*args))
        assert main(["train", "--data", str(tmp_path / "data"), "--config", str(cfg),
                     "--epochs", "1", "--batch", "11", "--out", str(out)]) == 2
        assert "error: train-mode batchnorm needs >= 2 values" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "tiny.cfg"]
        assert steps == []

    @pytest.mark.parametrize("lr, line", [
        ("nan", ""), ("inf", ""), (None, "train.lr = nan\n"),
    ], ids=["flag-nan", "flag-inf", "key-nan"])
    def test_non_finite_lr_rejected_before_any_work(self, tmp_path, capsys, lr, line):
        # absent data would exit 2, so exit 1 shows no data was read
        cfg = write_tiny_config(tmp_path / "tiny.cfg", line)
        args = ["train", "--data", str(tmp_path / "absent"), "--config", str(cfg),
                "--out", str(tmp_path / "run")]
        if lr is not None:
            args += ["--lr", lr]
        assert main(args) == 1
        assert "learning_rate must be >= 0 and finite" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tiny.cfg"]

    def test_success(self, tmp_path):
        assert main(["gen", "--out", str(tmp_path / "d"), "--per-class", "1",
                     "--size", "8", "--seed", "1"]) == 0


class TestLabelMappingRoundTrip:
    def test_stable_across_commands(self, tmp_path, capsys):
        # strongly separated classes learn fast enough that predictions on
        # training images expose the label mapping
        data = tmp_path / "data"
        gen_synthetic(data, per_class=10, size=16, seed=4)
        cfg = write_tiny_config(tmp_path / "tiny.cfg",
                                "model.stem_filters = 4\n"
                                "model.refine_filters = 4\n"
                                "model.dense_units = 16\n")
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--config", str(cfg),
                     "--epochs", "30", "--batch", "4", "--seed", "11",
                     "--lr", "0.002", "--out", str(out)]) == 0
        capsys.readouterr()
        manifest = ingest(data)
        correct = 0
        total = 0
        for label, name in enumerate(CLASS_NAMES):
            for image in manifest.files[name][:2]:
                main(["predict", "--ckpt", str(out / "model.ckpt"),
                      "--image", str(image)])
                printed = capsys.readouterr().out.strip().split("\n")
                predicted = printed[-1].split(": ")[1]
                total += 1
                correct += (predicted == name)
        assert correct / total >= 0.75  # mapping consistent, model converged
