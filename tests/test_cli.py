"""End-to-end command-line tests: every subcommand, exit codes, determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import threading
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from stylerec import cli, data, errors, model, threads, training
from stylerec.data import CART, PURCHASE, PreparedDataset, Session, generate_synthetic, write_sessions
from stylerec.errors import FormatError, InputError
from stylerec.style import load_style_cache, save_style_cache, write_feature_maps
from stylerec.model import ModelConfig, init_params, load_checkpoint, save_checkpoint
from stylerec.training import CONFIGURATIONS, TrainConfig
from conftest import short_switch_interval
from test_data import NON_STR_IDS
from test_training import TINY_MODEL, tiny_dataset


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


def child_env(**extra) -> dict:
    """The environment of a child process that imports this checkout's ``stylerec``."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


@pytest.fixture
def tiny_config(tmp_path):
    """A config file selecting a model small enough for fast CLI runs."""
    path = tmp_path / "run.cfg"
    path.write_text(
        "# tiny run\n"
        "seed=7\n"
        "model.d_product=8\n"
        "model.d_model=4\n"
        "model.n_blocks=1\n"
        "model.n_heads=2\n"
        "model.d_ffn=8\n"
        "model.dropout=0.0\n"
        "train.epochs=2\n"
        "train.learning_rate=0.005\n"
        "train.batch_size=32\n"
        "train.l2=0.0001\n",
        encoding="utf-8")
    return path


def make_raw(tmp_path, **kwargs) -> "pathlib.Path":
    out = tmp_path / "sessions.jsonl"
    argv = ["synth", "--products", 8, "--sessions", 150, "--seed", 3, "--out", out,
            "--length-min", 3, "--length-max", 6]
    for flag, value in kwargs.items():
        argv += [f"--{flag.replace('_', '-')}", value]
    assert run(*argv) == 0
    return out


def make_prepared(tmp_path, raw=None) -> "pathlib.Path":
    raw = raw or make_raw(tmp_path)
    out = tmp_path / "prep.json"
    assert run("preprocess", "--sessions", raw, "--out", out, "--max-len", 8) == 0
    return out


class TestSynth:
    def test_writes_dataset_and_oracle(self, tmp_path):
        out = make_raw(tmp_path)
        assert out.is_file()
        assert (tmp_path / "sessions.jsonl.oracle.npz").is_file()
        first = json.loads(out.read_text().splitlines()[0])
        assert set(first) == {"session_id", "kind", "t", "items"}

    def test_style_correlated_writes_cache(self, tmp_path):
        out = tmp_path / "s.jsonl"
        assert run("synth", "--products", 10, "--sessions", 40, "--seed", 1,
                   "--out", out, "--style-correlated", "--clusters", 2) == 0
        cache = load_style_cache(tmp_path / "s.jsonl.style.s4se")
        assert sorted(cache) == list(range(1, 11))
        assert all(v.shape == (512,) for v in cache.values())

    def test_deterministic(self, tmp_path):
        a = make_raw(tmp_path / "a")
        b = make_raw(tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()


class TestPreprocess:
    def test_writes_dataset_and_stats(self, tmp_path, capsys):
        raw = make_raw(tmp_path)
        out = tmp_path / "prep.json"
        assert run("preprocess", "--sessions", raw, "--out", out, "--max-len", 8) == 0
        assert out.is_file()
        stats = (tmp_path / "prep.json.stats.txt").read_text()
        assert "Purchase" in stats and "seed:" in stats
        assert "#Sessions" in capsys.readouterr().out

    def test_rerun_byte_identical(self, tmp_path):
        raw = make_raw(tmp_path)
        out1, out2 = tmp_path / "p1.json", tmp_path / "p2.json"
        assert run("preprocess", "--sessions", raw, "--out", out1, "--max-len", 8) == 0
        assert run("preprocess", "--sessions", raw, "--out", out2, "--max-len", 8) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("max_len", [1, 0, -3])
    def test_max_len_below_2_is_config_error(self, tmp_path, capsys, max_len):
        raw = make_raw(tmp_path)
        code = run("preprocess", "--sessions", raw, "--out", tmp_path / "x", "--max-len", max_len)
        assert code == 2
        assert capsys.readouterr().err == f"error config-error: max_len must be >= 2, got {max_len}\n"
        assert not (tmp_path / "x").exists() and not (tmp_path / "x.stats.txt").exists()

    def test_max_len_above_the_cap_is_config_error(self, tmp_path, capsys):
        raw = make_raw(tmp_path)
        capsys.readouterr()
        assert run("preprocess", "--sessions", raw, "--out", tmp_path / "x",
                   "--max-len", data.MAX_LEN_CAP + 1) == 2
        assert capsys.readouterr().err == (f"error config-error: max_len must be <= "
                                           f"{data.MAX_LEN_CAP}, got {data.MAX_LEN_CAP + 1}\n")
        assert not (tmp_path / "x").exists() and not (tmp_path / "x.stats.txt").exists()

    def test_an_id_of_a_purchase_and_a_cart_session_is_dropped(self, tmp_path, capsys):
        """Both sessions of the id leave the prepared file; the statistics table counts
        the parsed file, before the drop."""
        raw = make_raw(tmp_path)
        both = tmp_path / "both.jsonl"
        both.write_text(raw.read_text() + "".join(
            json.dumps({"session_id": "a", "kind": kind, "t": t, "items": [1, 2, 3]}) + "\n"
            for kind, t in ((PURCHASE, 200), (CART, 201))))
        capsys.readouterr()
        assert run("preprocess", "--sessions", both, "--out", tmp_path / "both.json",
                   "--max-len", 8) == 0
        ds = PreparedDataset.from_json((tmp_path / "both.json").read_text())
        assert "a" not in {s.session_id for s in ds.all_sessions()}
        assert ds == PreparedDataset.from_json(make_prepared(tmp_path, raw).read_text())
        stats = (tmp_path / "both.json.stats.txt").read_text().splitlines()
        parsed = data.parse_sessions(both)
        assert [line.split()[1] for line in stats[2:4]] == [
            str(sum(s.kind == kind for s in parsed)) for kind in (PURCHASE, CART)]

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code = run("preprocess", "--sessions", tmp_path / "nope.jsonl",
                   "--out", tmp_path / "x")
        assert code == 1
        assert capsys.readouterr().err.startswith("error input-error:")

    def test_bad_line_reported_with_number(self, tmp_path, capsys):
        raw = tmp_path / "bad.jsonl"
        raw.write_text('{"session_id": "a", "kind": "purchase", "t": 1, "items": [1, 2]}\n'
                       "not json\n")
        assert run("preprocess", "--sessions", raw, "--out", tmp_path / "x") == 1
        assert ":2:" in capsys.readouterr().err

    def test_refused_sessions_leave_no_directory(self, tmp_path, capsys):
        """A malformed line, and sessions that leave a split empty, are refused before
        the claim: neither makes the output's parent directories."""
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"session_id": "a", "kind": "purchase", "t": 1, "items": [1, 2]}\n'
                       "not json\n")
        carts = tmp_path / "carts.jsonl"  # no purchase session is left to test
        write_sessions([Session(f"c{t:02d}", CART, t, (1, 2)) for t in range(18)], carts)
        for raw, code, err in ((bad, 1, f"error input-error: {bad}:2: invalid JSON"),
                               (carts, 2, "error config-error: empty split: train=14, val=2, "
                                          "test=0 from 18 sessions")):
            assert run("preprocess", "--sessions", raw, "--out", tmp_path / "new/dir/x") == code
            assert capsys.readouterr().err.startswith(err)
            assert not (tmp_path / "new").exists()


def npz_bytes(**arrays) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def npy_with_damaged_header(path) -> None:
    """An 8x8x3 .npy image whose header has a "(" in its space padding."""
    np.save(path, np.ones((8, 8, 3)))
    blob = bytearray(path.read_bytes())
    blob[blob.index(b"\n", 10) - 1] = ord("(")
    path.write_bytes(bytes(blob))


class TestStylegen:
    def write_features(self, directory, pid, seed):
        rng = np.random.default_rng(seed)
        layers = [rng.standard_normal((64, 6, 6)).astype(np.float32) for _ in range(2)]
        write_feature_maps(layers, directory / f"{pid}.s4rf")

    def test_features_mode_with_missing_product(self, tmp_path, capsys):
        feat = tmp_path / "feat"
        feat.mkdir()
        for pid in (1, 3):
            self.write_features(feat, pid, pid)
        out = tmp_path / "cache.s4se"
        assert run("stylegen", "--features", feat, "--products", 3, "--out", out,
                   "--seed", 0) == 0
        assert "warning: 1 of 3 products have no image" in capsys.readouterr().out
        cache = load_style_cache(out)
        assert sorted(cache) == [1, 2, 3]
        assert cache[1].any() and cache[3].any()
        assert not cache[2].any()

    def test_pseudo_mode_reproducible(self, tmp_path):
        images = tmp_path / "img"
        images.mkdir()
        rng = np.random.default_rng(0)
        for pid in (1, 2):
            np.save(images / f"{pid}.npy", rng.random((8, 8, 3)))
        a, b = tmp_path / "a.s4se", tmp_path / "b.s4se"
        for out in (a, b):
            assert run("stylegen", "--pseudo", "--images", images, "--products", 2,
                       "--out", out, "--seed", 5) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_corrupt_feature_file(self, tmp_path, capsys):
        feat = tmp_path / "feat"
        feat.mkdir()
        (feat / "1.s4rf").write_bytes(b"garbage")
        code = run("stylegen", "--features", feat, "--products", 1,
                   "--out", tmp_path / "c.s4se")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error format-error: {feat / '1.s4rf'}: ")
        assert err.count("\n") == 1

    def run_pseudo(self, tmp_path, bad_image) -> int:
        """stylegen over a good image 1 and an image 2 that ``bad_image(path)`` writes."""
        images = tmp_path / "img"
        images.mkdir()
        np.save(images / "1.npy", np.random.default_rng(1).random((8, 8, 3)))
        bad_image(images / "2.npy")
        return run("stylegen", "--pseudo", "--images", images, "--products", 2,
                   "--out", tmp_path / "c.s4se")

    def assert_input_error_naming(self, capsys, tmp_path, name):
        err = capsys.readouterr().err
        assert err.startswith("error input-error:") and err.count("\n") == 1
        assert name in err
        assert not (tmp_path / "c.s4se").exists()

    @pytest.mark.parametrize("bad_image", [
        lambda p: p.write_bytes(b"garbage bytes, not an array"),
        lambda p: p.write_bytes(b""),
        lambda p: np.save(p, np.array([{"a": 1}], dtype=object), allow_pickle=True),
        lambda p: np.save(p, np.full((8, 8, 3), "x")),
        lambda p: np.save(p, np.full((8, 8, 3), 1 + 2j)),
        lambda p: p.write_bytes(npz_bytes(a=np.ones((8, 8, 3)))),
        npy_with_damaged_header,
    ], ids=["garbage", "empty", "pickled", "text", "complex", "npz", "header"])
    def test_unreadable_image_is_input_error(self, tmp_path, capsys, bad_image):
        assert self.run_pseudo(tmp_path, bad_image) == 1
        self.assert_input_error_naming(capsys, tmp_path, "2.npy")

    @pytest.mark.parametrize("shape", [(4, 8, 3), (8, 7), (8, 8, 0), (8, 8, 3, 2), (64,)],
                             ids=["short", "narrow-2d", "no-channels", "rank-4", "rank-1"])
    def test_bad_shape_image_is_input_error(self, tmp_path, capsys, shape):
        assert self.run_pseudo(tmp_path, lambda p: np.save(p, np.ones(shape))) == 1
        assert capsys.readouterr().err == (
            f"error input-error: {tmp_path / 'img' / '2.npy'}: image must be H x W or "
            f"H x W x C with H, W >= 8 and C >= 1, got shape {shape}\n")
        assert not (tmp_path / "c.s4se").exists()

    @pytest.mark.parametrize("value, pixels", [
        (np.nan, np.s_[:]), (np.nan, np.s_[3, 4, 0]), (np.inf, np.s_[0, 0, 2]),
        (-np.inf, np.s_[:]), (1e300, np.s_[:])],
        ids=["all-nan", "one-nan", "one-inf", "all-minus-inf", "overflow"])
    def test_non_finite_image_is_input_error(self, tmp_path, capsys, value, pixels):
        image = np.random.default_rng(2).random((8, 8, 3))
        image[pixels] = value
        assert self.run_pseudo(tmp_path, lambda p: np.save(p, image)) == 1
        self.assert_input_error_naming(capsys, tmp_path, "2.npy")

    def test_non_finite_features_are_input_error(self, tmp_path, capsys):
        feat = tmp_path / "feat"
        feat.mkdir()
        layers = [np.ones((64, 6, 6), dtype=np.float32) for _ in range(2)]
        layers[1][5, 2, 2] = np.nan
        write_feature_maps(layers, feat / "1.s4rf")
        assert run("stylegen", "--features", feat, "--products", 1,
                   "--out", tmp_path / "c.s4se") == 1
        self.assert_input_error_naming(capsys, tmp_path, "1.s4rf")

    @pytest.mark.parametrize("shapes", [[(64, 6, 6)] * 3, [(32, 6, 6), (64, 6, 6)]],
                             ids=["three-layers", "32-maps"])
    def test_bad_layout_features_are_input_error(self, tmp_path, capsys, shapes):
        feat = tmp_path / "feat"
        feat.mkdir()
        self.write_features(feat, 1, 1)
        write_feature_maps([np.ones(shape, dtype=np.float32) for shape in shapes],
                           feat / "2.s4rf")
        assert run("stylegen", "--features", feat, "--products", 2,
                   "--out", tmp_path / "c.s4se") == 1
        self.assert_input_error_naming(capsys, tmp_path, "2.s4rf")

    def test_requires_exactly_one_source(self, tmp_path):
        assert run("stylegen", "--products", 2, "--out", tmp_path / "c") == 2
        feat = tmp_path / "feat"
        feat.mkdir()
        assert run("stylegen", "--features", feat, "--pseudo", "--images", feat,
                   "--products", 2, "--out", tmp_path / "c") == 2

    @pytest.mark.parametrize("products", [0, -3])
    def test_products_below_one_is_config_error(self, tmp_path, capsys, products):
        feat = tmp_path / "feat"
        feat.mkdir()
        self.write_features(feat, 1, 1)
        assert run("stylegen", "--features", feat, "--products", products,
                   "--out", tmp_path / "c.s4se") == 2
        assert capsys.readouterr().err == "error config-error: --products must be >= 1\n"
        assert not (tmp_path / "c.s4se").exists()

    def test_no_images_at_all_rejected(self, tmp_path):
        feat = tmp_path / "empty"
        feat.mkdir()
        assert run("stylegen", "--features", feat, "--products", 2,
                   "--out", tmp_path / "c") == 2


class TestStylegenWorkers:
    """``stylegen`` on one and on two workers (``threads.WORKERS``): the calling thread
    and the process's one helper take product ids from one iterator."""

    def write_images(self, tmp_path, count, shape=(16, 16, 3)):
        images = tmp_path / "img"
        images.mkdir()
        rng = np.random.default_rng(4)
        for pid in range(1, count + 1):
            if pid % 5:  # every fifth product has no image
                np.save(images / f"{pid}.npy", rng.random(shape))
        return images

    def spy_threads(self, monkeypatch):
        """The names of the threads that run ``_stylegen_vector``, one per call."""
        names, real = [], cli._stylegen_vector
        monkeypatch.setattr(cli, "_stylegen_vector", lambda *a: (
            names.append(threading.current_thread().name), real(*a))[1])
        return names

    @pytest.mark.parametrize("workers", [1, 2])
    def test_style_cache_bytes_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch,
                                                                 capsys, workers):
        images = self.write_images(tmp_path, 40)
        one = tmp_path / "one.s4se"
        assert run("stylegen", "--pseudo", "--images", images, "--products", 40,
                   "--out", one, "--seed", 5) == 0
        monkeypatch.setattr(threads, "WORKERS", workers)
        names = self.spy_threads(monkeypatch)
        out = tmp_path / f"{workers}.s4se"
        with short_switch_interval():
            assert run("stylegen", "--pseudo", "--images", images, "--products", 40,
                       "--out", out, "--seed", 5) == 0
        assert out.read_bytes() == one.read_bytes()
        assert len(names) == 40 and len(set(names)) == workers

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_lowest_failing_id_is_reported(self, tmp_path, monkeypatch, capsys, workers):
        """Bad images at ids 3 and 7, and id 3 slow to read: the line names 3.npy, as one
        worker going through the ids in order reports it."""
        images = self.write_images(tmp_path, 12)
        for pid in (3, 7):
            (images / f"{pid}.npy").write_bytes(b"not an array")
        real_read = cli._read_image
        monkeypatch.setattr(cli, "_read_image", lambda path: (
            time.sleep(0.05 if path.name == "3.npy" else 0), real_read(path))[1])
        monkeypatch.setattr(threads, "WORKERS", workers)
        with short_switch_interval():
            assert run("stylegen", "--pseudo", "--images", images, "--products", 12,
                       "--out", tmp_path / "c.s4se") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error input-error: {images / '3.npy'}: ") and err.count("\n") == 1
        assert not (tmp_path / "c.s4se").exists()

    def test_an_error_raised_on_the_helper_propagates(self, tmp_path, monkeypatch):
        images = self.write_images(tmp_path, 6)
        monkeypatch.setattr(threads, "WORKERS", 2)
        caller, helper_raised = threading.current_thread(), threading.Event()
        real = cli._stylegen_vector

        def vector(args, pid, seed, scratch):
            if threading.current_thread() is not caller:
                helper_raised.set()
                raise RuntimeError(f"not a StyleRecError, id {pid}")
            if pid > 1:  # id 1 sizes the buffers before the helper starts
                assert helper_raised.wait(10)
            return real(args, pid, seed, scratch)

        monkeypatch.setattr(cli, "_stylegen_vector", vector)
        with short_switch_interval(), pytest.raises(RuntimeError, match="not a StyleRecError"):
            run("stylegen", "--pseudo", "--images", images, "--products", 6,
                "--out", tmp_path / "c.s4se")
        assert not (tmp_path / "c.s4se").exists()

    def test_an_unowned_blas_count_runs_one_worker(self, tmp_path, monkeypatch, capsys):
        images = self.write_images(tmp_path, 6)
        monkeypatch.setattr(threads, "WORKERS", 2)
        monkeypatch.setattr(threads, "_blas_thread_calls", lambda: None)
        names = self.spy_threads(monkeypatch)
        assert run("stylegen", "--pseudo", "--images", images, "--products", 6,
                   "--out", tmp_path / "c.s4se") == 0
        assert set(names) == {threading.current_thread().name}

    def test_train_and_stylegen_share_one_helper_thread(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(threads, "WORKERS", 2)
        ds, _ = tiny_dataset()
        model = ModelConfig(**{**TINY_MODEL, "d_product": 64, "d_ffn": 256})
        training.train(ds, model, TrainConfig(epochs=1, seed=6, batch_size=32))
        images = self.write_images(tmp_path, 20)
        assert run("stylegen", "--pseudo", "--images", images, "--products", 20,
                   "--out", tmp_path / "c.s4se") == 0
        helpers = [t for t in threading.enumerate() if t.name.startswith("stylerec-helper")]
        assert len(helpers) == 1


class TestTrainEval:
    def test_train_writes_checkpoint_and_report(self, tmp_path, tiny_config):
        prep = make_prepared(tmp_path)
        assert run("train", "--config", tiny_config, "--data", prep,
                   "--checkpoint-dir", tmp_path / "ck",
                   "--report-dir", tmp_path / "rep") == 0
        ckpt = tmp_path / "ck" / "model-P.s4ck"
        assert ckpt.is_file()
        params = load_checkpoint(ckpt)
        assert params.config.d_product == 8
        report = (tmp_path / "rep" / "train-P.txt").read_text()
        assert "fingerprint:" in report and "seed=7" in report

    def test_train_rerun_byte_identical(self, tmp_path, tiny_config):
        prep = make_prepared(tmp_path)
        outs = []
        for name in ("x", "y"):
            out = tmp_path / f"{name}.s4ck"
            assert run("train", "--config", tiny_config, "--data", prep,
                       "--out", out, "--report-dir", tmp_path / f"rep-{name}") == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_one_product_catalog_is_refused_before_the_claim(self, tmp_path, tiny_config):
        """Its one id would be every session's target, leaving no training negative; but
        its only sessions, [1, 1], end in a repeat, which no prepared dataset holds: one
        input-error line, not a draw that never ends. A child process bounds the wait."""
        one = [Session(f"s{t:02d}", PURCHASE, t, (1, 1)).to_row() for t in range(18)]
        doc = {"catalog_size": 1, "max_len": 8, "padding_id": 0,
               "train": one[:14], "val": one[14:16], "test": one[16:]}
        (tmp_path / "one.json").write_text(json.dumps(doc, indent=1), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "stylerec.cli", "train", "--config", tiny_config,
             "--data", "one.json"],
            cwd=tmp_path, capture_output=True, text=True, env=child_env(), timeout=60)
        assert proc.returncode == 1
        assert proc.stderr == ("error input-error: session 's00': a prepared session ends "
                               "in two different ids, got [1, 1]\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["one.json", "run.cfg"]

    def test_eval_mode_tagged(self, tmp_path, tiny_config):
        prep = make_prepared(tmp_path)
        ckpt = tmp_path / "m.s4ck"
        assert run("train", "--config", tiny_config, "--data", prep, "--out", ckpt,
                   "--report-dir", tmp_path / "rep") == 0
        assert run("eval", "--config", tiny_config, "--checkpoint", ckpt,
                   "--data", prep, "--mode", "full-catalog",
                   "--report-dir", tmp_path / "rep") == 0
        report = (tmp_path / "rep" / "eval-eval.txt").read_text()
        assert "mode: full-catalog" in report
        assert "eval full-catalog HR 5" in report

    def test_eval_auto_mode_small_catalog(self, tmp_path, tiny_config):
        prep = make_prepared(tmp_path)
        ckpt = tmp_path / "m.s4ck"
        run("train", "--config", tiny_config, "--data", prep, "--out", ckpt,
            "--report-dir", tmp_path / "rep")
        assert run("eval", "--config", tiny_config, "--checkpoint", ckpt,
                   "--data", prep, "--report-dir", tmp_path / "rep") == 0
        # 8 products cannot supply 100 negatives, so auto picks full-catalog
        assert "mode: full-catalog" in (tmp_path / "rep" / "eval-eval.txt").read_text()

    def test_catalog_mismatch_rejected(self, tmp_path, tiny_config):
        prep = make_prepared(tmp_path)
        other_raw = tmp_path / "other.jsonl"
        run("synth", "--products", 20, "--sessions", 60, "--seed", 9, "--out", other_raw)
        other = tmp_path / "other.json"
        run("preprocess", "--sessions", other_raw, "--out", other, "--max-len", 8)
        ckpt = tmp_path / "m.s4ck"
        run("train", "--config", tiny_config, "--data", prep, "--out", ckpt,
            "--report-dir", tmp_path / "rep")
        assert run("eval", "--config", tiny_config, "--checkpoint", ckpt,
                   "--data", other, "--report-dir", tmp_path / "rep") == 2

    def test_max_len_mismatch_rejected(self, tmp_path, tiny_config, capsys):
        raw = make_raw(tmp_path)
        prep = make_prepared(tmp_path, raw)
        short = tmp_path / "short.json"
        assert run("preprocess", "--sessions", raw, "--out", short, "--max-len", 3) == 0
        ckpt = tmp_path / "m.s4ck"
        assert run("train", "--config", tiny_config, "--data", prep, "--out", ckpt,
                   "--report-dir", tmp_path / "rep") == 0
        capsys.readouterr()
        assert run("eval", "--config", tiny_config, "--checkpoint", ckpt,
                   "--data", short, "--report-dir", tmp_path / "rep-short") == 2
        err = capsys.readouterr().err
        assert err.startswith("error config-error:") and "max_len" in err, err
        assert err.count("\n") == 1 and not (tmp_path / "rep-short").exists()

    @pytest.mark.parametrize("model_products, data_products", [(10, 20), (20, 10)])
    def test_style_catalog_mismatch_is_config_error(self, tmp_path, tiny_config, capsys,
                                                    model_products, data_products):
        """With the model's style cache or the dataset's, eval reaches the catalog check."""
        paths = {}
        for products in {model_products, data_products}:
            raw = tmp_path / f"s{products}.jsonl"
            assert run("synth", "--products", products, "--sessions", 80, "--seed", 4,
                       "--out", raw, "--style-correlated", "--clusters", 2,
                       "--length-min", 3, "--length-max", 6) == 0
            prep = tmp_path / f"p{products}.json"
            assert run("preprocess", "--sessions", raw, "--out", prep, "--max-len", 8) == 0
            paths[products] = prep, Path(f"{raw}.style.s4se")
        ckpt = tmp_path / "m.s4ck"
        prep, cache = paths[model_products]
        assert run("train", "--config", tiny_config, "--data", prep, "--style-cache", cache,
                   "--configuration", "P+Style", "--out", ckpt,
                   "--report-dir", tmp_path / "rep") == 0
        for products in (model_products, data_products):
            capsys.readouterr()
            assert run("eval", "--config", tiny_config, "--checkpoint", ckpt,
                       "--data", paths[data_products][0], "--style-cache", paths[products][1],
                       "--report-dir", tmp_path / "rep-eval") == 2
            assert capsys.readouterr().err == (f"error config-error: model catalog "
                                               f"{model_products} differs from the dataset's "
                                               f"{data_products}\n")
        assert not (tmp_path / "rep-eval").exists()

    @pytest.mark.parametrize("command", ["train", "suite", "sweep", "eval"])
    def test_style_cache_beyond_the_catalog_is_config_error(self, tmp_path, tiny_config, capsys,
                                                            monkeypatch, command):
        """A cache for a larger catalog is a file the user named that does not fit the run:
        one config-error line naming it, met before anything is made."""
        monkeypatch.chdir(tmp_path)
        make_prepared(tmp_path)  # catalog 8
        save_style_cache({pid: np.ones(512, dtype=np.float32) for pid in range(1, 12)},
                         tmp_path / "big.s4se")
        tiny_config.write_text(tiny_config.read_text() + "train.configuration=P+Style\n")
        save_checkpoint(init_params(replace(tiny_model_config(), use_style=True), 8, 0),
                        tmp_path / "m.s4ck")
        rest = {"eval": ("--checkpoint", "m.s4ck"), "sweep": ("--budget", 1)}.get(command, ())
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert run(command, "--config", tiny_config, "--data", "prep.json",
                   "--style-cache", "big.s4se", *rest) == 2
        assert capsys.readouterr().err == ("error config-error: big.s4se: style vector for id 11 "
                                           "outside catalog 1..8\n")
        assert sorted(tmp_path.rglob("*")) == before

    def train_with_style_value(self, tmp_path, tiny_config, value) -> int:
        """``train --configuration P+Style`` with a style cache holding ``value`` once."""
        prep = make_prepared(tmp_path)
        vectors = {pid: np.ones(512, dtype=np.float32) for pid in range(1, 9)}
        vectors[3][5] = value
        save_style_cache(vectors, tmp_path / "style.s4se")
        return run("train", "--config", tiny_config, "--data", prep,
                   "--style-cache", tmp_path / "style.s4se", "--configuration", "P+Style",
                   "--checkpoint-dir", tmp_path / "ck", "--report-dir", tmp_path / "rep")

    def test_non_finite_style_value_is_format_error(self, tmp_path, tiny_config, capsys):
        assert self.train_with_style_value(tmp_path, tiny_config, np.nan) == 1
        assert capsys.readouterr().err == ("error format-error: non-finite value in the style "
                                           "vector for id 3 at byte 4140\n")
        assert not (tmp_path / "ck").exists() and not (tmp_path / "rep").exists()

    def test_overflowing_style_value_is_one_numeric_error_line(self, tmp_path, tiny_config,
                                                               capsys):
        # numpy's overflow warnings stay silent; the finite check reports the fault
        assert self.train_with_style_value(tmp_path, tiny_config, 3e38) == 3
        err = capsys.readouterr().err
        assert err.startswith("error numeric-error:") and err.count("\n") == 1, err


def write_test_negsample_data(raw, prepared) -> None:
    """18 sessions over catalog 8, as raw lines and prepared at max_len 8: every val
    session has 2 distinct items, one test session 6."""
    sessions = [Session(f"s{t:02d}", PURCHASE, t, (1 + t % 7, 2 + t % 7)) for t in range(16)]
    sessions += [Session("s16", PURCHASE, 16, (1, 2, 3, 4, 5, 6)),
                 Session("s17", PURCHASE, 17, (1, 2))]
    write_sessions(sessions, raw)
    ds = data.prepare_dataset(sessions, max_len=8)
    assert (ds.catalog_size, [len(s.items) for s in ds.val + ds.test]) == (8, [2, 2, 6, 2])
    prepared.write_text(ds.to_json(), encoding="utf-8")


class TestPathErrors:
    """An OS error on a path the user named is one input-error line naming it. Every
    command claims all the files it writes before its first unit of work: a directory
    at one of them, or a file where a parent directory must go, is refused before
    anything trains, evaluates, parses a session line, draws a session or reads an
    image, and before any directory is made. A refused ``synth`` argument leaves
    nothing either."""

    # command -> (argv, an output file made a directory here or None, the error line
    # without its "error " prefix otherwise). Paths are relative to the working directory.
    CASES = {
        "preprocess": (("preprocess", "--sessions", "sessions.jsonl", "--out", "taken"),
                       None, "input-error: taken: Is a directory"),
        "preprocess-stats": (("preprocess", "--sessions", "sessions.jsonl", "--out", "p.json"),
                             "p.json.stats.txt", None),
        "synth": (("synth", "--products", 4, "--sessions", 5, "--out", "taken"),
                  None, "input-error: taken: Is a directory"),
        "synth-oracle": (("synth", "--products", 4, "--sessions", 5, "--out", "new/s.jsonl"),
                         "new/s.jsonl.oracle.npz", None),
        "stylegen": (("stylegen", "--pseudo", "--images", "img", "--products", 2,
                      "--out", "taken"), None, "input-error: taken: Is a directory"),
        "eval": (("eval", "--config", "run.cfg", "--checkpoint", "m.s4ck", "--data", "prep.json",
                  "--report-dir", "taken.txt"), None, "input-error: taken.txt: File exists"),
        "eval-report": (("eval", "--config", "run.cfg", "--checkpoint", "m.s4ck",
                         "--data", "prep.json", "--label", "x"), "reports/eval-x.txt", None),
        "train": (("train", "--config", "run.cfg", "--data", "prep.json",
                   "--checkpoint-dir", "taken.txt"),
                  None, "input-error: taken.txt: File exists"),
        "train-out": (("train", "--config", "run.cfg", "--data", "prep.json", "--out", "m.out"),
                      "m.out", None),
        "train-report": (("train", "--config", "run.cfg", "--data", "prep.json",
                          "--report-dir", "rep"), "rep/train-P.txt", None),
        "suite": (("suite", "--config", "run.cfg", "--data", "prep.json",
                   "--style-cache", "style.s4se", "--checkpoint-dir", "taken.txt"),
                  None, "input-error: taken.txt: File exists"),
        "suite-report": (("suite", "--config", "run.cfg", "--data", "prep.json",
                          "--style-cache", "style.s4se", "--report-dir", "rep"),
                         "rep/suite.txt", None),
        "suite-checkpoint": (("suite", "--config", "run.cfg", "--data", "prep.json",
                              "--style-cache", "style.s4se", "--checkpoint-dir", "ck"),
                             "ck/model-P+Cart+Style.s4ck", None),
        "sweep": (("sweep", "--config", "run.cfg", "--data", "prep.json",
                   "--report-dir", "taken.txt"), None, "input-error: taken.txt: File exists"),
        "sweep-checkpoint": (("sweep", "--config", "run.cfg", "--data", "prep.json",
                              "--checkpoint-dir", "ck"), "ck/model-sweep-best.s4ck", None),
        "sweep-report": (("sweep", "--config", "run.cfg", "--data", "prep.json",
                          "--report-dir", "rep"), "rep/sweep.txt", None),
        "dynamic": (("dynamic", "--config", "run.cfg", "--sessions", "sessions.jsonl",
                     "--report-dir", "taken.txt"), None, "input-error: taken.txt: File exists"),
        "dynamic-report": (("dynamic", "--config", "run.cfg", "--sessions", "sessions.jsonl",
                            "--report-dir", "rep"), "rep/dynamic.txt", None),
        # refusals met before the claim: exit 2, and no checkpoints/, reports/ or new/
        "train-empty-split": (("train", "--config", "run.cfg", "--data", "carts.json"), None,
                              "config-error: configuration 'P' leaves an empty train or val split"),
        "sweep-empty-split": (("sweep", "--config", "run.cfg", "--data", "carts.json"), None,
                              "config-error: configuration 'P' leaves an empty train or val split"),
        # negsample.cfg asks for 7 negatives in negsample mode from a catalog of 8
        "suite-negsample": (("suite", "--config", "negsample.cfg", "--data", "prep.json",
                             "--style-cache", "style.s4se"), None,
                            "config-error: catalog of 8 cannot supply 7 negatives for a session "
                            "with 5 distinct items"),
        "dynamic-negsample": (("dynamic", "--config", "negsample.cfg",
                               "--sessions", "sessions.jsonl"), None,
                              "config-error: catalog of 8 cannot supply 7 negatives for a "
                              "session with 2 distinct items"),  # the max_len 2 run
        "sweep-negsample": (("sweep", "--config", "negsample.cfg", "--data", "prep.json",
                             "--budget", 2), None,
                            "config-error: catalog of 8 cannot supply 7 negatives for a session "
                            "with 5 distinct items"),
        # testneg.cfg asks for 5 negatives in negsample mode: the val split of testneg.*
        # supplies them, a test session of 6 distinct items leaves only 2 ids
        **{f"{command}-test-negsample": (argv, None, "config-error: catalog of 8 cannot supply 5 "
                                         "negatives for a session with 6 distinct items")
           for command, argv in (
               ("train", ("train", "--config", "testneg.cfg", "--data", "testneg.json")),
               ("suite", ("suite", "--config", "testneg.cfg", "--data", "testneg.json",
                          "--style-cache", "style.s4se")),
               ("dynamic", ("dynamic", "--config", "testneg.cfg", "--sessions", "testneg.jsonl",
                            "--max-lens", "8")),
               ("sweep", ("sweep", "--config", "testneg.cfg", "--data", "testneg.json",
                          "--budget", 2)))},
        "synth-products": (("synth", "--products", 1, "--sessions", 5, "--out", "new/s.jsonl"),
                           None, "config-error: need catalog_size >= 2 and n_sessions >= 1"),
        "synth-length-min": (("synth", "--products", 4, "--sessions", 5, "--length-min", 1,
                              "--out", "new/s.jsonl"),
                             None, "config-error: bad length_range (1, 12)"),
        "synth-dominant-mass": (("synth", "--products", 4, "--sessions", 5, "--dominant-mass", 1,
                                 "--out", "new/s.jsonl"),
                                None, "config-error: dominant_mass must be in (0, 1)"),
        "synth-clusters": (("synth", "--products", 5, "--sessions", 5, "--style-correlated",
                            "--out", "new/s.jsonl"), None,
                           "config-error: need >= 2 clusters and >= 2 items per cluster"),
        "synth-cart-ratio": (("synth", "--products", 4, "--sessions", 5, "--cart-ratio", 2,
                              "--out", "new/s.jsonl"),
                             None, "config-error: cart_ratio must be in [0, 1], got 2.0"),
        "synth-cart-ratio-nan": (("synth", "--products", 4, "--sessions", 5, "--cart-ratio", "nan",
                                  "--out", "new/s.jsonl"),
                                 None, "config-error: cart_ratio must be in [0, 1], got nan"),
        "synth-seed": (("synth", "--products", 5, "--sessions", 10, "--seed", 10 ** 20,
                        "--out", "new/s.jsonl"), None,
                       f"config-error: seed must fit in a signed 64-bit integer, got {10 ** 20}"),
        "synth-order-style": (("synth", "--products", 10, "--sessions", 5, "--style-correlated",
                               "--clusters", 2, "--order", 2, "--out", "new/s.jsonl"), None,
                              "config-error: style-correlated sessions are first order, "
                              "got order 2"),
        "synth-order": (("synth", "--products", 4, "--sessions", 5, "--order", 3,
                         "--out", "new/s.jsonl"), None, "config-error: order must be 1 or 2"),
        # over data.TRANSITION_CAP; make_transition raises here if it is ever reached
        "synth-transition-cap": (("synth", "--products", 10 ** 9, "--sessions", 5,
                                  "--out", "new/s.jsonl"), None,
                                 "config-error: a dense order-1 transition over 1000000000 "
                                 "products exceeds the cap of 100000000 entries"),
        "train-no-data": (("train", "--config", "run.cfg"), None,
                          "config-error: no prepared dataset configured; pass the flag or set "
                          "it in the config file"),
        "stylegen-pseudo-images": (("stylegen", "--pseudo", "--products", 2,
                                    "--out", "new/s.s4se"), None,
                                   "config-error: --pseudo needs --images DIR"),
        "stylegen-source": (("stylegen", "--features", "nope", "--products", 2,
                             "--out", "new/s.s4se"), None,
                            "input-error: source directory not found: nope"),
        "sweep-budget": (("sweep", "--config", "run.cfg", "--data", "prep.json", "--budget", 0),
                         None, "config-error: sweep budget must be >= 1"),
        # every session of short.jsonl collapses below two items
        "preprocess-no-survivors": (("preprocess", "--sessions", "short.jsonl",
                                     "--out", "new/p.json"), None,
                                    "config-error: no sessions survive preprocessing"),
        **{f"preprocess-id-{name}": (("preprocess", "--sessions", f"id-{name}.jsonl",
                                      "--out", "new/p.json"), None,
                                     f"input-error: id-{name}.jsonl:1: session_id must be a "
                                     f"JSON str, not {value!r}")
           for name, value in NON_STR_IDS.items()},
    }

    @pytest.mark.parametrize("command", list(CASES))
    def test_os_error_is_one_input_error_line(self, tmp_path, tiny_config, capsys, monkeypatch,
                                              command):
        monkeypatch.chdir(tmp_path)
        doc = json.loads(make_prepared(tmp_path).read_text())
        (tmp_path / "carts.json").write_text(json.dumps(
            {**doc, "train": [{**row, "kind": "cart"} for row in doc["train"]]}))
        tiny_checkpoint(tmp_path / "m.s4ck", 8)
        save_style_cache({pid: np.ones(512, dtype=np.float32) for pid in range(1, 9)},
                         tmp_path / "style.s4se")
        (tmp_path / "negsample.cfg").write_text(
            tiny_config.read_text() + "train.eval_mode=negsample\ntrain.eval_negatives=7\n")
        (tmp_path / "testneg.cfg").write_text(
            tiny_config.read_text() + "train.eval_mode=negsample\ntrain.eval_negatives=5\n")
        write_test_negsample_data(tmp_path / "testneg.jsonl", tmp_path / "testneg.json")
        write_sessions([Session("a", PURCHASE, 0, (3,)), Session("b", PURCHASE, 1, (2, 2))],
                       tmp_path / "short.jsonl")
        for name, value in NON_STR_IDS.items():
            (tmp_path / f"id-{name}.jsonl").write_text(json.dumps(
                {"session_id": value, "kind": "purchase", "t": 0, "items": [1, 2]}) + "\n")
        (tmp_path / "taken").mkdir()
        (tmp_path / "taken.txt").write_text("not a directory\n", encoding="utf-8")
        (tmp_path / "img").mkdir()
        np.save(tmp_path / "img" / "1.npy", np.random.default_rng(1).random((8, 8, 3)))
        argv, taken, err = self.CASES[command]
        if taken:
            (tmp_path / taken).mkdir(parents=True)
            err = f"input-error: {Path(taken)}: Is a directory"
        calls = []

        def counting(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted = [(training, "train"), (cli, "train"), (training, "evaluate"),
                   (cli, "generate_synthetic"), (data, "generate_synthetic"),
                   (cli, "pseudo_feature_provider")]
        for module, name in counted:  # preprocess and dynamic parse sessions as an input
            counting(module, name)

        def make_transition(*args, **kwargs):  # stops an uncapped oracle before it fills GBs
            raise AssertionError("a dense transition was built")
        monkeypatch.setattr(data, "make_transition", make_transition)
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert run(*argv) == (2 if err.startswith("config-error") else 1)
        assert capsys.readouterr().err == f"error {err}\n"
        assert calls == []  # nothing trained, evaluated, drawn or read
        # no checkpoints/, reports/ or new/ directory, and no file
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", ["stylegen", "synth"])
    def test_missing_output_parent_is_created(self, tmp_path, command):
        out = tmp_path / "new" / "deeper" / "out"
        feat = tmp_path / "feat"
        feat.mkdir()
        write_feature_maps([np.ones((64, 6, 6), dtype=np.float32)] * 2, feat / "1.s4rf")
        assert run(*{"stylegen": ("stylegen", "--features", feat, "--products", 2),
                     "synth": ("synth", "--products", 4, "--sessions", 5)}[command],
                   "--out", out) == 0
        assert out.is_file()


class TestSuiteDynamicSweep:
    def make_style_setup(self, tmp_path):
        raw = tmp_path / "s.jsonl"
        assert run("synth", "--products", 10, "--sessions", 120, "--seed", 2,
                   "--out", raw, "--style-correlated", "--clusters", 2,
                   "--cart-ratio", 0.3, "--length-min", 3, "--length-max", 6) == 0
        prep = tmp_path / "prep.json"
        assert run("preprocess", "--sessions", raw, "--out", prep, "--max-len", 8) == 0
        return raw, prep, tmp_path / "s.jsonl.style.s4se"

    def test_suite_four_reports(self, tmp_path, tiny_config, capsys):
        _, prep, cache = self.make_style_setup(tmp_path)
        assert run("suite", "--config", tiny_config, "--data", prep,
                   "--style-cache", cache, "--epochs", 1,
                   "--checkpoint-dir", tmp_path / "ck",
                   "--report-dir", tmp_path / "rep") == 0
        report = (tmp_path / "rep" / "suite.txt").read_text()
        for name in ("P ", "P+Style ", "P+Cart ", "P+Cart+Style "):
            assert name in report
        for name in ("P", "P+Style", "P+Cart", "P+Cart+Style"):
            assert (tmp_path / "ck" / f"model-{name}.s4ck").is_file()

    def test_dynamic_curve_rows(self, tmp_path, tiny_config):
        raw = make_raw(tmp_path)
        assert run("dynamic", "--config", tiny_config, "--sessions", raw,
                   "--max-lens", "2,4", "--epochs", 1,
                   "--report-dir", tmp_path / "rep") == 0
        lines = (tmp_path / "rep" / "dynamic.txt").read_text().splitlines()
        assert lines[1].startswith("max_len HR@5")
        assert lines[2].startswith("2 ") and lines[3].startswith("4 ")

    def test_suite_equals_train_plus_eval(self, tmp_path, tiny_config):
        """Each suite checkpoint is the one ``train`` writes, and its report
        lines are the ones ``eval`` writes for that checkpoint."""
        _, prep, cache = self.make_style_setup(tmp_path)
        common = ["--config", tiny_config, "--data", prep, "--style-cache", cache]
        assert run("suite", *common, "--epochs", 1, "--checkpoint-dir", tmp_path / "ck",
                   "--report-dir", tmp_path / "rep") == 0

        def records(path, name):
            return [line for line in path.read_text().splitlines()
                    if line.split()[:1] == [name] and len(line.split()) == 5]

        for name in CONFIGURATIONS:
            ckpt = tmp_path / "ck" / f"model-{name}.s4ck"
            alone = tmp_path / f"alone-{name}.s4ck"
            assert run("train", *common, "--configuration", name, "--epochs", 1,
                       "--out", alone, "--report-dir", tmp_path / "rep-train") == 0
            assert alone.read_bytes() == ckpt.read_bytes()
            assert run("eval", *common, "--checkpoint", ckpt, "--label", name,
                       "--report-dir", tmp_path / "rep-eval") == 0
            suite = records(tmp_path / "rep" / "suite.txt", name)
            assert len(suite) == 9
            assert suite == records(tmp_path / "rep-eval" / f"eval-{name}.txt", name)

    def test_dynamic_keeps_one_catalog_across_caps(self, tmp_path, tiny_config):
        # id 10 only leads a 4-item session: the cap of 6 keeps it, the cap of 2 drops it
        sessions, _ = generate_synthetic(9, 150, length_range=(3, 6), seed=4)
        raw = tmp_path / "s.jsonl"
        write_sessions([Session("long", PURCHASE, -1, (10, 1, 2, 3))] + sessions, raw)
        rng = np.random.default_rng(4)
        cache = tmp_path / "style.s4se"
        save_style_cache({pid: rng.standard_normal(512).astype(np.float32)
                          for pid in range(1, 11)}, cache)
        cfg = tmp_path / "style.cfg"
        cfg.write_text(tiny_config.read_text()
                       + f"train.configuration=P+Style\nstyle_cache={cache}\n")
        assert run("dynamic", "--config", cfg, "--sessions", raw, "--max-lens", "6,2",
                   "--epochs", 1, "--report-dir", tmp_path / "rep") == 0
        lines = (tmp_path / "rep" / "dynamic.txt").read_text().splitlines()
        assert [line.split()[0] for line in lines[2:]] == ["6", "2"]

    @pytest.mark.parametrize("configuration", ["P", "P+Style"])
    def test_dynamic_empty_sessions_is_input_error(self, tmp_path, tiny_config, capsys,
                                                   configuration):
        raw = tmp_path / "empty.jsonl"
        raw.write_text("")
        cfg = tmp_path / "dyn.cfg"
        cfg.write_text(tiny_config.read_text() + f"train.configuration={configuration}\n")
        assert run("dynamic", "--config", cfg, "--sessions", raw, "--max-lens", "2,4",
                   "--report-dir", tmp_path / "rep") == 1
        err = capsys.readouterr().err
        assert err.startswith("error input-error:") and err.count("\n") == 1, err

    def test_sweep_budget(self, tmp_path, tiny_config):
        prep = make_prepared(tmp_path)
        assert run("sweep", "--config", tiny_config, "--data", prep,
                   "--budget", 2, "--hidden-dims", "8,16", "--l2-grid", "0.001",
                   "--epochs", 1, "--checkpoint-dir", tmp_path / "ck",
                   "--report-dir", tmp_path / "rep") == 0
        text = (tmp_path / "rep" / "sweep.txt").read_text()
        assert "best: hidden" in text
        assert len([l for l in text.splitlines() if l[:1].isdigit()]) == 2
        assert (tmp_path / "ck" / "model-sweep-best.s4ck").is_file()


class TestConfigFile:
    def test_flag_overrides_file(self, tmp_path, tiny_config):
        raw = make_raw(tmp_path)
        prep = tmp_path / "p.json"
        run("preprocess", "--sessions", raw, "--out", prep, "--max-len", 8)
        ckpt = tmp_path / "m.s4ck"
        assert run("train", "--config", tiny_config, "--data", prep, "--out", ckpt,
                   "--seed", 99, "--epochs", 1, "--report-dir", tmp_path / "rep") == 0
        report = (tmp_path / "rep" / "train-P.txt").read_text()
        assert "seed=99" in report and "epochs=1" in report

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("modle.d_product=8\n")
        assert run("synth", "--config", cfg, "--products", 4, "--sessions", 5,
                   "--out", tmp_path / "x") == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_train_seed_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("train.seed=4\n")
        assert run("synth", "--config", cfg, "--products", 4, "--sessions", 5,
                   "--out", tmp_path / "x") == 2

    def test_malformed_line_is_input_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just words\n")
        assert run("synth", "--config", cfg, "--products", 4, "--sessions", 5,
                   "--out", tmp_path / "x") == 1

    def test_non_utf8_line_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"seed=1\n# caf\xe9\n")
        assert run("synth", "--config", cfg, "--products", 4, "--sessions", 5,
                   "--out", tmp_path / "x") == 1
        err = capsys.readouterr().err
        assert err.startswith("error input-error:") and err.count("\n") == 1, err
        assert f"{cfg}:2: not UTF-8" in err

    def test_repeated_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("seed=1\n# again\nseed = 2\n")
        assert run("synth", "--config", cfg, "--products", 4, "--sessions", 5,
                   "--out", tmp_path / "x") == 2
        err = capsys.readouterr().err
        assert err.startswith("error config-error:") and err.count("\n") == 1, err
        assert f"{cfg}:3: repeated key 'seed'" in err
        assert not (tmp_path / "x").exists()

    def test_missing_config_file(self, tmp_path):
        assert run("synth", "--config", tmp_path / "nope.cfg", "--products", 4,
                   "--sessions", 5, "--out", tmp_path / "x") == 1

    def test_bad_value_type(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model.d_product=eight\n")
        assert run("synth", "--config", cfg, "--products", 4, "--sessions", 5,
                   "--out", tmp_path / "x") == 2


class TestPreparedDatasetInput:
    """A malformed prepared dataset ends in one input-error line."""

    GOOD = {"catalog_size": 8, "max_len": 8, "padding_id": 0,
            "train": [], "val": [], "test": [{"session_id": "a", "kind": "purchase",
                                               "t": 0, "items": [1, 2]}]}

    @pytest.mark.parametrize("blob", [
        b'{"catalog_size": 8,',  # not JSON
        json.dumps({k: v for k, v in GOOD.items() if k != "test"}).encode(),  # no test split
        b"[]",  # not an object
        json.dumps({**GOOD, "test": [{**GOOD["test"][0], "t": "x"}]}).encode(),  # bad t
        json.dumps(GOOD).encode().replace(b'"a"', b'"caf\xe9"'),  # not UTF-8
        json.dumps({**GOOD, "padding_id": 7}).encode(),  # the program pads with 0 only
        # JSON numbers are taken as given: int() would truncate or parse these
        json.dumps({**GOOD, "test": [{**GOOD["test"][0], "t": 3.7}]}).encode(),
        json.dumps({**GOOD, "test": [{**GOOD["test"][0], "items": [True, 2]}]}).encode(),
        json.dumps({**GOOD, "max_len": 6.9}).encode(),
        json.dumps({**GOOD, "max_len": "8"}).encode(),
        json.dumps({**GOOD, "catalog_size": "8"}).encode(),
        json.dumps({**GOOD, "catalog_size": 8.0}).encode(),
        json.dumps({**GOOD, "catalog_size": True}).encode(),
        json.dumps({**GOOD, "padding_id": False}).encode(),  # False == 0 in Python
        # well-typed, but no dataset preprocess writes
        json.dumps({**GOOD, "test": [{**GOOD["test"][0], "items": [1, 9]}]}).encode(),
        json.dumps({**GOOD, "test": [{**GOOD["test"][0], "items": [3]}]}).encode(),
        # eval would cut its input to the last max_len ids without a word
        json.dumps({**GOOD, "test": [{**GOOD["test"][0], "items": [1, 2, 3, 4, 5, 6, 7, 8, 1]}]}
                   ).encode(),
        json.dumps({**GOOD, "max_len": 1}).encode(),
        json.dumps({**GOOD, "catalog_size": 0}).encode(),
        json.dumps({**GOOD, "test": []}).encode(),  # eval would have nothing to rank
        # preprocess keeps one session per id, and tests on purchases only
        json.dumps({**GOOD, "train": GOOD["test"]}).encode(),
        json.dumps({**GOOD, "test": [{**GOOD["test"][0], "kind": "cart"}]}).encode(),
        b"[" * 100000,  # beyond the decoder's depth limit
        # preprocess collapses a trailing repeat, and splits by time
        json.dumps({**GOOD, "test": [{**GOOD["test"][0], "items": [1, 2, 2]}]}).encode(),
        json.dumps({**GOOD, "train": [{**GOOD["test"][0], "session_id": "tr", "t": 5}]}).encode(),
        # the writers quote an id as a JSON str, so no other JSON type is an id
        json.dumps({**GOOD, "test": [{**GOOD["test"][0], "session_id": None}]}).encode(),
        json.dumps({**GOOD, "test": [{**GOOD["test"][0], "session_id": 5}]}).encode(),
        json.dumps({**GOOD, "test": [{**GOOD["test"][0], "session_id": True}]}).encode(),
        json.dumps({**GOOD, "test": [{**GOOD["test"][0], "session_id": [1, 2]}]}).encode(),
        json.dumps({**GOOD, "test": [{**GOOD["test"][0], "session_id": {"a": 1}}]}).encode(),
    ], ids=["json", "missing-split", "list", "bad-t", "not-utf8", "padding-id", "float-t",
            "bool-item", "float-max-len", "string-max-len", "string-catalog-size",
            "float-catalog-size", "bool-catalog-size", "bool-padding-id", "id-above-catalog",
            "one-item-session", "session-over-max-len", "max-len-1", "catalog-size-0",
            "empty-test", "repeated-id", "cart-test-session", "nested-too-deeply",
            "trailing-repeat", "out-of-time-order", *(f"id-{name}" for name in NON_STR_IDS)])
    def test_malformed_dataset_is_input_error(self, tmp_path, capsys, blob):
        data = tmp_path / "prep.json"
        data.write_bytes(blob)
        ckpt = tmp_path / "m.s4ck"
        tiny_checkpoint(ckpt, 8)
        assert run("eval", "--checkpoint", ckpt, "--data", data,
                   "--report-dir", tmp_path / "rep") == 1
        err = capsys.readouterr().err
        assert err.startswith("error input-error:") and err.count("\n") == 1, err
        assert not (tmp_path / "rep").exists()
        if b"\xe9" not in blob:
            with pytest.raises(InputError):
                PreparedDataset.from_json(blob.decode("utf-8"))


def tiny_model_config() -> ModelConfig:
    """The tiny_config model shape."""
    return ModelConfig(d_product=8, d_model=4, n_blocks=1, n_heads=2, d_ffn=8,
                       dropout=0.0, max_len=8)


def tiny_checkpoint(path, catalog_size: int) -> None:
    """An untrained checkpoint with the tiny_config model shape."""
    save_checkpoint(init_params(tiny_model_config(), catalog_size, 0), path)


def bound_param_shapes(monkeypatch) -> None:
    """Make ``param_shapes`` fail above 1,000 blocks in every module that holds it, so a
    refusal that sizes a huge model block by block fails at once, not by filling memory."""
    real = model.param_shapes

    def bounded(config, catalog_size):
        assert config.n_blocks <= 1000, f"param_shapes asked for {config.n_blocks} blocks"
        return real(config, catalog_size)

    for module in (model, training, cli):
        if getattr(module, "param_shapes", None) is real:
            monkeypatch.setattr(module, "param_shapes", bounded)


class TestConfigPath:
    """Config-file lines and flags reach a run through one typed parser."""

    # argparse dests that configure one command only and are no config key
    COMMAND_LOCAL = {
        "help", "config", "out", "max_len", "features", "pseudo", "images", "products",
        "n_sessions", "cart_ratio", "order", "length_min", "length_max", "dominant_mass",
        "style_correlated", "clusters", "checkpoint", "label", "budget",
    }

    @pytest.mark.parametrize("cfg_line, argv", [
        ("", ("train", "--epochs", "0")),
        ("", ("eval", "--negatives", "0")),
        ("train.eval_negatives=0\n", ("eval",)),
        ("train.eval_negatives=-5\n", ("eval",)),
        ("", ("train", "--epochs", "abc")),
        ("", ("frobnicate",)),
        ("model.use_style=true\n", ("train",)),
        ("model.max_len=5\n", ("train",)),  # the prepared dataset owns max_len
        ("train.learning_rate=inf\n", ("train",)),
        # over training.PARAM_CAP; without the cap numpy refuses its 87 TiB at once
        ("model.d_ffn=1000000000000\n", ("train",)),
        # 8 products minus a val or test session's items cannot supply 7 negatives
        ("train.eval_mode=negsample\ntrain.eval_negatives=7\n", ("train",)),
        ("train.eval_mode=negsample\n", ("eval", "--negatives", "7")),
        # a label names the report file and is one field of its records
        ("", ("eval", "--label", "a b/../../escaped")),
        # over training.PARAM_CAP, counted from one block rather than block by block
        ("model.n_blocks=1000000000\n", ("train",)),
    ])
    def test_bad_setting_is_one_config_error_line(self, tmp_path, tiny_config, capsys,
                                                  monkeypatch, cfg_line, argv):
        bound_param_shapes(monkeypatch)
        prep = make_prepared(tmp_path)
        ckpt = tmp_path / "m.s4ck"
        tiny_checkpoint(ckpt, 8)
        key = cfg_line.partition("=")[0]  # the line replaces tiny_config's own, if any
        kept = [line for line in tiny_config.read_text(encoding="utf-8").splitlines(True)
                if not (key and line.startswith(f"{key}="))]
        tiny_config.write_text("".join(kept) + cfg_line, encoding="utf-8")
        per_command = {"train": ("--out", tmp_path / "x.s4ck"), "eval": ("--checkpoint", ckpt)}
        rest = ()
        if argv[0] in per_command:
            rest = ("--config", tiny_config, "--data", prep,
                    "--report-dir", tmp_path / "rep", *per_command[argv[0]])
        capsys.readouterr()
        assert run(*argv, *rest) == 2
        err = capsys.readouterr().err
        assert err.startswith("error config-error:") and err.count("\n") == 1, err
        assert not (tmp_path / "x.s4ck").exists() and not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("argv, flag, key, message", [
        (("train",), "--configuration", "train.configuration",
         f"configuration must be one of {CONFIGURATIONS}, got 'Q'"),
        (("eval", "--checkpoint", "m.s4ck"), "--mode", "train.eval_mode",
         "unknown eval_mode 'Q'"),
    ], ids=["configuration", "mode"])
    def test_flag_and_config_line_print_one_error_line(self, tmp_path, capsys, monkeypatch,
                                                       argv, flag, key, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(f"{key}=Q\n", encoding="utf-8")
        for setting in ((flag, "Q"), ("--config", "run.cfg")):
            assert run(*argv, *setting) == 2
            assert capsys.readouterr().err == f"error config-error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_eval_mode_from_config_file(self, tmp_path, tiny_config):
        # the long val session leaves 4 ids for 5 negatives, so auto picks
        # full-catalog; every test session leaves 9, so negsample can run
        short = [Session(f"s{i}", PURCHASE, i, (1 + i, 2 + i, 3 + i)) for i in range(6)]
        long = Session("long", PURCHASE, 1, tuple(range(1, 9)))
        ds = PreparedDataset(train=short[:2], val=[long], test=short[2:],
                             catalog_size=12, max_len=8)
        prep = tmp_path / "prep.json"
        prep.write_text(ds.to_json(), encoding="utf-8")
        ckpt = tmp_path / "m.s4ck"
        tiny_checkpoint(ckpt, 12)
        base = tiny_config.read_text(encoding="utf-8") + "train.eval_negatives=5\n"
        for label, extra, mode in (("auto", "", "full-catalog"),
                                   ("neg", "train.eval_mode=negsample\n", "negsample")):
            cfg = tmp_path / f"{label}.cfg"
            cfg.write_text(base + extra, encoding="utf-8")
            assert run("eval", "--config", cfg, "--checkpoint", ckpt, "--data", prep,
                       "--label", label, "--report-dir", tmp_path / "rep") == 0
            report = (tmp_path / "rep" / f"eval-{label}.txt").read_text()
            assert f"mode: {mode}" in report

    @pytest.mark.parametrize("argv", [("--help",), ("train", "--help")])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 0
        assert "usage: stylerec" in capsys.readouterr().out

    def test_every_flag_is_a_config_key_or_command_local(self):
        keys = {f.name for f in fields(cli.RunConfig)} - {"model", "train"}
        keys |= {f"model.{f.name}" for f in fields(ModelConfig)}
        keys |= {f"train.{f.name}" for f in fields(TrainConfig)} - {"train.seed"}
        assert not keys & self.COMMAND_LOCAL
        parser = cli._build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for command, p in sub.choices.items():
            for action in p._actions:
                if action.dest in self.COMMAND_LOCAL:
                    continue
                assert action.dest in keys, (
                    f"{command} {action.option_strings}: dest {action.dest!r} is neither "
                    f"a config key nor a listed command-local argument")
                assert action.type is None, (
                    f"{command} {action.option_strings}: a setting flag passes its raw "
                    f"string to the config parser")


def rewrite_header(path, old: bytes, new: bytes) -> None:
    """Replace bytes inside a checkpoint's config block, fixing its length."""
    buf = path.read_bytes()
    (n,) = struct.unpack_from("<I", buf, 8)
    block = buf[12:12 + n]
    assert old in block
    block = block.replace(old, new, 1)
    path.write_bytes(buf[:8] + struct.pack("<I", len(block)) + block + buf[12 + n:])


class TestCheckpointHeader:
    @pytest.mark.parametrize("old, new", [
        (b"use_style=false", b"use_style=fxlse"),
        (b"d_product=8\n", b"d_product=x\n"),
        (b"catalog_size=8", b"catalog_size=1x"),
        (b"use_style", b"use_st\xffle"),
        (b"n_blocks=1\n", b""),
        (b"d_product=8\n", b"d_product=0\n"),
        (b"catalog_size=8", b"catalog_size=8\ncatalog_size=9"),
        (b"d_product=8\n", b"d_product=8\nd_product=8\n"),
        (b"max_len=8", b"max_len=%d" % 10**15),  # beyond data.MAX_LEN_CAP
        (b"n_blocks=1\n", b"n_blocks=1\nnope=1\n"),
        # the header is machine-written: a blank, padded or split line is no header of it
        (b"n_blocks=1\n", b"n_blocks=1\n\n"),
        (b"d_product=8\n", b" d_product=8\n"),
        (b"d_product=8\n", b"d_product=8\r\n"),
        # declares more tensor data than the file holds, refused before any block is sized
        (b"n_blocks=1\n", b"n_blocks=1000000000\n"),
    ])
    def test_corrupt_header_is_format_error(self, tmp_path, capsys, monkeypatch, old, new):
        bound_param_shapes(monkeypatch)
        ckpt = tmp_path / "m.s4ck"
        tiny_checkpoint(ckpt, 8)
        rewrite_header(ckpt, old, new)
        with pytest.raises(FormatError):
            load_checkpoint(ckpt)
        assert run("eval", "--checkpoint", ckpt) == 1
        err = capsys.readouterr().err
        assert err.startswith("error format-error:") and err.count("\n") == 1, err


def s4ck_records(blob: bytes):
    """``(start, end, name, rank)`` of each tensor record of an S4CK file,
    parsed here from the layout rather than by the loader under test."""
    (n,) = struct.unpack_from("<I", blob, 8)
    off, out = 12 + n, []
    while off < len(blob):
        start = off
        (name_len,) = struct.unpack_from("<H", blob, off)
        name = blob[off + 2:off + 2 + name_len].decode()
        off += 2 + name_len
        rank = blob[off]
        dims = struct.unpack_from(f"<{rank}I", blob, off + 1)
        off += 1 + 4 * rank + 4 * int(np.prod(dims))
        out.append((start, off, name, rank))
    return out


class TestCheckpointMutations:
    """Structural corruption of a checkpoint never loads.

    A seeded set of mutations of one S4CK file: truncation at every record
    boundary; a dropped, duplicated or reordered tensor record; a flipped
    rank byte, each flipped dim byte, and swapped dims. Each makes
    ``stylerec eval`` exit 1 with exactly one ``error format-error:`` line
    and no traceback, except the pure reorder, which loads the same
    tensors and evaluates to the same report. A flipped byte inside a
    tensor's data changes no structure and stays undetected until the
    format carries a checksum (CRC32), so it is not among the cases.
    """

    def mutants(self, blob: bytes, rng):
        recs = s4ck_records(blob)
        head = recs[0][0]
        body = [blob[a:b] for a, b, _, _ in recs]
        for cut in [0, 4, 8, 12, head] + [end for _, end, _, _ in recs[:-1]]:
            yield f"truncate@{cut}", blob[:cut]
        picked = sorted(rng.choice(len(recs), size=4, replace=False))
        picked += [i for i, r in enumerate(recs) if r[2] == "w_out" and i not in picked]
        for i in picked:
            start, _, name, rank = recs[i]
            yield f"drop {name}", blob[:head] + b"".join(body[:i] + body[i + 1:])
            yield f"duplicate {name}", blob[:head] + b"".join(body[:i + 1] + body[i:])
            rank_at = start + 2 + len(name.encode())
            for at in range(rank_at, rank_at + 1 + 4 * rank):
                flipped = bytearray(blob)
                flipped[at] ^= int(rng.integers(1, 256))
                yield f"flip byte {at} of {name} (rank and dims)", bytes(flipped)
            if rank == 2:
                dims = blob[rank_at + 1:rank_at + 9]
                yield (f"swap dims of {name}",
                       blob[:rank_at + 1] + dims[4:] + dims[:4] + blob[rank_at + 9:])

    def test_structural_mutations_fail_closed(self, tmp_path, capsys):
        prep = make_prepared(tmp_path)
        ckpt = tmp_path / "m.s4ck"
        tiny_checkpoint(ckpt, 8)
        blob = ckpt.read_bytes()
        argv = ("eval", "--checkpoint", ckpt, "--data", prep, "--report-dir", tmp_path / "rep")
        assert run(*argv) == 0
        report = (tmp_path / "rep" / "eval-eval.txt").read_bytes()
        capsys.readouterr()
        rng = np.random.default_rng(2024)
        failures = []
        cases = list(self.mutants(blob, rng))
        assert len(cases) > 40
        for label, mutant in cases:
            ckpt.write_bytes(mutant)
            try:
                code = run(*argv)
            except Exception as e:  # a traceback out of the CLI
                failures.append(f"{label}: raised {type(e).__name__}: {e}")
                continue
            err = capsys.readouterr().err
            if code != 1 or not err.startswith("error format-error:") or err.count("\n") != 1:
                failures.append(f"{label}: exit {code}, stderr {err!r}")
        assert not failures, "\n".join(failures)

        recs = s4ck_records(blob)
        order = rng.permutation(len(recs))
        assert list(order) != list(range(len(recs)))
        head = recs[0][0]
        ckpt.write_bytes(blob[:head] + b"".join(blob[recs[i][0]:recs[i][1]] for i in order))
        back, original = load_checkpoint(ckpt), init_params(tiny_model_config(), 8, 0)
        assert sorted(back.tensors) == sorted(original.tensors)
        for name, t in original.items():
            np.testing.assert_array_equal(back[name].data, t.data)
        assert run(*argv) == 0
        assert (tmp_path / "rep" / "eval-eval.txt").read_bytes() == report


PIN_CONFIG = ("seed=7\nmodel.d_product=8\nmodel.d_model=4\nmodel.n_blocks=1\n"
              "model.n_heads=2\nmodel.d_ffn=8\nmodel.dropout=0.1\ntrain.epochs=2\n"
              "train.learning_rate=0.005\ntrain.batch_size=32\n")  # train.l2 stays at 1e-4
PIN_RUN = ("--config", "in/run.cfg", "--report-dir", "out/rep")
PIN_INVOCATIONS = (
    ("synth", "synth", "--products", "10", "--sessions", "150", "--seed", "3",
     "--out", "out/plain.jsonl", "--length-min", "3", "--length-max", "6",
     "--cart-ratio", "0.3"),
    ("synth-styled", "synth", "--products", "10", "--sessions", "150", "--seed", "2",
     "--out", "out/styled.jsonl", "--style-correlated", "--clusters", "2",
     "--length-min", "3", "--length-max", "6", "--cart-ratio", "0.3"),
    ("preprocess", "preprocess", "--sessions", "out/styled.jsonl", "--out", "out/prep.json",
     "--max-len", "6"),
    ("stylegen", "stylegen", "--pseudo", "--images", "in/img", "--products", "10",
     "--out", "out/pseudo.s4se", "--seed", "5"),
    ("train-P", "train", *PIN_RUN, "--data", "out/prep.json", "--configuration", "P",
     "--checkpoint-dir", "out/ck"),
    ("train-P+Cart+Style", "train", *PIN_RUN, "--data", "out/prep.json",
     "--configuration", "P+Cart+Style", "--style-cache", "out/pseudo.s4se",
     "--checkpoint-dir", "out/ck"),
    ("eval-negsample", "eval", *PIN_RUN, "--data", "out/prep.json",
     "--checkpoint", "out/ck/model-P.s4ck", "--mode", "negsample", "--negatives", "3",
     "--label", "neg"),
    ("eval-full-catalog", "eval", *PIN_RUN, "--data", "out/prep.json",
     "--checkpoint", "out/ck/model-P+Cart+Style.s4ck", "--style-cache", "out/pseudo.s4se",
     "--mode", "full-catalog", "--label", "full"),
    ("suite", "suite", *PIN_RUN, "--data", "out/prep.json",
     "--style-cache", "out/styled.jsonl.style.s4se", "--epochs", "1",
     "--checkpoint-dir", "out/ck-suite"),
    ("dynamic", "dynamic", *PIN_RUN, "--sessions", "out/plain.jsonl", "--max-lens", "2,4",
     "--epochs", "1"),
    ("sweep", "sweep", *PIN_RUN, "--data", "out/prep.json", "--budget", "2",
     "--hidden-dims", "4,8", "--l2-grid", "0.001", "--epochs", "1",
     "--checkpoint-dir", "out/ck-sweep"),
)


def cli_pin_digests() -> dict:
    """Run ``PIN_INVOCATIONS`` in the current directory; return the SHA-256 of
    each invocation's stdout and of every file they wrote under ``out/``."""
    Path("in/img").mkdir(parents=True)
    Path("in/run.cfg").write_text(PIN_CONFIG, encoding="utf-8")
    rng = np.random.default_rng(0)
    for pid in range(1, 9):  # products 9 and 10 have no image
        np.save(f"in/img/{pid}.npy", rng.random((8, 8, 3)))
    got = {}
    for name, *argv in PIN_INVOCATIONS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        assert code == 0, f"{name} exited {code}"
        got[f"stdout {name}"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    for path in sorted(Path("out").rglob("*")):
        if path.is_file():
            got[path.as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return got


class TestCliPin:
    """Every file and stdout of 11 invocations of the 8 subcommands on one
    tiny seeded config, pinned bit for bit. ``cli.main`` runs at one BLAS
    thread (``threads.one_blas_thread``), so the digests do not depend on the
    machine's CPU count.

    To re-record, print ``cli_pin_digests()`` run in an empty directory,
    from ``tests/`` with ``src/`` on the path, and replace only the entries
    that the change is meant to move. Losses
    reported with the default ``train.l2`` move with the penalty's float
    summation; checkpoints move only with the training itself.
    """

    RECORDED = {
        "stdout synth":
            "eb183fc472be25ca27c3b88f309d847f73754ae00e0a53b14572c9c06fe201a2",
        "stdout synth-styled":
            "c54f4918ab674dad212450bf035d7e349fd60b5c8ade22cde38b84ef4b7d41db",
        "stdout preprocess":
            "203665746d6684a6a3660557caeef271f45ebd0cade306657d7233bafc071967",
        "stdout stylegen":
            "80a8f5cd2c839df39b2738f6746d224ddbf90425fca773841da74c2246c29940",
        "stdout train-P":
            "68a2593818eb0ba8227abc8da57d7c620337ef88640b46fb87d404cc4221c190",
        "stdout train-P+Cart+Style":
            "3010e331eea3e497cab1b0097ad4c74e83579e79ab89484aa5a4176e10f74562",
        "stdout eval-negsample":
            "7b14b10f24eb87223e9f161a1ba2fd21e986b064f81db25d5a81909da06204c8",
        "stdout eval-full-catalog":
            "a4b33fe246dc4b04a7e8c45b9ea4dcdb121c7a4d699d1e6211d67ac543580b6c",
        "stdout suite":
            "0499234050d7d953f21daecf6ab2c757c81726ac207b447d5f2e76e6458eecc7",
        "stdout dynamic":
            "b363c15b970c4c6d7f2c722dbb35f5dbc88948e06624e1f9dc6322d27d30a130",
        "stdout sweep":
            "86ae0c617fcda224ad74a1d781f14310902dbaee0ea07cbd386b37da55d661c1",
        "out/ck/model-P+Cart+Style.s4ck":
            "28f7190770497c6dc6bab29d155fe2ae33a33654435732e35de7d63843f43dc9",
        "out/ck/model-P.s4ck":
            "57eef4fb382442624431841d0370c0135afac455600f19602dcebfa87148d61c",
        "out/ck-suite/model-P+Cart+Style.s4ck":
            "27abd056a9be54123164b102a3c79ffcd7d3106118d3083496cea4fa0cb0ddad",
        "out/ck-suite/model-P+Cart.s4ck":
            "b0e0f094c487dca2d195365abed36e2e3a33b3d0ba4b82ff116f61080354f358",
        "out/ck-suite/model-P+Style.s4ck":
            "b38a8cd42cbf11b26c579fad937b0e2d0de828aac202793d75f26c0d74c15666",
        "out/ck-suite/model-P.s4ck":
            "d3b3e774f7737927fba70a30da3ce06601ffea5534239fe3a2c45aa2190da128",
        "out/ck-sweep/model-sweep-best.s4ck":
            "31bbd7f03733e6d5713b6b01f553330f80d8648fb2045049525c3e1412fd8b1f",
        "out/plain.jsonl":
            "96b17ecd78e0cc25813eb60edc1e89288de1b8ff97f47d6a9b50b1a9071f1f88",
        "out/plain.jsonl.oracle.npz":
            "ed869f49de61af4e9434ebafe6cca1cd9fe4a88c3ff6a52bf974959050316209",
        "out/prep.json":
            "b67cf383ace267c906c0b6f23712ed0ba2bb8d761b348ddaffa758eeec88e001",
        "out/prep.json.stats.txt":
            "c0a7155141bd127209f68828d15569db1692a6c7820c32abae9e9f1aa96534ca",
        "out/pseudo.s4se":
            "030c2aef31deb91b3c3c0af54fe4a18fb85deb2cee8d5e8ad19d9822c96403d1",
        "out/rep/dynamic.txt":
            "737439970c256113f9b8e83e75f63ac61c39354d68cd8f278b9d319f02ff37d7",
        "out/rep/eval-full.txt":
            "d6b4ffa3376727df63d314843a769b46cda86a4642b4611d55eeff6b10c0e6f9",
        "out/rep/eval-neg.txt":
            "691f223694405cd1e760ef7d126d59374eca6d04cb0ac49daf184514de7944a3",
        "out/rep/suite.txt":
            "d01de5654b8a76e6f60a68d58e8fc8bcd1e4ad13e557f5977b27335f1f393455",
        "out/rep/sweep.txt":
            "3fafbf401887e350d049c96ddfcf89bad49e4231ccc527bac1affe3fdf819ee1",
        "out/rep/train-P+Cart+Style.txt":
            "56a792b0666cedcdcfc7460e33e678f09d81bd2a4a2046e91dfca18e0491bae5",
        "out/rep/train-P.txt":
            "1ac24ca3064a949d068a539c82fdf9dd1210826c43e845bb67560a67f2e0c0f7",
        "out/styled.jsonl":
            "ec8102484ed54ab8ca29c2c337d01e5c3dcafe4213c2625dc3b725aafca8bad8",
        "out/styled.jsonl.oracle.npz":
            "a2e6b638972111598d4d82b73ab1f095da496e793a945c394c3a6ce33e163fa2",
        "out/styled.jsonl.style.s4se":
            "c14aae2f88aad75384b1b713a563332ec8a32aae8e997e66eeceb41e7bef93cb",
    }

    def test_outputs_are_pinned(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli_pin_digests() == self.RECORDED

    def test_style_checkpoint_does_not_depend_on_the_blas_thread_count(self, tmp_path,
                                                                      monkeypatch):
        """``train`` of a style configuration on the pinned inputs writes the same bytes
        in child processes started with one and with two BLAS threads."""
        monkeypatch.chdir(tmp_path)
        Path("in").mkdir()
        Path("in/run.cfg").write_text(PIN_CONFIG, encoding="utf-8")
        invocations = {name: argv for name, *argv in PIN_INVOCATIONS}
        for name in ("synth-styled", "preprocess"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(invocations[name]) == 0
        digests = set()
        for count in ("1", "2"):
            env = child_env(OPENBLAS_NUM_THREADS=count)
            proc = subprocess.run(
                [sys.executable, "-m", "stylerec.cli", "train", *PIN_RUN, "--data",
                 "out/prep.json", "--configuration", "P+Cart+Style", "--style-cache",
                 "out/styled.jsonl.style.s4se", "--checkpoint-dir", f"ck{count}"],
                capture_output=True, text=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            digests.add(hashlib.sha256(Path(f"ck{count}/model-P+Cart+Style.s4ck")
                                       .read_bytes()).hexdigest())
        assert len(digests) == 1


# the kinds and exit codes README documents; errors.py owns them
ERROR_SURFACE = (
    (errors.InputError, "input-error", 1),
    (errors.FormatError, "format-error", 1),
    (errors.ConfigError, "config-error", 2),
    (errors.ContractError, "contract-error", 2),
    (errors.ShapeError, "shape-error", 2),
    (errors.MaskError, "mask-error", 2),
    (errors.NumericError, "numeric-error", 3),
    (errors.StyleRecError, "internal", 2),
)


class TestErrorSurface:
    def test_numeric_error_exit_code(self, tmp_path, monkeypatch, capsys):
        def boom(rc, args):
            raise errors.NumericError("diverged")

        monkeypatch.setattr(cli, "cmd_synth", boom)
        assert run("synth", "--products", 4, "--sessions", 5,
                   "--out", tmp_path / "x") == 3
        err = capsys.readouterr().err
        assert err == "error numeric-error: diverged\n"

    @pytest.mark.parametrize("cls, kind, code", ERROR_SURFACE,
                             ids=[cls.__name__ for cls, _, _ in ERROR_SURFACE])
    def test_error_class_sets_kind_and_exit_code(self, tmp_path, monkeypatch, capsys,
                                                 cls, kind, code):
        def boom(rc, args):
            raise cls("boom")

        monkeypatch.setattr(cli, "cmd_synth", boom)
        assert run("synth", "--products", 4, "--sessions", 5,
                   "--out", tmp_path / "x") == code
        assert capsys.readouterr().err == f"error {kind}: boom\n"

    def test_memory_error_is_one_input_error_line(self, tmp_path, tiny_config, capsys,
                                                  monkeypatch):
        """An allocation the host cannot hold is one input-error line, not a traceback."""
        prep = make_prepared(tmp_path)

        def init_params(*args, **kwargs):
            raise MemoryError("Unable to allocate 87.3 TiB for an array with shape "
                              "(12, 1000000000000) and data type float64")
        monkeypatch.setattr(training, "init_params", init_params)
        capsys.readouterr()
        assert run("train", "--config", tiny_config, "--data", prep, "--out", tmp_path / "t.s4ck",
                   "--report-dir", tmp_path / "rep") == 1
        assert capsys.readouterr().err == ("error input-error: Unable to allocate 87.3 TiB for an "
                                           "array with shape (12, 1000000000000) and data type "
                                           "float64\n")

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_max_len_beyond_the_cap_is_refused_before_the_claim(self, tmp_path, tiny_config,
                                                                 capsys, command):
        """A prepared dataset whose max_len no host can allocate is one input-error line
        from its constructor, before the claim: no checkpoint or report directory is made."""
        prep = make_prepared(tmp_path)
        prep.write_text(json.dumps({**json.loads(prep.read_text()), "max_len": 10**15}))
        ckpt = tmp_path / "m.s4ck"
        tiny_checkpoint(ckpt, 8)
        argv = {"train": ("train", "--config", tiny_config, "--checkpoint-dir", tmp_path / "cb"),
                "eval": ("eval", "--checkpoint", ckpt)}[command]
        capsys.readouterr()
        assert run(*argv, "--data", prep, "--report-dir", tmp_path / "rb") == 1
        err = capsys.readouterr().err
        assert err.startswith("error input-error: prepared dataset needs catalog_size >= 1 "
                              "and max_len 2..512, got ") and err.count("\n") == 1, err
        assert not (tmp_path / "cb").exists() and not (tmp_path / "rb").exists()

    def test_every_error_class_is_documented(self):
        documented = {cls for cls, _, _ in ERROR_SURFACE}
        assert set(errors.StyleRecError.__subclasses__()) | {errors.StyleRecError} == documented

    def test_console_entry_point(self, tmp_path):
        out = tmp_path / "s.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "stylerec.cli", "synth", "--products", "4",
             "--sessions", "5", "--seed", "1", "--out", str(out)],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert out.is_file()
