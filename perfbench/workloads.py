"""The benchmark workloads.

Each workload builds its inputs from a seed (``setup``), runs a closed loop
of operations for a time budget (``segment``), checks every operation's
output as it goes, and can re-run itself on a small pinned input whose
outputs were recorded on the seed commit (``probe``, compared against
``references.json``). Timed code calls the program only through module
attributes (``training.train``, ``cli.main``, ...) so that the tracer's
wrappers see those calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from stylerec import StyleRecError, cli, data, model, style, training
from stylerec import tensor as T
from stylerec.metrics import FULL_CATALOG, NEGSAMPLE
from stylerec.model import ModelConfig
from stylerec.seeding import derive_seed, rng_for
from stylerec.training import TrainConfig

from spans import LivenessError, patched

# Traced tensor ops and model internals whose call counts depend on the
# implementation: the guard only requires them to be called at all.
FORWARD_OPS = ("tensor.matmul", "tensor.softmax", "tensor.layer_norm", "tensor.dropout",
               "tensor.add", "tensor.concat_last_dim", "tensor.embedding_lookup",
               "model.build_input", "model.multi_head_attention",
               "model.transformer_block", "model.history_vector")

TRACED = FORWARD_OPS + (
    "tensor.backward",
    "model.init_params", "model.encode", "model.score",
    "model.save_checkpoint", "model.load_checkpoint",
    "training.training_loss", "training.Adam.step", "training.l2_penalty",
    "training.evaluate", "training.sample_negatives",
    "metrics.rank_of_truth",
    "data.parse_sessions", "data.prepare_dataset",
    "data.PreparedDataset.to_json", "data.PreparedDataset.from_json",
    "style.pseudo_feature_provider", "style.extract_style_embedding", "style.gram",
    "style.standardize_embeddings", "style.save_style_cache",
    "cli.main",
)


def _pool_size(args, kwargs) -> float:
    items, catalog_size = args[0], args[1]
    return float(catalog_size - len(set(int(i) for i in items)))


def _checkpoint_bytes(args, kwargs) -> float:
    return float(Path(args[1]).stat().st_size)


# Counts recorded at layer boundaries: pool ids built per negsample draw,
# candidates scored, checkpoint bytes written.
COUNTERS = {
    "training.sample_negatives": _pool_size,
    "model.score": lambda args, kwargs: float(len(args[1])),
    "model.save_checkpoint": _checkpoint_bytes,
}


class Checks:
    """Attempted and failed operations; a failed check fails its operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


def low(values: List[float]) -> float:
    """The 10th percentile of a run's samples.

    A shared host's speed drifts by up to about 35% in periods of seconds
    to tens of seconds. A run's median lands on whichever speed held for
    most of it; the 10th percentile of many short samples is the cost of
    the operation while the host was fast, and spreads less from run to run.
    """
    return float(np.percentile(values, 10))


@dataclass
class Segment:
    """One timed loop: its two headline times plus the counts the tracer must see."""

    primary_ms: float
    secondary_ms: float
    wall_s: float
    expected_calls: Dict[str, Optional[int]]
    extra: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, List[float]] = field(default_factory=dict)  # for the results file


def _digest(payload) -> str:
    if not isinstance(payload, bytes):
        payload = repr(payload).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def _session_key(sessions) -> str:
    return _digest([(s.session_id, s.kind, s.t, s.items) for s in sessions])


def _keep_going(done: int, min_units: int, started: float, last: float, budget: float) -> bool:
    """Run at least ``min_units``, then stop before the next unit would overrun."""
    return done < min_units or (time.perf_counter() - started) + last <= budget


def _p90(values: List[float]) -> float:
    return float(np.percentile(values, 90))


class _EpochBudgetSpent(Exception):
    pass


class TrainWorkload:
    """``training.train`` on a synthetic Markov catalog, stopped on a time budget.

    A step is the interval between two entries into ``training.training_loss``
    within one epoch; epoch boundaries come from the ``log`` callback.
    """

    def __init__(self, name: str, seed: int, *, catalog: int, sessions: int,
                 length_range, cart_ratio: float, model_cfg: ModelConfig,
                 train_cfg: TrainConfig, min_epochs: int):
        self.name = name
        self.seed = seed
        self.gen = dict(catalog_size=catalog, n_sessions=sessions,
                        length_range=length_range, cart_ratio=cart_ratio)
        self.model_cfg = model_cfg
        self.cfg = replace(train_cfg, seed=seed)
        self.min_units = min_epochs

    def setup(self) -> str:
        sessions, _ = data.generate_synthetic(seed=self.seed, **self.gen)
        self.ds = data.prepare_dataset(sessions, max_len=self.model_cfg.max_len)
        return _session_key(self.ds.all_sessions())

    def prepare_checks(self) -> None:
        keep = lambda s: s.kind == data.PURCHASE or self.cfg.use_cart  # noqa: E731
        self.n_train = sum(map(keep, self.ds.train))
        self.n_val = sum(map(keep, self.ds.val))

    def finish_checks(self, checks: Checks) -> None:
        """Every training step and epoch was checked as it ran."""

    def _run(self, epochs: int, budget: float, checks: Checks):
        entries = []  # (epoch index, entry time) per training_loss call
        ends = []  # one time per finished epoch
        original = training.training_loss

        def clock(*args, **kwargs):
            entries.append((len(ends), time.perf_counter()))
            loss = original(*args, **kwargs)
            value = loss.item()
            checks.op(math.isfinite(value), f"{self.name}: non-finite loss {value}")
            return loss

        def log(line: str):
            ends.append(time.perf_counter())
            ndcg = float(line.rsplit(" ", 1)[1])
            checks.op(0.0 <= ndcg <= 1.0, f"{self.name}: val NDCG@5 {ndcg} out of range")
            last = ends[-1] - (ends[-2] if len(ends) > 1 else started)
            if not _keep_going(len(ends), self.min_units, started, last, budget):
                raise _EpochBudgetSpent

        result = raised = None
        with patched(training, "training_loss", clock):
            started = time.perf_counter()
            try:
                result = training.train(self.ds, self.model_cfg,
                                        replace(self.cfg, epochs=epochs), log=log)
            except _EpochBudgetSpent:
                pass
            except StyleRecError as exc:
                raised = checks.op(False, f"{self.name}: training raised {exc!r}")
            wall = time.perf_counter() - started
        per_epoch = math.ceil(self.n_train / self.cfg.batch_size)
        if raised is None and len(entries) != per_epoch * len(ends):
            raise LivenessError(f"{self.name}: step clock on training.training_loss saw "
                                f"{len(entries)} calls, expected {per_epoch} x {len(ends)}")
        return entries, ends, wall, result

    def segment(self, budget: float, checks: Checks) -> Segment:
        entries, ends, wall, _ = self._run(10_000, budget, checks)
        step_ms = [(b - a) * 1000.0 for (ea, a), (eb, b) in zip(entries, entries[1:]) if ea == eb]
        epoch_ms = [(b - a) * 1000.0 for a, b in zip(ends, ends[1:])]
        steps, epochs, val = len(entries), len(ends), self.n_val
        expected = {name: None for name in FORWARD_OPS}
        expected.update({
            "training.training_loss": steps, "training.Adam.step": steps,
            "tensor.backward": steps, "training.l2_penalty": steps,
            "training.evaluate": epochs, "training.sample_negatives": epochs * val,
            "model.score": epochs * val, "metrics.rank_of_truth": epochs * val,
            "model.encode": steps + epochs * math.ceil(val / 256),
            "model.init_params": 1,
        })
        extra = {
            "train.step_ms.p10": low(step_ms),
            "train.step_ms.p50": statistics.median(step_ms),
            "train.step_ms.p90": _p90(step_ms),
            "train.step_ms.samples": len(step_ms),
            "train.step_ms.mean": statistics.fmean(step_ms),
            "train.examples_per_s": self.cfg.batch_size * len(step_ms) / (sum(step_ms) / 1000.0),
            "train.epoch_s": statistics.median(epoch_ms) / 1000.0,
            "train.epochs": epochs,
        }
        return Segment(extra["train.step_ms.p10"], extra["train.step_ms.p90"], wall,
                       expected, extra, {"step_ms": step_ms})

    def probe(self) -> dict:
        self.setup()
        self.prepare_checks()
        checks = Checks()
        entries, ends, _, result = self._run(1, math.inf, checks)
        entry = result.history[0]
        return {"steps": len(entries), "loss": entry["loss"],
                "val_ndcg5": entry["val"]["NDCG@5"], "ops_ok": checks.failed == 0}


def zipf_sessions(seed: int, catalog: int, n: int) -> list:
    """Purchase sessions of 3-12 items with Zipf-like product popularity."""
    rng = rng_for(seed, "bench-eval-sessions")
    weights = 1.0 / np.arange(1, catalog + 1)
    weights /= weights.sum()
    ids = rng.permutation(catalog) + 1
    out = []
    for idx in range(n):
        length = int(rng.integers(3, 13))
        items = ids[rng.choice(catalog, size=length, p=weights)]
        out.append(data.Session(f"b{idx:05d}", data.PURCHASE, idx,
                                tuple(int(i) for i in items)))
    return out


class EvalWorkload:
    """``training.evaluate`` at catalog scale, negsample and full-catalog passes.

    The loop cycles through the sessions in ``evaluate`` calls of ``chunk``
    sessions, one call per mode on each chunk. One call takes 0.2-0.7 s,
    short enough for ``low`` to find calls that ran while the host was fast.
    """

    name = "eval-20k"
    model_cfg = ModelConfig(d_product=64, d_model=32, n_blocks=1, n_heads=2,
                            dropout=0.0, max_len=20)
    negatives = 100
    rank_eps = 1e-6  # scores closer than this to the truth's may rank either way
    min_units = 1  # passes over all sessions
    chunk = 125  # sessions per evaluate call

    def __init__(self, seed: int, *, catalog: int = 20000, sessions: int = 1000):
        self.seed = seed
        self.catalog = catalog
        self.n_sessions = sessions

    def setup(self) -> str:
        self.sessions = zipf_sessions(self.seed, self.catalog, self.n_sessions)
        self.params = model.init_params(self.model_cfg, self.catalog, self.seed)
        return _session_key(self.sessions) + _digest(self.params.product_emb.data.tobytes())

    def _history(self) -> np.ndarray:
        """History vectors, encoded in the timed loop's batches."""
        max_len = self.model_cfg.max_len
        pos = model.positional_encoding(max_len, self.model_cfg.d_model)
        out = []
        for b0 in range(0, len(self.sessions), self.chunk):
            batch = self.sessions[b0:b0 + self.chunk]
            ids = np.zeros((len(batch), max_len), dtype=np.int64)
            for r, s in enumerate(batch):
                inp = s.items[:-1][-max_len:]
                ids[r, :len(inp)] = inp
            mask = ids != 0
            with T.no_grad():
                hidden = model.encode(ids, mask, self.params, pos)
                out.append(model.history_vector(hidden, mask, self.params).data)
        return np.concatenate(out).astype(np.float64)

    def prepare_checks(self) -> None:
        self.first_ranks = {}  # (mode, first session) -> ranks of the first call

    def finish_checks(self, checks: Checks) -> None:
        """Check the first call's ranks against an independent reference.

        Every later call repeated them exactly (``_check``). Scores are
        cosines of unit vectors, and negatives are redrawn with the
        protocol's own seed derivation. A rank passes if it lies between
        the count of candidates that beat the truth by more than
        ``rank_eps`` and the count that come within ``rank_eps`` of it.
        This runs after the loop, and after ``peak_rss_mb`` is read, so
        that the reference's memory is not counted as the program's.
        """
        unit = self.params.product_emb.data.astype(np.float64)
        norms = np.linalg.norm(unit, axis=1)
        unit /= np.where(norms == 0.0, 1.0, norms)[:, None]
        hist = self._history()
        hist /= np.linalg.norm(hist, axis=1, keepdims=True)
        bounds = {NEGSAMPLE: [], FULL_CATALOG: []}
        for c0 in range(0, len(self.sessions), 100):
            scores = unit @ hist[c0:c0 + 100].T
            for j, s in enumerate(self.sessions[c0:c0 + 100]):
                col = scores[:, j]
                truth = s.items[-1]
                keep = np.ones(self.catalog + 1, dtype=bool)
                keep[0] = False
                keep[list(set(s.items))] = False
                pool = np.flatnonzero(keep)
                rng = np.random.default_rng(derive_seed(self.seed, "eval-neg", s.session_id))
                negs = rng.choice(pool, size=self.negatives, replace=False)
                st = col[truth]
                for mode, others in ((NEGSAMPLE, col[negs]), (FULL_CATALOG, col[keep])):
                    bounds[mode].append((1 + int((others > st + self.rank_eps).sum()),
                                         1 + int((others > st - self.rank_eps).sum())))
        for (mode, c0), ranks in sorted(self.first_ranks.items()):
            lo, hi = np.array(bounds[mode][c0:c0 + len(ranks)]).T
            for i, good in enumerate((lo <= ranks) & (ranks <= hi)):
                checks.op(bool(good), f"eval-20k {mode}: session {c0 + i} rank {ranks[i]} "
                                      f"outside [{lo[i]}, {hi[i]}]")

    def _check(self, mode: str, c0: int, ranks: List[int], checks: Checks) -> None:
        """Check that the ranks of the sessions from index ``c0`` on repeat."""
        ranks = np.asarray(ranks)
        first = self.first_ranks.setdefault((mode, c0), ranks)
        for i, good in enumerate(ranks == first):
            checks.op(bool(good), f"eval-20k {mode}: session {c0 + i} rank {ranks[i]} "
                                  f"differs from the first call's {first[i]}")

    def _evaluate(self, mode: str, sessions=None):
        return training.evaluate(self.params, self.sessions if sessions is None else sessions,
                                 mode=mode, n_negatives=self.negatives, seed=self.seed)

    def segment(self, budget: float, checks: Checks) -> Segment:
        modes = (FULL_CATALOG, NEGSAMPLE)
        starts = range(0, self.n_sessions, self.chunk)
        per_session = {mode: [] for mode in modes}  # ms per session, one per call
        started = time.perf_counter()
        done = sessions = 0
        last = 0.0
        while _keep_going(done, self.min_units * len(starts), started, last, budget):
            t_unit = time.perf_counter()
            c0 = starts[done % len(starts)]
            part = self.sessions[c0:c0 + self.chunk]
            for mode in modes:
                t0 = time.perf_counter()
                report = self._evaluate(mode, part)
                per_session[mode].append((time.perf_counter() - t0) * 1000.0 / len(part))
                self._check(mode, c0, report.ranks, checks)
            last = time.perf_counter() - t_unit
            done += 1
            sessions += len(part)
        wall = time.perf_counter() - started
        expected = {name: None for name in FORWARD_OPS}
        expected.update({
            "training.evaluate": 2 * done, "training.sample_negatives": sessions,
            "model.score": 2 * sessions, "metrics.rank_of_truth": 2 * sessions,
            "model.encode": 2 * done * math.ceil(self.chunk / 256),
        })
        full_ms, neg_ms = low(per_session[FULL_CATALOG]), low(per_session[NEGSAMPLE])
        extra = {"eval.full.sessions_per_s": 1000.0 / full_ms,
                 "eval.negsample.sessions_per_s": 1000.0 / neg_ms,
                 "eval.sessions_per_mode": sessions}
        return Segment(full_ms, neg_ms, wall, expected, extra,
                       {"full_ms_per_session": per_session[FULL_CATALOG],
                        "negsample_ms_per_session": per_session[NEGSAMPLE]})

    def probe(self) -> dict:
        self.setup()
        out = {"sessions": self.n_sessions}
        for key, mode in (("negsample", NEGSAMPLE), ("full", FULL_CATALOG)):
            out[f"{key}_ranks_sha256"] = _digest(self._evaluate(mode).ranks)
        return out


class IngestWorkload:
    """The write path: CLI preprocess, stylegen and eval, then checkpoint round trips."""

    name = "ingest"
    # the checkpoint the eval command scores: train-long's encoder shape
    eval_model = ModelConfig(d_product=64, d_model=32, n_blocks=2, n_heads=4, max_len=20)
    roundtrip_model = ModelConfig(max_len=4)  # train-a07's shape, 6.5 MB on disk
    roundtrips = 10  # per round, so the round-trip median has enough samples
    min_units = 3  # rounds

    def __init__(self, seed: int, workdir: Path, *, catalog: int = 300,
                 sessions: int = 20000):
        self.seed = seed
        self.catalog = catalog
        self.n_sessions = sessions
        self.dir = workdir
        self.paths = {key: str(workdir / name) for key, name in (
            ("sessions", "sessions.jsonl"), ("images", "images"), ("model", "model.s4ck"),
            ("data", "prepared.json"), ("style", "style.s4se"), ("reports", "reports"),
            ("roundtrip", "roundtrip.s4ck"))}

    def setup(self) -> str:
        shutil.rmtree(self.dir, ignore_errors=True)
        Path(self.paths["images"]).mkdir(parents=True)
        self.sessions, _ = data.generate_synthetic(
            self.catalog, self.n_sessions, length_range=(3, 12), seed=self.seed,
            cart_ratio=0.3)
        data.write_sessions(self.sessions, self.paths["sessions"])
        rng = rng_for(self.seed, "bench-images")
        for pid in range(1, self.catalog + 1):
            image = rng.integers(0, 256, size=(32, 32, 3), dtype=np.uint8)
            np.save(Path(self.paths["images"]) / f"{pid}.npy", image)
        model.save_checkpoint(model.init_params(self.eval_model, self.catalog, self.seed),
                              self.paths["model"])
        self.rt_params = model.init_params(self.roundtrip_model, 150, self.seed)
        return _session_key(self.sessions)

    def prepare_checks(self) -> None:
        self.parsed_ok = _session_key(data.parse_sessions(self.paths["sessions"])) \
            == _session_key(self.sessions)
        expected = data.prepare_dataset(self.sessions, max_len=20)
        self.prepared_bytes = expected.to_json().encode("utf-8")
        self.n_test = len(expected.test)
        self.first_outputs = None

    def finish_checks(self, checks: Checks) -> None:
        """Every round was checked as it ran."""

    def _cli(self, *argv: str) -> int:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main([*argv, "--seed", str(self.seed)])

    def _commands(self):
        p = self.paths
        return (
            ("preprocess", ("preprocess", "--sessions", p["sessions"], "--out", p["data"],
                            "--max-len", "20")),
            ("stylegen", ("stylegen", "--pseudo", "--images", p["images"],
                          "--products", str(self.catalog), "--out", p["style"])),
            ("eval", ("eval", "--checkpoint", p["model"], "--data", p["data"],
                      "--report-dir", p["reports"], "--label", "bench")),
        )

    def _outputs(self) -> Dict[str, bytes]:
        p = self.paths
        return {"prepared": Path(p["data"]).read_bytes(),
                "stats": Path(p["data"] + ".stats.txt").read_bytes(),
                "style_cache": Path(p["style"]).read_bytes(),
                "eval_report": (Path(p["reports"]) / "eval-bench.txt").read_bytes()}

    def _check_round(self, codes: Dict[str, int], checks: Checks) -> None:
        for command, code in codes.items():
            checks.op(code == 0, f"ingest: {command} exited {code}")
        if any(codes.values()):
            return
        out = self._outputs()
        checks.op(out["prepared"] == self.prepared_bytes,
                  "ingest: preprocess output differs from prepare_dataset on the written sessions")
        if self.first_outputs is None:
            self.first_outputs = out
            cache = style.load_style_cache(self.paths["style"])
            checks.op(sorted(cache) == list(range(1, self.catalog + 1))
                      and all(np.isfinite(v).all() for v in cache.values()),
                      "ingest: style cache lacks products or holds non-finite values")
            resaved = self.paths["style"] + ".resaved"
            style.save_style_cache(cache, resaved)
            checks.op(Path(resaved).read_bytes() == out["style_cache"],
                      "ingest: style cache does not reload bit-exactly")
            checks.op(b"mode: negsample" in out["eval_report"]
                      and f"sessions: {self.n_test}".encode() in out["eval_report"],
                      "ingest: eval report names the wrong mode or session count")
        for key, value in out.items():
            checks.op(value == self.first_outputs[key], f"ingest: {key} changed between rounds")

    def _roundtrip(self, checks: Checks) -> float:
        t0 = time.perf_counter()
        model.save_checkpoint(self.rt_params, self.paths["roundtrip"])
        loaded = model.load_checkpoint(self.paths["roundtrip"])
        ms = (time.perf_counter() - t0) * 1000.0
        same = (loaded.config == self.rt_params.config
                and loaded.catalog_size == self.rt_params.catalog_size
                and sorted(loaded.tensors) == sorted(self.rt_params.tensors)
                and all(np.array_equal(t.data, self.rt_params[name].data)
                        for name, t in loaded.items()))
        checks.op(same, "ingest: checkpoint did not reload bit-exactly")
        return ms

    def segment(self, budget: float, checks: Checks) -> Segment:
        if not self.parsed_ok:
            checks.op(False, "ingest: parse_sessions does not return the written sessions")
        rounds_ms, roundtrip_ms = [], []
        phases = {name: [] for name, _ in self._commands()}
        started = time.perf_counter()
        rounds = 0
        last = 0.0
        while _keep_going(rounds, self.min_units, started, last, budget):
            t_round = time.perf_counter()
            codes = {}
            for name, argv in self._commands():
                t0 = time.perf_counter()
                codes[name] = self._cli(*argv)
                phases[name].append(time.perf_counter() - t0)
            rounds_ms.append((time.perf_counter() - t_round) * 1000.0)
            self._check_round(codes, checks)
            roundtrip_ms.extend(self._roundtrip(checks) for _ in range(self.roundtrips))
            last = time.perf_counter() - t_round
            rounds += 1
        wall = time.perf_counter() - started
        r, t, rt = rounds, self.n_test, rounds * self.roundtrips
        expected = {name: None for name in FORWARD_OPS}
        expected.update({
            "cli.main": 3 * r, "data.parse_sessions": r, "data.prepare_dataset": r,
            "data.PreparedDataset.to_json": r, "data.PreparedDataset.from_json": r,
            "style.pseudo_feature_provider": self.catalog * r,
            "style.extract_style_embedding": self.catalog * r,
            "style.gram": 2 * self.catalog * r,
            "style.standardize_embeddings": r, "style.save_style_cache": r,
            "model.save_checkpoint": rt, "model.load_checkpoint": r + rt,
            "training.evaluate": r, "training.sample_negatives": r * t,
            "model.score": r * t, "metrics.rank_of_truth": r * t,
            "model.encode": r * math.ceil(t / 256),
        })
        extra = {f"cli.{name}_s": low(v) for name, v in phases.items()}
        extra["ckpt.roundtrip_ms"] = low(roundtrip_ms)
        extra["ingest.round_ms.p50"] = statistics.median(rounds_ms)
        extra["ingest.rounds"] = rounds
        # a round is a few seconds long, so its own low percentile would rest on
        # one or two samples: sum the commands' low percentiles instead
        round_ms = 1000.0 * sum(extra[f"cli.{name}_s"] for name in phases)
        samples = {f"{name}_s": v for name, v in phases.items()}
        samples["roundtrip_ms"] = roundtrip_ms
        return Segment(round_ms, extra["ckpt.roundtrip_ms"], wall, expected, extra, samples)

    def probe(self) -> dict:
        self.setup()
        self.prepare_checks()
        checks = Checks()
        codes = {name: self._cli(*argv) for name, argv in self._commands()}
        self._check_round(codes, checks)
        self._roundtrip(checks)
        out = {f"{k}_sha256": _digest(v) for k, v in self._outputs().items()} \
            if not any(codes.values()) else {}
        out["ops_ok"] = checks.failed == 0 and self.parsed_ok
        return out


def make(name: str, seed: int, workdir: Path, probe: bool = False):
    """The named workload at its benchmark size, or at its small pinned probe size."""
    if name in ("train-a07", "train-long"):
        if name == "train-a07":
            shape = dict(catalog=150, sessions=1000 if probe else 2000, length_range=(2, 2),
                         cart_ratio=0.0, model_cfg=ModelConfig(max_len=4),
                         train_cfg=TrainConfig(learning_rate=3e-4, batch_size=16, l2=0.0),
                         min_epochs=2)
        else:
            shape = dict(catalog=1000, sessions=1000 if probe else 3000,
                         length_range=(3, 20), cart_ratio=0.3,
                         model_cfg=ModelConfig(d_product=64, d_model=32, n_blocks=2,
                                               n_heads=4, max_len=20),
                         train_cfg=TrainConfig(batch_size=64, configuration="P+Cart"),
                         min_epochs=3)
        return TrainWorkload(name, seed, **shape)
    if name == "eval-20k":
        return EvalWorkload(seed, sessions=200 if probe else 1000)
    if name == "ingest":
        if probe:
            return IngestWorkload(seed, workdir, catalog=120, sessions=1500)
        return IngestWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("train-a07", "train-long", "eval-20k", "ingest")
