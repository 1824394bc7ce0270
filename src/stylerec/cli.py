"""Command-line surface wiring the pipeline end to end.

Subcommands: preprocess, stylegen, synth, train, eval, suite, dynamic,
sweep. One key=value config file describes a run; command-line flags
override it. All randomness flows from a single global seed. Outputs are
deterministic: rerunning a command on identical inputs writes byte
identical artifacts.

Exit code 0 is success. An error prints one machine-parsable line to
stderr, ``error <kind>: <detail>``, and exits with the code its class in
``errors.py`` carries: 1 for input, 2 for configuration, 3 for numeric
failures. Argument errors (an unknown subcommand, a missing flag, a
malformed value) also print one ``error config-error:`` line and exit 2.

Every flag that sets a run setting has the config key as its argparse
dest (``--epochs`` is ``train.epochs``, ``--negatives`` is
``train.eval_negatives``); config-file lines and flags parse through the
same typed codec, ``kv.parse_field``.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .data import (
    DEFAULT_MAX_LEN,
    PreparedDataset,
    check_generator_args,
    check_max_len,
    dataset_statistics,
    format_statistics_table,
    generate_style_correlated,
    generate_synthetic,
    max_product_id,
    parse_sessions,
    prepare_dataset,
    read_text,
    write_sessions,
)
from . import threads
from .errors import ConfigError, FormatError, InputError, StyleRecError
from .metrics import FULL_CATALOG, NEGSAMPLE, format_report_table
from .kv import parse_field
from .model import ModelConfig, load_checkpoint, save_checkpoint
from .seeding import derive_seed
from .style import (
    STYLE_DIM,
    extract_style_embedding,
    load_feature_maps,
    pseudo_feature_provider,
    save_style_cache,
    load_style_cache,
    standardize_embeddings,
    style_table,
)
from .training import (
    CONFIGURATIONS,
    Run,
    TrainConfig,
    _check_fit,
    curve_lines,
    dynamic_runs,
    evaluate_test_split,
    pick_eval_mode,
    run_experiment,
    run_model_config,
    suite_runs,
    sweep_order_key,
    sweep_runs,
    train,
)


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """One run's file paths, seed, and model/train settings.

    A setting's key is a field name here, or ``model.<field>`` /
    ``train.<field>`` of ModelConfig / TrainConfig. Config-file lines and
    command-line flags both set it through ``set_key``.
    """

    sessions: Optional[str] = None  # raw session JSONL
    data: Optional[str] = None  # prepared dataset JSON
    style_cache: Optional[str] = None  # S4SE file
    checkpoint_dir: str = "checkpoints"
    report_dir: str = "reports"
    seed: int = 0
    max_lens: Tuple[int, ...] = (2, 4, 6, 8)  # dynamic experiment grid
    model: Dict[str, object] = field(default_factory=dict)
    train: Dict[str, object] = field(default_factory=dict)

    def set_key(self, key: str, raw: str) -> None:
        section, dot, name = key.partition(".")
        if key == "train.seed":
            raise ConfigError("set the global seed, not train.seed")
        if key == "model.use_style":
            raise ConfigError("set train.configuration, not model.use_style")
        if key == "model.max_len":
            raise ConfigError("the prepared dataset sets max_len (preprocess --max-len), "
                              "not model.max_len")
        if not dot:
            setattr(self, key, parse_field(RunConfig, key, raw, key, ConfigError))
        elif section in _SECTIONS:
            getattr(self, section)[name] = parse_field(_SECTIONS[section], name, raw, key,
                                                       ConfigError)
        else:
            raise ConfigError(f"unknown config key {key!r}")

    def train_config(self) -> TrainConfig:
        return TrainConfig(seed=self.seed, **self.train)


_SECTIONS = {"model": ModelConfig, "train": TrainConfig}
_RUN_KEYS = {f.name for f in fields(RunConfig)}


def _read_config_file(path: str) -> Dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise InputError(f"config file not found: {path}")
    out: Dict[str, str] = {}
    for lineno, line in enumerate(read_text(p).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise InputError(f"{path}:{lineno}: expected key=value, got {line!r}")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: repeated key {key!r}")
        out[key] = value
    return out


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the config file, then command-line flags.

    A flag is a setting when its argparse dest is a config key; its raw
    string goes through ``RunConfig.set_key`` like a config-file line.
    """
    rc = RunConfig()
    pairs = list(_read_config_file(args.config).items()) if args.config else []
    pairs += [(dest, raw) for dest, raw in vars(args).items()
              if raw is not None and ("." in dest or dest in _RUN_KEYS)]
    for key, raw in pairs:
        rc.set_key(key, raw)
    return rc


def _require_file(path: Optional[str], what: str) -> Path:
    if not path:
        raise ConfigError(f"no {what} configured; pass the flag or set it in the config file")
    p = Path(path)
    if not p.is_file():
        raise InputError(f"{what} not found: {path}")
    return p


def _claim(*paths) -> List[Path]:
    """Every file a command writes, claimed after its checks and before its first unit of
    work: a directory at a file's path, or a file where a parent directory must go, is an
    InputError before any directory is made, so a refused run makes nothing."""
    paths = [Path(p) for p in paths]
    for path in paths:
        if path.is_dir():
            raise InputError(f"{path}: Is a directory")
        existing = next(d for d in path.parents if d.exists())  # "." or "/" at the latest
        if not existing.is_dir():
            raise InputError(f"{existing}: File exists")
    for path in paths:
        path.parent.mkdir(parents=True, exist_ok=True)
    return paths


def _checkpoint(rc: RunConfig, name: str, out: Optional[str] = None) -> Path:
    return Path(out) if out else Path(rc.checkpoint_dir) / f"model-{name}.s4ck"


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")
    print(f"wrote {path}")


def _save(params, path: Path) -> None:
    save_checkpoint(params, path)
    print(f"wrote {path}")


def _inputs(rc: RunConfig, use_style: bool) -> Tuple[PreparedDataset, Optional[np.ndarray]]:
    ds = PreparedDataset.from_json(read_text(_require_file(rc.data, "prepared dataset")))
    return ds, (_load_style_table(rc, ds.catalog_size) if use_style else None)


def _load_style_table(rc: RunConfig, catalog_size: int) -> np.ndarray:
    vectors = load_style_cache(path := _require_file(rc.style_cache, "style cache"))
    if (top := max(vectors, default=0)) > catalog_size:  # a file the user named, no API misuse
        raise ConfigError(f"{path}: style vector for id {top} outside catalog 1..{catalog_size}")
    return style_table(catalog_size, vectors)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_preprocess(rc: RunConfig, args: argparse.Namespace) -> int:
    source = _require_file(rc.sessions, "sessions file")
    check_max_len(args.max_len)
    sessions = parse_sessions(source)
    ds = prepare_dataset(sessions, max_len=args.max_len)
    out, stats_out = _claim(args.out, f"{Path(args.out)}.stats.txt")
    stats = format_statistics_table(dataset_statistics(sessions))
    summary = "\n".join([
        stats,
        "",
        f"seed: {rc.seed}",
        f"max_len: {ds.max_len}",
        f"catalog_size: {ds.catalog_size}",
        f"splits: train={len(ds.train)} val={len(ds.val)} test={len(ds.test)}",
        "",
    ])
    print(summary, end="")
    _write(out, ds.to_json())
    _write(stats_out, summary)
    return 0


def _read_image(path: Path) -> np.ndarray:
    try:
        image = np.load(path)
    except Exception as e:  # numpy's header parser raises more than OSError and ValueError
        raise InputError(f"not a readable .npy image ({e})") from None
    if not isinstance(image, np.ndarray) or image.dtype.kind not in "biuf":
        raise InputError("not an array of real numbers")
    return image


def _stylegen_vector(args: argparse.Namespace, pid: int, seed: int, scratch: dict):
    """Raw style vector of one product, or None when it has no file. Every fault of
    the file names it: a FormatError keeps its kind, any other is an InputError."""
    folder, suffix = (args.features, "s4rf") if args.features else (args.images, "npy")
    path = Path(folder) / f"{pid}.{suffix}"
    if not path.is_file():
        return None
    try:
        layers = (load_feature_maps(path) if args.features
                  else pseudo_feature_provider(_read_image(path), seed, scratch))
        vec = extract_style_embedding(layers, scratch)
        if not np.isfinite(vec).all():
            raise InputError("non-finite values give a non-finite style vector")
    except StyleRecError as e:
        raise (FormatError if isinstance(e, FormatError) else InputError)(f"{path}: {e}") from None
    return vec


def _stylegen_vectors(args: argparse.Namespace, seed: int, workers: int) -> Dict[int, np.ndarray]:
    """Raw style vectors of the products that have a file, on ``workers`` threads that
    take ids in order (``threads.in_order``); a fault is raised for the lowest failing id."""
    pids = iter(range(1, args.products + 1))
    raw: Dict[int, np.ndarray] = {}
    scratch = [{} for _ in range(workers)]

    def vector(k: int, pid: int) -> None:
        vec = _stylegen_vector(args, pid, seed, scratch[k])
        if vec is not None:
            raw[pid] = vec

    for pid in pids:  # the first vector sizes every worker's buffers, on this thread's heap
        vector(0, pid)
        if raw:
            break
    scratch[1:] = [{role: np.empty_like(buf) for role, buf in scratch[0].items()}
                   for _ in scratch[1:]]
    threads.in_order(vector, pids, workers)
    return raw


def cmd_stylegen(rc: RunConfig, args: argparse.Namespace) -> int:
    if args.products < 1:
        raise ConfigError("--products must be >= 1")
    if bool(args.features) == bool(args.pseudo):
        raise ConfigError("pick exactly one source: --features DIR or --pseudo --images DIR")
    if args.pseudo and not args.images:
        raise ConfigError("--pseudo needs --images DIR")
    source = Path(args.features or args.images)
    if not source.is_dir():
        raise InputError(f"source directory not found: {source}")
    out, = _claim(args.out)
    with threads.one_blas_thread() as workers:
        raw = _stylegen_vectors(args, derive_seed(rc.seed, "style-provider"), workers)
    vectors = dict.fromkeys(range(1, args.products + 1), np.zeros(STYLE_DIM, dtype=np.float32))
    vectors.update(standardize_embeddings(raw))
    save_style_cache(vectors, out)
    missing = args.products - len(raw)
    if missing:
        print(f"warning: {missing} of {args.products} products have no image; "
              f"their style vectors are zero")
    print(f"wrote {args.out} ({args.products} products, seed {rc.seed})")
    return 0


def cmd_synth(rc: RunConfig, args: argparse.Namespace) -> int:
    gen = dict(length_range=(args.length_min, args.length_max),
               dominant_mass=args.dominant_mass, cart_ratio=args.cart_ratio)
    n_clusters = args.clusters if args.style_correlated else None
    check_generator_args(args.products, args.n_sessions, order=args.order, n_clusters=n_clusters,
                         seed=rc.seed, **gen)
    suffixes = [".oracle.npz"] + [".style.s4se"] * args.style_correlated
    out, oracle_path, *cache = _claim(args.out, *(f"{Path(args.out)}{x}" for x in suffixes))
    if args.style_correlated:
        sessions, oracle, vectors = generate_style_correlated(
            args.products, args.n_sessions, n_clusters, seed=rc.seed, **gen)
        save_style_cache(standardize_embeddings(vectors), cache[0])
        print(f"wrote {cache[0]}")
    else:
        sessions, oracle = generate_synthetic(args.products, args.n_sessions, seed=rc.seed,
                                              order=args.order, **gen)
    write_sessions(sessions, out)
    oracle.save(oracle_path)
    print(f"wrote {out} ({args.n_sessions} sessions over {args.products} products, "
          f"seed {rc.seed})")
    print(f"wrote {oracle_path}")
    return 0


def cmd_train(rc: RunConfig, args: argparse.Namespace) -> int:
    cfg = rc.train_config()
    ds, table = _inputs(rc, cfg.use_style)
    run = Run(cfg.configuration, ds, run_model_config(rc.model, cfg, ds.max_len), cfg, table)
    ckpt, report = _claim(_checkpoint(rc, cfg.configuration, args.out),
                          Path(rc.report_dir, f"train-{cfg.configuration}.txt"))
    result = train(run.dataset, run.model_cfg, run.train_cfg, run.style_table, log=print)
    _save(result.params, ckpt)
    lines = [f"checkpoint: {ckpt.name}",
             f"fingerprint: {result.fingerprint}",
             f"val_mode: {result.val_mode}",
             f"best_epoch: {result.best_epoch}",
             f"best_val_ndcg5: {result.best_val_ndcg5:.6f}"]
    for entry in result.history:
        lines.append(f"epoch {entry['epoch']} loss {entry['loss']:.6f} "
                     f"val_ndcg5 {entry['val']['NDCG@5']:.6f}")
    _write(report, "\n".join(lines) + "\n")
    return 0


def cmd_eval(rc: RunConfig, args: argparse.Namespace) -> int:
    cfg = rc.train_config()
    if not re.fullmatch(r"[A-Za-z0-9_.+-]+", args.label):  # a file name and one record field
        raise ConfigError(f"--label must be letters, digits, _, ., + or -, got {args.label!r}")
    params = load_checkpoint(_require_file(args.checkpoint, "checkpoint"))
    ds, _ = _inputs(rc, use_style=False)
    # wide enough for either catalog, so a mismatch reaches the fit check
    size = max(params.catalog_size, ds.catalog_size)
    table = _load_style_table(rc, size) if params.config.use_style else None
    _check_fit(params.config, params.catalog_size, ds, table)
    pick_eval_mode(cfg, ds, ds.test)  # refuses a negsample the test split cannot supply
    out, = _claim(Path(rc.report_dir, f"eval-{args.label}.txt"))
    report = evaluate_test_split(params, ds, cfg, table)
    shown = format_report_table({args.label: report})
    print(shown)
    _write(out, "\n".join([f"checkpoint: {Path(args.checkpoint).name}", f"mode: {report.mode}",
                           f"seed: {cfg.seed}", f"sessions: {len(ds.test)}", "",
                           *report.machine_lines(args.label), "", shown]) + "\n")
    return 0


def cmd_suite(rc: RunConfig, args: argparse.Namespace) -> int:
    cfg = rc.train_config()
    ds, table = _inputs(rc, use_style=True)
    rows = run_experiment(suite_runs(ds, rc.model, cfg, table), log=print)
    *_, out = _claim(*(_checkpoint(rc, name) for name in CONFIGURATIONS),
                     Path(rc.report_dir, "suite.txt"))
    reports = {run.train_cfg.configuration: (result, report) for run, result, report in rows}
    lines = [f"seed: {cfg.seed}", f"test_sessions: {len(ds.test)}", ""]
    for name, (result, report) in reports.items():
        _save(result.params, _checkpoint(rc, name))
        lines.extend(report.machine_lines(name))
    shown = format_report_table({name: report for name, (_, report) in reports.items()})
    print(shown)
    _write(out, "\n".join(lines + ["", shown]) + "\n")
    return 0


def cmd_dynamic(rc: RunConfig, args: argparse.Namespace) -> int:
    cfg = rc.train_config()
    sessions = parse_sessions(_require_file(rc.sessions, "sessions file"))
    table = _load_style_table(rc, max_product_id(sessions)) if cfg.use_style else None
    rows = run_experiment(dynamic_runs(sessions, rc.max_lens, rc.model, cfg, table), log=print)
    out, = _claim(Path(rc.report_dir, "dynamic.txt"))
    curve = [(run.dataset.max_len, report) for run, _, report in rows]
    text = "\n".join([f"seed: {cfg.seed}", *curve_lines(curve)])
    print(text)
    _write(out, text + "\n")
    return 0


def cmd_sweep(rc: RunConfig, args: argparse.Namespace) -> int:
    cfg = rc.train_config()
    ds, table = _inputs(rc, cfg.use_style)
    # one config file serves train and sweep, and the sweep's grid sets d_ffn
    kwargs = {k: v for k, v in rc.model.items() if k != "d_ffn"}
    rows = run_experiment(sweep_runs(ds, kwargs, cfg, table, budget=args.budget), test=False,
                          log=print)
    ckpt, out = _claim(_checkpoint(rc, "sweep-best"), Path(rc.report_dir, "sweep.txt"))
    lines = [f"seed: {cfg.seed}", "hidden l2 val_ndcg5 best_epoch"]
    best = None
    for row in rows:  # one row at a time, so only the best point's model stays in memory
        run, result, _ = row
        lines.append(f"{run.model_cfg.d_ffn} {run.train_cfg.l2} {result.best_val_ndcg5:.6f} "
                     f"{result.best_epoch}")
        best = min(best or row, row, key=sweep_order_key)
    run, result, _ = best
    lines.append(f"best: hidden {run.model_cfg.d_ffn} l2 {run.train_cfg.l2} "
                 f"val_ndcg5 {result.best_val_ndcg5:.6f}")
    text = "\n".join(lines)
    print(text)
    _save(result.params, ckpt)
    _write(out, text + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Argument errors end in the one-line config-error surface."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    # a flag whose dest is a config key sets that key from its raw string;
    # every other dest is an argument of its command alone
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value run config file")
    common.add_argument("--seed", dest="seed", help="global seed")
    common.add_argument("--report-dir", dest="report_dir", help="report output directory")
    common.add_argument("--checkpoint-dir", dest="checkpoint_dir",
                        help="checkpoint output directory")
    dataset = argparse.ArgumentParser(add_help=False)
    dataset.add_argument("--data", dest="data", help="prepared dataset file")
    dataset.add_argument("--style-cache", dest="style_cache")
    epochs = argparse.ArgumentParser(add_help=False)
    epochs.add_argument("--epochs", dest="train.epochs")

    parser = _Parser(
        prog="stylerec",
        description="Session-based product recommender with image-style embeddings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", parents=[common],
                       help="clean, split, and package raw sessions")
    p.add_argument("--sessions", dest="sessions", help="raw session JSONL file")
    p.add_argument("--out", required=True, help="prepared dataset output path")
    p.add_argument("--max-len", dest="max_len", type=int, default=DEFAULT_MAX_LEN)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("stylegen", parents=[common],
                       help="build the style embedding cache")
    p.add_argument("--features", help="directory of <id>.s4rf feature-map files")
    p.add_argument("--pseudo", action="store_true",
                   help="derive features with the built-in seeded provider")
    p.add_argument("--images", help="directory of <id>.npy images (pseudo mode)")
    p.add_argument("--products", type=int, required=True, help="catalog size")
    p.add_argument("--out", required=True, help="style cache output path")
    p.set_defaults(func=cmd_stylegen)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic session dataset with a known oracle")
    p.add_argument("--products", type=int, required=True)
    p.add_argument("--sessions", dest="n_sessions", type=int, required=True,
                   help="number of sessions")
    p.add_argument("--out", required=True, help="session JSONL output path")
    p.add_argument("--cart-ratio", dest="cart_ratio", type=float, default=0.0)
    p.add_argument("--order", type=int, default=1, help="Markov order: 1 or 2")
    p.add_argument("--length-min", dest="length_min", type=int, default=3)
    p.add_argument("--length-max", dest="length_max", type=int, default=12)
    p.add_argument("--dominant-mass", dest="dominant_mass", type=float, default=0.8)
    p.add_argument("--style-correlated", dest="style_correlated", action="store_true")
    p.add_argument("--clusters", type=int, default=5)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", parents=[common, dataset, epochs],
                       help="train one configuration")
    p.add_argument("--configuration", dest="train.configuration",
                   help=f"one of {', '.join(CONFIGURATIONS)}")
    p.add_argument("--out", help="checkpoint output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common, dataset], help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mode", dest="train.eval_mode", help=f"auto, {NEGSAMPLE} or {FULL_CATALOG}")
    p.add_argument("--negatives", dest="train.eval_negatives",
                   help="candidate negatives per session")
    p.add_argument("--label", default="eval", help="name used in report lines")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("suite", parents=[common, dataset, epochs],
                       help="train and test all four data configurations")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("dynamic", parents=[common, epochs],
                       help="retrain across session-length caps and report the curve")
    p.add_argument("--sessions", dest="sessions", help="raw session JSONL file")
    p.add_argument("--max-lens", dest="max_lens", help="comma-separated lengths")
    p.set_defaults(func=cmd_dynamic)

    p = sub.add_parser("sweep", parents=[common, dataset, epochs],
                       help="grid-search feed-forward width and L2 penalty")
    p.add_argument("--budget", type=int, help="cap on grid points, in order")
    p.add_argument("--hidden-dims", dest="train.hidden_dim_grid",
                   help="comma-separated widths")
    p.add_argument("--l2-grid", dest="train.l2_grid", help="comma-separated penalties")
    p.set_defaults(func=cmd_sweep)

    return parser


# numpy's warnings stay silent: the finite checks report a bad value as one error line
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
@threads.one_blas_thread()
def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(build_run_config(args), args)
    except StyleRecError as e:
        print(f"error {e.kind}: {e}", file=sys.stderr)
        return e.exit_code
    except (OSError, MemoryError) as e:  # a user path that fails, or a size too big to hold
        detail = (f"{e.filename}: {e.strerror}" if getattr(e, "filename", None)
                  else str(e) or "out of memory")
        print(f"error {InputError.kind}: {detail}", file=sys.stderr)
        return InputError.exit_code


if __name__ == "__main__":
    sys.exit(main())
