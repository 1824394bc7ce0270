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
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from .data import (
    PreparedDataset,
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
from .errors import ConfigError, InputError, ShapeError, StyleRecError
from .metrics import FULL_CATALOG, NEGSAMPLE, format_report_table
from .kv import parse_field
from .model import ModelConfig, load_checkpoint, save_checkpoint
from .seeding import derive_seed
from .style import (
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
    TrainConfig,
    curve_lines,
    dynamic_experiment,
    evaluate_test_split,
    run_configuration_suite,
    run_model_config,
    sweep,
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


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")
    print(f"wrote {path}")


def _report(rc: RunConfig, name: str, lines: list, shown: str = "") -> None:
    """Print ``shown``, if any, then write ``lines`` to ``<report_dir>/<name>.txt``."""
    if shown:
        print(shown)
    _write(Path(rc.report_dir) / f"{name}.txt", "\n".join(lines) + "\n")


def _save(params, rc: RunConfig, name: str, out: Optional[str] = None) -> Path:
    path = Path(out) if out else Path(rc.checkpoint_dir) / f"model-{name}.s4ck"
    path.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(params, path)
    print(f"wrote {path}")
    return path


def _inputs(rc: RunConfig, use_style: bool) -> Tuple[PreparedDataset, Optional[np.ndarray]]:
    ds = PreparedDataset.from_json(read_text(_require_file(rc.data, "prepared dataset")))
    return ds, (_load_style_table(rc, ds.catalog_size) if use_style else None)


def _load_style_table(rc: RunConfig, catalog_size: int) -> np.ndarray:
    return style_table(catalog_size, load_style_cache(_require_file(rc.style_cache, "style cache")))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_preprocess(rc: RunConfig, args: argparse.Namespace) -> int:
    sessions = parse_sessions(_require_file(rc.sessions, "sessions file"))
    ds = prepare_dataset(sessions, max_len=args.max_len)
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
    out = Path(args.out)
    _write(out, ds.to_json())
    _write(Path(str(out) + ".stats.txt"), summary)
    return 0


def _stylegen_vector(args: argparse.Namespace, pid: int, seed: int):
    """Raw style vector of one product, or None when it has no image. A file that
    does not load, or makes the vector non-finite, is an InputError naming it."""
    folder, suffix = (args.features, "s4rf") if args.features else (args.images, "npy")
    path = Path(folder) / f"{pid}.{suffix}"
    if not path.is_file():
        return None
    with np.errstate(over="ignore", invalid="ignore"):  # the finite check below reports these
        if args.features:
            layers = load_feature_maps(path)
        else:
            try:
                image = np.load(path)
            except (OSError, EOFError, ValueError) as e:  # bad bytes or pickled data
                raise InputError(f"{path}: not a readable .npy image ({e})") from None
            if not isinstance(image, np.ndarray) or image.dtype.kind not in "biuf":
                raise InputError(f"{path}: not an array of real numbers")
            try:
                layers = pseudo_feature_provider(image, seed)
            except ShapeError as e:
                raise InputError(f"{path}: {e}") from None
        vec = extract_style_embedding(layers)
    if not np.isfinite(vec).all():
        raise InputError(f"{path}: non-finite values give a non-finite style vector")
    return vec


def cmd_stylegen(rc: RunConfig, args: argparse.Namespace) -> int:
    if bool(args.features) == bool(args.pseudo):
        raise ConfigError("pick exactly one source: --features DIR or --pseudo --images DIR")
    if args.pseudo and not args.images:
        raise ConfigError("--pseudo needs --images DIR")
    source = Path(args.features or args.images)
    if not source.is_dir():
        raise InputError(f"source directory not found: {source}")
    provider_seed = derive_seed(rc.seed, "style-provider")
    raw: Dict[int, np.ndarray] = {}
    image_ids = set()
    for pid in range(1, args.products + 1):
        vec = _stylegen_vector(args, pid, provider_seed)
        raw[pid] = np.zeros(512, dtype=np.float32) if vec is None else vec
        if vec is not None:
            image_ids.add(pid)
    vectors = standardize_embeddings(raw, image_ids)
    save_style_cache(vectors, Path(args.out))
    missing = args.products - len(image_ids)
    if missing:
        print(f"warning: {missing} of {args.products} products have no image; "
              f"their style vectors are zero")
    print(f"wrote {args.out} ({args.products} products, seed {rc.seed})")
    return 0


def cmd_synth(rc: RunConfig, args: argparse.Namespace) -> int:
    length_range = (args.length_min, args.length_max)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.style_correlated:
        sessions, oracle, vectors = generate_style_correlated(
            args.products, args.n_sessions, n_clusters=args.clusters,
            length_range=length_range, seed=rc.seed,
            dominant_mass=args.dominant_mass, cart_ratio=args.cart_ratio)
        cache = Path(str(out) + ".style.s4se")
        save_style_cache(standardize_embeddings(vectors), cache)
        print(f"wrote {cache}")
    else:
        sessions, oracle = generate_synthetic(
            args.products, args.n_sessions, length_range=length_range, seed=rc.seed,
            dominant_mass=args.dominant_mass, cart_ratio=args.cart_ratio,
            order=args.order)
    write_sessions(sessions, out)
    oracle_path = Path(str(out) + ".oracle.npz")
    oracle.save(oracle_path)
    print(f"wrote {out} ({args.n_sessions} sessions over {args.products} products, "
          f"seed {rc.seed})")
    print(f"wrote {oracle_path}")
    return 0


def cmd_train(rc: RunConfig, args: argparse.Namespace) -> int:
    cfg = rc.train_config()
    ds, table = _inputs(rc, cfg.use_style)
    result = train(ds, run_model_config(rc.model, cfg, ds.max_len), cfg, style_table=table,
                   log=print)
    ckpt = _save(result.params, rc, cfg.configuration, args.out)
    lines = [f"checkpoint: {ckpt.name}",
             f"fingerprint: {result.fingerprint}",
             f"val_mode: {result.val_mode}",
             f"best_epoch: {result.best_epoch}",
             f"best_val_ndcg5: {result.best_val_ndcg5:.6f}"]
    for entry in result.history:
        lines.append(f"epoch {entry['epoch']} loss {entry['loss']:.6f} "
                     f"val_ndcg5 {entry['val']['NDCG@5']:.6f}")
    _report(rc, f"train-{cfg.configuration}", lines)
    return 0


def cmd_eval(rc: RunConfig, args: argparse.Namespace) -> int:
    cfg = rc.train_config()
    params = load_checkpoint(_require_file(args.checkpoint, "checkpoint"))
    ds, _ = _inputs(rc, use_style=False)
    if ds.catalog_size != params.catalog_size:
        raise ConfigError(f"checkpoint expects a catalog of {params.catalog_size}, "
                          f"dataset has {ds.catalog_size}")
    if ds.max_len != params.config.max_len:
        raise ConfigError(f"checkpoint was trained with max_len {params.config.max_len}, "
                          f"dataset has {ds.max_len}")
    table = _load_style_table(rc, ds.catalog_size) if params.config.use_style else None
    report = evaluate_test_split(params, ds, cfg, table)
    shown = format_report_table({args.label: report})
    _report(rc, f"eval-{args.label}", [
        f"checkpoint: {Path(args.checkpoint).name}",
        f"mode: {report.mode}",
        f"seed: {cfg.seed}",
        f"sessions: {len(ds.test)}",
        "",
        *report.machine_lines(args.label),
        "",
        shown,
    ], shown)
    return 0


def cmd_suite(rc: RunConfig, args: argparse.Namespace) -> int:
    cfg = rc.train_config()
    ds, table = _inputs(rc, use_style=True)
    results = run_configuration_suite(ds, rc.model, cfg, style_table=table, log=print)
    lines = [f"seed: {cfg.seed}", f"test_sessions: {len(ds.test)}", ""]
    for name, bundle in results.items():
        _save(bundle["result"].params, rc, name)
        lines.extend(bundle["report"].machine_lines(name))
    shown = format_report_table({name: bundle["report"] for name, bundle in results.items()})
    _report(rc, "suite", lines + ["", shown], shown)
    return 0


def cmd_dynamic(rc: RunConfig, args: argparse.Namespace) -> int:
    cfg = rc.train_config()
    sessions = parse_sessions(_require_file(rc.sessions, "sessions file"))
    table = _load_style_table(rc, max_product_id(sessions)) if cfg.use_style else None
    curve = dynamic_experiment(sessions, rc.max_lens, rc.model, cfg, style_table=table,
                               log=print)
    lines = [f"seed: {cfg.seed}", *curve_lines(curve)]
    _report(rc, "dynamic", lines, "\n".join(lines))
    return 0


def cmd_sweep(rc: RunConfig, args: argparse.Namespace) -> int:
    cfg = rc.train_config()
    ds, table = _inputs(rc, cfg.use_style)
    # one config file serves train and sweep, and the sweep's grid sets d_ffn
    kwargs = {k: v for k, v in rc.model.items() if k != "d_ffn"}
    result = sweep(ds, kwargs, cfg, style_table=table, budget=args.budget, log=print)
    lines = [f"seed: {cfg.seed}", "hidden l2 val_ndcg5 best_epoch"]
    for run in result.runs:
        lines.append(f"{run.hidden_dim} {run.l2} {run.val_ndcg5:.6f} {run.best_epoch}")
    lines.append(f"best: hidden {result.best.hidden_dim} l2 {result.best.l2} "
                 f"val_ndcg5 {result.best.val_ndcg5:.6f}")
    print("\n".join(lines))
    _save(result.best_result.params, rc, "sweep-best")
    _report(rc, "sweep", lines)
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
    p.add_argument("--max-len", dest="max_len", type=int, default=20)
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
    p.add_argument("--order", type=int, default=1, choices=(1, 2))
    p.add_argument("--length-min", dest="length_min", type=int, default=3)
    p.add_argument("--length-max", dest="length_max", type=int, default=12)
    p.add_argument("--dominant-mass", dest="dominant_mass", type=float, default=0.8)
    p.add_argument("--style-correlated", dest="style_correlated", action="store_true")
    p.add_argument("--clusters", type=int, default=5)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", parents=[common, dataset, epochs],
                       help="train one configuration")
    p.add_argument("--configuration", dest="train.configuration", choices=CONFIGURATIONS)
    p.add_argument("--out", help="checkpoint output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common, dataset], help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mode", dest="train.eval_mode",
                   choices=("auto", NEGSAMPLE, FULL_CATALOG))
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


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(build_run_config(args), args)
    except StyleRecError as e:
        print(f"error {e.kind}: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
