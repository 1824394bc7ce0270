"""Training loop, negative sampling, evaluation protocol, experiments.

Each session trains on its prefix: the items before the last form the
input and the last item is the target, scored against one uniformly
sampled negative through a pairwise softmax cross-entropy. Regularization
adds an L2 penalty over all parameters. Validation runs every epoch and
the parameters with the best val NDCG@5 are kept.

Evaluation ranks the true next product either among 100 sampled negatives
plus the truth (negsample mode) or against the whole catalog minus the
session's other items (full-catalog mode). Four data configurations gate
cart sessions and style embeddings into the run: P, P+Style, P+Cart,
P+Cart+Style.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import tensor as T
from .data import (CART, PURCHASE, PreparedDataset, Session, max_product_id,
                   prepare_dataset, truncate_pad)
from .errors import ConfigError, ContractError
from .metrics import COLUMNS, FULL_CATALOG, NEGSAMPLE, MetricsReport, rank_of_truth
from .model import (
    ModelConfig,
    ModelParams,
    encode,
    history_vector,
    init_params,
    pairwise_bce_loss,
    positional_encoding,
    product_table,
    score,
)
from .seeding import SeedStream, derive_seed, rng_for

CONFIGURATIONS = ("P", "P+Style", "P+Cart", "P+Cart+Style")

HIDDEN_DIM_GRID = (8, 16, 32, 64, 128, 256)
L2_GRID = (0.1, 0.001, 0.0001, 0.00001)
EVAL_BATCH = 256  # sessions per encode call in evaluate
# Elements per Adam block, the unit the Adam workers share out. A block's
# slices of p, g, m, v and one worker's float64 scratch pair take about
# 1.3 MB at 2**15; 2**14..2**16 step equally fast on a 2 MB-L2 Xeon, while
# 2**12 loses a third to per-call overhead.
ADAM_BLOCK = 1 << 15
# Threads that update Adam blocks: the caller, plus one helper when the
# process may run on two CPUs. numpy releases the interpreter lock inside
# its ufunc loops, so the two overlap.
ADAM_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's defaults (Kingma & Ba)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 64
    epochs: int = 10
    l2: float = 1e-4
    seed: int = 0
    configuration: str = "P"
    eval_negatives: int = 100
    eval_mode: str = "auto"  # auto | negsample | full-catalog
    hidden_dim_grid: Tuple[int, ...] = HIDDEN_DIM_GRID
    l2_grid: Tuple[float, ...] = L2_GRID

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("learning_rate, batch_size, and epochs must be positive")
        if self.l2 < 0:
            raise ConfigError(f"l2 penalty must be >= 0, got {self.l2}")
        if self.configuration not in CONFIGURATIONS:
            raise ConfigError(f"configuration must be one of {CONFIGURATIONS}, "
                              f"got {self.configuration!r}")
        if self.eval_negatives < 1:
            raise ConfigError("eval_negatives must be >= 1")
        if self.eval_mode not in ("auto", NEGSAMPLE, FULL_CATALOG):
            raise ConfigError(f"unknown eval_mode {self.eval_mode!r}")
        if not self.hidden_dim_grid or not self.l2_grid:
            raise ConfigError("sweep grids must be nonempty")

    @property
    def use_cart(self) -> bool:
        return "Cart" in self.configuration

    @property
    def use_style(self) -> bool:
        return "Style" in self.configuration


@dataclass
class TrainResult:
    params: ModelParams
    history: List[dict]  # per epoch: loss, val metrics
    best_epoch: int
    best_val_ndcg5: float
    val_mode: str
    cart_sessions_used: int
    fingerprint: str


# ---------------------------------------------------------------------------
# sampling and batching
# ---------------------------------------------------------------------------

def _catalog_pool(catalog_size: int, exclude: Sequence[int]) -> np.ndarray:
    """Ids 1..catalog_size in ascending order, minus ``exclude``; excluded
    ids outside that range are ignored."""
    keep = np.ones(catalog_size + 1, dtype=bool)
    keep[0] = False
    ex = np.asarray(exclude, dtype=np.int64).reshape(-1)
    keep[ex[(ex >= 1) & (ex <= catalog_size)]] = False
    return np.flatnonzero(keep)


def sample_negatives(session_items: Sequence[int], catalog_size: int, n: int,
                     seed: int) -> np.ndarray:
    """n distinct uniform ids excluding the truth and every session item."""
    pool = _catalog_pool(catalog_size, session_items)
    if pool.size < n:
        raise ConfigError(
            f"catalog of {catalog_size} cannot supply {n} negatives for a session "
            f"with {len(set(int(i) for i in session_items))} distinct items")
    rng = np.random.default_rng(seed)
    return rng.choice(pool, size=n, replace=False)


def _session_arrays(sessions: Sequence[Session], max_len: int):
    """Pack inputs (items before the last) into [N, max_len] id/mask arrays."""
    n = len(sessions)
    ids = np.zeros((n, max_len), dtype=np.int64)
    mask = np.zeros((n, max_len), dtype=bool)
    truth = np.zeros(n, dtype=np.int64)
    for r, s in enumerate(sessions):
        ids[r], mask[r] = truncate_pad(s.items[:-1], max_len)
        truth[r] = s.items[-1]
    return ids, mask, truth


def _train_negative(rng, catalog_size: int, exclude: frozenset) -> int:
    while True:
        c = int(rng.integers(1, catalog_size + 1))
        if c not in exclude:
            return c


def _train_exclusions(sessions: Sequence[Session], catalog_size: int) -> List[frozenset]:
    """Training negatives avoid all session items; when a session covers the
    whole catalog only the target itself is excluded."""
    out = []
    for s in sessions:
        distinct = frozenset(s.items)
        out.append(distinct if len(distinct) < catalog_size else frozenset((s.items[-1],)))
    return out


@functools.cache
def _adam_helper():
    """The process's one Adam helper thread, shared by every ``Adam``; it starts
    on the first task and idles outside ``Adam.step``."""
    # imported here so that runs which never train do not load it
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(1, thread_name_prefix="adam-helper")


class Adam:
    """Adam over one flat buffer that owns the parameters' memory.

    ``Adam(params, lr)`` copies every tensor's values into one contiguous
    array, ``data``, and makes each tensor's ``.data`` its view of it and
    its ``.grad`` its view of one zeroed array, ``grad``, into which
    ``tensor.backward`` accumulates. A caller must then write parameters
    in place (``t.data[...] = x``): a rebound ``.data`` misses the updates.

    ``step(g)`` updates ``data`` and the float64 moments in place,
    ``ADAM_BLOCK`` elements at a time. ``ADAM_WORKERS`` threads (read when
    the ``Adam`` is built: the caller and, at 2, the process's one helper
    thread) take blocks from one shared counter, each through its own
    float64 scratch pair, so a descheduled worker just takes fewer blocks.
    Every element goes through the same float64 operations in the same
    order as the out-of-place formula

        m = BETA1 * m + (1 - BETA1) * g
        v = BETA2 * v + (1 - BETA2) * (g * g)
        p = (p - lr * (m / b1c) / (sqrt(v / b2c) + EPS)).astype(p.dtype)

    so the result is bit-identical to it at any worker count, without a
    float64 copy of every parameter and gradient on each step.
    """

    def __init__(self, params: ModelParams, lr: float):
        tensors = [t for _, t in params.items()]
        if len({t.dtype for t in tensors}) != 1:
            raise ContractError("Adam needs one dtype for all parameters")
        self.lr = lr
        self.t = 0
        self.data = np.concatenate([t.data.reshape(-1) for t in tensors])
        self.grad = np.zeros_like(self.data)
        self.m, self.v = np.zeros(self.data.size), np.zeros(self.data.size)
        self.workers = ADAM_WORKERS if self.data.size > ADAM_BLOCK else 1
        self._scratch = np.empty((self.workers, 2, ADAM_BLOCK))
        ends = np.cumsum([t.data.size for t in tensors])[:-1]
        for t, data, grad in zip(tensors, np.split(self.data, ends), np.split(self.grad, ends)):
            t.data, t.grad = data.reshape(t.shape), grad.reshape(t.shape)

    def step(self, grad: np.ndarray) -> None:
        """One update of ``data`` from ``grad``, an array of ``data``'s shape."""
        self.t += 1
        b1c = 1.0 - BETA1 ** self.t
        b2c = 1.0 - BETA2 ** self.t
        # next() on a count is atomic under the interpreter lock: each block once
        work = functools.partial(self._update_blocks, itertools.count(0, ADAM_BLOCK),
                                 grad, b1c, b2c)
        if self.workers == 1:
            work(self._scratch[0])
            return
        helper = _adam_helper().submit(work, self._scratch[1])
        try:
            work(self._scratch[0])
        finally:
            if not helper.cancel():  # it started: wait for the block it may hold
                helper.result()

    def _update_blocks(self, blocks, grad, b1c, b2c, scratch) -> None:
        """Update every block whose start this worker takes from ``blocks``."""
        for i in blocks:
            if i >= self.data.size:
                return
            j = min(i + ADAM_BLOCK, self.data.size)
            pb, mb, vb = self.data[i:j], self.m[i:j], self.v[i:j]
            a, b = scratch[0, :j - i], scratch[1, :j - i]
            np.copyto(a, grad[i:j])  # exact widening to float64
            np.multiply(a, a, out=b)
            np.multiply(mb, BETA1, out=mb)
            np.multiply(a, 1 - BETA1, out=a)
            np.add(mb, a, out=mb)
            np.multiply(vb, BETA2, out=vb)
            np.multiply(b, 1 - BETA2, out=b)
            np.add(vb, b, out=vb)
            np.divide(mb, b1c, out=a)
            np.multiply(a, self.lr, out=a)
            np.divide(vb, b2c, out=b)
            np.sqrt(b, out=b)
            np.add(b, EPS, out=b)
            np.divide(a, b, out=a)
            np.copyto(b, pb)  # widening first beats a mixed-dtype subtract
            np.subtract(b, a, out=b)
            np.copyto(pb, b, casting="same_kind")  # the one rounding to p's dtype


# ---------------------------------------------------------------------------
# loss and training
# ---------------------------------------------------------------------------

def training_loss(params: ModelParams, ids: np.ndarray, mask: np.ndarray,
                  pos_ids: np.ndarray, neg_ids: np.ndarray, pos_enc: np.ndarray,
                  style_table: Optional[np.ndarray] = None,
                  seeds: Optional[SeedStream] = None) -> T.Tensor:
    """Mean pairwise loss for one batch (L2 penalty handled by the caller)."""
    hidden = encode(ids, mask, params, pos_enc, style_table, seeds)
    hist = history_vector(hidden, mask, params)
    pos_emb = T.embedding_lookup(params.product_emb, pos_ids)
    neg_emb = T.embedding_lookup(params.product_emb, neg_ids)
    s_pos = T.cosine_similarity(hist, pos_emb)
    s_neg = T.cosine_similarity(hist, neg_emb)
    return T.mean_all(pairwise_bce_loss(s_pos, s_neg))


def l2_penalty(data: np.ndarray, lam: float) -> float:
    """``lam * ||data||^2``, one BLAS dot over the flat parameter buffer."""
    return lam * float(np.vdot(data, data)) if lam else 0.0


def pick_eval_mode(cfg: TrainConfig, dataset: PreparedDataset) -> str:
    """``cfg.eval_mode``; under "auto", negsample when every val and test session
    leaves enough ids to draw ``cfg.eval_negatives`` negatives from, else full-catalog."""
    if cfg.eval_mode != "auto":
        return cfg.eval_mode
    worst = max((len(set(s.items)) for s in list(dataset.val) + list(dataset.test)), default=0)
    return NEGSAMPLE if dataset.catalog_size - worst >= cfg.eval_negatives else FULL_CATALOG


def _fingerprint(model_cfg: ModelConfig, cfg: TrainConfig, catalog_size: int) -> str:
    return (f"cfg={cfg.configuration} seed={cfg.seed} lr={cfg.learning_rate} "
            f"batch={cfg.batch_size} epochs={cfg.epochs} l2={cfg.l2} "
            f"dp={model_cfg.d_product} dm={model_cfg.d_model} blocks={model_cfg.n_blocks} "
            f"heads={model_cfg.n_heads} ffn={model_cfg.d_ffn} drop={model_cfg.dropout} "
            f"style={model_cfg.use_style} maxlen={model_cfg.max_len} P={catalog_size}")


def train(dataset: PreparedDataset, model_cfg: ModelConfig, cfg: TrainConfig,
          style_table: Optional[np.ndarray] = None,
          log: Optional[Callable[[str], None]] = None) -> TrainResult:
    """Fit a model on the dataset's train split under one configuration.

    Cart sessions join train/val only for cart configurations; the result
    carries the count actually used so gating is checkable. The returned
    parameters are the best-val-NDCG@5 snapshot.
    """
    if model_cfg.use_style != cfg.use_style:
        raise ConfigError(f"model use_style={model_cfg.use_style} conflicts with "
                          f"configuration {cfg.configuration!r}")
    if cfg.use_style and style_table is None:
        raise ConfigError(f"configuration {cfg.configuration!r} needs a style table")
    if model_cfg.max_len != dataset.max_len:
        raise ConfigError(f"model max_len {model_cfg.max_len} differs from the dataset's "
                          f"{dataset.max_len}")

    def keep(s: Session) -> bool:
        return s.kind == PURCHASE or cfg.use_cart

    train_sessions = [s for s in dataset.train if keep(s)]
    val_sessions = [s for s in dataset.val if keep(s)]
    if not train_sessions or not val_sessions:
        raise ConfigError(f"configuration {cfg.configuration!r} leaves an empty "
                          f"train or val split")
    cart_used = sum(s.kind == CART for s in train_sessions + val_sessions)

    P = dataset.catalog_size
    ids, mask, truth = _session_arrays(train_sessions, dataset.max_len)
    pos_enc = positional_encoding(dataset.max_len, model_cfg.d_model)
    params = init_params(model_cfg, P, cfg.seed)
    adam = Adam(params, cfg.learning_rate)
    exclusions = _train_exclusions(train_sessions, P)
    val_mode = pick_eval_mode(cfg, dataset)
    n = len(train_sessions)

    history: List[dict] = []
    best_epoch = -1
    best_ndcg = -1.0
    best = None
    for epoch in range(cfg.epochs):
        order = rng_for(cfg.seed, "shuffle", epoch).permutation(n)
        neg_rng = rng_for(cfg.seed, "train-neg", epoch)
        negatives = np.array([_train_negative(neg_rng, P, exclusions[i]) for i in order],
                             dtype=np.int64)
        total = 0.0
        batches = 0
        for b0 in range(0, n, cfg.batch_size):
            sel = order[b0:b0 + cfg.batch_size]
            seeds = SeedStream(cfg.seed, "dropout", epoch, b0)
            loss = training_loss(params, ids[sel], mask[sel], truth[sel],
                                 negatives[b0:b0 + cfg.batch_size], pos_enc,
                                 style_table, seeds)
            # the penalty at the parameters the batch loss saw, before the step
            penalty = l2_penalty(adam.data, cfg.l2)
            T.backward(loss)
            params.product_emb.grad[0] = 0.0  # the padding row stays frozen
            adam.step(adam.grad + 2.0 * cfg.l2 * adam.data if cfg.l2 else adam.grad)
            total += loss.item() + penalty
            batches += 1
        val_report = evaluate(params, val_sessions, mode=val_mode,
                              n_negatives=cfg.eval_negatives, seed=cfg.seed,
                              style_table=style_table)
        entry = {"epoch": epoch, "loss": total / batches,
                 "val": dict(val_report.values)}
        history.append(entry)
        if log:
            log(f"epoch {epoch}: loss {entry['loss']:.4f} "
                f"val NDCG@5 {val_report['NDCG@5']:.4f}")
        if val_report["NDCG@5"] > best_ndcg:
            best_ndcg = val_report["NDCG@5"]
            best_epoch = epoch
            best = adam.data.copy()
    adam.data[...] = best
    return TrainResult(params=params, history=history, best_epoch=best_epoch,
                       best_val_ndcg5=best_ndcg, val_mode=val_mode,
                       cart_sessions_used=cart_used,
                       fingerprint=_fingerprint(model_cfg, cfg, P))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _eval_candidates(session: Session, catalog_size: int, mode: str,
                     n_negatives: int, seed: int) -> np.ndarray:
    truth = session.items[-1]
    if mode == NEGSAMPLE:
        negs = sample_negatives(session.items, catalog_size, n_negatives,
                                derive_seed(seed, "eval-neg", session.session_id))
        return np.concatenate(([truth], negs))
    return _catalog_pool(catalog_size, [i for i in session.items if i != truth])


def evaluate(params: ModelParams, sessions: Sequence[Session], *, mode: str = NEGSAMPLE,
             n_negatives: int = 100, seed: int = 0,
             style_table: Optional[np.ndarray] = None) -> MetricsReport:
    """Rank the true next product for every session; aggregate HR/NDCG/MRR.

    History vectors are encoded ``EVAL_BATCH`` sessions at a time; the
    model then scores candidates through ``evaluate_with_scorer``, against
    one ``product_table`` built for this call.
    """
    cfg = params.config
    pos_enc = positional_encoding(cfg.max_len, cfg.d_model)
    ids, mask, _ = _session_arrays(sessions, cfg.max_len)
    hist = []
    with T.no_grad():
        for b0 in range(0, len(sessions), EVAL_BATCH):
            sel = slice(b0, b0 + EVAL_BATCH)
            hidden = encode(ids[sel], mask[sel], params, pos_enc, style_table)
            hist.extend(history_vector(hidden, mask[sel], params).data)
    rows = iter(hist)
    table = product_table(params)
    return evaluate_with_scorer(sessions, params.catalog_size,
                                lambda session, cands: score(next(rows), cands, params, table),
                                mode=mode, n_negatives=n_negatives, seed=seed)


def evaluate_test_split(params: ModelParams, dataset: PreparedDataset, cfg: TrainConfig,
                        style_table: Optional[np.ndarray] = None) -> MetricsReport:
    """The protocol of every reported test number: rank ``dataset.test`` in the mode
    ``pick_eval_mode`` picks, with ``cfg.eval_negatives`` negatives and seed ``cfg.seed``."""
    return evaluate(params, dataset.test, mode=pick_eval_mode(cfg, dataset),
                    n_negatives=cfg.eval_negatives, seed=cfg.seed, style_table=style_table)


def evaluate_with_scorer(sessions: Sequence[Session], catalog_size: int,
                         scorer: Callable[[Session, np.ndarray], np.ndarray], *,
                         mode: str = NEGSAMPLE, n_negatives: int = 100,
                         seed: int = 0) -> MetricsReport:
    """The evaluation protocol for any scorer: the model and the baselines.

    ``scorer`` is called once per session, in order.
    """
    if not sessions:
        raise ContractError("evaluate needs at least one session")
    ranks = []
    for session in sessions:
        cands = _eval_candidates(session, catalog_size, mode, n_negatives, seed)
        scores = np.asarray(scorer(session, cands), dtype=np.float64)
        ranks.append(rank_of_truth(scores, cands, session.items[-1]))
    return MetricsReport(mode=mode, ranks=ranks)


def popularity_scorer(train_sessions: Sequence[Session], catalog_size: int):
    """Scores candidates by training-set frequency."""
    counts = np.zeros(catalog_size + 1, dtype=np.float64)
    for s in train_sessions:
        for item in s.items:
            counts[item] += 1.0

    def scorer(session: Session, candidates: np.ndarray) -> np.ndarray:
        return counts[candidates]

    return scorer


def random_scorer(seed: int):
    """Uniform random scores, deterministic per session."""

    def scorer(session: Session, candidates: np.ndarray) -> np.ndarray:
        return rng_for(seed, "random-score", session.session_id).random(len(candidates))

    return scorer


def oracle_scorer(oracle):
    """Scores candidates with the true Markov next-item distribution."""

    def scorer(session: Session, candidates: np.ndarray) -> np.ndarray:
        dist = oracle.next_distribution(list(session.items[:-1]))
        return dist[candidates - 1]

    return scorer


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def run_model_config(model_kwargs: dict, cfg: TrainConfig, max_len: int, **owned) -> ModelConfig:
    """One run's ModelConfig: use_style from ``cfg``, max_len from the dataset and
    ``owned`` from the driver; ``model_kwargs`` sets every other field and none of these."""
    owned = dict(use_style=cfg.use_style, max_len=max_len, **owned)
    clash = sorted(set(model_kwargs) & set(owned))
    if clash:
        raise ConfigError(f"the run sets {', '.join(clash)}; the model settings must not")
    return ModelConfig(**owned, **model_kwargs)


def run_configuration_suite(dataset: PreparedDataset, model_kwargs: dict,
                            base_cfg: TrainConfig,
                            style_table: Optional[np.ndarray] = None, *,
                            log: Optional[Callable[[str], None]] = None) -> Dict[str, dict]:
    """Train and test all four data configurations with shared seeds.

    ``model_kwargs`` go through ``run_model_config``. The test split is
    identical across configurations by construction.
    """
    if style_table is None:
        raise ConfigError("the P+Style and P+Cart+Style configurations need a style table")
    results: Dict[str, dict] = {}
    for name in CONFIGURATIONS:
        cfg = replace(base_cfg, configuration=name)
        model_cfg = run_model_config(model_kwargs, cfg, dataset.max_len)
        table = style_table if cfg.use_style else None
        if log:
            log(f"training configuration {name}")
        result = train(dataset, model_cfg, cfg, style_table=table, log=log)
        results[name] = {"result": result,
                         "report": evaluate_test_split(result.params, dataset, cfg, table)}
    return results


def dynamic_experiment(raw_sessions: Sequence[Session], max_lens: Sequence[int],
                       model_kwargs: dict, cfg: TrainConfig,
                       style_table: Optional[np.ndarray] = None, *,
                       log: Optional[Callable[[str], None]] = None) -> List[Tuple[int, MetricsReport]]:
    """Retrain and test at each maximum session length; returns the curve.
    Every cap keeps the raw sessions' catalog, so one style table fits all."""
    if not max_lens:
        raise ConfigError("dynamic experiment needs at least one max_len")
    if any(m < 2 for m in max_lens):
        raise ConfigError("max_len values must be >= 2")
    catalog_size = max_product_id(raw_sessions)
    curve = []
    for max_len in max_lens:
        ds = prepare_dataset(raw_sessions, max_len=max_len, catalog_size=catalog_size)
        model_cfg = run_model_config(model_kwargs, cfg, max_len)
        if log:
            log(f"dynamic: max_len {max_len}")
        result = train(ds, model_cfg, cfg, style_table=style_table, log=log)
        curve.append((max_len, evaluate_test_split(result.params, ds, cfg, style_table)))
    return curve


def curve_lines(curve: List[Tuple[int, MetricsReport]]) -> List[str]:
    """A header, then one row per cap: max_len and every metric column."""
    return ["max_len " + " ".join(COLUMNS)] + [
        f"{max_len} " + " ".join(f"{v:.6f}" for v in report.row()) for max_len, report in curve]


@dataclass
class SweepRun:
    hidden_dim: int
    l2: float
    val_ndcg5: float
    best_epoch: int


@dataclass
class SweepResult:
    best: SweepRun
    best_result: TrainResult
    runs: List[SweepRun]


def sweep_order_key(run: SweepRun):
    """Best val NDCG@5 first; ties prefer smaller hidden dim, then smaller L2."""
    return (-run.val_ndcg5, run.hidden_dim, run.l2)


def sweep(dataset: PreparedDataset, model_kwargs: dict, cfg: TrainConfig,
          style_table: Optional[np.ndarray] = None, *, budget: Optional[int] = None,
          log: Optional[Callable[[str], None]] = None) -> SweepResult:
    """Grid search over hidden (feed-forward) dims and L2 penalties.

    Deterministic order; selection by val NDCG@5, ties broken by smaller
    hidden dim, then smaller L2.
    """
    combos = [(h, lam) for h in cfg.hidden_dim_grid for lam in cfg.l2_grid]
    if budget is not None:
        if budget < 1:
            raise ConfigError("sweep budget must be >= 1")
        combos = combos[:budget]
    runs: List[SweepRun] = []
    best: Optional[SweepRun] = None
    best_result: Optional[TrainResult] = None
    for hidden, lam in combos:
        if log:
            log(f"sweep: hidden {hidden}, l2 {lam}")
        model_cfg = run_model_config(model_kwargs, cfg, dataset.max_len, d_ffn=hidden)
        result = train(dataset, model_cfg, replace(cfg, l2=lam), style_table=style_table)
        run = SweepRun(hidden_dim=hidden, l2=lam, val_ndcg5=result.best_val_ndcg5,
                       best_epoch=result.best_epoch)
        runs.append(run)
        if best is None or sweep_order_key(run) < sweep_order_key(best):
            best, best_result = run, result
    return SweepResult(best=best, best_result=best_result, runs=runs)
