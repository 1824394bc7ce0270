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

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import tensor as T
from . import threads
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
    param_count,
    positional_encoding,
    product_table,
    score,
)
from .seeding import SeedStream, derive_seed, rng_for
from .style import STYLE_DIM

CONFIGURATIONS = ("P", "P+Style", "P+Cart", "P+Cart+Style")

HIDDEN_DIM_GRID = (8, 16, 32, 64, 128, 256)
L2_GRID = (0.1, 0.001, 0.0001, 0.00001)
EVAL_BATCH = 256  # sessions per encode call in evaluate
# Full-catalog candidates per session from which evaluate ranks on threads.WORKERS
# workers. In the 2-CPU sweep of BENCH_eval_workers.json two workers were slower from
# 500 to 3k products, where they hand the interpreter lock back and forth, about even
# at 4k-5k and faster from 6k (p10 0.26 against 0.31 ms/session; 0.40 against 0.66 at 20k).
WIDE_RANKING = 6000
# Elements per Adam block, the unit the Adam workers share out. A block's
# slices of p, g, m, v and one worker's float64 scratch pair take about
# 1.3 MB at 2**15; 2**14..2**16 step equally fast on a 2 MB-L2 Xeon, while
# 2**12 loses a third to per-call overhead.
ADAM_BLOCK = 1 << 15
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's defaults (Kingma & Ba)
# The most parameters a run trains: far above acceptance 07's 1.63M, while a larger
# model could only fail inside the work, after a command has claimed its outputs.
PARAM_CAP = 10 ** 8
SHORT_CATALOG = "catalog of {} cannot supply {} negatives for a session with {} distinct items"


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
        # the chained comparisons are false for nan, so nan fails each of them
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("batch_size and epochs must be positive")
        for lam in (self.l2, *self.l2_grid):
            if not 0 <= lam < math.inf:
                raise ConfigError(f"l2 penalty must be finite and >= 0, got {lam}")
        if self.configuration not in CONFIGURATIONS:
            raise ConfigError(f"configuration must be one of {CONFIGURATIONS}, "
                              f"got {self.configuration!r}")
        if self.eval_negatives < 1:
            raise ConfigError("eval_negatives must be >= 1")
        if self.eval_mode not in ("auto", NEGSAMPLE, FULL_CATALOG):
            raise ConfigError(f"unknown eval_mode {self.eval_mode!r}")
        if not self.hidden_dim_grid or not self.l2_grid:
            raise ConfigError("sweep grids must be nonempty")
        if min(self.hidden_dim_grid) < 1:
            raise ConfigError(f"hidden dims must be >= 1, got {min(self.hidden_dim_grid)}")

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
    """n distinct uniform ids excluding the truth and every session item: the draw
    ``rng.choice`` makes from ``_catalog_pool``, made on pool indices and mapped past
    the excluded ids, which skips building the O(catalog) pool."""
    ex = sorted({i for i in map(int, session_items) if 1 <= i <= catalog_size})
    if catalog_size - len(ex) < n:
        raise ConfigError(SHORT_CATALOG.format(catalog_size, n, len(set(map(int, session_items)))))
    idx = np.random.default_rng(seed).choice(catalog_size - len(ex), size=n, replace=False) + 1
    # pool id j is j plus the excluded ids at or below it; ex - arange(k) counts them
    return idx + (np.array(ex, dtype=np.int64) - np.arange(len(ex))).searchsorted(idx, side="right")


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
    # a prepared session ends in two different ids, so some id lies outside ``exclude``
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


class Adam:
    """Adam over one flat buffer that owns the parameters' memory.

    ``Adam(params, lr)`` copies every tensor's values into one contiguous
    array, ``data``, and makes each tensor's ``.data`` its view of it and
    its ``.grad`` its view of one zeroed array, ``grad``, into which
    ``tensor.backward`` accumulates. A caller must then write parameters
    in place (``t.data[...] = x``): a rebound ``.data`` misses the updates.

    ``step(g)`` updates ``data`` and the float64 moments in place,
    ``ADAM_BLOCK`` elements at a time. ``threads.WORKERS`` threads (read when
    the ``Adam`` is built; the step makes no BLAS call, so they run whether or
    not the BLAS count is set, and numpy releases the interpreter lock inside
    its ufunc loops, so they overlap) take blocks in order (``threads.in_order``),
    each through its own float64 scratch pair, so a descheduled worker just
    takes fewer blocks. Every element goes through the same float64
    operations in the same order as the out-of-place formula

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
        self.workers = threads.WORKERS if self.data.size > ADAM_BLOCK else 1
        self._scratch = np.empty((self.workers, 2, ADAM_BLOCK))
        ends = np.cumsum([t.data.size for t in tensors])[:-1]
        for t, data, grad in zip(tensors, np.split(self.data, ends), np.split(self.grad, ends)):
            t.data, t.grad = data.reshape(t.shape), grad.reshape(t.shape)

    def step(self, grad: np.ndarray) -> None:
        """One update of ``data`` from ``grad``, an array of ``data``'s shape."""
        self.t += 1
        b1c = 1.0 - BETA1 ** self.t
        b2c = 1.0 - BETA2 ** self.t
        threads.in_order(lambda k, i: self._update_block(i, grad, b1c, b2c, self._scratch[k]),
                         iter(range(0, self.data.size, ADAM_BLOCK)), self.workers)

    def _update_block(self, i, grad, b1c, b2c, scratch) -> None:
        """Update the block that starts at element ``i``."""
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


def pick_eval_mode(cfg: TrainConfig, dataset: PreparedDataset,
                   ranked: Sequence[Session]) -> str:
    """The mode ``ranked`` is evaluated in: "auto" is negsample when every val and test
    session leaves ``cfg.eval_negatives`` ids to draw, else full-catalog; an explicit
    negsample that a session of ``ranked`` cannot supply is refused as ``sample_negatives``."""
    if cfg.eval_mode == FULL_CATALOG:
        return FULL_CATALOG
    sessions = ranked if cfg.eval_mode == NEGSAMPLE else [*dataset.val, *dataset.test]
    worst = max((len(set(s.items)) for s in sessions), default=0)
    enough = dataset.catalog_size - worst >= cfg.eval_negatives
    if not enough and cfg.eval_mode == NEGSAMPLE:
        raise ConfigError(SHORT_CATALOG.format(dataset.catalog_size, cfg.eval_negatives, worst))
    return NEGSAMPLE if enough else FULL_CATALOG


def _fingerprint(model_cfg: ModelConfig, cfg: TrainConfig, catalog_size: int) -> str:
    return (f"cfg={cfg.configuration} seed={cfg.seed} lr={cfg.learning_rate} "
            f"batch={cfg.batch_size} epochs={cfg.epochs} l2={cfg.l2} "
            f"dp={model_cfg.d_product} dm={model_cfg.d_model} blocks={model_cfg.n_blocks} "
            f"heads={model_cfg.n_heads} ffn={model_cfg.d_ffn} drop={model_cfg.dropout} "
            f"style={model_cfg.use_style} maxlen={model_cfg.max_len} P={catalog_size}")


def _check_fit(config: ModelConfig, catalog_size: int, dataset: PreparedDataset,
               style_table: Optional[np.ndarray]) -> None:
    """A ConfigError unless the model has the dataset's catalog and max_len, and
    gets a style table, one row per id and padding, exactly when it uses style."""
    for what, model, data in (("catalog", catalog_size, dataset.catalog_size),
                              ("max_len", config.max_len, dataset.max_len)):
        if model != data:
            raise ConfigError(f"model {what} {model} differs from the dataset's {data}")
    if config.use_style != (style_table is not None):
        raise ConfigError("a style model needs a style table" if config.use_style
                          else "a model without style takes no style table")
    if style_table is not None and (shape := (catalog_size + 1, STYLE_DIM)) != style_table.shape:
        raise ConfigError(f"style table shape {style_table.shape}, expected {shape}")


def _check_run(dataset: PreparedDataset, model_cfg: ModelConfig, cfg: TrainConfig,
               style_table: Optional[np.ndarray]) -> Tuple[List[Session], List[Session], str]:
    """Every refusal before a run's first epoch, the test split's protocol included; returns
    the train and val sessions (carts only under cart configurations) and the val mode."""
    if model_cfg.use_style != cfg.use_style:
        raise ConfigError(f"model use_style={model_cfg.use_style} conflicts with "
                          f"configuration {cfg.configuration!r}")
    _check_fit(model_cfg, dataset.catalog_size, dataset, style_table)
    if (n_params := param_count(model_cfg, dataset.catalog_size)) > PARAM_CAP:
        raise ConfigError(f"a model of {n_params} parameters exceeds the cap of {PARAM_CAP}")

    def keep(s: Session) -> bool:
        return s.kind == PURCHASE or cfg.use_cart

    train_sessions = [s for s in dataset.train if keep(s)]
    val_sessions = [s for s in dataset.val if keep(s)]
    if not train_sessions or not val_sessions:
        raise ConfigError(f"configuration {cfg.configuration!r} leaves an empty "
                          f"train or val split")
    val_mode = pick_eval_mode(cfg, dataset, val_sessions)
    pick_eval_mode(cfg, dataset, dataset.test)  # after val: every run may be tested
    return train_sessions, val_sessions, val_mode


@threads.one_blas_thread()
def train(dataset: PreparedDataset, model_cfg: ModelConfig, cfg: TrainConfig,
          style_table: Optional[np.ndarray] = None,
          log: Optional[Callable[[str], None]] = None) -> TrainResult:
    """Fit a model on the dataset's train split under one configuration.

    Cart sessions join train/val only for cart configurations; the result
    carries the count actually used so gating is checkable. The returned
    parameters are the best-val-NDCG@5 snapshot.
    """
    train_sessions, val_sessions, val_mode = _check_run(dataset, model_cfg, cfg, style_table)
    cart_used = sum(s.kind == CART for s in train_sessions + val_sessions)

    P = dataset.catalog_size
    ids, mask, truth = _session_arrays(train_sessions, dataset.max_len)
    pos_enc = positional_encoding(dataset.max_len, model_cfg.d_model)
    params = init_params(model_cfg, P, cfg.seed)
    adam = Adam(params, cfg.learning_rate)
    exclusions = _train_exclusions(train_sessions, P)
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

def evaluate(params: ModelParams, sessions: Sequence[Session], *, mode: str = NEGSAMPLE,
             n_negatives: int = 100, seed: int = 0,
             style_table: Optional[np.ndarray] = None) -> MetricsReport:
    """Rank the true next product for every session; aggregate HR/NDCG/MRR.

    History vectors are encoded ``EVAL_BATCH`` sessions at a time, shortest
    first, so that a batch pads few positions (a vector's bits can move with
    its batch's width, not with its place in the batch); the model then
    scores candidates in the caller's order through ``_rank_sessions``,
    against one ``product_table`` built for this call, on the workers
    ``threads.one_blas_thread`` yields when the full catalog is
    ``WIDE_RANKING`` wide, else on one.
    """
    cfg = params.config
    pos_enc = positional_encoding(cfg.max_len, cfg.d_model)
    ids, mask, _ = _session_arrays(sessions, cfg.max_len)
    order = np.argsort(mask.sum(axis=1), kind="stable")
    hist = [None] * len(sessions)
    with threads.one_blas_thread() as workers, T.no_grad():
        for b0 in range(0, len(sessions), EVAL_BATCH):
            sel = order[b0:b0 + EVAL_BATCH]
            hidden = encode(ids[sel], mask[sel], params, pos_enc, style_table)
            for i, h in zip(sel.tolist(), history_vector(hidden, mask[sel], params).data):
                hist[i] = h
        table = product_table(params)
        # a full-catalog session ranks every id but its other items
        wide = mode == FULL_CATALOG and params.catalog_size + 1 - max(
            (len(s.items) for s in sessions), default=0) >= WIDE_RANKING
        return _rank_sessions(sessions, params.catalog_size,
                              lambda i, cands: score(hist[i], cands, table),
                              mode, n_negatives, seed, workers if wide else 1)


def evaluate_test_split(params: ModelParams, dataset: PreparedDataset, cfg: TrainConfig,
                        style_table: Optional[np.ndarray] = None) -> MetricsReport:
    """The protocol of every reported test number: rank ``dataset.test`` in the mode
    ``pick_eval_mode`` picks for it, with ``cfg.eval_negatives`` negatives and seed
    ``cfg.seed``, once ``_check_fit`` passes the model on the dataset."""
    _check_fit(params.config, params.catalog_size, dataset, style_table)
    return evaluate(params, dataset.test, mode=pick_eval_mode(cfg, dataset, dataset.test),
                    n_negatives=cfg.eval_negatives, seed=cfg.seed, style_table=style_table)


def evaluate_with_scorer(sessions: Sequence[Session], catalog_size: int,
                         scorer: Callable[[Session, np.ndarray], np.ndarray], *,
                         mode: str = NEGSAMPLE, n_negatives: int = 100,
                         seed: int = 0) -> MetricsReport:
    """The evaluation protocol for any scorer: the model and the baselines.

    ``scorer`` is called once per session, in order, on the calling thread.
    """
    return _rank_sessions(sessions, catalog_size, lambda i, cands: scorer(sessions[i], cands),
                          mode, n_negatives, seed, 1)


def _rank_sessions(sessions: Sequence[Session], catalog_size: int,
                   scorer: Callable[[int, np.ndarray], np.ndarray], mode: str,
                   n_negatives: int, seed: int, workers: int) -> MetricsReport:
    """Rank each session's truth among its candidates, scored by ``scorer(index,
    candidates)``, on ``workers`` workers that take sessions in order; a fault is
    raised for the lowest failing session. The ranks do not depend on ``workers``."""
    if not sessions:
        raise ContractError("evaluate needs at least one session")
    ranks = [0] * len(sessions)

    def rank(k: int, i: int) -> None:
        session = sessions[i]
        truth = session.items[-1]
        if mode == NEGSAMPLE:
            cands = np.concatenate(([truth], sample_negatives(
                session.items, catalog_size, n_negatives,
                derive_seed(seed, "eval-neg", session.session_id))))
        else:
            cands = _catalog_pool(catalog_size, [x for x in session.items if x != truth])
        scores = np.asarray(scorer(i, cands), dtype=np.float64)
        ranks[i] = rank_of_truth(scores, cands, truth)

    threads.in_order(rank, iter(range(len(sessions))), workers)
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


@dataclass(frozen=True)
class Run:
    """One train-and-test run, checked by ``_check_run`` when built; ``label`` is logged
    before it trains."""
    label: str
    dataset: PreparedDataset
    model_cfg: ModelConfig
    train_cfg: TrainConfig
    style_table: Optional[np.ndarray] = None

    def __post_init__(self):
        _check_run(self.dataset, self.model_cfg, self.train_cfg, self.style_table)


Row = Tuple[Run, TrainResult, Optional[MetricsReport]]


def run_experiment(runs: Sequence[Run], *, test: bool = True,
                   log: Optional[Callable[[str], None]] = None) -> Iterator[Row]:
    """Train each run in order and, when ``test`` is set, test it on its dataset's
    test split; yields one row per run: (run, TrainResult, report or None). Without
    ``test`` the runs only select: each logs its label but not its epochs."""
    for run in runs:
        if log:
            log(run.label)
        result = train(run.dataset, run.model_cfg, run.train_cfg, run.style_table,
                       log=log if test else None)
        yield run, result, (evaluate_test_split(result.params, run.dataset, run.train_cfg,
                                                run.style_table) if test else None)


def suite_runs(dataset: PreparedDataset, model_kwargs: dict, base_cfg: TrainConfig,
               style_table: Optional[np.ndarray] = None) -> List[Run]:
    """All four data configurations with shared seeds and one test split; the style
    ones take ``style_table``. ``model_kwargs`` go through ``run_model_config``."""
    cfgs = [replace(base_cfg, configuration=name) for name in CONFIGURATIONS]
    return [Run(f"training configuration {cfg.configuration}", dataset,
                run_model_config(model_kwargs, cfg, dataset.max_len), cfg,
                style_table if cfg.use_style else None) for cfg in cfgs]


def dynamic_runs(raw_sessions: Sequence[Session], max_lens: Sequence[int], model_kwargs: dict,
                 cfg: TrainConfig, style_table: Optional[np.ndarray] = None) -> List[Run]:
    """One run per maximum session length, each on its own prepared dataset. Every
    cap keeps the raw sessions' catalog, so one style table fits all."""
    if not max_lens:
        raise ConfigError("dynamic experiment needs at least one max_len")
    catalog_size = max_product_id(raw_sessions)
    return [Run(f"dynamic: max_len {max_len}",
                prepare_dataset(raw_sessions, max_len=max_len, catalog_size=catalog_size),
                run_model_config(model_kwargs, cfg, max_len), cfg, style_table)
            for max_len in max_lens]


def dynamic_experiment(raw_sessions: Sequence[Session], max_lens: Sequence[int],
                       model_kwargs: dict, cfg: TrainConfig,
                       style_table: Optional[np.ndarray] = None, *,
                       log: Optional[Callable[[str], None]] = None) -> List[Tuple[int, MetricsReport]]:
    """Retrain and test at each maximum session length; returns the curve."""
    rows = run_experiment(dynamic_runs(raw_sessions, max_lens, model_kwargs, cfg, style_table),
                          log=log)
    return [(run.dataset.max_len, report) for run, _, report in rows]


def curve_lines(curve: List[Tuple[int, MetricsReport]]) -> List[str]:
    """A header, then one row per cap: max_len and every metric column."""
    return ["max_len " + " ".join(COLUMNS)] + [
        f"{max_len} " + " ".join(f"{v:.6f}" for v in report.row()) for max_len, report in curve]


def sweep_runs(dataset: PreparedDataset, model_kwargs: dict, cfg: TrainConfig,
               style_table: Optional[np.ndarray] = None, *,
               budget: Optional[int] = None) -> List[Run]:
    """The grid of hidden (feed-forward) dims and L2 penalties in order, cut to its first
    ``budget`` points: selection runs for ``run_experiment(..., test=False)``."""
    combos = [(h, lam) for h in cfg.hidden_dim_grid for lam in cfg.l2_grid]
    if budget is not None:
        if budget < 1:
            raise ConfigError("sweep budget must be >= 1")
        combos = combos[:budget]
    return [Run(f"sweep: hidden {hidden}, l2 {lam}", dataset,
                run_model_config(model_kwargs, cfg, dataset.max_len, d_ffn=hidden),
                replace(cfg, l2=lam), style_table)
            for hidden, lam in combos]


def sweep_order_key(row: Row):
    """Best val NDCG@5 first; ties prefer smaller hidden dim, then smaller L2."""
    run, result, _ = row
    return (-result.best_val_ndcg5, run.model_cfg.d_ffn, run.train_cfg.l2)
