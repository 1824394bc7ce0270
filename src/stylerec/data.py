"""Session ingestion, preprocessing, temporal splits, synthetic data.

Sessions arrive as one JSON object per line (``session_id``, ``kind``,
``t``, ``items``). Product ids are positive integers; id 0 is reserved
for padding. Preprocessing collapses repeated trailing products, keeps
the last ``max_len`` items of over-long sessions, and drops sessions too
short to form an input/target pair.

The synthetic generator samples Markov sessions (order 1 or 2) from a
seeded transition tensor with one dominant successor per state, so that
learning checks have a known oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ConfigError, InputError
from .seeding import rng_for
from .style import STYLE_DIM

PURCHASE = "purchase"
CART = "cart"
PADDING_ID = 0

# train/val/test fractions follow a 14/2/2 month ratio
DEFAULT_TRAIN_FRAC = 14.0 / 18.0
DEFAULT_VAL_FRAC = 2.0 / 18.0


@dataclass(frozen=True)
class Session:
    """One user's ordered product interactions."""

    session_id: str
    kind: str  # PURCHASE or CART
    t: int  # ordinal timestamp, larger = later
    items: tuple

    def __post_init__(self):
        if self.kind not in (PURCHASE, CART):
            raise InputError(f"session {self.session_id!r}: unknown kind {self.kind!r}")
        items = tuple(self.items)
        if not items:
            raise InputError(f"session {self.session_id!r}: empty item list")
        ints = set(map(type, items)) == {int}
        # numpy integers become int; bools, floats and strings are no ids
        if not ints and all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in items):
            items, ints = tuple(map(int, items)), True
        if not ints or min(items) < 1:
            raise InputError(f"session {self.session_id!r}: item ids must be integers >= 1 (0 is padding)")
        object.__setattr__(self, "items", items)

    def to_row(self) -> dict:
        """The JSON object sessions files and prepared datasets store."""
        return {"session_id": self.session_id, "kind": self.kind, "t": self.t,
                "items": list(self.items)}

    @classmethod
    def from_row(cls, row) -> "Session":
        """Inverse of ``to_row``; a missing or mistyped field raises InputError."""
        if not isinstance(row, dict) or not {"session_id", "kind", "t", "items"} <= row.keys():
            raise InputError("a session must be a JSON object with session_id, kind, t and items")
        return cls(str(row["session_id"]), row["kind"], json_value(row["t"], int, "session t"),
                   tuple(json_value(row["items"], list, "session items")))


def json_value(value, kind: type, what: str):
    """``value`` if it has JSON type ``kind`` (a bool is no int), else an InputError."""
    if not isinstance(value, kind) or kind is int and isinstance(value, bool):
        raise InputError(f"{what} must be a JSON {kind.__name__}, not {value!r}")
    return value


# one session row of a prepared dataset as json.dumps(..., indent=1) nests it
_ROW = '  {{\n   "session_id": {},\n   "kind": {},\n   "t": {},\n   "items": [\n    {}\n   ]\n  }}'


@dataclass
class PreparedDataset:
    """Temporal train/val/test splits after preprocessing."""

    train: list
    val: list
    test: list
    catalog_size: int
    max_len: int

    def all_sessions(self):
        return list(self.train) + list(self.val) + list(self.test)

    def to_json(self) -> str:
        """The text of ``json.dumps(doc, indent=1)``, written row by row from a template."""
        parts = [json.dumps({"catalog_size": self.catalog_size, "max_len": self.max_len,
                             "padding_id": PADDING_ID}, indent=1)[:-2]]
        for name in ("train", "val", "test"):
            rows = ",\n".join(_ROW.format(json.dumps(s.session_id), json.dumps(s.kind), s.t,
                                          ",\n    ".join(map(str, s.items)))
                              for s in getattr(self, name))
            parts.append(f',\n "{name}": [\n{rows}\n ]' if rows else f',\n "{name}": []')
        return "".join(parts) + "\n}"

    @classmethod
    def from_json(cls, text: str) -> "PreparedDataset":
        """Parse ``to_json`` output; malformed or mistyped input raises InputError."""
        try:
            doc = json.loads(text)
            splits = {k: [Session.from_row(r) for r in doc[k]] for k in ("train", "val", "test")}
            if json_value(doc.get("padding_id", PADDING_ID), int, "padding_id") != PADDING_ID:
                raise InputError(f"prepared dataset padding_id must be 0, not {doc['padding_id']!r}")
            catalog_size = json_value(doc["catalog_size"], int, "catalog_size")
            max_len = json_value(doc["max_len"], int, "max_len")
            if catalog_size < 1 or max_len < 2:
                raise InputError(f"prepared dataset needs catalog_size >= 1 and max_len >= 2, "
                                 f"got {catalog_size} and {max_len}")
            for s in splits["train"] + splits["val"] + splits["test"]:
                if len(s.items) < 2 or max(s.items) > catalog_size:
                    raise InputError(f"session {s.session_id!r}: a prepared session needs 2 or more "
                                     f"ids <= catalog_size {catalog_size}, got {list(s.items)}")
            return cls(**splits, catalog_size=catalog_size, max_len=max_len)
        except KeyError as e:
            raise InputError(f"prepared dataset lacks key {e}") from None
        except (TypeError, ValueError) as e:  # JSONDecodeError is a ValueError
            raise InputError(f"malformed prepared dataset: {e}") from None


# ---------------------------------------------------------------------------
# parsing / writing
# ---------------------------------------------------------------------------

def read_text(path) -> str:
    """A UTF-8 file's text; a byte that is not UTF-8 is an InputError naming its line."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line = raw.count(b"\n", 0, e.start) + 1
        raise InputError(f"{path}:{line}: not UTF-8 ({e.reason})") from None


def parse_sessions(path) -> list:
    """Read a JSON-lines sessions file; report malformed lines by number."""
    sessions = []
    seen = set()
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            session = Session.from_row(json.loads(line))
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
        except InputError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        if session.session_id in seen:
            raise InputError(f"{path}:{lineno}: duplicate session_id {session.session_id!r}")
        seen.add(session.session_id)
        sessions.append(session)
    return sessions


def write_sessions(sessions: Iterable[Session], path) -> None:
    """Write sessions in the line format parse_sessions reads."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in sessions:
            fh.write(json.dumps(s.to_row()) + "\n")


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

def dedupe_trailing(items: Sequence[int]) -> list:
    """Collapse a run of the repeated final product to a single occurrence."""
    if not items:
        raise InputError("dedupe_trailing on an empty item list")
    out = list(items)
    while len(out) >= 2 and out[-1] == out[-2]:
        out.pop()
    return out


def truncate_pad(items: Sequence[int], max_len: int = 20):
    """Keep the last ``max_len`` items; pad short lists with 0 as a suffix.

    Returns ``(padded_items, validity_mask)``, both of length max_len.
    """
    if max_len < 2:
        raise ConfigError(f"max_len must be >= 2, got {max_len}")
    kept = list(items)[-max_len:]
    pad = max_len - len(kept)
    return kept + [PADDING_ID] * pad, [True] * len(kept) + [False] * pad


def remove_overlap(purchase_sessions: Sequence[Session], cart_sessions: Sequence[Session]):
    """Drop session identities that appear in both the purchase and cart sets."""
    shared = {s.session_id for s in purchase_sessions} & {s.session_id for s in cart_sessions}
    return (
        [s for s in purchase_sessions if s.session_id not in shared],
        [s for s in cart_sessions if s.session_id not in shared],
    )


def clean_session(session: Session, max_len: int = 20) -> Optional[Session]:
    """Dedupe the trailing repeat and truncate to the last ``max_len`` items.

    Returns None when fewer than 2 items survive (no input/target pair).
    """
    items = dedupe_trailing(session.items)[-max_len:]
    if len(items) < 2:
        return None
    return Session(session.session_id, session.kind, session.t, tuple(items))


def max_product_id(sessions: Sequence[Session]) -> int:
    """The largest product id in ``sessions``: the catalog size they imply."""
    if not sessions:
        raise InputError("no sessions: the catalog size is undefined")
    return max(max(s.items) for s in sessions)


def temporal_split(
    sessions: Sequence[Session],
    max_len: int = 20,
    catalog_size: Optional[int] = None,
) -> PreparedDataset:
    """Split chronologically at 14/2/2: the earliest sessions train, then val, then test.

    Ties on ``t`` break by session_id so the split is deterministic. Cart
    sessions are excluded from the test split.
    """
    ordered = sorted(sessions, key=lambda s: (s.t, s.session_id))
    n = len(ordered)
    n_train = int(round(n * DEFAULT_TRAIN_FRAC))
    n_val = int(round(n * DEFAULT_VAL_FRAC))
    train = ordered[:n_train]
    val = ordered[n_train:n_train + n_val]
    test = [s for s in ordered[n_train + n_val:] if s.kind == PURCHASE]
    if not train or not val or not test:
        raise ConfigError(
            f"empty split: train={len(train)}, val={len(val)}, test={len(test)} from {n} sessions"
        )
    if catalog_size is None:
        catalog_size = max_product_id(ordered)
    return PreparedDataset(train=train, val=val, test=test, catalog_size=catalog_size,
                           max_len=max_len)


def prepare_dataset(
    sessions: Sequence[Session],
    max_len: int = 20,
    catalog_size: Optional[int] = None,
) -> PreparedDataset:
    """Full preprocessing pipeline: overlap removal, per-session cleaning,
    temporal split with purchase-only test."""
    if max_len < 2:
        raise ConfigError(f"max_len must be >= 2, got {max_len}")
    purchases = [s for s in sessions if s.kind == PURCHASE]
    carts = [s for s in sessions if s.kind == CART]
    purchases, carts = remove_overlap(purchases, carts)
    cleaned = []
    for s in purchases + carts:
        c = clean_session(s, max_len=max_len)
        if c is not None:
            cleaned.append(c)
    if not cleaned:
        raise ConfigError("no sessions survive preprocessing")
    return temporal_split(cleaned, max_len=max_len, catalog_size=catalog_size)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def dataset_statistics(sessions: Sequence[Session]) -> dict:
    """Per-kind counts: #Sessions, #Products, Avg.Length, #Actions."""
    stats = {}
    for kind, label in ((PURCHASE, "Purchase"), (CART, "S.Cart")):
        subset = [s for s in sessions if s.kind == kind]
        n_actions = sum(len(s.items) for s in subset)
        products = set()
        for s in subset:
            products.update(s.items)
        stats[label] = {
            "sessions": len(subset),
            "products": len(products),
            "avg_length": (n_actions / len(subset)) if subset else 0.0,
            "actions": n_actions,
        }
    return stats


def format_statistics_table(stats: dict) -> str:
    header = f"{'Datasets':<10} {'#Sessions':>10} {'#Products':>10} {'Avg.Length':>11} {'#Actions':>10}"
    rule = "-" * len(header)
    lines = [header, rule]
    for label, row in stats.items():
        lines.append(
            f"{label:<10} {row['sessions']:>10d} {row['products']:>10d} "
            f"{row['avg_length']:>11.2f} {row['actions']:>10d}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# synthetic data with a known oracle
# ---------------------------------------------------------------------------

@dataclass
class SyntheticOracle:
    """Ground-truth Markov process behind a synthetic dataset.

    ``transition`` has shape [P, P] (order 1) or [P, P, P] (order 2),
    indexed by 0-based item indices (product id = index + 1). Rows along
    the final axis sum to 1.
    """

    transition: np.ndarray
    initial: np.ndarray
    seed: int
    order: int = 1
    cluster_of: Optional[np.ndarray] = None  # 0-based item index -> cluster

    def __post_init__(self):
        sums = self.transition.sum(axis=-1)
        if not np.allclose(sums, 1.0, atol=1e-9):
            raise ConfigError("oracle transition rows must sum to 1")

    def next_distribution(self, prev_items: Sequence[int]) -> np.ndarray:
        """P(next product | history), indexed by 0-based item index."""
        if not prev_items:
            return self.initial
        if self.order == 1:
            return self.transition[prev_items[-1] - 1]
        if len(prev_items) == 1:
            # second item: marginalize the unknown first predecessor
            return self.initial @ self.transition[:, prev_items[-1] - 1, :]
        return self.transition[prev_items[-2] - 1, prev_items[-1] - 1]

    def save(self, path) -> None:
        np.savez(
            path,
            transition=self.transition,
            initial=self.initial,
            seed=np.array(self.seed, dtype=np.int64),
            order=np.array(self.order, dtype=np.int64),
            cluster_of=self.cluster_of if self.cluster_of is not None else np.array([]),
        )


def make_transition(P: int, seed: int, dominant_mass: float = 0.8, order: int = 1,
                    cluster_of: Optional[np.ndarray] = None) -> np.ndarray:
    """Seeded transition tensor with one dominant successor per state.

    The dominant successor never equals the most recent item (it would be
    collapsed by trailing-repeat removal); with ``cluster_of`` it is drawn
    from the current item's cluster.
    """
    if P < 2:
        raise ConfigError("need a catalog of at least 2 products")
    if not 0.0 < dominant_mass < 1.0:
        raise ConfigError("dominant_mass must be in (0, 1)")
    rng = rng_for(seed, "transition", order)
    n_states = P if order == 1 else P * P
    cols = np.empty(n_states, dtype=np.int64)
    for row in range(n_states):
        last = row % P  # most recent item index for this state
        if cluster_of is not None:
            pool = np.flatnonzero(cluster_of == cluster_of[last])
            pool = pool[pool != last]
            if pool.size == 0:
                pool = np.array([i for i in range(P) if i != last])
            cols[row] = pool[rng.integers(0, pool.size)]
        else:
            c = rng.integers(0, P - 1)
            cols[row] = c if c < last else c + 1  # skip the self column
    # each row: dominant_mass on the chosen column, the rest uniform
    flat = np.full((n_states, P), (1.0 - dominant_mass) / (P - 1))
    flat[np.arange(n_states), cols] = dominant_mass
    return flat.reshape((P, P) if order == 1 else (P, P, P))


def generate_synthetic(
    catalog_size: int,
    n_sessions: int,
    length_range=(3, 12),
    seed: int = 0,
    dominant_mass: float = 0.8,
    cart_ratio: float = 0.0,
    order: int = 1,
    cluster_of: Optional[np.ndarray] = None,
):
    """Sample Markov sessions from a seeded dominant-transition oracle.

    Returns ``(sessions, oracle)``. Timestamps are ordinal and increasing;
    each session is flagged cart with probability ``cart_ratio``.
    """
    P = catalog_size
    if P < 2 or n_sessions < 1:
        raise ConfigError("need catalog_size >= 2 and n_sessions >= 1")
    if order not in (1, 2):
        raise ConfigError("order must be 1 or 2")
    lo, hi = length_range
    if lo < 2 or hi < lo:
        raise ConfigError(f"bad length_range {length_range}")
    transition = make_transition(P, seed, dominant_mass=dominant_mass, order=order,
                                 cluster_of=cluster_of)
    initial = np.full(P, 1.0 / P)
    oracle = SyntheticOracle(transition=transition, initial=initial, seed=seed,
                             order=order, cluster_of=cluster_of)
    rng = rng_for(seed, "sessions")
    sessions = []
    for idx in range(n_sessions):
        length = int(rng.integers(lo, hi + 1))
        items = [int(rng.choice(P, p=initial)) + 1]
        while len(items) < length:
            probs = oracle.next_distribution(items)
            items.append(int(rng.choice(P, p=probs)) + 1)
        kind = CART if rng.random() < cart_ratio else PURCHASE
        sessions.append(Session(f"syn{idx:06d}", kind, idx, tuple(items)))
    return sessions, oracle


def generate_style_correlated(
    catalog_size: int,
    n_sessions: int,
    n_clusters: int = 5,
    length_range=(3, 12),
    seed: int = 0,
    dominant_mass: float = 0.8,
    cart_ratio: float = 0.3,
):
    """Markov sessions whose co-purchased items share style clusters.

    Items are assigned to contiguous clusters; each state's dominant
    successor stays within the cluster, and every item's style vector is
    its cluster centroid plus Gaussian noise of deviation 0.1. Returns
    ``(sessions, oracle, style_vectors)`` with style_vectors keyed by
    product id.
    """
    if n_clusters < 2 or catalog_size < 2 * n_clusters:
        raise ConfigError("need >= 2 clusters and >= 2 items per cluster")
    cluster_of = (np.arange(catalog_size) * n_clusters) // catalog_size
    sessions, oracle = generate_synthetic(
        catalog_size, n_sessions, length_range=length_range, seed=seed,
        dominant_mass=dominant_mass, cart_ratio=cart_ratio, order=1,
        cluster_of=cluster_of,
    )
    rng = rng_for(seed, "style-clusters")
    centroids = rng.standard_normal((n_clusters, STYLE_DIM))
    vectors = {}
    for idx in range(catalog_size):
        noise = rng.standard_normal(STYLE_DIM) * 0.1
        vectors[idx + 1] = (centroids[cluster_of[idx]] + noise).astype(np.float32)
    return sessions, oracle, vectors
