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
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote  # the quoting json.dumps does
from operator import attrgetter
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
DEFAULT_MAX_LEN = 20
# The longest max_len accepted anywhere: a batch holds [B, max_len, D] arrays, so a
# larger value could only fail inside the work, after a command has claimed its outputs.
MAX_LEN_CAP = 512
# The most entries of a dense synthetic transition (P**2 at order 1, P**3 at order 2):
# far above the P=1,000 first-order oracle, at 800 MB of float64.
TRANSITION_CAP = 10 ** 8
_FIELDS = frozenset(("session_id", "kind", "t", "items"))  # the keys of a session row


@dataclass(frozen=True)
class Session:
    """One user's ordered product interactions."""

    session_id: str
    kind: str  # PURCHASE or CART
    t: int  # ordinal timestamp, larger = later
    items: tuple

    def __post_init__(self):
        # each rule's first test passes the exact types the parser builds, at no call;
        # the types are checked so that the writers' templates match json.dumps
        if type(self.session_id) is not str:
            json_value(self.session_id, str, "session_id")
        if type(self.t) is not int:
            json_value(self.t, int, "session t")
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
        if not isinstance(row, dict) or not _FIELDS <= row.keys():
            raise InputError("a session must be a JSON object with session_id, kind, t and items")
        return cls(row["session_id"], row["kind"], row["t"],
                   tuple(json_value(row["items"], list, "session items")))


def json_value(value, kind: type, what: str):
    """``value`` if it has JSON type ``kind`` (a bool is no int), else an InputError."""
    if not isinstance(value, kind) or kind is int and isinstance(value, bool):
        raise InputError(f"{what} must be a JSON {kind.__name__}, not {value!r}")
    return value


# one session row of a prepared dataset as json.dumps(..., indent=1) nests it
_ROW = '  {{\n   "session_id": {},\n   "kind": {},\n   "t": {},\n   "items": [\n    {}\n   ]\n  }}'


@dataclass(frozen=True)
class PreparedDataset:
    """Temporal train/val/test splits after preprocessing; the constructor owns their
    rules, and as the splits are tuples (lists are converted) it is the only way in."""

    train: tuple
    val: tuple
    test: tuple
    catalog_size: int
    max_len: int

    def __post_init__(self):
        for name in ("train", "val", "test"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.catalog_size < 1 or not 2 <= self.max_len <= MAX_LEN_CAP:
            raise InputError(f"prepared dataset needs catalog_size >= 1 and max_len "
                             f"2..{MAX_LEN_CAP}, got {self.catalog_size} and {self.max_len}")
        if not self.test:
            raise InputError("prepared dataset has an empty test split")
        seen = set()
        for s in self.all_sessions():
            if not 2 <= len(s.items) <= self.max_len or max(s.items) > self.catalog_size:
                raise InputError(f"session {s.session_id!r}: a prepared session needs 2 to "
                                 f"max_len {self.max_len} ids <= catalog_size "
                                 f"{self.catalog_size}, got {list(s.items)}")
            if s.items[-1] == s.items[-2]:  # clean_session collapses a trailing repeat
                raise InputError(f"session {s.session_id!r}: a prepared session ends in "
                                 f"two different ids, got {list(s.items)}")
            if s.session_id in seen:
                raise InputError(f"session {s.session_id!r}: repeated session_id")
            seen.add(s.session_id)
        if cart := next((s for s in self.test if s.kind != PURCHASE), None):
            raise InputError(f"session {cart.session_id!r}: a test session must be a purchase")
        spans = [(name, min(ts), max(ts)) for name in ("train", "val", "test")
                 if (ts := [s.t for s in getattr(self, name)])]  # an empty split has none
        for (before, _, last), (after, first, _) in zip(spans, spans[1:]):
            if last > first:  # a tie may straddle two splits: temporal_split orders it by id
                raise InputError(f"prepared splits out of time order: {before} reaches "
                                 f"t={last}, after {after} begins at t={first}")

    def all_sessions(self) -> tuple:
        return self.train + self.val + self.test

    def to_json(self) -> str:
        """The text of ``json.dumps(doc, indent=1)``, written row by row from a template."""
        parts = [json.dumps({"catalog_size": self.catalog_size, "max_len": self.max_len,
                             "padding_id": PADDING_ID}, indent=1)[:-2]]
        for name in ("train", "val", "test"):
            rows = ",\n".join(_ROW.format(_quote(s.session_id), _quote(s.kind), s.t,
                                          ",\n    ".join(map(str, s.items)))
                              for s in getattr(self, name))
            parts.append(f',\n "{name}": [\n{rows}\n ]' if rows else f',\n "{name}": []')
        return "".join(parts) + "\n}"

    @classmethod
    def from_json(cls, text: str) -> "PreparedDataset":
        """Parse ``to_json`` output; malformed or mistyped input raises InputError."""
        try:
            doc = json.loads(text)
            splits = {k: tuple(map(Session.from_row, doc[k])) for k in ("train", "val", "test")}
            if json_value(doc.get("padding_id", PADDING_ID), int, "padding_id") != PADDING_ID:
                raise InputError(f"prepared dataset padding_id must be 0, not {doc['padding_id']!r}")
            return cls(**splits, catalog_size=json_value(doc["catalog_size"], int, "catalog_size"),
                       max_len=json_value(doc["max_len"], int, "max_len"))
        except KeyError as e:
            raise InputError(f"prepared dataset lacks key {e}") from None
        except (TypeError, ValueError, RecursionError) as e:  # JSONDecodeError is a ValueError
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


_decode = json.JSONDecoder().raw_decode


def _json_row(line: str):
    """``json.loads(line)`` for a stripped line, decoded without its two whitespace scans;
    a line that is not one JSON value goes to ``json.loads``, which raises its own error."""
    try:
        row, end = _decode(line)
    except ValueError:  # a BOM or a bad value; extra data leaves end short
        end = -1
    return row if end == len(line) else json.loads(line)


def parse_sessions(path) -> list:
    """Read a JSON-lines sessions file; report bad lines and same-kind repeats by number."""
    sessions = []
    seen = set()
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            session = Session.from_row(_json_row(line))
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
        except RecursionError:  # the decoder's own depth limit
            raise InputError(f"{path}:{lineno}: invalid JSON (nested too deeply)") from None
        except InputError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        if (key := (session.session_id, session.kind)) in seen:
            raise InputError(f"{path}:{lineno}: duplicate session_id {session.session_id!r}")
        seen.add(key)
        sessions.append(session)
    return sessions


# one sessions-file line as json.dumps(session.to_row()) writes it
_LINE = '{{"session_id": {}, "kind": {}, "t": {}, "items": [{}]}}\n'


def write_sessions(sessions: Iterable[Session], path) -> None:
    """Write sessions in the line format parse_sessions reads, one template per line."""
    with open(path, "w", encoding="utf-8") as fh:  # streamed: no copy of the whole file
        fh.writelines(_LINE.format(_quote(s.session_id), _quote(s.kind), s.t,
                                   ", ".join(map(str, s.items))) for s in sessions)


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

def check_max_len(max_len: int) -> None:
    if max_len < 2:
        raise ConfigError(f"max_len must be >= 2, got {max_len}")
    if max_len > MAX_LEN_CAP:
        raise ConfigError(f"max_len must be <= {MAX_LEN_CAP}, got {max_len}")


def truncate_pad(items: Sequence[int], max_len: int = DEFAULT_MAX_LEN):
    """Keep the last ``max_len`` items; pad short lists with 0 as a suffix.

    Returns ``(padded_items, validity_mask)``, both of length max_len.
    """
    check_max_len(max_len)
    kept = list(items)[-max_len:]
    pad = max_len - len(kept)
    return kept + [PADDING_ID] * pad, [True] * len(kept) + [False] * pad


def clean_session(session: Session, max_len: int = DEFAULT_MAX_LEN) -> Optional[Session]:
    """Collapse a run of the repeated final product to one occurrence, then keep the
    last ``max_len`` items; None when fewer than 2 survive (no input/target pair)."""
    items, end = session.items, len(session.items)
    while end >= 2 and items[end - 1] == items[end - 2]:
        end -= 1
    items = items[:end][-max_len:]
    if len(items) < 2:
        return None
    if len(items) == len(session.items):  # both steps only cut, so nothing changed
        return session
    return Session(session.session_id, session.kind, session.t, items)


def max_product_id(sessions: Sequence[Session]) -> int:
    """The largest product id in ``sessions``: the catalog size they imply."""
    if not sessions:
        raise InputError("no sessions: the catalog size is undefined")
    return max(max(s.items) for s in sessions)


def temporal_split(
    sessions: Sequence[Session],
    max_len: int = DEFAULT_MAX_LEN,
    catalog_size: Optional[int] = None,
) -> PreparedDataset:
    """Split chronologically at 14/2/2: the earliest sessions train, then val, then test.

    Ties on ``t`` break by session_id so the split is deterministic. Cart
    sessions are excluded from the test split.
    """
    ordered = sorted(sessions, key=attrgetter("t", "session_id"))
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
    max_len: int = DEFAULT_MAX_LEN,
    catalog_size: Optional[int] = None,
) -> PreparedDataset:
    """In one pass, drop every id that names a purchase and a cart session and clean
    the other sessions; then split by time with a purchase-only test."""
    check_max_len(max_len)
    kind_of, cleaned = {}, []  # session_id -> its kind, or None once it names both
    for s in sessions:
        if kind_of.setdefault(s.session_id, s.kind) != s.kind:
            kind_of[s.session_id] = None
        elif (c := clean_session(s, max_len=max_len)) is not None:
            cleaned.append(c)
    cleaned = [c for c in cleaned if kind_of[c.session_id]]
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
        subset = [s.items for s in sessions if s.kind == kind]
        n_actions = sum(map(len, subset))
        stats[label] = {
            "sessions": len(subset),
            "products": len(set().union(*subset)),
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


def check_generator_args(catalog_size: int, n_sessions: int = 1, *, length_range=(3, 12),
                         dominant_mass: float = 0.8, cart_ratio: float = 0.0, order: int = 1,
                         n_clusters: Optional[int] = None, seed: int = 0) -> None:
    """A ConfigError unless the synthetic generators take these arguments; with
    ``n_clusters``, as ``generate_style_correlated`` takes them."""
    if not -2 ** 63 <= seed < 2 ** 63:  # the oracle stores it as an int64
        raise ConfigError(f"seed must fit in a signed 64-bit integer, got {seed}")
    if catalog_size < 2 or n_sessions < 1:
        raise ConfigError("need catalog_size >= 2 and n_sessions >= 1")
    if order not in (1, 2):
        raise ConfigError("order must be 1 or 2")
    if catalog_size ** (order + 1) > TRANSITION_CAP:
        raise ConfigError(f"a dense order-{order} transition over {catalog_size} products "
                          f"exceeds the cap of {TRANSITION_CAP} entries")
    lo, hi = length_range
    if lo < 2 or hi < lo:
        raise ConfigError(f"bad length_range {length_range}")
    if not 0.0 < dominant_mass < 1.0:
        raise ConfigError("dominant_mass must be in (0, 1)")
    if not 0.0 <= cart_ratio <= 1.0:  # a NaN fails here too
        raise ConfigError(f"cart_ratio must be in [0, 1], got {cart_ratio}")
    if n_clusters is not None and (n_clusters < 2 or catalog_size < 2 * n_clusters):
        raise ConfigError("need >= 2 clusters and >= 2 items per cluster")
    if n_clusters is not None and order != 1:
        raise ConfigError(f"style-correlated sessions are first order, got order {order}")


def make_transition(P: int, seed: int, dominant_mass: float = 0.8, order: int = 1,
                    cluster_of: Optional[np.ndarray] = None) -> np.ndarray:
    """Seeded transition tensor with one dominant successor per state.

    The dominant successor never equals the most recent item (it would be
    collapsed by trailing-repeat removal); with ``cluster_of`` it is drawn
    from the current item's cluster.
    """
    check_generator_args(P, dominant_mass=dominant_mass, order=order)
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
    check_generator_args(P, n_sessions, length_range=length_range, dominant_mass=dominant_mass,
                         cart_ratio=cart_ratio, order=order, seed=seed)
    lo, hi = length_range
    transition = make_transition(P, seed, dominant_mass=dominant_mass, order=order,
                                 cluster_of=cluster_of)
    initial = np.full(P, 1.0 / P)
    oracle = SyntheticOracle(transition=transition, initial=initial, seed=seed,
                             order=order, cluster_of=cluster_of)
    rng = rng_for(seed, "sessions")
    sessions = []
    cdfs = {}  # history suffix -> CDF of the next item, built on the state's first visit
    for idx in range(n_sessions):
        length = int(rng.integers(lo, hi + 1))
        draws = rng.random(length + 1)  # one per item, then the cart flag's
        items = []
        for u in draws[:length]:
            state = tuple(items[-order:])
            if (cdf := cdfs.get(state)) is None:  # Generator.choice's own CDF, built once
                cdf = cdfs[state] = np.cumsum(oracle.next_distribution(state))
                cdf /= cdf[-1]
            items.append(int(cdf.searchsorted(u, side="right")) + 1)
        kind = CART if draws[length] < cart_ratio else PURCHASE
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
    check_generator_args(catalog_size, n_sessions, length_range=length_range,
                         dominant_mass=dominant_mass, cart_ratio=cart_ratio, n_clusters=n_clusters,
                         seed=seed)
    cluster_of = (np.arange(catalog_size) * n_clusters) // catalog_size
    sessions, oracle = generate_synthetic(
        catalog_size, n_sessions, length_range=length_range, seed=seed,
        dominant_mass=dominant_mass, cart_ratio=cart_ratio, order=1,
        cluster_of=cluster_of,
    )
    rng = rng_for(seed, "style-clusters")
    centroids = rng.standard_normal((n_clusters, STYLE_DIM))
    noisy = centroids[cluster_of] + rng.standard_normal((catalog_size, STYLE_DIM)) * 0.1
    return sessions, oracle, dict(enumerate(noisy.astype(np.float32), start=1))
