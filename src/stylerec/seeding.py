"""Deterministic seed derivation.

Every random draw in the package flows from one global seed. Sub-seeds are
derived by hashing the root seed together with a string label and optional
integer qualifiers, so independent components (init, shuffling, negative
sampling, dropout) stay reproducible regardless of call order.
"""

import hashlib

import numpy as np


def derive_seed(root: int, *labels) -> int:
    """Derive a 64-bit sub-seed from a root seed and a label path."""
    h = hashlib.sha256()
    h.update(str(int(root)).encode("utf-8"))
    for part in labels:
        h.update(b"/")
        h.update(str(part).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "little")


def rng_for(root: int, *labels) -> np.random.Generator:
    """Generator seeded from ``derive_seed(root, *labels)``."""
    return np.random.default_rng(derive_seed(root, *labels))


class SeedStream:
    """Counter-based stream of sub-seeds for sequenced consumers (dropout).

    Calls are deterministic: the i-th ``next_seed()`` of two streams built
    with the same arguments always agree.
    """

    def __init__(self, root: int, *labels):
        self._root = root
        self._labels = labels
        self._counter = 0

    def next_seed(self) -> int:
        seed = derive_seed(self._root, *self._labels, self._counter)
        self._counter += 1
        return seed
