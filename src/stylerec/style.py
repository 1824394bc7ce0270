"""Gram matrices, the style loss, and 512-dim product style embeddings.

A product's style embedding is computed from the first two convolutional
layers of a feature provider (64 maps each): per layer, the 64x64 gram of
pairwise feature-map dot products is normalized by map count and size,
max-pooled 4x4 down to 16x16, and flattened; the two layers concatenate to
512 values. Catalog-level standardization brings each dimension to zero
mean and unit variance so the style block does not dwarf the product
embedding under concatenation; the stylegen command gives image-less products zeros.

The built-in pseudo provider stands in for a pretrained network: two
seeded, frozen 3x3 conv layers (64 filters, stride 1, same padding, ReLU).
Externally computed activations can be supplied via S4RF files instead.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import records
from .errors import ConfigError, ContractError, FormatError, ShapeError
from .seeding import rng_for

STYLE_DIM = 512
_MAPS_PER_LAYER = 64
_POOL = 4


def _as_stack(maps, scratch: Optional[dict] = None) -> np.ndarray:
    """A layer as an [N, H, W] float64 array, widened into ``scratch``'s "wide" buffer
    when one is given; anything else, a list too, is a ShapeError."""
    if not isinstance(maps, np.ndarray) or maps.ndim != 3 or maps.shape[0] < 1:
        raise ShapeError(f"layer must be an [N, H, W] array with N >= 1, "
                         f"got {getattr(maps, 'shape', type(maps).__name__)}")
    if scratch is None or maps.dtype == np.float64:
        return maps.astype(np.float64, copy=False)
    wide = _take(scratch, "wide", maps.shape)
    np.copyto(wide, maps)
    return wide


def gram(maps) -> np.ndarray:
    """Pairwise dot products of flattened feature maps: [N, H, W] -> [N, N]."""
    stack = _as_stack(maps)
    flat = stack.reshape(stack.shape[0], -1)
    # both operands view one buffer, so numpy computes one triangle (BLAS syrk)
    # and copies it to the other: the result is exactly symmetric
    return flat @ flat.T


def style_loss(input_grams: Sequence[np.ndarray], style_grams: Sequence[np.ndarray],
               weights: Sequence[float], n_maps: Sequence[int],
               map_sizes: Sequence[int]) -> float:
    """Weighted sum over layers of sum((G_in - G_style)^2) / (4 N^2 M^2)."""
    if not (len(input_grams) == len(style_grams) == len(weights) == len(n_maps) == len(map_sizes)):
        raise ShapeError("per-layer argument lists must have equal length")
    total = 0.0
    for g_in, g_st, w, n, m in zip(input_grams, style_grams, weights, n_maps, map_sizes):
        if g_in.shape != g_st.shape:
            raise ShapeError(f"gram shape mismatch {g_in.shape} vs {g_st.shape}")
        diff = np.asarray(g_in, dtype=np.float64) - np.asarray(g_st, dtype=np.float64)
        total += w * float((diff * diff).sum()) / (4.0 * n * n * m * m)
    return total


def max_pool2d(matrix: np.ndarray, window: int = _POOL) -> np.ndarray:
    """Non-overlapping window x window max pooling of a 2-D matrix."""
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise ShapeError(f"max_pool2d expects a matrix, got {m.shape}")
    h, w = m.shape
    if h % window or w % window:
        raise ShapeError(f"matrix {m.shape} not divisible into {window}x{window} windows")
    return m.reshape(h // window, window, w // window, window).max(axis=(1, 3))


def extract_style_embedding(layers: Sequence, scratch: Optional[dict] = None) -> np.ndarray:
    """Two 64-map layers -> 512 values: normalized gram, 4x4 max-pool, flatten.

    Catalog-level standardization is a separate pass (standardize_embeddings).
    ``scratch`` is as for ``pseudo_feature_provider``.
    """
    if len(layers) != 2:
        raise ConfigError(f"style embedding needs exactly 2 layers, got {len(layers)}")
    parts = []
    for maps in layers:
        stack = _as_stack(maps, scratch)
        n, h, w = stack.shape
        if n != _MAPS_PER_LAYER:
            raise ConfigError(f"style embedding needs {_MAPS_PER_LAYER} maps per layer, got {n}")
        g = gram(stack) / (n * h * w)
        parts.append(max_pool2d(g, _POOL).ravel())
    return np.concatenate(parts)


def standardize_embeddings(raw: Dict[int, np.ndarray]) -> Dict[int, np.ndarray]:
    """Standardize each of the 512 dims to zero mean / unit variance over ``raw``.

    Pass only the products that have images. Dimensions constant across
    them are zeroed rather than divided by a vanishing deviation.
    """
    if not raw:
        raise ConfigError("no products with images to standardize over")
    ids = sorted(raw)
    stack = np.stack([np.asarray(raw[i], dtype=np.float64) for i in ids])
    std = stack.std(axis=0)
    out = (stack - stack.mean(axis=0)) / np.where(std < 1e-12, 1.0, std)
    out[:, std < 1e-12] = 0.0
    return dict(zip(ids, out.astype(np.float32)))


def style_table(catalog_size: int, vectors: Dict[int, np.ndarray]) -> np.ndarray:
    """[(P+1), 512] lookup table; row 0 (padding) and image-less rows are zero."""
    table = np.zeros((catalog_size + 1, STYLE_DIM), dtype=np.float32)
    for pid, vec in vectors.items():
        if not 1 <= pid <= catalog_size:
            raise ContractError(f"style vector for id {pid} outside catalog 1..{catalog_size}")
        v = np.asarray(vec, dtype=np.float32)
        if v.shape != (STYLE_DIM,):
            raise ShapeError(f"style vector for id {pid} has shape {v.shape}")
        table[pid] = v
    return table


# ---------------------------------------------------------------------------
# pseudo feature provider
# ---------------------------------------------------------------------------

def _take(scratch: dict, role: str, shape, dtype=np.float64) -> np.ndarray:
    """A work array of ``shape``, a view of ``scratch[role]``, which is replaced by a
    larger buffer when it is too small. glibc keeps a buffer in the heap of the thread
    that allocates it, so a caller sizes a worker's buffers where it wants them."""
    n = math.prod(shape)
    buf = scratch.get(role)
    if buf is None or buf.size < n:
        buf = scratch[role] = np.empty(n, dtype)
    return buf[:n].reshape(shape)


def _conv2d_same(x: np.ndarray, weights: np.ndarray, scratch: dict) -> np.ndarray:
    """3x3 stride-1 same-padding convolution as one GEMM: [C, H, W] x [F, C*9] -> [F, H, W],
    the filters flattened over (c, i, j) like the nine shifted copies of the input. The
    result is ``scratch``'s "out" buffer, which ``x`` may be: it is read before the GEMM."""
    c, h, w = x.shape
    padded = _take(scratch, "padded", (c, h + 2, w + 2))
    padded.fill(0.0)
    padded[:, 1:-1, 1:-1] = x
    cols = _take(scratch, "cols", (c, 3, 3, h, w))
    for i in range(3):
        for j in range(3):
            cols[:, i, j] = padded[:, i:i + h, j:j + w]
    out = _take(scratch, "out", (weights.shape[0], h * w))
    return np.matmul(weights, cols.reshape(c * 9, h * w), out=out).reshape(-1, h, w)


@functools.lru_cache(maxsize=16)
def _pseudo_weights(seed: int, c: int):
    """Both frozen filter banks as read-only [64, C*9] and [64, 576] matrices; keyed
    on ``c`` too, because the second bank's draw follows the first's C*64*9 normals."""
    rng = rng_for(seed, "pseudo-features")
    w1 = rng.standard_normal((_MAPS_PER_LAYER, c, 3, 3)) / np.sqrt(9.0 * c)
    w2 = rng.standard_normal((_MAPS_PER_LAYER, _MAPS_PER_LAYER, 3, 3)) / np.sqrt(9.0 * _MAPS_PER_LAYER)
    banks = (w1.reshape(_MAPS_PER_LAYER, -1), w2.reshape(_MAPS_PER_LAYER, -1))
    for bank in banks:
        bank.flags.writeable = False
    return banks


def pseudo_feature_provider(image: np.ndarray, seed: int,
                            scratch: Optional[dict] = None) -> List[np.ndarray]:
    """Two frozen seeded conv layers over an H x W (x C) image, H and W at least 8.

    Both layers use 64 bias-free 3x3 filters with same padding and ReLU, so a
    zero image yields zero maps and equal seeds yield bit-identical stacks.
    ``scratch``, a dict that one thread at a time passes, holds the work buffers
    from call to call, and the returned float32 maps too: they then last until
    the next call with it.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim not in (2, 3) or min(img.shape[:2]) < 8 or not img.size:
        raise ShapeError(f"image must be H x W or H x W x C with H, W >= 8 "
                         f"and C >= 1, got shape {img.shape}")
    if img.ndim == 2:
        img = img[:, :, None]
    w1, w2 = _pseudo_weights(seed, img.shape[2])
    scratch = {} if scratch is None else scratch
    maps, layer = [], img.transpose(2, 0, 1)
    for role, bank in (("map1", w1), ("map2", w2)):
        layer = _conv2d_same(layer, bank, scratch)
        np.maximum(layer, 0.0, out=layer)
        maps.append(_take(scratch, role, layer.shape, np.float32))
        np.copyto(maps[-1], layer, casting="same_kind")  # before layer 2 reuses the buffer
    return maps


# ---------------------------------------------------------------------------
# S4RF feature-map files and S4SE embedding caches
# ---------------------------------------------------------------------------

def write_feature_maps(layers: Sequence[np.ndarray], path) -> None:
    """Write a feature-map stack in the S4RF binary format."""
    chunks = [records.pack("I", len(layers))]
    for stack in layers:
        arr = np.ascontiguousarray(np.asarray(stack, dtype=np.float32))
        if arr.ndim != 3:
            raise ShapeError(f"S4RF layer must be [N, H, W], got {arr.shape}")
        chunks += [records.pack("3I", *arr.shape), arr.astype("<f4").tobytes()]
    records.write(path, b"S4RF", chunks)


def load_feature_maps(path) -> List[np.ndarray]:
    """Read an S4RF file; malformed input reports the failing byte offset."""
    r = records.Reader(path, b"S4RF")
    (layer_count,) = r.unpack("I", "layer count")
    layers = []
    for k in range(layer_count):
        dims = r.unpack("3I", f"layer {k} dims")
        layers.append(r.floats(dims, f"layer {k} data ({'x'.join(map(str, dims))})"))
    r.finish()
    return layers


def save_style_cache(vectors: Dict[int, np.ndarray], path) -> None:
    """Write per-product 512-dim style vectors in the S4SE binary format."""
    chunks = [records.pack("I", len(vectors))]
    for pid in sorted(vectors):
        if pid < 1:
            raise ContractError(f"product id must be >= 1, got {pid}")
        vec = np.asarray(vectors[pid], dtype=np.float32)
        if vec.shape != (STYLE_DIM,):
            raise ShapeError(f"style vector for id {pid} has shape {vec.shape}, need ({STYLE_DIM},)")
        chunks += [records.pack("I", pid), vec.astype("<f4").tobytes()]
    records.write(path, b"S4SE", chunks)


def load_style_cache(path) -> Dict[int, np.ndarray]:
    """Read an S4SE file, its ids ascending from 1; malformed input, an id out of that
    order and a NaN or infinite value name their byte offset."""
    r = records.Reader(path, b"S4SE")
    (count,) = r.unpack("I", "vector count")
    vectors, last = {}, 0
    for k in range(count):
        at = r.off
        (pid,) = r.unpack("I", f"product id #{k}")
        if pid <= last:
            what = "padding" if pid == 0 else "repeated" if pid == last else "out-of-order"
            raise FormatError(f"{what} product id {pid} at byte {at}: the ids ascend from 1")
        last = pid
        vectors[pid] = vec = r.floats((STYLE_DIM,), f"style vector for id {pid}")
        if not np.isfinite(vec).all():
            bad = at + 4 + 4 * int(np.isfinite(vec).argmin())
            raise FormatError(f"non-finite value in the style vector for id {pid} at byte {bad}")
    r.finish()
    return vectors
