"""Gram matrices, style/content losses, and 512-dim product style embeddings.

A product's style embedding is computed from the first two convolutional
layers of a feature provider (64 maps each): per layer, the 64x64 gram of
pairwise feature-map dot products is normalized by map count and size,
max-pooled 4x4 down to 16x16, and flattened; the two layers concatenate to
512 values. Catalog-level standardization brings each dimension to zero
mean and unit variance so the style block does not dwarf the product
embedding under concatenation. Products without images carry zero vectors.

The built-in pseudo provider stands in for a pretrained network: two
seeded, frozen 3x3 conv layers (64 filters, stride 1, same padding, ReLU).
Externally computed activations can be supplied via S4RF files instead.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from . import records
from .errors import ConfigError, ContractError, FormatError, ShapeError
from .seeding import rng_for

STYLE_DIM = 512
_MAPS_PER_LAYER = 64
_POOL = 4


def _as_stack(maps) -> np.ndarray:
    """A layer as an [N, H, W] float64 array; anything else, a list too, is a ShapeError."""
    if not isinstance(maps, np.ndarray) or maps.ndim != 3 or maps.shape[0] < 1:
        raise ShapeError(f"layer must be an [N, H, W] array with N >= 1, "
                         f"got {getattr(maps, 'shape', type(maps).__name__)}")
    return maps.astype(np.float64, copy=False)


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


def content_loss(features_a, features_b) -> float:
    """Half the sum of squared element differences between two stacks."""
    a = np.asarray(features_a, dtype=np.float64)
    b = np.asarray(features_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"content features differ in shape: {a.shape} vs {b.shape}")
    d = a - b
    return 0.5 * float((d * d).sum())


def max_pool2d(matrix: np.ndarray, window: int = _POOL) -> np.ndarray:
    """Non-overlapping window x window max pooling of a 2-D matrix."""
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise ShapeError(f"max_pool2d expects a matrix, got {m.shape}")
    h, w = m.shape
    if h % window or w % window:
        raise ShapeError(f"matrix {m.shape} not divisible into {window}x{window} windows")
    return m.reshape(h // window, window, w // window, window).max(axis=(1, 3))


def extract_style_embedding(layers: Sequence) -> np.ndarray:
    """Two 64-map layers -> 512 values: normalized gram, 4x4 max-pool, flatten.

    Catalog-level standardization is a separate pass (standardize_embeddings).
    """
    if len(layers) != 2:
        raise ConfigError(f"style embedding needs exactly 2 layers, got {len(layers)}")
    parts = []
    for stack in map(_as_stack, layers):
        n, h, w = stack.shape
        if n != _MAPS_PER_LAYER:
            raise ConfigError(f"style embedding needs {_MAPS_PER_LAYER} maps per layer, got {n}")
        g = gram(stack) / (n * h * w)
        parts.append(max_pool2d(g, _POOL).ravel())
    return np.concatenate(parts)


def standardize_embeddings(raw: Dict[int, np.ndarray],
                           image_ids: Optional[Set[int]] = None) -> Dict[int, np.ndarray]:
    """Standardize each of the 512 dims to zero mean / unit variance.

    Statistics come only from products that have images; the rest keep zero
    vectors. Dimensions constant across the catalog are zeroed rather than
    divided by a vanishing deviation.
    """
    if image_ids is None:
        image_ids = set(raw)
    image_ids = set(image_ids) & set(raw)
    if not image_ids:
        raise ConfigError("no products with images to standardize over")
    stack = np.stack([np.asarray(raw[i], dtype=np.float64) for i in sorted(image_ids)])
    mean = stack.mean(axis=0)
    std = stack.std(axis=0)
    safe = np.where(std < 1e-12, 1.0, std)
    out = {}
    for pid in raw:
        if pid in image_ids:
            v = (np.asarray(raw[pid], dtype=np.float64) - mean) / safe
            v[std < 1e-12] = 0.0
        else:
            v = np.zeros(STYLE_DIM)
        out[pid] = v.astype(np.float32)
    return out


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

def _conv2d_same(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """3x3 stride-1 same-padding convolution as one GEMM: [C, H, W] x [F, C*9] -> [F, H, W],
    the filters flattened over (c, i, j) like the nine shifted copies of the input."""
    c, h, w = x.shape
    padded = np.zeros((c, h + 2, w + 2))
    padded[:, 1:-1, 1:-1] = x
    cols = np.empty((c, 3, 3, h, w))
    for i in range(3):
        for j in range(3):
            cols[:, i, j] = padded[:, i:i + h, j:j + w]
    return (weights @ cols.reshape(c * 9, h * w)).reshape(-1, h, w)


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


def pseudo_feature_provider(image: np.ndarray, seed: int) -> List[np.ndarray]:
    """Two frozen seeded conv layers over an H x W (x C) image, H and W at least 8.

    Both layers use 64 bias-free 3x3 filters with same padding and ReLU, so a
    zero image yields zero maps and equal seeds yield bit-identical stacks.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim not in (2, 3) or min(img.shape[:2]) < 8 or not img.size:
        raise ShapeError(f"image must be H x W or H x W x C with H, W >= 8 "
                         f"and C >= 1, got shape {img.shape}")
    if img.ndim == 2:
        img = img[:, :, None]
    w1, w2 = _pseudo_weights(seed, img.shape[2])
    layer1 = np.maximum(_conv2d_same(img.transpose(2, 0, 1), w1), 0.0)
    layer2 = np.maximum(_conv2d_same(layer1, w2), 0.0)
    return [layer1.astype(np.float32), layer2.astype(np.float32)]


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
    """Read an S4SE file; malformed input, a zero or a repeated id names its byte offset."""
    r = records.Reader(path, b"S4SE")
    (count,) = r.unpack("I", "vector count")
    vectors = {}
    for k in range(count):
        at = r.off
        (pid,) = r.unpack("I", f"product id #{k}")
        if pid == 0 or pid in vectors:
            raise FormatError(f"{'repeated' if pid else 'padding'} product id {pid} at byte {at}")
        vectors[pid] = r.floats((STYLE_DIM,), f"style vector for id {pid}")
    r.finish()
    return vectors
