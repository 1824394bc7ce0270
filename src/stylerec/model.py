"""Transformer encoder over product sessions with cosine candidate scoring.

The input at each position concatenates a learnable product embedding, a
fixed sinusoidal positional encoding, and (optionally) a 512-dim style
embedding. Stacked encoder blocks apply multi-head self-attention and a
position-wise feed-forward net, each wrapped in dropout, a residual
connection, and layer normalization. The hidden state at the last real
(non-padding) position, projected back to product-embedding size, acts as
the session's history vector; candidates are scored by cosine similarity
against their product embeddings, and training minimizes a pairwise
softmax cross-entropy between the true next product and one sampled
negative.

Design notes. Positions use the fixed sinusoidal encoding and products a
seeded N(0,1) init. The encoder is bidirectional over the prefix (only the
final item is ever predicted, so no causal mask is needed; padding is
still masked). The feed-forward inner layer defaults to 4x the input
width with ReLU.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple

import numpy as np

from . import records
from . import tensor as T
from .errors import ConfigError, ContractError, FormatError, InputError, MaskError, NumericError, ShapeError
from .kv import format_value, parse_field, parse_value
from .seeding import SeedStream, rng_for
from .style import STYLE_DIM

DEFAULT_MAX_LEN = 20


@dataclass(frozen=True)
class ModelConfig:
    d_product: int = 128
    d_model: int = 128  # positional-encoding width
    n_blocks: int = 2
    n_heads: int = 2
    d_ffn: int = 0  # 0 selects the 4x input_dim default
    dropout: float = 0.1
    use_style: bool = False
    max_len: int = DEFAULT_MAX_LEN

    def __post_init__(self):
        if self.d_product < 1 or self.d_model < 1 or self.n_blocks < 1 or self.n_heads < 1:
            raise ConfigError("model dimensions and counts must be positive")
        if self.d_model % 2:
            raise ConfigError(f"d_model must be even for sin/cos pairs, got {self.d_model}")
        if self.max_len < 2:
            raise ConfigError(f"max_len must be >= 2, got {self.max_len}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.d_ffn == 0:
            object.__setattr__(self, "d_ffn", 4 * self.input_dim)
        if self.d_ffn < 1:
            raise ConfigError(f"d_ffn must be >= 1, got {self.d_ffn}")
        if self.input_dim % self.n_heads:
            raise ConfigError(
                f"input dim {self.input_dim} not divisible into {self.n_heads} heads")

    @property
    def input_dim(self) -> int:
        return self.d_product + self.d_model + (STYLE_DIM if self.use_style else 0)

    @property
    def head_dim(self) -> int:
        return self.input_dim // self.n_heads

    def to_kv(self) -> str:
        return "\n".join(f"{f.name}={format_value(getattr(self, f.name))}"
                         for f in fields(self))

    @classmethod
    def from_kv(cls, text: str) -> "ModelConfig":
        """Parse ``to_kv`` output; a bad, missing, repeated or out-of-range
        key or value raises FormatError."""
        kwargs = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            if key in kwargs:
                raise FormatError(f"model config repeats {key}")
            kwargs[key] = parse_field(cls, key, value, key, FormatError)
        missing = [f.name for f in fields(cls) if f.name not in kwargs]
        if missing:
            raise FormatError(f"model config lacks {', '.join(missing)}")
        try:
            return cls(**kwargs)
        except ConfigError as e:
            raise FormatError(f"model config: {e}") from None


class ModelParams:
    """Named parameter tensors for one model instance."""

    def __init__(self, config: ModelConfig, catalog_size: int, tensors: Dict[str, T.Tensor]):
        self.config = config
        self.catalog_size = catalog_size
        self.tensors = tensors

    def __getitem__(self, name: str) -> T.Tensor:
        return self.tensors[name]

    def items(self):
        return self.tensors.items()

    @property
    def product_emb(self) -> T.Tensor:
        return self.tensors["product_emb"]


def positional_encoding(max_len: int, d_model: int) -> np.ndarray:
    """Fixed sinusoid table: even dims sin(pos/10000^(2i/d)), odd dims cos."""
    if d_model % 2:
        raise ConfigError(f"positional encoding needs even d_model, got {d_model}")
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    i = np.arange(d_model // 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / d_model)
    pe = np.empty((max_len, d_model))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    return pe


def init_product_embeddings(catalog_size: int, d_product: int, seed: int) -> np.ndarray:
    """[(P+1) x d_product] table, rows 1..P standard normal, row 0 zeros."""
    if catalog_size < 1:
        raise ConfigError(f"catalog_size must be >= 1, got {catalog_size}")
    table = np.zeros((catalog_size + 1, d_product))
    table[1:] = rng_for(seed, "product-emb").standard_normal((catalog_size, d_product))
    return table


def param_shapes(config: ModelConfig, catalog_size: int) -> Dict[str, Tuple[int, ...]]:
    """Name and shape of every parameter tensor, in ``init_params`` order."""
    d = config.input_dim
    shapes = {"product_emb": (catalog_size + 1, config.d_product)}
    for b in range(config.n_blocks):
        for h in range(config.n_heads):
            for kind in ("wq", "wk", "wv"):
                shapes[f"block{b}.head{h}.{kind}"] = (d, config.head_dim)
        shapes[f"block{b}.wo"] = (d, d)
        shapes[f"block{b}.ffn.w1"] = (d, config.d_ffn)
        shapes[f"block{b}.ffn.b1"] = (config.d_ffn,)
        shapes[f"block{b}.ffn.w2"] = (config.d_ffn, d)
        shapes[f"block{b}.ffn.b2"] = (d,)
        for ln in ("ln1", "ln2"):
            shapes[f"block{b}.{ln}.gamma"] = shapes[f"block{b}.{ln}.beta"] = (d,)
    shapes["w_out"] = (d, config.d_product)
    return shapes


def init_params(config: ModelConfig, catalog_size: int, seed: int,
                dtype=np.float32) -> ModelParams:
    """Seeded parameter init; each weight matrix draws from its own named
    stream, scaled by 1/sqrt(fan_in); layer-norm gains start at one and
    other vectors at zero."""
    tensors: Dict[str, T.Tensor] = {}
    for name, shape in param_shapes(config, catalog_size).items():
        if name == "product_emb":
            value = init_product_embeddings(catalog_size, config.d_product, seed)
        elif len(shape) == 2:
            value = rng_for(seed, "param", name).standard_normal(shape) / np.sqrt(shape[0])
        else:
            value = np.ones(shape) if name.endswith(".gamma") else np.zeros(shape)
        tensors[name] = T.Tensor(np.asarray(value, dtype=dtype), requires_grad=True)
    return ModelParams(config, catalog_size, tensors)


def _check_ids_mask(ids: np.ndarray, mask: np.ndarray, catalog_size: int) -> Tuple[np.ndarray, np.ndarray]:
    ids = np.asarray(ids)
    mask = np.asarray(mask, dtype=bool)
    if ids.ndim != 2:
        raise ShapeError(f"session batch must be [B, L], got {ids.shape}")
    if mask.shape != ids.shape:
        raise MaskError(f"mask shape {mask.shape} does not match ids {ids.shape}")
    if ids.size and int(ids.max()) > catalog_size:
        raise InputError(f"unknown product id {int(ids.max())} (catalog has {catalog_size})")
    if ids.size and int(ids.min()) < 0:
        raise InputError(f"negative product id {int(ids.min())}")
    # validity must be a prefix: padding only ever follows real items
    if np.any(mask[:, 1:] & ~mask[:, :-1]):
        raise MaskError("validity mask must be contiguous from position 0")
    if np.any(ids[mask] == 0) or np.any(ids[~mask] != 0):
        raise MaskError("mask must flag exactly the non-padding (nonzero id) positions")
    return ids, mask


def build_input(ids: np.ndarray, mask: np.ndarray, params: ModelParams,
                pos_enc: np.ndarray, style_table: Optional[np.ndarray] = None) -> T.Tensor:
    """Concatenate product, positional, and optional style embeddings.

    ``ids``/``mask`` are [B, L]; the result is [B, L, input_dim]. Padding
    positions pick up zero product/style rows but real positional rows.
    """
    cfg = params.config
    ids, mask = _check_ids_mask(ids, mask, params.catalog_size)
    if cfg.use_style and style_table is None:
        raise ContractError("use_style is on but no style table was provided")
    if not cfg.use_style and style_table is not None:
        raise ContractError("style table provided but use_style is off")
    b, length = ids.shape
    if length > pos_enc.shape[0]:
        raise ShapeError(f"session length {length} exceeds positional table {pos_enc.shape[0]}")
    dtype = params.product_emb.dtype
    parts = [T.embedding_lookup(params.product_emb, ids),
             T.Tensor(np.broadcast_to(pos_enc[:length].astype(dtype), (b, length, cfg.d_model)))]
    if cfg.use_style:
        if style_table.shape != (params.catalog_size + 1, STYLE_DIM):
            raise ShapeError(f"style table shape {style_table.shape}, expected "
                             f"{(params.catalog_size + 1, STYLE_DIM)}")
        parts.append(T.Tensor(style_table[ids].astype(dtype, copy=False)))
    return T.concat_last_dim(parts)


def multi_head_attention(h: T.Tensor, params: ModelParams, block: int,
                         mask: np.ndarray) -> T.Tensor:
    """Self-attention with per-head projections, masked padding keys.

    Scores scale by 1/sqrt(input_dim/n_heads); padding keys get exactly
    zero weight; head outputs concatenate and project through W^O.
    """
    cfg = params.config
    if h.data.ndim != 3 or h.shape[-1] != cfg.input_dim:
        raise ShapeError(f"attention input must be [B, L, {cfg.input_dim}], got {h.shape}")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != h.shape[:2]:
        raise MaskError(f"mask shape {mask.shape} does not match input {h.shape}")
    if not mask.any(axis=1).all():
        raise MaskError("a session in the batch has no valid positions")
    key_mask = mask[:, None, :]  # broadcast over query positions
    scaling = 1.0 / np.sqrt(cfg.head_dim)
    heads = []
    for i in range(cfg.n_heads):
        q = T.matmul(h, params[f"block{block}.head{i}.wq"])
        k = T.matmul(h, params[f"block{block}.head{i}.wk"])
        v = T.matmul(h, params[f"block{block}.head{i}.wv"])
        scores = T.scale(T.matmul(q, T.transpose(k)), scaling)
        weights = T.softmax(scores, axis=-1, mask=key_mask)
        heads.append(T.matmul(weights, v))
    return T.matmul(T.concat_last_dim(heads), params[f"block{block}.wo"])


def transformer_block(h: T.Tensor, params: ModelParams, block: int, mask: np.ndarray,
                      seeds: Optional[SeedStream] = None) -> T.Tensor:
    """One encoder block: MHA and FFN sublayers, each with dropout (on when
    ``seeds`` is given), residual connection, and layer normalization."""
    cfg = params.config

    def drop(x):
        seed = seeds.next_seed() if seeds is not None and cfg.dropout > 0.0 else None
        return T.dropout(x, cfg.dropout, seed=seed, mode="eval" if seeds is None else "train")

    att = multi_head_attention(h, params, block, mask)
    h1 = T.layer_norm(T.add(h, drop(att)),
                      params[f"block{block}.ln1.gamma"], params[f"block{block}.ln1.beta"])
    inner = T.relu(T.add(T.matmul(h1, params[f"block{block}.ffn.w1"]),
                         params[f"block{block}.ffn.b1"]))
    ffn = T.add(T.matmul(inner, params[f"block{block}.ffn.w2"]),
                params[f"block{block}.ffn.b2"])
    return T.layer_norm(T.add(h1, drop(ffn)),
                        params[f"block{block}.ln2.gamma"], params[f"block{block}.ln2.beta"])


def encode(ids: np.ndarray, mask: np.ndarray, params: ModelParams, pos_enc: np.ndarray,
           style_table: Optional[np.ndarray] = None,
           seeds: Optional[SeedStream] = None) -> T.Tensor:
    """Run the full encoder stack; returns hidden states [B, L, input_dim].
    Passing ``seeds`` runs dropout in train mode."""
    h = build_input(ids, mask, params, pos_enc, style_table)
    for b in range(params.config.n_blocks):
        h = transformer_block(h, params, b, mask, seeds=seeds)
    return h


def history_vector(hidden: T.Tensor, mask: np.ndarray, params: ModelParams) -> T.Tensor:
    """Hidden state at each session's last valid position, projected to
    d_product by W_out. Output is [B, d_product]."""
    mask = np.asarray(mask, dtype=bool)
    if hidden.data.ndim != 3 or mask.shape != hidden.shape[:2]:
        raise ShapeError(f"history_vector needs [B, L, D] hidden and [B, L] mask, "
                         f"got {hidden.shape} and {mask.shape}")
    counts = mask.sum(axis=1)
    if np.any(counts == 0):
        raise ContractError("a session in the batch has no valid items")
    if np.any(mask[:, 1:] & ~mask[:, :-1]):
        raise MaskError("validity mask must be contiguous from position 0")
    last = T.gather_rows(hidden, counts - 1)
    return T.matmul(last, params["w_out"])


NORM_BLOCK = 4096  # rows per block of product_table's norms


def product_table(params: ModelParams) -> Tuple[np.ndarray, np.ndarray]:
    """The product embeddings as float64 and their row norms, for ``score``.

    Built from the current parameters on each call: ``Adam.step`` updates
    them in place, so a table kept between calls would go stale. Norms
    are taken ``NORM_BLOCK`` rows at a time, which bounds the squared
    temporary; each row's norm is the one ``np.linalg.norm`` gives alone.
    """
    table = params.product_emb.data.astype(np.float64)
    norms = np.empty(len(table))
    for i in range(0, len(table), NORM_BLOCK):
        norms[i:i + NORM_BLOCK] = np.linalg.norm(table[i:i + NORM_BLOCK], axis=1)
    return table, norms


def score(history, candidate_ids, params: ModelParams,
          table: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Cosine similarity between one history vector and candidate embeddings.

    Inference-only: accepts a [d_product] vector (or a 1-row array) and
    returns a float array over candidates. Downstream sorts break ties by
    ascending product id. ``table`` is ``product_table(params)``, built
    once for many calls. A candidate set wider than a quarter of the
    catalog is scored by one product over the whole table, which beats
    gathering its rows; the dot products then agree with the gathered
    ones to within an ulp or two (BLAS sums a row differently by its
    place in the matrix).
    """
    h = np.squeeze(np.asarray(history))
    if h.ndim != 1:
        raise ShapeError(f"score expects one history vector, got shape {h.shape}")
    ids = np.asarray(candidate_ids)
    if ids.size == 0:
        raise ContractError("score needs at least one candidate")
    if ids.min() < 1 or ids.max() > params.catalog_size:
        raise ContractError(f"candidate ids must lie in 1..{params.catalog_size}")
    full, norms = table
    if full.shape != params.product_emb.shape:
        raise ContractError(f"product table {full.shape} does not match the "
                            f"embeddings {params.product_emb.shape}")
    hn = np.linalg.norm(h)
    h64 = h.astype(np.float64)
    en = norms[ids]
    dots = (full @ h64)[ids] if 4 * ids.size > len(full) else full[ids] @ h64
    if hn == 0.0 or np.any(en == 0.0):
        raise NumericError("cosine scoring hit a zero-norm vector")
    return dots / (en * hn)


def pairwise_bce_loss(s_pos: T.Tensor, s_neg: T.Tensor) -> T.Tensor:
    """-ln softmax([s_pos, s_neg])[0], elementwise over paired scores.

    Computed as softplus(s_neg - s_pos) for stability; equal scores give
    ln 2.
    """
    return T.softplus(T.sub(s_neg, s_pos))


# ---------------------------------------------------------------------------
# S4CK checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(params: ModelParams, path) -> None:
    """Write config and all tensors (32-bit floats) to an S4CK file."""
    config_block = (params.config.to_kv() + f"\ncatalog_size={params.catalog_size}").encode("utf-8")
    chunks = [records.pack("I", len(config_block)), config_block]
    for name in sorted(params.tensors):
        raw = name.encode("utf-8")
        arr = np.ascontiguousarray(params.tensors[name].data, dtype="<f4")
        chunks += [records.pack(f"H{len(raw)}sB{arr.ndim}I", len(raw), raw, arr.ndim, *arr.shape),
                   arr.tobytes()]
    records.write(path, b"S4CK", chunks)


def load_checkpoint(path) -> ModelParams:
    """Read an S4CK file back into float32 parameter tensors.

    The file must hold each tensor ``param_shapes`` names for its config
    once, with that shape, in any order; anything else is a FormatError.
    """
    r = records.Reader(path, b"S4CK")
    (cfg_len,) = r.unpack("I", "config length")
    lines = r.text(cfg_len, "checkpoint config block").splitlines()
    sizes = [line for line in lines if line.startswith("catalog_size=")]
    if len(sizes) != 1:
        raise FormatError(f"checkpoint config block needs one catalog_size line, has {len(sizes)}")
    catalog_size = parse_value("int", sizes[0][len("catalog_size="):], "catalog_size", FormatError)
    config = ModelConfig.from_kv("\n".join(line for line in lines if line not in sizes))
    expected = param_shapes(config, catalog_size)
    tensors: Dict[str, T.Tensor] = {}
    while not r.at_end():
        at = r.off
        (name_len,) = r.unpack("H", "tensor name length")
        name = r.text(name_len, "tensor name")
        if name in tensors:
            raise FormatError(f"checkpoint repeats tensor {name!r} at byte {at}")
        if name not in expected:
            raise FormatError(f"checkpoint tensor {name!r} at byte {at} is not in its config")
        (rank,) = r.unpack("B", f"rank of {name}")
        dims = r.unpack(f"{rank}I", f"dims of {name}")
        if dims != expected[name]:
            raise FormatError(f"tensor {name} at byte {at} has shape {dims}, "
                              f"the config needs {expected[name]}")
        tensors[name] = T.Tensor(r.floats(dims, f"data of {name}"), requires_grad=True)
    missing = [name for name in expected if name not in tensors]
    if missing:
        raise FormatError(f"checkpoint lacks {len(missing)} tensor(s): {', '.join(missing)}")
    return ModelParams(config, catalog_size, tensors)
