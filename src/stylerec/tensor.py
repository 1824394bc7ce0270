"""Dense tensors with reverse-mode automatic differentiation.

A deliberately small op catalog: exactly what the session encoder needs.
Arrays are numpy-backed; the tape is a DAG of ``TapeNode`` records walked
in reverse topological order by :func:`backward`. Ops are defined for the
2-D shapes the contracts state and additionally accept a leading batch
axis where the encoder stacks sessions (e.g. ``[B, L, d]``).

Every op validates that its forward output is finite; NaN/Inf raises
:class:`~stylerec.errors.NumericError` at the op that produced it.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError, MaskError, NumericError, ShapeError

DEFAULT_DTYPE = np.float64

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (read-only inference)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class TapeNode:
    """One recorded op: its id, input tensors, and the VJP closure.

    ``vjp(grad_out)`` returns one gradient array per parent (or None for
    parents that do not require grad). Saved forward values live inside
    the closure.
    """

    __slots__ = ("op", "parents", "vjp")

    def __init__(self, op: str, parents: tuple, vjp: Callable):
        self.op = op
        self.parents = parents
        self.vjp = vjp


class Tensor:
    """Dense array plus autodiff metadata.

    ``data`` is row-major. Use float64 for gradient checking, float32 for
    training. ``training.Adam`` updates its parameters' ``data`` in place.
    """

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        if not np.all(np.isfinite(arr)):
            raise NumericError("tensor constructed with non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.node: Optional[TapeNode] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(data: np.ndarray, op: str, parents: Sequence[Tensor], vjp: Callable) -> Tensor:
    """Wrap an op output, recording a tape node when gradients can flow."""
    if not np.all(np.isfinite(data)):
        raise NumericError(f"non-finite values produced by op '{op}'")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.node = TapeNode(op, tuple(parents), vjp)
    else:
        out.requires_grad = False
        out.node = None
    return out


# ---------------------------------------------------------------------------
# op catalog
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Matrix product ``a @ b``.

    2-D operands follow the classic [m,k]x[k,n] contract. A 3-D left
    operand is treated as a stack of matrices; the right operand may be
    shared (2-D) or stacked (3-D). A stack times a shared matrix runs as
    one 2-D GEMM over the flattened leading axes, forward and backward.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2 or ad.ndim > 3 or bd.ndim > 3:
        raise ShapeError(f"matmul supports 2-D/3-D operands, got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {ad.shape} @ {bd.shape}")
    if ad.ndim == 2 and bd.ndim == 3:
        raise ShapeError("matmul with stacked right and flat left operand is unsupported")
    if ad.ndim == 3 and bd.ndim == 3 and ad.shape[0] != bd.shape[0]:
        raise ShapeError(f"matmul batch dims differ: {ad.shape} @ {bd.shape}")
    shared = ad.ndim == 3 and bd.ndim == 2
    k, n = bd.shape[-2:]
    if shared:
        out = (ad.reshape(-1, k) @ bd).reshape(ad.shape[:-1] + (n,))
    else:
        out = ad @ bd

    def vjp(g):
        ga = gb = None
        if a.requires_grad:
            if shared:
                ga = (g.reshape(-1, n) @ bd.T).reshape(ad.shape)
            else:
                ga = g @ np.swapaxes(bd, -1, -2)
        if b.requires_grad:
            if shared:
                gb = ad.reshape(-1, k).T @ g.reshape(-1, n)
            else:
                gb = np.swapaxes(ad, -1, -2) @ g
        return ga, gb

    return _result(out, "matmul", (a, b), vjp)


def transpose(x) -> Tensor:
    """Swap the last two axes."""
    x = _as_tensor(x)
    if x.data.ndim < 2:
        raise ShapeError("transpose needs at least 2 axes")
    out = np.swapaxes(x.data, -1, -2)

    def vjp(g):
        return (np.swapaxes(g, -1, -2),)

    return _result(out, "transpose", (x,), vjp)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient over axes that were broadcast to reach ``g.shape``."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a, b) -> Tensor:
    """Elementwise sum; the smaller operand may broadcast (bias rows)."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data + b.data
    except ValueError as exc:
        raise ShapeError(f"add shapes incompatible: {a.shape} + {b.shape}") from exc

    def vjp(g):
        ga = _unbroadcast(g, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g, b.shape) if b.requires_grad else None
        return ga, gb

    return _result(out, "add", (a, b), vjp)


def sub(a, b) -> Tensor:
    return add(a, scale(b, -1.0))


def scale(x, c: float) -> Tensor:
    """Multiply by a python scalar constant."""
    x = _as_tensor(x)
    c = float(c)
    out = x.data * c

    def vjp(g):
        return (g * c,)

    return _result(out, "scale", (x,), vjp)


def relu(x) -> Tensor:
    x = _as_tensor(x)
    out = np.maximum(x.data, 0)

    def vjp(g):
        return (g * (x.data > 0),)

    return _result(out, "relu", (x,), vjp)


def softplus(x) -> Tensor:
    """log(1 + exp(x)), computed stably; derivative is the logistic."""
    x = _as_tensor(x)
    out = np.logaddexp(x.data * 0, x.data)

    def vjp(g):
        sig = 0.5 * (np.tanh(0.5 * x.data) + 1.0)
        return (g * sig,)

    return _result(out, "softplus", (x,), vjp)


def _mask_array(mask) -> np.ndarray:
    m = mask.data if isinstance(mask, Tensor) else np.asarray(mask)
    return m.astype(bool)


def softmax(x, axis: int = -1, mask=None) -> Tensor:
    """Normalized exponentials along ``axis``, stabilized by max-subtraction.

    ``mask`` is a boolean validity indicator broadcastable to ``x``:
    False entries are excluded and get weight exactly 0. A slice with no
    valid entry raises :class:`MaskError`.
    """
    x = _as_tensor(x)
    xd = x.data
    if mask is not None:
        m = np.broadcast_to(_mask_array(mask), xd.shape)
        if not np.all(np.any(m, axis=axis)):
            raise MaskError("softmax slice with every entry masked out")
        shifted = np.where(m, xd, -np.inf)
    else:
        shifted = xd
    shifted = shifted - shifted.max(axis=axis, keepdims=True)
    e = np.exp(shifted)  # masked entries: exp(-inf) == 0 exactly
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _result(out, "softmax", (x,), vjp)


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize each slice along the last axis, then scale and shift."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm gamma/beta must have shape ({d},)")
    if eps <= 0:
        raise ContractError("layer_norm eps must be positive")
    mean = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    out = gamma.data * xhat + beta.data

    def vjp(g):
        gx = ggamma = gbeta = None
        if gamma.requires_grad:
            ggamma = (g * xhat).reshape(-1, d).sum(axis=0)
        if beta.requires_grad:
            gbeta = g.reshape(-1, d).sum(axis=0)
        if x.requires_grad:
            gh = g * gamma.data
            gx = inv_std * (
                gh
                - gh.mean(axis=-1, keepdims=True)
                - xhat * (gh * xhat).mean(axis=-1, keepdims=True)
            )
        return gx, ggamma, gbeta

    return _result(out, "layer_norm", (x, gamma, beta), vjp)


def dropout(x, p: float, seed: Optional[int] = None, mode: str = "train",
            shape: Optional[tuple] = None) -> Tensor:
    """Inverted dropout: train mode zeroes with prob ``p`` and rescales
    survivors by 1/(1-p); eval mode is the identity. The keep mask is drawn
    at ``shape`` (default x's) and cut to x's leading extent on each axis."""
    x = _as_tensor(x)
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout p must be in [0, 1), got {p}")
    if mode not in ("train", "eval"):
        raise ContractError(f"dropout mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval" or p == 0.0:
        return x
    if seed is None:
        raise ContractError("train-mode dropout needs an explicit seed")
    draw = np.random.default_rng(seed).random(x.shape if shape is None else shape)
    keep = (draw[tuple(map(slice, x.shape))] >= p).astype(x.dtype) * (1.0 / (1.0 - p))
    out = x.data * keep

    def vjp(g):
        return (g * keep,)

    return _result(out, "dropout", (x,), vjp)


def concat_last_dim(parts: Sequence) -> Tensor:
    """Concatenate tensors along the last axis."""
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ContractError("concat_last_dim of an empty list")
    lead = parts[0].shape[:-1]
    for p in parts:
        if p.shape[:-1] != lead:
            raise ShapeError(f"concat_last_dim leading dims differ: {[p.shape for p in parts]}")
    out = np.concatenate([p.data for p in parts], axis=-1)
    widths = [p.shape[-1] for p in parts]
    offsets = np.cumsum([0] + widths)

    def vjp(g):
        return tuple(
            g[..., offsets[i]:offsets[i + 1]] if p.requires_grad else None
            for i, p in enumerate(parts)
        )

    return _result(out, "concat_last_dim", tuple(parts), vjp)


def embedding_lookup(table, ids) -> Tensor:
    """Gather rows of ``table`` by integer id; grads scatter-add back."""
    table = _as_tensor(table)
    idx = np.asarray(ids)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ContractError("embedding ids must be integers")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError(
            f"embedding id out of range [0, {table.shape[0]}): {int(idx.min())}..{int(idx.max())}"
        )
    out = table.data[idx]

    def vjp(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return (gt,)

    return _result(out, "embedding_lookup", (table,), vjp)


def gather_rows(x, indices) -> Tensor:
    """Pick one row per matrix: ``x[b, indices[b], :]`` (or ``x[i]`` in 2-D)."""
    x = _as_tensor(x)
    if x.data.ndim not in (2, 3):
        raise ShapeError("gather_rows expects a 2-D or 3-D tensor")
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer) or idx.shape != x.shape[:-2]:
        raise ShapeError(f"need one integer row index per matrix of {x.shape}, "
                         f"got {idx.dtype} of shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[-2]):
        raise ShapeError(f"row index out of range for shape {x.shape}")
    at = (np.arange(x.shape[0]),) * (x.data.ndim == 3) + (idx,)
    out = x.data[at]

    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[at] = g
        return (gx,)

    return _result(out, "gather_rows", (x,), vjp)


def cosine_similarity(u, v) -> Tensor:
    """<u,v>/(|u||v|) for vectors, or row-wise for matching 2-D stacks."""
    u, v = _as_tensor(u), _as_tensor(v)
    if u.shape != v.shape or u.data.ndim not in (1, 2):
        raise ShapeError(f"cosine_similarity needs matching 1-D/2-D shapes, got {u.shape}, {v.shape}")
    ud, vd = u.data, v.data
    nu = np.linalg.norm(ud, axis=-1)
    nv = np.linalg.norm(vd, axis=-1)
    if np.any(nu == 0) or np.any(nv == 0):
        raise NumericError("cosine_similarity with a zero-norm vector")
    dot = (ud * vd).sum(axis=-1)
    out = dot / (nu * nv)

    def vjp(g):
        gu = gv = None
        ge = np.expand_dims(g, -1)
        nu_ = np.expand_dims(nu, -1)
        nv_ = np.expand_dims(nv, -1)
        cos = np.expand_dims(out, -1)
        if u.requires_grad:
            gu = ge * (vd / (nu_ * nv_) - cos * ud / (nu_ * nu_))
        if v.requires_grad:
            gv = ge * (ud / (nu_ * nv_) - cos * vd / (nv_ * nv_))
        return gu, gv

    return _result(out, "cosine_similarity", (u, v), vjp)


def sum_all(x) -> Tensor:
    """Sum of every element (scalar output)."""
    x = _as_tensor(x)
    out = np.asarray(x.data.sum())

    def vjp(g):
        return (np.broadcast_to(g, x.shape).copy(),)

    return _result(out, "sum_all", (x,), vjp)


def mean_all(x) -> Tensor:
    """Mean of every element (scalar output)."""
    x = _as_tensor(x)
    n = x.data.size
    return scale(sum_all(x), 1.0 / n)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> dict:
    """Reverse-mode sweep from a scalar loss.

    Returns a map ``{tensor: gradient array}`` covering every leaf in
    the recorded graph that requires grad. Gradients match their tensor's
    dims. Each leaf's ``.grad`` accumulates across calls: a leaf without
    one gets a private copy of its gradient, and a leaf with one has the
    gradient added into that array in place, so the parameters of an
    ``Adam`` accumulate into its ``grad`` buffer. Nothing here clears it;
    the caller owns zeroing. The returned arrays are the ``.grad`` arrays
    themselves, so a later call on the same leaves changes them.
    """
    if not isinstance(loss, Tensor):
        raise ContractError("backward expects a Tensor")
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ContractError("loss does not require grad; nothing recorded on the tape")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack = [(loss, False)]
    while stack:  # iterative DFS; graphs can exceed the recursion limit
        t, expanded = stack.pop()
        if expanded:
            topo.append(t)
            continue
        if id(t) in visited:
            continue
        visited.add(id(t))
        stack.append((t, True))
        if t.node is not None:
            for p in t.node.parents:
                if id(p) not in visited:
                    stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    result: dict[Tensor, np.ndarray] = {}
    for t in reversed(topo):
        g = grads.pop(id(t), None)
        if g is None:
            continue
        if t.requires_grad and t.node is None:
            # leaf parameter
            if t.grad is None:
                t.grad = g.copy()  # vjps may hand one array to several parents
            else:
                t.grad += g
            result[t] = t.grad
        if t.node is not None:
            for p, gp in zip(t.node.parents, t.node.vjp(g)):
                if gp is None:
                    continue
                if id(p) in grads:
                    grads[id(p)] = grads[id(p)] + gp
                else:
                    grads[id(p)] = gp
    return result
