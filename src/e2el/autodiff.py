"""Dense-tensor kernel with reverse-mode gradients.

Each operation returns a `Tensor` node that caches its numpy output and a
closure scattering the output gradient back onto its inputs; `backward`
walks the graph once in reverse topological order (iteratively, so very
deep recurrent chains are fine). Arithmetic runs in 32-bit floats by
default; gradient checking switches the whole graph to 64-bit via
``precision("float64")``. The vector ops also take the rows of a matrix
(`dot`, `cosine`, `matvec`, `softmax`, `weighted_sum`, `stack`, `add`/`mul`
with a scalar or row operand), and `dot`, `softmax` and `weighted_sum` a
batch of row blocks, so a block of rows costs one node, not one per row.

Every forward and backward value a node holds is checked for NaN/Inf and
raises ``FloatingPointError`` on the first non-finite entry. A fused op
(``bilstm``) is one node for a whole bidirectional recurrence: the values
inside it (gates, cell states, per-step gradients) are not nodes and are
not checked one by one, but its output and every gradient it passes to a
parent are, so a non-finite value inside still raises there. Values
computed off the graph are checked where they are read, such as the
attention word scores of ``scoring.long_range_feature``.
"""

from __future__ import annotations

import gc
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

_DTYPE = np.float32


def rng_stream(seed: int, name: str) -> np.random.Generator:
    """Named sub-stream of a top-level seed (shuffle, dropout, init, ...)."""
    return np.random.default_rng([seed, zlib.crc32(name.encode("utf-8"))])


def default_dtype() -> type:
    return _DTYPE


@contextmanager
def precision(name: str) -> Iterator[None]:
    """Temporarily set the dtype used for newly created tensors.

    ``name`` is "float32" or "float64". Existing tensors keep their dtype;
    mixing modes inside one graph is the caller's mistake.
    """
    global _DTYPE
    table = {"float32": np.float32, "float64": np.float64}
    if name not in table:
        raise ValueError(f"unknown precision {name!r}")
    prev = _DTYPE
    _DTYPE = table[name]
    try:
        yield
    finally:
        _DTYPE = prev


@contextmanager
def cycle_gc_paused() -> Iterator[None]:
    """Pause Python's cyclic garbage collector for the block, and leave it
    as it was found. `cli.run_command` runs each command whole in one such
    block; the index decode (`candidates.load_index`) is the one library
    routine with its own. Left on, the collector walks all that a command
    keeps alive (a corpus's pair records, an index's entries) in full
    collections that find nothing. The pause is safe: a node refers only to
    its parents, so reference counting frees a graph once its last node is
    dropped, and no command leaves cyclic garbage that grows with its steps
    or documents (a long `train` leaves as little as an `evaluate`).
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _check_finite(arr: np.ndarray, what: str) -> None:
    # the method, not `np.all`: it skips numpy's Python-level dispatch, about
    # 2 µs of the 4–5 µs check of a small array, and every node runs it
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"non-finite values in {what}")


class Tensor:
    """A dense array plus its gradient slot and backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        op: str = "leaf",
        backward: Callable[[np.ndarray], None] | None = None,
    ):
        arr = np.asarray(data, dtype=_DTYPE) if not isinstance(data, np.ndarray) else data
        _check_finite(arr, op)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.op = op
        self._parents = parents
        self._backward = backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        return f"Tensor(op={self.op}, shape={self.shape})"


def constant(value) -> Tensor:
    return Tensor(np.asarray(value, dtype=_DTYPE), op="const")


def parameter(value) -> Tensor:
    """A trainable leaf holding its own copy of `value`: `adam_step` updates
    it in place."""
    return Tensor(np.array(value, dtype=_DTYPE), requires_grad=True, op="param")


def _scatter_add(dst: np.ndarray, at: np.ndarray, g: np.ndarray) -> None:
    """``np.add.at(dst, at, g)`` bit for bit, as one fancy-indexed ``+=`` per
    occurrence rank: pass k adds the k-th occurrence of every index, so the
    indices within a pass are distinct, and each entry of `dst` receives
    its gradients in index order, as `np.add.at` adds them."""
    flat = at.reshape(-1)
    rows = g.reshape(flat.shape + dst.shape[1:])
    order = np.argsort(flat, kind="stable")
    ranked = flat[order]
    head = np.ones(flat.size, dtype=bool)  # where a run of one index starts
    head[1:] = ranked[1:] != ranked[:-1]
    starts = np.flatnonzero(head)
    rank = np.arange(flat.size) - np.repeat(starts, np.diff(np.append(starts, flat.size)))
    by_rank = order[np.argsort(rank, kind="stable")]
    ends = np.cumsum(np.bincount(rank))
    for lo, hi in zip(np.concatenate(([0], ends[:-1])), ends):
        sel = by_rank[lo:hi]
        dst[flat[sel]] += rows[sel]


def _accumulate(t: Tensor, g: np.ndarray, at=None) -> None:
    """Add `g` into the gradient of `t`, or into its part ``grad[at]``; an
    index array `at` indexes the gradient's leading axes taken as one (as
    many as `g` has more than `at`), and may repeat an index, whose
    gradients then add up."""
    if not t.requires_grad:
        return
    _check_finite(g, f"gradient flowing into {t.op}")
    if t.grad is None:
        t.grad = np.zeros_like(t.data, order="C")  # so its reshapes are views
    if at is None:
        t.grad += g
    elif isinstance(at, np.ndarray):
        _scatter_add(t.grad.reshape((-1,) + g.shape[at.ndim:]), at, g)
    else:
        t.grad[at] += g


def _check_broadcast(op: str, a: Tensor, b: Tensor) -> None:
    """`b` must have `a`'s shape or a trailing part of it (a scalar, a row)."""
    if b.data.ndim > a.data.ndim or a.shape[a.data.ndim - b.data.ndim:] != b.shape:
        raise ValueError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The gradient of an operand of `shape` repeated over `g`'s leading axes."""
    return g if g.shape == shape else g.reshape((-1,) + shape).sum(axis=0)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], op: str,
          backward: Callable[[np.ndarray], None]) -> Tensor:
    tracked = any(p.requires_grad for p in parents)
    if not tracked:
        # prune: evaluation-only subgraphs keep no parents or closures
        return Tensor(data, op=op)
    return Tensor(data, requires_grad=True, parents=parents, op=op, backward=backward)


def backward(loss: Tensor) -> None:
    """Run one reverse pass from a scalar loss, summing gradients at fan-outs."""
    if loss.shape != ():
        raise ValueError(f"backward requires a scalar node, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("graph has no trainable inputs")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# primitive operations


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b, with `b` repeated over `a`'s leading axes (e.g. a scalar bias)."""
    _check_broadcast("add", a, b)

    def back(g):
        _accumulate(a, g)
        _accumulate(b, _unbroadcast(g, b.shape))

    return _node(a.data + b.data, (a, b), "add", back)


def addn(terms: Sequence[Tensor]) -> Tensor:
    """Sum of equally-shaped tensors; one node instead of a chain of adds."""
    if not terms:
        raise ValueError("addn: empty term list")
    shape = terms[0].shape
    for t in terms:
        if t.shape != shape:
            raise ValueError(f"addn: shape mismatch {t.shape} vs {shape}")

    def back(g):
        for t in terms:
            _accumulate(t, g)

    out = terms[0].data.copy()
    for t in terms[1:]:
        out += t.data
    return _node(out, tuple(terms), "addn", back)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"sub: shape mismatch {a.shape} vs {b.shape}")

    def back(g):
        _accumulate(a, g)
        _accumulate(b, -g)

    return _node(a.data - b.data, (a, b), "sub", back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product, with `b` repeated over `a`'s leading axes (e.g.
    a diagonal form applied to every row of a matrix)."""
    _check_broadcast("mul", a, b)

    def back(g):
        _accumulate(a, g * b.data)
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _node(a.data * b.data, (a, b), "mul", back)


def scale(v: Tensor, s: Tensor) -> Tensor:
    """Multiply a tensor by a scalar node."""
    if s.shape != ():
        raise ValueError(f"scale: scalar expected, got shape {s.shape}")

    def back(g):
        _accumulate(v, g * s.data)
        _accumulate(s, np.asarray((g * v.data).sum(), dtype=v.data.dtype))

    return _node(v.data * s.data, (v, s), "scale", back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a (m,k) by b (k,n); backward is dA=g·Bᵀ, dB=Aᵀ·g."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul: both operands must be 2-d")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: inner dims differ, {a.shape} x {b.shape}")

    def back(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _node(a.data @ b.data, (a, b), "matmul", back)


def matvec(w: Tensor, x: Tensor) -> Tensor:
    """W·x for a vector x, or for each row x_i of a matrix x, one row each."""
    if w.data.ndim != 2 or x.data.ndim not in (1, 2):
        raise ValueError("matvec: expects a matrix and a vector or matrix of rows")
    if w.shape[1] != x.shape[-1]:
        raise ValueError(f"matvec: dims differ, {w.shape} x {x.shape}")

    def back(g):
        _accumulate(w, g.reshape(-1, w.shape[0]).T @ x.data.reshape(-1, w.shape[1]))
        _accumulate(x, g @ w.data)

    return _node((w.data @ x.data.T).T, (w, x), "matvec", back)


def dot(a: Tensor, b: Tensor) -> Tensor:
    """Inner product over the last axis of two equally-shaped tensors: a
    scalar for two vectors, one value per row for matrices or batches."""
    if a.data.ndim < 1 or a.shape != b.shape:
        raise ValueError(f"dot: need equal-shaped tensors, got {a.shape}, {b.shape}")

    def back(g):
        _accumulate(a, g[..., None] * b.data)
        _accumulate(b, g[..., None] * a.data)

    out = a.data @ b.data if a.data.ndim == 1 else np.einsum("...d,...d->...", a.data, b.data)
    return _node(np.asarray(out), (a, b), "dot", back)


def sum1d(v: Tensor) -> Tensor:
    if v.data.ndim != 1:
        raise ValueError("sum1d: vector expected")

    def back(g):
        _accumulate(v, np.full_like(v.data, g))

    return _node(np.asarray(v.data.sum()), (v,), "sum1d", back)


def stack(parts: Sequence[Tensor]) -> Tensor:
    """Pack equally-shaped tensors along a new last axis: scalars into a
    vector, k vectors of length n into an (n × k) matrix of columns;
    backward hands each part its slice."""
    if not parts:
        raise ValueError("stack: empty input")
    for p in parts:
        if p.shape != parts[0].shape:
            raise ValueError(f"stack: shape mismatch {p.shape} vs {parts[0].shape}")

    def back(g):
        for i, p in enumerate(parts):
            _accumulate(p, g[..., i])

    return _node(np.stack([p.data for p in parts], axis=-1), tuple(parts), "stack", back)


def concat(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors of one rank along `axis` (by default the last,
    so vectors join end to end and matrices side by side); backward splits
    the gradient by offsets."""
    if not parts:
        raise ValueError("concat: empty input")
    out = np.concatenate([p.data for p in parts], axis=axis)  # ValueError on a shape mismatch
    bounds = np.cumsum([p.shape[axis] for p in parts])[:-1]

    def back(g):
        for p, gp in zip(parts, np.split(g, bounds, axis=axis)):
            _accumulate(p, gp)

    return _node(out, tuple(parts), "concat", back)


def slice1d(v: Tensor, start: int, length: int) -> Tensor:
    if v.data.ndim != 1:
        raise ValueError("slice1d: vector expected")
    if start < 0 or length <= 0 or start + length > v.shape[0]:
        raise ValueError(f"slice1d: [{start}, {start + length}) out of range {v.shape}")

    def back(g):
        _accumulate(v, g, at=slice(start, start + length))

    return _node(v.data[start:start + length].copy(), (v,), "slice1d", back)


def row(m: Tensor, index: int) -> Tensor:
    """Entry `index` along the first axis (an element of a vector, a row of a
    matrix). Backward adds into the picked entry of the parent's gradient
    in place, so n views of one matrix cost O(n·d), not O(n²·d)."""
    if m.data.ndim < 1:
        raise ValueError("row: vector or matrix expected")
    if not 0 <= index < m.shape[0]:
        raise ValueError(f"row: index {index} out of range {m.shape}")

    def back(g):
        _accumulate(m, g, at=index)

    return _node(m.data[index, ...].copy(), (m,), "row", back)


def take_rows(m: Tensor, idx) -> Tensor:
    """Entries along the first axis (rows of a matrix, elements of a vector)
    gathered by an integer array of any shape, into ``idx.shape + m.shape[1:]``;
    or, for a tuple of integer arrays, which broadcast together, the entries
    ``m.data[idx]`` over as many leading axes. Backward adds each gradient
    entry into its source in place, summing repeats."""
    if isinstance(idx, tuple):
        idx = tuple(np.asarray(i, dtype=np.intp) for i in idx)
    else:
        idx = (np.asarray(idx, dtype=np.intp),)
    if not 1 <= len(idx) <= m.data.ndim:
        raise ValueError(f"take_rows: {len(idx)} index arrays for shape {m.shape}")
    for i, n in zip(idx, m.shape):
        if i.size and (i.min() < 0 or i.max() >= n):
            raise ValueError(f"take_rows: index out of range {m.shape}")
    # one index into the leading axes taken as one
    at = np.ravel_multi_index(idx, m.shape[:len(idx)]) if len(idx) > 1 else idx[0]

    def back(g):
        _accumulate(m, g, at=at)

    return _node(m.data[idx], (m,), "take_rows", back)


def _sigmoid(d: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function without overflow, into `out` if given (which may be
    `d` itself): exp is only taken of values ≤ 0, e = exp(−|d|), and the
    result is 1/(1 + e) where d ≥ 0 and e/(1 + e) elsewhere, one division
    of the picked numerator by the shared 1 + e. The numerator is
    max(e, d ≥ 0): as e ≤ 1 that is exactly 1 where d ≥ 0 and e elsewhere
    (NaN stays NaN), with no masked, branch-per-element copy."""
    e = np.abs(d)
    np.negative(e, out=e)
    np.exp(e, out=e)
    den = 1.0 + e
    np.maximum(e, d >= 0, out=e)
    return np.divide(e, den, out=out)


def sigmoid(x: Tensor) -> Tensor:
    out = _sigmoid(x.data)

    def back(g):
        _accumulate(x, g * out * (1.0 - out))

    return _node(out, (x,), "sigmoid", back)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def back(g):
        _accumulate(x, g * (1.0 - out * out))

    return _node(out, (x,), "tanh", back)


def relu(x: Tensor) -> Tensor:
    # subgradient at 0 is taken as 0
    out = np.maximum(x.data, 0)

    def back(g):
        _accumulate(x, g * (x.data > 0))

    return _node(out, (x,), "relu", back)


def softmax(v: Tensor) -> Tensor:
    """Stable softmax over a non-empty last axis (max-subtraction)."""
    if v.data.ndim < 1 or v.shape[-1] < 1:
        raise ValueError("softmax: non-empty last axis expected")
    shifted = v.data - v.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def back(g):
        _accumulate(v, out * (g - (g * out).sum(axis=-1, keepdims=True)))

    return _node(out, (v,), "softmax", back)


def max1d(v: Tensor) -> Tensor:
    """Max over a vector; the gradient flows to the first argmax position."""
    if v.data.ndim != 1 or v.shape[0] < 1:
        raise ValueError("max1d: non-empty vector expected")
    idx = int(np.argmax(v.data))

    def back(g):
        _accumulate(v, g, at=idx)

    return _node(np.asarray(v.data[idx]), (v,), "max1d", back)


def weighted_sum(vectors: Sequence[Tensor] | Tensor, weights: Tensor) -> Tensor:
    """Σ w_i · v_i with a weight vector node, over equally-shaped vectors or
    over the rows of one matrix node; over a batch of row blocks
    (… × m × d) with weights (… × m), one sum per block."""
    matrix = isinstance(vectors, Tensor)
    rows = vectors.data if matrix else np.stack([v.data for v in vectors])
    if rows.ndim < 2 or rows.shape[:-1] != weights.shape:
        raise ValueError("weighted_sum: need one weight per vector")

    def back(g):
        grads = weights.data[..., None] * g[..., None, :]
        for v, gv in [(vectors, grads)] if matrix else zip(vectors, grads):
            _accumulate(v, gv)
        _accumulate(weights, (rows @ g[..., None])[..., 0])

    parts = (vectors,) if matrix else tuple(vectors)
    return _node((weights.data[..., None, :] @ rows)[..., 0, :], parts + (weights,),
                 "weighted_sum", back)


def dropout(v: Tensor, keep_prob: float, training: bool,
            rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: train mode zeroes and rescales, eval mode is identity."""
    if not 0.0 < keep_prob <= 1.0:
        raise ValueError(f"dropout: keep_prob {keep_prob} outside (0, 1]")
    if not training or keep_prob == 1.0:
        return v
    if rng is None:
        raise ValueError("dropout: training mode needs an explicit rng")
    mask = (rng.random(v.shape) < keep_prob).astype(v.data.dtype) / keep_prob

    def back(g):
        _accumulate(v, g * mask)

    return _node(v.data * mask, (v,), "dropout", back)


def cosine(a: Tensor, b: Tensor) -> Tensor:
    """Cosine similarity of `b` with vector `a`, with each row of matrix `a`,
    or row by row for equal shapes. A zero norm gives 0 and no gradient."""
    if a.data.ndim not in (1, 2) or b.shape not in (a.shape, a.shape[-1:]):
        raise ValueError(f"cosine: shapes {a.shape} and {b.shape} do not match")
    na = np.linalg.norm(a.data, axis=-1, keepdims=True)  # (1,) or (rows, 1)
    nb = np.linalg.norm(b.data, axis=-1, keepdims=True)
    live = (na > 0) & (nb > 0)
    na, nb = np.where(live, na, 1), np.where(nb > 0, nb, 1)
    c = np.where(live, np.einsum("...d,...d->...", a.data, b.data)[..., None] / (na * nb), 0)

    def back(g):
        g = np.where(live, g[..., None], 0)
        _accumulate(a, g * (b.data / (na * nb) - c * a.data / (na * na)))
        _accumulate(b, _unbroadcast(g * (a.data / (na * nb) - c * b.data / (nb * nb)),
                                    b.shape))

    return _node(np.asarray(c[..., 0], dtype=a.data.dtype), (a, b), "cosine", back)


# ---------------------------------------------------------------------------
# LSTM cell


@dataclass
class LstmWeights:
    """Gate weights for one LSTM direction.

    `w_x` is (4h, d_in), `w_h` is (4h, h), `b` is (4h,); the 4h block is laid
    out as input gate, forget gate, candidate, output gate.
    """

    w_x: Tensor
    w_h: Tensor
    b: Tensor

    @property
    def hidden(self) -> int:
        return self.w_h.shape[1]


def init_lstm(d_in: int, hidden: int, rng: np.random.Generator) -> LstmWeights:
    return LstmWeights(
        w_x=parameter(glorot(rng, (4 * hidden, d_in))),
        w_h=parameter(glorot(rng, (4 * hidden, hidden))),
        b=parameter(np.zeros(4 * hidden)),
    )


def lstm_cell(x: Tensor, h_prev: Tensor, c_prev: Tensor, w: LstmWeights) -> tuple[Tensor, Tensor]:
    """One LSTM step with sigmoid gates and tanh candidate."""
    h = w.hidden
    if w.w_x.shape != (4 * h, x.shape[0]) or w.w_h.shape != (4 * h, h) or w.b.shape != (4 * h,):
        raise ValueError(
            f"lstm_cell: weight dims {w.w_x.shape}/{w.w_h.shape}/{w.b.shape} "
            f"inconsistent with input {x.shape} and hidden {h}"
        )
    if h_prev.shape != (h,) or c_prev.shape != (h,):
        raise ValueError(f"lstm_cell: state dims {h_prev.shape}/{c_prev.shape} != ({h},)")
    pre = add(addn([matvec(w.w_x, x), matvec(w.w_h, h_prev)]), w.b)
    i = sigmoid(slice1d(pre, 0, h))
    f = sigmoid(slice1d(pre, h, h))
    g = tanh(slice1d(pre, 2 * h, h))
    o = sigmoid(slice1d(pre, 3 * h, h))
    c = add(mul(f, c_prev), mul(i, g))
    return mul(o, tanh(c)), c


# kernel gate order i, f, o, g, as indices into the stored order i, f, g, o
_KERNEL_GATES = [0, 1, 3, 2]


def bilstm(x: Tensor, fwd: LstmWeights, bwd: LstmWeights, lengths=None) -> Tensor:
    """Hidden states of a bidirectional LSTM over whole sequences, as one node.

    `x` is (T × d_in), or (T × B × d_in) for B sequences run side by side;
    the result is (T × 2h) or (T × B × 2h), entry t holding [forward state
    after step t; backward state after step t]. Each step is that of
    `lstm_cell`, from zero states: the forward direction `fwd` runs from
    t = 0 up and the backward direction `bwd` down to t = 0, so its entry 0
    has seen the whole sequence. With `lengths` (one per sequence, each in
    [1, T]) `x` is a right-padded batch: sequence b is its first L_b rows,
    its backward direction starts at t = L_b − 1, and its result rows from
    L_b on are zero and pass no gradient back. Without it every sequence
    is T long: a lone sequence and a batch take the same path.

    Both directions step in one loop. Loop step k runs the forward
    direction at t = k and the backward one at t = L_b − 1 − k: the input
    rows of the backward direction are gathered once into loop order (a
    reversal of each sequence's own rows), and its states and gradients go
    back through the same gather. Loop steps k ≥ L_b run on padding after
    every real step of sequence b, in both directions, so they never reach
    a real state and no mask is needed in the loop.

    The gates of a step lie gate-major in one (4 × 2 × B × h) block,
    ordered i, f, o, g, so the three sigmoid gates are one contiguous
    slab. One `tanh` covers the whole block, as σ(z) = ½·tanh(z/2) + ½:
    the input projection of every step is one product with the stored
    w_x plus b, whose i, f and o parts are halved as they are copied into
    the blocks, and the i, f and o rows of w_h are halved when the call
    starts; as halving is exact (barring underflow), the tanh sees z/2
    exactly. The step's incoming cell state c follows the block, so the
    cell update f·c + i·g takes one product of [i, f] with [g, c] and one
    sum. The recurrent product is one (2 × B × h) @ (2 × h × 4h) product on
    contiguous weights. These are derived from the parameters in every
    call, since optimizers and `grad_check` change them in place.

    The backward is hand-written BPTT over the kept gates and cell states,
    with the gate gradients of a step in the stored order i, f, g, o, whose
    first three gates all take the cell gradient, so one product covers
    them; dW_x, dW_h, db and dX are one product or sum each over both
    directions' gate gradients.

    The rounding differs from the separate sigmoid and the per-direction
    products of `reference_bilstm` in `tests/helpers.py`, the kernel this
    one replaced, which the tests hold it to: outputs within 1e-9 and
    gradients within 1e-6 (relative) in float64, 1e-5 in float32.
    """
    h = fwd.hidden
    if x.data.ndim not in (2, 3) or x.shape[0] < 1:
        raise ValueError(f"bilstm: (T, d) or (T, B, d) input expected, got {x.shape}")
    d_in = x.shape[-1]
    for w in (fwd, bwd):
        if w.w_x.shape != (4 * h, d_in) or w.w_h.shape != (4 * h, h) or w.b.shape != (4 * h,):
            raise ValueError(
                f"bilstm: weight dims {w.w_x.shape}/{w.w_h.shape}/{w.b.shape} "
                f"inconsistent with input {x.shape} and hidden {h}")
    xs = x.data.reshape(x.shape[0], -1, d_in)  # (T, B, d_in)
    steps, batch = xs.shape[:2]
    if lengths is None:
        lens = np.full(batch, steps)
    else:
        if x.data.ndim != 3:
            raise ValueError(f"bilstm: lengths need a (T, B, d) input, got {x.shape}")
        lens = np.asarray(lengths)
        if not np.issubdtype(lens.dtype, np.integer):
            raise ValueError(f"bilstm: lengths must be integers, got {lens.dtype}")
        if lens.shape != (batch,):
            raise ValueError(f"bilstm: lengths of shape {lens.shape} for a batch of {batch}")
        if lens.min() < 1 or lens.max() > steps:
            raise ValueError(
                f"bilstm: lengths must lie in [1, {steps}], got {lens.min()}..{lens.max()}")
        lens = lens.astype(np.intp)  # an unsigned length less a signed step is a float
    loop_step = np.arange(steps)[:, None]
    padding = loop_step >= lens  # (T, B), the same in loop and in time order
    # the row of each loop step of the backward direction: an involution per sequence
    rows = np.where(padding, loop_step, lens - 1 - loop_step)
    cols = np.arange(batch)

    def backward_order(a: np.ndarray) -> np.ndarray:
        """Time order to the backward direction's loop order, and back."""
        return a[rows, cols]

    # both directions' weights in the stored gate order, as the input
    # projection and dX take them, and the recurrent weights in the
    # kernel's gate order with the sigmoid gates halved
    w_x = np.concatenate([fwd.w_x.data, bwd.w_x.data])  # (8h, d_in)
    w_h = np.concatenate([fwd.w_h.data, bwd.w_h.data]).reshape(2, 4, h, h)
    scale = np.array([0.5, 0.5, 0.5, 1.0], dtype=w_h.dtype)[:, None]  # per kernel gate
    w_h_k = np.ascontiguousarray(  # (2, h_in, 4 × h_out)
        (w_h[:, _KERNEL_GATES] * scale[..., None]).transpose(0, 3, 1, 2)).reshape(2, h, 4 * h)
    proj = xs.reshape(-1, d_in) @ w_x.T
    proj += np.concatenate([fwd.b.data, bwd.b.data])
    proj = proj.reshape(steps, batch, 2, 4, h)
    dtype = proj.dtype
    # loop order, one (5 × 2 × B × h) block per step, gate-major: the half
    # pre-activations of i, f, o and the pre-activation of g, overwritten
    # with the gate values, then the step's incoming cell state, so that
    # [i, f] · [g, c] is one product; block k + 1 receives step k's cell.
    # Halving the projection is exact, so the blocks hold what a product
    # with halved weights and bias would give, bit for bit.
    blocks = np.empty((steps + 1, 5, 2, batch, h), dtype=dtype)
    half = np.array(0.5, dtype=dtype)  # an array: a Python float costs a conversion per call
    for side, rows_in in enumerate((proj[:, :, 0], backward_order(proj[:, :, 1]))):
        gates_in = rows_in.transpose(0, 2, 1, 3)  # (T, stored gate, B, h)
        np.multiply(gates_in[:, :2], half, out=blocks[:-1, :2, side])  # i, f
        np.multiply(gates_in[:, 3], half, out=blocks[:-1, 2, side])  # o
        blocks[:-1, 3, side] = gates_in[:, 2]  # g
    blocks[0, 4] = 0.0
    gates, c_in, cells = blocks[:-1, :4], blocks[:-1, 4], blocks[1:, 4]
    states = np.zeros((steps + 1, 2, batch, h), dtype=dtype)  # entry k + 1 after step k
    hs = states[1:]
    tanh_c = np.empty_like(hs)
    recurrent = np.empty((2, batch, 4 * h), dtype=dtype)
    recurrent_k = recurrent.reshape(2, batch, 4, h).transpose(2, 0, 1, 3)
    products = np.empty((2, 2, batch, h), dtype=dtype)
    i_g, f_c = products
    # per step, views of the gates, their sigmoid slab, [i, f], [g, c_in],
    # o and the states
    for h_prev, z, sig, i_f, g_c, o, c, tc, hk in zip(
            states, gates, gates[:, :3], blocks[:-1, :2], blocks[:-1, 3:], gates[:, 2], cells,
            tanh_c, hs):
        np.matmul(h_prev, w_h_k, out=recurrent)
        z += recurrent_k
        np.tanh(z, out=z)
        np.multiply(sig, half, out=sig)
        np.add(sig, half, out=sig)
        np.multiply(i_f, g_c, out=products)
        np.add(i_g, f_c, out=c)
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=hk)
    out = np.empty((steps, batch, 2 * h), dtype=dtype)
    out[..., :h] = hs[:, 0]
    out[..., h:] = backward_order(hs[:, 1])
    out[padding] = 0.0

    def back(g_out):
        g_out = g_out.reshape(steps, batch, 2 * h)
        g_loop = np.empty_like(hs)
        g_loop[:, 0] = g_out[..., :h]
        g_loop[:, 1] = backward_order(g_out[..., h:])
        g_loop *= ~padding[:, None, :, None]
        i, f, o, g = (gates[:, k] for k in range(4))
        # per step and stored gate, the factor of the carried cell gradient
        # (i, f, g) or hidden gradient (o) in the pre-activation gradient
        factor = np.empty_like(gates)
        np.multiply(i, 1.0 - i, out=factor[:, 0])
        factor[:, 0] *= g
        np.multiply(f, 1.0 - f, out=factor[:, 1])
        factor[:, 1] *= c_in
        np.multiply(g, g, out=factor[:, 2])
        np.subtract(1.0, factor[:, 2], out=factor[:, 2])
        factor[:, 2] *= i
        np.multiply(o, 1.0 - o, out=factor[:, 3])
        factor[:, 3] *= tanh_c
        o_dtanh = o * (1.0 - tanh_c * tanh_c)
        # direction-major, so that each step's product with w_h is contiguous
        dz = np.empty((steps, 2, batch, 4 * h), dtype=dtype)
        dz_gates = dz.reshape(steps, 2, batch, 4, h).transpose(0, 3, 1, 2, 4)
        w_h_back = w_h.reshape(2, 4 * h, h)
        dh = np.zeros((2, batch, h), dtype=dtype)
        dc = np.zeros_like(dh)
        term = np.empty_like(dh)
        steps_back = (a[::-1] for a in (g_loop, o_dtanh, factor[:, :3], factor[:, 3],
                                        dz_gates[:, :3], dz_gates[:, 3], f, dz))
        for g_k, o_dtanh_k, cell_factor, o_factor, dz_cell, dz_o, f_k, dz_k in zip(*steps_back):
            dh += g_k
            np.multiply(dh, o_dtanh_k, out=term)
            dc += term
            np.multiply(dc, cell_factor, out=dz_cell)
            np.multiply(dh, o_factor, out=dz_o)
            dc *= f_k
            np.matmul(dz_k, w_h_back, out=dh)
        g_w_h = np.matmul(dz.transpose(1, 3, 0, 2).reshape(2, 4 * h, -1),
                          states[:-1].transpose(1, 0, 2, 3).reshape(2, -1, h))
        dz_time = np.empty((steps, batch, 2, 4 * h), dtype=dtype)
        dz_time[:, :, 0] = dz[:, 0]
        dz_time[:, :, 1] = backward_order(dz[:, 1])
        flat = dz_time.reshape(-1, 8 * h)
        g_w_x = (flat.T @ xs.reshape(-1, d_in)).reshape(2, 4 * h, d_in)
        g_b = flat.sum(axis=0).reshape(2, 4 * h)
        for side, w in enumerate((fwd, bwd)):
            _accumulate(w.w_x, g_w_x[side])
            _accumulate(w.w_h, g_w_h[side])
            _accumulate(w.b, g_b[side])
        if x.requires_grad:
            _accumulate(x, (flat @ w_x).reshape(x.shape))

    return _node(out.reshape(x.shape[:-1] + (2 * h,)),
                 (x, fwd.w_x, fwd.w_h, fwd.b, bwd.w_x, bwd.w_h, bwd.b), "bilstm", back)


def glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    fan_in = shape[-1] if len(shape) > 1 else shape[0]
    fan_out = shape[0]
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


# ---------------------------------------------------------------------------
# parameters and optimization


class ParamStore:
    """Named trainable tensors with gradient slots, in insertion order."""

    def __init__(self) -> None:
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, t: Tensor) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        if not t.requires_grad:
            raise ValueError(f"parameter {name!r} must require gradients")
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def tensors(self) -> Mapping[str, Tensor]:
        return self._params

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def grads(self) -> dict[str, np.ndarray]:
        return {
            name: (t.grad if t.grad is not None else np.zeros_like(t.data))
            for name, t in self._params.items()
        }

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._params.items()}

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> None:
        extra = [name for name in state if name not in self._params]
        if extra:
            raise ValueError(f"state holds tensors that are not parameters of the model: "
                             f"{', '.join(map(repr, extra))}")
        for name, t in self._params.items():
            if name not in state:
                raise ValueError(f"missing parameter {name!r} in state")
            arr = np.asarray(state[name], dtype=t.data.dtype)
            if arr.shape != t.data.shape:
                raise ValueError(f"parameter {name!r}: shape {arr.shape} != {t.data.shape}")
            t.data = arr.copy()


@dataclass
class AdamState:
    """Adam moments per parameter plus the shared step counter, and two work
    buffers that `adam_step` reuses; they grow to the largest parameter."""

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    work: tuple[np.ndarray, np.ndarray] = field(
        default_factory=lambda: (np.empty(0, np.uint8), np.empty(0, np.uint8)), repr=False)

    def scratch(self, shape: tuple[int, ...], dtype) -> tuple[np.ndarray, np.ndarray]:
        """The two work buffers as arrays of `shape` and `dtype`; growing
        them drops what they held."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape)) * dtype.itemsize
        if self.work[0].nbytes < nbytes:
            self.work = (np.empty(nbytes, np.uint8), np.empty(nbytes, np.uint8))
        return tuple(buf[:nbytes].view(dtype).reshape(shape) for buf in self.work)


def adam_step(state: AdamState, params: Mapping[str, Tensor],
              grads: Mapping[str, np.ndarray]) -> Mapping[str, Tensor]:
    """Bias-corrected Adam update of each parameter's data in place;
    increments the step counter.

    The intermediate values go into the state's work buffers through
    ``out=``, so a step allocates nothing of a parameter's size. The
    operations, their order and their dtypes are those of the expression
    ``p - lr * (m / b1t) / (sqrt(v / b2t) + eps)``: the gradient terms of
    the moments are formed in the gradient's dtype, the rest in the
    moments' dtype.
    """
    state.step += 1
    b1t = 1.0 - state.beta1 ** state.step
    b2t = 1.0 - state.beta2 ** state.step
    for name, p in params.items():
        g = np.asarray(grads[name])
        if g.shape != p.data.shape:
            raise ValueError(f"adam_step: gradient shape {g.shape} != {p.data.shape} for {name!r}")
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        term, _ = state.scratch(g.shape, np.result_type(g, 1.0))
        m *= state.beta1
        np.multiply(g, 1.0 - state.beta1, out=term)
        m += term
        v *= state.beta2
        np.multiply(g, 1.0 - state.beta2, out=term)
        term *= g
        v += term
        step, den = state.scratch(m.shape, m.dtype)
        np.divide(v, b2t, out=den)
        np.sqrt(den, out=den)
        den += state.eps
        np.divide(m, b1t, out=step)
        step *= state.lr
        step /= den
        p.data -= step
    return params


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(build: Callable[[], Tensor], param: Tensor, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `build` must reconstruct the scalar graph from `param.data` on every
    call (dropout in evaluation mode, fixed inputs). Requires the graph to
    run in 64-bit; relative error per coordinate is
    |analytic − numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    if param.data.dtype != np.float64:
        raise ValueError("grad_check requires float64 parameters")
    param.grad = None
    loss = build()
    if loss.requires_grad:
        backward(loss)
    analytic = param.grad if param.grad is not None else np.zeros_like(param.data)
    numeric = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = float(build().data)
        flat[i] = orig - h
        down = float(build().data)
        flat[i] = orig
        nflat[i] = (up - down) / (2.0 * h)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))
