"""Reverse-mode automatic differentiation over dense float64 tensors.

Every operation records one node onto the active :class:`Tape`; `backward`
replays the tape in reverse recording order exactly once, and releases each
node as it passes it, so the saved arrays and the intermediate gradients
are freed during the sweep and only the leaves' gradients outlive it. A
second `backward` on a consumed tape raises. `matmul` is 2-D;
same-shape elementwise arithmetic and reductions work on any rank --
there is no implicit broadcasting beyond scaling by a Python scalar, so
shape mistakes fail loudly at the op that caused them. The two named
exceptions are layers fused into one node each: `affine` adds its
[1, n] bias row to every row of x @ w, and `layer_norm` broadcasts each
row's mean and inverse deviation over the row. All data is float64.

One rule keeps a row's value free of the batch it sits in: every forward
product whose left operand has one row is formed on two copies of that row.
BLAS sends a one-row product to its matrix-vector kernel, which rounds
otherwise than the GEMM that forms the same row inside a larger product.
`matmul`, `affine` and both products of `lstm_sequence` (its input
projection and each step's h @ wh) keep the rule, so a batch of one unit,
one distinct sentence or one decoder state rounds as a larger batch does.

`bmm` is the one product beyond 2-D: a batched matrix product over the
leading axes, [B, m, k] @ [B, k, n] or [B, heads, m, k] @ [B, heads, k, n].
With it, `permute`, `masked_softmax` along any axis and the elementwise ops,
a batch of units runs each attention step as one node on [B, ., .] stacks,
every head at once; ragged rows are masked by a bool array, which is no
tape input, and never packed block-diagonally.

The recurrence is one op, `lstm_sequence`, that runs a batch of sequences
through an LSTM cell as a single node, with backpropagation through time
inside its rule. Its int `index` [T, B] names the row of the input matrix
that sequence b reads at step t; -1 reads nothing and carries the state.
Ragged batches pad with -1, and the reverse direction is the same index
with its rows reversed (leading -1s carry the initial state). A row may be
read any number of times, so the encoders and the decoder pass the embedding
matrix and a grid of token ids; each distinct row is projected once per call.
Its gates are stored gate-major ([4, B, H], each gate's block contiguous),
and its step buffers are views of a module-private workspace that grows to
the largest call's sizes and is reused by every later call, so evaluation
does not fault fresh memory in on every batch. The buffers are the gates
of a step that records nothing, the step's h @ wh product (one row per
state the step holds), the c pair, and the held c of shared steps; a step
that records nothing forms i*g and tanh(c) in the rows of h it is about to
write. No workspace view is returned or kept by a tape. Like the
process-global active tape, the workspace relies on the package running
single-threaded.

Without a tape, `lstm_sequence` can also share states: given `start`, the
row of a smaller h0 that each sequence starts from, sequences with the
same start that have read the same rows so far hold one state, computed
once, and the op returns one row per state with the grid of which row each
sequence holds. The generative decoder ranks a unit's candidates this way,
since they all start from the unit's state and read BOS first.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np


class DimensionError(ValueError):
    """Shapes of the operands do not fit the operation."""


class DegenerateSliceError(ValueError):
    """A softmax slice has no unmasked entries to normalize over."""


class InvalidDistributionError(ValueError):
    """An input that must lie on the probability simplex does not."""


class DivergenceError(RuntimeError):
    """A loss, gradient, score or weight came out non-finite."""


class ContractError(ValueError):
    """An operation precondition was violated."""


_LOG_FLOOR = 1e-12  # floor inside log(q) for KL; p entries of 0 contribute 0
_NORM_EPS = 1e-5    # added to each row's variance in layer_norm


class Tensor:
    """Dense n-dimensional float64 array with an optional gradient."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("inputs", "output", "rule")

    def __init__(self, inputs, output, rule):
        self.inputs = inputs
        self.output = output
        self.rule = rule


_ACTIVE_TAPE: Optional["Tape"] = None


class Tape:
    """Ordered record of operations; context manager activates recording."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise ContractError("a Tape is already active; tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None


def _recording(inputs: tuple) -> bool:
    """Whether an op on these inputs records a node onto the active tape."""
    return _ACTIVE_TAPE is not None and any(t.requires_grad for t in inputs)


def _record(out: Tensor, inputs: tuple, rule: Callable) -> Tensor:
    if _recording(inputs):
        out.requires_grad = True
        _ACTIVE_TAPE.nodes.append(_Node(inputs, out, rule))
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate .grad of every leaf reachable from `loss`, consuming the tape.

    A leaf is a requires_grad tensor that no node of the tape produced: a
    parameter, or an input handed to the ops. Gradients accumulate
    additively across multiple uses of a tensor. Each node is released once
    the sweep has passed it: its slot stays in `tape.nodes`, but it no longer
    holds its inputs, output or rule, and its output's .grad is set back to
    None once its rule has used it. So the graph's saved arrays and every
    intermediate gradient are freed during the sweep, and a tape can be
    replayed once only: a second call raises ContractError.
    """
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    nodes = tape.nodes
    if nodes and nodes[-1].rule is None:
        raise ContractError("backward on a consumed tape: a tape is replayed once only")
    loss.grad = np.ones_like(loss.data)
    for node in reversed(nodes):
        out = node.output
        if out.grad is not None:
            for inp, g in zip(node.inputs, node.rule(out.grad)):
                if g is None or not inp.requires_grad:
                    continue
                if inp.grad is None:
                    inp.grad = g
                else:
                    inp.grad = inp.grad + g
            out.grad = None
        node.inputs = node.output = node.rule = None


# ---------------------------------------------------------------------------
# core ops

def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for matrices, each entry rounded the same wherever its row sits."""
    if b.shape[1] == 1:
        # BLAS's matrix-vector product rounds a row differently with its
        # position and the row count, which would make a unit's value depend
        # on its batch; einsum sums each row the same way wherever it sits
        return np.einsum("ij,jk->ik", a, b)
    if a.shape[1] == 1:
        return _outer(a, b)
    if a.shape[0] == 1:
        # one row would take BLAS's matrix-vector kernel; two copies of it
        # take the GEMM, which rounds the row as it does inside a larger product
        return (np.repeat(a, 2, axis=0) @ b)[:1]
    return a @ b


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[m, 1] @ [1, n] as a broadcast product, bit for bit the k=1 GEMM:
    each entry is rounded once, and adding 0.0 turns a -0.0 into +0.0 as
    the GEMM's sum from zero does, without the GEMM's call overhead."""
    out = a * b
    out += 0.0
    return out


def _product_rule(g: np.ndarray, a: Tensor, b: Tensor) -> tuple:
    """(dA, dB) of C = A B: dA = dC Bᵀ (a broadcast product when B has one
    column, so the inner dimension is 1), dB = Aᵀ dC; None for a constant."""
    ad, bd = a.data, b.data
    if not a.requires_grad:
        da = None
    elif bd.shape[1] == 1:
        da = _outer(g, bd.T)
    else:
        da = g @ bd.T
    return da, ad.T @ g if b.requires_grad else None


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product. dA = dC Bᵀ, dB = Aᵀ dC."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shapes do not agree: {a.shape} x {b.shape}")
    out = Tensor(_product(a.data, b.data))

    def rule(g):
        return _product_rule(g, a, b)

    return _record(out, (a, b), rule)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b, the [1, n] row b added to every row, as one node.

    Its values and gradients are those of adding b tiled to n rows by a
    ones column: dX = dC wᵀ, dW = xᵀ dC, and db = 1ᵀ dC, the one-row
    product the tiled form's rule formed.
    """
    if (x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]
            or b.shape != (1, w.shape[1])):
        raise DimensionError(f"affine shapes do not agree: {x.shape} x {w.shape} + {b.shape}")
    out = _product(x.data, w.data)
    out += b.data
    n = x.shape[0]

    def rule(g):
        return (*_product_rule(g, x, w), np.ones((n, 1)).T @ g if b.requires_grad else None)

    return _record(Tensor(out), (x, w, b), rule)


def layer_norm(t: Tensor) -> Tensor:
    """Parameter-free layer norm of each row of a matrix, as one node.

    The row sums are the einsum products with a ones column that the
    composed form (mean, subtract, square, mean, power, multiply) took, and
    the subtract and the multiply broadcast each row's statistic where that
    form tiled it by a k=1 product with a ones row. (That product read a
    -0.0 as +0.0; the one -0.0 it could meet, the variance's gradient, is
    summed with +0.0 before it reaches a result.) The rule replays the
    composed form's rules in reverse order, so values and gradients are
    that form's bit for bit.

    It returns one input gradient, the sum of the composed form's two
    contributions to it, so it is exact only where `t` has no other
    consumer whose gradient would be added in between; every call in the
    package normalizes a fresh sum or product.
    """
    if t.data.ndim != 2:
        raise DimensionError(f"layer_norm needs a matrix, got shape {t.shape}")
    d = t.shape[1]
    s = 1.0 / d
    col = np.ones((d, 1))
    centered = t.data - np.einsum("ij,jk->ik", t.data, col) * s
    v_eps = np.einsum("ij,jk->ik", centered * centered, col) * s + _NORM_EPS
    inv = v_eps ** -0.5                                    # [m, 1]
    out = Tensor(centered * inv)

    def rule(g):
        dc = g * inv
        via_var = ((g * centered) @ col) * -0.5 * v_eps ** -1.5 * s * centered
        dc = dc + via_var + via_var                        # the square's two factors
        return (dc + ((-dc) @ col) * s,)

    return _record(out, (t,), rule)


def permute(a: Tensor, axes: Sequence[int]) -> Tensor:
    """a's axes reordered (`np.transpose`), as a contiguous copy; the
    gradient is the inverse transpose of the output's, a view."""
    axes = tuple(axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise DimensionError(f"permute axes {axes} for shape {a.shape}")
    out = Tensor(np.ascontiguousarray(a.data.transpose(axes)))
    back = tuple(np.argsort(axes))

    def rule(g):
        return (g.transpose(back),)

    return _record(out, (a,), rule)


def bmm(a: Tensor, b: Tensor, transpose_b: bool = False) -> Tensor:
    """Batched matrix product over the leading axes: [..., m, k] @ [..., k, n],
    one or more leading axes, the same on both sides.

    With transpose_b, b is [..., n, k] and each slice multiplies by its
    transpose. dA = dC Bᵀ, dB = Aᵀ dC, slice by slice.
    """
    k_axis = -1 if transpose_b else -2
    if (a.data.ndim < 3 or b.data.ndim != a.data.ndim or a.shape[:-2] != b.shape[:-2]
            or a.shape[-1] != b.shape[k_axis]):
        raise DimensionError(f"bmm shapes do not agree: {a.shape} x {b.shape}"
                             f"{' transposed' if transpose_b else ''}")
    ad_ = a.data
    bd = b.data.swapaxes(-1, -2) if transpose_b else b.data
    out = Tensor(np.matmul(ad_, bd))

    def rule(g):
        da = np.matmul(g, bd.swapaxes(-1, -2)) if a.requires_grad else None
        if not b.requires_grad:
            return da, None
        if transpose_b:
            return da, np.matmul(g.swapaxes(-1, -2), ad_)
        return da, np.matmul(ad_.swapaxes(-1, -2), g)

    return _record(out, (a, b), rule)


def reshape(a: Tensor, shape) -> Tensor:
    """Same data in a new shape (a view: no op writes into its operands)."""
    shape = tuple(shape)
    out = Tensor(a.data.reshape(shape))
    orig = a.shape

    def rule(g):
        return (g.reshape(orig),)

    return _record(out, (a,), rule)


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op} shapes differ: {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    out = Tensor(a.data + b.data)

    def rule(g):
        return g, g

    return _record(out, (a, b), rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    out = Tensor(a.data * b.data)
    ad, bd = a.data, b.data

    def rule(g):
        return (g * bd if a.requires_grad else None,
                g * ad if b.requires_grad else None)

    return _record(out, (a, b), rule)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    out = Tensor(a.data * s)

    def rule(g):
        return (g * s,)

    return _record(out, (a,), rule)


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))
    pos = a.data > 0  # gradient at exactly 0 is 0

    def rule(g):
        return (g * pos,)

    return _record(out, (a,), rule)


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.data)
    out = Tensor(t)

    def rule(g):
        return (g * (1.0 - t * t),)

    return _record(out, (a,), rule)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    parts = list(parts)
    if not parts:
        raise ContractError("concat of zero tensors")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.shape[axis] for p in parts]
    cuts = np.cumsum(sizes)[:-1]

    def rule(g):
        return tuple(np.array_split(g, cuts, axis=axis))

    return _record(out, tuple(parts), rule)


def _scatter_rows(idx: np.ndarray, g: np.ndarray, nrows: int) -> np.ndarray:
    """The [nrows, d] gradient of reading rows `idx` given the read rows' g.

    When no row is read twice, the scatter is a plain assignment. Otherwise
    one `np.bincount` over (row, column) bins adds each entry in reading
    order from 0.0: `np.add.at`'s sum bit for bit, 3-4 times faster at the
    model's sizes. (`np.add.reduceat` is not that sum: it adds a run
    pairwise.)
    """
    ncols = g.shape[1]
    if idx.size and np.bincount(idx).max() > 1:
        bins = (idx[:, None] * ncols + np.arange(ncols)).ravel()
        return np.bincount(bins, g.ravel(), minlength=nrows * ncols).reshape(nrows, ncols)
    acc = np.zeros((nrows, ncols))
    acc[idx] = g
    return acc


def gather_rows(a: Tensor, index) -> Tensor:
    """Rows a[index] stacked to index.shape + [d], so a 1-D index gives
    [n, d]; an index equal to len(a) reads a zero row (the padding of
    ragged stacks), which passes no gradient back. One node, which saves no
    copy of `a`.

    The gradient scatter-adds back, a row read twice accumulating: it is
    `_scatter_rows` over a with the zero row appended, that row then
    dropped. Whether a row's gradient is assigned or summed from
    0.0 counts the reads of the pad row too, so a -0.0 comes out as it
    would from reading a padded copy of `a`.
    """
    if a.data.ndim != 2:
        raise DimensionError(f"gather_rows needs a matrix, got shape {a.shape}")
    index = np.asarray(index, dtype=np.intp)
    idx = index.reshape(-1)
    nrows, ncols = a.shape
    if idx.size and (idx.min() < 0 or idx.max() > nrows):
        raise IndexError(f"row index out of range for shape {a.shape} and its pad row")
    data = a.data.take(np.minimum(idx, nrows - 1), axis=0)
    data[np.flatnonzero(idx == nrows)] = 0.0
    out = Tensor(data.reshape(index.shape + (ncols,)))

    def rule(g):
        return (_scatter_rows(idx, g.reshape(idx.size, ncols), nrows + 1)[:nrows],)

    return _record(out, (a,), rule)


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum())
    shape = a.shape

    def rule(g):
        return (np.full(shape, float(g)),)

    return _record(out, (a,), rule)


def mean_all(a: Tensor) -> Tensor:
    n = a.size
    out = Tensor(a.data.mean())
    shape = a.shape

    def rule(g):
        return (np.full(shape, float(g) / n),)

    return _record(out, (a,), rule)


# ---------------------------------------------------------------------------
# probability / loss ops

def masked_softmax(logits: Tensor, axis: int, mask: np.ndarray) -> Tensor:
    """Exp-normalize each slice along `axis`, stabilized by max-subtraction.

    `mask` is a bool array of the logits' shape (a broadcast view is read
    as it is), not a tape input. Masked positions (mask False) come out
    exactly 0; a slice with no unmasked entry raises DegenerateSliceError
    rather than producing NaN.
    """
    z = logits.data
    if axis >= z.ndim or axis < -z.ndim:
        raise DimensionError(f"axis {axis} out of range for shape {logits.shape}")
    if not isinstance(mask, np.ndarray) or mask.dtype != bool:
        raise ContractError(f"masked_softmax needs a bool array mask, got {type(mask).__name__}")
    if mask.shape != z.shape:
        raise DimensionError(f"mask shape {mask.shape} != logits shape {logits.shape}")
    if (mask.sum(axis=axis) == 0).any():
        raise DegenerateSliceError("softmax slice with every entry masked")
    m = np.where(mask, z, -np.inf).max(axis=axis, keepdims=True)
    e = np.where(mask, np.exp(z - m), 0.0)
    s = e.sum(axis=axis, keepdims=True)
    y = e / s
    out = Tensor(y)

    def rule(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _record(out, (logits,), rule)


def check_simplex(arr: np.ndarray, name: str) -> None:
    """Raise InvalidDistributionError naming `name` unless every last-axis
    slice of arr is a distribution: entries >= 0 that sum to 1 within 1e-6.
    Both tests are phrased so that a NaN or infinite entry fails them."""
    if not (arr >= 0).all():
        raise InvalidDistributionError(f"{name} has a negative or NaN entry")
    dev = np.abs(arr.sum(axis=-1) - 1.0)
    if not (dev <= 1e-6).all():
        raise InvalidDistributionError(f"{name} slices do not sum to 1 (max dev {dev.max():.3g})")


def kl_divergence(p: np.ndarray, q: Tensor) -> Tensor:
    """Mean over the rows of [B, n] p and q of sum p log(p/q), each row one
    distribution; 0 log 0 := 0, q floored at 1e-12. The target p is an
    array, so the gradient reaches q only."""
    if p.shape != q.shape:
        raise DimensionError(f"kl_divergence shapes differ: {p.shape} vs {q.shape}")
    if p.ndim != 2:
        raise DimensionError(f"kl_divergence expects [B, n] rows, got shape {p.shape}")
    check_simplex(p, "p")
    check_simplex(q.data, "q")
    n_slices = p.shape[0]
    qf = np.maximum(q.data, _LOG_FLOOR)
    support = p > 0
    lp = np.log(np.where(support, p, 1.0))
    lq = np.log(qf)
    val = float(np.where(support, p * (lp - lq), 0.0).sum()) / n_slices
    out = Tensor(val)
    q_active = q.data > _LOG_FLOOR

    def rule(g):
        return (np.where(q_active, -(p / qf) * (float(g) / n_slices), 0.0),)

    return _record(out, (q,), rule)


def cross_entropy_rows(logits: Tensor, targets: Sequence[int]) -> Tensor:
    """Per-row -log softmax(logits[m])[targets[m]] of an [M, V] matrix, [M]."""
    if logits.data.ndim != 2:
        raise DimensionError(f"cross_entropy_rows expects a matrix, got shape {logits.shape}")
    m_rows, n = logits.shape
    tgt = np.asarray(targets, dtype=np.intp)
    if tgt.shape != (m_rows,):
        raise DimensionError(f"{tgt.shape[0] if tgt.ndim == 1 else tgt.shape} targets "
                             f"for {m_rows} rows of logits")
    if tgt.size and (tgt.min() < 0 or tgt.max() >= n):
        raise IndexError(f"target index out of range for {n} logits")
    z = logits.data
    rows = np.arange(m_rows)
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    s = e.sum(axis=1, keepdims=True)
    out = Tensor(np.log(s[:, 0]) + m[:, 0] - z[rows, tgt])

    def rule(g):
        d = e / s                                          # the softmax, formed only here
        d *= g[:, None]
        d[rows, tgt] -= g
        return (d,)

    return _record(out, (logits,), rule)


# ---------------------------------------------------------------------------
# fused recurrence

# The step buffers of `lstm_sequence`, reused across calls: one flat
# buffer per role, grown to the largest call's size and never shrunk.
_WORKSPACE: dict[str, np.ndarray] = {}


def _workspace(role: str, *shape: int) -> np.ndarray:
    """A view of the workspace buffer of `role` in `shape`, growing the
    buffer if it is too small. The next call that takes the role overwrites
    it, so a view is never returned or kept by a tape."""
    n = math.prod(shape)
    buf = _WORKSPACE.get(role)
    if buf is None or buf.size < n:
        buf = _WORKSPACE[role] = np.empty(n)
    return buf[:n].reshape(shape)


def lstm_sequence(table: Tensor, index, h0: Tensor, wx: Tensor, wh: Tensor,
                  b: Tensor, start=None) -> Tensor | tuple[Tensor, np.ndarray]:
    """B sequences through one LSTM cell, fused into a single tape node.

    table: [N, d_in] input rows; index: int [T, B], the row of table that
    sequence b reads at step t, or -1 where it reads none and its state is
    carried unchanged (after its end, or before its start when the index is
    reversed for the backward direction). A row may be read any number of
    times, so an embedding matrix indexed by a grid of token ids is a table.
    h0: [B, H] initial hidden states; every cell state starts at zero.
    wx: [d_in, 4H]; wh: [H, 4H]; b: [1, 4H] with gate order i, f, o, g.
    Returns every step's h as [T*B, H], row t*B + b.

    With `start` (int [B]), h0 is [S, H] and sequence b starts from its
    row start[b]. Sequences that start from the same row and have read the
    same rows so far hold one state, computed once: each step keys the
    sequences that read by (the state they hold, the row they read), one
    `np.unique` over an int key, and steps each distinct key once, while a
    sequence that reads -1 keeps the state it holds. The call then returns
    (states, grid): one row of h per state a step reached, step by step, and
    the int [T, B] grid of the row that sequence b holds after step t, -1
    while it still holds its h0 row. (Every sequence from its own row,
    reading at every step, gives the rows above and the grid t*B + b.)
    This is inference only: under a recording tape `start` raises
    ContractError. Under the one-row rule (module docstring) every state is
    bit for bit the state the sequence gets without `start`.

    Each distinct row the index reads is projected once per call (found by
    one count per table row, O(N + T*B)):
    table[used] @ wx + b is a [U, 4H] buffer, U at most N, and each step
    gathers its rows from it. That is the input projection hoisted out of
    the loop (Appleyard et al., arXiv:1604.01946) without an [N, 4H] or
    [T*B, 4H] buffer.

    The gates are stored gate-major: the projection is kept as [4, U, H],
    a step gathers it into a [4, B, H] buffer and adds the step's one
    h @ wh product ([B, 4H]) through a transposed view, so each gate's
    activation runs on a contiguous [B, H] block. A shared step forms
    h @ wh once per state it holds, not once per key, and adds each key's
    rows of it gate by gate, gathered through the rows of h the step is
    about to write. With no tape, i*g and then tanh(c) are formed in those
    rows too, where o scales them in place. The step buffers (the gates
    when no tape records, h @ wh, the c pair, and the held c of shared
    steps) are views of the module's workspace: one flat buffer per role,
    as large as the largest call has needed (1.8 MB for the generative
    decoder's evaluation batch of 640 sequences from 64 states, H = 64),
    overwritten by the next call, which is why calls must not run
    concurrently. Only the returned states, the recorded activations and
    small per-state rows are allocated per call.

    Activations are kept for backpropagation through time only while a tape
    records, written by the steps straight into a [T, 4, B, H] store, with
    the c each step started from and its tanh(c). The h each step started
    from is not stored: it is h0, then the returned states shifted by one
    step, and the backward rule rebuilds it from those for dwh. The
    backward rule sums each distinct row's gate gradients once and forms
    d(table), dwx and db from those [U, 4H] sums, and dwh in one matmul
    over all steps. It returns dh0 only, as the zero start cell is no
    input; for a constant h0 it skips the last products toward h0 and
    returns no h0 gradient, and a one-step call from a constant zero h0
    also returns none for wh, which never acts there.
    """
    idx = np.asarray(index, dtype=np.intp)
    if idx.ndim != 2:
        raise DimensionError(f"lstm_sequence index must be [T, B], got shape {idx.shape}")
    T, B = idx.shape
    H = wh.shape[0]
    shared = start is not None
    if shared:
        start = np.asarray(start, dtype=np.intp)
    if (table.data.ndim != 2 or wx.shape != (table.shape[1], 4 * H) or wh.shape != (H, 4 * H)
            or b.shape != (1, 4 * H) or h0.data.ndim != 2 or h0.shape[1] != H
            or (start.shape != (B,) if shared else h0.shape[0] != B)):
        raise DimensionError(
            f"lstm_sequence shapes: table {table.shape}, index {idx.shape}, h0 {h0.shape}, "
            f"wx {wx.shape}, wh {wh.shape}, b {b.shape}"
            + (f", start {start.shape}" if shared else "")
        )
    if idx.size and (idx.min() < -1 or idx.max() >= table.shape[0]):
        raise IndexError(f"lstm_sequence index outside [-1, {table.shape[0]})")
    if shared and start.size and (start.min() < 0 or start.max() >= h0.shape[0]):
        raise IndexError(f"lstm_sequence start outside [0, {h0.shape[0]})")
    live = idx >= 0
    full = live.all(axis=1)
    # the distinct rows read, and for each read (step-major, as dz in the
    # rule) its row among them: the sorted arrays `np.unique` gives, from
    # one count per table row in place of its sort
    read_rows = idx[live]
    bins = np.bincount(read_rows, minlength=table.shape[0])
    used = np.flatnonzero(bins)
    counts = bins[used]
    inv = (np.cumsum(bins > 0) - 1)[read_rows]
    local = np.full((T, B), -1, dtype=np.intp)
    local[live] = inv
    inputs = (table, h0, wx, wh, b)
    record = _recording(inputs)
    if shared and record:
        raise ContractError("lstm_sequence shares states only when no tape records")
    x_used, wxd, whd = table.data[used], wx.data, wh.data
    proj = _product(x_used, wxd) if used.size else np.zeros((1, 4 * H))
    proj += b.data
    proj = np.ascontiguousarray(proj.reshape(-1, 4, H).transpose(1, 0, 2))   # [4, U, H]
    if record:
        gates = np.empty((T, 4, B, H))                     # i, f, o, g after activation
        c_prev = np.empty((T, B, H))
        tanh_c = np.empty((T, B, H))
    h = h0.data
    c = np.zeros(h.shape)
    if shared:
        # h and c of every state: h0's rows, then each state a step reaches.
        # One block for both: two equal blocks freed together would reach
        # glibc's trim threshold, which the first call's block sets, and
        # the heap would be trimmed and faulted in again on every call
        S = h0.shape[0]
        hs, cs = np.empty((2, S + T * B, H))
        hs[:S], cs[:S] = h, c
        held, top = start.copy(), S     # the state each sequence holds; the rows written
        grid = np.empty((T, B), dtype=np.intp)
    else:
        hs = np.empty((T * B, H))
        c_pair = _workspace("c", 2, B, H)
    for t in range(T):
        rows, n = local[t], B
        if shared:
            go = rows >= 0
            uniq, inv = np.unique(held[go] * used.size + rows[go], return_inverse=True)
            held[go] = top + inv
            grid[t] = held
            if not uniq.size:
                continue
            prev, rows = np.divmod(uniq, used.size)
            n = rows.size
            # into a buffer of its own, in "clip" mode: NumPy copies a take
            # through a temporary when out overlaps the input, as cs's rows
            # would, or when it checks the indices ("raise")
            c = np.take(cs, prev, axis=0, out=_workspace("c_held", n, H), mode="clip")
            # h @ wh is formed once per state the keys hold; key_state is each key's row of it
            prev, key_state = np.unique(prev, return_inverse=True)
            h = hs[prev]
            h2, c2 = hs[top:top + n], cs[top:top + n]
            top += n
        else:
            h2, c2 = hs[t * B:(t + 1) * B], c_pair[t % 2]
        if shared or t == 0:
            m = h.shape[0]
            zh = _workspace("zh", m, 4 * H)
            if not record:
                z = _workspace("z", 4, n, H)
        if record:
            z = gates[t]
        # the index was range-checked above; a -1 reads row 0 and its
        # result is discarded below
        np.take(proj, rows, axis=1, out=z, mode="clip")
        if m > 1:
            np.matmul(h, whd, out=zh)
        else:
            zh[:] = _product(h, whd)
        zh_gates = zh.reshape(m, 4, H).transpose(1, 0, 2)
        if shared:
            # each key's rows of the product, gathered gate by gate into the
            # state rows this step has not written yet
            for zk, zhk in zip(z, zh_gates):
                zk += np.take(zhk, key_state, axis=0, out=h2, mode="clip")
        else:
            z += zh_gates
        ifo = z[:3]                                        # sigmoid of i, f, o, in place
        np.negative(ifo, out=ifo)
        np.exp(ifo, out=ifo)
        ifo += 1.0
        np.reciprocal(ifo, out=ifo)
        i, f, o, gg = z
        np.tanh(gg, out=gg)
        np.multiply(f, c, out=c2)
        # i*g and then tanh(c) go to the recorded tanh(c), or with no tape
        # to h's rows, which o then scales in place (a product commutes bit
        # for bit)
        tc = tanh_c[t] if record else h2
        c2 += np.multiply(i, gg, out=tc)
        np.tanh(c2, out=tc)
        np.multiply(o, tc, out=h2)
        if not (shared or full[t]):
            keep = ~live[t, :, None]
            np.copyto(c2, c, where=keep)
            np.copyto(h2, h, where=keep)
        if record:
            c_prev[t] = c
        h, c = h2, c2
    if shared:
        return Tensor(hs[S:top]), np.maximum(grid - S, -1)
    out = Tensor(hs)
    if not record:
        return out

    def rule(g):
        g = g.reshape(T, B, H)
        dz = np.zeros((T, B, 4 * H))
        dh_next = np.zeros((B, H))
        dc_next = np.zeros((B, H))
        for t in range(T - 1, -1, -1):
            dh = g[t] + dh_next
            i, f, o, gg = gates[t]
            tc = tanh_c[t]
            dc = dc_next + dh * o * (1.0 - tc * tc)
            dzt = dz[t]
            dzt[:, :H] = dc * gg * i * (1.0 - i)
            dzt[:, H:2 * H] = dc * c_prev[t] * f * (1.0 - f)
            dzt[:, 2 * H:3 * H] = dh * tc * o * (1.0 - o)
            dzt[:, 3 * H:] = dc * i * (1.0 - gg * gg)
            if not full[t]:
                dzt[~live[t]] = 0.0
            if t == 0 and not h0.requires_grad:
                break                                      # the engine drops dh0
            dh_prev = dzt @ whd.T
            dc_prev = dc * f
            if not full[t]:
                keep = ~live[t, :, None]
                dh_prev = np.where(keep, dh, dh_prev)
                dc_prev = np.where(keep, dc_next, dc_prev)
            dh_next, dc_next = dh_prev, dc_prev
        if T == 1 and not (h0.requires_grad or h0.data.any()):
            dwh = None                                     # one step from a zero h: wh never acts
        else:
            # the state each step started from: h0, then the returned states
            h_prev = np.concatenate([h0.data, hs[:(T - 1) * B]])[:T * B]
            dwh = h_prev.T @ dz.reshape(T * B, 4 * H)
        dproj = np.zeros((used.size, 4 * H))               # per distinct row
        if used.size:
            starts = np.concatenate([[0], np.cumsum(counts[:-1])])
            reads = np.flatnonzero(live)[np.argsort(inv, kind="stable")]
            np.add.reduceat(np.take(dz.reshape(T * B, 4 * H), reads, axis=0), starts, axis=0,
                            out=dproj)
        dtable = np.zeros(table.shape)
        dtable[used] = dproj @ wxd.T
        dh0 = dh_next if h0.requires_grad else None
        return dtable, dh0, x_used.T @ dproj, dwh, dproj.sum(axis=0, keepdims=True)

    return _record(out, inputs, rule)
