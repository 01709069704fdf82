"""Minimal reverse-mode automatic differentiation over numpy arrays.

The training objective mixes graph propagation, softmax attention, distance
correlation and pairwise ranking losses; deriving all of those gradients by
hand would be brittle.  Instead every forward computation is recorded on a
small tape of :class:`Tensor` nodes and gradients are obtained by walking the
tape backwards.  Only the handful of operations the model actually needs are
implemented.  All data is float64.

Each tape node holds a backward rule ``bwd(g)`` that maps its output
gradient to one share per parent, in parent order, with ``None`` for a
parent that needs no gradient.  Rules only compute shares;
:meth:`Tensor.backward` alone adds them into the parents' ``grad``.

Gradients stay on leaves only: once a tape node has passed its gradient to
its parents, the walk drops it, so one backward never holds every
intermediate gradient at once and a second backward over the same tape
adds each leaf's gradient exactly once more.

Gradient correctness is enforced against central finite differences (see
``training.run_gradcheck`` and the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bwd")

    # keep numpy from consuming `ndarray <op> Tensor` elementwise; with this
    # set, numpy returns NotImplemented and Python calls our reflected op
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._bwd = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    # -- graph construction -------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        # never mutate g in place: grads may be shared between children
        self.grad = g if self.grad is None else self.grad + g

    def backward(self) -> None:
        """Backpropagate from a scalar tensor through the recorded tape.

        In reverse topological order, each node's rule turns its ``grad``
        into one share per parent, and every share that is not ``None`` is
        added to that parent's ``grad``.  Leaves (tensors without a
        backward rule) keep what they accumulate; every other node's
        ``grad`` is released as soon as its rule has run.
        """
        if self.data.shape != ():
            raise ValueError("backward() requires a scalar tensor")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones((), dtype=np.float64)
        for node in reversed(topo):
            if node._bwd is not None:
                for parent, share in zip(node._parents, node._bwd(node.grad)):
                    if share is not None:
                        parent._accumulate(share)
                node.grad = None

    # -- operators ------------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    @property
    def T(self):
        return transpose(self)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def astensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents: tuple, bwd) -> Tensor:
    """Create a tape node; constants short-circuit so the tape stays small.

    ``bwd(g)`` returns a tuple with one gradient share per parent, in
    ``parents`` order, or ``None`` for a parent that needs no gradient.
    """
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._bwd = bwd
    return out


# -- arithmetic ----------------------------------------------------------------


def _elementwise(op, a, b, da, db) -> Tensor:
    """``op(a, b)`` elementwise; ``da(g, a, b)`` and ``db(g, a, b)`` give each
    side's share on the arrays, reduced back over numpy broadcasting."""
    a, b = astensor(a), astensor(b)

    def bwd(g):
        return tuple(_unbroadcast(d(g, a.data, b.data), t.data.shape)
                     if t.requires_grad else None
                     for t, d in ((a, da), (b, db)))

    return _node(op(a.data, b.data), (a, b), bwd)


def add(a, b) -> Tensor:
    return _elementwise(np.add, a, b, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _elementwise(np.subtract, a, b, lambda g, x, y: g,
                        lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _elementwise(np.multiply, a, b, lambda g, x, y: g * y,
                        lambda g, x, y: g * x)


def div(a, b) -> Tensor:
    return _elementwise(np.divide, a, b, lambda g, x, y: g / y,
                        lambda g, x, y: -g * x / (y * y))


def matmul(a, b) -> Tensor:
    """2-D matrix product."""
    a, b = astensor(a), astensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("matmul supports 2-D operands only")

    def bwd(g):
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)

    return _node(a.data @ b.data, (a, b), bwd)


def transpose(a) -> Tensor:
    a = astensor(a)
    if a.ndim != 2:
        raise ValueError("transpose supports 2-D tensors only")
    return _node(a.data.T, (a,), lambda g: (g.T,))


def reshape(a, shape) -> Tensor:
    a = astensor(a)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return _node(a.data.reshape(shape), (a,),
                 lambda g: (g.reshape(a.data.shape),))


# -- reductions ------------------------------------------------------------------


def _expand_reduced(g: np.ndarray, shape: tuple, axis, keepdims: bool) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, shape)
    axes = axis if isinstance(axis, tuple) else (axis,)
    if not keepdims:
        for ax in sorted(a % len(shape) for a in axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape)


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = astensor(a)
    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,),
                 lambda g: (_expand_reduced(g, a.data.shape, axis, keepdims),))


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = astensor(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    n = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )
    return _node(out_data, (a,), lambda g: (
        _expand_reduced(g, a.data.shape, axis, keepdims) / n,))


# -- indexing and sparse aggregation ----------------------------------------------


def gather(a, idx) -> Tensor:
    """Select rows ``a[idx]`` of a 2-D tensor for a 1-D integer index array."""
    a = astensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    if a.ndim != 2 or idx.ndim != 1:
        raise ValueError("gather takes a 2-D tensor and a 1-D index array")

    def bwd(g):
        # scatter-add via one flat bincount; much faster than np.add.at
        n_rows, cols = a.data.shape
        flat = (idx[:, None] * cols + np.arange(cols)).ravel()
        return (np.bincount(flat, weights=g.ravel(),
                            minlength=n_rows * cols).reshape(n_rows, cols),)

    return _node(a.data[idx], (a,), bwd)


def rows(a, start: int, stop: int) -> Tensor:
    """The contiguous row block ``a[start:stop]``."""
    a = astensor(a)

    def bwd(g):
        ga = np.zeros_like(a.data)
        ga[start:stop] = g
        return (ga,)

    return _node(a.data[start:stop], (a,), bwd)


@dataclass(frozen=True)
class RelationalOperator:
    """Per-relation mean aggregation, kept to the rows that hold an edge.

    Stacked one above the other, the blocks A_k (n x n, entry 1/deg(dst) at
    (dst, src) for every edge of relation k, duplicate edges summed, deg
    counted over all relations) form an (n_rel * n x n) matrix.  ``rows``
    keeps only its m non-empty rows, in stacked order, i.e. sorted by
    (relation, destination): relation k's rows are the contiguous block
    ``rel_ptr[k]:rel_ptr[k + 1]``, and row i aggregates into node
    ``row_dst[i]``.  ``rows_t`` is the transpose in CSR form and
    ``collapse`` the (n x m) 0/1 matrix that sums each node's rows.  Stacked
    order makes every sum add the same nonzero terms in the same order as
    the full stacked matrix would, so results are bit-identical to it.
    """

    n_rel: int
    n: int
    rows: sp.csr_matrix
    rows_t: sp.csr_matrix
    collapse: sp.csr_matrix
    row_dst: np.ndarray
    rel_ptr: np.ndarray

    @classmethod
    def from_edges(cls, dst, src, rel, n_rel: int, n: int) -> "RelationalOperator":
        """Build from directed edges ``src -> dst`` labelled ``rel``."""
        deg = np.bincount(dst, minlength=n)
        stacked = sp.csr_matrix((1.0 / deg[dst], (rel * n + dst, src)),
                                shape=(n_rel * n, n))
        keys = np.flatnonzero(np.diff(stacked.indptr))
        kept, m, row_dst = stacked[keys], len(keys), keys % n
        collapse = sp.csr_matrix((np.ones(m), (row_dst, np.arange(m))),
                                 shape=(n, m))
        return cls(n_rel, n, kept, kept.T.tocsr(), collapse, row_dst,
                   np.searchsorted(keys, np.arange(n_rel + 1) * n))


def relational_spmm(op: RelationalOperator, x, r) -> Tensor:
    """Relation-gated aggregation ``sum_k (A_k @ x) * r[k]``.

    One sparse product gives the non-empty rows' aggregates; each
    relation's block of them is gated by its row of ``r``, and ``collapse``
    sums every node's gated rows in relation order.  Only the (m x d)
    aggregates are kept for the backward pass, never a per-edge array.
    """
    x, r = astensor(x), astensor(r)
    if r.shape[0] != op.n_rel or x.shape[0] != op.n:
        raise ValueError(f"a {r.shape[0]}-row relation table over {x.shape[0]} "
                         f"nodes does not fit an operator of {op.n_rel} "
                         f"relations over {op.n} nodes")
    agg = op.rows @ x.data
    blocks = [slice(a, b) for a, b in zip(op.rel_ptr[:-1], op.rel_ptr[1:])]
    gated = np.empty_like(agg)
    for k, b in enumerate(blocks):
        np.multiply(agg[b], r.data[k], out=gated[b])

    def bwd(g):
        # one gather serves both shares: r's reads it, then x's scales it
        gd = g[op.row_dst]
        gr = np.stack([np.einsum("nd,nd->d", agg[b], gd[b])
                       for b in blocks]) if r.requires_grad else None
        if not x.requires_grad:
            return None, gr
        for k, b in enumerate(blocks):
            gd[b] *= r.data[k]
        return op.rows_t @ gd, gr

    return _node(op.collapse @ gated, (x, r), bwd)


def spmm(mat: sp.spmatrix, x, mat_t: sp.spmatrix) -> Tensor:
    """Multiply a constant sparse matrix with a dense tensor; ``mat_t`` is
    its transpose in CSR form, which the backward pass multiplies by."""
    x = astensor(x)
    return _node(mat @ x.data, (x,), lambda g: (mat_t @ g,))


# -- nonlinearities -----------------------------------------------------------------


def softmax(a, axis=-1) -> Tensor:
    """Row-stable softmax; the max shift is treated as a constant."""
    a = astensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - inner),)

    return _node(y, (a,), bwd)


def sqrt(a) -> Tensor:
    """Square root; the subgradient at 0 is taken as 0 so clamped values stay finite."""
    a = astensor(a)
    y = np.sqrt(a.data)

    def bwd(g):
        safe = np.where(a.data > 0.0, np.maximum(y, 1e-300), 1.0)
        return (g * np.where(a.data > 0.0, 0.5 / safe, 0.0),)

    return _node(y, (a,), bwd)


def absval(a) -> Tensor:
    a = astensor(a)
    return _node(np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),))


def clamp_min(a, lo: float) -> Tensor:
    a = astensor(a)
    return _node(np.maximum(a.data, lo), (a,), lambda g: (g * (a.data > lo),))


def softplus(a) -> Tensor:
    """log(1 + exp(x)) computed without overflow; softplus(-z) = -log(sigmoid(z))."""
    a = astensor(a)
    y = np.logaddexp(0.0, a.data)

    def bwd(g):
        # derivative is sigmoid(x), evaluated stably
        s = np.where(a.data >= 0, 1.0 / (1.0 + np.exp(-np.abs(a.data))),
                     np.exp(-np.abs(a.data)) / (1.0 + np.exp(-np.abs(a.data))))
        return (g * s,)

    return _node(y, (a,), bwd)
