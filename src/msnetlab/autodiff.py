"""Tape-based reverse-mode differentiation over float64 numpy arrays.

The engine is deliberately small: it provides exactly the operations the
CTR models in this package need (embedding gather with sparse gradient
accumulation, matrix product, dense layer ``x @ w + b`` with an optional
leaky rectifier, reshape, concat, multi-head target attention over
packed row segments read from per-item q, k and v tables, sigmoid, clamp,
elementwise add and multiply, scaling by a constant, stop-gradient, MSNet's
norm-ratio blend and cosine-gap aux loss, binary cross-entropy) and
nothing else.
No broadcasting rules, no GPU, no higher-order derivatives.

A ``Tape`` is rebuilt for every forward pass (define-by-run).  ``Tensor``
values are immutable once created; parameters live in a ``ParamStore`` and
are re-registered on each new tape.  A backward pass returns one
``Gradients``: the dense parameters' gradients in one vector laid out like
``ParamStore.dense``, and each embedding table's deduplicated sparse rows.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Iterable, Sequence

import numpy as np

Array = np.ndarray

# Epsilon in the norm ratio's and the cosines' denominators.  Chosen far
# below every test tolerance so it never hides a real error.
COSINE_EPS = 1e-12

LEAKY_SLOPE = 0.01


class AutodiffError(Exception):
    """Raised on misuse of the tape (bad shapes, bad indices, non-scalar loss)."""


@dataclasses.dataclass(frozen=True)
class SparseRows:
    """Sparse gradient of an embedding table: deduplicated (row, grad) pairs.

    ``indices`` is a sorted 1-D int array of unique row ids and ``rows`` the
    matching [len(indices) x D] gradient block.  An empty ``indices`` array
    represents an exactly-zero gradient.
    """

    indices: Array
    rows: Array

    def to_dense(self, shape: tuple[int, int]) -> Array:
        out = np.zeros(shape, dtype=np.float64)
        if self.indices.size:
            out[self.indices] = self.rows
        return out


@dataclasses.dataclass(frozen=True)
class Gradients:
    """The gradients of one backward pass.

    ``dense`` is laid out like the ``ParamStore.dense`` of the tape's
    parameters and is zero for parameters off the loss path; ``sparse``
    holds each embedding table's rows, in creation order.  ``grads[name]``
    gives a dense parameter's view into ``dense`` (``views``) or a table's
    ``SparseRows``.
    """

    dense: Array
    sparse: dict[str, SparseRows]
    views: dict[str, Array]

    def __getitem__(self, name: str) -> "Array | SparseRows":
        return self.sparse[name] if name in self.sparse else self.views[name]


class ParamStore:
    """Named trainable parameters, with embedding tables flagged for
    sparse gradient handling.

    Creation order is recorded so seeded initialization is reproducible.
    Embedding tables are arrays of their own.  Every other (dense)
    parameter is a view into one float64 vector, ``dense``, laid out in
    creation order, so that an optimizer can check and update all of them
    in one pass.  Write parameter values in place: an array bound in
    ``values`` in place of a view is not part of ``dense``.
    """

    def __init__(self) -> None:
        self.values: dict[str, Array] = {}
        self.embedding_names: set[str] = set()
        self._order: list[str] = []
        self.dense = np.zeros(0, dtype=np.float64)
        # dense parameter name -> (offset into ``dense``, shape)
        self._slots: dict[str, tuple[int, tuple[int, ...]]] = {}

    def add(self, name: str, values: Array, *, embedding: bool = False) -> Array:
        """Register a parameter; a dense one is copied into ``dense``,
        which moves the views of the dense parameters added before it."""
        if name in self.values:
            raise AutodiffError(f"duplicate parameter name {name!r}")
        arr = np.ascontiguousarray(values, dtype=np.float64)
        self._order.append(name)
        if embedding:
            self.embedding_names.add(name)
            self.values[name] = arr
            return arr
        self._slots[name] = (self.dense.size, arr.shape)
        self.dense = np.concatenate([self.dense, arr.reshape(-1)])
        self.values.update(self.dense_views(self.dense))
        return self.values[name]

    def dense_views(self, flat: Array) -> dict[str, Array]:
        """Each dense parameter's view into ``flat``, a vector laid out
        like ``dense``."""
        return {name: flat[start:start + math.prod(shape)].reshape(shape)
                for name, (start, shape) in self._slots.items()}

    def names(self) -> list[str]:
        return list(self._order)

    def copy(self, *, zero: bool = False) -> "ParamStore":
        """A store with this one's names, kinds and layout, holding copies
        of its values, or zeros when ``zero``."""
        other = ParamStore()
        for name in self._order:
            values = self.values[name]
            other.add(name, np.zeros_like(values) if zero else values.copy(),
                      embedding=name in self.embedding_names)
        return other

    def __contains__(self, name: str) -> bool:
        return name in self.values


@dataclasses.dataclass
class Tensor:
    """A float64 array plus the tape node that produced it.

    ``node`` is None for constants, which never receive gradient.
    """

    values: Array
    node: int | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape


class _Node:
    __slots__ = ("backward", "name")

    def __init__(self, backward: Callable[[Array, list[Array | None]], None],
                 name: str) -> None:
        self.backward = backward
        self.name = name


class StopGradientFreezer:
    """Records stop-gradient outputs on one pass and replays them on
    later passes.

    The tape gradient of a graph containing stop_gradient is the exact
    derivative of the partial function in which every blocked quantity is
    a constant.  A finite-difference oracle for that partial function must
    therefore hold blocked values fixed while parameters move; this object
    provides the record/replay plumbing.  Graph construction has to be
    deterministic so the replay order lines up.
    """

    def __init__(self) -> None:
        self.storage: list[Array] = []
        self.mode = "record"  # or "replay"
        self.cursor = 0

    def on_stop_gradient(self, values: Array) -> Array:
        if self.mode == "record":
            self.storage.append(values.copy())
            return self.storage[-1]
        if self.cursor >= len(self.storage):
            raise AutodiffError(
                "stop_gradient replay ran past the recorded pass; the "
                "forward closure is not deterministic")
        out = self.storage[self.cursor]
        self.cursor += 1
        return out


def _accum(grads: list[Array | None], node: int | None, g: Array) -> None:
    # g may be shared with other nodes (or be a view of another
    # gradient), so it is stored as is and never changed in place.  A
    # function, not a method: backward closures that held the tape would
    # make each tape a reference cycle that outlives its last use until
    # the cyclic collector runs.
    if node is None:
        return
    if grads[node] is None:
        grads[node] = g
    else:
        grads[node] = grads[node] + g


class Tape:
    """Records operations for a single forward pass and replays them in
    reverse to accumulate gradients.

    The tape is consumable: ``backward`` may be called once, after which
    the node list is dropped.

    A tape made with ``record=False`` is forward-only, as inference needs:
    it registers no leaves, ``param`` gives each parameter's values as a
    constant, so every result is a constant, and no node is stored; its
    ``backward`` raises.  The forward values are those of a recording tape.
    """

    def __init__(self, params: ParamStore | None = None, *,
                 record: bool = True) -> None:
        self._nodes: list[_Node] = []
        self._leaf_node: dict[str, int] = {}
        # per embedding leaf node: list of (indices, grad rows) to merge later
        self._sparse_parts: dict[int, list[tuple[Array, Array]]] = {}
        self.params = params
        self._record = record
        self._consumed = False
        # stop_gradient's outputs come from it when set (check_gradients)
        self.freezer: StopGradientFreezer | None = None
        # the dense gradient, laid out like params.dense, and each dense
        # parameter's view into it
        self._dense_grad = np.zeros(0, dtype=np.float64)
        self._grad_views: dict[str, Array] = {}
        if params is not None and record:
            self._dense_grad = np.zeros_like(params.dense)
            self._grad_views = params.dense_views(self._dense_grad)
            for name in params.names():
                self._register_leaf(name, self._grad_views.get(name))

    # ------------------------------------------------------------------
    # node plumbing

    def _register_leaf(self, name: str, grad: Array | None) -> None:
        """A leaf for parameter ``name``.  A dense parameter's leaf writes
        its summed gradient into ``grad``, its view into the dense gradient;
        it runs after every node that uses the parameter, since those were
        pushed after it.  An embedding table (``grad`` None) collects its
        gathers' rows instead."""
        if grad is None:
            nid = self._push(lambda g, grads: None, f"leaf:{name}")
            self._sparse_parts[nid] = []
        else:
            def backward(g: Array, grads: list[Array | None]) -> None:
                grad[...] = g

            nid = self._push(backward, f"leaf:{name}")
        self._leaf_node[name] = nid

    def _push(self, backward: Callable[[Array, list[Array | None]], None],
              name: str) -> int | None:
        """The new node's id; None, a constant, on a forward-only tape."""
        if not self._record:
            return None
        self._nodes.append(_Node(backward, name))
        return len(self._nodes) - 1

    def param(self, name: str) -> Tensor:
        """Tensor view of a registered parameter (a constant on a
        forward-only tape)."""
        if self.params is None or name not in self.params:
            raise AutodiffError(f"unknown parameter {name!r}")
        return Tensor(self.params.values[name], self._leaf_node.get(name))

    @staticmethod
    def constant(values: Array | float | Sequence) -> Tensor:
        return Tensor(np.asarray(values, dtype=np.float64), None)

    def _refuse_tables(self, op: str, **inputs: Tensor) -> None:
        """Refuses an embedding table: only ``gather_rows`` feeds its leaf."""
        for arg, t in inputs.items():
            if t.node in self._sparse_parts:
                raise AutodiffError(f"{op} takes no embedding table as {arg}")

    # ------------------------------------------------------------------
    # operations

    def gather_rows(self, table: Tensor, indices: Array | Sequence[int],
                    table_name: str = "table") -> Tensor:
        """Row lookup ``out[i] = table[indices[i]]`` with sparse backward.

        Duplicate indices are legal; their output-row gradients sum into the
        single source row.  Out-of-range indices raise, naming the first
        offending index and the table.  The rows are copied by ``np.take``,
        which gives the bytes of fancy indexing at a third of its cost.
        """
        idx = np.asarray(indices, dtype=np.int64).reshape(-1)
        rows = table.values.shape[0]
        _check_rows(idx, rows, table_name)
        out = np.take(table.values, idx, axis=0)
        tnode = table.node
        if tnode is None:
            return Tensor(out, None)

        if tnode in self._sparse_parts:
            parts = self._sparse_parts[tnode]

            def backward(g: Array, grads: list[Array | None]) -> None:
                if idx.size:
                    parts.append((idx, g))
        else:
            def backward(g: Array, grads: list[Array | None]) -> None:
                _accum(grads, tnode, sum_rows_by_index(idx, g, rows))

        nid = self._push(backward, "gather_rows")
        return Tensor(out, nid)

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        """Matrix product of two 2-D operands."""
        av, bv = a.values, b.values
        if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
            raise AutodiffError(f"matmul shape mismatch {av.shape} @ {bv.shape}")
        out = av @ bv
        an, bn = a.node, b.node

        def backward(g: Array, grads: list[Array | None]) -> None:
            if an is not None:
                _accum(grads, an, g @ bv.T)
            if bn is not None:
                _accum(grads, bn, av.T @ g)

        return Tensor(out, self._push(backward, "matmul"))

    def concat_cols(self, parts: Iterable[Tensor]) -> Tensor:
        ts = list(parts)
        if not ts:
            raise AutodiffError("concat_cols of nothing")
        n = ts[0].values.shape[0]
        for t in ts:
            if t.values.ndim != 2 or t.values.shape[0] != n:
                raise AutodiffError("concat_cols row mismatch")
        out = np.concatenate([t.values for t in ts], axis=1)
        widths = [t.values.shape[1] for t in ts]
        nodes = [t.node for t in ts]

        def backward(g: Array, grads: list[Array | None]) -> None:
            offset = 0
            for node, w in zip(nodes, widths):
                if node is not None:
                    _accum(grads, node, g[:, offset:offset + w])
                offset += w

        return Tensor(out, self._push(backward, "concat_cols"))

    def _elementwise2(self, a: Tensor, b: Tensor, out: Array,
                      da: Callable[[Array], Array],
                      db: Callable[[Array], Array], name: str) -> Tensor:
        if a.values.shape != b.values.shape:
            raise AutodiffError(
                f"{name} shape mismatch {a.values.shape} vs {b.values.shape}")
        an, bn = a.node, b.node

        def backward(g: Array, grads: list[Array | None]) -> None:
            if an is not None:
                _accum(grads, an, da(g))
            if bn is not None:
                _accum(grads, bn, db(g))

        return Tensor(out, self._push(backward, name))

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        return self._elementwise2(a, b, a.values + b.values,
                                  lambda g: g, lambda g: g, "add")

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        av, bv = a.values, b.values
        return self._elementwise2(a, b, av * bv,
                                  lambda g: g * bv, lambda g: g * av, "mul")

    def scale(self, x: Tensor, c: float) -> Tensor:
        xn = x.node

        def backward(g: Array, grads: list[Array | None]) -> None:
            if xn is not None:
                _accum(grads, xn, g * c)

        return Tensor(x.values * c, self._push(backward, "scale"))

    def dense(self, x: Tensor, w: Tensor, b: Tensor, leaky: bool) -> Tensor:
        """``x @ w + b`` [N x K], through ``leaky_relu`` when ``leaky``.  Both
        ways it computes what a matrix product, a bias add and the rectifier
        did as three nodes, in the same order, so the bits are the same."""
        xv, wv, bv = x.values, w.values, b.values
        if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0] or \
                bv.shape != wv.shape[1:]:
            raise AutodiffError(
                f"dense shape mismatch {xv.shape} @ {wv.shape} + {bv.shape}")
        pre = xv @ wv + bv
        xn, wn, bn = x.node, w.node, b.node

        def backward(g: Array, grads: list[Array | None]) -> None:
            if leaky:
                g = leaky_relu(pre, g)
            if bn is not None:
                _accum(grads, bn, g.sum(axis=0))
            if xn is not None:
                _accum(grads, xn, g @ wv.T)
            if wn is not None:
                _accum(grads, wn, xv.T @ g)

        return Tensor(leaky_relu(pre) if leaky else pre,
                      self._push(backward, "dense"))

    def reshape(self, x: Tensor, shape: tuple[int, ...]) -> Tensor:
        out = x.values.reshape(shape)
        xn = x.node
        orig = x.values.shape

        def backward(g: Array, grads: list[Array | None]) -> None:
            if xn is not None:
                _accum(grads, xn, g.reshape(orig))

        return Tensor(out, self._push(backward, "reshape"))

    def norm_ratio_blend(self, delta: Tensor,
                         base: Tensor) -> tuple[Tensor, Tensor]:
        """out = v*delta + (1-v)*base for rows of [N x D], one node, with
        v = |delta| / (|delta| + |base| + COSINE_EPS) per row; returns
        (out, v), v a constant in [0, 1].  The arithmetic and the ``_accum``
        calls, in their order, are those of the ten nodes it replaced
        (``tests/helpers.py::norm_ratio_blend``), so the bits are theirs.
        A zero row's norm passes no gradient."""
        dv, bv = delta.values, base.values
        if dv.ndim != 2 or dv.shape != bv.shape:
            raise AutodiffError(
                f"norm_ratio_blend shape mismatch {dv.shape} vs {bv.shape}")
        nd, nb = _row_norms(dv), _row_norms(bv)
        den = (nd + nb) + COSINE_EPS
        v = nd / den
        om = v * -1.0 + 1.0
        dn, bn = delta.node, base.node

        def backward(g: Array, grads: list[Array | None]) -> None:
            _accum(grads, bn, g * om[:, None])
            _accum(grads, dn, g * v[:, None])
            gv = np.einsum("nd,nd->n", g, dv) + \
                np.einsum("nd,nd->n", g, bv) * -1.0
            g_den = -gv * v / den
            _accum(grads, bn, _row_norm_grad(g_den, nb, bv))
            _accum(grads, dn, _row_norm_grad(gv / den + g_den, nd, dv))

        out = dv * v[:, None] + bv * om[:, None]
        return (Tensor(out, self._push(backward, "norm_ratio_blend")),
                Tensor(v))

    def target_attention(self, q: Tensor, q_row: Array, k: Tensor, v: Tensor,
                         entry_row: Array, lengths: Array, combine: Tensor,
                         n_heads: int, d_head: int) -> tuple[Tensor, Array]:
        """Multi-head target attention of B batch rows over P packed
        positions, read from per-item tables; returns the interest
        [B, n_heads*d_head] and the detached [P, n_heads] pre-softmax
        scores.

        Batch row i owns ``lengths[i]`` consecutive positions (none when
        0) and queries with row ``q_row[i]`` of the table ``q``; position
        p reads row ``entry_row[p]`` of the tables ``k`` and ``v``.  All
        heads run at once: the constant block of ones ``E``
        (``_head_blocks``) sums each head's columns of k * q, and ``E.T``
        widens each head's weight back to its columns.  Per head, each
        position's score is its k's dot with its row's q over
        sqrt(d_head), a softmax over each row's positions weights their
        v, and the sums pool them; the heads, concatenated, go through
        ``combine``.  A row with no positions gets a zero interest.

        The numpy calls, and their order, are those of the composition
        this op replaced: three ``gather_rows``, two ``mul``, two
        ``matmul`` with E, a segment softmax, a segment sum and a
        ``matmul`` with ``combine``
        (``tests/helpers.py::attention_oracle``), so forward and backward
        have its bits.  The backward sums each gathered gradient into its
        table's rows with ``sum_rows_by_index``, as ``gather_rows`` does;
        with no positions, k and q get none.
        """
        lengths = np.asarray(lengths, dtype=np.int64).reshape(-1)
        runs = SegmentRuns.from_lengths(lengths)
        ids, starts, run = runs.ids, runs.starts, runs.run
        b, p, width = lengths.size, ids.size, n_heads * d_head
        q_row = np.asarray(q_row, dtype=np.int64).reshape(-1)
        e_idx = np.asarray(entry_row, dtype=np.int64).reshape(-1)
        if q_row.size != b or e_idx.size != p or \
                any(t.values.ndim != 2 or t.values.shape[1] != width
                    for t in (q, k, v)) or \
                k.values.shape != v.values.shape or \
                combine.values.shape != (width, width):
            raise AutodiffError(
                f"target_attention shape mismatch: q {q.values.shape}, "
                f"k {k.values.shape}, v {v.values.shape}, combine "
                f"{combine.values.shape}, {q_row.size} query rows, "
                f"{e_idx.size} entry rows for {b} rows and {p} positions "
                f"of {n_heads} heads of {d_head}")
        self._refuse_tables("target_attention", q=q, k=k, v=v, combine=combine)
        _check_rows(q_row, q.values.shape[0], "the query table")
        _check_rows(e_idx, k.values.shape[0], "the key/value tables")
        q_idx = np.repeat(q_row, lengths)
        heads, scaled = _head_blocks(n_heads, d_head)
        qg = np.take(q.values, q_idx, axis=0)
        kg = np.take(k.values, e_idx, axis=0)
        vg = np.take(v.values, e_idx, axis=0)
        kq = kg * qg
        scores = kq @ scaled
        w = np.zeros_like(scores)
        if starts.size:
            e = np.exp(scores - np.take(np.maximum.reduceat(scores, starts,
                                                            axis=0),
                                        run, axis=0))
            w = e / np.take(np.add.reduceat(e, starts, axis=0), run, axis=0)
        wide = w @ heads.T
        x = wide * vg
        pooled = np.zeros((b, width), dtype=np.float64)
        if starts.size:
            pooled[ids[starts]] = np.add.reduceat(x, starts, axis=0)
        cv = combine.values
        qn, kn, vn, cn = q.node, k.node, v.node, combine.node
        n_q, n_kv = q.values.shape[0], k.values.shape[0]

        def backward(g: Array, grads: list[Array | None]) -> None:
            g_pooled = g @ cv.T
            if cn is not None:
                _accum(grads, cn, pooled.T @ g)
            g_x = np.take(g_pooled, ids, axis=0)
            g_v = g_x * wide
            if starts.size:
                g_w = (g_x * vg) @ heads
                inner = np.add.reduceat(g_w * w, starts, axis=0)
                g_kq = (w * (g_w - np.take(inner, run, axis=0))) @ scaled.T
                if qn is not None:
                    _accum(grads, qn, sum_rows_by_index(q_idx, g_kq * kg, n_q))
            # the order in which the replaced gathers' backwards ran
            if vn is not None:
                _accum(grads, vn, sum_rows_by_index(e_idx, g_v, n_kv))
            if starts.size and kn is not None:
                _accum(grads, kn, sum_rows_by_index(e_idx, g_kq * qg, n_kv))

        return (Tensor(pooled @ cv, self._push(backward, "target_attention")),
                scores)

    def sigmoid(self, x: Tensor) -> Tensor:
        out = sigmoid(x.values)
        xn = x.node

        def backward(g: Array, grads: list[Array | None]) -> None:
            if xn is not None:
                _accum(grads, xn, g * out * (1.0 - out))

        return Tensor(out, self._push(backward, "sigmoid"))

    def clamp(self, x: Tensor, lo: float, hi: float) -> Tensor:
        v = x.values
        out = np.clip(v, lo, hi)
        inside = (v > lo) & (v < hi)
        xn = x.node

        def backward(g: Array, grads: list[Array | None]) -> None:
            if xn is not None:
                _accum(grads, xn, g * inside)

        return Tensor(out, self._push(backward, "clamp"))

    def stop_gradient(self, x: Tensor) -> Tensor:
        """Identity forward; exactly zero gradient flows to x."""
        if self.freezer is not None:
            return Tensor(self.freezer.on_stop_gradient(x.values), None)
        return Tensor(x.values.copy(), None)

    def cosine_gap_loss(self, a: Tensor, a_to: Tensor, b: Tensor,
                        b_to: Tensor, rows: Array) -> Tensor:
        """mean_i (sg(cos(a_i, a_to[rows_i])) - cos(b_i, b_to[rows_i]))^2
        over N >= 1 rows, one node.  sg is stop-gradient: a and a_to get no
        gradient, and the blocked cosines go through the freezer when one
        is set.  A cosine is dot / (|x| * |y| + COSINE_EPS), so a zero row
        gives exactly 0.  The arithmetic and the ``_accum`` calls, in their
        order, are those of the 21 nodes it replaced
        (``tests/helpers.py::cosine_gap_loss``), so the bits are theirs;
        b_to's rows get theirs by ``sum_rows_by_index``, as gathers do."""
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        n, av, bv = rows.size, a.values, b.values
        shapes = [t.values.shape for t in (a, a_to, b, b_to)]
        if not n or any(len(s) != 2 for s in shapes) or \
                (shapes[0][0], shapes[2][0]) != (n, n) or \
                shapes[0][1] != shapes[1][1] or shapes[2][1] != shapes[3][1]:
            raise AutodiffError(f"cosine_gap_loss shape mismatch: a, a_to, "
                                f"b, b_to {shapes} and {n} rows")
        self._refuse_tables("cosine_gap_loss", b=b, b_to=b_to)
        _check_rows(rows, a_to.values.shape[0], "cosine_gap_loss's a_to")
        _check_rows(rows, b_to.values.shape[0], "cosine_gap_loss's b_to")
        blocked = _cosine_rows(av, np.take(a_to.values, rows, axis=0))[0]
        if self.freezer is not None:
            blocked = self.freezer.on_stop_gradient(blocked)
        tv = np.take(b_to.values, rows, axis=0)
        sim, den, nb, nt, ones = _cosine_rows(bv, tv)
        diff = blocked - sim
        bn, tn, n_to = b.node, b_to.node, b_to.values.shape[0]

        def backward(g: Array, grads: list[Array | None]) -> None:
            g_half = np.full((n,), g / n) * diff
            g_sim = -(g_half + g_half)
            g_den = -g_sim * sim / den
            g_prod = (g_sim / den).reshape((n, 1)) @ ones.T
            _accum(grads, bn, _row_norm_grad(g_den * nt, nb, bv))
            _accum(grads, bn, g_prod * tv)
            if tn is not None:
                _accum(grads, tn, sum_rows_by_index(
                    rows, _row_norm_grad(g_den * nb, nt, tv) + g_prod * bv,
                    n_to))

        return Tensor(np.asarray(float((diff * diff).sum() / n)),
                      self._push(backward, "cosine_gap_loss"))

    def bce(self, p: Tensor, labels: Array) -> Tensor:
        """-mean(y log p + (1-y) log(1-p)) over a probability vector."""
        y = np.asarray(labels, dtype=np.float64).reshape(-1)
        pv = p.values
        if pv.ndim != 1 or pv.shape != y.shape:
            raise AutodiffError("bce shape mismatch")
        n = pv.shape[0]
        out = float(-(y * np.log(pv) + (1.0 - y) * np.log1p(-pv)).mean())
        pn = p.node

        def backward(g: Array, grads: list[Array | None]) -> None:
            if pn is not None:
                _accum(grads, pn, g * (pv - y) / (pv * (1.0 - pv)) / n)

        return Tensor(np.asarray(out), self._push(backward, "bce"))

    # ------------------------------------------------------------------
    # backward

    def backward(self, loss: Tensor) -> Gradients:
        """Propagate from a scalar loss; returns the gradients of every
        registered parameter (zero for parameters off the path).

        The tape is consumed: a second call raises, as does a call on a
        forward-only tape.
        """
        if not self._record:
            raise AutodiffError("backward() on a forward-only tape")
        if self._consumed:
            raise AutodiffError("tape already consumed by backward()")
        if loss.node is None:
            # constant loss (e.g. aux loss of no rows): every gradient is zero
            return self._collect()
        if loss.values.size != 1:
            raise AutodiffError(
                f"backward wants a scalar loss, got shape {loss.values.shape}")
        grads: list[Array | None] = [None] * len(self._nodes)
        grads[loss.node] = np.ones_like(np.asarray(loss.values, dtype=np.float64))
        for nid in range(len(self._nodes) - 1, -1, -1):
            g = grads[nid]
            if g is None:
                continue
            self._nodes[nid].backward(g, grads)
        result = self._collect()
        self._consumed = True
        self._nodes = []
        return result

    def _collect(self) -> Gradients:
        """The dense gradient the leaves wrote, and each table's merged
        rows."""
        sparse = {name: _merge_sparse(self._sparse_parts[nid],
                                      self.params.values[name].shape[1])
                  for name, nid in self._leaf_node.items()
                  if nid in self._sparse_parts}
        return Gradients(self._dense_grad, sparse, self._grad_views)


def _merge_sparse(parts: list[tuple[Array, Array]], dim: int) -> SparseRows:
    """One ``SparseRows`` from the (row ids, gradient rows) parts of a
    table's gathers, with the rows of equal ids summed in part order.

    The row ids are in range (``gather_rows`` checked them), so an
    occupancy count over them gives the sorted unique ids and each id's
    slot without sorting.
    """
    if not parts:
        return SparseRows(np.zeros(0, dtype=np.int64),
                          np.zeros((0, dim), dtype=np.float64))
    ids = np.concatenate([p[0] for p in parts])
    occupied = np.bincount(ids) > 0
    slot = np.cumsum(occupied) - 1
    rows = np.concatenate([p[1] for p in parts], axis=0)
    uniq = np.flatnonzero(occupied)
    return SparseRows(uniq, sum_rows_by_index(slot[ids], rows, uniq.size))


def _check_rows(idx: Array, rows: int, table_name: str) -> None:
    """Raise naming the first of the int64 ``idx`` out of range for a
    table of ``rows`` rows."""
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        offender = int(idx[(idx < 0) | (idx >= rows)][0])
        raise AutodiffError(
            f"index {offender} out of range for {table_name} "
            f"with {rows} rows")


def _row_norms(x: Array) -> Array:
    """The Euclidean norm of each row of x [N x D]."""
    return np.sqrt(np.einsum("nd,nd->n", x, x))


def _row_norm_grad(g: Array, norms: Array, x: Array) -> Array:
    """x's gradient from ``g``, its row ``norms``' gradient; a zero row
    gets zero (the usual subgradient convention)."""
    safe = np.where(norms > 0.0, norms, 1.0)
    return (g / safe)[:, None] * x * (norms > 0.0)[:, None]


def _cosine_rows(x: Array, y: Array) -> tuple[Array, ...]:
    """The cosines of x's and y's rows, ``(x * y) @ ones`` over den =
    |x| * |y| + COSINE_EPS; then den, both norms and ones, for a backward."""
    ones = np.ones((x.shape[1], 1))
    nx, ny = _row_norms(x), _row_norms(y)
    den = nx * ny + COSINE_EPS
    return ((x * y) @ ones).reshape(-1) / den, den, nx, ny, ones


@functools.lru_cache(maxsize=None)
def _head_blocks(n_heads: int, d_head: int) -> tuple[Array, Array]:
    """The read-only [n_heads*d_head, n_heads] 0/1 matrix ``E`` whose
    column h is 1 on head h's rows, ``np.kron(np.eye(n), np.ones((d,
    1)))``, and ``E / sqrt(d_head)``."""
    heads = np.kron(np.eye(n_heads), np.ones((d_head, 1)))
    scaled = heads / math.sqrt(d_head)
    for block in (heads, scaled):
        block.flags.writeable = False
    return heads, scaled


def sum_rows_by_index(indices: Array, rows: Array, n: int) -> Array:
    """[n x D] matrix whose row i is the sum of the ``rows`` [N x D] whose
    index is i (zero when none is).

    Each sum adds its rows one by one in row order, starting from zero,
    as an unbuffered in-place add over the rows would, so results are
    bit-identical to that loop; one flat ``np.bincount`` does it in a
    single pass.
    """
    d = rows.shape[1]
    flat = (np.asarray(indices).reshape(-1, 1) * d + np.arange(d)).reshape(-1)
    sums = np.bincount(flat, weights=rows.reshape(-1), minlength=n * d)
    # with no rows to add, bincount returns integer zeros
    return sums.astype(np.float64, copy=False).reshape(n, d)


@dataclasses.dataclass(frozen=True)
class SegmentRuns:
    """Rows grouped by a nondecreasing segment id: ``ids`` [P] the segment
    of each row, ``starts`` the first row of each run of equal ids, and
    ``run`` the run number of each row.

    ``Tape.target_attention`` builds one from the row counts of its
    segments, one segment per batch row.
    """

    ids: Array
    starts: Array
    run: Array

    @classmethod
    def from_lengths(cls, lengths: Array) -> "SegmentRuns":
        """Segment i holds ``lengths[i]`` consecutive rows, none when 0."""
        lengths = np.asarray(lengths, dtype=np.int64)
        used = np.flatnonzero(lengths)
        return cls(ids=np.repeat(np.arange(lengths.size), lengths),
                   starts=(np.cumsum(lengths) - lengths)[used],
                   run=np.repeat(np.arange(used.size), lengths[used]))


# ----------------------------------------------------------------------
# gradient checking


@dataclasses.dataclass
class ParamCheck:
    name: str
    max_rel_err: float
    worst_entry: tuple[int, ...] | None
    n_checked: int
    blocked: bool  # tape gradient identically zero for this parameter


@dataclasses.dataclass
class GradCheckReport:
    checks: dict[str, ParamCheck]
    tol: float

    def failures(self) -> list[ParamCheck]:
        return [c for c in self.checks.values()
                if not c.blocked and c.max_rel_err > self.tol]

    def ok(self) -> bool:
        return not self.failures()

    def max_rel_err(self) -> float:
        vals = [c.max_rel_err for c in self.checks.values() if not c.blocked]
        return max(vals) if vals else 0.0


def check_gradients(loss_fn: Callable[[Tape], Tensor],
                    params: ParamStore, *, h: float = 1e-5,
                    tol: float = 1e-4, max_entries: int = 50,
                    seed: int = 0) -> GradCheckReport:
    """Compare tape gradients against central finite differences.

    ``loss_fn(tape)`` must build the forward pass on ``tape``, a fresh
    ``Tape(params)`` per pass, from the current contents of ``params`` and
    return the scalar loss.  For each parameter, up to
    ``max_entries`` entries are sampled (all entries when the parameter is
    small) and checked at step ``h``.  A parameter whose tape gradient is
    identically zero is flagged ``blocked`` rather than failed: that is the
    expected signature of a stop-gradient-only path.

    Stop-gradient outputs are frozen at their unperturbed values during
    the difference passes, because the tape gradient is by definition the
    derivative of the partial function that treats blocked quantities as
    constants.  Relative error uses max(|tape|, |fd|, 1e-6) in the
    denominator, so finite-difference noise on negligible gradients cannot
    trip the check.
    """
    rng = np.random.default_rng(seed)
    freezer = StopGradientFreezer()

    def one_pass() -> tuple[Tape, Tensor]:
        freezer.cursor = 0
        tape = Tape(params)
        tape.freezer = freezer
        return tape, loss_fn(tape)

    tape, loss = one_pass()
    if not np.isfinite(loss.values).all():
        raise AutodiffError("non-finite loss in gradient check")
    grads = tape.backward(loss)
    freezer.mode = "replay"
    checks: dict[str, ParamCheck] = {}
    for name in params.names():
        theta = params.values[name]
        g = grads[name]
        dense = g.to_dense(theta.shape) if isinstance(g, SparseRows) else g
        blocked = not np.any(dense)
        total = theta.size
        if total <= max_entries:
            flat_ids = np.arange(total)
        else:
            flat_ids = rng.choice(total, size=max_entries, replace=False)
        worst = 0.0
        worst_entry: tuple[int, ...] | None = None
        flat = theta.reshape(-1)
        for fid in flat_ids:
            old = flat[fid]
            flat[fid] = old + h
            lp = float(one_pass()[1].values)
            flat[fid] = old - h
            lm = float(one_pass()[1].values)
            flat[fid] = old
            fd = (lp - lm) / (2.0 * h)
            tape_g = dense.reshape(-1)[fid]
            denom = max(abs(tape_g), abs(fd), 1e-6)
            rel = abs(tape_g - fd) / denom
            if rel > worst:
                worst = rel
                worst_entry = np.unravel_index(int(fid), theta.shape)
        checks[name] = ParamCheck(name=name, max_rel_err=worst,
                                  worst_entry=worst_entry,
                                  n_checked=len(flat_ids), blocked=blocked)
    return GradCheckReport(checks=checks, tol=tol)


def sigmoid(x: Array | float) -> Array:
    """Plain (non-taped) numerically stable sigmoid, ``Tape.sigmoid``'s
    forward.

    It computes ``1 / (1 + exp(-v))`` for ``v >= 0`` and
    ``exp(v) / (1 + exp(v))`` otherwise, without a select, as
    ``exp(min(v, 0)) / (1 + exp(-|v|))``, which is one of the two forms at
    every point, so the bits are those of the branches.
    """
    v = np.asarray(x, dtype=np.float64)
    return np.exp(np.minimum(v, 0.0)) / (1.0 + np.exp(-np.abs(v)))


def leaky_relu(v: Array, g: Array | None = None) -> Array:
    """``v`` where ``v > 0``, else ``LEAKY_SLOPE * v``; given the upstream
    gradient ``g`` of that output, the gradient of ``v`` instead.

    Both directions avoid a select: the forward is
    ``maximum(v, LEAKY_SLOPE * v)``, equal to it for a slope in [0, 1],
    and the backward multiplies ``g`` by a factor that is exactly 1.0 or
    ``LEAKY_SLOPE``, because ``(1 - LEAKY_SLOPE) + LEAKY_SLOPE`` rounds
    to 1.0.
    """
    if g is None:
        return np.maximum(v, LEAKY_SLOPE * v)
    return g * ((v > 0.0) * (1.0 - LEAKY_SLOPE) + LEAKY_SLOPE)
