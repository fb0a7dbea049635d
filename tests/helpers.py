"""Test helpers that the package itself does not need: a one-value
vocabulary lookup, the generator's click probability of one (user, item)
pair, batches packed from and unpacked to padded [B, H] grids with the
mask-based oracles over them (``embed``, ``branch_masks``,
``add_batch_by_mask``, a sequence branch materialized as its own batch),
meta nets made exact no-ops, the per-name gradient composition the tape's
one dense vector replaced, the per-position key/value composition the
per-entry cache replaced, and the attention composition, with its two
segment ops, that ``Tape.target_attention`` replaced."""

import collections
import math

import numpy as np

from msnetlab import model
from msnetlab.autodiff import (
    AutodiffError,
    Gradients,
    ParamStore,
    SegmentRuns,
    Tape,
    Tensor,
    _accum,
    sigmoid,
)
from msnetlab.datagen import GeneratorConfig, ItemSpec, UserSpec
from msnetlab.features import (
    OOV_INDEX,
    Embedded,
    HistoryStore,
    SampleBatch,
    Vocab,
    embed_rows,
)
from msnetlab.seqmodel import META_SCALE, META_SHIFT, STOCK_TYPES


def lookup(vocab: Vocab, value: int) -> int:
    """``vocab``'s index of ``value``, from its first-seen order;
    ``OOV_INDEX`` for a value it never saw."""
    values = vocab.ordered_values()
    return values.index(value) + 1 if value in values else OOV_INDEX


def true_ctr(user: UserSpec, item: ItemSpec, config: GeneratorConfig) -> float:
    """Ground-truth click probability: a logistic in the user's affinity
    for the item's category and the item's quality."""
    affinity = float(user.preference[item.category_id])
    z = config.ctr_bias + config.ctr_w_affinity * affinity \
        + config.ctr_w_quality * item.quality
    return float(sigmoid(z))


# a batch's histories as padded [B, H] grids
Grids = collections.namedtuple("Grids", "item category mask limited")


def grid_batch(*, seq_item, seq_category, seq_mask, seq_limited,
               **rows) -> SampleBatch:
    """A batch from hand-made [B, H] grids: row i holds history i, whose
    entries are row i's positions where ``seq_mask`` is True, packed in
    row-major order.  ``rows`` holds the per-row columns."""
    mask = np.asarray(seq_mask, dtype=bool)
    store = HistoryStore(np.asarray(seq_item, dtype=np.int64)[mask],
                         np.asarray(seq_category, dtype=np.int64)[mask],
                         np.asarray(seq_limited, dtype=bool)[mask],
                         mask.sum(axis=1), mask.shape[1])
    return SampleBatch(history=np.arange(mask.shape[0]), store=store, **rows)


def batch_grids(batch: SampleBatch) -> Grids:
    """``batch``'s histories as padded [B, H] grids: row i holds its
    history's entries from column 0, then index 0 and False."""
    store, mask = batch.store, batch.seq_mask
    starts = np.cumsum(store.lengths) - store.lengths
    at = np.concatenate([np.zeros(0, dtype=np.int64)] + [
        np.arange(starts[u], starts[u] + store.lengths[u])
        for u in batch.history])
    grids = Grids(np.zeros(mask.shape, dtype=np.int64),
                  np.zeros(mask.shape, dtype=np.int64), mask,
                  np.zeros(mask.shape, dtype=bool))
    for grid, column in ((grids.item, store.item),
                         (grids.category, store.category),
                         (grids.limited, store.limited)):
        grid[mask] = column[at]
    return grids


def embed(tape: Tape, batch: SampleBatch, keep: np.ndarray,
          target: tuple[Tensor, Tensor] | None = None) -> Embedded:
    """Target rows plus the sequence rows of ``batch_grids(batch)`` where
    ``keep`` [B, H] is True, in row-major order, as the package gathered
    them by mask; ``target``, the target rows gathered earlier on the same
    tape, is used in place of gathering them again."""
    keep = np.asarray(keep, dtype=bool)
    grids = batch_grids(batch)
    if keep.shape != grids.mask.shape:
        raise ValueError(f"keep mask {keep.shape} does not match the batch's "
                         f"sequence grid {grids.mask.shape}")
    target_id, target_side = target or embed_rows(
        tape, batch.target_item, batch.target_category)
    flat = np.flatnonzero(keep)
    seq_id, seq_side = embed_rows(tape, grids.item.reshape(-1)[flat],
                                  grids.category.reshape(-1)[flat])
    return Embedded(target_id, target_side, seq_id, seq_side,
                    flat // keep.shape[1])


def branch_masks(config: "model.ModelConfig",
                 batch: SampleBatch) -> list[np.ndarray]:
    """The [B, H] positions of ``batch_grids(batch)`` each branch attends
    to: all kept positions without a split, else the multi positions for
    the main branch and the limited ones for the limited branch."""
    grids = batch_grids(batch)
    if config.n_branches == 1:
        return [grids.mask]
    return [grids.mask & ~grids.limited, grids.mask & grids.limited]


def add_batch_by_mask(acc, scores: np.ndarray, target_limited: np.ndarray,
                      seq_limited: np.ndarray, mask: np.ndarray) -> None:
    """``ScoreAccumulator.add_batch`` on ``acc`` as it read the flags from
    grids: ``scores`` [P, n_heads] holds one row per True position of
    ``mask`` [B, H], in row-major order; a row's target flag is
    ``target_limited`` at its batch row, its sequence flag
    ``seq_limited`` at its position."""
    mask = np.asarray(mask, dtype=bool)
    flat = np.flatnonzero(mask)
    t_flags = np.asarray(target_limited, dtype=bool)[flat // mask.shape[1]]
    s_flags = np.asarray(seq_limited, dtype=bool).reshape(-1)[flat]
    cells = [((t_name, s_name), (t_flags == t_flag) & (s_flags == s_flag))
             for t_flag, t_name in zip((False, True), STOCK_TYPES)
             for s_flag, s_name in zip((False, True), STOCK_TYPES)]
    for head in scores.T:
        for key, cell in cells:
            vals = head[cell]
            acc.sums[key] += float(vals.sum())
            acc.counts[key] += int(vals.size)


def physical_split(batch: SampleBatch, keep: np.ndarray) -> SampleBatch:
    """Materialize one branch as its own batch: the positions of
    ``batch_grids(batch)`` where ``keep`` is True, and no others.
    Attention over the physical branch must match attention over the full
    sequence with ``keep`` as the mask, bit for bit.
    """
    grids = batch_grids(batch)
    return grid_batch(
        target_item=batch.target_item.copy(),
        target_category=batch.target_category.copy(),
        seq_item=grids.item, seq_category=grids.category, seq_mask=keep,
        seq_limited=grids.limited, labels=batch.labels.copy(),
        is_new=batch.is_new.copy(), is_limited=batch.is_limited.copy())


def zero_meta_outputs(params: ParamStore) -> None:
    """Zero the output layers of both meta nets in ``params``, in place.
    The scaling weights become 2*sigmoid(0) = 1 and the shift's norm ratio
    v becomes 0, both exactly, so the meta keys, values and query are the
    raw item and target embeddings bit for bit."""
    for layer in (META_SCALE[-1], META_SHIFT[-1]):
        for name in layer:
            params.values[name][:] = 0.0


def per_name_gradients(tape: Tape, loss: Tensor) -> dict[str, np.ndarray]:
    """Each dense parameter's gradient as an array of its own, as a reverse
    sweep over ``tape``'s nodes leaves it at the parameter's leaf, and a
    zero array of its shape for a parameter off the loss path.  The sweep
    runs the tape's own node closures, so use a tape that ``backward``
    will not run."""
    nodes = tape._nodes
    grads = [None] * len(nodes)
    grads[loss.node] = np.ones_like(loss.values)
    for nid in range(len(nodes) - 1, -1, -1):
        if grads[nid] is not None:
            nodes[nid].backward(grads[nid], grads)
    params = tape.params
    out = {}
    for name in params.names():
        if name not in params.embedding_names:
            g = grads[tape._leaf_node[name]]
            out[name] = np.zeros(params.values[name].shape) if g is None else g
    return out


def gradients_of(params: ParamStore, by_name: dict) -> Gradients:
    """``Gradients`` for ``params`` from per-name gradients: the dense
    arrays concatenated in creation order, the tables' ``SparseRows`` as
    given."""
    dense_names = [n for n in params.names() if n not in params.embedding_names]
    dense = np.concatenate([np.zeros(0)] + [np.reshape(by_name[n], -1)
                                            for n in dense_names])
    return Gradients(dense, {n: by_name[n] for n in params.names()
                             if n in params.embedding_names},
                     params.dense_views(dense))


def segment_runs(seg, p: int, op: str) -> SegmentRuns:
    """The runs of ``seg`` [p], a ``SegmentRuns`` or a nondecreasing raw
    segment id per row."""
    given = isinstance(seg, SegmentRuns)
    ids = seg.ids if given else np.asarray(seg, dtype=np.int64).reshape(-1)
    if ids.shape[0] != p:
        raise AutodiffError(f"{op} wants one segment per row, got "
                            f"{ids.shape[0]} for {p} rows")
    if given:
        return seg
    step = np.diff(ids)
    if (step < 0).any():
        raise AutodiffError(f"{op} segments must be nondecreasing")
    new = np.flatnonzero(step) + 1
    run = np.zeros(p, dtype=np.int64)
    run[new] = 1
    return SegmentRuns(ids=ids,
                       starts=np.concatenate([[0], new]) if p else new,
                       run=np.cumsum(run))


def segment_softmax(tape: Tape, x: Tensor, seg) -> Tensor:
    """Softmax of each column of x [P x m] over each run of equal ``seg``
    [P] (a ``SegmentRuns`` or nondecreasing ids), on ``tape``.

    Stabilized by the per-segment column max.  The backward is
    ``y * (g - segsum(g * y)[seg])``.  Per-segment rows are widened to
    their runs by ``np.take``.
    """
    v = x.values
    if v.ndim != 2:
        raise AutodiffError("segment_softmax wants a matrix")
    runs = segment_runs(seg, v.shape[0], "segment_softmax")
    starts, run = runs.starts, runs.run
    out = np.zeros_like(v)
    if starts.size:
        e = np.exp(v - np.take(np.maximum.reduceat(v, starts, axis=0),
                               run, axis=0))
        out = e / np.take(np.add.reduceat(e, starts, axis=0), run, axis=0)
    xn = x.node

    def backward(g, grads):
        if xn is not None and starts.size:
            inner = np.add.reduceat(g * out, starts, axis=0)
            _accum(grads, xn, out * (g - np.take(inner, run, axis=0)))

    return Tensor(out, tape._push(backward, "segment_softmax"))


def segment_sum(tape: Tape, x: Tensor, seg, n: int) -> Tensor:
    """Row sums of x [P x D] over each run of equal ``seg`` [P] into row
    ``seg`` of an [n x D] zero matrix, on ``tape``; ``seg`` must be
    nondecreasing and in [0, n).  Segments with no rows stay zero.  The
    backward is ``g[seg]``.
    """
    v = x.values
    if v.ndim != 2:
        raise AutodiffError("segment_sum wants a matrix")
    runs = segment_runs(seg, v.shape[0], "segment_sum")
    idx, starts = runs.ids, runs.starts
    if idx.size and (idx[0] < 0 or idx[-1] >= n):
        raise AutodiffError(f"segment_sum segments out of range [0, {n})")
    out = np.zeros((n, v.shape[1]), dtype=np.float64)
    if starts.size:
        out[idx[starts]] = np.add.reduceat(v, starts, axis=0)
    xn = x.node

    def backward(g, grads):
        if xn is not None:
            _accum(grads, xn, np.take(g, idx, axis=0))

    return Tensor(out, tape._push(backward, "segment_sum"))


def attention_oracle(tape: Tape, q: Tensor, q_row, k: Tensor, v: Tensor,
                     entry_row, lengths, combine: Tensor, n_heads: int,
                     d_head: int) -> tuple[Tensor, np.ndarray]:
    """``Tape.target_attention``'s (interest, scores) as the nodes it
    replaced compose them: the rows of q, k and v gathered per position,
    ``mul``, a ``matmul`` with the head blocks E / sqrt(d_head), the
    segment softmax, a ``matmul`` with E.T, ``mul``, the segment sum and a
    ``matmul`` with ``combine``."""
    seg = SegmentRuns.from_lengths(lengths)
    heads = np.kron(np.eye(n_heads), np.ones((d_head, 1)))
    rows = np.asarray(entry_row, dtype=np.int64)
    kg, vg = tape.gather_rows(k, rows), tape.gather_rows(v, rows)
    qg = tape.gather_rows(q, np.asarray(q_row, dtype=np.int64)[seg.ids])
    scores = tape.matmul(tape.mul(kg, qg),
                         Tape.constant(heads / math.sqrt(d_head)))
    weights = segment_softmax(tape, scores, seg)
    pooled = segment_sum(tape, tape.mul(
        tape.matmul(weights, Tape.constant(heads.T)), vg), seg, len(lengths))
    return tape.matmul(pooled, combine), scores.values


def per_position_forward(tape: Tape, config: "model.ModelConfig",
                         batch: SampleBatch) -> tuple[Tensor, Tensor]:
    """``(p, total loss)`` of ``batch`` as the model composed them before
    keys and values came from a per-entry cache: each branch embeds its
    own positions and runs ``_branch_kv`` on one row per position, the
    attention is ``attention_oracle`` over one query row per batch row,
    and the aux loss gathers the target rows once more."""
    emb, interests = None, []
    for (prefix, meta), mask in zip(model._branches(config),
                                    branch_masks(config, batch)):
        emb = embed(tape, batch, mask,
                    emb and (emb.target_id, emb.target_side))
        target = emb.target_id, emb.target_side
        if not interests:
            e_target = tape.concat_cols(list(target))
        k, v = model._branch_kv(tape, prefix, meta, emb.seq_id, emb.seq_side)
        q = tape.matmul(model._branch_query(tape, meta, target, e_target),
                        tape.param(f"{prefix}.wq"))
        interests.append(attention_oracle(
            tape, q, np.arange(batch.size), k, v, np.arange(emb.seq_row.size),
            mask.sum(axis=1), tape.param(f"{prefix}.combine"),
            config.n_heads, config.d_head)[0])
    p = model._mlp_head(tape, config,
                        tape.concat_cols(interests + [e_target]))
    aux = None
    if config.architecture == model.ARCH_MSNET and config.alpha > 0.0:
        grids = batch_grids(batch)
        aux = model.loss_aux(tape, embed(tape, batch,
                                         grids.mask & grids.limited))
    return p, model.total_loss(tape, tape.bce(p, batch.labels), aux,
                               config.alpha)
