"""Sequence modeling blocks: stock-based sequence split, multi-head target
attention, the meta scaling / shifting networks, and the final key/value
composition for the limited-stock branch.

The meta networks take gradient-blocked inputs: the scaling net reads the
id embedding (blocked) and reweights the side embedding field-wise; the
shifting net reads the side embedding (blocked) and produces a synthetic
id that is blended with the raw id by the norm ratio, so weak id
embeddings lean harder on the synthetic one.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .autodiff import ParamStore, SegmentRuns, Tape, Tensor
from .features import SampleBatch

Array = np.ndarray


@dataclasses.dataclass
class SplitMasks:
    """Partition of the validity mask by the stock type of each position."""

    multi: Array    # [B, H] bool
    limited: Array  # [B, H] bool


def split_sequence(batch: SampleBatch) -> SplitMasks:
    """Limited positions are valid positions flagged limited-stock; multi
    positions are the remaining valid ones.  The two masks partition the
    validity mask."""
    limited = batch.seq_mask & batch.seq_limited
    multi = batch.seq_mask & ~batch.seq_limited
    return SplitMasks(multi=multi, limited=limited)


def physical_split(batch: SampleBatch, keep: Array) -> SampleBatch:
    """Materialize one branch as its own padded sequence.

    Positions outside ``keep`` are rewritten to padding in place (index 0,
    flags false, mask false), the same padding policy the encoder uses.
    Attention over the physical branch must match attention over the full
    sequence with ``keep`` as the mask, bit for bit.
    """
    keep = np.asarray(keep, dtype=bool)
    return SampleBatch(
        target_item=batch.target_item.copy(),
        target_category=batch.target_category.copy(),
        seq_item=np.where(keep, batch.seq_item, 0),
        seq_category=np.where(keep, batch.seq_category, 0),
        seq_mask=keep.copy(),
        seq_limited=np.where(keep, batch.seq_limited, False),
        labels=batch.labels.copy(),
        is_new=batch.is_new.copy(),
        is_limited=batch.is_limited.copy(),
    )


# ----------------------------------------------------------------------
# attention


def add_attention_params(params: ParamStore, prefix: str, d_in: int,
                         n_heads: int, d_head: int,
                         rng: np.random.Generator) -> None:
    """Fused Q/K/V projections, each [d_in, n_heads*d_head] with head h in
    columns [h*d_head, (h+1)*d_head), plus the combine matrix."""
    r = 1.0 / math.sqrt(d_in)
    # drawn head by head, q then k then v, as separate per-head matrices
    # were before the fusion, so seeded initial values are unchanged
    blocks = rng.uniform(-r, r, size=(n_heads, 3, d_in, d_head))
    for i, name in enumerate("qkv"):
        params.add(f"{prefix}.w{name}", np.hstack(blocks[:, i]))
    out = n_heads * d_head
    rc = 1.0 / math.sqrt(out)
    params.add(f"{prefix}.combine", rng.uniform(-rc, rc, size=(out, out)))


@dataclasses.dataclass
class AttentionResult:
    interest: Tensor          # [B, n_heads*d_head]
    # [P, n_heads] pre-softmax scores of the packed rows (detached)
    scores: Array


@functools.lru_cache(maxsize=None)
def head_blocks(n_heads: int, d_head: int) -> Array:
    """The read-only [n_heads*d_head, n_heads] 0/1 matrix whose column h
    is 1 on head h's rows: ``np.kron(np.eye(n), np.ones((d, 1)))``."""
    heads = np.kron(np.eye(n_heads), np.ones((d_head, 1)))
    heads.flags.writeable = False
    return heads


def target_attention(tape: Tape, prefix: str, target: Tensor, keys: Tensor,
                     values: Tensor, mask: Array, n_heads: int,
                     d_head: int) -> AttentionResult:
    """Multi-head target attention over packed positions.

    ``keys`` and ``values`` hold only the positions where ``mask`` [B, H]
    is True, packed in row-major order, so the batch row of each packed
    row (its segment) is nondecreasing.  Per head: q = target Wq,
    k = keys Wk, v = values Wv; each packed row's score is its dot with
    its batch row's q, scaled by 1/sqrt(d_head); a softmax over each
    batch row's segment weights the v rows, whose segment sums are the
    pooled heads.  Heads are concatenated and passed through the combine
    matrix.  Rows whose mask is empty produce a zero interest vector.  All
    heads run at once: a constant [n_heads*d_head, n_heads] block of ones
    sums each head's columns of k * q, and its transpose widens each
    head's weight back to that head's columns.
    """
    mask = np.asarray(mask, dtype=bool)
    b = mask.shape[0]
    # one segment per batch row, as long as the row's True positions
    seg = SegmentRuns.from_lengths(mask.sum(axis=1))
    p = seg.ids.size
    if target.values.shape[0] != b or keys.values.shape[0] != p \
            or values.values.shape[0] != p:
        raise ValueError(
            f"attention shape mismatch: target {target.values.shape}, "
            f"keys {keys.values.shape}, values {values.values.shape}, "
            f"mask {mask.shape} with {p} positions")
    n, d = n_heads, d_head
    heads = head_blocks(n, d)
    q = tape.gather_rows(tape.matmul(target, tape.param(f"{prefix}.wq")),
                         seg.ids)
    k = tape.matmul(keys, tape.param(f"{prefix}.wk"))
    v = tape.matmul(values, tape.param(f"{prefix}.wv"))
    scores = tape.matmul(tape.mul(k, q), Tape.constant(heads / math.sqrt(d)))
    weights = tape.segment_softmax(scores, seg)
    pooled = tape.segment_sum(
        tape.mul(tape.matmul(weights, Tape.constant(heads.T)), v), seg, b)
    interest = tape.matmul(pooled, tape.param(f"{prefix}.combine"))
    return AttentionResult(interest=interest, scores=scores.values)


# ----------------------------------------------------------------------
# meta networks


def add_meta_params(params: ParamStore, d_id: int, d_side: int, hidden: int,
                    rng: np.random.Generator) -> None:
    """Two 2-layer MLPs: scaling (d_id -> d_side, output 2*sigmoid) and
    shifting (d_side -> d_id, linear output)."""
    for name, d_in, d_out in (("meta.scale", d_id, d_side),
                              ("meta.shift", d_side, d_id)):
        r1 = 1.0 / math.sqrt(d_in)
        params.add(f"{name}.w1", rng.uniform(-r1, r1, size=(d_in, hidden)))
        params.add(f"{name}.b1", np.zeros(hidden))
        r2 = 1.0 / math.sqrt(hidden)
        params.add(f"{name}.w2", rng.uniform(-r2, r2, size=(hidden, d_out)))
        params.add(f"{name}.b2", np.zeros(d_out))


def _meta_mlp(tape: Tape, name: str, x: Tensor) -> Tensor:
    h = tape.leaky_relu(tape.add_bias(tape.matmul(x, tape.param(f"{name}.w1")),
                                      tape.param(f"{name}.b1")))
    return tape.add_bias(tape.matmul(h, tape.param(f"{name}.w2")),
                         tape.param(f"{name}.b2"))


def scaling_weights(tape: Tape, id_emb: Tensor) -> Tensor:
    """Field weights in (0, 2) from the gradient-blocked id embedding.

    2*sigmoid centers an untrained net near multiplying by one.
    """
    z = _meta_mlp(tape, "meta.scale", tape.stop_gradient(id_emb))
    return tape.scale(tape.sigmoid(z), 2.0)


def meta_scale(tape: Tape, id_emb: Tensor, side_emb: Tensor) -> Tensor:
    """Field-wise rescale of the side embedding by weights generated from
    the (gradient-blocked) id embedding."""
    return tape.mul(scaling_weights(tape, id_emb), side_emb)


def meta_shift(tape: Tape, side_emb: Tensor, id_emb: Tensor) -> tuple[Tensor, Tensor]:
    """Synthetic-id blend: a meta id generated from the gradient-blocked
    side embedding is mixed with the raw id embedding by the norm ratio
    v = |meta| / (|meta| + |id| + eps).  Returns (blended id, v)."""
    meta_id = _meta_mlp(tape, "meta.shift", tape.stop_gradient(side_emb))
    return tape.norm_ratio_blend(meta_id, id_emb)


def compose_kv(tape: Tape, seq_id: Tensor, seq_side: Tensor,
               scaled_side: Tensor, shifted_id: Tensor) -> tuple[Tensor, Tensor]:
    """K pairs the raw id with the rescaled side; V pairs the shifted id
    with the raw side."""
    final_k = tape.concat_cols([seq_id, scaled_side])
    final_v = tape.concat_cols([shifted_id, seq_side])
    return final_k, final_v


def identity_scaled(tape: Tape, side_emb: Tensor) -> Tensor:
    """Scaling forced to exact ones (degeneracy mode)."""
    ones = Tape.constant(np.ones_like(side_emb.values))
    return tape.mul(ones, side_emb)


def identity_shifted(tape: Tape, side_emb: Tensor,
                     id_emb: Tensor) -> tuple[Tensor, Tensor]:
    """Shift blend forced to the original id: v = 0 exactly, so the blend
    returns the raw id bit for bit (meta id contributes 0 * meta)."""
    meta_id = _meta_mlp(tape, "meta.shift", tape.stop_gradient(side_emb))
    v = Tape.constant(np.zeros(id_emb.values.shape[0]))
    return tape.blend_rows(v, meta_id, id_emb), v


# ----------------------------------------------------------------------
# attention-score diagnostic

STOCK_TYPES = ("multi", "limited")


@dataclasses.dataclass
class AttentionScoreTable:
    """Mean pre-softmax attention score bucketed by (target stock type,
    sequence-item stock type).  Cells with no observations are None."""

    means: dict[tuple[str, str], float | None]
    counts: dict[tuple[str, str], int]

    def as_dict(self) -> dict:
        return {f"{t}->{s}": {"mean": self.means[(t, s)],
                              "count": self.counts[(t, s)]}
                for t in STOCK_TYPES for s in STOCK_TYPES}


class ScoreAccumulator:
    """Streams (packed scores, target flags, sequence flags, mask) per
    batch and reduces to the 2x2 diagnostic table."""

    def __init__(self) -> None:
        self.sums = {(t, s): 0.0 for t in STOCK_TYPES for s in STOCK_TYPES}
        self.counts = {(t, s): 0 for t in STOCK_TYPES for s in STOCK_TYPES}

    def add_batch(self, scores: Array, target_limited: Array,
                  seq_limited: Array, mask: Array) -> None:
        """``scores`` [P, n_heads] holds one row per True position of
        ``mask`` [B, H], in row-major order, as ``target_attention``
        returns them."""
        mask = np.asarray(mask, dtype=bool)
        flat = np.flatnonzero(mask)
        t_flags = np.asarray(target_limited, dtype=bool)[flat // mask.shape[1]]
        s_flags = np.asarray(seq_limited, dtype=bool).reshape(-1)[flat]
        for head in scores.T:
            for t_flag, t_name in ((False, "multi"), (True, "limited")):
                for s_flag, s_name in ((False, "multi"), (True, "limited")):
                    vals = head[(t_flags == t_flag) & (s_flags == s_flag)]
                    self.sums[(t_name, s_name)] += float(vals.sum())
                    self.counts[(t_name, s_name)] += int(vals.size)

    def table(self) -> AttentionScoreTable:
        means = {}
        for key, count in self.counts.items():
            means[key] = (self.sums[key] / count) if count else None
        return AttentionScoreTable(means=means, counts=dict(self.counts))
