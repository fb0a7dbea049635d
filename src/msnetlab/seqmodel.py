"""Sequence modeling blocks: multi-head target attention, MLP layers, the
meta scaling / shifting networks, the final key/value composition for the
limited-stock branch, and the attention-score diagnostic.  Every
per-position array holds packed positions, one row each; the split by
stock type is made on the packed history store (``model._history_entries``).

The meta networks take gradient-blocked inputs: the scaling net reads the
id embedding (blocked) and reweights the side embedding field-wise; the
shifting net reads the side embedding (blocked) and produces a synthetic
id that is blended with the raw id by the norm ratio, so weak id
embeddings lean harder on the synthetic one.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from .autodiff import ParamStore, Tape, Tensor

Array = np.ndarray


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


def project_kv(tape: Tape, prefix: str, keys: Tensor,
               values: Tensor) -> tuple[Tensor, Tensor]:
    """Branch ``prefix``'s projected keys ``keys Wk`` and values
    ``values Wv``, each [P, n_heads*d_head]; each row is a function of its
    input row alone."""
    return (tape.matmul(keys, tape.param(f"{prefix}.wk")),
            tape.matmul(values, tape.param(f"{prefix}.wv")))


def target_attention(tape: Tape, prefix: str, q: Tensor, q_row: Array,
                     k: Tensor, v: Tensor, entry_row: Array, lengths: Array,
                     n_heads: int, d_head: int) -> AttentionResult:
    """Branch ``prefix``'s multi-head target attention, one
    ``Tape.target_attention`` node: batch row i queries with row
    ``q_row[i]`` of the projected queries ``q`` (target Wq) and attends to
    its ``lengths[i]`` packed positions, position p with row
    ``entry_row[p]`` of the projected keys ``k`` and values ``v``
    (``project_kv``).  The pooled heads go through the branch's combine
    matrix; a row with no positions gets a zero interest.  Only q depends
    on the target and only k and v on a position's entry, so each table
    may hold one row per distinct target or entry."""
    interest, scores = tape.target_attention(
        q, q_row, k, v, entry_row, lengths,
        tape.param(f"{prefix}.combine"), n_heads, d_head)
    return AttentionResult(interest=interest, scores=scores)


# ----------------------------------------------------------------------
# dense layers


def add_mlp_params(params: ParamStore, layers: Sequence[tuple[str, str]],
                   widths: Sequence[int], rng: np.random.Generator) -> None:
    """Layer i, named by its (weight, bias) pair ``layers[i]``, maps
    ``widths[i]`` to ``widths[i + 1]`` features: its weights are drawn
    uniform in +-1/sqrt(widths[i]), layer by layer, its bias is zero."""
    for (w, b), d_in, d_out in zip(layers, widths, widths[1:]):
        r = 1.0 / math.sqrt(d_in)
        params.add(w, rng.uniform(-r, r, size=(d_in, d_out)))
        params.add(b, np.zeros(d_out))


def mlp(tape: Tape, layers: Sequence[tuple[str, str]], x: Tensor) -> Tensor:
    """The dense layers named by (weight, bias) pairs ``layers``, in order,
    with the leaky rectifier after every layer but the last."""
    for i, (w, b) in enumerate(layers):
        x = tape.dense(x, tape.param(w), tape.param(b),
                       leaky=i < len(layers) - 1)
    return x


# ----------------------------------------------------------------------
# meta networks

META_SCALE = (("meta.scale.w1", "meta.scale.b1"),
              ("meta.scale.w2", "meta.scale.b2"))
META_SHIFT = (("meta.shift.w1", "meta.shift.b1"),
              ("meta.shift.w2", "meta.shift.b2"))


def add_meta_params(params: ParamStore, d_id: int, d_side: int, hidden: int,
                    rng: np.random.Generator) -> None:
    """Two 2-layer MLPs: scaling (d_id -> d_side, output 2*sigmoid) and
    shifting (d_side -> d_id, linear output)."""
    add_mlp_params(params, META_SCALE, (d_id, hidden, d_side), rng)
    add_mlp_params(params, META_SHIFT, (d_side, hidden, d_id), rng)


def scaling_weights(tape: Tape, id_emb: Tensor) -> Tensor:
    """Field weights in (0, 2) from the gradient-blocked id embedding.

    2*sigmoid centers an untrained net near multiplying by one.
    """
    z = mlp(tape, META_SCALE, tape.stop_gradient(id_emb))
    return tape.scale(tape.sigmoid(z), 2.0)


def meta_scale(tape: Tape, id_emb: Tensor, side_emb: Tensor) -> Tensor:
    """Field-wise rescale of the side embedding by weights generated from
    the (gradient-blocked) id embedding."""
    return tape.mul(scaling_weights(tape, id_emb), side_emb)


def meta_shift(tape: Tape, side_emb: Tensor, id_emb: Tensor) -> tuple[Tensor, Tensor]:
    """Synthetic-id blend: a meta id generated from the gradient-blocked
    side embedding is mixed with the raw id embedding by the norm ratio
    v = |meta| / (|meta| + |id| + eps).  Returns (blended id, v)."""
    meta_id = mlp(tape, META_SHIFT, tape.stop_gradient(side_emb))
    return tape.norm_ratio_blend(meta_id, id_emb)


def compose_kv(tape: Tape, seq_id: Tensor, seq_side: Tensor,
               scaled_side: Tensor, shifted_id: Tensor) -> tuple[Tensor, Tensor]:
    """K pairs the raw id with the rescaled side; V pairs the shifted id
    with the raw side."""
    final_k = tape.concat_cols([seq_id, scaled_side])
    final_v = tape.concat_cols([shifted_id, seq_side])
    return final_k, final_v


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
    """Streams (packed scores, target flags, sequence flags) per batch and
    reduces to the 2x2 diagnostic table."""

    def __init__(self) -> None:
        self.sums = {(t, s): 0.0 for t in STOCK_TYPES for s in STOCK_TYPES}
        self.counts = {(t, s): 0 for t in STOCK_TYPES for s in STOCK_TYPES}

    def add_batch(self, scores: Array, target_limited: Array,
                  entry_limited: Array) -> None:
        """``scores`` [P, n_heads] holds one row per packed position, as
        ``forward`` returns a branch's in ``branch_scores``; position p's
        target flag is ``target_limited[p]`` and its sequence flag
        ``entry_limited[p]``."""
        t_flags = np.asarray(target_limited, dtype=bool)
        s_flags = np.asarray(entry_limited, dtype=bool)
        # the four (target, sequence) cells, built once for every head
        cells = [((t_name, s_name), (t_flags == t_flag) & (s_flags == s_flag))
                 for t_flag, t_name in ((False, "multi"), (True, "limited"))
                 for s_flag, s_name in ((False, "multi"), (True, "limited"))]
        for head in scores.T:
            for key, cell in cells:
                vals = head[cell]
                self.sums[key] += float(vals.sum())
                self.counts[key] += int(vals.size)

    def table(self) -> AttentionScoreTable:
        means = {}
        for key, count in self.counts.items():
            means[key] = (self.sums[key] / count) if count else None
        return AttentionScoreTable(means=means, counts=dict(self.counts))
