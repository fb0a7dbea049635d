"""End-to-end DIN and MSNet models: parameter construction, forward pass,
losses, Adagrad-family optimizer, training loop, prediction, checkpoints.

DIN pools the full behavior sequence with one target attention.  MSNet
splits the sequence by stock type, runs the multi-stock branch as plain
DIN attention, runs the limited-stock branch with meta-enhanced keys and
values, concatenates both interests with the target embedding, and adds an
auxiliary similarity loss that keeps updating sequence item ids even when
attention ignores them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import zipfile
from pathlib import Path
from typing import Callable

import numpy as np

from .autodiff import (
    GradMap,
    ParamStore,
    Tape,
    Tensor,
)
from .datagen import Catalog, ImpressionTable, config_kwargs
from .features import (
    Embedded,
    SampleBatch,
    Vocab,
    Vocabs,
    add_embedding_tables,
    build_vocab,
    embed,
    encode_batch,
)
# partition_of is not called here but stays a name of this module, where
# perfbench's tracer counts calls to it
from .metrics import PredictionTable, partition_ids, partition_of  # noqa: F401
from .seqmodel import (
    ScoreAccumulator,
    SplitMasks,
    add_attention_params,
    add_meta_params,
    add_mlp_params,
    compose_kv,
    identity_scaled,
    identity_shifted,
    meta_scale,
    meta_shift,
    mlp,
    project_kv,
    scaling_weights,
    split_sequence,
    target_attention,
)

ARCH_DIN = "din"
ARCH_MSNET = "msnet"


class ModelError(Exception):
    """Configuration, optimizer, or checkpoint failures."""


class CheckpointError(ModelError):
    """Unreadable, corrupt, or incompatible checkpoint."""


@dataclasses.dataclass(frozen=True)
class ModelConfig:
    """Model and training knobs, desk-scaled.

    Production reference points: three MLP layers of 512/256/128 units,
    attention hidden size 128, learning rate 1e-4, batch size 4096, and
    history length 50.  The desk defaults below train in seconds on a CPU
    while keeping the same shape.
    """

    architecture: str = ARCH_MSNET
    d_id: int = 8
    d_side: int = 8
    history_len: int = 20
    n_heads: int = 2
    d_head: int = 8
    mlp_hidden: tuple[int, ...] = (64, 32, 16)
    meta_hidden: int = 16
    alpha: float = 0.1
    learning_rate: float = 1e-2
    adagrad_decay: float = 1.0  # 1.0 is plain Adagrad
    batch_size: int = 256
    epochs: int = 1
    seed: int = 0
    aux_scope: str = "limited_only"  # or "both"
    use_seq_split: bool = True
    use_seq_meta: bool = True
    use_aux_loss: bool = True
    meta_mode: str = "net"  # "identity" forces no-op scaling/shifting
    logit_clamp: float = 15.0

    def validate(self) -> None:
        if self.architecture not in (ARCH_DIN, ARCH_MSNET):
            raise ModelError(f"unknown architecture {self.architecture!r}")
        for field in ("d_id", "d_side", "history_len", "n_heads", "d_head",
                      "meta_hidden", "batch_size"):
            if getattr(self, field) < 1:
                raise ModelError(f"{field} must be positive")
        if self.epochs < 0:
            raise ModelError("epochs must be >= 0")
        if self.seed < 0:
            raise ModelError("seed must be >= 0")
        if not (0.0 <= self.alpha < math.inf):
            raise ModelError("alpha must be finite and >= 0")
        # a zero learning rate is legal: it trains with parameters frozen
        if not (0.0 <= self.learning_rate < math.inf):
            raise ModelError("learning_rate must be finite and >= 0")
        if not (0.0 < self.logit_clamp < math.inf):
            raise ModelError("logit_clamp must be finite and > 0")
        if not (0.0 < self.adagrad_decay <= 1.0):
            raise ModelError("adagrad_decay must lie in (0, 1]")
        if self.aux_scope not in ("limited_only", "both"):
            raise ModelError(f"unknown aux_scope {self.aux_scope!r}")
        if self.meta_mode not in ("net", "identity"):
            raise ModelError(f"unknown meta_mode {self.meta_mode!r}")
        if any(h < 1 for h in self.mlp_hidden):
            raise ModelError("mlp_hidden sizes must be positive")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["mlp_hidden"] = list(self.mlp_hidden)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        cfg = cls(**config_kwargs(cls, d, "model", ModelError))
        cfg.validate()
        return cfg

    @property
    def attention_out(self) -> int:
        return self.n_heads * self.d_head

    @property
    def item_dim(self) -> int:
        return self.d_id + self.d_side

    @property
    def n_branches(self) -> int:
        if self.architecture == ARCH_DIN:
            return 1
        return 2 if self.use_seq_split else 1

    @property
    def uses_meta(self) -> bool:
        return self.architecture == ARCH_MSNET and self.use_seq_meta


def config_hash(config: ModelConfig) -> str:
    payload = json.dumps(config.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


# ----------------------------------------------------------------------
# parameters


def _head_layers(config: ModelConfig) -> list[tuple[str, str]]:
    """The CTR head's (weight, bias) names: its hidden layers, then the
    one-logit output layer."""
    names = [f"mlp.l{i}" for i in range(len(config.mlp_hidden))] + ["mlp.out"]
    return [(f"{name}.w", f"{name}.b") for name in names]


def build_params(config: ModelConfig, vocabs: Vocabs) -> ParamStore:
    """Seeded parameter construction; creation order is fixed so the same
    (config, vocabs) always produces bit-identical initial values."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    params = ParamStore()
    add_embedding_tables(params, vocabs, config.d_id, config.d_side, rng)
    add_attention_params(params, "att.main", config.item_dim,
                         config.n_heads, config.d_head, rng)
    if config.architecture == ARCH_MSNET and config.use_seq_split:
        add_attention_params(params, "att.limited", config.item_dim,
                             config.n_heads, config.d_head, rng)
    if config.uses_meta:
        add_meta_params(params, config.d_id, config.d_side,
                        config.meta_hidden, rng)
    d_in = config.n_branches * config.attention_out + config.item_dim
    add_mlp_params(params, _head_layers(config),
                   (d_in, *config.mlp_hidden, 1), rng)
    return params


# ----------------------------------------------------------------------
# forward


@dataclasses.dataclass
class ForwardOutput:
    p: Tensor                 # [B] probabilities in (0, 1)
    masks: SplitMasks | None  # None when no branch split happened
    # (packed [P, n_heads] scores, [B, H] mask) per attention branch,
    # detached, for the score diagnostic
    branch_scores: list[tuple[np.ndarray, np.ndarray]]


def _branches(config: ModelConfig) -> list[tuple[str, bool]]:
    """Each attention branch's parameter prefix, and whether the meta nets
    make its keys and values: the last branch's, when the model uses
    them."""
    prefixes = ["att.main", "att.limited"][:config.n_branches]
    return [(prefix, config.uses_meta and i == len(prefixes) - 1)
            for i, prefix in enumerate(prefixes)]


def _branch_kv(tape: Tape, config: ModelConfig, prefix: str, meta: bool,
               seq_id: Tensor, seq_side: Tensor) -> tuple[Tensor, Tensor]:
    """Branch ``prefix``'s projected keys and values of the sequence rows
    ``seq_id``/``seq_side``: the raw item embedding, or, when ``meta``, the
    meta-scaled and meta-shifted K/V under the configured meta mode.  A row
    depends on its own item and category alone."""
    if not meta:
        keys = values = tape.concat_cols([seq_id, seq_side])
    elif config.meta_mode == "identity":
        keys, values = compose_kv(
            tape, seq_id, seq_side, identity_scaled(tape, seq_side),
            identity_shifted(tape, seq_side, seq_id)[0])
    else:
        keys, values = compose_kv(
            tape, seq_id, seq_side, meta_scale(tape, seq_id, seq_side),
            meta_shift(tape, seq_side, seq_id)[0])
    return project_kv(tape, prefix, keys, values)


def _branch_query(tape: Tape, config: ModelConfig, meta: bool,
                  emb: Embedded, e_target: Tensor) -> Tensor:
    """The target embedding a branch queries with: ``e_target``, or its
    side half rescaled as the meta branch rescales its keys."""
    if not meta:
        return e_target
    if config.meta_mode == "identity":
        q_side = identity_scaled(tape, emb.target_side)
    else:
        q_side = tape.mul(scaling_weights(tape, emb.target_id),
                          emb.target_side)
    return tape.concat_cols([emb.target_id, q_side])


def _mlp_head(tape: Tape, config: ModelConfig, x: Tensor) -> Tensor:
    logits = tape.reshape(mlp(tape, _head_layers(config), x),
                          (x.values.shape[0],))
    return tape.sigmoid(tape.clamp(logits, -config.logit_clamp,
                                   config.logit_clamp))


@dataclasses.dataclass
class KVCache:
    """Projected keys and values of a set of distinct history entries,
    each row made by the branch that attends to its entry, and the entry
    row of each sequence position of one batch: what a forward pass
    gathers in place of computing K/V."""

    k: np.ndarray          # [C, n_heads*d_head]
    v: np.ndarray          # [C, n_heads*d_head]
    entry_row: np.ndarray  # [B, H]; read only where the mask is True

    def gather(self, mask: np.ndarray) -> tuple[Tensor, Tensor]:
        """The k and v rows of the positions where ``mask`` is True,
        packed in row-major order."""
        rows = self.entry_row[mask]
        return (Tape.constant(np.take(self.k, rows, axis=0)),
                Tape.constant(np.take(self.v, rows, axis=0)))


def forward(tape: Tape, config: ModelConfig, batch: SampleBatch,
            cache: KVCache | None = None) -> ForwardOutput:
    """Each branch embeds only the positions it attends to: all valid
    positions without a split, else multi positions for the main branch
    and limited positions for the limited branch, which is also the only
    one the meta networks see.

    With a ``cache`` (forward-only scoring), a branch gathers its
    positions' k and v from it, unless it holds exactly one position,
    which is projected here: a one-row matrix product takes another BLAS
    kernel than the cache's rows did, and its last bits differ.  The
    query, scores, pooling and head run here either way.
    """
    if config.n_branches == 1:
        masks = None
        keeps = [batch.seq_mask]
    else:
        masks = split_sequence(batch)
        keeps = [masks.multi, masks.limited]
    emb: Embedded | None = None
    interests: list[Tensor] = []
    branch_scores: list[tuple[np.ndarray, np.ndarray]] = []
    for i, ((prefix, meta), mask) in enumerate(zip(_branches(config), keeps)):
        cached = cache is not None and np.count_nonzero(mask) != 1
        # a cached branch gathers the target rows and no sequence row
        emb = embed(tape, batch, np.zeros_like(mask) if cached else mask, emb)
        if not i:
            e_target = tape.concat_cols([emb.target_id, emb.target_side])
        if cached:
            k, v = cache.gather(mask)
        else:
            k, v = _branch_kv(tape, config, prefix, meta, emb.seq_id,
                              emb.seq_side)
        query = _branch_query(tape, config, meta, emb, e_target)
        att = target_attention(tape, prefix, query, k, v, mask,
                               config.n_heads, config.d_head)
        interests.append(att.interest)
        branch_scores.append((att.scores, mask))
    x = tape.concat_cols(interests + [e_target])
    return ForwardOutput(p=_mlp_head(tape, config, x), masks=masks,
                         branch_scores=branch_scores)


# ----------------------------------------------------------------------
# losses


def loss_ce(tape: Tape, p: Tensor, labels: np.ndarray) -> Tensor:
    return tape.bce(p, labels)


def aux_scope_mask(config: ModelConfig, batch: SampleBatch,
                   masks: SplitMasks | None) -> np.ndarray:
    """[B, H] positions the aux loss covers."""
    if config.aux_scope == "limited_only":
        if masks is not None:
            return masks.limited
        return batch.seq_mask & batch.seq_limited
    return batch.seq_mask


def loss_aux(tape: Tape, emb: Embedded) -> Tensor:
    """Mean squared gap between the (gradient-blocked) side similarity and
    the id similarity of every sequence row of ``emb`` against its target;
    exactly 0.0 when ``emb`` holds no sequence rows."""
    if not emb.seq_row.size:
        return Tape.constant(0.0)
    side_sim = tape.cosine_sim_rows(
        emb.seq_side, tape.gather_rows(emb.target_side, emb.seq_row))
    id_sim = tape.cosine_sim_rows(
        emb.seq_id, tape.gather_rows(emb.target_id, emb.seq_row))
    diff = tape.sub(tape.stop_gradient(side_sim), id_sim)
    return tape.mean(tape.mul(diff, diff))


def total_loss(tape: Tape, ce: Tensor, aux: Tensor | None,
               alpha: float) -> Tensor:
    if aux is None or alpha == 0.0:
        return ce
    return tape.add(ce, tape.scale(aux, alpha))


def compute_losses(tape: Tape, config: ModelConfig, batch: SampleBatch,
                   out: ForwardOutput) -> tuple[Tensor, Tensor | None, Tensor]:
    ce = loss_ce(tape, out.p, batch.labels)
    aux = None
    if (config.architecture == ARCH_MSNET and config.use_aux_loss
            and config.alpha > 0.0):
        scope = aux_scope_mask(config, batch, out.masks)
        aux = loss_aux(tape, embed(tape, batch, scope))
    return ce, aux, total_loss(tape, ce, aux, config.alpha)


# ----------------------------------------------------------------------
# optimizer


@dataclasses.dataclass
class AdagradState:
    """One accumulator per parameter, by name.  The dense parameters'
    accumulators are views into ``dense``, laid out like
    ``ParamStore.dense`` of the parameters they belong to."""

    acc: dict[str, np.ndarray]
    dense: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, params: ParamStore,
                   acc: dict[str, np.ndarray] | None = None,
                   step: int = 0) -> "AdagradState":
        """Zero accumulators laid out for ``params``, or copies of the
        arrays of ``acc``."""
        dense = np.zeros_like(params.dense)
        views = params.dense_views(dense)
        out = {name: views[name] if name in views
               else np.zeros_like(params.values[name])
               for name in params.names()}
        if acc is not None:
            for name, values in out.items():
                values[...] = acc[name]
        return cls(acc=out, dense=dense, step=step)


ADAGRAD_EPS = 1e-8


class NonFiniteStep(ModelError):
    """An optimizer step refused for a non-finite gradient or accumulator."""


def _refuse_non_finite(params: ParamStore, flat: np.ndarray,
                       sparse: dict[str, np.ndarray], what: str) -> None:
    """Raise ``NonFiniteStep`` naming the first parameter whose ``what``,
    dense in ``flat`` (laid out like ``params.dense``) or in ``sparse``,
    is not finite."""
    if np.isfinite(flat).all() and all(np.isfinite(v).all()
                                       for v in sparse.values()):
        return
    parts = {**params.dense_views(flat), **sparse}
    name = next(n for n in params.names() if not np.isfinite(parts[n]).all())
    raise NonFiniteStep(f"non-finite {what} for parameter {name!r}; step "
                        f"aborted")


def optimizer_step(params: ParamStore, grads: GradMap, state: AdagradState,
                   lr: float, decay: float = 1.0) -> None:
    """Adagrad with optional accumulator decay.

    acc <- decay*acc + g^2 per touched entry; theta -= lr*g/(sqrt(acc)+eps).
    The dense parameters take one pass over ``params.dense`` and
    ``state.dense``; the arithmetic per entry is that of a step per
    parameter, so the bits are too.  Embedding rows absent from the batch
    are left untouched (values and accumulators both).  A non-finite
    gradient, or an accumulator the step would make non-finite (g^2
    overflows), aborts the whole step before any value or accumulator
    moves, naming the first such parameter in creation order.
    """
    g = params.flatten(grads)
    sparse = {name: grads[name] for name in params.names()
              if name in params.embedding_names}
    _refuse_non_finite(params, g, {n: r.rows for n, r in sparse.items()},
                       "gradient")
    # x * 1.0 is x, bit for bit
    sparse_acc = {name: state.acc[name][rows.indices] * decay
                  + rows.rows * rows.rows for name, rows in sparse.items()}
    acc = state.dense * decay + g * g
    _refuse_non_finite(params, acc, sparse_acc, "Adagrad accumulator")
    for name, rows in sparse.items():
        state.acc[name][rows.indices] = sparse_acc[name]
        params.values[name][rows.indices] -= \
            lr * rows.rows / (np.sqrt(sparse_acc[name]) + ADAGRAD_EPS)
    state.dense[...] = acc
    params.dense -= lr * g / (np.sqrt(acc) + ADAGRAD_EPS)
    state.step += 1


# ----------------------------------------------------------------------
# training


@dataclasses.dataclass
class EpochLog:
    epoch: int
    mean_ce: float
    mean_aux: float
    mean_total: float
    batches: int

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class TrainResult:
    params: ParamStore
    opt_state: AdagradState
    vocabs: Vocabs
    log: list[EpochLog]
    # why the run stopped early, or "" when every epoch completed
    diverged: str = ""


def fit(table: ImpressionTable, catalog: Catalog, config: ModelConfig, *,
        vocabs: Vocabs | None = None,
        epoch_callback: Callable[[int, "TrainResult"], None] | None = None,
        ) -> TrainResult:
    """Train on the given impressions, deterministically in config.seed.

    Vocabularies come from the training impressions unless supplied.  Batches
    are a seeded shuffle, re-drawn per epoch.  If the total loss goes
    non-finite or ``optimizer_step`` refuses a step, the run aborts,
    keeping the parameters from the end of the last completed epoch; the
    checks, not numpy warnings, report a step that overflows or takes the
    log of 0.
    """
    if not len(table):
        raise ModelError("training set is empty")
    config.validate()
    if vocabs is None:
        vocabs = build_vocab(table, catalog)
    params = build_params(config, vocabs)
    state = AdagradState.for_params(params)
    result = TrainResult(params=params, opt_state=state, vocabs=vocabs,
                         log=[])
    full = encode_batch(table, vocabs, catalog, config.history_len)
    shuffle_rng = np.random.default_rng([config.seed, 7])
    n = full.size
    snapshot = _snapshot(params, state)
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(n)
        ce_sum = aux_sum = total_sum = 0.0
        n_batches = 0
        for start in range(0, n, config.batch_size):
            rows = order[start:start + config.batch_size]
            batch = _slice_batch(full, rows)
            tape = Tape(params)
            with np.errstate(all="ignore"):
                out = forward(tape, config, batch)
                ce, aux, total = compute_losses(tape, config, batch, out)
                total_val = float(total.values)
                try:
                    if not np.isfinite(total_val):
                        raise NonFiniteStep("loss went non-finite")
                    optimizer_step(params, tape.backward(total), state,
                                   config.learning_rate, config.adagrad_decay)
                except NonFiniteStep as exc:
                    result.params, result.opt_state = snapshot
                    result.diverged = str(exc)
                    return result
            ce_sum += float(ce.values)
            aux_sum += float(aux.values) if aux is not None else 0.0
            total_sum += total_val
            n_batches += 1
        entry = EpochLog(epoch=epoch,
                         mean_ce=ce_sum / max(n_batches, 1),
                         mean_aux=aux_sum / max(n_batches, 1),
                         mean_total=total_sum / max(n_batches, 1),
                         batches=n_batches)
        result.log.append(entry)
        snapshot = _snapshot(params, state)
        if epoch_callback is not None:
            epoch_callback(epoch, result)
    return result


def _snapshot(params: ParamStore, state: AdagradState
              ) -> tuple[ParamStore, AdagradState]:
    copy = params.copy()
    return copy, AdagradState.for_params(copy, state.acc, state.step)


def _slice_batch(full: SampleBatch, rows: np.ndarray | slice) -> SampleBatch:
    return SampleBatch(
        target_item=full.target_item[rows],
        target_category=full.target_category[rows],
        seq_item=full.seq_item[rows],
        seq_category=full.seq_category[rows],
        seq_mask=full.seq_mask[rows],
        seq_limited=full.seq_limited[rows],
        labels=full.labels[rows],
        is_new=full.is_new[rows],
        is_limited=full.is_limited[rows],
    )


# ----------------------------------------------------------------------
# prediction and diagnostics


def _kv_by_history(params: ParamStore, config: ModelConfig,
                   table: ImpressionTable, full: SampleBatch,
                   n_categories: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(k, v, grid, which)``: the K/V rows of the distinct history
    entries (item index, category index, stock type) of ``full``'s valid
    positions, each made by the branch that attends to that entry on a
    forward-only tape, and where each position finds its row:
    ``grid[which]`` is ``full``'s [N, H] grid of entry rows.  The [U, H]
    ``grid`` has one row per distinct history of ``table``, as
    ``encode_batch`` encodes them, and ``which`` [N] names each
    impression's."""
    _, first, which = np.unique(table.history, return_index=True,
                                return_inverse=True)
    mask = full.seq_mask[first]
    keys = full.seq_item[first][mask] * n_categories
    keys += full.seq_category[first][mask]
    keys *= 2
    keys += full.seq_limited[first][mask]
    entries = np.unique(keys)
    grid = np.zeros(mask.shape, dtype=np.min_scalar_type(entries.size))
    grid[mask] = np.searchsorted(entries, keys)
    pair, limited = np.divmod(entries, 2)
    # the one branch attends to every entry; else the main branch to the
    # multi entries and the limited branch to the limited ones
    rows_of = ([np.arange(entries.size)] if config.n_branches == 1
               else [np.flatnonzero(limited == flag) for flag in (0, 1)])
    k = np.empty((entries.size, config.attention_out))
    v = np.empty_like(k)
    tape = Tape(params, record=False)
    for (prefix, meta), rows in zip(_branches(config), rows_of):
        if not rows.size:
            continue
        # at least two rows, as a batch's are: a one-row matrix product
        # takes another BLAS kernel
        item, category = np.divmod(pair[np.resize(rows, max(2, rows.size))],
                                   n_categories)
        bk, bv = _branch_kv(
            tape, config, prefix, meta,
            tape.gather_rows(tape.param("emb.item"), item, "emb.item"),
            tape.gather_rows(tape.param("emb.category"), category,
                             "emb.category"))
        k[rows], v[rows] = bk.values[:rows.size], bv.values[:rows.size]
    return k, v, grid, which


def _probabilities(params: ParamStore, config: ModelConfig,
                   table: ImpressionTable, full: SampleBatch,
                   n_categories: int,
                   score_accumulator: ScoreAccumulator | None) -> np.ndarray:
    """``forward``'s probability of each row of ``full``, the encoded
    ``table``, in batches of ``config.batch_size`` rows on forward-only
    tapes that gather K/V from one cache; the cache lives only as long as
    this call."""
    k, v, grid, which = _kv_by_history(params, config, table, full,
                                       n_categories)
    p_chunks: list[np.ndarray] = [np.empty(0)]
    for start in range(0, full.size, config.batch_size):
        rows = slice(start, start + config.batch_size)
        batch = _slice_batch(full, rows)
        fo = forward(Tape(params, record=False), config, batch,
                     KVCache(k, v, grid[which[rows]]))
        if score_accumulator is not None:
            for scores, mask in fo.branch_scores:
                score_accumulator.add_batch(scores, batch.is_limited,
                                            batch.seq_limited, mask)
        p_chunks.append(fo.p.values)
    return np.concatenate(p_chunks)


def predict(params: ParamStore, config: ModelConfig, table: ImpressionTable,
            vocabs: Vocabs, catalog: Catalog, *, partition_seed: int = 0,
            score_accumulator: ScoreAccumulator | None = None,
            ) -> PredictionTable:
    """One prediction per impression, deterministic, in input order.

    The table is encoded once, as ``fit`` does, and every branch's keys
    and values are computed once, for the distinct (item, category) pairs
    of its histories (``_kv_by_history``).  Batches of
    ``config.batch_size`` rows are scored on forward-only tapes that
    gather their k and v from that cache (``KVCache``); the probabilities
    and the ``score_accumulator`` sums are byte for byte those of
    ``forward`` on a recording tape, chunk by chunk.  Parameters whose
    forward pass is not finite raise ``ModelError``; the check, not numpy
    warnings, reports the overflow.
    """
    full = encode_batch(table, vocabs, catalog, config.history_len)
    with np.errstate(all="ignore"):
        p = _probabilities(params, config, table, full, vocabs.category.size,
                           score_accumulator)
    bad = np.count_nonzero(~np.isfinite(p))
    if bad:
        raise ModelError(f"{bad} of {p.size} predictions are not finite: "
                         f"the parameters give no finite forward pass")
    return PredictionTable(
        user_id=table.user_id.copy(), item_id=table.item_id.copy(), p=p,
        y=table.label.copy(), is_new=table.item_is_new.copy(),
        is_limited=table.item_is_limited.copy(),
        partition_id=partition_ids(table.user_id, table.item_id,
                                   partition_seed))


# ----------------------------------------------------------------------
# checkpoints

CHECKPOINT_FORMAT = "ckpt-v2"


def _array_checksum(arrays: dict[str, np.ndarray]) -> str:
    digest = hashlib.sha256()
    for key in sorted(arrays):
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(arrays[key]).tobytes())
    return digest.hexdigest()


def save_checkpoint(path: str | Path, params: ParamStore,
                    opt_state: AdagradState, config: ModelConfig,
                    vocabs: Vocabs, *, dataset_hash: str = "") -> None:
    path = Path(path)
    arrays: dict[str, np.ndarray] = {}
    for name in params.names():
        arrays[f"param/{name}"] = params.values[name]
        arrays[f"opt/{name}"] = opt_state.acc[name]
    arrays["vocab/items"] = np.asarray(vocabs.item.ordered_values(),
                                       dtype=np.int64)
    arrays["vocab/categories"] = np.asarray(vocabs.category.ordered_values(),
                                            dtype=np.int64)
    meta = {
        "format": CHECKPOINT_FORMAT,
        "config": config.to_dict(),
        "config_hash": config_hash(config),
        "dataset_hash": dataset_hash,
        "opt_step": opt_state.step,
        "embedding_params": sorted(params.embedding_names),
        "checksum": _array_checksum(arrays),
    }
    tmp = path.with_suffix(path.suffix + ".tmp")
    # write through a handle so savez cannot append its own extension,
    # then swap into place atomically
    with tmp.open("wb") as fh:
        np.savez(fh, __meta__=np.asarray(json.dumps(meta, sort_keys=True)),
                 **arrays)
    tmp.replace(path)


@dataclasses.dataclass
class Checkpoint:
    params: ParamStore
    opt_state: AdagradState
    config: ModelConfig
    vocabs: Vocabs
    meta: dict


def load_checkpoint(path: str | Path,
                    expected_config: ModelConfig | None = None) -> Checkpoint:
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
        with np.load(path, allow_pickle=False) as data:
            blobs = {k: data[k] for k in data.files}
    except (zipfile.BadZipFile, ValueError, OSError, EOFError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    if "__meta__" not in blobs:
        raise CheckpointError(f"corrupt checkpoint {path}: missing metadata")
    try:
        meta = json.loads(str(blobs.pop("__meta__")))
    except json.JSONDecodeError:
        meta = None
    if not isinstance(meta, dict):
        raise CheckpointError(
            f"corrupt checkpoint {path}: metadata is not a JSON object")
    if meta.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"unsupported checkpoint format {meta.get('format')!r} "
            f"(want {CHECKPOINT_FORMAT})")
    stored_sum = meta.get("checksum")
    if _array_checksum(blobs) != stored_sum:
        raise CheckpointError(f"checksum mismatch in {path}: file damaged "
                              "or tampered")
    try:
        config = ModelConfig.from_dict(meta.get("config"))
    except ModelError as exc:
        raise CheckpointError(f"bad config in {path}: {exc}") from exc
    if meta.get("config_hash") != config_hash(config):
        raise CheckpointError("config hash does not match stored config")
    if expected_config is not None and \
            config_hash(expected_config) != config_hash(config):
        raise CheckpointError(
            f"checkpoint config hash {config_hash(config)} does not match "
            f"expected {config_hash(expected_config)}")
    try:
        vocabs = Vocabs(item=Vocab(blobs.pop("vocab/items").tolist()),
                        category=Vocab(blobs.pop("vocab/categories").tolist()))
    except KeyError as exc:
        raise CheckpointError(
            f"corrupt checkpoint {path}: missing {exc}") from exc
    # the parameter set must be exactly what the config and vocabularies
    # build, block for block and shape for shape
    skeleton = build_params(config, vocabs)
    stored = {k.split("/", 1)[1] for k in blobs
              if k.startswith(("param/", "opt/"))}
    if stored != set(skeleton.names()):
        raise CheckpointError(
            f"checkpoint {path} parameter blocks do not match its config: "
            f"missing {sorted(set(skeleton.names()) - stored)}, "
            f"unexpected {sorted(stored - set(skeleton.names()))}")
    params = ParamStore()
    acc: dict[str, np.ndarray] = {}
    for name in skeleton.names():
        want = skeleton.values[name].shape
        value, opt = blobs.get(f"param/{name}"), blobs.get(f"opt/{name}")
        if value is None or opt is None or \
                value.shape != want or opt.shape != want:
            raise CheckpointError(
                f"checkpoint {path} block {name!r} is missing or not "
                f"shaped {want}")
        params.add(name, value, embedding=name in skeleton.embedding_names)
        acc[name] = opt
    step = meta.get("opt_step", 0)
    if not isinstance(step, int) or isinstance(step, bool) or step < 0:
        raise CheckpointError(f"checkpoint {path} has a bad opt_step {step!r}")
    state = AdagradState.for_params(params, acc, step)
    return Checkpoint(params=params, opt_state=state, config=config,
                      vocabs=vocabs, meta=meta)
