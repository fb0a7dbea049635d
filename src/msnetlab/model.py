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
    Gradients,
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
    embed_rows,
    encode_batch,
)
# partition_of is not called here but stays a name of this module, where
# perfbench's tracer counts calls to it
from .metrics import PredictionTable, partition_ids, partition_of  # noqa: F401
from .seqmodel import (
    ScoreAccumulator,
    add_attention_params,
    add_meta_params,
    add_mlp_params,
    compose_kv,
    meta_scale,
    meta_shift,
    mlp,
    project_kv,
    scaling_weights,
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
    use_seq_split: bool = True
    use_seq_meta: bool = True
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
    # per attention branch, the detached [P, n_heads] scores of its
    # positions (``cache.positions``), for the score diagnostic
    branch_scores: list[np.ndarray]
    # the batch's target rows of the item and category tables
    target: tuple[Tensor, Tensor]
    cache: "ItemCache"        # what the attention read, for the aux loss


def _branches(config: ModelConfig) -> list[tuple[str, bool]]:
    """Each attention branch's parameter prefix, and whether the meta nets
    make its keys and values: the last branch's, when the model uses
    them."""
    prefixes = ["att.main", "att.limited"][:config.n_branches]
    return [(prefix, config.uses_meta and i == len(prefixes) - 1)
            for i, prefix in enumerate(prefixes)]


def _branch_kv(tape: Tape, prefix: str, meta: bool, seq_id: Tensor,
               seq_side: Tensor) -> tuple[Tensor, Tensor]:
    """Branch ``prefix``'s projected keys and values of the sequence rows
    ``seq_id``/``seq_side``: the raw item embedding, or, when ``meta``, the
    meta-scaled and meta-shifted K/V.  A row depends on its own item and
    category alone."""
    if not meta:
        keys = values = tape.concat_cols([seq_id, seq_side])
    else:
        keys, values = compose_kv(
            tape, seq_id, seq_side, meta_scale(tape, seq_id, seq_side),
            meta_shift(tape, seq_side, seq_id)[0])
    return project_kv(tape, prefix, keys, values)


def _branch_query(tape: Tape, meta: bool, target: tuple[Tensor, Tensor],
                  e_target: Tensor) -> Tensor:
    """The target embedding a branch queries with: ``e_target``, or its
    side half rescaled as the meta branch rescales its keys."""
    if not meta:
        return e_target
    target_id, target_side = target
    q_side = tape.mul(scaling_weights(tape, target_id), target_side)
    return tape.concat_cols([target_id, q_side])


def _query_tables(tape: Tape, config: ModelConfig,
                  target: tuple[Tensor, Tensor], e_target: Tensor
                  ) -> list[Tensor]:
    """Each branch's projected queries ``_branch_query(...) @ Wq`` of the
    target rows ``target``, whose concatenation is ``e_target``; a row
    depends on its own target alone."""
    return [tape.matmul(_branch_query(tape, meta, target, e_target),
                        tape.param(f"{prefix}.wq"))
            for prefix, meta in _branches(config)]


def _target_queries(tape: Tape, config: ModelConfig, item: np.ndarray,
                    category: np.ndarray) -> list[Tensor]:
    """``_query_tables`` of the targets ``item``/``category``, embedded
    here, one row each (two for one target)."""
    target = embed_rows(tape, *_at_least_two_rows(item, category))
    return _query_tables(tape, config, target, tape.concat_cols(list(target)))


def _mlp_head(tape: Tape, config: ModelConfig, x: Tensor) -> Tensor:
    logits = tape.reshape(mlp(tape, _head_layers(config), x),
                          (x.values.shape[0],))
    return tape.sigmoid(tape.clamp(logits, -config.logit_clamp,
                                   config.logit_clamp))


def _distinct_pairs(item: np.ndarray, category: np.ndarray
                    ) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The distinct (item, category) pairs of ``item``/``category``, in
    sorted order, and the row of each given pair among them."""
    n_categories = int(category.max(initial=0)) + 1
    keys, inverse = np.unique(item * n_categories + category,
                              return_inverse=True)
    return np.divmod(keys, n_categories), inverse


def _at_least_two_rows(*ids: np.ndarray) -> list[np.ndarray]:
    """``ids``, each repeated to two entries when it holds one: a one-row
    matrix product takes another BLAS kernel, and its last bits differ,
    so no table of keys, values or queries is ever one row."""
    n = ids[0].size
    return [np.resize(a, n + (n == 1)) for a in ids]


@dataclasses.dataclass
class Positions:
    """A branch's positions in a run of rows, packed row by row: each
    position's row among the branch's entries (or in its k and v tables)
    and its stock flag, and how many positions each row holds."""

    entry_row: np.ndarray  # [P]
    lengths: np.ndarray    # [rows]
    limited: np.ndarray    # [P] bool


@dataclasses.dataclass
class HistoryEntries:
    """The distinct history entries each branch attends to in an encoded
    table, and where each position finds its entry.  Per branch: the
    entries, and the ``Positions`` of each of the U histories of the
    table's store, which start at ``starts`` in its packed rows."""

    pairs: list[tuple[np.ndarray, np.ndarray]]  # per branch: item, category
    histories: list[Positions]                  # per branch, U rows
    starts: list[np.ndarray]                    # per branch, [U]


def _history_entries(config: ModelConfig, batch: SampleBatch
                     ) -> HistoryEntries:
    """The entries of ``batch``'s history store: all of them for a model
    with one branch, else the multi ones for the main branch and the
    limited ones for the limited branch.  Entry rows and lengths take the
    narrowest unsigned dtype that holds them."""
    store = batch.store
    owner = np.repeat(np.arange(store.lengths.size), store.lengths)
    width = np.min_scalar_type(store.lengths.max(initial=0))
    entries = HistoryEntries([], [], [])
    for keep in ([np.ones_like(store.limited)] if config.n_branches == 1
                 else [~store.limited, store.limited]):
        pairs, rows = _distinct_pairs(store.item[keep], store.category[keep])
        lengths = np.bincount(owner[keep], minlength=store.lengths.size
                              ).astype(width)
        entries.pairs.append(pairs)
        entries.histories.append(Positions(
            rows.astype(np.min_scalar_type(pairs[0].size)), lengths,
            store.limited[keep]))
        entries.starts.append(np.cumsum(lengths, dtype=np.int64) - lengths)
    return entries


def _positions(entries: HistoryEntries, which: np.ndarray
               ) -> list[Positions]:
    """Each branch's ``Positions`` of rows whose histories are ``which``:
    each row's history's positions, in row order."""
    positions = []
    for history, starts in zip(entries.histories, entries.starts):
        lengths = history.lengths[which]
        ends = np.cumsum(lengths, dtype=np.int64)
        # position j of the run, in row i, is position
        # starts[which[i]] + j - (ends - lengths)[i] of the histories
        shift = np.repeat(starts[which] - ends + lengths, lengths)
        at = np.arange(shift.size) + shift
        positions.append(Positions(history.entry_row[at], lengths,
                                   history.limited[at]))
    return positions


@dataclasses.dataclass
class ItemCache:
    """The per-item tables ``forward`` reads a batch's attention from.
    Per branch: the projected keys and values of a set of its history
    entries, the (item, category) of each of those entries, and the
    batch's positions among them.  ``queries``, when set, holds each
    branch's projected queries of a set of targets and the row of each
    batch row's target among them; when None, ``forward`` projects the
    batch's own targets, one row each."""

    kv: list[tuple[Tensor, Tensor]]  # per branch, [C_b, n_heads*d_head]
    positions: list[Positions]
    pairs: list[tuple[np.ndarray, np.ndarray]]  # per branch, [C_b] each
    queries: tuple[list[Tensor], np.ndarray] | None = None


def _entry_kv(tape: Tape, config: ModelConfig,
              pairs: list[tuple[np.ndarray, np.ndarray]]
              ) -> list[tuple[Tensor, Tensor]]:
    """Each branch's ``_branch_kv`` of the entries ``pairs[i]``, on
    ``tape``."""
    return [_branch_kv(tape, prefix, meta, *embed_rows(
        tape, *_at_least_two_rows(*pair)))
        for (prefix, meta), pair in zip(_branches(config), pairs)]


def _batch_cache(tape: Tape, config: ModelConfig, entries: HistoryEntries,
                 batch: SampleBatch) -> ItemCache:
    """The cache of ``batch``, whose store ``entries`` lists: each
    branch's K/V of only the entries the batch's positions hold, found by
    an occupancy count over the entry rows.  The queries are left to
    ``forward``."""
    positions = _positions(entries, batch.history)
    pairs = []
    for pos, (item, category) in zip(positions, entries.pairs):
        occupied = np.bincount(pos.entry_row) > 0
        pos.entry_row = (np.cumsum(occupied) - 1)[pos.entry_row]
        used = np.flatnonzero(occupied)
        pairs.append((item[used], category[used]))
    return ItemCache(_entry_kv(tape, config, pairs), positions, pairs)


def forward(tape: Tape, config: ModelConfig, batch: SampleBatch,
            cache: ItemCache | None = None) -> ForwardOutput:
    """Each branch attends only to its positions (``_history_entries``),
    reading q, k and v from ``cache``; without one, the batch's own is
    built on ``tape`` as ``fit`` builds it.  Without the cache's queries,
    the batch's targets are projected here, one row per batch row (a
    one-row batch's beside a padding row, as ``_target_queries`` does).
    The attention and the head run here."""
    if cache is None:
        cache = _batch_cache(tape, config, _history_entries(config, batch),
                             batch)
    target = embed_rows(tape, batch.target_item, batch.target_category)
    e_target = tape.concat_cols(list(target))
    if cache.queries is not None:
        queries, q_row = cache.queries
    else:
        q_row = np.arange(batch.size)
        queries = (_query_tables(tape, config, target, e_target)
                   if batch.size > 1 else _target_queries(
                       tape, config, batch.target_item, batch.target_category))
    interests, branch_scores = [], []
    for (prefix, _), q, (k, v), pos in zip(_branches(config), queries,
                                           cache.kv, cache.positions):
        att = target_attention(tape, prefix, q, q_row, k, v, pos.entry_row,
                               pos.lengths, config.n_heads, config.d_head)
        interests.append(att.interest)
        branch_scores.append(att.scores)
    x = tape.concat_cols(interests + [e_target])
    return ForwardOutput(p=_mlp_head(tape, config, x),
                         branch_scores=branch_scores, target=target,
                         cache=cache)


# ----------------------------------------------------------------------
# losses


def loss_aux(tape: Tape, emb: Embedded) -> Tensor:
    """Mean squared gap between the (gradient-blocked) side similarity and
    the id similarity of every sequence row of ``emb`` against its target,
    one ``Tape.cosine_gap_loss`` node; exactly 0.0 when ``emb`` holds no
    sequence rows."""
    if not emb.seq_row.size:
        return Tape.constant(0.0)
    return tape.cosine_gap_loss(emb.seq_side, emb.target_side, emb.seq_id,
                                emb.target_id, emb.seq_row)


def total_loss(tape: Tape, ce: Tensor, aux: Tensor | None,
               alpha: float) -> Tensor:
    if aux is None or alpha == 0.0:
        return ce
    return tape.add(ce, tape.scale(aux, alpha))


def compute_losses(tape: Tape, config: ModelConfig, batch: SampleBatch,
                   out: ForwardOutput) -> tuple[Tensor, Tensor | None, Tensor]:
    """The click loss, the aux loss over the limited-stock positions (an
    MSNet with ``alpha`` > 0 only, else None) and their weighted sum.  The
    last branch holds every limited position, each row's in order."""
    ce = tape.bce(out.p, batch.labels)
    aux = None
    if config.architecture == ARCH_MSNET and config.alpha > 0.0:
        pos, (item, category) = out.cache.positions[-1], out.cache.pairs[-1]
        rows = pos.entry_row[pos.limited]
        seq_row = np.repeat(np.arange(batch.size), pos.lengths)[pos.limited]
        aux = loss_aux(tape, Embedded(*out.target, *embed_rows(
            tape, item[rows], category[rows]), seq_row))
    return ce, aux, total_loss(tape, ce, aux, config.alpha)


# ----------------------------------------------------------------------
# optimizer


@dataclasses.dataclass
class AdagradState:
    """One accumulator per parameter, held in a store laid out like the
    parameters' own (``params.copy(zero=True)`` at the start)."""

    acc: ParamStore
    step: int = 0


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


def optimizer_step(params: ParamStore, grads: Gradients, state: AdagradState,
                   lr: float, decay: float = 1.0) -> None:
    """Adagrad with optional accumulator decay.

    acc <- decay*acc + g^2 per touched entry; theta -= lr*g/(sqrt(acc)+eps).
    The dense parameters take one pass over ``params.dense``,
    ``grads.dense`` and ``state.acc.dense``, all laid out alike; the
    arithmetic per entry is that of a step per parameter, so the bits are
    too.  Embedding rows absent from the batch are left untouched (values
    and accumulators both).  A non-finite gradient, or an accumulator the
    step would make non-finite (g^2 overflows), aborts the whole step
    before any value or accumulator moves, naming the first such parameter
    in creation order.
    """
    g, sparse = grads.dense, grads.sparse
    _refuse_non_finite(params, g, {n: r.rows for n, r in sparse.items()},
                       "gradient")
    tables = state.acc.values
    # x * 1.0 is x, bit for bit
    sparse_acc = {name: tables[name][rows.indices] * decay
                  + rows.rows * rows.rows for name, rows in sparse.items()}
    acc = state.acc.dense * decay + g * g
    _refuse_non_finite(params, acc, sparse_acc, "Adagrad accumulator")
    for name, rows in sparse.items():
        tables[name][rows.indices] = sparse_acc[name]
        params.values[name][rows.indices] -= \
            lr * rows.rows / (np.sqrt(sparse_acc[name]) + ADAGRAD_EPS)
    state.acc.dense[...] = acc
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
    are a seeded shuffle, re-drawn per epoch; each gets its K/V from the
    entry table built once per run (``_batch_cache``).  If the total loss goes
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
    state = AdagradState(params.copy(zero=True))
    result = TrainResult(params=params, opt_state=state, vocabs=vocabs,
                         log=[])
    full = encode_batch(table, vocabs, catalog, config.history_len)
    entries = _history_entries(config, full)
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
                out = forward(tape, config, batch,
                              _batch_cache(tape, config, entries, batch))
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
    return params.copy(), AdagradState(state.acc.copy(), state.step)


def _slice_batch(full: SampleBatch, rows: np.ndarray | slice) -> SampleBatch:
    """The rows ``rows`` of ``full``, sharing its history store."""
    return SampleBatch(**{field.name: getattr(full, field.name)[rows]
                          for field in dataclasses.fields(SampleBatch)
                          if field.name != "store"}, store=full.store)


# ----------------------------------------------------------------------
# prediction and diagnostics


# rows per block when ``predict`` packs a table's positions: each block's
# int64 position indices stay far below the packed arrays
PACK_ROWS = 4096


def _packed_positions(entries: HistoryEntries, which: np.ndarray
                      ) -> list[Positions]:
    """Each branch's ``Positions`` of rows whose histories are ``which``,
    packed block by block."""
    # an empty table packs one empty block
    blocks = [_positions(entries, which[start:start + PACK_ROWS])
              for start in range(0, max(which.size, 1), PACK_ROWS)]
    return [Positions(*(np.concatenate(parts) for parts in zip(
        *((b[i].entry_row, b[i].lengths, b[i].limited) for b in blocks))))
        for i in range(len(entries.histories))]


def _probabilities(params: ParamStore, config: ModelConfig,
                   full: SampleBatch,
                   score_accumulator: ScoreAccumulator | None) -> np.ndarray:
    """``forward``'s probability of each row of the encoded table
    ``full``, in batches of ``config.batch_size`` rows on forward-only
    tapes.  Each batch reads its q, k and v from tables made once per
    call, of every distinct target and every history entry, and its
    positions and their stock flags as slices of each branch's positions
    packed once per call; both live only as long as this call."""
    entries = _history_entries(config, full)
    tape = Tape(params, record=False)
    kv = _entry_kv(tape, config, entries.pairs)
    targets, target_row = _distinct_pairs(full.target_item,
                                          full.target_category)
    queries = _target_queries(tape, config, *targets)
    target_row = target_row.astype(np.min_scalar_type(targets[0].size))
    packed = _packed_positions(entries, full.history)
    at = [0] * len(packed)
    p_chunks: list[np.ndarray] = [np.empty(0)]
    for start in range(0, full.size, config.batch_size):
        rows = slice(start, start + config.batch_size)
        batch = _slice_batch(full, rows)
        positions = []
        for i, pos in enumerate(packed):
            lengths = pos.lengths[rows]
            run = slice(at[i], at[i] + int(lengths.sum()))
            positions.append(Positions(pos.entry_row[run], lengths,
                                       pos.limited[run]))
            at[i] = run.stop
        fo = forward(Tape(params, record=False), config, batch,
                     ItemCache(kv, positions, entries.pairs,
                               (queries, target_row[rows])))
        if score_accumulator is not None:
            for scores, pos in zip(fo.branch_scores, positions):
                score_accumulator.add_batch(
                    scores, np.repeat(batch.is_limited, pos.lengths),
                    pos.limited)
        p_chunks.append(fo.p.values)
    return np.concatenate(p_chunks)


def predict(params: ParamStore, config: ModelConfig, table: ImpressionTable,
            vocabs: Vocabs, catalog: Catalog, *, partition_seed: int = 0,
            score_accumulator: ScoreAccumulator | None = None,
            ) -> PredictionTable:
    """One prediction per impression, deterministic, in input order.

    The table is encoded once, as ``fit`` does.  Every branch's keys and
    values are computed once, for the distinct entries of its histories
    (``_history_entries``, ``_entry_kv``), and its queries once, for the
    distinct targets (``_target_queries``).  Batches of
    ``config.batch_size`` rows are scored on forward-only tapes that read
    q, k and v from those tables (``ItemCache``); the probabilities and
    the ``score_accumulator`` sums are byte for byte those of ``forward``
    on a recording tape, chunk by chunk.  Parameters whose
    forward pass is not finite raise ``ModelError``; the check, not numpy
    warnings, reports the overflow.
    """
    full = encode_batch(table, vocabs, catalog, config.history_len)
    with np.errstate(all="ignore"):
        p = _probabilities(params, config, full, score_accumulator)
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
        arrays[f"opt/{name}"] = opt_state.acc.values[name]
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
        with path.open("rb") as fh, np.load(fh, allow_pickle=False) as data:
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
    vocab_list = []
    for key in ("vocab/items", "vocab/categories"):
        ids = blobs.pop(key, None)
        if ids is None or ids.dtype != np.int64 or ids.ndim != 1 or \
                np.unique(ids).size != ids.size:
            raise CheckpointError(
                f"checkpoint {path} block {key!r} is missing or not a 1-D "
                f"int64 array of distinct ids")
        vocab_list.append(Vocab(ids.tolist()))
    vocabs = Vocabs(*vocab_list)
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
    params, acc = ParamStore(), ParamStore()
    for name in skeleton.names():
        want = skeleton.values[name].shape
        value, opt = blobs.get(f"param/{name}"), blobs.get(f"opt/{name}")
        if value is None or opt is None or \
                any(a.shape != want or a.dtype != np.float64
                    for a in (value, opt)):
            raise CheckpointError(
                f"checkpoint {path} block {name!r} is missing or not a "
                f"float64 array shaped {want}")
        embedding = name in skeleton.embedding_names
        params.add(name, value, embedding=embedding)
        acc.add(name, opt, embedding=embedding)
    step = meta.get("opt_step", 0)
    if not isinstance(step, int) or isinstance(step, bool) or step < 0:
        raise CheckpointError(f"checkpoint {path} has a bad opt_step {step!r}")
    state = AdagradState(acc, step)
    return Checkpoint(params=params, opt_state=state, config=config,
                      vocabs=vocabs, meta=meta)
