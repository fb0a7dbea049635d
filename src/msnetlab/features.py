"""Vocabulary construction, batch encoding, and embedding lookup.

Vocabularies are built from the training split only, in first-seen order,
with index 0 reserved for out-of-vocabulary values.  Items that appear
only at test time therefore map to the shared row 0, which is exactly the
cold-start condition the models have to cope with.

Side information is the item's category.  The target item's category is
not part of the impression record (the log format carries categories only
inside history triples), so encoding takes the item catalog, which knows
the category of every item including brand-new ones.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

import numpy as np

from .autodiff import ParamStore, Tape, Tensor
from .datagen import Catalog, ImpressionTable, find_sorted

OOV_INDEX = 0


class Vocab:
    """Dense first-seen index assignment with a reserved unknown slot.

    Index 0 is never assigned; unseen values look up to 0.
    """

    def __init__(self, values: Iterable[int] = ()) -> None:
        self._index: dict[int, int] = {}
        # (sorted values, their indices and then OOV_INDEX), built on first
        # array lookup and dropped whenever a value is added
        self._sorted: tuple[np.ndarray, np.ndarray] | None = None
        for v in values:
            self.add(v)

    def add(self, value: int) -> int:
        idx = self._index.get(value)
        if idx is None:
            idx = len(self._index) + 1
            self._index[value] = idx
            self._sorted = None
        return idx

    def lookup(self, value: int) -> int:
        return self._index.get(value, OOV_INDEX)

    def lookup_array(self, values: np.ndarray) -> np.ndarray:
        """``lookup`` of every entry of an int64 array, by binary search
        over the sorted values."""
        if self._sorted is None:
            keys = np.fromiter(self._index, dtype=np.int64,
                               count=len(self._index))
            order = np.argsort(keys)
            self._sorted = keys[order], np.append(order + 1, OOV_INDEX)
        keys, indices = self._sorted
        # a value not found is at position -1: the OOV index
        return indices[find_sorted(keys, values)]

    @property
    def size(self) -> int:
        """Number of rows an embedding table needs (assigned + OOV row)."""
        return len(self._index) + 1

    def ordered_values(self) -> list[int]:
        """Original values in index order (for checkpointing)."""
        return list(self._index.keys())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vocab) and self._index == other._index

    def __len__(self) -> int:
        return len(self._index)


@dataclasses.dataclass
class Vocabs:
    item: Vocab
    category: Vocab


def _first_seen(values: np.ndarray) -> list[int]:
    """The distinct entries of ``values`` in order of first appearance."""
    _, first = np.unique(values, return_index=True)
    return values[np.sort(first)].tolist()


def build_vocab(table: ImpressionTable, catalog: Catalog) -> Vocabs:
    """Scan training rows in order; assign indices first-seen.

    Target item ids and the target's catalog category come first for each
    row, then the history entries, so the assignment is a pure function
    of the row sequence.  A history is scanned at the first row that
    holds it: every later row holding it adds no first-seen value.
    """
    n = len(table)
    if not n:
        raise ValueError("cannot build vocabularies from an empty split")
    known, category = catalog.categories(table.item_id)
    histories, first_row = np.unique(table.history, return_index=True)
    idx, lengths = table.history_entries(histories)
    # scan position of every value: (row, slot), the target in slot 0
    # and the history's entries in slots 1, 2, ...
    ends = np.cumsum(lengths)
    slot = np.concatenate([np.zeros(n, dtype=np.int64),
                           np.arange(idx.size) - np.repeat(ends - lengths,
                                                           lengths) + 1])
    row = np.concatenate([np.arange(n), np.repeat(first_row, lengths)])
    order = np.lexsort((slot, row))
    items = np.concatenate([table.item_id, table.hist_item[idx]])[order]
    categories = np.concatenate([category, table.hist_category[idx]])
    has_category = np.concatenate([known, np.ones(idx.size, dtype=bool)])
    return Vocabs(item=Vocab(_first_seen(items)),
                  category=Vocab(_first_seen(
                      categories[order][has_category[order]])))


@dataclasses.dataclass
class SampleBatch:
    """Encoded impressions ready for the models.

    All arrays are fixed-width; history is truncated to the most recent H
    entries and right-padded with index 0 / mask False.  Flags are only
    ever True where the mask is True.
    """

    target_item: np.ndarray    # [B] int64
    target_category: np.ndarray  # [B] int64
    seq_item: np.ndarray       # [B, H] int64
    seq_category: np.ndarray   # [B, H] int64
    seq_mask: np.ndarray       # [B, H] bool
    seq_limited: np.ndarray    # [B, H] bool
    labels: np.ndarray         # [B] float64
    is_new: np.ndarray         # [B] bool
    is_limited: np.ndarray     # [B] bool

    @property
    def size(self) -> int:
        return int(self.target_item.shape[0])

    @property
    def history_len(self) -> int:
        return int(self.seq_item.shape[1])


def encode_batch(table: ImpressionTable, vocabs: Vocabs, catalog: Catalog,
                 history_len: int) -> SampleBatch:
    if history_len < 1:
        raise ValueError("history_len must be >= 1")
    known, category = catalog.categories(table.item_id)
    # each distinct history the rows hold is encoded once, into one row
    # of the [U, H] grids, and the grid rows are gathered per row
    histories, which = np.unique(table.history, return_inverse=True)
    idx, lengths = table.history_entries(histories, history_len)
    seq_mask = np.arange(history_len) < lengths[:, None]
    seq_item = np.zeros(seq_mask.shape, dtype=np.int64)
    seq_category = np.zeros_like(seq_item)
    seq_limited = np.zeros_like(seq_mask)
    seq_item[seq_mask] = vocabs.item.lookup_array(table.hist_item[idx])
    seq_category[seq_mask] = vocabs.category.lookup_array(
        table.hist_category[idx])
    seq_limited[seq_mask] = table.hist_limited[idx]
    return SampleBatch(
        target_item=vocabs.item.lookup_array(table.item_id),
        target_category=np.where(
            known, vocabs.category.lookup_array(category), OOV_INDEX),
        seq_item=seq_item[which], seq_category=seq_category[which],
        seq_mask=seq_mask[which], seq_limited=seq_limited[which],
        labels=table.label.astype(np.float64),
        is_new=table.item_is_new.copy(),
        is_limited=table.item_is_limited.copy())


def init_embedding(rng: np.random.Generator, rows: int, dim: int) -> np.ndarray:
    """Uniform(-r, r) with r = 1/sqrt(dim); row 0 is the trainable OOV row."""
    r = 1.0 / np.sqrt(dim)
    return rng.uniform(-r, r, size=(rows, dim))


def add_embedding_tables(params: ParamStore, vocabs: Vocabs, d_id: int,
                         d_side: int, rng: np.random.Generator) -> None:
    """Register the shared item-id table and the category table.

    One id table serves both target and sequence lookups so that id
    similarities between target and history items are comparisons within a
    single space.
    """
    params.add("emb.item", init_embedding(rng, vocabs.item.size, d_id),
               embedding=True)
    params.add("emb.category",
               init_embedding(rng, vocabs.category.size, d_side),
               embedding=True)


@dataclasses.dataclass
class Embedded:
    """Gathered embeddings for one batch.

    Sequence tensors hold only the kept positions, packed in row-major
    order of the batch's [B, H] grid; ``seq_row`` names the batch row of
    each packed row.
    """

    target_id: Tensor    # [B, D_id]
    target_side: Tensor  # [B, D_side]
    seq_id: Tensor       # [P, D_id]
    seq_side: Tensor     # [P, D_side]
    seq_row: np.ndarray  # [P] int64


def embed(tape: Tape, batch: SampleBatch, keep: np.ndarray,
          target: Embedded | None = None) -> Embedded:
    """Target rows plus the sequence rows where ``keep`` [B, H] is True.

    ``target``, an earlier result for the same batch, lends its target
    tensors so that a pass over several branches gathers them once.
    """
    keep = np.asarray(keep, dtype=bool)
    if keep.shape != batch.seq_mask.shape:
        raise ValueError(f"keep mask {keep.shape} does not match the batch's "
                         f"sequence grid {batch.seq_mask.shape}")
    item = tape.param("emb.item")
    category = tape.param("emb.category")
    if target is None:
        target_id = tape.gather_rows(item, batch.target_item, "emb.item")
        target_side = tape.gather_rows(category, batch.target_category,
                                       "emb.category")
    else:
        target_id, target_side = target.target_id, target.target_side
    flat = np.flatnonzero(keep)
    return Embedded(
        target_id=target_id, target_side=target_side,
        seq_id=tape.gather_rows(item, batch.seq_item.reshape(-1)[flat],
                                "emb.item"),
        seq_side=tape.gather_rows(category,
                                  batch.seq_category.reshape(-1)[flat],
                                  "emb.category"),
        seq_row=flat // batch.history_len,
    )
