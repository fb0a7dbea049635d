"""Vocabulary construction, batch encoding, and embedding lookup.

Vocabularies are built from the training split only, in first-seen order,
with index 0 reserved for out-of-vocabulary values.  Items that appear
only at test time therefore map to the shared row 0, which is exactly the
cold-start condition the models have to cope with.

Side information is the item's category.  The target item's category is
not part of the impression record (the log format carries categories only
inside history triples), so encoding takes the item catalog, which knows
the category of every item including brand-new ones.

An encoded table holds each distinct history once, packed entry by
entry in a ``HistoryStore``, and each row names its history; the models
read no padded ``[B, H]`` grid.
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

    def lookup_array(self, values: np.ndarray) -> np.ndarray:
        """The index of every entry of an int64 array, ``OOV_INDEX`` for a
        value never added, by binary search over the sorted values."""
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
class HistoryStore:
    """Each distinct history of an encoded table, once: the kept entries
    (the most recent ``history_len`` at most, most recent first) packed
    history by history, and how many each history keeps."""

    item: np.ndarray       # [E] int64
    category: np.ndarray   # [E] int64
    limited: np.ndarray    # [E] bool
    lengths: np.ndarray    # [U] int64
    history_len: int


@dataclasses.dataclass
class SampleBatch:
    """Encoded impressions ready for the models: row i's history is
    history ``history[i]`` of ``store``, which every batch sliced from one
    encoded table shares."""

    target_item: np.ndarray    # [B] int64
    target_category: np.ndarray  # [B] int64
    history: np.ndarray        # [B] int64
    labels: np.ndarray         # [B] float64
    is_new: np.ndarray         # [B] bool
    is_limited: np.ndarray     # [B] bool
    store: HistoryStore

    @property
    def size(self) -> int:
        return int(self.target_item.shape[0])

    @property
    def seq_mask(self) -> np.ndarray:
        """[B, H] bool, True at each row's kept positions: the fill of a
        padded history grid, for the benchmark's ``seq_fill_ratio``."""
        return np.arange(self.store.history_len) < \
            self.store.lengths[self.history][:, None]


def encode_batch(table: ImpressionTable, vocabs: Vocabs, catalog: Catalog,
                 history_len: int) -> SampleBatch:
    if history_len < 1:
        raise ValueError("history_len must be >= 1")
    known, category = catalog.categories(table.item_id)
    # each distinct history the rows hold is encoded once, into the store
    histories, history = np.unique(table.history, return_inverse=True)
    idx, lengths = table.history_entries(histories, history_len)
    return SampleBatch(
        target_item=vocabs.item.lookup_array(table.item_id),
        target_category=np.where(
            known, vocabs.category.lookup_array(category), OOV_INDEX),
        history=history, labels=table.label.astype(np.float64),
        is_new=table.item_is_new.copy(),
        is_limited=table.item_is_limited.copy(),
        store=HistoryStore(
            vocabs.item.lookup_array(table.hist_item[idx]),
            vocabs.category.lookup_array(table.hist_category[idx]),
            table.hist_limited[idx], lengths, history_len))


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
    """Gathered embeddings for one batch: its target rows, and packed
    sequence rows, each paired with its batch row ``seq_row``."""

    target_id: Tensor    # [B, D_id]
    target_side: Tensor  # [B, D_side]
    seq_id: Tensor       # [P, D_id]
    seq_side: Tensor     # [P, D_side]
    seq_row: np.ndarray  # [P] int64


def embed_rows(tape: Tape, item: np.ndarray,
               category: np.ndarray) -> tuple[Tensor, Tensor]:
    """The rows ``item`` of the item table and ``category`` of the
    category table."""
    return (tape.gather_rows(tape.param("emb.item"), item, "emb.item"),
            tape.gather_rows(tape.param("emb.category"), category,
                             "emb.category"))
