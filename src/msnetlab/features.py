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
from typing import Iterable, Sequence

import numpy as np

from .autodiff import ParamStore, Tape, Tensor
from .datagen import ImpressionRecord, ItemSpec

OOV_INDEX = 0


class Vocab:
    """Dense first-seen index assignment with a reserved unknown slot.

    Index 0 is never assigned; unseen values look up to 0.
    """

    def __init__(self, values: Iterable[int] = ()) -> None:
        self._index: dict[int, int] = {}
        for v in values:
            self.add(v)

    def add(self, value: int) -> int:
        idx = self._index.get(value)
        if idx is None:
            idx = len(self._index) + 1
            self._index[value] = idx
        return idx

    def lookup(self, value: int) -> int:
        return self._index.get(value, OOV_INDEX)

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


def build_vocab(records: Sequence[ImpressionRecord],
                catalog: dict[int, ItemSpec]) -> Vocabs:
    """Scan training records in order; assign indices first-seen.

    Target item ids and the target's catalog category come first for each
    record, then the history entries, so the assignment is a pure function
    of the record sequence.
    """
    if not records:
        raise ValueError("cannot build vocabularies from an empty split")
    item = Vocab()
    category = Vocab()
    for r in records:
        item.add(r.item_id)
        spec = catalog.get(r.item_id)
        if spec is not None:
            category.add(spec.category_id)
        for hid, hcat, _ in r.history:
            item.add(hid)
            category.add(hcat)
    return Vocabs(item=item, category=category)


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


def encode_batch(records: Sequence[ImpressionRecord], vocabs: Vocabs,
                 catalog: dict[int, ItemSpec], history_len: int) -> SampleBatch:
    if history_len < 1:
        raise ValueError("history_len must be >= 1")
    b = len(records)
    h = history_len
    target_item = np.zeros(b, dtype=np.int64)
    target_category = np.zeros(b, dtype=np.int64)
    seq_item = np.zeros((b, h), dtype=np.int64)
    seq_category = np.zeros((b, h), dtype=np.int64)
    seq_mask = np.zeros((b, h), dtype=bool)
    seq_limited = np.zeros((b, h), dtype=bool)
    labels = np.zeros(b, dtype=np.float64)
    is_new = np.zeros(b, dtype=bool)
    is_limited = np.zeros(b, dtype=bool)
    for i, r in enumerate(records):
        target_item[i] = vocabs.item.lookup(r.item_id)
        spec = catalog.get(r.item_id)
        if spec is not None:
            target_category[i] = vocabs.category.lookup(spec.category_id)
        labels[i] = float(r.label)
        is_new[i] = r.item_is_new
        is_limited[i] = r.item_is_limited
        for j, (hid, hcat, hlim) in enumerate(r.history[:h]):
            seq_item[i, j] = vocabs.item.lookup(hid)
            seq_category[i, j] = vocabs.category.lookup(hcat)
            seq_mask[i, j] = True
            seq_limited[i, j] = hlim
    return SampleBatch(target_item=target_item,
                       target_category=target_category,
                       seq_item=seq_item, seq_category=seq_category,
                       seq_mask=seq_mask, seq_limited=seq_limited,
                       labels=labels, is_new=is_new, is_limited=is_limited)


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
