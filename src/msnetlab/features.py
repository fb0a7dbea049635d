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
import itertools
from typing import Iterable, Iterator, Sequence

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
        # (sorted values, their indices), built on first array lookup and
        # dropped whenever a value is added
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
            self._sorted = keys[order], order + 1
        keys, indices = self._sorted
        values = np.asarray(values, dtype=np.int64)
        if not keys.size:
            return np.full(values.shape, OOV_INDEX, dtype=np.int64)
        pos = np.minimum(np.searchsorted(keys, values), keys.size - 1)
        return np.where(keys[pos] == values, indices[pos], OOV_INDEX)

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


def _scan(records: Sequence[ImpressionRecord],
          catalog: dict[int, ItemSpec]) -> Iterator[tuple]:
    """Per record, one tuple of entries: (target item id, its catalog
    category or None), then the record's history entries."""
    for r in records:
        spec = catalog.get(r.item_id)
        yield ((r.item_id, None if spec is None else spec.category_id),
               ) + tuple(r.history)


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
    # a value's first entry is the first entry of the first distinct
    # entry that holds it, so scanning distinct entries in first-seen
    # order assigns the same indices as scanning them all
    for entry in dict.fromkeys(
            itertools.chain.from_iterable(_scan(records, catalog))):
        item.add(entry[0])
        if entry[1] is not None:
            category.add(entry[1])
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
    chain = itertools.chain.from_iterable
    # per record: item id, label, is_new, is_limited, whether the catalog
    # knows the item, and its catalog category (0 when it does not)
    specs = map(catalog.get, (r.item_id for r in records))
    targets = np.fromiter(chain(
        (r.item_id, r.label, r.item_is_new, r.item_is_limited,
         spec is not None, 0 if spec is None else spec.category_id)
        for r, spec in zip(records, specs)),
        dtype=np.int64, count=6 * b).reshape(b, 6)
    histories = [r.history[:history_len] for r in records]
    lengths = np.fromiter(map(len, histories), dtype=np.int64, count=b)
    # every kept history entry in order: item id, category, is_limited
    hist = np.fromiter(chain(chain(histories)), dtype=np.int64,
                       count=3 * int(lengths.sum())).reshape(-1, 3)
    seq_mask = np.arange(history_len) < lengths[:, None]
    seq_item = np.zeros((b, history_len), dtype=np.int64)
    seq_category = np.zeros_like(seq_item)
    seq_limited = np.zeros_like(seq_mask)
    seq_item[seq_mask] = vocabs.item.lookup_array(hist[:, 0])
    seq_category[seq_mask] = vocabs.category.lookup_array(hist[:, 1])
    seq_limited[seq_mask] = hist[:, 2] != 0
    return SampleBatch(
        target_item=vocabs.item.lookup_array(targets[:, 0]),
        target_category=np.where(
            targets[:, 4] != 0,
            vocabs.category.lookup_array(targets[:, 5]), OOV_INDEX),
        seq_item=seq_item, seq_category=seq_category,
        seq_mask=seq_mask, seq_limited=seq_limited,
        labels=targets[:, 1].astype(np.float64),
        is_new=targets[:, 2] != 0,
        is_limited=targets[:, 3] != 0)


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
