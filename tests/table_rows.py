"""Test helper: impression tables built row by row from records."""

import numpy as np

from msnetlab.datagen import (
    _SCALAR_DTYPES,
    DATASET_FIELDS,
    ImpressionRecord,
    ImpressionTable,
)


def table_of(records: list[ImpressionRecord]) -> ImpressionTable:
    """The columns of ``records``; equal histories share one store entry."""
    index: dict[tuple, int] = {}
    history = [index.setdefault(r.history, len(index)) for r in records]
    entries = [e for h in index for e in h]
    return ImpressionTable(
        *(np.array([getattr(r, f) for r in records], dtype=dtype)
          for f, dtype in zip(DATASET_FIELDS, _SCALAR_DTYPES)),
        history=np.array(history, dtype=np.int64),
        hist_offsets=np.cumsum([0, *map(len, index)], dtype=np.int64),
        hist_item=np.array([e[0] for e in entries], dtype=np.int64),
        hist_category=np.array([e[1] for e in entries], dtype=np.int64),
        hist_limited=np.array([e[2] for e in entries], dtype=bool))
