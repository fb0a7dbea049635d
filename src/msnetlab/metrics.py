"""Evaluation metrics: AUC, GAUC, RelaImpr, PCOC, Cal-N, and the grouped
report with overall / new / limited / multi slices, on numpy alone.

AUC is the rank-sum estimator with ties credited 0.5.  AUC, partition
AUCs and GAUC share one ``(group, p)`` sort; the test suite checks each
against the exhaustive pairwise count, bit for bit.  GAUC weights
per-user AUCs by impression count, skipping users whose impressions are
single-class.  Cal-N aggregates per-partition PCOC errors, with the error
asymmetric around 1 (pcoc-1 above, 1/pcoc-1 below); sums run in row order.

Partition ids come from a seeded hash of (user_id, item_id) so every
number in a report can be reproduced from the stored prediction file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import struct
from functools import reduce
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .datagen import (
    check_field_counts,
    load_numbers,
    parse_or_name_line,
    read_body,
)

N_PARTITIONS = 10

GROUPS = ("overall", "new", "limited", "multi")

# the note of a group whose Cal-N is reported as null
CAL_N_NOT_FINITE = ("cal_n null: a clicked partition has PCOC 0, or so near "
                    "0 that the error is not finite")


class MetricsError(Exception):
    """Malformed prediction files or incompatible report inputs."""


def partition_ids(user_ids: Sequence[int] | np.ndarray,
                  item_ids: Sequence[int] | np.ndarray, seed: int = 0,
                  n_partitions: int = N_PARTITIONS) -> np.ndarray:
    """Stable partition assignment of each (user, item) pair, as int64:
    the first 8 bytes, big-endian, of the sha256 of
    ``f"{seed}|{user}|{item}"``, modulo ``n_partitions``."""
    users = np.asarray(user_ids, dtype=np.int64).tolist()
    items = np.asarray(item_ids, dtype=np.int64).tolist()
    if len(users) != len(items):
        raise ValueError(f"{len(users)} user ids for {len(items)} item ids")
    key = f"{seed}|".encode().replace(b"%", b"%%") + b"%d|%d"
    sha256, first_8 = hashlib.sha256, struct.Struct(">Q").unpack_from
    return np.fromiter(
        (first_8(sha256(key % pair).digest())[0] % n_partitions
         for pair in zip(users, items)),
        dtype=np.int64, count=len(users))


def partition_of(user_id: int, item_id: int, seed: int = 0,
                 n_partitions: int = N_PARTITIONS) -> int:
    """``partition_ids`` of one (user, item) pair."""
    return int(partition_ids([user_id], [item_id], seed, n_partitions)[0])


@dataclasses.dataclass(frozen=True)
class PredictionRecord:
    user_id: int
    item_id: int
    p: float
    y: int
    is_new: bool
    is_limited: bool
    partition_id: int


PREDICTION_FIELDS = ("user_id", "item_id", "p", "y", "is_new", "is_limited",
                     "partition_id")
_COLUMN_DTYPES = (np.int64, np.int64, np.float64, np.int64, bool, bool,
                  np.int64)


@dataclasses.dataclass(eq=False)
class PredictionTable:
    """Predictions as aligned columns, one row per impression.

    A slice or a boolean mask selects a table, an integer index gives one
    ``PredictionRecord``, and iterating yields records in row order.
    """
    user_id: np.ndarray       # int64
    item_id: np.ndarray       # int64
    p: np.ndarray             # float64
    y: np.ndarray             # int64
    is_new: np.ndarray        # bool
    is_limited: np.ndarray    # bool
    partition_id: np.ndarray  # int64

    @classmethod
    def from_records(cls, records: Iterable[PredictionRecord]
                     ) -> "PredictionTable":
        records = list(records)
        return cls(*(np.array([getattr(r, f) for r in records], dtype=dtype)
                     for f, dtype in zip(PREDICTION_FIELDS, _COLUMN_DTYPES)))

    def columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, f) for f in PREDICTION_FIELDS)

    def __len__(self) -> int:
        return len(self.p)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return PredictionRecord(*(c[index].item() for c in self.columns()))
        return PredictionTable(*(c[index] for c in self.columns()))

    def __setitem__(self, index: int, record: PredictionRecord) -> None:
        for f in PREDICTION_FIELDS:
            getattr(self, f)[index] = getattr(record, f)

    def __iter__(self):
        for row in zip(*(c.tolist() for c in self.columns())):
            yield PredictionRecord(*row)


Predictions = PredictionTable | Sequence[PredictionRecord]


def _as_table(predictions: Predictions) -> PredictionTable:
    if isinstance(predictions, PredictionTable):
        return predictions
    return PredictionTable.from_records(predictions)


# ----------------------------------------------------------------------
# scalar metrics


def auc(predictions: Predictions) -> float | None:
    """Probability a random positive outranks a random negative, ties 0.5.

    Undefined (None) when either class is missing.
    """
    table = _as_table(predictions)
    return auc_from_arrays(table.p, table.y)


def _rank_sum_aucs(group: np.ndarray, p: np.ndarray, y: np.ndarray,
                   order: np.ndarray | None = None):
    """The rank-sum AUC of each group of rows, from one sort by (group, p).

    Tied rows share their mean rank within the group; the ranks are
    half-integers, so their sums and every AUC are exact.  ``order``, when
    given, is that sort, ``np.lexsort((p, group))``.  Returns the sort
    order, each group's first sorted row and row count in ascending key
    order, the mask of groups with both classes, and their AUCs.
    """
    n = p.size
    if not n:  # reduceat refuses empty input
        return (np.empty(0, np.int64),) * 3 + (np.empty(0, bool), np.empty(0))
    order = np.lexsort((p, group)) if order is None else order
    key, p, pos = group[order], p[order], y[order] == 1
    new_group = np.r_[True, key[1:] != key[:-1]]
    starts = np.flatnonzero(new_group)
    runs = np.flatnonzero(new_group | np.r_[True, p[1:] != p[:-1]])
    run_ends = np.r_[runs[1:], n]
    # 1-based ranks runs+1 .. run_ends within the group, averaged
    mean_rank = ((runs + run_ends + 1) / 2.0
                 - starts[np.cumsum(new_group)[runs] - 1])
    rank_sum = np.add.reduceat(
        np.where(pos, np.repeat(mean_rank, run_ends - runs), 0.0), starts)
    counts = np.diff(np.r_[starts, n])
    n_pos = np.add.reduceat(pos.astype(np.int64), starts)
    n_neg = counts - n_pos
    both = (n_pos > 0) & (n_neg > 0)
    aucs = (rank_sum - n_pos * (n_pos + 1) / 2.0)[both] / (n_pos * n_neg)[both]
    return order, starts, counts, both, aucs


def auc_from_arrays(p: np.ndarray, y: np.ndarray) -> float | None:
    aucs = _rank_sum_aucs(np.zeros(p.size, dtype=np.int64), p, y)[4]
    return float(aucs[0]) if aucs.size else None


def gauc(predictions: Predictions, *,
         order: np.ndarray | None = None) -> float | None:
    """Impression-weighted mean of per-user AUCs.

    Users with single-class impressions are excluded from the numerator
    and the denominator.  The weighted sum runs in the order users first
    appear.  ``order``, when given, is the rows' ``(user, p)`` sort.
    """
    table = _as_table(predictions)
    order, starts, counts, both, aucs = _rank_sum_aucs(
        table.user_id, table.p, table.y, order)
    first_seen = np.argsort(np.minimum.reduceat(order, starts)[both])
    weighted = 0.0
    weight = 0
    for w, a in zip(counts[both][first_seen].tolist(),
                    aucs[first_seen].tolist()):
        weighted += w * a
        weight += w
    if weight == 0:
        return None
    return weighted / weight


def rela_impr(auc_measured: float, auc_base: float) -> float | None:
    """Relative improvement in percent, normalized by the distance of the
    base model from random guessing (0.5).  Undefined at base == 0.5."""
    if auc_base == 0.5:
        return None
    return ((auc_measured - 0.5) / (auc_base - 0.5) - 1.0) * 100.0


def pcoc(predictions: Predictions) -> float | None:
    """Predicted clicks over observed clicks; undefined with zero clicks.
    ``np.cumsum`` adds the predicted clicks in row order, the same bits on
    every Python; the built-in ``sum`` compensates from Python 3.12."""
    table = _as_table(predictions)
    clicks = int(table.y.sum())
    if clicks == 0:
        return None
    return float(np.cumsum(table.p)[-1]) / clicks


def calibration_error(pcoc_value: float) -> float:
    """Asymmetric per-partition error: pcoc-1 at or above 1, 1/pcoc-1
    below, so over- and under-prediction by the same factor score the
    same.  PCOC 0 (clicks, none predicted) is an infinite error."""
    if pcoc_value >= 1.0:
        return pcoc_value - 1.0
    if pcoc_value == 0.0:
        return math.inf
    return 1.0 / pcoc_value - 1.0


def cal_n(predictions: Predictions,
          n_partitions: int = N_PARTITIONS) -> tuple[float | None, int]:
    """Root mean square of per-partition calibration errors.

    Clickless partitions are excluded; the returned tuple is
    (value or None, number of partitions counted).  The value is None
    also when partitions were counted but their errors give no finite
    root mean square (a partition's PCOC is 0 or nearly so).
    """
    table = _as_table(predictions)
    part = table.partition_id % n_partitions
    sums = [np.bincount(part, weights=w).tolist() for w in (table.p, table.y)]
    errors = [calibration_error(p / c) for p, c in zip(*sums) if c]
    if not errors:
        return None, 0
    value = math.sqrt(reduce(lambda s, e: s + e*e, errors, 0.0) / len(errors))
    return (value if math.isfinite(value) else None), len(errors)


def partition_aucs(predictions: Predictions,
                   n_partitions: int = N_PARTITIONS, *,
                   order: np.ndarray | None = None) -> list[float]:
    """AUC per partition in partition order, skipping single-class ones.
    ``order``, when given, is the rows' ``(partition, p)`` sort."""
    table = _as_table(predictions)
    return _rank_sum_aucs(table.partition_id % n_partitions, table.p,
                          table.y, order)[4].tolist()


# ----------------------------------------------------------------------
# grouped report


@dataclasses.dataclass
class GroupMetrics:
    n: int
    n_pos: int
    auc_avg: float | None = None
    auc_std: float | None = None
    auc_partitions: int = 0
    gauc: float | None = None
    pcoc: float | None = None
    cal_n: float | None = None
    cal_partitions: int = 0
    rela_impr_auc: float | None = None
    rela_impr_gauc: float | None = None
    absent: bool = False
    note: str = ""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "GroupMetrics":
        return cls(**d)


@dataclasses.dataclass
class MetricReport:
    metadata: dict
    groups: dict[str, GroupMetrics]

    def to_dict(self) -> dict:
        return {"format": "report-v1",
                "metadata": self.metadata,
                "groups": {k: v.to_dict() for k, v in self.groups.items()}}

    @classmethod
    def from_dict(cls, d: dict) -> "MetricReport":
        if not isinstance(d, dict):
            raise MetricsError("a report must be a JSON object")
        if d.get("format") != "report-v1":
            raise MetricsError(f"unsupported report format {d.get('format')!r}")
        try:
            return cls(metadata=d["metadata"],
                       groups={k: GroupMetrics.from_dict(v)
                               for k, v in d["groups"].items()})
        except (KeyError, TypeError, AttributeError) as exc:
            raise MetricsError(f"malformed report-v1 object: {exc!r}") from exc

    def to_json(self, attention_scores: dict | None = None) -> str:
        """The report as JSON, with the attention-score table under
        ``attention_scores`` when one is given."""
        d = self.to_dict()
        if attention_scores is not None:
            d["attention_scores"] = attention_scores
        return json.dumps(d, sort_keys=True, indent=2, allow_nan=False) + "\n"


def grouped_report(predictions: Predictions,
                   baseline: "MetricReport | None" = None,
                   metadata: dict | None = None,
                   n_partitions: int = N_PARTITIONS) -> MetricReport:
    """All metrics per group; AUC reported as mean and std over the
    hash partitions; RelaImpr columns appear per group when a baseline
    report is supplied."""
    meta = dict(metadata or {})
    meta.setdefault("n_partitions", n_partitions)
    meta.setdefault("group_definitions", {
        "new": "item created at most 1 day before the impression",
        "limited": "item with initial stock exactly 1",
        "multi": "item with initial stock greater than 1",
    })
    meta.setdefault("gauc_rule",
                    "single-class users excluded from numerator and denominator")
    meta.setdefault("auc_tie_rule", "tied pairs credited 0.5")
    meta.setdefault("embedding_sharing",
                    "target and sequence items share one id table")
    table = _as_table(predictions)
    # per key, the stable sort by key of the p-sorted rows: lexsort((p, key))
    by_p = np.argsort(table.p, kind="stable")
    orders = [by_p[np.argsort(key[by_p], kind="stable")] for key in (
        table.partition_id % n_partitions, table.user_id)]
    masks = {"overall": np.ones(len(table), dtype=bool),
             "new": table.is_new,
             "limited": table.is_limited,
             "multi": ~table.is_limited}
    groups: dict[str, GroupMetrics] = {}
    for name, mask in masks.items():
        members = table[np.flatnonzero(mask)]
        if len(members) == 0:
            groups[name] = GroupMetrics(n=0, n_pos=0, absent=True,
                                        note="empty group")
            continue
        position = np.cumsum(mask) - 1  # of each member among the members
        by_part, by_user = (position[o[mask[o]]] for o in orders)
        paucs = partition_aucs(members, n_partitions, order=by_part)
        cal, cal_parts = cal_n(members, n_partitions)
        gm = GroupMetrics(
            n=len(members),
            n_pos=int(members.y.sum()),
            auc_avg=float(np.mean(paucs)) if paucs else None,
            auc_std=float(np.std(paucs)) if paucs else None,
            auc_partitions=len(paucs),
            gauc=gauc(members, order=by_user),
            pcoc=pcoc(members),
            cal_n=cal,
            cal_partitions=cal_parts,
            note=CAL_N_NOT_FINITE if cal is None and cal_parts else "",
        )
        if baseline is not None:
            base_gm = baseline.groups.get(name)
            if base_gm is not None and not base_gm.absent:
                if gm.auc_avg is not None and base_gm.auc_avg is not None:
                    gm.rela_impr_auc = rela_impr(gm.auc_avg, base_gm.auc_avg)
                if gm.gauc is not None and base_gm.gauc is not None:
                    gm.rela_impr_gauc = rela_impr(gm.gauc, base_gm.gauc)
        groups[name] = gm
    return MetricReport(metadata=meta, groups=groups)


# ----------------------------------------------------------------------
# prediction files

PREDICTION_HEADER = "#predictions-v1\t" + "\t".join(PREDICTION_FIELDS)
# flags are read as integers so that a value other than 0 or 1 is seen
_ROW_DTYPE = np.dtype([(f, np.float64 if f == "p" else np.int64)
                       for f in PREDICTION_FIELDS])


def write_predictions(predictions: Predictions, path: str | Path,
                      meta: dict | None = None) -> None:
    columns = [c.tolist() for c in _as_table(predictions).columns()]
    with Path(path).open("wb") as fh:
        fh.write(f"{PREDICTION_HEADER}\n".encode())
        if meta:
            pairs = "\t".join(f"{k}={meta[k]}" for k in sorted(meta))
            fh.write(f"#meta\t{pairs}\n".encode())
        fh.write(b"%d\t%d\t%r\t%d\t%d\t%d\t%d\n" * len(columns[0])  # per row
                 % tuple(chain.from_iterable(zip(*columns))))


def _parse_rows(text: str) -> np.ndarray:
    """Rows of a prediction file body as a structured array.  Raises
    ValueError for a row that does not parse or breaks a row rule: p
    finite in [0, 1], y and flags 0 or 1, partition id not negative, ids
    inside int64."""
    try:
        rows = load_numbers(text, _ROW_DTYPE, comments="#")
    except ValueError:
        check_field_counts((line.partition("#")[0]
                            for line in text.split("\n")),
                           len(PREDICTION_FIELDS))
        raise
    p = rows["p"]
    checks = [("p", (p >= 0.0) & (p <= 1.0),
               "is not a probability in [0, 1]")]
    checks += [(f, (rows[f] == 0) | (rows[f] == 1), "is not 0 or 1")
               for f in ("y", "is_new", "is_limited")]
    checks.append(("partition_id", rows["partition_id"] >= 0, "is negative"))
    for field, ok, why in checks:
        if not ok.all():
            raise ValueError(f"{field}={rows[field][np.argmin(ok)]} {why}")
    return rows


def read_predictions(path: str | Path) -> tuple[PredictionTable, dict]:
    body = read_body(path, PREDICTION_HEADER, "prediction", MetricsError)
    meta: dict = {}
    text, at = f"\n{body}\n", -1  # each line starting "#meta\t", by str.find
    while (at := text.find("\n#meta\t", at + 1)) != -1:
        line = text[at + 7:text.find("\n", at + 1)]
        meta.update(kv.partition("=")[::2] for kv in line.split("\t"))
    rows = parse_or_name_line(_parse_rows, body, MetricsError)
    return PredictionTable(
        *(np.ascontiguousarray(rows[f], dtype=dtype)
          for f, dtype in zip(PREDICTION_FIELDS, _COLUMN_DTYPES))), meta


# ----------------------------------------------------------------------
# rendering


def fmt_num(x: float | None, digits: int = 4) -> str:
    if x is None:
        return "-"
    return f"{x:.{digits}f}"


def fmt_pct(x: float | None) -> str:
    if x is None:
        return "-"
    return f"{x:+.2f}%"


def render_report(report: MetricReport, title: str = "") -> str:
    """Fixed-width human-readable table."""
    lines = []
    if title:
        lines.append(title)
    header = (f"{'group':<9}{'n':>8}{'pos':>7}{'AUC':>9}{'std':>8}"
              f"{'RI':>9}{'GAUC':>9}{'RI':>9}{'PCOC':>9}{'Cal-N':>10}")
    lines.append(header)
    lines.append("-" * len(header))
    for name in GROUPS:
        gm = report.groups.get(name)
        if gm is None:
            continue
        if gm.absent:
            lines.append(f"{name:<9}{'absent: ' + gm.note}")
            continue
        lines.append(
            f"{name:<9}{gm.n:>8}{gm.n_pos:>7}{fmt_num(gm.auc_avg):>9}"
            f"{fmt_num(gm.auc_std):>8}{fmt_pct(gm.rela_impr_auc):>9}"
            f"{fmt_num(gm.gauc):>9}{fmt_pct(gm.rela_impr_gauc):>9}"
            f"{fmt_num(gm.pcoc):>9}{fmt_num(gm.cal_n, 5):>10}")
        if gm.note:
            lines.append(f"{'':<9}{gm.note}")
    interesting = ("arch", "config_hash", "dataset_hash", "baseline")
    extras = [f"{k}={report.metadata[k]}" for k in interesting
              if k in report.metadata]
    if extras:
        lines.append("")
        lines.append("  ".join(extras))
    return "\n".join(lines) + "\n"


def render_attention_table(table_dict: dict) -> str:
    """2x2 mean pre-softmax attention scores (rows: target stock type,
    columns: sequence-item stock type)."""
    corner = "target / seq"
    lines = ["attention scores (pre-softmax means)",
             f"{corner:<16}{'multi':>12}{'limited':>12}"]
    for t in ("multi", "limited"):
        cells = []
        for s in ("multi", "limited"):
            cell = table_dict.get(f"{t}->{s}", {})
            mean = cell.get("mean")
            cells.append("absent" if mean is None else f"{mean:.4f}")
        lines.append(f"{t:<16}{cells[0]:>12}{cells[1]:>12}")
    return "\n".join(lines) + "\n"
