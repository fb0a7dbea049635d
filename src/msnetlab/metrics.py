"""Evaluation metrics: AUC, GAUC, RelaImpr, PCOC, Cal-N, and the grouped
report with overall / new / limited / multi slices.

AUC uses the rank-sum estimator with ties credited 0.5, computed in
O(n log n); the test suite verifies it against the exhaustive pairwise
count.  GAUC weights per-user AUCs by impression count, skipping users
whose impressions are single-class.  Cal-N aggregates per-partition PCOC
errors, with the error asymmetric around 1 (pcoc-1 above, 1/pcoc-1 below).

Partition ids come from a seeded hash of (user_id, item_id) so every
number in a report can be reproduced from the stored prediction file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
import re
import warnings
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy import stats

N_PARTITIONS = 10

GROUPS = ("overall", "new", "limited", "multi")

# the note of a group whose Cal-N is reported as null
CAL_N_NOT_FINITE = ("cal_n null: a clicked partition has PCOC 0, or so near "
                    "0 that the error is not finite")


class MetricsError(Exception):
    """Malformed prediction files or incompatible report inputs."""


def partition_of(user_id: int, item_id: int, seed: int = 0,
                 n_partitions: int = N_PARTITIONS) -> int:
    """Stable partition assignment by seeded hash of (user, item)."""
    digest = hashlib.sha256(f"{seed}|{user_id}|{item_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % n_partitions


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


def auc_from_arrays(p: np.ndarray, y: np.ndarray) -> float | None:
    pos = y == 1
    n_pos = int(pos.sum())
    n_neg = int(p.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = stats.rankdata(p, method="average")
    rank_sum = float(ranks[pos].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def gauc(predictions: Predictions) -> float | None:
    """Impression-weighted mean of per-user AUCs.

    Users with single-class impressions are excluded from the numerator
    and the denominator.  One sort by (user, p) ranks every user's rows at
    once, tied rows sharing their mean rank; rank sums are half-integers,
    so each user's AUC is exact, and the weighted sum runs in the order
    users first appear.
    """
    table = _as_table(predictions)
    n = len(table)
    if n == 0:
        return None
    order = np.lexsort((table.p, table.user_id))
    user, p = table.user_id[order], table.p[order]
    pos = table.y[order] == 1
    new_user = np.r_[True, user[1:] != user[:-1]]
    starts = np.flatnonzero(new_user)
    runs = np.flatnonzero(new_user | np.r_[True, p[1:] != p[:-1]])
    run_ends = np.r_[runs[1:], n]
    user_start = np.maximum.accumulate(np.where(new_user, np.arange(n), 0))
    # 1-based ranks runs+1 .. run_ends within the user, averaged
    mean_rank = (runs + run_ends + 1) / 2.0 - user_start[runs]
    ranks = np.repeat(mean_rank, run_ends - runs)
    counts = np.diff(np.r_[starts, n])
    n_pos = np.add.reduceat(pos.astype(np.int64), starts)
    rank_sum = np.add.reduceat(np.where(pos, ranks, 0.0), starts)
    n_neg = counts - n_pos
    both = (n_pos > 0) & (n_neg > 0)
    aucs = (rank_sum - n_pos * (n_pos + 1) / 2.0)[both] / (n_pos * n_neg)[both]
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
    """Predicted clicks over observed clicks; undefined with zero clicks."""
    table = _as_table(predictions)
    clicks = int(table.y.sum())
    if clicks == 0:
        return None
    # the built-in sum adds in row order; np.sum's pairwise order would
    # move the last bits
    return sum(table.p.tolist()) / clicks


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
    pcocs = [pcoc(table[part == i]) for i in range(n_partitions)]
    errors = [calibration_error(v) for v in pcocs if v is not None]
    if not errors:
        return None, 0
    value = math.sqrt(sum(e * e for e in errors) / len(errors))
    return (value if math.isfinite(value) else None), len(errors)


def partition_aucs(predictions: Predictions,
                   n_partitions: int = N_PARTITIONS) -> list[float]:
    """AUC per partition, skipping partitions without both classes."""
    table = _as_table(predictions)
    part = table.partition_id % n_partitions
    aucs = [auc_from_arrays(table.p[part == i], table.y[part == i])
            for i in range(n_partitions)]
    return [a for a in aucs if a is not None]


def paired_partition_ttest(aucs_a: Sequence[float],
                           aucs_b: Sequence[float]) -> float | None:
    """Two-sided paired t-test p-value over matched partition AUCs."""
    if len(aucs_a) != len(aucs_b) or len(aucs_a) < 2:
        return None
    if np.allclose(aucs_a, aucs_b):
        return 1.0
    return float(stats.ttest_rel(aucs_a, aucs_b).pvalue)


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
        if d.get("format") != "report-v1":
            raise MetricsError(f"unsupported report format {d.get('format')!r}")
        return cls(metadata=d["metadata"],
                   groups={k: GroupMetrics.from_dict(v)
                           for k, v in d["groups"].items()})

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2,
                          allow_nan=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "MetricReport":
        return cls.from_dict(json.loads(text))


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
    masks = {"overall": np.ones(len(table), dtype=bool),
             "new": table.is_new,
             "limited": table.is_limited,
             "multi": ~table.is_limited}
    groups: dict[str, GroupMetrics] = {}
    for name in GROUPS:
        members = table[masks[name]]
        if len(members) == 0:
            groups[name] = GroupMetrics(n=0, n_pos=0, absent=True,
                                        note="empty group")
            continue
        paucs = partition_aucs(members, n_partitions)
        cal, cal_parts = cal_n(members, n_partitions)
        gm = GroupMetrics(
            n=len(members),
            n_pos=int(members.y.sum()),
            auc_avg=float(np.mean(paucs)) if paucs else None,
            auc_std=float(np.std(paucs)) if paucs else None,
            auc_partitions=len(paucs),
            gauc=gauc(members),
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
    path = Path(path)
    rows = zip(*(c.tolist() for c in _as_table(predictions).columns()))
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(PREDICTION_HEADER + "\n")
        if meta:
            pairs = "\t".join(f"{k}={meta[k]}" for k in sorted(meta))
            fh.write(f"#meta\t{pairs}\n")
        fh.write("".join(
            f"{user}\t{item}\t{p!r}\t{y}\t{int(new)}\t{int(limited)}\t{part}\n"
            for user, item, p, y, new, limited, part in rows))


def _parse_rows(text: str) -> np.ndarray:
    """Rows of a prediction file body as a structured array.  Raises
    ValueError for a row that does not parse or breaks a row rule: p
    finite in [0, 1], y and flags 0 or 1, partition id not negative, ids
    inside int64."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a body without rows
        rows = np.loadtxt(io.StringIO(text), dtype=_ROW_DTYPE, comments="#",
                          delimiter="\t", ndmin=1)
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


def _first_bad_line(body: str, exc: ValueError) -> str:
    """Names the first line of a body that ``_parse_rows`` refused.  Found
    by bisection: whether a line parses does not depend on the others."""
    lines = body.split("\n")
    lo, hi = 0, len(lines)  # lines[:lo] parse; lines[lo:hi] do not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _parse_rows("\n".join(lines[lo:mid]))
            lo = mid
        except ValueError:
            hi = mid
    fields = lines[lo].partition("#")[0]
    n_fields = fields.count("\t") + 1
    if n_fields != len(PREDICTION_FIELDS):
        return (f"line {lo + 2}: expected {len(PREDICTION_FIELDS)} fields, "
                f"got {n_fields}")
    try:
        _parse_rows(fields)
    except ValueError as line_exc:
        # numpy counts rows of the one-line text: drop its "row 0"
        why = re.sub(r" at row \d+, column", " at column", str(line_exc))
        return f"line {lo + 2}: {why}"
    return str(exc)


def read_predictions(path: str | Path) -> tuple[PredictionTable, dict]:
    path = Path(path)
    if not path.exists():
        raise MetricsError(f"prediction file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MetricsError(f"{path}: not UTF-8 text ({exc})") from exc
    header, _, body = text.partition("\n")
    if header != PREDICTION_HEADER:
        raise MetricsError(f"{path}: unrecognized prediction header")
    meta: dict = {}
    for line in re.findall(r"^#meta\t(.*)$", body, flags=re.MULTILINE):
        for pair in line.split("\t"):
            k, _, v = pair.partition("=")
            meta[k] = v
    try:
        rows = _parse_rows(body)
    except ValueError as exc:
        raise MetricsError(_first_bad_line(body, exc)) from exc
    return PredictionTable(
        *(np.ascontiguousarray(rows[f], dtype=dtype)
          for f, dtype in zip(PREDICTION_FIELDS, _COLUMN_DTYPES))), meta


# ----------------------------------------------------------------------
# rendering


def _fmt(x: float | None, digits: int = 4) -> str:
    if x is None:
        return "-"
    return f"{x:.{digits}f}"


def _fmt_pct(x: float | None) -> str:
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
            f"{name:<9}{gm.n:>8}{gm.n_pos:>7}{_fmt(gm.auc_avg):>9}"
            f"{_fmt(gm.auc_std):>8}{_fmt_pct(gm.rela_impr_auc):>9}"
            f"{_fmt(gm.gauc):>9}{_fmt_pct(gm.rela_impr_gauc):>9}"
            f"{_fmt(gm.pcoc):>9}{_fmt(gm.cal_n, 5):>10}")
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
