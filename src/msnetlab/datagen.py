"""Synthetic C2C marketplace simulator with known ground-truth click
probabilities.

The simulator stands in for a production impression log: a seeded market
of users and items produces day-by-day impressions, Bernoulli clicks drawn
from a logistic ground-truth model, and limited-stock items that leave
circulation once sold.  Because the true click probability of every
impression is known, calibration metrics downstream can be verified
against an exact oracle.

Dataset files are UTF-8 text, one record per line, tab-separated, with a
single header line naming the fields and the format version (v1).  The
item catalog is written alongside as its own file; it carries the item
attributes (category, stock, quality, creation day) that the encoder
needs for target items.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import operator
import sys
import warnings
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .autodiff import sigmoid

DATASET_FIELDS = ("day", "user_id", "item_id", "label", "true_ctr",
                  "item_is_limited", "item_is_new", "history")
DATASET_HEADER = "#v1\t" + "\t".join(DATASET_FIELDS)
CATALOG_FIELDS = ("item_id", "category_id", "stock_count", "quality",
                  "created_day")
CATALOG_HEADER = "#catalog-v1\t" + "\t".join(CATALOG_FIELDS)

# An item counts as "new" while its age in days is at most this.  The
# definition is stamped into every report that slices by the new group.
NEW_ITEM_MAX_AGE_DAYS = 1

# Largest initial stock of a multi-stock item; keeps the draw in int64.
MAX_STOCK = 10**9

# Ids read from files must fit the encoder's int64 arrays.
INT64_MIN, INT64_MAX = -2**63, 2**63 - 1


class DatasetError(Exception):
    """Malformed dataset file or invalid generator configuration."""


def is_number(value: object) -> bool:
    """True for a JSON number (int or float); a bool is not a number."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_type_ok(value: object, default: object) -> bool:
    if isinstance(default, bool) or isinstance(value, bool):
        return isinstance(default, bool) and isinstance(value, bool)
    if isinstance(default, float):
        # an integer past the float range would raise in the arithmetic
        return is_number(value) and not (
            isinstance(value, int) and abs(value) > sys.float_info.max)
    return isinstance(value, type(default))


def config_kwargs(cls: type, d: object, what: str,
                  error: type[Exception]) -> dict:
    """Constructor arguments for config dataclass ``cls`` from one parsed
    JSON block, raising ``error`` on unknown keys or mistyped values.

    Each value must have the type of its field's default: an int field
    takes an integer, a float field any number, a bool field a boolean, a
    string field a string, and a tuple field a list of its elements' type.
    """
    if not isinstance(d, dict):
        raise error(f"{what} config must be a JSON object")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = set(d) - set(defaults)
    if unknown:
        raise error(f"unknown {what} config keys: {sorted(unknown)}")
    out = {}
    for name, value in d.items():
        default = defaults[name]
        if isinstance(default, tuple):
            ok = isinstance(value, (list, tuple)) and all(
                _json_type_ok(v, default[0]) for v in value)
        else:
            ok = _json_type_ok(value, default)
        if not ok:
            raise error(f"{what} config {name!r} must be of the type of "
                        f"{default!r}, got {value!r}")
        out[name] = tuple(value) if isinstance(default, tuple) else value
    return out


@dataclasses.dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the synthetic market.

    Defaults give roughly 200k training impressions over 7 days plus a
    day-8 test split, with 70% of the catalog limited-stock.
    """

    n_users: int = 2000
    n_items: int = 12000
    n_categories: int = 8
    days: int = 8
    limited_fraction: float = 0.7
    min_multi_stock: int = 2
    max_multi_stock: int = 20
    purchase_given_click: float = 0.5
    new_items_per_day: int = 400
    mean_impressions_per_user_day: float = 14.4
    exploration_rate: float = 0.2
    affinity_temperature: float = 3.0
    ctr_bias: float = -2.2
    ctr_w_affinity: float = 3.0
    ctr_w_quality: float = 1.0
    history_max: int = 20

    def validate(self) -> None:
        if self.n_users < 1 or self.n_items < 1 or self.n_categories < 1:
            raise DatasetError("market dimensions must be positive")
        if not (0.0 <= self.limited_fraction <= 1.0):
            raise DatasetError("limited_fraction must lie in [0, 1]")
        if self.min_multi_stock < 2 or self.max_multi_stock < self.min_multi_stock:
            raise DatasetError("multi-stock range must satisfy 2 <= min <= max")
        if self.max_multi_stock > MAX_STOCK:
            raise DatasetError(f"max_multi_stock must be <= {MAX_STOCK}")
        if not (0.0 <= self.purchase_given_click <= 1.0):
            raise DatasetError("purchase_given_click must lie in [0, 1]")
        if self.days < 1:
            raise DatasetError("days must be >= 1")
        if self.history_max < 1:
            raise DatasetError("history_max must be >= 1")
        if not (0.0 <= self.exploration_rate <= 1.0):
            raise DatasetError("exploration_rate must lie in [0, 1]")
        if self.new_items_per_day < 0:
            raise DatasetError("new_items_per_day must be >= 0")
        if not (0.0 <= self.mean_impressions_per_user_day < math.inf):
            raise DatasetError(
                "mean_impressions_per_user_day must be finite and >= 0")
        for name in ("affinity_temperature", "ctr_bias", "ctr_w_affinity",
                     "ctr_w_quality"):
            if not math.isfinite(getattr(self, name)):
                raise DatasetError(f"{name} must be finite")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "GeneratorConfig":
        return cls(**config_kwargs(cls, d, "generator", DatasetError))


@dataclasses.dataclass
class ItemSpec:
    item_id: int
    category_id: int
    stock_count: int  # initial stock; 1 means limited-stock
    quality: float    # in [-1, 1]
    created_day: int

    @property
    def is_limited(self) -> bool:
        return self.stock_count == 1


@dataclasses.dataclass
class UserSpec:
    user_id: int
    preference: np.ndarray  # unit-norm vector over categories
    activity: float         # expected impressions per day


@dataclasses.dataclass(frozen=True)
class ImpressionRecord:
    day: int
    user_id: int
    item_id: int
    label: int
    true_ctr: float
    item_is_limited: bool
    item_is_new: bool
    # prior clicks, most recent first, truncated to history_max:
    # tuples of (item_id, category_id, is_limited)
    history: tuple[tuple[int, int, bool], ...]


# the scalar columns of an ImpressionTable and their dtypes; ``history``
# is the int64 column of store indices
_SCALAR_FIELDS = DATASET_FIELDS[:-1]
_SCALAR_DTYPES = (np.int64, np.int64, np.int64, np.int64, np.float64, bool,
                  bool)


@dataclasses.dataclass(eq=False)
class ImpressionTable:
    """Impressions as aligned columns, one row per impression.

    ``history`` indexes a flat store of distinct histories: history ``u``
    holds entries ``hist_offsets[u]:hist_offsets[u + 1]`` of the three
    ``hist_*`` columns, most recent first.  A slice or a boolean mask
    selects a table that shares the store, an integer index gives one
    ``ImpressionRecord``, iterating yields records in row order, and
    ``a + b`` concatenates.  Each history tuple a record carries is built
    once per store and shared by every row that holds that history.
    """
    day: np.ndarray              # int64
    user_id: np.ndarray          # int64
    item_id: np.ndarray          # int64
    label: np.ndarray            # int64
    true_ctr: np.ndarray         # float64
    item_is_limited: np.ndarray  # bool
    item_is_new: np.ndarray      # bool
    history: np.ndarray          # int64, index into the store
    hist_offsets: np.ndarray     # [U + 1] int64
    hist_item: np.ndarray        # int64
    hist_category: np.ndarray    # int64
    hist_limited: np.ndarray     # bool
    # the store's history tuples, filled on first use; tables sharing the
    # store share this list
    _tuples: list = dataclasses.field(default_factory=list, repr=False)

    @classmethod
    def from_records(cls, records: Iterable[ImpressionRecord]
                     ) -> "ImpressionTable":
        """Columns of ``records``; equal histories share one store entry."""
        records = list(records)
        index: dict[tuple, int] = {}
        history = [index.setdefault(r.history, len(index)) for r in records]
        entries = [e for h in index for e in h]
        return cls(*(np.array([getattr(r, f) for r in records], dtype=dtype)
                     for f, dtype in zip(_SCALAR_FIELDS, _SCALAR_DTYPES)),
                   history=np.array(history, dtype=np.int64),
                   hist_offsets=np.cumsum([0, *map(len, index)],
                                          dtype=np.int64),
                   hist_item=np.array([e[0] for e in entries], dtype=np.int64),
                   hist_category=np.array([e[1] for e in entries],
                                          dtype=np.int64),
                   hist_limited=np.array([e[2] for e in entries], dtype=bool))

    def columns(self) -> tuple[np.ndarray, ...]:
        """The eight row columns, in ``DATASET_FIELDS`` order."""
        return tuple(getattr(self, f) for f in DATASET_FIELDS)

    def _store(self) -> dict:
        return {"hist_offsets": self.hist_offsets, "hist_item": self.hist_item,
                "hist_category": self.hist_category,
                "hist_limited": self.hist_limited, "_tuples": self._tuples}

    def history_tuples(self) -> list[tuple[tuple[int, int, bool], ...]]:
        """One tuple per history of the store, built on first use."""
        if not self._tuples:
            entries = list(zip(self.hist_item.tolist(),
                               self.hist_category.tolist(),
                               self.hist_limited.tolist()))
            bounds = self.hist_offsets.tolist()
            self._tuples.extend(tuple(entries[a:b])
                                for a, b in zip(bounds, bounds[1:]))
        return self._tuples

    def history_entries(self, histories: np.ndarray, limit: int | None = None
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Store indices of the entries of ``histories``, concatenated in
        order, each history cut to its first ``limit`` entries; and the
        number kept of each."""
        starts = self.hist_offsets[histories]
        lengths = self.hist_offsets[histories + 1] - starts
        if limit is not None:
            lengths = np.minimum(lengths, limit)
        ends = np.cumsum(lengths)
        shift = np.repeat(starts - (ends - lengths), lengths)
        return np.arange(shift.size) + shift, lengths

    def __len__(self) -> int:
        return len(self.day)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            row = [c[index].item() for c in self.columns()]
            row[-1] = self.history_tuples()[row[-1]]
            return ImpressionRecord(*row)
        return ImpressionTable(*(c[index] for c in self.columns()),
                               **self._store())

    def __iter__(self):
        tuples = self.history_tuples()
        rows = zip(*(c.tolist() for c in self.columns()[:-1]),
                   map(tuples.__getitem__, self.history.tolist()))
        for row in rows:
            yield ImpressionRecord(*row)

    def __add__(self, other: "ImpressionTable") -> "ImpressionTable":
        if not isinstance(other, ImpressionTable):
            return NotImplemented
        scalars = [np.concatenate([a, b]) for a, b in
                   zip(self.columns()[:-1], other.columns()[:-1])]
        if other.hist_offsets is self.hist_offsets:
            return ImpressionTable(
                *scalars, np.concatenate([self.history, other.history]),
                **self._store())
        n_self = len(self.hist_offsets) - 1
        return ImpressionTable(
            *scalars, np.concatenate([self.history, other.history + n_self]),
            hist_offsets=np.concatenate(
                [self.hist_offsets,
                 other.hist_offsets[1:] + self.hist_offsets[-1]]),
            **{f: np.concatenate([getattr(self, f), getattr(other, f)])
               for f in ("hist_item", "hist_category", "hist_limited")})


Impressions = ImpressionTable | Sequence[ImpressionRecord]


def as_table(records: Impressions) -> ImpressionTable:
    """``records`` as a table; a list is converted once."""
    if isinstance(records, ImpressionTable):
        return records
    return ImpressionTable.from_records(records)


@dataclasses.dataclass
class SimulationResult:
    records: ImpressionTable
    metadata: dict


class MarketState:
    """Live items, remaining stock, per-user click histories, day counter,
    and the seeded generator that drives every random choice."""

    def __init__(self, config: GeneratorConfig, users: list[UserSpec],
                 items: dict[int, ItemSpec], seed: int) -> None:
        self.config = config
        self.users = users
        self.items = items
        self.remaining: dict[int, int] = {i: s.stock_count
                                          for i, s in items.items()}
        self.live: set[int] = set(items)
        self.histories: dict[int, list[tuple[int, int, bool]]] = {
            u.user_id: [] for u in users}
        self.day = 0
        self.next_item_id = max(items) + 1 if items else 0
        self.rng = np.random.default_rng(seed)
        self.seed = seed


def _make_item(config: GeneratorConfig, rng: np.random.Generator,
               item_id: int, created_day: int) -> ItemSpec:
    limited = rng.random() < config.limited_fraction
    if limited:
        stock = 1
    else:
        stock = int(rng.integers(config.min_multi_stock,
                                 config.max_multi_stock + 1))
    return ItemSpec(item_id=item_id,
                    category_id=int(rng.integers(config.n_categories)),
                    stock_count=stock,
                    quality=float(rng.uniform(-1.0, 1.0)),
                    created_day=created_day)


def build_market(config: GeneratorConfig, seed: int) -> MarketState:
    """Create users and the initial catalog, deterministically in seed.

    Initial items get a created_day spread over the 10 days before the
    simulation starts so they do not all count as new on day 1.
    """
    config.validate()
    rng = np.random.default_rng(seed)
    users = []
    for uid in range(config.n_users):
        pref = rng.normal(size=config.n_categories)
        pref /= np.linalg.norm(pref)
        activity = float(np.clip(
            rng.gamma(shape=8.0, scale=config.mean_impressions_per_user_day / 8.0),
            2.0, None))
        users.append(UserSpec(user_id=uid, preference=pref, activity=activity))
    items = {}
    for iid in range(config.n_items):
        created = int(rng.integers(-10, 1))
        items[iid] = _make_item(config, rng, iid, created)
    return MarketState(config, users, items, seed)


def true_ctr(user: UserSpec, item: ItemSpec, config: GeneratorConfig) -> float:
    """Ground-truth click probability: a logistic in the user's affinity
    for the item's category and the item's quality."""
    affinity = float(user.preference[item.category_id])
    z = config.ctr_bias + config.ctr_w_affinity * affinity \
        + config.ctr_w_quality * item.quality
    return float(sigmoid(z))


def _category_cdf(user: UserSpec, config: GeneratorConfig) -> np.ndarray:
    """Cumulative preference-softmax over categories, normalized as
    ``Generator.choice(n, p=w)`` normalizes it, so that
    ``cdf.searchsorted(rng.random(), side="right")`` draws what
    ``rng.choice`` draws from the same stream."""
    z = config.affinity_temperature * user.preference
    z = z - z.max()
    w = np.exp(z)
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def simulate(market: MarketState, days: int) -> SimulationResult:
    """Run the market for `days` days and return the impression log.

    Per user-day: round(activity) impressions sampled from live items,
    80/20 preference-softmax vs uniform exploration by default.  Clicks are
    Bernoulli(true_ctr); a clicked item is purchased with probability
    purchase_given_click, which decrements stock and retires the item when
    stock reaches zero.  New items are injected at the start of each day.
    Deterministic in the market's seed.
    """
    if days < 1:
        raise DatasetError("days must be >= 1")
    config = market.config
    rng = market.rng
    columns: tuple[list, ...] = tuple([] for _ in DATASET_FIELDS)
    (day_col, user_col, item_col, label_col, ctr_col, limited_col, new_col,
     history_col) = columns
    # the store of distinct histories: a user's history changes only on
    # that user's click, so a new entry starts at the user's first
    # impression after a click (or after the start)
    entries: list[tuple[int, int, bool]] = []
    offsets = [0]
    current: dict[int, int | None] = dict.fromkeys(market.histories)
    empty_days = 0

    cat_cdfs = {u.user_id: _category_cdf(u, config) for u in market.users}

    for day in range(market.day + 1, market.day + days + 1):
        for _ in range(config.new_items_per_day):
            item = _make_item(config, rng, market.next_item_id, day)
            market.items[item.item_id] = item
            market.remaining[item.item_id] = item.stock_count
            market.live.add(item.item_id)
            market.next_item_id += 1

        # stable per-day index of live items by category
        by_cat: list[list[int]] = [[] for _ in range(config.n_categories)]
        live_sorted = sorted(market.live)
        for iid in live_sorted:
            by_cat[market.items[iid].category_id].append(iid)

        day_cut_short = False
        for user in market.users:
            if day_cut_short:
                break
            uid = user.user_id
            n_impr = int(round(user.activity))
            cdf = cat_cdfs[uid]
            for _ in range(n_impr):
                if not market.live:
                    day_cut_short = True
                    break
                item_id = _sample_item(market, rng, cdf, by_cat,
                                       live_sorted, config)
                if item_id is None:
                    day_cut_short = True
                    break
                item = market.items[item_id]
                p = true_ctr(user, item, config)
                label = int(rng.random() < p)
                history = current[uid]
                if history is None:
                    history = current[uid] = len(offsets) - 1
                    entries += market.histories[uid][:config.history_max]
                    offsets.append(len(entries))
                day_col.append(day)
                user_col.append(uid)
                item_col.append(item_id)
                label_col.append(label)
                ctr_col.append(p)
                limited_col.append(item.is_limited)
                new_col.append(
                    (day - item.created_day) <= NEW_ITEM_MAX_AGE_DAYS)
                history_col.append(history)
                if label:
                    hist = market.histories[uid]
                    hist.insert(0, (item_id, item.category_id, item.is_limited))
                    if len(hist) > 4 * config.history_max:
                        del hist[4 * config.history_max:]
                    current[uid] = None
                    if rng.random() < config.purchase_given_click:
                        market.remaining[item_id] -= 1
                        if market.remaining[item_id] <= 0:
                            market.live.discard(item_id)
                            by_cat[item.category_id].remove(item_id)
        if day_cut_short:
            empty_days += 1
        market.day = day

    hist_item, hist_category, hist_limited = \
        np.array(entries, dtype=np.int64).reshape(-1, 3).T.copy()
    records = ImpressionTable(
        *(np.array(c, dtype=dtype) for c, dtype in
          zip(columns, _SCALAR_DTYPES + (np.int64,))),
        hist_offsets=np.array(offsets, dtype=np.int64), hist_item=hist_item,
        hist_category=hist_category, hist_limited=hist_limited != 0)
    meta = {
        "days_simulated": days,
        "records": len(records),
        "days_cut_short": empty_days,
        "live_items_at_end": len(market.live),
        "new_item_rule_max_age_days": NEW_ITEM_MAX_AGE_DAYS,
    }
    return SimulationResult(records=records, metadata=meta)


def _sample_item(market: MarketState, rng: np.random.Generator,
                 cat_cdf: np.ndarray, by_cat: list[list[int]],
                 live_sorted: list[int],
                 config: GeneratorConfig) -> int | None:
    if rng.random() < config.exploration_rate:
        # uniform exploration over live items
        while live_sorted:
            iid = live_sorted[int(rng.integers(len(live_sorted)))]
            if iid in market.live:
                return iid
            live_sorted.remove(iid)
        return None
    cat = int(cat_cdf.searchsorted(rng.random(), side="right"))
    pool = by_cat[cat]
    if not pool:
        # category exhausted: fall back to uniform over whatever is live
        while live_sorted:
            iid = live_sorted[int(rng.integers(len(live_sorted)))]
            if iid in market.live:
                return iid
            live_sorted.remove(iid)
        return None
    return pool[int(rng.integers(len(pool)))]


# ----------------------------------------------------------------------
# dataset files

# the bulk parse reads the flags as integers, as the per-line parser's
# bool(int(text)) does
_SCALAR_ROW = np.dtype([(f, np.float64 if f == "true_ctr" else np.int64)
                        for f in _SCALAR_FIELDS])
# blanks that numpy's number parser skips and int() and float() refuse
_NUMPY_ONLY_BLANKS = "\x1c\x1d\x1e\x1f"


def _int64_id(text: str, what: str = "id") -> int:
    value = int(text)
    if not INT64_MIN <= value <= INT64_MAX:
        raise ValueError(f"{what} {value} outside int64")
    return value


def _parse_history(text: str) -> tuple[tuple[int, int, bool], ...]:
    history: list[tuple[int, int, bool]] = []
    if text:
        for triple in text.split(","):
            i, c, l = triple.split(":")
            history.append((_int64_id(i), _int64_id(c), bool(int(l))))
    return tuple(history)


def _parse_record(line: str, lineno: int,
                  histories: dict[str, tuple]) -> ImpressionRecord:
    """One dataset line as a record.  ``histories`` maps each history
    field text already parsed to its tuple; a text is checked the first
    time it is seen and shared by every later line that repeats it."""
    parts = line.split("\t")
    if len(parts) != len(DATASET_FIELDS):
        raise DatasetError(
            f"line {lineno}: expected {len(DATASET_FIELDS)} fields, "
            f"got {len(parts)}")
    try:
        day = _int64_id(parts[0], "day")
        user_id = _int64_id(parts[1])
        item_id = _int64_id(parts[2])
        label = int(parts[3])
        ctr = float(parts[4])
        limited = bool(int(parts[5]))
        new = bool(int(parts[6]))
        history = histories.get(parts[7])
        if history is None:
            history = histories[parts[7]] = _parse_history(parts[7])
    except (ValueError, IndexError) as exc:
        raise DatasetError(f"line {lineno}: {exc}") from exc
    if label not in (0, 1):
        raise DatasetError(f"line {lineno}: label must be 0 or 1")
    if not (0.0 < ctr < 1.0):
        raise DatasetError(f"line {lineno}: true_ctr out of (0, 1)")
    return ImpressionRecord(day=day, user_id=user_id, item_id=item_id,
                            label=label, true_ctr=ctr,
                            item_is_limited=limited, item_is_new=new,
                            history=history)


def _parse_lines(body: str) -> ImpressionTable:
    """A dataset body, one ``_parse_record`` per line: raises the
    DatasetError of the first bad line."""
    histories: dict[str, tuple] = {}
    return ImpressionTable.from_records(
        _parse_record(line, lineno, histories)
        for lineno, line in enumerate(body.split("\n"), start=2) if line)


def _count_entries(history: str) -> int:
    return history.count(",") + 1 if history else 0


def _parse_columns(body: str) -> ImpressionTable:
    """A dataset body in bulk: one ``np.loadtxt`` for the scalar fields,
    one for the entries of the distinct history texts.  Raises ValueError
    for any body it cannot read exactly as ``_parse_lines`` does; it
    accepts a subset of what that accepts, with the same values."""
    if not body.isascii() or any(c in body for c in _NUMPY_ONLY_BLANKS):
        raise ValueError("characters numpy and Python read differently")
    lines = list(filter(None, body.split("\n")))
    tabs = len(DATASET_FIELDS) - 1
    if set(map(str.count, lines, itertools.repeat("\t"))) - {tabs}:
        raise ValueError("a line without eight fields")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a body without rows
        rows = np.loadtxt(lines, dtype=_SCALAR_ROW, delimiter="\t",
                          comments=None, usecols=range(tabs), ndmin=1)
    ctr = rows["true_ctr"]
    if not (((rows["label"] == 0) | (rows["label"] == 1)).all()
            and ((ctr > 0.0) & (ctr < 1.0)).all()):
        raise ValueError("a label or true_ctr out of range")
    texts = list(map(operator.itemgetter(2),
                     map(str.rpartition, lines, itertools.repeat("\t"))))
    index = {text: i for i, text in enumerate(dict.fromkeys(texts))}
    flat = ",".join(filter(None, index))
    entries = flat.split(",") if flat else []
    store = np.loadtxt(entries, dtype=np.int64, delimiter=":", comments=None,
                       ndmin=2) if entries else np.empty((0, 3), np.int64)
    # loadtxt skips empty entries, so a row count short of theirs is one
    if store.shape != (len(entries), 3):
        raise ValueError("a history entry without three fields")
    return ImpressionTable(
        *(np.ascontiguousarray(rows[f], dtype=dtype)
          for f, dtype in zip(_SCALAR_FIELDS, _SCALAR_DTYPES)),
        history=np.fromiter(map(index.__getitem__, texts), np.int64,
                            len(texts)),
        hist_offsets=np.cumsum([0, *map(_count_entries, index)],
                               dtype=np.int64),
        hist_item=store[:, 0].copy(), hist_category=store[:, 1].copy(),
        hist_limited=store[:, 2] != 0)


def _history_texts(table: ImpressionTable) -> dict[int, str]:
    """The dataset text of each history some row of ``table`` holds, by
    store index."""
    used = np.unique(table.history)
    idx, lengths = table.history_entries(used)
    entries = [f"{i}:{c}:{l}" for i, c, l in zip(
        table.hist_item[idx].tolist(), table.hist_category[idx].tolist(),
        table.hist_limited[idx].astype(np.int64).tolist())]
    ends = np.cumsum(lengths).tolist()
    return dict(zip(used.tolist(), (",".join(entries[a:b]) for a, b in
                                    zip([0, *ends], ends))))


def write_dataset(records: Impressions, path: str | Path) -> None:
    table = as_table(records)
    path = Path(path)
    # histories repeat until the user's next click: format each once
    texts = _history_texts(table)
    rows = zip(table.day.tolist(), table.user_id.tolist(),
               table.item_id.tolist(), table.label.tolist(),
               table.true_ctr.tolist(),
               table.item_is_limited.astype(np.int64).tolist(),
               table.item_is_new.astype(np.int64).tolist(),
               map(texts.__getitem__, table.history.tolist()))
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(DATASET_HEADER + "\n")
        fh.write("".join(
            f"{day}\t{user}\t{item}\t{label}\t{ctr!r}\t{limited}\t{new}\t"
            f"{history}\n"
            for day, user, item, label, ctr, limited, new, history in rows))


def read_dataset(path: str | Path) -> ImpressionTable:
    """The impressions of a dataset file.  Equal history fields share one
    store entry, so records of the table share one history tuple."""
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"dataset file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text ({exc})") from exc
    header, _, body = text.partition("\n")
    if header != DATASET_HEADER:
        raise DatasetError(
            f"{path}: unrecognized header (expected {DATASET_HEADER!r})")
    try:
        return _parse_columns(body)
    except ValueError:
        # the per-line parser names the first bad line, or reads what
        # only it accepts
        return _parse_lines(body)


def write_catalog(items: dict[int, ItemSpec] | Iterable[ItemSpec],
                  path: str | Path) -> None:
    if isinstance(items, dict):
        items = [items[k] for k in sorted(items)]
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(CATALOG_HEADER + "\n")
        for s in items:
            fh.write(f"{s.item_id}\t{s.category_id}\t{s.stock_count}\t"
                     f"{s.quality!r}\t{s.created_day}\n")


def read_catalog(path: str | Path) -> dict[int, ItemSpec]:
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"catalog file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text ({exc})") from exc
    header, _, body = text.partition("\n")
    if header != CATALOG_HEADER:
        raise DatasetError(f"{path}: unrecognized catalog header")
    items: dict[int, ItemSpec] = {}
    for lineno, line in enumerate(body.split("\n"), start=2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != len(CATALOG_FIELDS):
            raise DatasetError(
                f"line {lineno}: expected {len(CATALOG_FIELDS)} fields, "
                f"got {len(parts)}")
        try:
            spec = ItemSpec(item_id=_int64_id(parts[0]),
                            category_id=_int64_id(parts[1]),
                            stock_count=int(parts[2]),
                            quality=float(parts[3]),
                            created_day=int(parts[4]))
        except ValueError as exc:
            raise DatasetError(f"line {lineno}: {exc}") from exc
        items[spec.item_id] = spec
    return items


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def split_train_test(records: Impressions, test_day: int
                     ) -> tuple[ImpressionTable, ImpressionTable]:
    """Days before test_day train, test_day itself tests."""
    table = as_table(records)
    return table[table.day < test_day], table[table.day == test_day]
