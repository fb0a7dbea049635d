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

import bisect
import dataclasses
import hashlib
import io
import itertools
import math
import operator
import re
import sys
import warnings
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .autodiff import sigmoid

T = TypeVar("T")

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

# Config integers must fit numpy's int64 arithmetic.
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
    if isinstance(default, int):
        # sizes and counts end up in numpy's int64 arithmetic
        return isinstance(value, int) and INT64_MIN <= value <= INT64_MAX
    return isinstance(value, type(default))


def config_kwargs(cls: type, d: object, what: str,
                  error: type[Exception]) -> dict:
    """Constructor arguments for config dataclass ``cls`` from one parsed
    JSON block, raising ``error`` on unknown keys or mistyped values.

    Each value must have the type of its field's default: an int field
    takes an integer within int64, a float field any number, a bool field
    a boolean, a string field a string, and a tuple field a list of its
    elements' type.
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
            sample = default[0] if isinstance(default, tuple) else default
            bound = " within int64" if type(sample) is int else ""
            raise error(f"{what} config {name!r} must be of the type of "
                        f"{default!r}{bound}, got {value!r}")
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
    """The impression log as aligned columns, one row per impression.

    ``history`` indexes a flat store of distinct histories: history ``u``
    holds entries ``hist_offsets[u]:hist_offsets[u + 1]`` of the three
    ``hist_*`` columns, most recent first.  A slice, a boolean mask or an
    array of row indices selects a table that shares the store, and
    ``a + b`` concatenates.  Iterating yields ``ImpressionRecord``s in row
    order; each history tuple a record carries is built once per store and
    shared by every row that holds that history.
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

    def __getitem__(self, index) -> "ImpressionTable":
        if isinstance(index, (int, np.integer)):
            raise TypeError("select rows with a slice, a mask or an array")
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
        # per user, the clicked (item_id, category_id, is_limited) triples,
        # most recent first, flattened into one list of ints
        self.histories: dict[int, list[int]] = {u.user_id: [] for u in users}
        self.day = 0
        self.next_item_id = max(items) + 1 if items else 0
        self.rng = np.random.default_rng(seed)
        self.seed = seed


def _make_item(config: GeneratorConfig, rng: np.random.Generator | _Draws,
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


def _category_cdf(user: UserSpec, config: GeneratorConfig) -> list[float]:
    """Cumulative preference-softmax over categories, normalized as
    ``Generator.choice(n, p=w)`` normalizes it, so that
    ``bisect_right(cdf, rng.random())`` draws what ``rng.choice`` draws
    from the same stream."""
    z = config.affinity_temperature * user.preference
    z = z - z.max()
    w = np.exp(z)
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


# raw words read from the bit generator at a time
_WORD_BLOCK = 1 << 14
_UINT32_MAX = 0xFFFFFFFF
_DOUBLE_UNIT = 2.0 ** -53


class _Draws:
    """The draws ``simulate`` makes, as ``random()``, ``integers()`` and
    ``uniform()`` of the ``Generator`` ``rng`` would make them, replayed
    from raw 64-bit words of a copy of its PCG64 read in blocks.

    Each value is decoded as numpy 2.x decodes it: a double is the top 53
    bits of a word; a bounded integer is Lemire's multiply-and-reject over
    32-bit draws, each the low half of a new word or, if one is stored,
    the high half of the word before (a double leaves that half stored).
    ``close()`` sets ``rng`` to the state the same calls on it would have
    left.  ``tests/test_datagen.py`` checks values and state against the
    ``Generator`` itself.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._start = rng.bit_generator.state
        self._source = np.random.PCG64()
        self._source.state = self._start  # refuses another bit generator
        self._has_half = self._start["has_uint32"]
        self._half = self._start["uinteger"]
        self._blocks = 0
        self._doubles = iter(())
        self._next = self._doubles.__next__

    def _refill(self) -> tuple[float, int, int]:
        """The first word of a new block, decoded as (double, low half,
        high half), as ``self._next()`` gives each word."""
        words = self._source.random_raw(_WORD_BLOCK)
        self._doubles = iter(((words >> 11) * _DOUBLE_UNIT).tolist())
        self._next = zip(self._doubles, (words & _UINT32_MAX).tolist(),
                         (words >> 32).tolist()).__next__
        self._blocks += 1
        return self._next()

    def _uint32(self) -> int:
        if self._has_half:
            self._has_half = 0
            return self._half
        try:
            _, low, self._half = self._next()
        except StopIteration:
            _, low, self._half = self._refill()
        self._has_half = 1
        return low

    def random(self) -> float:
        try:
            return self._next()[0]
        except StopIteration:
            return self._refill()[0]

    def integers(self, low: int, high: int | None = None) -> int:
        """An integer in ``[low, high)``, or in ``[0, low)`` without
        ``high``."""
        if high is None:
            low, high = 0, low
        n = high - low
        if n == 1:
            return low
        if not 1 < n <= _UINT32_MAX:
            raise ValueError(f"integers({low}, {high}): the range must hold "
                             f"1 to 2**32 - 1 values")
        m = self._uint32() * n
        if m & _UINT32_MAX < n:
            threshold = (1 << 32) % n
            while m & _UINT32_MAX < threshold:
                m = self._uint32() * n
        return low + (m >> 32)

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def close(self) -> None:
        """Set ``rng`` past the words used, with the stored half."""
        # the zip takes from the doubles first, so the words the block has
        # left are the doubles it has left
        used = (self._blocks * _WORD_BLOCK
                - operator.length_hint(self._doubles))
        self._source.state = self._start
        self._source.advance(used)
        state = self._source.state
        state["has_uint32"], state["uinteger"] = self._has_half, self._half
        self._rng.bit_generator.state = state


def simulate(market: MarketState, days: int) -> SimulationResult:
    """Run the market for `days` days and return the impression log.

    Per user-day: round(activity) impressions sampled from live items,
    80/20 preference-softmax vs uniform exploration by default.  Clicks are
    Bernoulli(true_ctr); a clicked item is purchased with probability
    purchase_given_click, which decrements stock and retires the item when
    stock reaches zero.  New items are injected at the start of each day.
    Deterministic in the market's seed: every draw comes from
    ``market.rng``'s stream, replayed by ``_Draws``.
    """
    if days < 1:
        raise DatasetError("days must be >= 1")
    rng = _Draws(market.rng)
    try:
        return _simulate(market, days, rng)
    finally:
        rng.close()


def _simulate(market: MarketState, days: int, rng: _Draws
              ) -> SimulationResult:
    config = market.config
    columns: tuple[list, ...] = tuple([] for _ in DATASET_FIELDS)
    (day_col, user_col, item_col, label_col, ctr_col, limited_col, new_col,
     history_col) = columns
    # the store of distinct histories, as flat (item, category, limited)
    # ints: a user's history changes only on that user's click, so a new
    # entry starts at the user's first impression after a click (or after
    # the start)
    entries: list[int] = []
    offsets = [0]
    current: dict[int, int | None] = dict.fromkeys(market.histories)
    kept = 3 * config.history_max  # ints of the entries a history keeps
    empty_days = 0

    cat_cdfs = {u.user_id: _category_cdf(u, config) for u in market.users}
    # true_ctr's logit, split into a term per (user, category) and one per
    # item and added in its order: (bias + w_aff * affinity) + w_q * quality
    user_terms = {u.user_id: [config.ctr_bias + config.ctr_w_affinity * a
                              for a in u.preference.tolist()]
                  for u in market.users}

    def describe(s: ItemSpec) -> tuple[int, bool, int, float]:
        """Category, limited, created day and quality term of an item."""
        return (s.category_id, s.is_limited, s.created_day,
                config.ctr_w_quality * s.quality)

    info = {i: describe(s) for i, s in market.items.items()}
    live, remaining, exp = market.live, market.remaining, np.exp

    for day in range(market.day + 1, market.day + days + 1):
        for _ in range(config.new_items_per_day):
            item = _make_item(config, rng, market.next_item_id, day)
            market.items[item.item_id] = item
            remaining[item.item_id] = item.stock_count
            live.add(item.item_id)
            info[item.item_id] = describe(item)
            market.next_item_id += 1

        # stable per-day index of live items by category, each pool in id
        # order
        by_cat: list[list[int]] = [[] for _ in range(config.n_categories)]
        live_sorted = sorted(live)
        for iid in live_sorted:
            by_cat[info[iid][0]].append(iid)

        day_cut_short = False
        for user in market.users:
            if day_cut_short:
                break
            uid = user.user_id
            cdf, terms = cat_cdfs[uid], user_terms[uid]
            clicks = market.histories[uid]
            history = current[uid]
            for _ in range(int(round(user.activity))):
                if not live:
                    day_cut_short = True
                    break
                item_id = _sample_item(market, rng, cdf, by_cat,
                                       live_sorted, config)
                if item_id is None:
                    day_cut_short = True
                    break
                category, limited, created, quality_term = info[item_id]
                # sigmoid's scalar branches, with numpy's exp for its bits
                z = terms[category] + quality_term
                if z >= 0:
                    p = 1.0 / (1.0 + float(exp(-z)))
                else:
                    e = float(exp(z))
                    p = e / (1.0 + e)
                label = int(rng.random() < p)
                if history is None:
                    history = len(offsets) - 1
                    entries += clicks[:kept]
                    offsets.append(len(entries) // 3)
                day_col.append(day)
                user_col.append(uid)
                item_col.append(item_id)
                label_col.append(label)
                ctr_col.append(p)
                limited_col.append(limited)
                new_col.append((day - created) <= NEW_ITEM_MAX_AGE_DAYS)
                history_col.append(history)
                if label:
                    clicks[0:0] = (item_id, category, limited)
                    del clicks[4 * kept:]
                    history = None
                    if rng.random() < config.purchase_given_click:
                        remaining[item_id] -= 1
                        if remaining[item_id] <= 0:
                            live.discard(item_id)
                            pool = by_cat[category]
                            del pool[bisect.bisect_left(pool, item_id)]
            current[uid] = history
        if day_cut_short:
            empty_days += 1
        market.day = day

    hist_item, hist_category, hist_limited = np.fromiter(
        entries, np.int64, len(entries)).reshape(-1, 3).T.copy()
    records = ImpressionTable(
        *(np.fromiter(c, dtype, len(c)) for c, dtype in
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


def _sample_item(market: MarketState, rng: np.random.Generator | _Draws,
                 cat_cdf: Sequence[float], by_cat: list[list[int]],
                 live_sorted: list[int],
                 config: GeneratorConfig) -> int | None:
    if rng.random() >= config.exploration_rate:
        pool = by_cat[bisect.bisect_right(cat_cdf, rng.random())]
        if pool:
            return pool[rng.integers(len(pool))]
        # category exhausted: fall back to uniform over whatever is live
    # uniform over live items; a sold one drawn leaves the list
    while live_sorted:
        index = rng.integers(len(live_sorted))
        iid = live_sorted[index]
        if iid in market.live:
            return iid
        del live_sorted[index]
    return None


# ----------------------------------------------------------------------
# reading the lab's TSV files: dataset, catalog and prediction files share
# one preamble, one number grammar and one way to name the first bad line

# ASCII characters that numpy skips as blanks around a number, and that
# int() and float() refuse
_NOT_NUMBER_TEXT = "\x1c\x1d\x1e\x1f"


def read_body(path: str | Path, header: str, what: str,
              error: type[Exception]) -> str:
    """The text after the header line of the ``what`` file at ``path``.
    Raises ``error`` if ``path`` is not a file, is not UTF-8 or does not
    start with ``header``."""
    path = Path(path)
    if not path.is_file():
        raise error(f"{what} file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc})") from exc
    first, _, body = text.partition("\n")
    if first != header:
        raise error(f"{path}: unrecognized {what} header "
                    f"(expected {header!r})")
    return body


def load_numbers(text: str, dtype: np.dtype | type,
                 lines: list[str] | None = None, **kwargs) -> np.ndarray:
    """The rows of ``text`` from one ``np.loadtxt``, tab-delimited and
    without comments unless ``kwargs`` say otherwise.  This is the files'
    one number grammar: ASCII text without the separators 0x1c-0x1f, and
    numbers as numpy reads them, so an underscore or a non-ASCII digit is
    refused.  ``lines``, when given, is ``text`` split into its rows, which
    numpy reads faster than the text.  Raises ValueError."""
    if not text.isascii() or any(c in text for c in _NOT_NUMBER_TEXT):
        bad = next(c for c in text
                   if not c.isascii() or c in _NOT_NUMBER_TEXT)
        raise ValueError(f"character {bad!r} is not in the ASCII number "
                         f"grammar")
    kwargs = {"delimiter": "\t", "comments": None, "ndmin": 1, **kwargs}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a text without rows
        return np.loadtxt(io.StringIO(text) if lines is None else lines,
                          dtype=dtype, **kwargs)


def check_field_counts(lines: Iterable[str], n_fields: int) -> None:
    """Raises ValueError for the first non-empty line that does not hold
    ``n_fields`` tab-separated fields."""
    tabs = list(map(str.count, filter(None, lines), itertools.repeat("\t")))
    if set(tabs) - {n_fields - 1}:
        got = next(n for n in tabs if n != n_fields - 1) + 1
        raise ValueError(f"expected {n_fields} fields, got {got}")


def parse_or_name_line(parse: Callable[[str], T], body: str,
                       error: type[Exception]) -> T:
    """``parse(body)``.  If ``parse`` raises ValueError, raises ``error``
    with ``line N: <why>`` for the first line N (the header is line 1) that
    ``parse`` refuses alone, ``<why>`` being what it says about that line.
    Found by bisection: whether a line parses does not depend on the
    others."""
    try:
        return parse(body)
    except ValueError as exc:
        lines = body.split("\n")
        lo, hi = 0, len(lines)  # lines[:lo] parse; lines[lo:hi] do not
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                parse("\n".join(lines[lo:mid]))
                lo = mid
            except ValueError:
                hi = mid
        try:
            parse(lines[lo])
        except ValueError as line_exc:
            # numpy counts rows of the one-line text: drop its "row 0"
            why = re.sub(r" at row \d+, column", " at column", str(line_exc))
            raise error(f"line {lo + 2}: {why}") from exc
        raise error(str(exc)) from exc


def _is_flag(values: np.ndarray) -> np.ndarray:
    return (values == 0) | (values == 1)


# flags are read as integers so that one other than 0 or 1 is seen
_SCALAR_ROW = np.dtype([(f, np.float64 if f == "true_ctr" else np.int64)
                        for f in _SCALAR_FIELDS])
_BAD_HISTORY = ("history is not comma-separated item:category:limited "
                "entries of int64 ids and a flag of 0 or 1")


def _count_entries(history: str) -> int:
    return history.count(",") + 1 if history else 0


def _parse_dataset(body: str) -> ImpressionTable:
    """A dataset body in bulk: one ``np.loadtxt`` for the scalar fields,
    one for the entries of the distinct history texts.  Raises ValueError
    for a body with a bad line."""
    lines = list(filter(None, body.split("\n")))
    check_field_counts(lines, len(DATASET_FIELDS))
    rows = load_numbers(body, _SCALAR_ROW, lines,
                        usecols=range(len(_SCALAR_FIELDS)))
    texts = list(map(operator.itemgetter(2),
                     map(str.rpartition, lines, itertools.repeat("\t"))))
    index = {text: i for i, text in enumerate(dict.fromkeys(texts))}
    flat = ",".join(filter(None, index))
    entries = flat.split(",") if flat else []
    store = np.empty((0, 3), np.int64)
    if entries:
        try:
            store = load_numbers(flat, np.int64, entries, delimiter=":",
                                 ndmin=2)
        except ValueError:
            raise ValueError(_BAD_HISTORY) from None
    # loadtxt skips empty entries, so a row count short of theirs is one
    if store.shape != (len(entries), 3) or not _is_flag(store[:, 2]).all():
        raise ValueError(_BAD_HISTORY)
    ctr = rows["true_ctr"]
    for ok, why in ((_is_flag(rows["label"]), "label must be 0 or 1"),
                    ((ctr > 0.0) & (ctr < 1.0), "true_ctr out of (0, 1)"),
                    *((_is_flag(rows[f]), f"{f} must be 0 or 1")
                      for f in ("item_is_limited", "item_is_new"))):
        if not ok.all():
            raise ValueError(why)
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


def write_dataset(table: ImpressionTable, path: str | Path) -> None:
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
    body = read_body(path, DATASET_HEADER, "dataset", DatasetError)
    return parse_or_name_line(_parse_dataset, body, DatasetError)


def find_sorted(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The position in ``keys``, a sorted int64 array without repeats, of
    each entry of ``values``; -1 where ``keys`` does not hold it."""
    values = np.asarray(values, dtype=np.int64)
    if not keys.size:
        return np.full(values.shape, -1, dtype=np.int64)
    pos = np.minimum(np.searchsorted(keys, values), keys.size - 1)
    return np.where(keys[pos] == values, pos, -1)


_CATALOG_ROW = np.dtype([(f, np.float64 if f == "quality" else np.int64)
                         for f in CATALOG_FIELDS])


@dataclasses.dataclass(eq=False)
class Catalog:
    """The item catalog as aligned columns, one row per item, sorted by
    ``item_id`` with no id repeated."""
    item_id: np.ndarray      # int64
    category_id: np.ndarray  # int64
    stock_count: np.ndarray  # int64, initial stock; 1 means limited-stock
    quality: np.ndarray      # float64
    created_day: np.ndarray  # int64

    @classmethod
    def from_items(cls, items: dict[int, ItemSpec]) -> "Catalog":
        """The columns of a market's items, which are keyed by their ids."""
        specs = [items[k] for k in sorted(items)]
        return cls(*(np.array([getattr(s, f) for s in specs],
                              dtype=_CATALOG_ROW[f])
                     for f in CATALOG_FIELDS))

    def categories(self, item_ids: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Per entry of ``item_ids``: whether the catalog holds the item,
        and its category (0 where it does not)."""
        pos = find_sorted(self.item_id, item_ids)
        return pos >= 0, np.append(self.category_id, 0)[pos]


def write_catalog(catalog: Catalog, path: str | Path) -> None:
    rows = zip(*(getattr(catalog, f).tolist() for f in CATALOG_FIELDS))
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(CATALOG_HEADER + "\n")
        fh.write("".join(f"{item}\t{category}\t{stock}\t{quality!r}\t"
                         f"{created}\n"
                         for item, category, stock, quality, created in rows))


def _parse_catalog(body: str) -> np.ndarray:
    try:
        return load_numbers(body, _CATALOG_ROW)
    except ValueError:
        check_field_counts(body.split("\n"), len(CATALOG_FIELDS))
        raise


def read_catalog(path: str | Path) -> Catalog:
    """The items of a catalog file, sorted by id; a repeated id takes its
    last line's values."""
    body = read_body(path, CATALOG_HEADER, "catalog", DatasetError)
    rows = parse_or_name_line(_parse_catalog, body, DatasetError)
    # each id's last line is its first in the reversed rows
    _, first = np.unique(rows["item_id"][::-1], return_index=True)
    rows = rows[len(rows) - 1 - first]
    return Catalog(*(np.ascontiguousarray(rows[f]) for f in CATALOG_FIELDS))


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def split_train_test(table: ImpressionTable, test_day: int
                     ) -> tuple[ImpressionTable, ImpressionTable]:
    """Days before test_day train, test_day itself tests."""
    return table[table.day < test_day], table[table.day == test_day]
