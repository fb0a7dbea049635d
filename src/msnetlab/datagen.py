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
import math
from pathlib import Path
from typing import Iterable

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
        return is_number(value)
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


@dataclasses.dataclass
class SimulationResult:
    records: list[ImpressionRecord]
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

    def serialize_catalog(self) -> str:
        lines = [CATALOG_HEADER]
        for item_id in sorted(self.items):
            s = self.items[item_id]
            lines.append(f"{s.item_id}\t{s.category_id}\t{s.stock_count}\t"
                         f"{s.quality!r}\t{s.created_day}")
        return "\n".join(lines) + "\n"


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


def _category_weights(user: UserSpec, config: GeneratorConfig) -> np.ndarray:
    z = config.affinity_temperature * user.preference
    z = z - z.max()
    w = np.exp(z)
    return w / w.sum()


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
    records: list[ImpressionRecord] = []
    empty_days = 0

    cat_weights = {u.user_id: _category_weights(u, config)
                   for u in market.users}

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
            n_impr = int(round(user.activity))
            weights = cat_weights[user.user_id]
            for _ in range(n_impr):
                if not market.live:
                    day_cut_short = True
                    break
                item_id = _sample_item(market, rng, weights, by_cat,
                                       live_sorted, config)
                if item_id is None:
                    day_cut_short = True
                    break
                item = market.items[item_id]
                p = true_ctr(user, item, config)
                label = int(rng.random() < p)
                hist = market.histories[user.user_id]
                record = ImpressionRecord(
                    day=day, user_id=user.user_id, item_id=item_id,
                    label=label, true_ctr=p,
                    item_is_limited=item.is_limited,
                    item_is_new=(day - item.created_day) <= NEW_ITEM_MAX_AGE_DAYS,
                    history=tuple(hist[:config.history_max]))
                records.append(record)
                if label:
                    hist.insert(0, (item_id, item.category_id, item.is_limited))
                    if len(hist) > 4 * config.history_max:
                        del hist[4 * config.history_max:]
                    if rng.random() < config.purchase_given_click:
                        market.remaining[item_id] -= 1
                        if market.remaining[item_id] <= 0:
                            market.live.discard(item_id)
                            by_cat[item.category_id].remove(item_id)
        if day_cut_short:
            empty_days += 1
        market.day = day

    meta = {
        "days_simulated": days,
        "records": len(records),
        "days_cut_short": empty_days,
        "live_items_at_end": len(market.live),
        "new_item_rule_max_age_days": NEW_ITEM_MAX_AGE_DAYS,
    }
    return SimulationResult(records=records, metadata=meta)


def _sample_item(market: MarketState, rng: np.random.Generator,
                 cat_weights: np.ndarray, by_cat: list[list[int]],
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
    cat = int(rng.choice(len(cat_weights), p=cat_weights))
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


def _format_record(r: ImpressionRecord) -> str:
    hist = ",".join(f"{i}:{c}:{int(l)}" for i, c, l in r.history)
    return (f"{r.day}\t{r.user_id}\t{r.item_id}\t{r.label}\t{r.true_ctr!r}\t"
            f"{int(r.item_is_limited)}\t{int(r.item_is_new)}\t{hist}")


def _int64_id(text: str) -> int:
    value = int(text)
    if not INT64_MIN <= value <= INT64_MAX:
        raise ValueError(f"id {value} outside int64")
    return value


def _parse_record(line: str, lineno: int) -> ImpressionRecord:
    parts = line.split("\t")
    if len(parts) != len(DATASET_FIELDS):
        raise DatasetError(
            f"line {lineno}: expected {len(DATASET_FIELDS)} fields, "
            f"got {len(parts)}")
    try:
        day = int(parts[0])
        user_id = _int64_id(parts[1])
        item_id = _int64_id(parts[2])
        label = int(parts[3])
        ctr = float(parts[4])
        limited = bool(int(parts[5]))
        new = bool(int(parts[6]))
        history: list[tuple[int, int, bool]] = []
        if parts[7]:
            for triple in parts[7].split(","):
                i, c, l = triple.split(":")
                history.append((_int64_id(i), _int64_id(c), bool(int(l))))
    except (ValueError, IndexError) as exc:
        raise DatasetError(f"line {lineno}: {exc}") from exc
    if label not in (0, 1):
        raise DatasetError(f"line {lineno}: label must be 0 or 1")
    if not (0.0 < ctr < 1.0):
        raise DatasetError(f"line {lineno}: true_ctr out of (0, 1)")
    return ImpressionRecord(day=day, user_id=user_id, item_id=item_id,
                            label=label, true_ctr=ctr,
                            item_is_limited=limited, item_is_new=new,
                            history=tuple(history))


def write_dataset(records: Iterable[ImpressionRecord], path: str | Path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(DATASET_HEADER + "\n")
        for r in records:
            fh.write(_format_record(r) + "\n")


def read_dataset(path: str | Path) -> list[ImpressionRecord]:
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"dataset file not found: {path}")
    records = []
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != DATASET_HEADER:
            raise DatasetError(
                f"{path}: unrecognized header (expected {DATASET_HEADER!r})")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            records.append(_parse_record(line, lineno))
    return records


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
    items: dict[int, ItemSpec] = {}
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != CATALOG_HEADER:
            raise DatasetError(f"{path}: unrecognized catalog header")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
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


def split_train_test(records: list[ImpressionRecord],
                     test_day: int) -> tuple[list[ImpressionRecord],
                                             list[ImpressionRecord]]:
    """Days before test_day train, test_day itself tests."""
    train = [r for r in records if r.day < test_day]
    test = [r for r in records if r.day == test_day]
    return train, test
