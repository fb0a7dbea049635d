"""Market simulator tests: boundaries, determinism, ground-truth click
statistics, and the dataset file round trip."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msnetlab.datagen import (
    DATASET_FIELDS,
    DATASET_HEADER,
    INT64_MAX,
    INT64_MIN,
    DatasetError,
    GeneratorConfig,
    ImpressionRecord,
    ImpressionTable,
    ItemSpec,
    UserSpec,
    _category_cdf,
    _sample_item,
    build_market,
    read_catalog,
    read_dataset,
    simulate,
    split_train_test,
    true_ctr,
    write_catalog,
    write_dataset,
)

SMALL = GeneratorConfig(n_users=40, n_items=250, n_categories=4, days=4,
                        new_items_per_day=20,
                        mean_impressions_per_user_day=8.0)


class TestBuildMarket:
    def test_all_limited(self):
        cfg = GeneratorConfig(n_users=5, n_items=50, limited_fraction=1.0)
        market = build_market(cfg, seed=0)
        assert all(s.stock_count == 1 for s in market.items.values())

    def test_none_limited(self):
        cfg = GeneratorConfig(n_users=5, n_items=50, limited_fraction=0.0)
        market = build_market(cfg, seed=0)
        assert all(s.stock_count >= 2 for s in market.items.values())

    def test_deterministic_serialization(self, tmp_path):
        def catalog_bytes(seed, name):
            path = tmp_path / name
            write_catalog(build_market(SMALL, seed=seed).items, path)
            return path.read_bytes()

        a = catalog_bytes(123, "a.tsv")
        assert a == catalog_bytes(123, "b.tsv")
        assert a != catalog_bytes(124, "c.tsv")

    def test_user_preferences_unit_norm(self):
        market = build_market(SMALL, seed=3)
        for u in market.users:
            assert abs(np.linalg.norm(u.preference) - 1.0) < 1e-9

    def test_invalid_config_rejected(self):
        with pytest.raises(DatasetError):
            GeneratorConfig(limited_fraction=1.5).validate()
        with pytest.raises(DatasetError):
            GeneratorConfig(n_users=0).validate()
        with pytest.raises(DatasetError):
            GeneratorConfig(min_multi_stock=1).validate()
        for bad in ({"max_multi_stock": 10**20}, {"new_items_per_day": -1},
                    {"mean_impressions_per_user_day": -1.0},
                    {"mean_impressions_per_user_day": math.inf},
                    {"ctr_bias": math.nan}):
            with pytest.raises(DatasetError):
                GeneratorConfig(**bad).validate()

    def test_from_dict_checks_value_types(self):
        for bad in ({"n_users": "5"}, {"n_users": 5.0}, {"n_users": True},
                    {"limited_fraction": "0.5"}, {"days": None}, [1, 2]):
            with pytest.raises(DatasetError):
                GeneratorConfig.from_dict(bad)
        cfg = GeneratorConfig.from_dict({"n_users": 5, "limited_fraction": 1})
        assert cfg.n_users == 5 and cfg.limited_fraction == 1


class TestTrueCtr:
    def _user(self, pref):
        return UserSpec(user_id=0, preference=np.asarray(pref, dtype=float),
                        activity=1.0)

    def _item(self, cat=0, quality=0.0):
        return ItemSpec(item_id=0, category_id=cat, stock_count=1,
                        quality=quality, created_day=0)

    def test_constant_model_is_half(self):
        cfg = GeneratorConfig(ctr_bias=0.0, ctr_w_affinity=0.0,
                              ctr_w_quality=0.0)
        user = self._user([1.0, 0.0])
        assert true_ctr(user, self._item(cat=0, quality=0.7), cfg) == 0.5
        assert true_ctr(user, self._item(cat=1, quality=-0.2), cfg) == 0.5

    def test_unit_affinity_closed_form(self):
        # sigmoid(1) = 1/(1+e^-1)
        cfg = GeneratorConfig(ctr_bias=0.0, ctr_w_affinity=1.0,
                              ctr_w_quality=0.0)
        got = true_ctr(self._user([1.0, 0.0]), self._item(cat=0), cfg)
        assert abs(got - 1.0 / (1.0 + math.exp(-1.0))) < 1e-12
        assert abs(got - 0.7310585786300049) < 1e-12

    def test_quality_monotone(self):
        cfg = GeneratorConfig(ctr_w_quality=1.0)
        user = self._user([0.3, -0.3])
        qualities = np.linspace(-1, 1, 11)
        ctrs = [true_ctr(user, self._item(cat=0, quality=q), cfg)
                for q in qualities]
        assert all(b >= a for a, b in zip(ctrs, ctrs[1:]))


def choice_weights(user, config):
    """Preference-softmax weights as ``rng.choice(n, p=w)`` takes them:
    the oracle for the simulator's CDF draw."""
    z = config.affinity_temperature * user.preference
    z = z - z.max()
    w = np.exp(z)
    return w / w.sum()


class TestCategoryDraw:
    @given(pref=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=16),
           temperature=st.floats(0.0, 50.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_cdf_draw_matches_rng_choice(self, pref, temperature, seed):
        # with no exploration each draw takes one random() for the
        # exploration coin, one for the category and one integer for the
        # item; with one item per category the item id is the category,
        # and no draw reads the market
        n = len(pref)
        config = GeneratorConfig(n_categories=n, exploration_rate=0.0,
                                 affinity_temperature=temperature)
        user = UserSpec(user_id=0, preference=np.array(pref), activity=1.0)
        w = choice_weights(user, config)
        cdf = _category_cdf(user, config)
        by_cat = [[c] for c in range(n)]
        got_rng = np.random.default_rng(seed)
        want_rng = np.random.default_rng(seed)
        for _ in range(20):
            got = _sample_item(None, got_rng, cdf, by_cat, [], config)
            want_rng.random()
            want = int(want_rng.choice(n, p=w))
            want_rng.integers(1)
            assert got == want
        assert got_rng.random() == want_rng.random()


class TestSimulate:
    def test_sold_items_never_reappear(self):
        # advance one day at a time; anything sold out by the end of a day
        # must never show up in any later day's impressions
        market = build_market(SMALL, seed=5)
        saw_sellout = False
        for _ in range(SMALL.days):
            dead_before = {i for i, rem in market.remaining.items()
                           if rem <= 0}
            saw_sellout = saw_sellout or bool(dead_before)
            res = simulate(market, 1)
            offenders = [r.item_id for r in res.records
                         if r.item_id in dead_before]
            assert not offenders, f"sold items reappeared: {offenders[:5]}"
        assert saw_sellout, "fixture never sold anything out; test is vacuous"

    def test_purchase_zero_catalog_never_shrinks(self):
        cfg = GeneratorConfig(n_users=30, n_items=150, days=3,
                              purchase_given_click=0.0, new_items_per_day=10,
                              mean_impressions_per_user_day=6.0)
        market = build_market(cfg, seed=1)
        before = len(market.live)
        simulate(market, cfg.days)
        assert len(market.live) == before + cfg.days * cfg.new_items_per_day

    def test_click_rate_within_3_sigma(self):
        # law of large numbers: observed clicks vs the binomial implied by
        # the generated true_ctr values themselves, overall and per stratum
        cfg = GeneratorConfig(n_users=1000, n_items=6000, days=7,
                              new_items_per_day=200,
                              mean_impressions_per_user_day=14.4)
        market = build_market(cfg, seed=11)
        res = simulate(market, cfg.days)
        p = np.array([r.true_ctr for r in res.records])
        y = np.array([r.label for r in res.records], dtype=float)
        limited = np.array([r.item_is_limited for r in res.records])
        new = np.array([r.item_is_new for r in res.records])
        assert p.size >= 100_000
        for sel in (np.ones_like(limited), limited, ~limited, new):
            ps, ys = p[sel], y[sel]
            std = math.sqrt(float((ps * (1 - ps)).sum())) / ps.size
            assert abs(ys.mean() - ps.mean()) < 3.0 * std

    def test_histories_replay_exactly(self):
        # reconstruct each user's click stack while scanning in order; the
        # recorded history must equal the truncated stack at that moment
        market = build_market(SMALL, seed=9)
        res = simulate(market, SMALL.days)
        stacks: dict[int, list] = {}
        for r in res.records:
            stack = stacks.setdefault(r.user_id, [])
            assert r.history == tuple(stack[:SMALL.history_max])
            assert len(r.history) <= SMALL.history_max
            if r.label:
                item = market.items[r.item_id]
                stack.insert(0, (r.item_id, item.category_id,
                                 item.is_limited))

    def test_limited_items_get_fewer_impressions(self):
        market = build_market(SMALL, seed=21)
        res = simulate(market, SMALL.days)
        counts: dict[int, int] = {}
        for r in res.records:
            counts[r.item_id] = counts.get(r.item_id, 0) + 1
        lim = [counts[i] for i, s in market.items.items()
               if s.is_limited and i in counts]
        multi = [counts[i] for i, s in market.items.items()
                 if not s.is_limited and i in counts]
        assert np.mean(lim) < np.mean(multi)

    def test_deterministic_in_seed(self):
        runs = []
        for _ in range(2):
            market = build_market(SMALL, seed=77)
            runs.append(simulate(market, SMALL.days).records)
        assert list(runs[0]) == list(runs[1])

    def test_split_by_day(self):
        market = build_market(SMALL, seed=2)
        res = simulate(market, SMALL.days)
        train, test = split_train_test(res.records, SMALL.days)
        assert all(r.day < SMALL.days for r in train)
        assert all(r.day == SMALL.days for r in test)
        assert len(train) + len(test) == len(res.records)


class TestDatasetFiles:
    def _records(self, n=1000):
        market = build_market(SMALL, seed=4)
        return simulate(market, SMALL.days).records[:n]

    def test_round_trip_identity(self, tmp_path):
        records = self._records(1000)
        path = tmp_path / "data.tsv"
        write_dataset(records, path)
        assert list(read_dataset(path)) == list(records)

    def test_empty_dataset_is_header_only(self, tmp_path):
        path = tmp_path / "empty.tsv"
        write_dataset([], path)
        assert path.read_text() == DATASET_HEADER + "\n"
        assert list(read_dataset(path)) == []

    def test_wrong_field_count_names_line(self, tmp_path):
        records = self._records(30)
        path = tmp_path / "bad.tsv"
        write_dataset(records, path)
        lines = path.read_text().splitlines()
        lines[16] = "1\t2\t3"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="line 17"):
            read_dataset(path)

    def test_repeated_bad_history_names_first_line(self, tmp_path):
        # the history text is parsed once per distinct value: the check
        # still fires where the text first appears
        records = self._records(30)
        path = tmp_path / "bad.tsv"
        write_dataset(records, path)
        lines = path.read_text().splitlines()
        for lineno in (5, 9):
            fields = lines[lineno - 1].split("\t")
            fields[-1] = "3:1:0,7:2"
            lines[lineno - 1] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match=r"^line 5: "):
            read_dataset(path)

    def test_equal_histories_share_one_tuple(self, tmp_path):
        records = self._records(1000)
        path = tmp_path / "data.tsv"
        write_dataset(records, path)
        first: dict = {}
        for r in read_dataset(path):
            assert first.setdefault(r.history, r.history) is r.history
        assert len(first) < len(records) // 2, "too few repeats to test"

    def test_missing_file_clear_error(self, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            read_dataset(tmp_path / "nope.tsv")

    def test_byte_identical_output_for_same_seed(self, tmp_path):
        paths = []
        for i in range(2):
            market = build_market(SMALL, seed=42)
            res = simulate(market, SMALL.days)
            p = tmp_path / f"d{i}.tsv"
            write_dataset(res.records, p)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_catalog_round_trip(self, tmp_path):
        market = build_market(SMALL, seed=4)
        simulate(market, 2)
        path = tmp_path / "items.tsv"
        write_catalog(market.items, path)
        loaded = read_catalog(path)
        assert loaded == market.items

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_arbitrary_records(self, tmp_path_factory, data):
        # adversarial field values: huge ids, extreme probabilities, long
        # histories; the text format must reproduce them exactly
        ids = st.integers(0, 2 ** 40)
        triple = st.tuples(ids, st.integers(0, 10 ** 6), st.booleans())
        record = st.builds(
            ImpressionRecord,
            day=st.integers(1, 10 ** 6),
            user_id=ids,
            item_id=ids,
            label=st.integers(0, 1),
            true_ctr=st.floats(min_value=1e-300, max_value=1.0,
                               exclude_max=True, allow_nan=False),
            item_is_limited=st.booleans(),
            item_is_new=st.booleans(),
            history=st.lists(triple, max_size=25).map(tuple))
        records = data.draw(st.lists(record, max_size=20))
        path = tmp_path_factory.mktemp("rt") / "data.tsv"
        write_dataset(records, path)
        assert list(read_dataset(path)) == records


# ----------------------------------------------------------------------
# Oracles: the per-record writer and the per-line reader of the list-based
# data path, which the columnar ones must match byte for byte and message
# for message.


def loop_write_dataset(records, path):
    """One formatted line per record."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(DATASET_HEADER + "\n")
        for r in records:
            hist = ",".join(f"{i}:{c}:{int(l)}" for i, c, l in r.history)
            fh.write(f"{r.day}\t{r.user_id}\t{r.item_id}\t{r.label}\t"
                     f"{r.true_ctr!r}\t{int(r.item_is_limited)}\t"
                     f"{int(r.item_is_new)}\t{hist}\n")


def _loop_int64_id(text):
    value = int(text)
    if not INT64_MIN <= value <= INT64_MAX:
        raise ValueError(f"id {value} outside int64")
    return value


def _loop_parse_history(text):
    history = []
    if text:
        for triple in text.split(","):
            i, c, l = triple.split(":")
            history.append((_loop_int64_id(i), _loop_int64_id(c),
                            bool(int(l))))
    return tuple(history)


def loop_read_dataset(path):
    """One parsed record per line, checked field by field; equal history
    texts share one tuple."""
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"dataset file not found: {path}")
    records = []
    histories = {}
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != DATASET_HEADER:
            raise DatasetError(
                f"{path}: unrecognized header (expected {DATASET_HEADER!r})")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != len(DATASET_FIELDS):
                raise DatasetError(
                    f"line {lineno}: expected {len(DATASET_FIELDS)} fields, "
                    f"got {len(parts)}")
            try:
                day = int(parts[0])
                user_id = _loop_int64_id(parts[1])
                item_id = _loop_int64_id(parts[2])
                label = int(parts[3])
                ctr = float(parts[4])
                limited = bool(int(parts[5]))
                new = bool(int(parts[6]))
                history = histories.get(parts[7])
                if history is None:
                    history = histories[parts[7]] = \
                        _loop_parse_history(parts[7])
            except (ValueError, IndexError) as exc:
                raise DatasetError(f"line {lineno}: {exc}") from exc
            if label not in (0, 1):
                raise DatasetError(f"line {lineno}: label must be 0 or 1")
            if not (0.0 < ctr < 1.0):
                raise DatasetError(f"line {lineno}: true_ctr out of (0, 1)")
            records.append(ImpressionRecord(
                day=day, user_id=user_id, item_id=item_id, label=label,
                true_ctr=ctr, item_is_limited=limited, item_is_new=new,
                history=history))
    return records


EDGE_IDS = st.sampled_from([0, 1, -1, INT64_MAX, INT64_MIN + 1, INT64_MIN,
                            2 ** 40])
IDS64 = st.one_of(st.integers(0, 30), EDGE_IDS,
                  st.integers(INT64_MIN, INT64_MAX))
CTRS = st.one_of(
    st.sampled_from([5e-324, 1e-300, 0.5, 1.0 - 2 ** -53, 0.9999999999999999,
                     math.nextafter(0.0, 1.0)]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
              exclude_max=True))
ENTRY = st.tuples(IDS64, IDS64, st.booleans())
HISTORIES = st.lists(ENTRY, max_size=6).map(tuple)


@st.composite
def record_lists(draw, max_size=12):
    """Records whose histories come from a small pool (some empty), as in a
    simulated log."""
    pool = draw(st.lists(HISTORIES, min_size=1, max_size=4))
    return [ImpressionRecord(
        day=draw(st.integers(INT64_MIN, INT64_MAX)), user_id=draw(IDS64),
        item_id=draw(IDS64), label=draw(st.integers(0, 1)),
        true_ctr=draw(CTRS), item_is_limited=draw(st.booleans()),
        item_is_new=draw(st.booleans()),
        history=draw(st.sampled_from(pool)))
        for _ in range(draw(st.integers(0, max_size)))]


# replacement texts for one field of a line: malformed numbers, out of
# range values, broken histories, and forms only int() and float() read
EDGE_FIELDS = [
    "", " ", "x", "1.0", "1e3", "nan", "inf", "-1", "2", "0", "1", "0.25",
    "1.5", "-0.0", "0x1f", "1_0", " 7 ", "+3", "\u0663", "\x1c5", "5\x1f",
    "\u0660.5", str(2 ** 63), str(-2 ** 63 - 1), str(2 ** 64),
    str(INT64_MAX), "1:2", "1::3", "1:2:3:4", "1:2:3,", ",1:2:3",
    "1:2:3,,4:5:6", "a:b:c", f"{2 ** 63}:1:0", f"1:{-2 ** 63 - 1}:0",
    "1:2:7", "1:2: 1", "1:2:3\t4", "\u0661:2:0", "1:\x1d2:0", "1:2:3,4:5"]
BAD_FIELDS = st.one_of(
    st.sampled_from(EDGE_FIELDS),
    st.text(alphabet="0123456789:,-+. _e\t\x1c\u0663", max_size=12))


def assert_reads_as_loop(path):
    """``read_dataset`` gives the loop reader's rows or its exact error."""
    try:
        want = loop_read_dataset(path)
    except DatasetError as exc:
        with pytest.raises(DatasetError) as got:
            read_dataset(path)
        assert str(got.value) == str(exc)
        return
    if any(not INT64_MIN <= r.day <= INT64_MAX for r in want):
        # the one refusal the loop reader lacks: a day column is int64
        with pytest.raises(DatasetError,
                           match=r"^line \d+: day -?\d+ outside int64$"):
            read_dataset(path)
        return
    assert list(read_dataset(path)) == want


class TestColumnarDataPath:
    @given(record_lists())
    @settings(max_examples=150, deadline=None)
    def test_write_read_matches_loops(self, tmp_path_factory, records):
        root = tmp_path_factory.mktemp("rt")
        table = ImpressionTable.from_records(records)
        write_dataset(table, root / "table.tsv")
        write_dataset(records, root / "list.tsv")
        loop_write_dataset(records, root / "loop.tsv")
        want = (root / "loop.tsv").read_bytes()
        assert (root / "table.tsv").read_bytes() == want
        assert (root / "list.tsv").read_bytes() == want
        got = read_dataset(root / "table.tsv")
        assert isinstance(got, ImpressionTable)
        assert list(got) == loop_read_dataset(root / "table.tsv") == records

    @given(record_lists(max_size=8).filter(bool), st.data())
    @settings(max_examples=300, deadline=None)
    def test_corrupted_line_gives_the_loop_message(self, tmp_path_factory,
                                                   records, data):
        path = tmp_path_factory.mktemp("bad") / "data.tsv"
        loop_write_dataset(records, path)
        lines = path.read_text().split("\n")
        row = data.draw(st.integers(1, len(records)))
        fields = lines[row].split("\t")
        how = data.draw(st.sampled_from(["replace", "drop", "add"]))
        if how == "replace":
            fields[data.draw(st.integers(0, 7))] = data.draw(BAD_FIELDS)
        elif how == "drop":
            del fields[data.draw(st.integers(0, 7))]
        else:
            fields.insert(data.draw(st.integers(0, 8)), data.draw(BAD_FIELDS))
        lines[row] = "\t".join(fields)
        path.write_text("\n".join(lines))
        assert_reads_as_loop(path)

    def test_every_edge_value_in_every_field(self, tmp_path):
        # each edge text in each field of the third of four lines, two of
        # which share its history text
        h = ((4, 1, True), (2, 0, False))
        records = [ImpressionRecord(1, u, 9, u % 2, 0.5, False, True, hist)
                   for u, hist in enumerate([(), h, h, h])]
        path = tmp_path / "data.tsv"
        loop_write_dataset(records, path)
        lines = path.read_text().split("\n")
        for field in range(len(DATASET_FIELDS)):
            for value in EDGE_FIELDS:
                edited = list(lines)
                parts = edited[3].split("\t")
                parts[field] = value
                edited[3] = "\t".join(parts)
                path.write_text("\n".join(edited))
                assert_reads_as_loop(path)

    def test_simulated_table_and_slices_write_loop_bytes(self, tmp_path):
        table = simulate(build_market(SMALL, seed=8), SMALL.days).records
        mask = np.arange(len(table)) % 3 == 1
        for i, part in enumerate((table, table[mask], table[5:40],
                                  table[:0])):
            got, want = tmp_path / f"got{i}.tsv", tmp_path / f"want{i}.tsv"
            write_dataset(part, got)
            loop_write_dataset(list(part), want)
            assert got.read_bytes() == want.read_bytes()

    def test_table_indexing_and_concatenation(self):
        records = simulate(build_market(SMALL, seed=6), SMALL.days).records
        rows = list(records)
        assert records[3] == rows[3] and records[-1] == rows[-1]
        head, tail = records[:100], records[100:]
        assert head.hist_offsets is records.hist_offsets
        assert list(head + tail) == rows
        # tables with their own stores: the second store's indices shift
        other = ImpressionTable.from_records(rows[100:])
        joined = head + other
        assert list(joined) == rows
        assert len(joined.hist_offsets) == \
            len(head.hist_offsets) + len(other.hist_offsets) - 1
        picked = records[records.label == 1]
        assert list(picked) == [r for r in rows if r.label]
        assert records[np.int64(7)] == rows[7]

    def test_from_records_stores_equal_histories_once(self):
        h = ((5, 1, True), (6, 2, False))
        records = [ImpressionRecord(1, u, 9, 0, 0.5, False, True, hist)
                   for u, hist in enumerate([h, (), tuple(list(h)), (), h])]
        table = ImpressionTable.from_records(records)
        assert table.history.tolist() == [0, 1, 0, 1, 0]
        assert table.hist_offsets.tolist() == [0, 2, 2]
        assert table.hist_item.tolist() == [5, 6]
        assert table.hist_limited.tolist() == [True, False]
        assert list(table) == records
        shared = [r.history for r in table]
        assert shared[0] is shared[2] is shared[4]
