"""Market simulator tests: boundaries, determinism, ground-truth click
statistics, and the dataset file round trip."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msnetlab.datagen import (
    DATASET_HEADER,
    DatasetError,
    GeneratorConfig,
    ImpressionRecord,
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
        assert runs[0] == runs[1]

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
        assert read_dataset(path) == records

    def test_empty_dataset_is_header_only(self, tmp_path):
        path = tmp_path / "empty.tsv"
        write_dataset([], path)
        assert path.read_text() == DATASET_HEADER + "\n"
        assert read_dataset(path) == []

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
        assert read_dataset(path) == records
