"""Market simulator tests: boundaries, determinism, ground-truth click
statistics, and the dataset file round trip."""

import dataclasses
import functools
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msnetlab import datagen
from msnetlab.datagen import (
    CATALOG_FIELDS,
    DATASET_FIELDS,
    DATASET_HEADER,
    INT64_MAX,
    INT64_MIN,
    Catalog,
    DatasetError,
    GeneratorConfig,
    ImpressionRecord,
    ImpressionTable,
    ItemSpec,
    UserSpec,
    _category_cdf,
    _Draws,
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
from msnetlab.metrics import (
    PREDICTION_HEADER,
    MetricsError,
    PredictionRecord,
    read_predictions,
    write_predictions,
)
from table_rows import table_of

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
            write_catalog(
                Catalog.from_items(build_market(SMALL, seed=seed).items), path)
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


# PCG64 as numpy steps it: each word is the XSL-RR output of the state
# after one step ``state * PCG_MULT + inc`` (mod 2**128)
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def pcg64_state_before(word: int, inc: int, high: int) -> dict:
    """A PCG64 state whose next raw word is ``word``: the stepped state
    has high half ``high``, whose top six bits give the rotation, and a
    low half that makes the output ``word``."""
    mask = 2 ** 64 - 1
    rot = high >> 58
    low = high ^ (((word << rot) | (word >> (64 - rot))) & mask)
    stepped = (high << 64) | low
    state = (stepped - inc) * pow(PCG_MULT, -1, 2 ** 128) % 2 ** 128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


# ranges numpy decodes through 32-bit draws: small ones, and large ones
# where Lemire's method rejects often
RANGES = [1, 2, 3, 7, 100, 1234, 2 ** 31 - 1, 2 ** 31 + 5, 3 * 10 ** 9,
          2 ** 32 - 1]
DRAW_CALLS = st.one_of(
    st.just(("random",)),
    st.just(("uniform", -1.0, 1.0)),
    st.tuples(st.just("integers"),
              st.one_of(st.sampled_from(RANGES), st.integers(1, 2 ** 32 - 1))),
    st.tuples(st.just("integers"), st.integers(-2 ** 40, 2 ** 40),
              st.sampled_from(RANGES)).map(
        lambda c: (c[0], c[1], c[1] + c[2])))


class TestDraws:
    """``_Draws`` against numpy's own ``Generator`` as the oracle: equal
    values call for call, and equal bit-generator state after close."""

    @given(seed=st.integers(0, 2 ** 64 - 1), stored_half=st.booleans(),
           block=st.sampled_from([1, 2, 3, 1 << 14]),
           calls=st.lists(DRAW_CALLS, max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_draws_and_state_match_generator(self, seed, stored_half, block,
                                             calls):
        want = np.random.default_rng(seed)
        got_rng = np.random.default_rng(seed)
        if stored_half:  # one 32-bit draw leaves a half stored
            want.integers(5)
            got_rng.integers(5)
            assert want.bit_generator.state["has_uint32"] == 1
        with mock.patch.object(datagen, "_WORD_BLOCK", block):
            draws = _Draws(got_rng)
            for name, *args in calls:
                got = getattr(draws, name)(*args)
                assert got == getattr(want, name)(*args), (name, args)
            draws.close()
        assert got_rng.bit_generator.state == want.bit_generator.state

    @pytest.mark.parametrize("n", RANGES[1:])
    def test_rejection_boundary(self, n):
        # a first 32-bit draw whose low product bits sit at the rejection
        # threshold and one below it: one is kept, the other redrawn
        threshold = 2 ** 32 % n
        twos = (n & -n).bit_length() - 1
        # a product of n has ``twos`` low zero bits
        leftovers = [v for v in sorted({threshold, max(threshold - 1, 0)})
                     if v % 2 ** twos == 0]
        assert leftovers
        for leftover in leftovers:
            odd = n >> twos
            u = (leftover >> twos) * pow(odd, -1, 2 ** (32 - twos)) \
                % 2 ** (32 - twos)
            assert u * n % 2 ** 32 == leftover
            # the word's high half, the state's and inc are arbitrary
            state = pcg64_state_before((0x9E3779B9 << 32) | u,
                                       inc=2 * 12345 + 1,
                                       high=0xC2B2AE3D27D4EB4F ^ n)
            want = np.random.Generator(np.random.PCG64())
            want.bit_generator.state = state
            got_rng = np.random.Generator(np.random.PCG64())
            got_rng.bit_generator.state = state
            draws = _Draws(got_rng)
            assert draws.integers(n) == want.integers(n)
            assert draws.random() == want.random()
            draws.close()
            assert got_rng.bit_generator.state == want.bit_generator.state

    def test_ranges_past_32_bits_refused(self):
        draws = _Draws(np.random.default_rng(0))
        for args in ((2 ** 32,), (0,), (5, 3), (-1, 2 ** 32 - 1)):
            with pytest.raises(ValueError, match="range"):
                draws.integers(*args)


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

    def test_ctr_is_the_oracle_bit_for_bit(self):
        # simulate computes the logit from per-user and per-item terms;
        # true_ctr computes it whole, through autodiff.sigmoid
        cfg = GeneratorConfig(n_users=30, n_items=200, n_categories=5,
                              days=2, new_items_per_day=10, ctr_bias=-0.3,
                              mean_impressions_per_user_day=10.0)
        market = build_market(cfg, seed=4)
        records = simulate(market, cfg.days).records
        users = {u.user_id: u for u in market.users}
        want = [true_ctr(users[u], market.items[i], cfg) for u, i in
                zip(records.user_id.tolist(), records.item_id.tolist())]
        assert records.true_ctr.tolist() == want
        # both sigmoid branches ran
        assert (records.true_ctr < 0.5).any()
        assert (records.true_ctr > 0.5).any()

    def test_day_by_day_continues_the_stream(self):
        # close() hands the stream on: one day at a time gives the rows and
        # the final generator state of one run over all the days
        whole = build_market(SMALL, seed=9)
        rows = list(simulate(whole, SMALL.days).records)
        daily = build_market(SMALL, seed=9)
        parts = [list(simulate(daily, 1).records) for _ in range(SMALL.days)]
        assert sum(parts, []) == rows
        assert daily.rng.bit_generator.state == whole.rng.bit_generator.state

    # the generator state simulate leaves, as taken when every draw was a
    # Generator call: (state, inc, has_uint32, uinteger)
    PINNED_STATES = {
        5: (316369249174298282799150698133310367919,
            233193750087604940414945475171846202189, 0, 3342694038),
        9: (17209782595391185713204732807631463814,
            47650611409575876553999889140290214363, 1, 312072295),
    }

    @pytest.mark.parametrize("seed", sorted(PINNED_STATES))
    def test_generator_state_after_simulate_pinned(self, seed):
        market = build_market(SMALL, seed=seed)
        simulate(market, SMALL.days)
        state = market.rng.bit_generator.state
        assert (state["state"]["state"], state["state"]["inc"],
                state["has_uint32"], state["uinteger"]) == \
            self.PINNED_STATES[seed]

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
        write_dataset(self._records()[:0], path)
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
        write_catalog(Catalog.from_items(market.items), path)
        loaded = read_catalog(path)
        assert catalog_rows(loaded) == [
            dataclasses.astuple(market.items[k]) for k in sorted(market.items)]

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
        write_dataset(table_of(records), path)
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


# besides non-ASCII text, what the files' number grammar refuses in a field
_LOOP_NOT_NUMBER_TEXT = "_\x1c\x1d\x1e\x1f"


def _loop_number(text, kind=int):
    """``kind(text)`` under the strict grammar: ASCII text, no underscore
    or separator 0x1c-0x1f, and an integer inside int64."""
    if not text.isascii() or any(c in text for c in _LOOP_NOT_NUMBER_TEXT):
        raise ValueError(f"{text!r} is not ASCII number text")
    value = kind(text)
    if kind is int and not INT64_MIN <= value <= INT64_MAX:
        raise ValueError(f"{value} outside int64")
    return value


def _loop_parse_history(text):
    history = []
    if text:
        for triple in text.split(","):
            i, c, l = triple.split(":")
            flag = _loop_number(l)
            if flag not in (0, 1):
                raise ValueError(f"history flag {flag} is not 0 or 1")
            history.append((_loop_number(i), _loop_number(c), bool(flag)))
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
            raise DatasetError(f"{path}: unrecognized dataset header "
                               f"(expected {DATASET_HEADER!r})")
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
                day, user_id, item_id, label = map(_loop_number, parts[:4])
                ctr = _loop_number(parts[4], float)
                limited, new = map(_loop_number, parts[5:7])
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
            for name, flag in (("item_is_limited", limited),
                               ("item_is_new", new)):
                if flag not in (0, 1):
                    raise DatasetError(f"line {lineno}: {name} must be 0 or 1")
            records.append(ImpressionRecord(
                day=day, user_id=user_id, item_id=item_id, label=label,
                true_ctr=ctr, item_is_limited=bool(limited),
                item_is_new=bool(new), history=history))
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


# refusals both readers word alike; any other names only its line alike
EXACT_REFUSAL = re.compile(
    r"^line \d+: (expected \d+ fields, got \d+|label must be 0 or 1"
    r"|true_ctr out of \(0, 1\)|item_is_(limited|new) must be 0 or 1)$")


def assert_reads_as_loop(path):
    """``read_dataset`` gives the loop reader's rows, or refuses the line
    it refuses: word for word for a field count, label, true_ctr or flag,
    and for a whole-file refusal."""
    try:
        want = loop_read_dataset(path)
    except DatasetError as exc:
        with pytest.raises(DatasetError) as got:
            read_dataset(path)
        got, want = str(got.value), str(exc)
        if (EXACT_REFUSAL.match(got) or EXACT_REFUSAL.match(want)
                or not want.startswith("line ")):
            assert got == want
        else:
            assert got.partition(": ")[0] == want.partition(": ")[0]
            # no numpy row count, such as one within the history entries
            assert not re.search(r"\brow \d", got)
        return
    assert list(read_dataset(path)) == want


class TestColumnarDataPath:
    @given(record_lists())
    @settings(max_examples=150, deadline=None)
    def test_write_read_matches_loops(self, tmp_path_factory, records):
        root = tmp_path_factory.mktemp("rt")
        write_dataset(table_of(records), root / "table.tsv")
        loop_write_dataset(records, root / "loop.tsv")
        assert (root / "table.tsv").read_bytes() == \
            (root / "loop.tsv").read_bytes()
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
        assert list(records[3:4]) == rows[3:4]
        assert list(records[-1:]) == rows[-1:]
        head, tail = records[:100], records[100:]
        assert head.hist_offsets is records.hist_offsets
        assert list(head + tail) == rows
        # tables with their own stores: the second store's indices shift
        other = table_of(rows[100:])
        joined = head + other
        assert list(joined) == rows
        assert len(joined.hist_offsets) == \
            len(head.hist_offsets) + len(other.hist_offsets) - 1
        picked = records[records.label == 1]
        assert list(picked) == [r for r in rows if r.label]
        assert list(records[np.array([7, 2])]) == [rows[7], rows[2]]
        with pytest.raises(TypeError, match="slice, a mask or an array"):
            records[np.int64(7)]

    def test_row_builder_stores_equal_histories_once(self):
        h = ((5, 1, True), (6, 2, False))
        records = [ImpressionRecord(1, u, 9, 0, 0.5, False, True, hist)
                   for u, hist in enumerate([h, (), tuple(list(h)), (), h])]
        table = table_of(records)
        assert table.history.tolist() == [0, 1, 0, 1, 0]
        assert table.hist_offsets.tolist() == [0, 2, 2]
        assert table.hist_item.tolist() == [5, 6]
        assert table.hist_limited.tolist() == [True, False]
        assert list(table) == records
        shared = [r.history for r in table]
        assert shared[0] is shared[2] is shared[4]


# ----------------------------------------------------------------------
# One reader for dataset, catalog and prediction files: one preamble, one
# ASCII number grammar, one bisection that names the first refused line.


def loop_read_catalog(path):
    """The catalog per line with int() and float(), as a dict in file
    order; the oracle for the values and types ``read_catalog`` gives."""
    items = {}
    lines = Path(path).read_text(encoding="utf-8").split("\n")[1:]
    for line in filter(None, lines):
        i, c, s, q, d = line.split("\t")
        items[int(i)] = ItemSpec(int(i), int(c), int(s), float(q), int(d))
    return items


def catalog_rows(catalog):
    """The rows of ``catalog``, as tuples of Python ints and floats."""
    return list(zip(*(getattr(catalog, f).tolist() for f in CATALOG_FIELDS)))


def _edit_line(path, lineno, field, value):
    lines = path.read_text(encoding="utf-8").split("\n")
    parts = lines[lineno - 1].split("\t")
    parts[field] = value
    lines[lineno - 1] = "\t".join(parts)
    path.write_text("\n".join(lines), encoding="utf-8")


def _prediction_records(n):
    return [PredictionRecord(user_id=u, item_id=100 + u, p=(u + 1) / (n + 2),
                             y=u % 2, is_new=u % 3 == 0,
                             is_limited=u % 2 == 1, partition_id=u % 10)
            for u in range(n)]


# texts outside the grammar: underscores, non-ASCII digits and blanks, and
# the separators numpy skips
OFF_GRAMMAR = ["1_0", "\u0663", "1\u0663", "\x1c1", "1\x1f", "\u00a01"]


class TestOneReader:
    def _dataset(self, tmp_path, n=6):
        path = tmp_path / "data.tsv"
        write_dataset(simulate(build_market(SMALL, seed=4),
                               SMALL.days).records[:n], path)
        return path

    @pytest.mark.parametrize("text", OFF_GRAMMAR)
    def test_number_grammar_is_one_for_every_format(self, tmp_path, text):
        path = self._dataset(tmp_path)
        _edit_line(path, 4, 2, text)
        with pytest.raises(DatasetError, match=r"^line 4: "):
            read_dataset(path)
        catalog = tmp_path / "items.tsv"
        write_catalog(Catalog.from_items(build_market(SMALL, seed=4).items),
                      catalog)
        _edit_line(catalog, 5, 2, text)
        with pytest.raises(DatasetError, match=r"^line 5: "):
            read_catalog(catalog)
        predictions = tmp_path / "p.tsv"
        write_predictions(_prediction_records(5), predictions,
                          meta={"arch": "din"})
        _edit_line(predictions, 4, 6, text)
        with pytest.raises(MetricsError, match=r"^line 4: "):
            read_predictions(predictions)

    def test_refusals_name_the_line_and_say_why(self, tmp_path):
        path = self._dataset(tmp_path)
        good = path.read_text()
        for field, value, why in [
                (5, "7", "item_is_limited must be 0 or 1"),
                (6, "2", "item_is_new must be 0 or 1"),
                (3, "2", "label must be 0 or 1"),
                (4, "1.0", "true_ctr out of (0, 1)"),
                (7, "3:1:7", datagen._BAD_HISTORY),
                (7, "3:1:0,x:2:0", datagen._BAD_HISTORY),
                (7, f"3:{2 ** 63}:0", datagen._BAD_HISTORY),
                (1, "\x1c5", r"character '\x1c' is not in the ASCII number "
                             r"grammar"),
                (2, str(2 ** 63), f"could not convert string '{2 ** 63}' "
                                  f"to int64 at column 3."),
                (0, "1_0", "could not convert string '1_0' to int64 at "
                           "column 1.")]:
            path.write_text(good)
            _edit_line(path, 3, field, value)
            with pytest.raises(DatasetError) as got:
                read_dataset(path)
            assert str(got.value) == f"line 3: {why}"

    def test_catalog_values_and_types_as_per_line(self, tmp_path):
        market = build_market(SMALL, seed=4)
        simulate(market, 2)
        path = tmp_path / "items.tsv"
        write_catalog(Catalog.from_items(market.items), path)
        # a repeated id, out of id order, takes its last line's values
        with path.open("a") as fh:
            fh.write("3\t1\t5\t0.25\t-2\n")
        got, want = read_catalog(path), loop_read_catalog(path)
        rows = catalog_rows(got)
        assert rows == [dataclasses.astuple(want[k]) for k in sorted(want)]
        assert rows[got.item_id.tolist().index(3)] == (3, 1, 5, 0.25, -2)
        assert all(type(v) is type(w) for row, k in zip(rows, sorted(want))
                   for v, w in zip(row, dataclasses.astuple(want[k])))

    @pytest.mark.parametrize("field", [2, 4])
    def test_catalog_stock_and_created_day_inside_int64(self, tmp_path,
                                                        field):
        path = tmp_path / "items.tsv"
        write_catalog(Catalog.from_items(build_market(SMALL, seed=4).items),
                      path)
        _edit_line(path, 3, field, str(-2 ** 63 - 1))
        with pytest.raises(DatasetError, match=r"^line 3: could not convert "
                           rf"string '-{2 ** 63 + 1}' to int64 at column "
                           rf"{field + 1}\.$"):
            read_catalog(path)

    def test_catalog_field_count(self, tmp_path):
        path = tmp_path / "items.tsv"
        write_catalog(Catalog.from_items(build_market(SMALL, seed=4).items),
                      path)
        _edit_line(path, 7, 4, "1\t2")
        with pytest.raises(DatasetError) as got:
            read_catalog(path)
        assert str(got.value) == "line 7: expected 5 fields, got 6"

    def test_one_preamble(self, tmp_path):
        for read, header, what, error in [
                (read_dataset, DATASET_HEADER, "dataset", DatasetError),
                (read_catalog, datagen.CATALOG_HEADER, "catalog",
                 DatasetError),
                (read_predictions, PREDICTION_HEADER, "prediction",
                 MetricsError)]:
            path = tmp_path / f"{what}.tsv"
            with pytest.raises(error) as got:
                read(path)
            assert str(got.value) == f"{what} file not found: {path}"
            path.write_bytes(header.encode() + b"\n\xff\n")
            with pytest.raises(error, match=r": not UTF-8 text \("):
                read(path)
            path.write_text("#v0\n")
            with pytest.raises(error) as got:
                read(path)
            assert str(got.value) == (f"{path}: unrecognized {what} header "
                                      f"(expected {header!r})")


# one edit of a byte mutation: the bytes it inserts or writes over
EDIT_TOKENS = [bytes([b]) for b in b"0123456789\t\n:,-+._#\x1c\xff"] \
    + ["\u0663".encode()]


@st.composite
def byte_mutations(draw, data: bytes) -> bytes:
    """``data`` after 1-3 edits, each a replace, insert or delete of one
    byte (U+0663 is the two bytes of its UTF-8 form).  Half the examples
    edit only past the header line."""
    start = data.index(b"\n") + 1 if draw(st.booleans()) else 0
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["replace", "insert", "delete"]))
        if len(data) == start and how != "insert":
            continue
        at = draw(st.sampled_from(range(start,
                                        len(data) + (how == "insert"))))
        token = draw(st.sampled_from(EDIT_TOKENS))
        if how == "insert":
            data = data[:at] + token + data[at:]
        else:
            data = data[:at] + (token if how == "replace" else b"") \
                + data[at + 1:]
    return data


@functools.cache
def _small_log():
    market = build_market(SMALL, seed=4)
    return market, simulate(market, SMALL.days).records


def _valid_files(root):
    """A small valid file of each format, with its reader and error."""
    market, records = _small_log()
    # a few rows with histories, one without
    rows = records[np.flatnonzero(np.diff(records.hist_offsets)
                                  [records.history] > 0)[:5]] + records[:1]
    write_dataset(rows, root / "data.tsv")
    write_catalog(Catalog.from_items({k: market.items[k] for k in range(6)}),
                  root / "items.tsv")
    write_predictions(_prediction_records(6), root / "p.tsv",
                      meta={"arch": "din", "dataset_hash": "ab12"})
    return [(root / "data.tsv", read_dataset, DatasetError),
            (root / "items.tsv", read_catalog, DatasetError),
            (root / "p.tsv", read_predictions, MetricsError)]


class TestReaderFuzz:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_file_reads_or_names_a_line(self, tmp_path_factory,
                                                data):
        """A mutated file reads, or raises only its format's error.  A
        refused body always names a line: the bisection never ends on a
        line that parses alone but not in its body (that case would raise
        the body's own message).  The named line exists, and every line
        before it reads alone."""
        root = tmp_path_factory.mktemp("fuzz")
        path, read, error = data.draw(st.sampled_from(_valid_files(root)))
        path.write_bytes(data.draw(byte_mutations(path.read_bytes())))
        try:
            read(path)
            return
        except error as exc:
            why = str(exc)
        if why.startswith(f"{path}: "):
            return  # not UTF-8 or not the header: the preamble's refusal
        named = re.match(r"^line (\d+): ", why)
        assert named, why
        lines = path.read_text(encoding="utf-8").split("\n")
        n = int(named[1])
        assert 2 <= n <= len(lines)
        alone = path.with_name("alone" + path.suffix)
        for lineno in range(2, n + 1):
            alone.write_text(f"{lines[0]}\n{lines[lineno - 1]}\n",
                             encoding="utf-8")
            if lineno < n:
                read(alone)
        with pytest.raises(error) as again:
            read(alone)
        assert str(again.value) == "line 2: " + why.partition(": ")[2]
