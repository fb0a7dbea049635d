"""Vocabulary, encoding, and embedding-lookup tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msnetlab.autodiff import ParamStore, SparseRows, Tape
from msnetlab.datagen import (
    Catalog,
    ImpressionRecord,
    ItemSpec,
    read_dataset,
    write_dataset,
)
from msnetlab.features import (
    OOV_INDEX,
    Vocab,
    Vocabs,
    add_embedding_tables,
    build_vocab,
    encode_batch,
    init_embedding,
)
from helpers import batch_grids, embed, grid_batch, lookup
from table_rows import table_of


def make_record(item_id, history=(), label=1, day=1, user_id=0,
                limited=False, new=False):
    return ImpressionRecord(day=day, user_id=user_id, item_id=item_id,
                            label=label, true_ctr=0.5,
                            item_is_limited=limited, item_is_new=new,
                            history=tuple(history))


def make_catalog(*specs):
    return Catalog.from_items({s.item_id: s for s in specs})


def item_spec(item_id, cat=0, stock=1):
    return ItemSpec(item_id=item_id, category_id=cat, stock_count=stock,
                    quality=0.0, created_day=0)


class TestVocab:
    def test_first_seen_order(self):
        v = Vocab([7, 9, 7])
        assert lookup(v, 7) == 1
        assert lookup(v, 9) == 2
        assert len(v) == 2

    def test_unseen_maps_to_oov(self):
        v = Vocab([7, 9])
        assert lookup(v, 42) == OOV_INDEX

    def test_index_zero_never_assigned(self):
        v = Vocab(range(100))
        assert OOV_INDEX not in {lookup(v, i) for i in range(100)}
        assert v.size == 101

    def test_train_only_vocab_cold_start(self):
        # ids appearing only in the test split map to row 0
        catalog = make_catalog(item_spec(1, cat=3), item_spec(2, cat=5),
                               item_spec(99, cat=3))
        train = table_of([make_record(1),
                          make_record(2, history=[(1, 3, False)])])
        vocabs = build_vocab(train, catalog)
        test_only = table_of([make_record(99)])
        batch = encode_batch(test_only, vocabs, catalog, history_len=4)
        assert batch.target_item[0] == OOV_INDEX
        # but its category is known from the catalog
        assert batch.target_category[0] == lookup(vocabs.category, 3)

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            build_vocab(table_of([]), make_catalog())


class TestEncodeBatch:
    def _setup(self):
        catalog = make_catalog(item_spec(10, cat=1), item_spec(11, cat=2),
                               item_spec(12, cat=1), item_spec(13, cat=2))
        hist = [(11, 2, True), (12, 1, False), (13, 2, True)]
        records = table_of([make_record(10, history=hist)])
        vocabs = build_vocab(records, catalog)
        return catalog, records, vocabs

    def test_padding_mask(self):
        catalog, records, vocabs = self._setup()
        batch = encode_batch(records, vocabs, catalog, history_len=5)
        grids = batch_grids(batch)
        np.testing.assert_array_equal(batch.seq_mask[0],
                                      [True, True, True, False, False])
        assert np.all(grids.item[0, 3:] == OOV_INDEX)
        assert np.all(~grids.limited[0, 3:])

    def test_truncation_keeps_most_recent(self):
        catalog = make_catalog(item_spec(0, cat=0),
                               *[item_spec(i, cat=0) for i in range(1, 9)])
        hist = [(i, 0, False) for i in range(1, 9)]  # most recent first
        records = table_of([make_record(0, history=hist)])
        vocabs = build_vocab(records, catalog)
        batch = encode_batch(records, vocabs, catalog, history_len=5)
        kept = [lookup(vocabs.item, i) for i in range(1, 6)]
        np.testing.assert_array_equal(batch_grids(batch).item[0], kept)
        assert batch.seq_mask[0].all()

    def test_empty_history(self):
        catalog = make_catalog(item_spec(10, cat=1))
        records = table_of([make_record(10)])
        vocabs = build_vocab(records, catalog)
        batch = encode_batch(records, vocabs, catalog, history_len=3)
        assert np.all(batch_grids(batch).item[0] == 0)
        assert not batch.seq_mask[0].any()
        assert batch.store.lengths.tolist() == [0]

    def test_flags_only_where_masked(self):
        catalog, records, vocabs = self._setup()
        grids = batch_grids(encode_batch(records, vocabs, catalog,
                                         history_len=5))
        assert not np.any(grids.limited & ~grids.mask)

    def test_deterministic(self):
        catalog, records, vocabs = self._setup()
        a = encode_batch(records, vocabs, catalog, history_len=5)
        b = encode_batch(records, vocabs, catalog, history_len=5)
        for field in ("target_item", "history", "seq_mask", "labels"):
            np.testing.assert_array_equal(getattr(a, field),
                                          getattr(b, field))
        for field in ("item", "category", "limited", "lengths"):
            np.testing.assert_array_equal(getattr(a.store, field),
                                          getattr(b.store, field))


def loop_build_vocab(records, catalog):
    """Per-entry oracle: the first-seen scan, one ``add`` per value."""
    item, category = Vocab(), Vocab()
    for r in records:
        item.add(r.item_id)
        spec = catalog.get(r.item_id)
        if spec is not None:
            category.add(spec.category_id)
        for hid, hcat, _ in r.history:
            item.add(hid)
            category.add(hcat)
    return Vocabs(item=item, category=category)


# the per-row columns of an encoded batch
ROW_FIELDS = ("target_item", "target_category", "labels", "is_new",
              "is_limited")


def loop_encode_batch(records, vocabs, catalog, history_len):
    """Per-entry oracle: one ``lookup`` per history entry, written into
    padded [B, H] grids."""
    b, h = len(records), history_len
    rows = dict(target_item=np.zeros(b, dtype=np.int64),
                target_category=np.zeros(b, dtype=np.int64),
                labels=np.zeros(b), is_new=np.zeros(b, dtype=bool),
                is_limited=np.zeros(b, dtype=bool))
    grids = dict(seq_item=np.zeros((b, h), dtype=np.int64),
                 seq_category=np.zeros((b, h), dtype=np.int64),
                 seq_mask=np.zeros((b, h), dtype=bool),
                 seq_limited=np.zeros((b, h), dtype=bool))
    for i, r in enumerate(records):
        rows["target_item"][i] = lookup(vocabs.item, r.item_id)
        spec = catalog.get(r.item_id)
        if spec is not None:
            rows["target_category"][i] = lookup(vocabs.category,
                                                spec.category_id)
        rows["labels"][i] = float(r.label)
        rows["is_new"][i] = r.item_is_new
        rows["is_limited"][i] = r.item_is_limited
        for j, (hid, hcat, hlim) in enumerate(r.history[:h]):
            grids["seq_item"][i, j] = lookup(vocabs.item, hid)
            grids["seq_category"][i, j] = lookup(vocabs.category, hcat)
            grids["seq_mask"][i, j] = True
            grids["seq_limited"][i, j] = hlim
    return grid_batch(**grids, **rows)


# small pools so values repeat, plus ids at and beyond 2**40 and negatives
IDS = st.one_of(st.integers(-3, 12), st.integers(2 ** 40 - 2, 2 ** 40 + 2),
                st.integers(-2 ** 62, 2 ** 62))
ENTRY = st.tuples(IDS, IDS, st.booleans())
RECORD = st.builds(make_record, IDS, st.lists(ENTRY, max_size=8),
                   label=st.integers(0, 1), limited=st.booleans(),
                   new=st.booleans())
CATALOG = st.dictionaries(IDS, IDS).map(
    lambda d: {k: item_spec(k, cat=c) for k, c in d.items()})


@st.composite
def shared_history_records(draw, min_size=0, max_size=12):
    """Records whose histories come from a small pool, as in a simulated
    or read log: some records share one history object, others hold an
    equal but distinct tuple."""
    pool = draw(st.lists(st.lists(ENTRY, max_size=8).map(tuple),
                         min_size=1, max_size=3))
    records = []
    for _ in range(draw(st.integers(min_size, max_size))):
        history = pool[draw(st.integers(0, len(pool) - 1))]
        if draw(st.booleans()):
            history = tuple(list(history))
        records.append(make_record(draw(IDS), history,
                                   label=draw(st.integers(0, 1)),
                                   limited=draw(st.booleans()),
                                   new=draw(st.booleans())))
    return records


def record_lists(min_size=0, max_size=12):
    return st.one_of(st.lists(RECORD, min_size=min_size, max_size=max_size),
                     shared_history_records(min_size, max_size))


def input_forms(records, root, rows):
    """The forms an encoder input takes: the table of ``records``, that
    table read back from disk, and a table sliced by a mask (``rows``) out
    of a longer one, so that it holds only part of its history store."""
    table = table_of(records)
    write_dataset(table, root / "data.tsv")
    longer = table_of(rows[:1] + records + rows[1:])
    keep = np.ones(len(longer), dtype=bool)
    keep[:min(1, len(rows))] = False
    keep[len(records) + min(1, len(rows)):] = False
    return {"table": table, "read": read_dataset(root / "data.tsv"),
            "slice": longer[keep]}


class TestArrayEncodingMatchesLoops:
    @given(record_lists(min_size=1), record_lists(), CATALOG)
    @settings(max_examples=150, deadline=None)
    def test_build_vocab(self, tmp_path_factory, records, others, catalog):
        want = loop_build_vocab(records, catalog)
        forms = input_forms(records, tmp_path_factory.mktemp("v"), others)
        for form, given_records in forms.items():
            got = build_vocab(given_records, Catalog.from_items(catalog))
            for a, b in ((got.item, want.item),
                         (got.category, want.category)):
                assert a == b, form
                assert a.ordered_values() == b.ordered_values(), form

    @given(record_lists(), record_lists(min_size=1, max_size=6),
           record_lists(), CATALOG, st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_encode_batch(self, tmp_path_factory, records, vocab_records,
                          others, catalog, history_len):
        # vocabularies from other records, so ids of ``records`` are often
        # out of vocabulary and targets often missing from the catalog
        vocabs = loop_build_vocab(vocab_records, catalog)
        want = loop_encode_batch(records, vocabs, catalog, history_len)
        forms = input_forms(records, tmp_path_factory.mktemp("e"), others)
        for form, given_records in forms.items():
            got = encode_batch(given_records, vocabs,
                               Catalog.from_items(catalog), history_len)
            pairs = [(f, getattr(got, f), getattr(want, f))
                     for f in ROW_FIELDS]
            pairs += zip(("seq_item", "seq_category", "seq_mask",
                          "seq_limited"), batch_grids(got),
                         batch_grids(want))
            for field, a, b in pairs:
                assert a.dtype == b.dtype and a.shape == b.shape, \
                    (form, field)
                np.testing.assert_array_equal(a, b,
                                              err_msg=f"{form}: {field}")
            for field in ("item", "category", "limited", "lengths"):
                assert getattr(got.store, field).dtype == \
                    getattr(want.store, field).dtype, (form, field)
            assert got.history.dtype == want.history.dtype, form

    def test_lookup_array_cache_follows_growth(self):
        v = Vocab([5, 2 ** 41])
        np.testing.assert_array_equal(v.lookup_array(np.array([2 ** 41, 7])),
                                      [2, OOV_INDEX])
        v.add(7)
        np.testing.assert_array_equal(v.lookup_array(np.array([2 ** 41, 7])),
                                      [2, 3])
        np.testing.assert_array_equal(Vocab().lookup_array(np.array([1, 2])),
                                      [OOV_INDEX, OOV_INDEX])


class TestHistoryStore:
    @given(record_lists(), record_lists(), CATALOG, st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_each_distinct_history_once(self, tmp_path_factory, records,
                                        others, catalog, history_len):
        vocabs = loop_build_vocab(records + others, catalog)
        forms = input_forms(records, tmp_path_factory.mktemp("s"), others)
        for form, table in forms.items():
            batch = encode_batch(table, vocabs, Catalog.from_items(catalog),
                                 history_len)
            store = batch.store
            # the store follows np.unique over the rows' histories
            histories = np.unique(table.history)
            idx, lengths = table.history_entries(histories, history_len)
            np.testing.assert_array_equal(store.lengths, lengths, form)
            for got, vocab, values in (
                    (store.item, vocabs.item, table.hist_item[idx]),
                    (store.category, vocabs.category,
                     table.hist_category[idx])):
                np.testing.assert_array_equal(
                    got, [lookup(vocab, v) for v in values.tolist()], form)
            np.testing.assert_array_equal(store.limited,
                                          table.hist_limited[idx], form)
            # rows that hold one history name one store history
            np.testing.assert_array_equal(histories[batch.history],
                                          table.history, form)
            assert batch.seq_mask.shape == (len(table), history_len)
            assert batch.seq_mask.sum() == store.lengths[batch.history].sum()

    def test_shared_and_empty_histories(self):
        catalog = make_catalog(item_spec(10, cat=1), item_spec(11, cat=2))
        hist = ((11, 2, True), (10, 1, False))
        records = table_of([make_record(10, history=hist), make_record(11),
                            make_record(11, history=hist)])
        vocabs = build_vocab(records, catalog)
        batch = encode_batch(records, vocabs, catalog, history_len=3)
        store = batch.store
        assert batch.history[0] == batch.history[2] != batch.history[1]
        assert store.lengths[batch.history].tolist() == [2, 0, 2]
        assert store.item.size == 2
        np.testing.assert_array_equal(store.limited, [True, False])
        np.testing.assert_array_equal(
            batch.seq_mask, [[True, True, False], [False] * 3,
                             [True, True, False]])


class TestInitEmbedding:
    def test_range_and_shape(self):
        rng = np.random.default_rng(0)
        t = init_embedding(rng, rows=50, dim=16)
        r = 1.0 / np.sqrt(16)
        assert t.shape == (50, 16)
        assert np.all(np.abs(t) <= r)

    def test_seeded_reproducible(self):
        a = init_embedding(np.random.default_rng(3), 10, 4)
        b = init_embedding(np.random.default_rng(3), 10, 4)
        np.testing.assert_array_equal(a, b)


class TestEmbed:
    def _params_and_batch(self):
        catalog = make_catalog(item_spec(10, cat=1), item_spec(11, cat=2))
        records = table_of([make_record(10, history=[(11, 2, True),
                                                     (10, 1, False)])])
        vocabs = build_vocab(records, catalog)
        params = ParamStore()
        rng = np.random.default_rng(5)
        add_embedding_tables(params, vocabs, d_id=2, d_side=2, rng=rng)
        batch = encode_batch(records, vocabs, catalog, history_len=2)
        return params, batch, vocabs

    def test_hand_set_tables_verified_entrywise(self):
        # B=1, H=2, D=2 with hand-set tables: every embedding row checked
        # against a direct table lookup
        params, batch, vocabs = self._params_and_batch()
        item_table = np.array([[0.0, 0.1], [1.0, 2.0], [3.0, 4.0]])
        cat_table = np.array([[0.5, 0.6], [5.0, 6.0], [7.0, 8.0]])
        params.values["emb.item"][:] = item_table
        params.values["emb.category"][:] = cat_table
        tape = Tape(params)
        emb = embed(tape, batch, np.ones_like(batch.seq_mask))
        np.testing.assert_array_equal(emb.target_id.values,
                                      item_table[batch.target_item])
        np.testing.assert_array_equal(emb.target_side.values,
                                      cat_table[batch.target_category])
        grids = batch_grids(batch)
        np.testing.assert_array_equal(
            emb.seq_id.values, item_table[grids.item.reshape(-1)])
        np.testing.assert_array_equal(
            emb.seq_side.values, cat_table[grids.category.reshape(-1)])
        # the item id concat category pairing mirrors a per-position concat
        e_item = np.concatenate([emb.seq_id.values, emb.seq_side.values],
                                axis=1)
        assert e_item.shape == (2, 4)

    def test_identical_items_identical_rows(self):
        catalog = make_catalog(item_spec(10, cat=1))
        records = table_of([make_record(10, history=[(10, 1, False),
                                                     (10, 1, False)])])
        vocabs = build_vocab(records, catalog)
        params = ParamStore()
        add_embedding_tables(params, vocabs, 3, 3, np.random.default_rng(0))
        batch = encode_batch(records, vocabs, catalog, history_len=2)
        tape = Tape(params)
        emb = embed(tape, batch, np.ones_like(batch.seq_mask))
        np.testing.assert_array_equal(emb.seq_id.values[0],
                                      emb.seq_id.values[1])

    def test_masked_position_is_row_zero(self):
        params, batch, vocabs = self._params_and_batch()
        # force an empty history
        catalog = make_catalog(item_spec(10, cat=1))
        records = table_of([make_record(10)])
        batch = encode_batch(records, vocabs, catalog, history_len=2)
        tape = Tape(params)
        emb = embed(tape, batch, np.ones_like(batch.seq_mask))
        np.testing.assert_array_equal(emb.seq_id.values[0],
                                      params.values["emb.item"][0])

    def test_keep_packs_rows_in_row_major_order(self):
        params = ParamStore()
        params.add("emb.item", np.arange(12.0).reshape(6, 2), embedding=True)
        params.add("emb.category", -np.arange(8.0).reshape(4, 2),
                   embedding=True)
        keep = np.array([[False, True, True], [False, False, False],
                         [True, False, True]])
        batch = grid_batch(
            target_item=np.array([1, 2, 3]),
            target_category=np.array([1, 2, 3]),
            seq_item=np.array([[1, 2, 3], [4, 5, 1], [2, 3, 4]]),
            seq_category=np.array([[1, 1, 2], [2, 3, 3], [3, 1, 2]]),
            seq_mask=np.ones((3, 3), dtype=bool), seq_limited=keep,
            labels=np.zeros(3), is_new=np.zeros(3, dtype=bool),
            is_limited=np.zeros(3, dtype=bool))
        tape = Tape(params)
        emb = embed(tape, batch, keep)
        np.testing.assert_array_equal(emb.seq_row, [0, 0, 2, 2])
        np.testing.assert_array_equal(
            emb.seq_id.values, params.values["emb.item"][[2, 3, 2, 4]])
        np.testing.assert_array_equal(
            emb.seq_side.values, params.values["emb.category"][[1, 2, 3, 2]])
        # a second call borrows the target rows instead of gathering
        other = embed(tape, batch, ~keep, (emb.target_id, emb.target_side))
        assert other.target_id is emb.target_id
        assert other.seq_row.tolist() == [0, 1, 1, 1, 2]
        with pytest.raises(ValueError, match="keep mask"):
            embed(tape, batch, keep[:, :2])

    def test_gradient_support_is_referenced_rows(self):
        params, batch, vocabs = self._params_and_batch()
        tape = Tape(params)
        emb = embed(tape, batch, np.ones_like(batch.seq_mask))
        weights = Tape.constant(np.ones_like(emb.seq_id.values))
        masked = tape.mul_rows(emb.seq_id,
                               Tape.constant(batch.seq_mask.reshape(-1)
                                             .astype(float)))
        loss = tape.add(tape.sum_all(masked), tape.sum_all(emb.target_id))
        grads = tape.backward(loss)
        g = grads["emb.item"]
        assert isinstance(g, SparseRows)
        referenced = set(batch.target_item.tolist())
        referenced |= set(batch_grids(batch).item[batch.seq_mask].tolist())
        touched = {int(i) for i, row in zip(g.indices, g.rows)
                   if np.any(row != 0.0)}
        assert touched == referenced
