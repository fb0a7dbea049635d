"""Model assembly, losses, optimizer, training loop, prediction, and
checkpoint tests.  Derived values come from plain-numpy oracles and
hand arithmetic written out in the tests."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msnetlab.autodiff import ParamStore, SparseRows, Tape, check_gradients
from msnetlab.datagen import (
    Catalog,
    GeneratorConfig,
    build_market,
    simulate,
    split_train_test,
)
from msnetlab.features import (
    Vocab,
    Vocabs,
    build_vocab,
    embed_rows,
    encode_batch,
)
from msnetlab.metrics import partition_of
from msnetlab.model import (
    AdagradState,
    ModelConfig,
    ModelError,
    CheckpointError,
    _batch_cache,
    _branch_kv,
    _branch_query,
    _entry_kv,
    _history_entries,
    _slice_batch,
    build_params,
    compute_losses,
    config_hash,
    fit,
    forward,
    load_checkpoint,
    loss_aux,
    optimizer_step,
    predict,
    save_checkpoint,
    total_loss,
)
from msnetlab.seqmodel import ScoreAccumulator

from helpers import (
    add_batch_by_mask,
    batch_grids,
    branch_masks,
    embed,
    gradients_of,
    grid_batch,
    per_name_gradients,
    per_position_forward,
    zero_meta_outputs,
)
from table_rows import table_of


def micro_vocabs(n_items=6, n_cats=3):
    return Vocabs(item=Vocab(range(100, 100 + n_items)),
                  category=Vocab(range(n_cats)))


def micro_batch(rng, b=4, h=5, n_items=6, n_cats=3, all_multi=False):
    mask_len = rng.integers(0, h + 1, size=b)
    mask = np.arange(h)[None, :] < mask_len[:, None]
    limited = mask & (rng.random(size=(b, h)) < 0.5)
    if all_multi:
        limited = np.zeros_like(mask)
    return grid_batch(
        target_item=rng.integers(1, n_items + 1, size=b),
        target_category=rng.integers(1, n_cats + 1, size=b),
        seq_item=np.where(mask, rng.integers(1, n_items + 1, size=(b, h)), 0),
        seq_category=np.where(mask, rng.integers(1, n_cats + 1, size=(b, h)), 0),
        seq_mask=mask,
        seq_limited=limited,
        labels=rng.integers(0, 2, size=b).astype(float),
        is_new=rng.random(size=b) < 0.3,
        is_limited=rng.random(size=b) < 0.5,
    )


MICRO_MSNET = ModelConfig(architecture="msnet", d_id=4, d_side=4,
                          history_len=5, n_heads=2, d_head=8,
                          mlp_hidden=(8, 4), meta_hidden=6, seed=3)
MICRO_DIN = ModelConfig(architecture="din", d_id=4, d_side=4, history_len=5,
                        n_heads=2, d_head=8, mlp_hidden=(8, 4), seed=3)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ModelError):
            ModelConfig(architecture="mlp").validate()
        with pytest.raises(ModelError):
            ModelConfig(alpha=-0.1).validate()
        with pytest.raises(ModelError):
            ModelConfig(adagrad_decay=0.0).validate()
        for bad in (-1.0, -1e-9, math.inf, math.nan):
            with pytest.raises(ModelError, match="learning_rate"):
                ModelConfig(learning_rate=bad).validate()
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ModelError, match="logit_clamp"):
                ModelConfig(logit_clamp=bad).validate()
        with pytest.raises(ModelError, match="seed"):
            ModelConfig(seed=-1).validate()
        for bad in (math.inf, math.nan):
            with pytest.raises(ModelError, match="alpha"):
                ModelConfig(alpha=bad).validate()
        ModelConfig().validate()
        ModelConfig(learning_rate=0.0).validate()

    @given(field=st.sampled_from(
               [f.name for f in dataclasses.fields(ModelConfig)]),
           value=st.recursive(
               st.none() | st.booleans() | st.integers() | st.floats()
               | st.text(max_size=3),
               lambda inner: st.lists(inner, max_size=3)
               | st.dictionaries(st.text(max_size=3), inner, max_size=2),
               max_leaves=4))
    @settings(max_examples=300, deadline=None)
    def test_from_dict_fails_only_with_model_error(self, field, value):
        # any JSON value in any field either loads or is refused cleanly
        try:
            ModelConfig.from_dict({field: value})
        except ModelError:
            pass

    @pytest.mark.parametrize("key, value", [("use_aux_loss", True),
                                            ("aux_scope", "limited_only"),
                                            ("meta_mode", "net")])
    def test_removed_switches_are_unknown_keys(self, key, value):
        # each value was the removed switch's default
        want = re.escape(f"unknown model config keys: ['{key}']")
        with pytest.raises(ModelError, match=want):
            ModelConfig.from_dict({key: value})

    def test_hash_changes_with_config(self):
        a = config_hash(ModelConfig())
        b = config_hash(ModelConfig(d_id=16))
        c = config_hash(ModelConfig())
        assert a == c
        assert a != b

    def test_round_trip_dict(self):
        cfg = ModelConfig(architecture="din", mlp_hidden=(5, 3))
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg
        with pytest.raises(ModelError):
            ModelConfig.from_dict({"nope": 1})


class TestForward:
    def test_output_in_open_interval(self):
        rng = np.random.default_rng(0)
        vocabs = micro_vocabs()
        params = build_params(MICRO_MSNET, vocabs)
        batch = micro_batch(rng)
        tape = Tape(params)
        out = forward(tape, MICRO_MSNET, batch)
        assert np.all(out.p.values > 0.0) and np.all(out.p.values < 1.0)

    def test_empty_history_uses_target_only(self):
        # two impressions with the same target and different (empty)
        # histories give the same output; interest vectors are zero
        vocabs = micro_vocabs()
        params = build_params(MICRO_MSNET, vocabs)
        empty = grid_batch(
            target_item=np.array([2, 2]), target_category=np.array([1, 1]),
            seq_item=np.zeros((2, 5), dtype=np.int64),
            seq_category=np.zeros((2, 5), dtype=np.int64),
            seq_mask=np.zeros((2, 5), dtype=bool),
            seq_limited=np.zeros((2, 5), dtype=bool),
            labels=np.array([1.0, 0.0]),
            is_new=np.array([False, False]),
            is_limited=np.array([False, True]))
        tape = Tape(params)
        out = forward(tape, MICRO_MSNET, empty)
        assert out.p.values[0] == out.p.values[1]

    def test_all_switches_off_equals_din_bitwise(self):
        rng = np.random.default_rng(5)
        vocabs = micro_vocabs()
        din_params = build_params(MICRO_DIN, vocabs)
        degenerate = ModelConfig(architecture="msnet", d_id=4, d_side=4,
                                 history_len=5, n_heads=2, d_head=8,
                                 mlp_hidden=(8, 4), seed=99,
                                 use_seq_split=False, use_seq_meta=False,
                                 alpha=0.0)
        ms_params = build_params(degenerate, vocabs)
        assert set(ms_params.names()) == set(din_params.names())
        for name in din_params.names():
            ms_params.values[name][:] = din_params.values[name]
        batch = micro_batch(rng)
        p_din = forward(Tape(din_params), MICRO_DIN, batch).p.values
        p_ms = forward(Tape(ms_params), degenerate, batch).p.values
        assert p_din.tobytes() == p_ms.tobytes()

    def test_forced_identity_meta_equals_din_bitwise(self):
        # meta nets with zeroed output layers scale by exactly 1 and shift
        # by exactly 0; the untrained nets do neither
        rng = np.random.default_rng(6)
        vocabs = micro_vocabs()
        din_params = build_params(MICRO_DIN, vocabs)
        degenerate = ModelConfig(architecture="msnet", d_id=4, d_side=4,
                                 history_len=5, n_heads=2, d_head=8,
                                 mlp_hidden=(8, 4), meta_hidden=6, seed=99,
                                 use_seq_split=False, use_seq_meta=True,
                                 alpha=0.0)
        ms_params = build_params(degenerate, vocabs)
        for name in din_params.names():
            ms_params.values[name][:] = din_params.values[name]
        batch = micro_batch(rng)
        p_din = forward(Tape(din_params), MICRO_DIN, batch).p.values
        p_raw = forward(Tape(ms_params), degenerate, batch).p.values
        zero_meta_outputs(ms_params)
        p_ms = forward(Tape(ms_params), degenerate, batch).p.values
        assert p_din.tobytes() == p_ms.tobytes()
        assert p_din.tobytes() != p_raw.tobytes()

    def test_hand_rolled_din_oracle(self):
        # B=2, D_id=D_side=2, H=2, one head, MLP (2,): plain-numpy oracle
        cfg = ModelConfig(architecture="din", d_id=2, d_side=2,
                          history_len=2, n_heads=1, d_head=2,
                          mlp_hidden=(2,), seed=0)
        vocabs = micro_vocabs(n_items=3, n_cats=2)
        params = build_params(cfg, vocabs)
        rng = np.random.default_rng(42)
        batch = micro_batch(rng, b=2, h=2, n_items=3, n_cats=2)
        tape = Tape(params)
        got = forward(tape, cfg, batch).p.values

        P = params.values
        item, cat = P["emb.item"], P["emb.category"]
        e_t = np.concatenate([item[batch.target_item],
                              cat[batch.target_category]], axis=1)
        grids = batch_grids(batch)
        e_s = np.concatenate([item[grids.item.reshape(-1)],
                              cat[grids.category.reshape(-1)]], axis=1)
        q = e_t @ P["att.main.wq"]
        k = e_s @ P["att.main.wk"]
        v = e_s @ P["att.main.wv"]
        interest = np.zeros((2, 2))
        for b in range(2):
            scores = np.array([q[b] @ k[b * 2 + t] for t in range(2)])
            scores /= math.sqrt(2.0)
            m = batch.seq_mask[b]
            if m.any():
                e = np.where(m, np.exp(scores - scores[m].max()), 0.0)
                w = e / e.sum()
                interest[b] = sum(w[t] * v[b * 2 + t] for t in range(2))
        interest = interest @ P["att.main.combine"]
        x = np.concatenate([interest, e_t], axis=1)
        h = x @ P["mlp.l0.w"] + P["mlp.l0.b"]
        h = np.where(h > 0, h, 0.01 * h)
        logits = (h @ P["mlp.out.w"] + P["mlp.out.b"]).reshape(-1)
        logits = np.clip(logits, -15.0, 15.0)
        want = 1.0 / (1.0 + np.exp(-logits))
        np.testing.assert_allclose(got, want, rtol=1e-12)


class TestTapeNodes:
    @pytest.mark.parametrize("arch, nodes, dense", [("msnet", 101, 10),
                                                    ("din", 33, 4)])
    def test_one_training_step_at_the_default_config(self, arch, nodes,
                                                     dense):
        # counting the leaves; each MLP layer, of the CTR head and of the
        # meta nets, is one dense node, and each branch's attention is one
        # target_attention node beside its query product
        config = ModelConfig(architecture=arch)
        batch = micro_batch(np.random.default_rng(0), b=8,
                            h=config.history_len)
        grids = batch_grids(batch)
        assert (grids.mask & grids.limited).any()
        assert (grids.mask & ~grids.limited).any()
        tape = Tape(build_params(config, micro_vocabs()))
        compute_losses(tape, config, batch, forward(tape, config, batch))
        names = [node.name for node in tape._nodes]
        assert len(names) == nodes
        assert names.count("dense") == dense
        assert not {"add_bias", "leaky_relu"} & set(names)
        assert names.count("target_attention") == config.n_branches


class TestLossCE:
    def test_max_entropy_point(self):
        tape = Tape()
        p = Tape.constant([0.5, 0.5, 0.5])
        got = float(tape.bce(p, np.array([1.0, 0.0, 1.0])).values)
        assert got == pytest.approx(math.log(2.0), rel=1e-12)

    def test_closed_form(self):
        # -mean(ln .9, ln .9) = -ln 0.9 = 0.10536...
        tape = Tape()
        p = Tape.constant([0.9, 0.1])
        got = float(tape.bce(p, np.array([1.0, 0.0])).values)
        assert got == pytest.approx(-math.log(0.9), rel=1e-12)
        assert got == pytest.approx(0.105360515657826, rel=1e-10)

    def test_perfect_prediction_limit(self):
        tape = Tape()
        p = Tape.constant([1 - 1e-12, 1e-12])
        got = float(tape.bce(p, np.array([1.0, 0.0])).values)
        assert got < 1e-10


class TestLossAux:
    def _embedded(self, params, batch, keep):
        tape = Tape(params)
        return tape, embed(tape, batch, keep)

    def test_identical_tables_zero_loss(self):
        # same vectors for id and side embeddings make the two similarity
        # profiles equal, so the squared gap is zero
        cfg = MICRO_MSNET
        vocabs = micro_vocabs()
        params = build_params(cfg, vocabs)
        n_cat_rows = params.values["emb.category"].shape[0]
        params.values["emb.category"][:] = \
            params.values["emb.item"][:n_cat_rows]
        rng = np.random.default_rng(1)
        # keep ids within the category-table range so the paired lookups
        # really return the same vectors
        batch = micro_batch(rng, n_items=n_cat_rows - 1, n_cats=n_cat_rows - 1)
        batch.store.category[:] = batch.store.item
        batch.target_category[:] = batch.target_item
        scope = batch.seq_mask
        tape, emb = self._embedded(params, batch, scope)
        got = float(loss_aux(tape, emb).values)
        assert got == pytest.approx(0.0, abs=1e-24)

    def test_hand_mse(self):
        # side sims [1, 0] vs id sims [0, 0] over 2 positions -> 0.5
        params = ParamStore()
        params.add("emb.item", np.array([[0.0, 0.0], [1.0, 0.0],
                                         [0.0, 1.0]]), embedding=True)
        params.add("emb.category", np.array([[0.0, 0.0], [1.0, 0.0],
                                             [0.0, 1.0]]), embedding=True)
        batch = grid_batch(
            target_item=np.array([1]), target_category=np.array([1]),
            # positions: ids orthogonal to target id; sides: equal then
            # orthogonal to target side
            seq_item=np.array([[2, 2]]), seq_category=np.array([[1, 2]]),
            seq_mask=np.ones((1, 2), dtype=bool),
            seq_limited=np.ones((1, 2), dtype=bool),
            labels=np.array([1.0]), is_new=np.array([False]),
            is_limited=np.array([False]))
        tape = Tape(params)
        emb = embed(tape, batch, batch.seq_mask)
        got = float(loss_aux(tape, emb).values)
        assert got == pytest.approx(0.5, rel=1e-9)

    def test_side_tables_blocked_id_tables_not(self):
        cfg = MICRO_MSNET
        vocabs = micro_vocabs()
        params = build_params(cfg, vocabs)
        rng = np.random.default_rng(2)
        batch = micro_batch(rng)
        if not batch.seq_mask.any():
            pytest.skip("need at least one valid position")
        scope = batch.seq_mask
        tape, emb = self._embedded(params, batch, scope)
        aux = loss_aux(tape, emb)
        grads = tape.backward(aux)
        cat = grads["emb.category"]
        assert isinstance(cat, SparseRows)
        assert not np.any(cat.rows)  # exactly zero everywhere
        assert np.any(grads["emb.item"].rows != 0.0)

    def test_empty_scope_zero(self):
        cfg = MICRO_MSNET
        vocabs = micro_vocabs()
        params = build_params(cfg, vocabs)
        rng = np.random.default_rng(3)
        batch = micro_batch(rng, all_multi=True)
        grids = batch_grids(batch)
        scope = grids.mask & grids.limited
        tape, emb = self._embedded(params, batch, scope)
        assert not scope.any()
        got = float(loss_aux(tape, emb).values)
        assert got == 0.0


class TestTotalLoss:
    def test_alpha_zero_is_ce(self):
        tape = Tape()
        ce = Tape.constant(0.7)
        aux = Tape.constant(0.1)
        assert total_loss(tape, ce, aux, 0.0) is ce

    def test_arithmetic(self):
        tape = Tape()
        ce = Tape.constant(np.asarray(0.7))
        aux = Tape.constant(np.asarray(0.1))
        got = float(total_loss(tape, ce, aux, 0.5).values)
        assert got == pytest.approx(0.75, rel=1e-15)

    def test_din_never_computes_aux(self):
        rng = np.random.default_rng(4)
        vocabs = micro_vocabs()
        params = build_params(MICRO_DIN, vocabs)
        batch = micro_batch(rng)
        tape = Tape(params)
        out = forward(tape, MICRO_DIN, batch)
        cfg = ModelConfig(**{**MICRO_DIN.to_dict(),
                             "mlp_hidden": (8, 4), "alpha": 5.0})
        ce, aux, total = compute_losses(tape, cfg, batch, out)
        assert aux is None
        assert float(total.values) == float(ce.values)


class TestOptimizer:
    def _single(self, value=1.0):
        params = ParamStore()
        params.add("w", np.array([value]))
        return params, AdagradState(params.copy(zero=True))

    @staticmethod
    def _step(params, by_name, state, **kwargs):
        optimizer_step(params, gradients_of(params, by_name), state, **kwargs)

    def test_first_step_closed_form(self):
        # acc = 1, step = -0.1 * 1/(sqrt(1)+1e-8)
        params, state = self._single(0.0)
        self._step(params, {"w": np.array([1.0])}, state, lr=0.1)
        want = -0.1 / (1.0 + 1e-8)
        assert params.values["w"][0] == pytest.approx(want, rel=1e-12)

    def test_zero_gradient_no_change(self):
        params, state = self._single(2.5)
        before = params.values["w"].copy()
        self._step(params, {"w": np.array([0.0])}, state, lr=0.1)
        np.testing.assert_array_equal(params.values["w"], before)
        np.testing.assert_array_equal(state.acc.values["w"], [0.0])

    def test_two_steps_accumulator(self):
        # second step is -lr/sqrt(2) up to eps
        params, state = self._single(0.0)
        self._step(params, {"w": np.array([1.0])}, state, lr=0.1)
        first = params.values["w"][0]
        self._step(params, {"w": np.array([1.0])}, state, lr=0.1)
        second = params.values["w"][0] - first
        assert second == pytest.approx(-0.1 / math.sqrt(2.0), rel=1e-7)

    def test_sparse_untouched_rows_unchanged(self):
        params = ParamStore()
        params.add("t", np.ones((4, 2)), embedding=True)
        state = AdagradState(params.copy(zero=True))
        g = SparseRows(indices=np.array([1]), rows=np.array([[1.0, 1.0]]))
        self._step(params, {"t": g}, state, lr=0.5)
        np.testing.assert_array_equal(params.values["t"][0], [1.0, 1.0])
        np.testing.assert_array_equal(params.values["t"][2], [1.0, 1.0])
        assert np.all(params.values["t"][1] < 1.0)
        np.testing.assert_array_equal(state.acc.values["t"][0], [0.0, 0.0])

    def test_decay_applied_before_accumulation(self):
        params, state = self._single(0.0)
        self._step(params, {"w": np.array([2.0])}, state, lr=0.0,
                   decay=0.5)
        assert state.acc.values["w"][0] == pytest.approx(4.0)  # 0*0.5 + 4
        self._step(params, {"w": np.array([2.0])}, state, lr=0.0,
                   decay=0.5)
        assert state.acc.values["w"][0] == pytest.approx(6.0)  # 4*0.5 + 4

    def test_non_finite_aborts_whole_step(self):
        params = ParamStore()
        params.add("a", np.array([1.0]))
        params.add("b", np.array([1.0]))
        state = AdagradState(params.copy(zero=True))
        grads = {"a": np.array([1.0]), "b": np.array([float("nan")])}
        with pytest.raises(ModelError, match="'b'"):
            self._step(params, grads, state, lr=0.1)
        np.testing.assert_array_equal(params.values["a"], [1.0])
        assert state.step == 0

    @pytest.mark.parametrize("overflowing", ["e", "b"])
    def test_non_finite_accumulator_aborts_whole_step(self, overflowing):
        # finite gradients whose square overflows: no value and no
        # accumulator moves, and the first such parameter is named
        params = ParamStore()
        params.add("a", np.array([1.0]))
        params.add("e", np.ones((3, 2)), embedding=True)
        params.add("b", np.array([1.0, 2.0]))
        state = AdagradState(params.copy(zero=True))
        state.acc.values["b"][...] = 1e308
        grads = {"a": np.array([1.0]), "b": np.array([0.0, 1.0]),
                 "e": SparseRows(indices=np.array([2]),
                                 rows=np.array([[1.0, 1.0]]))}
        if overflowing == "e":
            grads["e"].rows[0, 1] = 1e200
        else:
            grads["b"][1] = 1e160  # 1e308 + 1e320 overflows
        before = params.copy()
        acc_before = state.acc.copy()
        with pytest.raises(ModelError, match=f"non-finite Adagrad "
                           f"accumulator for parameter '{overflowing}'"), \
                np.errstate(over="ignore"):
            self._step(params, grads, state, lr=0.1)
        for name in params.names():
            assert params.values[name].tobytes() == \
                before.values[name].tobytes()
            assert state.acc.values[name].tobytes() == \
                acc_before.values[name].tobytes()
        assert state.step == 0


def loop_optimizer_step(values, acc, grads, lr, decay):
    """Per-parameter Adagrad over plain dicts: every gradient checked,
    then one update per parameter in name order."""
    for name in values:
        g = grads[name]
        if not np.isfinite(g.rows if isinstance(g, SparseRows) else g).all():
            raise ModelError(f"non-finite gradient for parameter {name!r}; "
                             "step aborted")
    for name in values:
        g = grads[name]
        if isinstance(g, SparseRows):
            if not g.indices.size:
                continue
            a = acc[name][g.indices]
            if decay != 1.0:
                a *= decay
            a += g.rows * g.rows
            acc[name][g.indices] = a
            values[name][g.indices] -= lr * g.rows / (np.sqrt(a) + 1e-8)
        else:
            if decay != 1.0:
                acc[name] *= decay
            acc[name] += g * g
            values[name] -= lr * g / (np.sqrt(acc[name]) + 1e-8)


DENSE_SHAPES = [(), (1,), (3,), (2, 3), (0, 3), (4, 1)]


class TestFlatAdagrad:
    @given(st.integers(0, 2 ** 31 - 1),
           st.sampled_from([1.0, 0.5, 0.9, 1e-3]))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_parameter_loop(self, seed, decay):
        rng = np.random.default_rng(seed)
        params = ParamStore()
        for i in range(int(rng.integers(1, 7))):
            if rng.random() < 0.3:
                params.add(f"t{i}", rng.normal(size=(int(rng.integers(1, 6)),
                                                     int(rng.integers(1, 4)))),
                           embedding=True)
            else:
                shape = DENSE_SHAPES[int(rng.integers(len(DENSE_SHAPES)))]
                params.add(f"d{i}", rng.normal(size=shape))
        state = AdagradState(params.copy(zero=True))
        values = {n: params.values[n].copy() for n in params.names()}
        acc = {n: np.zeros_like(v) for n, v in values.items()}
        for _ in range(3):
            grads = {}
            for name, v in values.items():
                if name in params.embedding_names:
                    rows = np.flatnonzero(rng.random(v.shape[0]) < 0.5)
                    g = rng.normal(size=(rows.size, v.shape[1]))
                else:
                    # zero gradients stand for parameters off the loss path
                    g = rng.normal(size=v.shape) * (rng.random() < 0.8)
                g = g * 10.0 ** rng.integers(-8, 8, size=g.shape)
                g[rng.random(g.shape) < 0.1] = -0.0
                if rng.random() < 0.05 and g.size:
                    g.reshape(-1)[0] = rng.choice([np.nan, np.inf, -np.inf])
                grads[name] = (SparseRows(rows, g)
                               if name in params.embedding_names else g)
            lr = float(rng.choice([0.0, 1e-2, 0.5]))
            try:
                loop_optimizer_step(values, acc, grads, lr, decay)
            except ModelError as exc:
                with pytest.raises(ModelError, match=re.escape(str(exc))):
                    optimizer_step(params, gradients_of(params, grads),
                                   state, lr, decay)
            else:
                optimizer_step(params, gradients_of(params, grads), state,
                               lr, decay)
            for name in params.names():
                assert params.values[name].tobytes() == values[name].tobytes()
                assert state.acc.values[name].tobytes() == \
                    acc[name].tobytes()
        for name in params.names():
            assert np.shares_memory(state.acc.values[name],
                                    state.acc.dense) == \
                (name not in params.embedding_names and acc[name].size > 0)

    @pytest.mark.parametrize("decay", [1.0, 0.9])
    def test_model_steps_match_per_name_reference(self, decay):
        # MSNet steps on tape gradients against the per-parameter loop on
        # the per-name gradients the tape composed before; the all-multi
        # batch leaves the limited branch and the meta nets off the path
        cfg = dataclasses.replace(MICRO_MSNET, adagrad_decay=decay)
        params = build_params(cfg, micro_vocabs())
        state = AdagradState(params.copy(zero=True))
        values = {n: v.copy() for n, v in params.values.items()}
        acc = {n: np.zeros_like(v) for n, v in values.items()}
        rng = np.random.default_rng(8)
        for all_multi in (False, True, False):
            batch = micro_batch(rng, b=6, all_multi=all_multi)

            def build():
                tape = Tape(params)
                out = forward(tape, cfg, batch)
                return tape, compute_losses(tape, cfg, batch, out)[2]

            old = per_name_gradients(*build())
            tape, total = build()
            grads = tape.backward(total)
            assert grads.dense.tobytes() == np.concatenate(
                [g.reshape(-1) for g in old.values()]).tobytes()
            assert np.any(old["att.limited.wv"]) != all_multi
            loop_optimizer_step(values, acc, {**old, **grads.sparse},
                                cfg.learning_rate, decay)
            optimizer_step(params, grads, state, cfg.learning_rate, decay)
            for name in params.names():
                assert params.values[name].tobytes() == values[name].tobytes()
                assert state.acc.values[name].tobytes() == \
                    acc[name].tobytes()

    def test_parameter_off_the_loss_path_keeps_its_bits(self):
        params = ParamStore()
        params.add("table", np.ones((3, 2)), embedding=True)
        params.add("used", np.array([0.5, -1.0]))
        params.add("unused", np.array([[-0.0, 3.0], [1e-300, -2.0]]))
        state = AdagradState(params.copy(zero=True))
        state.acc.values["unused"][:] = [[0.25, 0.0], [4.0, 1e-12]]
        before = (params.values["unused"].tobytes(),
                  state.acc.values["unused"].tobytes())
        for _ in range(3):
            tape = Tape(params)
            used = tape.param("used")
            grads = tape.backward(tape.sum_all(tape.mul(used, used)))
            optimizer_step(params, grads, state, lr=0.1)
        assert (params.values["unused"].tobytes(),
                state.acc.values["unused"].tobytes()) == before
        assert state.acc.values["used"].min() > 0.0


def tiny_training_setup(seed=0, n=400):
    cfg = GeneratorConfig(n_users=60, n_items=400, days=4,
                          new_items_per_day=30,
                          mean_impressions_per_user_day=6.0)
    market = build_market(cfg, seed=seed)
    res = simulate(market, cfg.days)
    train, test = split_train_test(res.records, cfg.days)
    return Catalog.from_items(market.items), train[:max(n, 1)], test


class TestFit:
    def test_loss_decreases(self):
        catalog, train, _ = tiny_training_setup(n=10_000)
        cfg = ModelConfig(architecture="msnet", epochs=3, seed=1,
                          history_len=8, batch_size=64)
        result = fit(train, catalog, cfg)
        assert len(result.log) == 3
        assert result.log[-1].mean_ce < result.log[0].mean_ce
        assert not result.diverged

    def test_lr_zero_leaves_parameters_bitwise(self):
        catalog, train, _ = tiny_training_setup(n=500)
        cfg = ModelConfig(architecture="msnet", epochs=1, seed=2,
                          learning_rate=0.0, history_len=6, batch_size=64)
        result = fit(train, catalog, cfg)
        fresh = build_params(cfg, result.vocabs)
        for name in fresh.names():
            assert fresh.values[name].tobytes() == \
                result.params.values[name].tobytes()

    def test_seeded_runs_identical_logs(self):
        catalog, train, _ = tiny_training_setup(n=800)
        cfg = ModelConfig(architecture="msnet", epochs=2, seed=5,
                          history_len=6, batch_size=64)
        a = fit(train, catalog, cfg)
        b = fit(train, catalog, cfg)
        assert [e.to_dict() for e in a.log] == [e.to_dict() for e in b.log]
        for name in a.params.names():
            assert a.params.values[name].tobytes() == \
                b.params.values[name].tobytes()

    def test_epochs_zero_keeps_initial_params(self):
        catalog, train, _ = tiny_training_setup(n=200)
        cfg = ModelConfig(architecture="din", epochs=0, seed=3,
                          history_len=6)
        result = fit(train, catalog, cfg)
        assert result.log == []
        fresh = build_params(cfg, result.vocabs)
        for name in fresh.names():
            assert fresh.values[name].tobytes() == \
                result.params.values[name].tobytes()

    def test_divergence_aborts_and_restores(self, monkeypatch):
        # poison one embedding entry with NaN: the first batch loss goes
        # non-finite, fit must flag divergence and hand back the snapshot
        # from before the failing epoch (here: the initial parameters)
        import msnetlab.model as model_mod
        catalog, train, _ = tiny_training_setup(n=600)
        cfg = ModelConfig(architecture="msnet", epochs=2, seed=11,
                          history_len=6, batch_size=64)
        real_build = model_mod.build_params

        def poisoned(config, vocabs):
            params = real_build(config, vocabs)
            params.values["emb.item"][1, 0] = float("nan")
            return params

        monkeypatch.setattr(model_mod, "build_params", poisoned)
        result = fit(train, catalog, cfg)
        assert result.diverged
        assert result.log == []  # no epoch completed
        assert result.opt_state.step == 0  # snapshot predates any update

    def test_healthy_run_not_flagged(self):
        catalog, train, _ = tiny_training_setup(n=600)
        cfg = ModelConfig(architecture="msnet", epochs=1, seed=11,
                          history_len=6, batch_size=64)
        assert not fit(train, catalog, cfg).diverged


class TestPredict:
    def test_duplicates_and_count(self):
        catalog, train, test = tiny_training_setup(n=300)
        cfg = ModelConfig(architecture="din", epochs=1, seed=1,
                          history_len=6, batch_size=32)
        r = fit(train, catalog, cfg)
        doubled = test[:50] + test[:50]
        preds = predict(r.params, cfg, doubled, r.vocabs, catalog)
        assert len(preds) == 100
        for i in range(50):
            assert preds[i].p == preds[i + 50].p

    def test_untrained_model_mean_near_half(self):
        catalog, train, test = tiny_training_setup(n=300)
        cfg = ModelConfig(architecture="msnet", epochs=0, seed=1,
                          history_len=6)
        r = fit(train, catalog, cfg)
        preds = predict(r.params, cfg, test[:400], r.vocabs, catalog)
        mean_p = np.mean([p.p for p in preds])
        assert 0.2 < mean_p < 0.8

    def test_columns_come_from_the_impressions(self):
        catalog, train, test = tiny_training_setup(n=300)
        cfg = ModelConfig(architecture="msnet", epochs=0, seed=1,
                          history_len=6, batch_size=32)
        r = fit(train, catalog, cfg)
        rows = test[3:200]
        preds = predict(r.params, cfg, rows, r.vocabs, catalog,
                        partition_seed=2)
        want = [(x.user_id, x.item_id, x.label, x.item_is_new,
                 x.item_is_limited, partition_of(x.user_id, x.item_id, 2))
                for x in rows]
        assert [(x.user_id, x.item_id, x.y, x.is_new, x.is_limited,
                 x.partition_id) for x in preds] == want

    def test_partition_ids_deterministic(self):
        catalog, train, test = tiny_training_setup(n=300)
        cfg = ModelConfig(architecture="din", epochs=0, seed=1,
                          history_len=6)
        r = fit(train, catalog, cfg)
        a = predict(r.params, cfg, test[:100], r.vocabs, catalog,
                    partition_seed=4)
        b = predict(r.params, cfg, test[:100], r.vocabs, catalog,
                    partition_seed=4)
        assert [x.partition_id for x in a] == [x.partition_id for x in b]
        assert all(0 <= x.partition_id < 10 for x in a)


def reference_predict(params, config, table, vocabs, catalog, accumulator):
    """``predict``'s probabilities from a per-chunk loop: each
    ``batch_size`` chunk encoded on its own and run on a recording tape."""
    chunks = [np.empty(0)]
    for start in range(0, len(table), config.batch_size):
        batch = encode_batch(table[start:start + config.batch_size], vocabs,
                             catalog, config.history_len)
        out = forward(Tape(params), config, batch)
        for scores, mask in zip(out.branch_scores,
                                branch_masks(config, batch)):
            add_batch_by_mask(accumulator, scores, batch.is_limited,
                              batch_grids(batch).limited, mask)
        chunks.append(out.p.values)
    return np.concatenate(chunks)


PREDICT_VARIANTS = {
    "din": dict(architecture="din"),
    "msnet": dict(architecture="msnet"),
    "msnet_identity_meta": dict(architecture="msnet"),
    "msnet_no_meta": dict(architecture="msnet", use_seq_meta=False),
    "msnet_no_split": dict(architecture="msnet", use_seq_split=False),
}
# in-place edits of a variant's built or trained parameters: the identity
# variant's meta nets scale by exactly 1 and shift by exactly 0
PARAM_EDITS = {"msnet_identity_meta": zero_meta_outputs}


def edit_params(variant, params):
    PARAM_EDITS.get(variant, lambda params: None)(params)


def with_histories(table, histories):
    """``table``'s rows, row i with the history ``histories[i]``."""
    return table_of([dataclasses.replace(r, history=h)
                     for r, h in zip(table, histories)])


def assert_predict_matches_reference(catalog, train, rows, cfg, variant):
    """``predict`` after a fit of ``cfg``, the config of ``variant``, gives
    ``reference_predict``'s probabilities and score sums, byte for byte."""
    r = fit(train, catalog, cfg)
    edit_params(variant, r.params)
    got_acc, want_acc = ScoreAccumulator(), ScoreAccumulator()
    preds = predict(r.params, cfg, rows, r.vocabs, catalog,
                    score_accumulator=got_acc)
    want = reference_predict(r.params, cfg, rows, r.vocabs, catalog,
                             want_acc)
    assert len(preds) == len(rows)
    assert preds.p.tobytes() == want.tobytes()
    assert got_acc.sums == want_acc.sums
    assert got_acc.counts == want_acc.counts


class TestForwardOnlyPredict:
    @pytest.fixture(scope="class")
    def setup(self):
        return tiny_training_setup(n=600)

    @pytest.mark.parametrize("variant", sorted(PREDICT_VARIANTS))
    @pytest.mark.parametrize("rows", [150, 0])
    def test_matches_per_chunk_recording_loop(self, setup, variant, rows):
        catalog, train, test = setup
        cfg = ModelConfig(epochs=1, seed=4, history_len=6, batch_size=64,
                          **PREDICT_VARIANTS[variant])
        assert_predict_matches_reference(catalog, train, test[:rows], cfg,
                                         variant)

    def test_encodes_once_per_call(self, setup, monkeypatch):
        import msnetlab.model as model_mod
        catalog, train, test = setup
        cfg = ModelConfig(epochs=0, seed=4, history_len=6, batch_size=32)
        r = fit(train, catalog, cfg)
        calls = []

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return encode_batch(*args, **kwargs)

        monkeypatch.setattr(model_mod, "encode_batch", counted)
        for rows in (100, 0):
            calls.clear()
            predict(r.params, cfg, test[:rows], r.vocabs, catalog)
            assert calls == [rows]

    def test_meta_nets_once_per_call(self, setup, monkeypatch):
        # fit runs the meta nets and compose_kv on every training step;
        # predict runs them once per call, over the K/V cache's rows
        import msnetlab.model as model_mod
        catalog, train, test = setup
        cfg = ModelConfig(epochs=1, seed=4, history_len=6, batch_size=32)
        names = ("meta_scale", "meta_shift", "compose_kv")
        calls = {}
        for name in names:
            def counted(*args, _name=name, _real=getattr(model_mod, name),
                        **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(model_mod, name, counted)
        r = fit(train, catalog, cfg)
        steps = math.ceil(len(train) / cfg.batch_size)
        assert calls == dict.fromkeys(names, steps)
        # every chunk's limited branch holds exactly one position
        entry = (int(train.hist_item[0]), int(train.hist_category[0]))
        rows = with_histories(test[:100], [
            ((*entry, True), (*entry, False)) if i % cfg.batch_size == 0
            else ((*entry, False),) for i in range(100)])
        grids = batch_grids(encode_batch(rows, r.vocabs, catalog, 6))
        limited = grids.mask & grids.limited
        assert all(np.count_nonzero(limited[s:s + cfg.batch_size]) == 1
                   for s in range(0, len(rows), cfg.batch_size))
        calls.clear()
        predict(r.params, cfg, rows, r.vocabs, catalog)
        assert calls == dict.fromkeys(names, 1)

    def test_forward_once_per_chunk_and_per_step(self, setup, monkeypatch):
        # perfbench times a training step from a fit's first forward call
        # to each optimizer step, and a prediction batch from one forward
        # call of predict to the next: fit must call forward once per
        # step, and predict once per batch_size chunk
        import msnetlab.model as model_mod
        catalog, train, test = setup
        cfg = ModelConfig(epochs=2, seed=4, history_len=6, batch_size=32)
        sizes = []

        def counted(tape, config, batch, *args, _real=model_mod.forward,
                    **kwargs):
            sizes.append(batch.size)
            return _real(tape, config, batch, *args, **kwargs)

        monkeypatch.setattr(model_mod, "forward", counted)
        r = fit(train, catalog, cfg)
        steps = cfg.epochs * math.ceil(len(train) / cfg.batch_size)
        assert len(sizes) == r.opt_state.step == steps
        for rows in (100, 64, 0):
            sizes.clear()
            predict(r.params, cfg, test[:rows], r.vocabs, catalog)
            assert sizes == [min(cfg.batch_size, rows - start)
                             for start in range(0, rows, cfg.batch_size)]

    def test_forward_records_no_node(self, setup):
        catalog, train, test = setup
        cfg = ModelConfig(epochs=0, seed=4, history_len=6)
        r = fit(train, catalog, cfg)
        batch = encode_batch(test[:80], r.vocabs, catalog, 6)
        tape = Tape(r.params, record=False)
        out = forward(tape, cfg, batch)
        assert tape._nodes == [] and out.p.node is None
        assert out.p.values.tobytes() == \
            forward(Tape(r.params), cfg, batch).p.values.tobytes()


class TestKVCacheEdges:
    """``predict`` against the per-chunk recording loop, byte for byte,
    where the K/V cache has the fewest rows to work with."""

    @pytest.fixture(scope="class")
    def setup(self):
        return tiny_training_setup(n=300)

    @staticmethod
    def config(variant, batch_size):
        return ModelConfig(epochs=1, seed=4, history_len=6,
                           batch_size=batch_size, **PREDICT_VARIANTS[variant])

    @pytest.mark.parametrize("variant", sorted(PREDICT_VARIANTS))
    @pytest.mark.parametrize("batch_size", [1, 2, 3])
    def test_small_batches(self, setup, variant, batch_size):
        catalog, train, test = setup
        assert_predict_matches_reference(catalog, train, test[:40],
                                         self.config(variant, batch_size),
                                         variant)

    @pytest.mark.parametrize("variant", sorted(PREDICT_VARIANTS))
    @pytest.mark.parametrize("batch_size", [1, 2, 3])
    def test_branches_with_one_position(self, setup, variant, batch_size):
        catalog, train, test = setup
        (a, ca), (b, cb), (c, cc) = zip(train.hist_item[:3],
                                        train.hist_category[:3])
        # five histories, so that chunks of 1, 2 or 3 rows start at every
        # one of them and each mask has chunks with one position
        cycle = [((a, ca, True),), ((b, cb, False),),
                 ((a, ca, True), (b, cb, False), (c, cc, False)), (), ()]
        rows = with_histories(test[:30], cycle * 6)
        cfg = self.config(variant, batch_size)
        batch = encode_batch(rows, build_vocab(train, catalog), catalog,
                             cfg.history_len)
        grids = batch_grids(batch)
        for mask in (grids.mask, grids.mask & ~grids.limited,
                     grids.mask & grids.limited):
            counts = [np.count_nonzero(mask[s:s + batch_size])
                      for s in range(0, len(rows), batch_size)]
            assert 1 in counts
        assert_predict_matches_reference(catalog, train, rows, cfg, variant)

    @pytest.mark.parametrize("variant", sorted(PREDICT_VARIANTS))
    def test_one_distinct_pair(self, setup, variant):
        # every position holds the same (item, category), limited or not:
        # the cache's one real row is computed beside a padding row
        catalog, train, test = setup
        entry = (int(train.hist_item[0]), int(train.hist_category[0]))
        histories = [tuple((*entry, bool(j % 2)) for j in range(i % 5))
                     for i in range(30)]
        assert_predict_matches_reference(
            catalog, train, with_histories(test[:30], histories),
            self.config(variant, 4), variant)

    @pytest.mark.parametrize("variant", sorted(PREDICT_VARIANTS))
    def test_one_distinct_target(self, setup, variant):
        # every impression has the same target: the query table's one
        # real row is computed beside a padding row
        catalog, train, test = setup
        item = int(train.item_id[0])
        rows = table_of([dataclasses.replace(r, item_id=item)
                         for r in test[:30]])
        assert_predict_matches_reference(catalog, train, rows,
                                         self.config(variant, 4), variant)


class TestRowIndependence:
    """The per-item q, k and v tables give a batch the rows of products
    over other row sets.  At the model's shapes a row of a matrix product
    of two or more rows has the same bits in any such product; a one-row
    product takes another kernel, so no table is ever one row."""

    def test_matmul_rows(self):
        rng = np.random.default_rng(41)
        for trial in range(2000):
            d_in, d_out = rng.choice([8, 16], size=2)
            x = rng.normal(size=(int(rng.integers(2, 400)), d_in))
            w = rng.normal(size=(d_in, d_out))
            rows = rng.integers(0, len(x), size=int(rng.integers(2, 300)))
            assert (x[rows] @ w).tobytes() == (x @ w)[rows].tobytes(), trial

    @pytest.mark.parametrize("meta", [False, True])
    def test_branch_kv_rows(self, meta):
        config = ModelConfig()
        params = build_params(config, micro_vocabs(n_items=500, n_cats=9))
        rng = np.random.default_rng(43)

        def kv(item, category):
            tape = Tape(params, record=False)
            return [t.values for t in _branch_kv(
                tape, "att.limited", meta,
                tape.gather_rows(tape.param("emb.item"), item),
                tape.gather_rows(tape.param("emb.category"), category))]

        item = rng.integers(0, 501, size=400)
        category = rng.integers(0, 10, size=400)
        whole = kv(item, category)
        for trial in range(200):
            rows = rng.integers(0, 400, size=int(rng.integers(2, 300)))
            part = kv(item[rows], category[rows])
            for a, b in zip(part, whole):
                assert a.tobytes() == b[rows].tobytes(), trial

    @pytest.mark.parametrize("meta", [False, True])
    def test_branch_query_rows(self, meta):
        # predict's query table holds every distinct target once; the rows
        # a batch reads from it are those of the batch's own table
        config = ModelConfig()
        params = build_params(config, micro_vocabs(n_items=500, n_cats=9))
        rng = np.random.default_rng(45)

        def queries(item, category):
            tape = Tape(params, record=False)
            target = embed_rows(tape, item, category)
            query = _branch_query(tape, meta, target,
                                  tape.concat_cols(list(target)))
            return tape.matmul(query, tape.param("att.limited.wq")).values

        item = rng.integers(0, 501, size=400)
        category = rng.integers(0, 10, size=400)
        whole = queries(item, category)
        for trial in range(200):
            rows = rng.integers(0, 400, size=int(rng.integers(2, 300)))
            assert queries(item[rows], category[rows]).tobytes() == \
                whole[rows].tobytes(), trial

    @pytest.mark.parametrize("variant", sorted(PREDICT_VARIANTS))
    def test_batch_cache_rows(self, variant):
        # the rows a training batch's cache makes for the entries it holds
        # are the whole-table cache's rows, so fit's forward is predict's
        catalog, train, _ = tiny_training_setup(n=300)
        config = ModelConfig(history_len=6, seed=4,
                             **PREDICT_VARIANTS[variant])
        vocabs = build_vocab(train, catalog)
        params = build_params(config, vocabs)
        edit_params(variant, params)
        full = encode_batch(train, vocabs, catalog, config.history_len)
        entries = _history_entries(config, full)
        whole = _entry_kv(Tape(params, record=False), config, entries.pairs)
        rng = np.random.default_rng(44)
        order = rng.permutation(len(train))
        start = 0
        while start < len(train):
            rows = order[start:start + int(rng.integers(1, 40))]
            start += rows.size
            batch = _slice_batch(full, rows)
            cache = _batch_cache(Tape(params), config, entries, batch)
            grids = batch_grids(batch)
            for i, mask in enumerate(branch_masks(config, batch)):
                # each position's entry, found by its (item, category)
                row_of = {pair: row for row, pair in
                          enumerate(zip(*entries.pairs[i]))}
                want = [row_of[pair] for pair in zip(grids.item[mask],
                                                     grids.category[mask])]
                pos = cache.positions[i]
                assert pos.lengths.tolist() == mask.sum(axis=1).tolist()
                for part, all_rows in zip(cache.kv[i], whole[i]):
                    assert part.values[pos.entry_row].tobytes() == \
                        all_rows.values[want].tobytes()


class TestAuxScope:
    """``compute_losses`` takes its aux rows from the last branch's
    limited positions: they are the (item, category, batch row) of the
    mask oracle's ``flatnonzero(seq_mask & seq_limited)``, in row-major
    order, on slices of an encoded table as ``fit`` makes them."""

    @pytest.fixture(scope="class")
    def setup(self):
        return tiny_training_setup(n=300)

    @pytest.mark.parametrize("variant", ["msnet", "msnet_no_split"])
    def test_aux_rows_are_the_oracle_positions(self, setup, variant,
                                                monkeypatch):
        import msnetlab.model as model_mod
        catalog, train, test = setup
        cfg = ModelConfig(history_len=6, seed=4, **PREDICT_VARIANTS[variant])
        vocabs = build_vocab(train, catalog)
        params = build_params(cfg, vocabs)
        # each table row holds its own index, so a gathered row names it
        for name in ("emb.item", "emb.category"):
            table = params.values[name]
            table[:] = np.arange(table.shape[0])[:, None]
        seen = []

        def captured(tape, emb, _real=model_mod.loss_aux):
            seen.append(emb)
            return _real(tape, emb)

        monkeypatch.setattr(model_mod, "loss_aux", captured)
        entry = (int(train.hist_item[0]), int(train.hist_category[0]))
        no_limited = with_histories(test[:8], [((*entry, False),), ()] * 4)
        with_limited = 0
        for rows in (test, no_limited):
            full = encode_batch(rows, vocabs, catalog, cfg.history_len)
            entries = _history_entries(cfg, full)
            for start in range(0, full.size, 32):
                batch = _slice_batch(full, slice(start, start + 32))
                tape = Tape(params)
                out = forward(tape, cfg, batch,
                              _batch_cache(tape, cfg, entries, batch))
                aux = compute_losses(tape, cfg, batch, out)[1]
                grids = batch_grids(batch)
                flat = np.flatnonzero(grids.mask & grids.limited)
                emb = seen.pop()
                assert emb.seq_row.tolist() == \
                    (flat // cfg.history_len).tolist()
                assert emb.seq_id.values[:, 0].tolist() == \
                    grids.item.reshape(-1)[flat].tolist()
                assert emb.seq_side.values[:, 0].tolist() == \
                    grids.category.reshape(-1)[flat].tolist()
                if not flat.size:
                    assert aux.node is None and float(aux.values) == 0.0
                with_limited += bool(flat.size)
        assert with_limited >= 3 and not seen


class TestPerPositionOracle:
    """``forward`` and its losses against the per-position composition
    that the per-entry cache replaced (``helpers.per_position_forward``),
    on encoded batches where every branch holds at least two positions.
    The probabilities and the loss agree byte for byte.  The gradients
    sum a duplicate entry's rows before the K/V product rather than
    after, so they agree within ``RTOL`` of each parameter's largest
    gradient entry; the largest error measured was 1.5e-15."""

    RTOL = 1e-12

    @pytest.fixture(scope="class")
    def setup(self):
        return tiny_training_setup(n=600)

    @staticmethod
    def assert_close(got, want, name):
        scale = np.abs(want).max(initial=0.0)
        err = np.abs(got - want).max(initial=0.0)
        assert err <= TestPerPositionOracle.RTOL * scale, (name, err, scale)

    @pytest.mark.parametrize("variant", sorted(PREDICT_VARIANTS))
    def test_matches_per_position_composition(self, setup, variant):
        catalog, train, test = setup
        cfg = ModelConfig(epochs=1, seed=4, history_len=6, batch_size=32,
                          **PREDICT_VARIANTS[variant])
        r = fit(train, catalog, cfg)
        edit_params(variant, r.params)
        full = encode_batch(test, r.vocabs, catalog, cfg.history_len)
        checked = 0
        for start in range(0, full.size, cfg.batch_size):
            batch = _slice_batch(full, slice(start, start + cfg.batch_size))
            if any(np.count_nonzero(mask) < 2
                   for mask in branch_masks(cfg, batch)):
                continue
            tape = Tape(r.params)
            out = forward(tape, cfg, batch)
            loss = compute_losses(tape, cfg, batch, out)[2]
            oracle = Tape(r.params)
            p, oracle_loss = per_position_forward(oracle, cfg, batch)
            assert out.p.values.tobytes() == p.values.tobytes()
            assert loss.values.tobytes() == oracle_loss.values.tobytes()
            got, want = tape.backward(loss), oracle.backward(oracle_loss)
            for name in r.params.names():
                if name in r.params.embedding_names:
                    assert np.array_equal(got[name].indices,
                                          want[name].indices), name
                    self.assert_close(got[name].rows, want[name].rows, name)
                else:
                    self.assert_close(got[name], want[name], name)
            checked += 1
        assert checked >= 3


class TestCheckpoint:
    def _trained(self, tmp_path):
        catalog, train, test = tiny_training_setup(n=300)
        cfg = ModelConfig(architecture="msnet", epochs=1, seed=9,
                          history_len=6, batch_size=64)
        r = fit(train, catalog, cfg)
        path = tmp_path / "model.ckpt.npz"
        save_checkpoint(path, r.params, r.opt_state, cfg, r.vocabs,
                        dataset_hash="abc123")
        return catalog, cfg, r, test, path

    def test_round_trip_identical_predictions(self, tmp_path):
        catalog, cfg, r, test, path = self._trained(tmp_path)
        ck = load_checkpoint(path)
        assert ck.meta["dataset_hash"] == "abc123"
        a = predict(r.params, cfg, test[:64], r.vocabs, catalog)
        b = predict(ck.params, ck.config, test[:64], ck.vocabs, catalog)
        assert a.p.tobytes() == b.p.tobytes()
        assert ck.opt_state.step == r.opt_state.step
        assert ck.params.dense.tobytes() == r.params.dense.tobytes()
        assert ck.opt_state.acc.dense.tobytes() == \
            r.opt_state.acc.dense.tobytes()
        # a step after loading moves parameters and accumulators as the
        # same step on the in-memory model does
        grads = {n: (SparseRows(np.array([0, 2]), np.full((2, v.shape[1]),
                                                          0.5))
                     if n in r.params.embedding_names else np.full(v.shape,
                                                                   -0.25))
                 for n, v in r.params.values.items()}
        for run in (r, ck):
            optimizer_step(run.params, gradients_of(run.params, grads),
                           run.opt_state, lr=0.1)
        for name in r.params.names():
            assert ck.params.values[name].tobytes() == \
                r.params.values[name].tobytes()
            assert ck.opt_state.acc.values[name].tobytes() == \
                r.opt_state.acc.values[name].tobytes()

    def test_truncated_file_integrity_error(self, tmp_path):
        _, _, _, _, path = self._trained(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError, match="corrupt|checksum"):
            load_checkpoint(path)

    def test_tampered_array_detected(self, tmp_path):
        catalog, cfg, r, test, path = self._trained(tmp_path)
        # re-save with a flipped value but stale checksum by editing bytes:
        # simplest robust tamper is truncate-and-extend
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_old_format_refused_naming_both(self, tmp_path):
        _, _, _, _, path = self._trained(tmp_path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(str(arrays.pop("__meta__")))
        meta["format"] = "ckpt-v1"  # arrays untouched: checksum still valid
        with path.open("wb") as fh:
            np.savez(fh, __meta__=np.asarray(json.dumps(meta)), **arrays)
        with pytest.raises(CheckpointError, match="'ckpt-v1'.*ckpt-v2"):
            load_checkpoint(path)

    def test_config_mismatch_rejected(self, tmp_path):
        _, cfg, _, _, path = self._trained(tmp_path)
        other = ModelConfig(**{**cfg.to_dict(), "mlp_hidden": cfg.mlp_hidden,
                               "d_id": cfg.d_id * 2})
        with pytest.raises(CheckpointError, match="hash"):
            load_checkpoint(path, expected_config=other)
        ck = load_checkpoint(path, expected_config=cfg)
        assert ck.config == cfg


class TestGradientContracts:
    def _setup(self, seed=0):
        rng = np.random.default_rng(seed)
        vocabs = micro_vocabs()
        params = build_params(MICRO_MSNET, vocabs)
        batch = micro_batch(rng)
        return params, batch

    def test_full_model_matches_finite_differences(self):
        params, batch = self._setup()

        def loss_fn(tape):
            out = forward(tape, MICRO_MSNET, batch)
            return compute_losses(tape, MICRO_MSNET, batch, out)[2]

        report = check_gradients(loss_fn, params, h=1e-5, tol=1e-4,
                                 max_entries=25, seed=1)
        assert report.ok(), [
            (c.name, c.max_rel_err) for c in report.failures()]

    def test_batch_without_limited_positions(self):
        # the limited branch, its meta networks and the aux loss all get
        # zero packed rows; the step still runs and matches finite
        # differences
        rng = np.random.default_rng(7)
        params = build_params(MICRO_MSNET, micro_vocabs())
        batch = micro_batch(rng, all_multi=True)
        assert batch.seq_mask.any()

        def loss_fn(tape):
            out = forward(tape, MICRO_MSNET, batch)
            _, aux, total = compute_losses(tape, MICRO_MSNET, batch, out)
            assert aux.node is None and float(aux.values) == 0.0
            return total

        tape = Tape(params)
        grads = tape.backward(loss_fn(tape))
        for name in ("att.limited.wk", "att.limited.wv", "meta.shift.w1"):
            assert not np.any(grads[name]), name
        assert np.any(grads["att.main.wk"])
        report = check_gradients(loss_fn, params, h=1e-5, tol=1e-4,
                                 max_entries=25, seed=2)
        assert report.ok(), [
            (c.name, c.max_rel_err) for c in report.failures()]

    def test_aux_only_gradient_never_reaches_side_table(self):
        params, batch = self._setup(seed=2)
        grids = batch_grids(batch)
        scope = grids.mask & grids.limited
        if not scope.any():
            pytest.skip("need limited positions")
        tape = Tape(params)
        emb = embed(tape, batch, scope)
        aux = loss_aux(tape, emb)
        grads = tape.backward(aux)
        assert not np.any(grads["emb.category"].rows)

    def test_scaling_input_path_blocked(self):
        from msnetlab.seqmodel import scaling_weights
        params, batch = self._setup(seed=3)
        tape = Tape(params)
        emb = embed(tape, batch, batch.seq_mask)
        weights = scaling_weights(tape, emb.seq_id)
        grads = tape.backward(tape.sum_all(weights))
        assert not np.any(grads["emb.item"].rows)

    def test_shifting_input_path_blocked(self):
        from msnetlab.seqmodel import meta_shift
        params, batch = self._setup(seed=4)
        tape = Tape(params)
        emb = embed(tape, batch, batch.seq_mask)
        shifted, _ = meta_shift(tape, emb.seq_side, emb.seq_id)
        loss = tape.sum_all(shifted)
        grads = tape.backward(loss)
        # the side table feeds the shifting net only through the blocked
        # input, so it must receive exactly zero
        assert not np.any(grads["emb.category"].rows)
        # while the id table is on the live blend path
        assert np.any(grads["emb.item"].rows != 0.0)
