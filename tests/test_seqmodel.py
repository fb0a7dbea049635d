"""Sequence split, target attention, meta networks, K/V composition, and
the attention-score diagnostic.

All derived expectations come from plain-numpy oracles defined here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msnetlab.autodiff import ParamStore, Tape, check_gradients
from msnetlab.features import SampleBatch
from msnetlab.seqmodel import (
    ScoreAccumulator,
    add_attention_params,
    add_meta_params,
    compose_kv,
    identity_scaled,
    identity_shifted,
    meta_scale,
    meta_shift,
    physical_split,
    scaling_weights,
    split_sequence,
    target_attention,
)


def make_batch(seq_limited, seq_mask, b=None, h=None, target_limited=None):
    seq_limited = np.asarray(seq_limited, dtype=bool)
    seq_mask = np.asarray(seq_mask, dtype=bool)
    b, h = seq_mask.shape
    return SampleBatch(
        target_item=np.ones(b, dtype=np.int64),
        target_category=np.ones(b, dtype=np.int64),
        seq_item=np.where(seq_mask, 1, 0).astype(np.int64),
        seq_category=np.where(seq_mask, 1, 0).astype(np.int64),
        seq_mask=seq_mask,
        seq_limited=seq_limited & seq_mask,
        labels=np.zeros(b),
        is_new=np.zeros(b, dtype=bool),
        is_limited=(np.asarray(target_limited, dtype=bool)
                    if target_limited is not None
                    else np.zeros(b, dtype=bool)),
    )


def random_batch(rng, b=4, h=6, n_items=9, n_cats=4):
    mask_len = rng.integers(0, h + 1, size=b)
    mask = np.arange(h)[None, :] < mask_len[:, None]
    return SampleBatch(
        target_item=rng.integers(1, n_items, size=b),
        target_category=rng.integers(1, n_cats, size=b),
        seq_item=np.where(mask, rng.integers(1, n_items, size=(b, h)), 0),
        seq_category=np.where(mask, rng.integers(1, n_cats, size=(b, h)), 0),
        seq_mask=mask,
        seq_limited=mask & (rng.random(size=(b, h)) < 0.5),
        labels=rng.integers(0, 2, size=b).astype(float),
        is_new=rng.random(size=b) < 0.2,
        is_limited=rng.random(size=b) < 0.5,
    )


class TestSplitSequence:
    def test_definitional_example(self):
        # flags [L, M, L, pad]
        batch = make_batch(seq_limited=[[True, False, True, False]],
                           seq_mask=[[True, True, True, False]])
        masks = split_sequence(batch)
        np.testing.assert_array_equal(masks.limited, [[1, 0, 1, 0]])
        np.testing.assert_array_equal(masks.multi, [[0, 1, 0, 0]])

    def test_all_limited_leaves_multi_empty(self):
        batch = make_batch(seq_limited=[[True, True]],
                           seq_mask=[[True, True]])
        masks = split_sequence(batch)
        assert not masks.multi.any()
        assert masks.limited.all()

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_masks_partition_validity(self, seed):
        rng = np.random.default_rng(seed)
        batch = random_batch(rng)
        masks = split_sequence(batch)
        assert not np.any(masks.multi & masks.limited)
        np.testing.assert_array_equal(masks.multi | masks.limited,
                                      batch.seq_mask)


def ref_attention(target, keys, values, mask, heads, combine, d_head):
    """Straight-line attention oracle: explicit loops, no tape."""
    b, h_len = mask.shape
    outs = []
    for (wq, wk, wv) in heads:
        q = target @ wq
        k = keys @ wk
        v = values @ wv
        pooled = np.zeros((b, d_head))
        for i in range(b):
            scores = np.array([q[i] @ k[i * h_len + t]
                               for t in range(h_len)]) / math.sqrt(d_head)
            if mask[i].any():
                mx = scores[mask[i]].max()
                e = np.where(mask[i], np.exp(scores - mx), 0.0)
                w = e / e.sum()
            else:
                w = np.zeros(h_len)
            for t in range(h_len):
                pooled[i] += w[t] * v[i * h_len + t]
        outs.append(pooled)
    return np.concatenate(outs, axis=1) @ combine


def attention_fixture(rng, b, h, d_in, n_heads, d_head):
    params = ParamStore()
    add_attention_params(params, "att", d_in, n_heads, d_head, rng)
    target = rng.normal(size=(b, d_in))
    keys = rng.normal(size=(b * h, d_in))
    values = rng.normal(size=(b * h, d_in))
    return params, target, keys, values


class TestTargetAttention:
    def test_single_valid_item_passes_value_through(self):
        # softmax over one unmasked key is weight 1, so the interest is
        # combine(Wv . value_row)
        rng = np.random.default_rng(0)
        params, target, keys, values = attention_fixture(rng, 1, 1, 3, 1, 4)
        tape = Tape(params)
        res = target_attention(tape, "att", Tape.constant(target),
                               Tape.constant(keys), Tape.constant(values),
                               np.array([[True]]), 1, 4)
        want = (values @ params.values["att.wv"]) @ params.values["att.combine"]
        np.testing.assert_allclose(res.interest.values, want, rtol=1e-12)

    def test_identical_keys_split_weight_evenly(self):
        rng = np.random.default_rng(1)
        params, target, keys, values = attention_fixture(rng, 1, 2, 3, 1, 4)
        keys[1] = keys[0]
        tape = Tape(params)
        res = target_attention(tape, "att", Tape.constant(target),
                               Tape.constant(keys), Tape.constant(values),
                               np.ones((1, 2), dtype=bool), 1, 4)
        assert res.scores[0, 0] == res.scores[1, 0]
        avg_v = 0.5 * (values[0] + values[1])
        want = (avg_v @ params.values["att.wv"]) @ params.values["att.combine"]
        np.testing.assert_allclose(res.interest.values[0], want, rtol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        b, h, d_in, n_heads, d_head = 3, 4, 5, 2, 3
        params, target, keys, values = attention_fixture(
            rng, b, h, d_in, n_heads, d_head)
        mask = rng.random(size=(b, h)) < 0.6
        cols = [slice(i * d_head, (i + 1) * d_head) for i in range(n_heads)]
        heads = [(params.values["att.wq"][:, c], params.values["att.wk"][:, c],
                  params.values["att.wv"][:, c]) for c in cols]
        want = ref_attention(target, keys, values, mask, heads,
                             params.values["att.combine"], d_head)
        tape = Tape(params)
        packed = mask.reshape(-1)
        res = target_attention(tape, "att", Tape.constant(target),
                               Tape.constant(keys[packed]),
                               Tape.constant(values[packed]),
                               mask, n_heads, d_head)
        np.testing.assert_allclose(res.interest.values, want, rtol=1e-10,
                                   atol=1e-12)

    def test_hand_computed_1x2x2_single_head(self):
        # B=1, H=2, D=2, one head, hand-set weights; the oracle spells out
        # every intermediate number
        params = ParamStore()
        params.add("att.wq", np.array([[1.0, 0.0], [0.0, 1.0]]))
        params.add("att.wk", np.array([[1.0, 0.0], [0.0, 1.0]]))
        params.add("att.wv", np.array([[2.0, 0.0], [0.0, 2.0]]))
        params.add("att.combine", np.eye(2))
        target = np.array([[1.0, 2.0]])
        keys = np.array([[1.0, 0.0], [0.0, 1.0]])
        values = np.array([[1.0, 1.0], [3.0, -1.0]])
        # q = [1,2]; scores = (q.k1, q.k2)/sqrt(2) = (1, 2)/1.41421...
        s = np.array([1.0, 2.0]) / math.sqrt(2.0)
        e = np.exp(s - s.max())
        w = e / e.sum()
        want = (w[0] * values[0] + w[1] * values[1]) * 2.0
        tape = Tape(params)
        res = target_attention(tape, "att", Tape.constant(target),
                               Tape.constant(keys), Tape.constant(values),
                               np.ones((1, 2), dtype=bool), 1, 2)
        np.testing.assert_allclose(res.scores[:, 0], s, rtol=1e-15)
        np.testing.assert_allclose(res.interest.values[0], want, rtol=1e-12)

    def test_all_masked_rows_zero_interest(self):
        rng = np.random.default_rng(3)
        params, target, keys, values = attention_fixture(rng, 2, 3, 4, 2, 3)
        mask = np.zeros((2, 3), dtype=bool)
        mask[1, 0] = True
        tape = Tape(params)
        packed = mask.reshape(-1)
        res = target_attention(tape, "att", Tape.constant(target),
                               Tape.constant(keys[packed]),
                               Tape.constant(values[packed]),
                               mask, 2, 3)
        np.testing.assert_array_equal(res.interest.values[0],
                                      np.zeros_like(res.interest.values[0]))
        assert np.any(res.interest.values[1] != 0.0)

    def test_large_scores_do_not_overflow(self):
        # scores near 1000 must pool like the max-subtracted oracle
        rng = np.random.default_rng(5)
        b, h, d_in = 2, 3, 4
        params, target, keys, values = attention_fixture(rng, b, h, d_in,
                                                         1, 2)
        params.values["att.wq"][:] = 0.0
        params.values["att.wk"][:] = 0.0
        params.values["att.wq"][0, :] = 1.0
        params.values["att.wk"][0, :] = 1.0
        # q = [40, 40] and k = [x, x] give the score 80 x / sqrt(2), so
        # x near 1000 / (40 sqrt(2)) puts every score near 1000
        target[:, 0] = 40.0
        keys[:, 0] = 1000.0 / (40.0 * math.sqrt(2.0)) + rng.normal(size=b * h)
        mask = np.array([[True, True, True], [True, False, True]])
        want = ref_attention(target, keys, values, mask,
                             [(params.values["att.wq"],
                               params.values["att.wk"],
                               params.values["att.wv"])],
                             params.values["att.combine"], 2)
        tape = Tape(params)
        packed = mask.reshape(-1)
        res = target_attention(tape, "att", Tape.constant(target),
                               Tape.constant(keys[packed]),
                               Tape.constant(values[packed]), mask, 1, 2)
        assert np.abs(res.scores[:, 0]).min() > 900.0
        assert np.isfinite(res.interest.values).all()
        np.testing.assert_allclose(res.interest.values, want, rtol=1e-12)

    def test_raw_scores_exact_zero_outside_mask(self):
        rng = np.random.default_rng(6)
        b, h, d_in, n_heads, d_head = 3, 4, 5, 2, 3
        params, target, keys, values = attention_fixture(
            rng, b, h, d_in, n_heads, d_head)
        mask = np.array([[True, False, True, False], [False] * 4,
                         [False, True, True, True]])
        tape = Tape(params)
        packed = mask.reshape(-1)
        res = target_attention(tape, "att", Tape.constant(target),
                               Tape.constant(keys[packed]),
                               Tape.constant(values[packed]),
                               mask, n_heads, d_head)
        assert res.scores.shape == (mask.sum(), n_heads)
        for i, scores in enumerate(res.scores.T):
            c = slice(i * d_head, (i + 1) * d_head)
            q = target @ params.values["att.wq"][:, c]
            k = (keys @ params.values["att.wk"][:, c]).reshape(b, h, d_head)
            want = np.einsum("bd,bhd->bh", q, k) / math.sqrt(d_head)
            np.testing.assert_allclose(scores, want[mask], rtol=1e-12)
        np.testing.assert_array_equal(res.interest.values[1],
                                      np.zeros(n_heads * d_head))

    def test_matches_finite_differences(self):
        # through every attention parameter and the packed keys/values,
        # with a row whose mask is empty
        rng = np.random.default_rng(7)
        b, h, d_in = 3, 4, 3
        params, target, keys, values = attention_fixture(rng, b, h, d_in,
                                                         2, 2)
        mask = np.array([[True, True, False, True], [False] * 4,
                         [False, True, False, False]])
        packed = mask.reshape(-1)
        params.add("keys", keys[packed])
        params.add("values", values[packed])
        w = rng.normal(size=(b, 4))

        def loss_fn():
            tape = Tape(params)
            res = target_attention(tape, "att", Tape.constant(target),
                                   tape.param("keys"), tape.param("values"),
                                   mask, 2, 2)
            return tape, tape.sum_all(tape.mul(res.interest,
                                               Tape.constant(w)))

        report = check_gradients(loss_fn, params, h=1e-6, tol=1e-6)
        assert report.ok(), report.failures()
        assert not any(c.blocked for c in report.checks.values())

    def test_shape_mismatch_raises(self):
        rng = np.random.default_rng(4)
        params, target, keys, values = attention_fixture(rng, 2, 3, 4, 1, 3)
        with pytest.raises(ValueError, match="mismatch"):
            tape = Tape(params)
            target_attention(tape, "att", Tape.constant(target),
                             Tape.constant(keys[:-1]), Tape.constant(values),
                             np.ones((2, 3), dtype=bool), 1, 3)


def meta_fixture(rng, n=6, d_id=3, d_side=2, hidden=4):
    params = ParamStore()
    add_meta_params(params, d_id, d_side, hidden, rng)
    id_emb = rng.normal(size=(n, d_id))
    side_emb = rng.normal(size=(n, d_side))
    return params, id_emb, side_emb


class TestMetaScale:
    def test_forced_ones_is_identity(self):
        rng = np.random.default_rng(0)
        params, id_emb, side_emb = meta_fixture(rng)
        # zero final layer and bias: sigmoid(0)*2 = 1 exactly
        params.values["meta.scale.w2"][:] = 0.0
        params.values["meta.scale.b2"][:] = 0.0
        tape = Tape(params)
        out = meta_scale(tape, Tape.constant(id_emb), Tape.constant(side_emb))
        np.testing.assert_array_equal(out.values, side_emb * 1.0)

    def test_forced_negative_saturation_is_zero(self):
        rng = np.random.default_rng(1)
        params, id_emb, side_emb = meta_fixture(rng)
        params.values["meta.scale.w2"][:] = 0.0
        params.values["meta.scale.b2"][:] = -800.0  # sigmoid underflows to 0
        tape = Tape(params)
        out = meta_scale(tape, Tape.constant(id_emb), Tape.constant(side_emb))
        np.testing.assert_array_equal(out.values,
                                      np.zeros_like(side_emb))

    def test_blocked_input_gradient(self):
        # the scaling path must push exactly zero gradient into the id
        # embedding, even though finite differences would see an effect
        rng = np.random.default_rng(2)
        params, id_emb, side_emb = meta_fixture(rng)
        params.add("ids", id_emb.copy())
        tape = Tape(params)
        out = meta_scale(tape, tape.param("ids"), Tape.constant(side_emb))
        grads = tape.backward(tape.sum_all(out))
        assert np.all(grads["ids"] == 0.0)
        # sanity: the net weights do receive gradient
        assert np.any(grads["meta.scale.w2"] != 0.0)


class TestMetaShift:
    def test_zero_meta_returns_original(self):
        rng = np.random.default_rng(3)
        params, id_emb, side_emb = meta_fixture(rng)
        params.values["meta.shift.w2"][:] = 0.0
        params.values["meta.shift.b2"][:] = 0.0
        tape = Tape(params)
        out, v = meta_shift(tape, Tape.constant(side_emb),
                            Tape.constant(id_emb))
        np.testing.assert_array_equal(v.values, np.zeros(len(id_emb)))
        np.testing.assert_array_equal(out.values, id_emb)

    def test_zero_id_takes_meta(self):
        rng = np.random.default_rng(4)
        params, id_emb, side_emb = meta_fixture(rng)
        zero_id = np.zeros_like(id_emb)
        tape = Tape(params)
        out, v = meta_shift(tape, Tape.constant(side_emb),
                            Tape.constant(zero_id))
        meta_vals = out.values  # with v ~ 1 the blend is ~ the meta id
        np.testing.assert_allclose(v.values, np.ones(len(id_emb)), atol=1e-9)
        # recompute the meta id through the net to compare
        tape2 = Tape(params)
        h = np.maximum(side_emb @ params.values["meta.shift.w1"]
                       + params.values["meta.shift.b1"], 0.0) + \
            0.01 * np.minimum(side_emb @ params.values["meta.shift.w1"]
                              + params.values["meta.shift.b1"], 0.0)
        meta_ref = h @ params.values["meta.shift.w2"] \
            + params.values["meta.shift.b2"]
        np.testing.assert_allclose(meta_vals, meta_ref, rtol=1e-9)

    def test_blocked_side_gradient(self):
        rng = np.random.default_rng(5)
        params, id_emb, side_emb = meta_fixture(rng)
        params.add("sides", side_emb.copy())
        tape = Tape(params)
        out, _ = meta_shift(tape, tape.param("sides"), Tape.constant(id_emb))
        grads = tape.backward(tape.sum_all(out))
        assert np.all(grads["sides"] == 0.0)
        assert np.any(grads["meta.shift.w2"] != 0.0)


class TestComposeKV:
    def test_shapes(self):
        rng = np.random.default_rng(0)
        n = 5
        seq_id = Tape.constant(rng.normal(size=(n, 4)))
        seq_side = Tape.constant(rng.normal(size=(n, 4)))
        tape = Tape()
        k, v = compose_kv(tape, seq_id, seq_side, seq_side, seq_id)
        assert k.values.shape == (n, 8)
        assert v.values.shape == (n, 8)

    def test_identity_modes_degenerate_to_raw_item(self):
        # scaling forced to 1 and shifting forced to the raw id must give
        # K == V == concat(id, side) bit for bit
        rng = np.random.default_rng(1)
        params, id_emb, side_emb = meta_fixture(rng, n=5)
        tape = Tape(params)
        tid = Tape.constant(id_emb)
        tside = Tape.constant(side_emb)
        scaled = identity_scaled(tape, tside)
        shifted, v = identity_shifted(tape, tside, tid)
        k, vv = compose_kv(tape, tid, tside, scaled, shifted)
        e_item = np.concatenate([id_emb, side_emb], axis=1)
        assert k.values.tobytes() == e_item.tobytes()
        assert vv.values.tobytes() == e_item.tobytes()
        assert np.all(v.values == 0.0)

    def test_hand_1x2_case(self):
        # literal check of the K/V layout on a 1-row, 2-dim example
        tape = Tape()
        seq_id = Tape.constant([[1.0, 2.0]])
        seq_side = Tape.constant([[3.0, 4.0]])
        scaled_side = Tape.constant([[30.0, 40.0]])
        shifted_id = Tape.constant([[10.0, 20.0]])
        k, v = compose_kv(tape, seq_id, seq_side, scaled_side, shifted_id)
        np.testing.assert_array_equal(k.values, [[1.0, 2.0, 30.0, 40.0]])
        np.testing.assert_array_equal(v.values, [[10.0, 20.0, 3.0, 4.0]])


class TestPhysicalMaskEquivalence:
    def test_physical_and_masked_split_agree_bitwise(self):
        rng = np.random.default_rng(17)
        params = ParamStore()
        d_in = 4
        add_attention_params(params, "att", d_in, 2, 3, rng)
        table = rng.normal(size=(12, d_in))
        for trial in range(30):
            batch = random_batch(rng, b=3, h=5, n_items=12)
            keep = split_sequence(batch).limited
            phys = physical_split(batch, keep)
            np.testing.assert_array_equal(phys.seq_mask, keep)
            outs = []
            for seq_items, mask in ((batch.seq_item, keep),
                                    (phys.seq_item, phys.seq_mask)):
                e_seq = Tape.constant(
                    table[seq_items.reshape(-1)[mask.reshape(-1)]])
                e_t = Tape.constant(table[batch.target_item])
                tape = Tape(params)
                res = target_attention(tape, "att", e_t, e_seq, e_seq, mask,
                                       2, 3)
                outs.append(res.interest.values.tobytes())
            assert outs[0] == outs[1], f"trial {trial} diverged"


def grid_add_batch(acc, scores, target_limited, seq_limited, mask):
    """Oracle: spread the packed [P, n_heads] scores over padded [B, H]
    grids, one per head, and bucket each grid row by row."""
    mask = np.asarray(mask, dtype=bool)
    grid = np.zeros((scores.shape[1],) + mask.shape)
    grid[:, mask] = scores.T
    for head in grid:
        for t_flag, t_name in ((False, "multi"), (True, "limited")):
            rows = np.asarray(target_limited, dtype=bool) == t_flag
            if not rows.any():
                continue
            for s_flag, s_name in ((False, "multi"), (True, "limited")):
                sel = mask[rows] & (np.asarray(seq_limited,
                                               dtype=bool)[rows] == s_flag)
                vals = head[rows][sel]
                acc.sums[(t_name, s_name)] += float(vals.sum())
                acc.counts[(t_name, s_name)] += int(vals.size)


class TestScoreAccumulator:
    def test_bucketed_means(self):
        acc = ScoreAccumulator()
        # one head; with a full mask the packed rows are the [B, H] grid
        # in row-major order
        scores = np.array([[0.3], [0.1], [0.09], [0.07]])
        target_limited = np.array([False, True])
        seq_limited = np.array([[False, True], [False, True]])
        mask = np.ones((2, 2), dtype=bool)
        acc.add_batch(scores, target_limited, seq_limited, mask)
        scores2 = np.array([[0.4], [0.24]])
        acc.add_batch(scores2, np.array([False]),
                      np.array([[False, True]]), np.ones((1, 2), dtype=bool))
        table = acc.table()
        assert table.means[("multi", "multi")] == pytest.approx(0.35)
        assert table.means[("multi", "limited")] == pytest.approx(0.17)
        assert table.means[("limited", "multi")] == pytest.approx(0.09)
        assert table.means[("limited", "limited")] == pytest.approx(0.07)

    def test_identical_scores_give_equal_cells(self):
        acc = ScoreAccumulator()
        scores = np.full((12, 1), 0.42)
        tl = np.array([False, True, False, True])
        sl = np.array([[False, True, False]] * 4)
        acc.add_batch(scores, tl, sl, np.ones((4, 3), dtype=bool))
        table = acc.table()
        vals = [v for v in table.means.values()]
        assert all(v == pytest.approx(0.42) for v in vals)

    def test_single_bucket_leaves_others_absent(self):
        acc = ScoreAccumulator()
        scores = np.array([[1.0], [2.0]])
        acc.add_batch(scores, np.array([False]),
                      np.array([[False, False]]), np.ones((1, 2), dtype=bool))
        table = acc.table()
        assert table.means[("multi", "multi")] == pytest.approx(1.5)
        assert table.means[("multi", "limited")] is None
        assert table.means[("limited", "multi")] is None
        assert table.counts[("limited", "limited")] == 0

    def test_matches_grid_oracle_bitwise(self):
        rng = np.random.default_rng(23)
        acc, oracle = ScoreAccumulator(), ScoreAccumulator()
        for trial in range(40):
            b, h = rng.integers(1, 41), rng.integers(1, 21)
            mask = rng.random(size=(b, h)) < rng.random()
            target_limited = rng.random(size=b) < rng.random()
            seq_limited = rng.random(size=(b, h)) < 0.5
            scores = rng.normal(scale=3.0,
                                size=(int(mask.sum()), rng.integers(1, 4)))
            acc.add_batch(scores, target_limited, seq_limited, mask)
            grid_add_batch(oracle, scores, target_limited, seq_limited, mask)
            got, want = acc.table(), oracle.table()
            assert got.counts == want.counts, f"trial {trial}"
            assert repr(got.means) == repr(want.means), f"trial {trial}"
            assert repr(acc.sums) == repr(oracle.sums), f"trial {trial}"
