"""Sequence split, target attention, meta networks, K/V composition, and
the attention-score diagnostic.

All derived expectations come from plain-numpy oracles defined here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msnetlab.autodiff import AutodiffError, ParamStore, Tape, check_gradients
from msnetlab.model import ModelConfig, _history_entries, _positions
from msnetlab.seqmodel import (
    ScoreAccumulator,
    add_attention_params,
    add_meta_params,
    compose_kv,
    meta_scale,
    meta_shift,
    project_kv,
    scaling_weights,
    target_attention,
)

from helpers import (
    add_batch_by_mask,
    batch_grids,
    branch_masks,
    grid_batch,
    physical_split,
    sum_all,
    zero_meta_outputs,
)

# a model with the stock split: a multi branch, then a limited branch
SPLIT = ModelConfig(architecture="msnet")


def make_batch(seq_limited, seq_mask, seq_item=None, target_limited=None):
    seq_limited = np.asarray(seq_limited, dtype=bool)
    seq_mask = np.asarray(seq_mask, dtype=bool)
    b, h = seq_mask.shape
    if seq_item is None:
        seq_item = np.where(seq_mask, 1, 0)
    return grid_batch(
        target_item=np.ones(b, dtype=np.int64),
        target_category=np.ones(b, dtype=np.int64),
        seq_item=seq_item,
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
    return grid_batch(
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


def split_of(batch):
    """Each branch's positions as the split model takes them from
    ``batch``'s history store: per position its item and stock flag, and
    per row its position count."""
    entries = _history_entries(SPLIT, batch)
    return [(item[pos.entry_row], pos.limited, pos.lengths)
            for (item, _), pos in zip(entries.pairs,
                                      _positions(entries, batch.history))]


class TestSplitSequence:
    def test_definitional_example(self):
        # flags [L, M, L, pad]
        batch = make_batch(seq_limited=[[True, False, True, False]],
                           seq_mask=[[True, True, True, False]],
                           seq_item=[[5, 6, 7, 0]])
        (multi, multi_flags, multi_len), (lim, lim_flags, lim_len) = \
            split_of(batch)
        np.testing.assert_array_equal(lim, [5, 7])
        np.testing.assert_array_equal(lim_flags, [True, True])
        np.testing.assert_array_equal(lim_len, [2])
        np.testing.assert_array_equal(multi, [6])
        np.testing.assert_array_equal(multi_flags, [False])
        np.testing.assert_array_equal(multi_len, [1])

    def test_all_limited_leaves_multi_empty(self):
        batch = make_batch(seq_limited=[[True, True]],
                           seq_mask=[[True, True]])
        (multi, _, multi_len), (lim, lim_flags, lim_len) = split_of(batch)
        assert multi.size == 0 and multi_len.tolist() == [0]
        assert lim_flags.all() and lim_len.tolist() == [2]

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_masks_partition_validity(self, seed):
        # each branch holds, row by row, the positions of its oracle mask
        # over the padded grids, and the two masks partition the valid ones
        rng = np.random.default_rng(seed)
        batch = random_batch(rng)
        grids = batch_grids(batch)
        multi, limited = branch_masks(SPLIT, batch)
        assert not np.any(multi & limited)
        np.testing.assert_array_equal(multi | limited, batch.seq_mask)
        for (item, flags, lengths), mask in zip(split_of(batch),
                                                (multi, limited)):
            np.testing.assert_array_equal(item, grids.item[mask])
            np.testing.assert_array_equal(flags, grids.limited[mask])
            np.testing.assert_array_equal(lengths, mask.sum(axis=1))


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


def attend(tape, target, k, v, mask, n_heads, d_head):
    """Branch "att"'s ``target_attention`` of the ``target`` rows over the
    projected keys and values ``k``/``v`` of ``mask``'s True positions,
    packed row by row: one query row per batch row, one k/v row per
    position."""
    mask = np.asarray(mask, dtype=bool)
    q = tape.matmul(target, tape.param("att.wq"))
    return target_attention(tape, "att", q, np.arange(mask.shape[0]), k, v,
                            np.arange(k.values.shape[0]), mask.sum(axis=1),
                            n_heads, d_head)


class TestTargetAttention:
    def test_single_valid_item_passes_value_through(self):
        # softmax over one unmasked key is weight 1, so the interest is
        # combine(Wv . value_row)
        rng = np.random.default_rng(0)
        params, target, keys, values = attention_fixture(rng, 1, 1, 3, 1, 4)
        tape = Tape(params)
        res = attend(tape, Tape.constant(target),
                     *project_kv(tape, "att", Tape.constant(keys),
                                 Tape.constant(values)),
                     np.array([[True]]), 1, 4)
        want = (values @ params.values["att.wv"]) @ params.values["att.combine"]
        np.testing.assert_allclose(res.interest.values, want, rtol=1e-12)

    def test_identical_keys_split_weight_evenly(self):
        rng = np.random.default_rng(1)
        params, target, keys, values = attention_fixture(rng, 1, 2, 3, 1, 4)
        keys[1] = keys[0]
        tape = Tape(params)
        res = attend(tape, Tape.constant(target),
                     *project_kv(tape, "att", Tape.constant(keys),
                                 Tape.constant(values)),
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
        k, v = project_kv(tape, "att", Tape.constant(keys[packed]),
                          Tape.constant(values[packed]))
        res = attend(tape, Tape.constant(target), k, v,
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
        res = attend(tape, Tape.constant(target),
                     *project_kv(tape, "att", Tape.constant(keys),
                                 Tape.constant(values)),
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
        k, v = project_kv(tape, "att", Tape.constant(keys[packed]),
                          Tape.constant(values[packed]))
        res = attend(tape, Tape.constant(target), k, v,
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
        k, v = project_kv(tape, "att", Tape.constant(keys[packed]),
                          Tape.constant(values[packed]))
        res = attend(tape, Tape.constant(target), k, v, mask, 1, 2)
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
        k, v = project_kv(tape, "att", Tape.constant(keys[packed]),
                          Tape.constant(values[packed]))
        res = attend(tape, Tape.constant(target), k, v,
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

        def loss_fn(tape):
            res = attend(tape, Tape.constant(target),
                         *project_kv(tape, "att", tape.param("keys"),
                                     tape.param("values")),
                         mask, 2, 2)
            return sum_all(tape, tape.mul(res.interest, Tape.constant(w)))

        report = check_gradients(loss_fn, params, h=1e-6, tol=1e-6)
        assert report.ok(), report.failures()
        assert not any(c.blocked for c in report.checks.values())

    def test_shape_mismatch_raises(self):
        rng = np.random.default_rng(4)
        params, target, keys, values = attention_fixture(rng, 2, 3, 4, 1, 3)
        with pytest.raises(AutodiffError, match="mismatch"):
            tape = Tape(params)
            attend(tape, Tape.constant(target),
                   *project_kv(tape, "att", Tape.constant(keys[:-1]),
                               Tape.constant(values)),
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
        grads = tape.backward(sum_all(tape, out))
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
        grads = tape.backward(sum_all(tape, out))
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
        # meta nets with zeroed output layers scale by exactly 1 and shift
        # by exactly 0, so K == V == concat(id, side) bit for bit
        rng = np.random.default_rng(1)
        params, id_emb, side_emb = meta_fixture(rng, n=5)
        zero_meta_outputs(params)
        tape = Tape(params)
        tid = Tape.constant(id_emb)
        tside = Tape.constant(side_emb)
        scaled = meta_scale(tape, tid, tside)
        shifted, v = meta_shift(tape, tside, tid)
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
            keep = branch_masks(SPLIT, batch)[1]
            phys = physical_split(batch, keep)
            grids, phys_grids = batch_grids(batch), batch_grids(phys)
            np.testing.assert_array_equal(phys.seq_mask.sum(axis=1),
                                          keep.sum(axis=1))
            np.testing.assert_array_equal(phys_grids.item[phys.seq_mask],
                                          grids.item[keep])
            outs = []
            for seq_items, mask in ((grids.item, keep),
                                    (phys_grids.item, phys.seq_mask)):
                e_seq = Tape.constant(
                    table[seq_items.reshape(-1)[mask.reshape(-1)]])
                e_t = Tape.constant(table[batch.target_item])
                tape = Tape(params)
                k, v = project_kv(tape, "att", e_seq, e_seq)
                res = attend(tape, e_t, k, v, mask, 2, 3)
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
        # one head; each packed position's target and sequence flags
        scores = np.array([[0.3], [0.1], [0.09], [0.07]])
        acc.add_batch(scores, np.array([False, False, True, True]),
                      np.array([False, True, False, True]))
        scores2 = np.array([[0.4], [0.24]])
        acc.add_batch(scores2, np.array([False, False]),
                      np.array([False, True]))
        table = acc.table()
        assert table.means[("multi", "multi")] == pytest.approx(0.35)
        assert table.means[("multi", "limited")] == pytest.approx(0.17)
        assert table.means[("limited", "multi")] == pytest.approx(0.09)
        assert table.means[("limited", "limited")] == pytest.approx(0.07)

    def test_identical_scores_give_equal_cells(self):
        acc = ScoreAccumulator()
        scores = np.full((12, 1), 0.42)
        tl = np.repeat([False, True, False, True], 3)
        sl = np.array([False, True, False] * 4)
        acc.add_batch(scores, tl, sl)
        table = acc.table()
        vals = [v for v in table.means.values()]
        assert all(v == pytest.approx(0.42) for v in vals)

    def test_single_bucket_leaves_others_absent(self):
        acc = ScoreAccumulator()
        scores = np.array([[1.0], [2.0]])
        acc.add_batch(scores, np.array([False, False]),
                      np.array([False, False]))
        table = acc.table()
        assert table.means[("multi", "multi")] == pytest.approx(1.5)
        assert table.means[("multi", "limited")] is None
        assert table.means[("limited", "multi")] is None
        assert table.counts[("limited", "limited")] == 0

    def test_matches_grid_oracle_bitwise(self):
        # packed flags, and the mask-based oracle that reads them from
        # grids, against the oracle that spreads scores over grids
        rng = np.random.default_rng(23)
        acc, by_mask, oracle = (ScoreAccumulator(), ScoreAccumulator(),
                                ScoreAccumulator())
        for trial in range(40):
            b, h = rng.integers(1, 41), rng.integers(1, 21)
            mask = rng.random(size=(b, h)) < rng.random()
            target_limited = rng.random(size=b) < rng.random()
            seq_limited = rng.random(size=(b, h)) < 0.5
            scores = rng.normal(scale=3.0,
                                size=(int(mask.sum()), rng.integers(1, 4)))
            flat = np.flatnonzero(mask)
            acc.add_batch(scores, target_limited[flat // h],
                          seq_limited.reshape(-1)[flat])
            add_batch_by_mask(by_mask, scores, target_limited, seq_limited,
                              mask)
            grid_add_batch(oracle, scores, target_limited, seq_limited, mask)
            want = oracle.table()
            for got in (acc, by_mask):
                assert got.table().counts == want.counts, f"trial {trial}"
                assert repr(got.table().means) == repr(want.means), \
                    f"trial {trial}"
                assert repr(got.sums) == repr(oracle.sums), f"trial {trial}"
