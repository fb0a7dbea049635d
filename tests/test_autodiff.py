"""Tests for the tape engine.

Derived expectations are computed by independent oracles inside the tests:
plain-numpy forward math and central finite differences, never the tape
itself.
"""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msnetlab.autodiff import (
    AutodiffError,
    COSINE_EPS,
    LEAKY_SLOPE,
    ParamStore,
    SegmentRuns,
    SparseRows,
    Tape,
    Tensor,
    _head_blocks,
    _merge_sparse,
    check_gradients,
    leaky_relu,
    sigmoid,
    sum_rows_by_index,
)
import helpers
from helpers import (
    attention_oracle,
    per_name_gradients,
    segment_runs,
    segment_softmax,
    segment_sum,
    sum_all,
)


def fd_grad(loss_of_theta, theta, h=1e-5):
    """Central-difference gradient oracle, independent of the tape."""
    theta = np.asarray(theta, dtype=np.float64)
    g = np.zeros_like(theta)
    flat = theta.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        up = loss_of_theta(theta)
        flat[i] = old - h
        down = loss_of_theta(theta)
        flat[i] = old
        gflat[i] = (up - down) / (2.0 * h)
    return g


def rel_err(a, b, floor=1e-6):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


class TestGatherRows:
    def test_forward_row_copy(self):
        tape = Tape()
        table = Tape.constant([[1.0, 2.0], [3.0, 4.0]])
        out = tape.gather_rows(table, [1, 0, 1])
        np.testing.assert_array_equal(out.values,
                                      [[3.0, 4.0], [1.0, 2.0], [3.0, 4.0]])

    def test_backward_sums_duplicate_rows(self):
        # hand-summed: index 1 appears twice, so its row gradient is
        # [1,1]+[1,1] = [2,2]; index 0 appears once -> [1,1]
        params = ParamStore()
        params.add("t", np.array([[1.0, 2.0], [3.0, 4.0]]), embedding=True)
        tape = Tape(params)
        out = tape.gather_rows(tape.param("t"), [1, 0, 1])
        loss = sum_all(tape, out)
        grads = tape.backward(loss)
        g = grads["t"]
        assert isinstance(g, SparseRows)
        np.testing.assert_array_equal(g.indices, [0, 1])
        np.testing.assert_array_equal(g.rows, [[1.0, 1.0], [2.0, 2.0]])

    def test_empty_indices(self):
        params = ParamStore()
        params.add("t", np.ones((3, 2)), embedding=True)
        tape = Tape(params)
        out = tape.gather_rows(tape.param("t"), [])
        assert out.values.shape == (0, 2)
        other = tape.gather_rows(tape.param("t"), [1])
        grads = tape.backward(sum_all(tape, other))
        np.testing.assert_array_equal(grads["t"].indices, [1])

    def test_out_of_range_names_index_and_table(self):
        tape = Tape()
        table = Tape.constant(np.ones((2, 2)))
        with pytest.raises(AutodiffError, match="index 5.*lookup"):
            tape.gather_rows(table, [0, 5], table_name="lookup")

    def test_gradient_mass_conserved(self):
        # sum of all sparse row gradients equals the sum of upstream grads
        rng = np.random.default_rng(7)
        for _ in range(20):
            rows = rng.integers(2, 9)
            n = rng.integers(1, 30)
            params = ParamStore()
            params.add("t", rng.normal(size=(rows, 3)), embedding=True)
            idx = rng.integers(0, rows, size=n)
            weights = rng.normal(size=n)
            upstream = weights[:, None] * np.ones((n, 3))
            tape = Tape(params)
            out = tape.gather_rows(tape.param("t"), idx)
            loss = sum_all(tape, tape.mul(out, Tape.constant(upstream)))
            grads = tape.backward(loss)
            np.testing.assert_allclose(grads["t"].rows.sum(axis=0),
                                       upstream.sum(axis=0), atol=1e-12)


class TestSumRowsByIndex:
    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_add_at(self, seed):
        # few slots, so ids repeat; magnitudes spread over 24 decades, so
        # any change in the order of addition changes the bits
        rng = np.random.default_rng(seed)
        n, d, slots = (int(rng.integers(0, 60)), int(rng.integers(1, 6)),
                       int(rng.integers(1, 8)))
        idx = rng.integers(0, slots, size=n)
        rows = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-12, 12,
                                                             size=(n, d))
        want = np.zeros((slots, d))
        np.add.at(want, idx, rows)
        got = sum_rows_by_index(idx, rows, slots)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    def test_dense_gather_backward_sums_duplicates(self):
        params = ParamStore()
        params.add("t", np.zeros((3, 2)))
        w = np.array([[1.0, 2.0], [1e-17, 3.0], [1.0, -1.0], [1e17, 0.5]])
        tape = Tape(params)
        out = tape.gather_rows(tape.param("t"), [2, 0, 2, 2])
        grads = tape.backward(sum_all(tape, tape.mul(out, Tape.constant(w))))
        want = np.zeros((3, 2))
        np.add.at(want, [2, 0, 2, 2], w)
        assert grads["t"].tobytes() == want.tobytes()


class TestSegmentSum:
    def test_forward_sums_rows_into_zero_matrix(self):
        # rows of one segment add up; segments with no rows stay zero
        tape = Tape()
        x = Tape.constant([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = segment_sum(tape, x, [0, 3, 3], 4)
        np.testing.assert_array_equal(
            out.values, [[1.0, 2.0], [0.0, 0.0], [0.0, 0.0], [8.0, 10.0]])

    def test_backward_picks_rows(self):
        # d/dx sum(w * segment_sum(x)) = w[seg], exactly
        params = ParamStore()
        params.add("x", np.ones((3, 2)))
        w = np.arange(8.0).reshape(4, 2)
        tape = Tape(params)
        out = segment_sum(tape, tape.param("x"), [0, 3, 3], 4)
        grads = tape.backward(sum_all(tape, tape.mul(out, Tape.constant(w))))
        np.testing.assert_array_equal(grads["x"], w[[0, 3, 3]])

    def test_no_rows(self):
        params = ParamStore()
        params.add("x", np.zeros((0, 3)))
        tape = Tape(params)
        out = segment_sum(tape, tape.param("x"), [], 2)
        np.testing.assert_array_equal(out.values, np.zeros((2, 3)))
        grads = tape.backward(sum_all(tape, out))
        assert grads["x"].shape == (0, 3)

    @pytest.mark.parametrize("seg", [[3, 0], [0, 5], [-1, 1], [0]])
    def test_bad_segments_rejected(self, seg):
        # decreasing, out of range above and below, wrong length
        tape = Tape()
        with pytest.raises(AutodiffError, match="segment_sum"):
            segment_sum(tape, Tape.constant(np.ones((2, 2))), seg, 5)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        params = ParamStore()
        params.add("x", rng.normal(size=(4, 2)))
        w = rng.normal(size=(5, 2))

        def loss_fn(tape):
            out = segment_sum(tape, tape.param("x"), [1, 1, 2, 4], 5)
            return sum_all(tape, tape.mul(tape.mul(out, out),
                                         Tape.constant(w)))

        report = check_gradients(loss_fn, params, h=1e-6, tol=1e-6)
        assert report.ok() and not report.checks["x"].blocked


class TestSegmentRuns:
    @pytest.mark.parametrize("lengths", [[], [0, 0], [3], [0, 2, 0, 0, 1, 4],
                                         [1, 0, 5, 2, 0]])
    def test_from_lengths_matches_runs_of_raw_segments(self, lengths):
        runs = SegmentRuns.from_lengths(lengths)
        ids = np.repeat(np.arange(len(lengths)), lengths)
        raw = segment_runs(ids, ids.size, "test")
        for name in ("ids", "starts", "run"):
            got, want = getattr(runs, name), getattr(raw, name)
            assert got.dtype == want.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    def test_ops_give_the_bits_of_a_raw_segment(self):
        rng = np.random.default_rng(5)
        lengths = [2, 0, 3, 1, 0]
        ids = np.repeat(np.arange(5), lengths)
        params = ParamStore()
        params.add("x", rng.normal(size=(6, 3)))
        w = Tape.constant(rng.normal(size=(5, 3)))
        results = []
        for seg in (ids, SegmentRuns.from_lengths(lengths)):
            tape = Tape(params)
            s = segment_softmax(tape, tape.param("x"), seg)
            out = segment_sum(tape, tape.mul(s, s), seg, 5)
            loss = sum_all(tape, tape.mul(out, w))
            results.append((out.values.tobytes(),
                            tape.backward(loss)["x"].tobytes()))
        assert results[0] == results[1]

    @pytest.mark.parametrize("op", ["segment_softmax", "segment_sum"])
    def test_row_count_checked(self, op):
        runs = SegmentRuns.from_lengths([1, 2])
        x = Tape.constant(np.ones((2, 2)))
        args = (runs, 2) if op == "segment_sum" else (runs,)
        with pytest.raises(AutodiffError, match=f"{op} wants one segment"):
            getattr(helpers, op)(Tape(), x, *args)


class TestStopGradient:
    def test_forward_identity(self):
        tape = Tape()
        x = Tape.constant([1.5, -2.0])
        np.testing.assert_array_equal(tape.stop_gradient(x).values,
                                      [1.5, -2.0])

    def test_blocked_edge_product_rule(self):
        # loss = sum(stop_gradient(x) * y): grad y == x values, grad x == 0
        params = ParamStore()
        xv = np.array([2.0, -3.0, 0.5])
        yv = np.array([1.0, 4.0, -1.0])
        params.add("x", xv.copy())
        params.add("y", yv.copy())
        tape = Tape(params)
        loss = sum_all(tape, tape.mul(tape.stop_gradient(tape.param("x")),
                                     tape.param("y")))
        grads = tape.backward(loss)
        np.testing.assert_array_equal(grads["y"], xv)
        assert np.all(grads["x"] == 0.0)

    def test_tape_and_fd_deliberately_disagree(self):
        # finite differences see through stop_gradient; the tape must not.
        params = ParamStore()
        params.add("x", np.array([2.0, -3.0]))
        yv = np.array([1.0, 4.0])

        def loss(theta):
            return float((theta * yv).sum())

        fd = fd_grad(loss, params.values["x"])
        assert np.all(np.abs(fd) > 0.5)
        tape = Tape(params)
        loss = sum_all(tape, tape.mul(tape.stop_gradient(tape.param("x")),
                                     Tape.constant(yv)))
        grads = tape.backward(loss)
        assert np.all(grads["x"] == 0.0)


def ref_segment_softmax(x, seg):
    """Column softmax over each run of equal seg, one run at a time."""
    out = np.zeros_like(x)
    for s in np.unique(seg):
        rows = seg == s
        e = np.exp(x[rows] - x[rows].max(axis=0))
        out[rows] = e / e.sum(axis=0)
    return out


def softmax_rows(x, mask=None):
    """Softmax of each row of x [n x m] over its mask, zero elsewhere.

    Built the way target attention builds it: the masked entries are
    packed in row-major order, each packed entry's segment is its row,
    and segment_softmax normalizes each row's segment.
    """
    x = np.asarray(x, dtype=np.float64)
    mask = np.ones(x.shape, dtype=bool) if mask is None else np.asarray(mask)
    flat = np.flatnonzero(mask)
    tape = Tape()
    packed = segment_softmax(tape, Tape.constant(x.reshape(-1, 1)[flat]),
                             flat // x.shape[1])
    out = np.zeros(x.size)
    out[flat] = packed.values[:, 0]
    return out.reshape(x.shape)


class TestSoftmaxRows:
    def test_symmetric_row(self):
        out = softmax_rows([[0.0, 0.0]])
        np.testing.assert_allclose(out, [[0.5, 0.5]], atol=1e-15)

    def test_mask_renormalizes(self):
        out = softmax_rows([[1.0, 1.0, 1.0]], [[True, False, True]])
        np.testing.assert_allclose(out, [[0.5, 0.0, 0.5]], atol=1e-15)
        assert out[0, 1] == 0.0

    def test_large_values_do_not_overflow(self):
        # closed form after max subtraction: [1/(1+e), e/(1+e)]
        expect = [1.0 / (1.0 + math.e), math.e / (1.0 + math.e)]
        out = softmax_rows([[1000.0, 1001.0]])
        np.testing.assert_allclose(out[0], expect, rtol=1e-12)
        assert np.isfinite(out).all()

    def test_all_masked_row_is_zero(self):
        out = softmax_rows([[3.0, 4.0], [1.0, 2.0]],
                           [[False, False], [True, True]])
        np.testing.assert_array_equal(out[0], [0.0, 0.0])
        np.testing.assert_allclose(out[1].sum(), 1.0, atol=1e-12)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one_and_masked_exact_zero(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        x = rng.normal(scale=5.0, size=(n, m))
        mask = rng.random(size=(n, m)) < 0.7
        out = softmax_rows(x, mask)
        assert np.all(out[~mask] == 0.0)
        live = mask.any(axis=1)
        np.testing.assert_allclose(out[live].sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out[~live] == 0.0)


class TestSegmentSoftmax:
    def test_segments_normalize_apart(self):
        # equal scores in segments of 2 and 1 rows: 1/2, 1/2 and 1
        tape = Tape()
        out = segment_softmax(tape, Tape.constant([[1.0], [1.0], [1.0]]),
                                   [0, 0, 4])
        np.testing.assert_allclose(out.values, [[0.5], [0.5], [1.0]],
                                   atol=1e-15)

    def test_large_values_do_not_overflow(self):
        # closed form after max subtraction: [1/(1+e), e/(1+e)], in each
        # column with its own max
        expect = [1.0 / (1.0 + math.e), math.e / (1.0 + math.e)]
        tape = Tape()
        out = segment_softmax(
            tape, Tape.constant([[1000.0, -1001.0], [1001.0, -1000.0]]),
            [7, 7])
        np.testing.assert_allclose(out.values[:, 0], expect, rtol=1e-12)
        np.testing.assert_allclose(out.values[:, 1], expect, rtol=1e-12)
        assert np.isfinite(out.values).all()

    def test_no_rows(self):
        params = ParamStore()
        params.add("x", np.zeros((0, 2)))
        tape = Tape(params)
        out = segment_softmax(tape, tape.param("x"), [])
        assert out.values.shape == (0, 2)
        grads = tape.backward(sum_all(tape, out))
        assert grads["x"].shape == (0, 2) and not grads["x"].any()

    @pytest.mark.parametrize("seg", [[1, 0, 2], [0, 2, 1], [0, 1]])
    def test_decreasing_or_short_seg_refused(self, seg):
        tape = Tape()
        with pytest.raises(AutodiffError, match="segment_softmax"):
            segment_softmax(tape, Tape.constant(np.ones((3, 2))), seg)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_segments_sum_to_one_and_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        p, m = int(rng.integers(1, 12)), int(rng.integers(1, 4))
        x = rng.normal(scale=5.0, size=(p, m))
        seg = np.sort(rng.integers(0, 5, size=p))
        tape = Tape()
        out = segment_softmax(tape, Tape.constant(x), seg).values
        for s in np.unique(seg):
            np.testing.assert_allclose(out[seg == s].sum(axis=0), 1.0,
                                       atol=1e-12)
        np.testing.assert_allclose(out, ref_segment_softmax(x, seg),
                                   rtol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(19)
        params = ParamStore()
        params.add("x", rng.normal(size=(6, 2)))
        w = rng.normal(size=(6, 2))

        def loss_fn(tape):
            out = segment_softmax(tape, tape.param("x"), [0, 0, 0, 2, 3, 3])
            return sum_all(tape, tape.mul(out, Tape.constant(w)))

        report = check_gradients(loss_fn, params, h=1e-6, tol=1e-6)
        assert report.ok() and not report.checks["x"].blocked


def loop_cosine_gap(a, a_to, b, b_to, rows):
    """mean_i (cos(a_i, a_to[rows_i]) - cos(b_i, b_to[rows_i]))^2, one row
    at a time, with dot / (|x| * |y| + COSINE_EPS)."""
    def cos(x, y):
        return float(x @ y / (np.linalg.norm(x) * np.linalg.norm(y)
                              + COSINE_EPS))

    return float(np.mean([(cos(a[i], a_to[r]) - cos(b[i], b_to[r])) ** 2
                          for i, r in enumerate(rows)]))


def cosine_gap(a, a_to, b, b_to, rows):
    """``Tape.cosine_gap_loss`` of constant arrays, as a float."""
    args = (Tape.constant(x) for x in (a, a_to, b, b_to))
    return float(Tape().cosine_gap_loss(*args, rows).values)


class TestCosineSimRows:
    """The cosines of ``Tape.cosine_gap_loss``, the aux loss's op."""

    def test_identical_orthogonal_zero(self):
        # a zero row on the blocked side makes the loss the live cosine
        # squared: 1 for identical rows, exactly 0 for orthogonal ones
        zero, x, y = [[0.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]]
        assert cosine_gap(zero, x, x, x, [0]) == pytest.approx(1.0, abs=1e-9)
        assert cosine_gap(zero, x, x, y, [0]) == 0.0
        # a zero row, on either side of either cosine, gives exactly 0
        for args in ((zero, x, zero, x), (x, zero, y, zero),
                     (zero, zero, zero, zero)):
            assert cosine_gap(*args, [0]) == 0.0
        # equal cosines on both sides leave no gap
        assert cosine_gap(x, x, y, y, [0]) == 0.0

    def test_paired_rows_match_loop(self):
        # row i of a and b pairs with row rows[i] of a_to and b_to
        rng = np.random.default_rng(0)
        for n, d_a, d_b in ((1, 3, 3), (4, 3, 2), (6, 1, 4)):
            a, b = rng.normal(size=(n, d_a)), rng.normal(size=(n, d_b))
            a_to, b_to = rng.normal(size=(3, d_a)), rng.normal(size=(3, d_b))
            rows = rng.integers(0, 3, size=n)
            assert cosine_gap(a, a_to, b, b_to, rows) == pytest.approx(
                loop_cosine_gap(a, a_to, b, b_to, rows), rel=1e-10)

    def test_refuses_unpaired_rows(self):
        # unpaired rows, mismatched widths, a vector table, and no rows
        for a, a_to, b, b_to, rows in (
                ((4, 3), (2, 3), (1, 3), (2, 3), [0, 1, 0, 1]),
                ((2, 3), (2, 3), (2, 3), (2, 3), [0, 1, 0]),
                ((2, 3), (2, 2), (2, 3), (2, 3), [0, 1]),
                ((2, 3), (2, 3), (2, 3), (2, 4), [0, 1]),
                ((2, 3), (2, 3), (2, 3), (2,), [0, 1]),
                ((0, 3), (2, 3), (0, 3), (2, 3), [])):
            with pytest.raises(AutodiffError, match="cosine_gap_loss shape"):
                cosine_gap(*(np.ones(s) for s in (a, a_to, b, b_to)), rows)
        for table in ("a_to", "b_to"):
            shapes = {"a_to": (2, 3), "b_to": (2, 3), table: (1, 3)}
            with pytest.raises(AutodiffError, match=f"index 1 out of range "
                               f"for cosine_gap_loss's {table}"):
                cosine_gap(np.ones((2, 3)), np.ones(shapes["a_to"]),
                           np.ones((2, 3)), np.ones(shapes["b_to"]), [0, 1])

    def test_bounded(self):
        # each cosine is in [-1, 1], so each squared gap is in [0, 4]; it
        # is 4 where the two cosines are 1 and -1
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(50, 4)), rng.normal(size=(50, 4))
        rows = rng.integers(0, 50, size=50)
        assert 0.0 < cosine_gap(a, b, b, a, rows) <= 4.0
        assert cosine_gap(a, a, a, -a, np.arange(50)) == pytest.approx(4.0)


class TestMatmul:
    def test_refuses_stacked_operands(self):
        tape = Tape()
        stack = Tape.constant(np.ones((2, 4, 1)))
        with pytest.raises(AutodiffError, match="matmul"):
            tape.matmul(Tape.constant(np.ones((2, 3, 4))), stack)
        with pytest.raises(AutodiffError, match="matmul"):
            tape.matmul(Tape.constant(np.ones((3, 4))), stack)


class TestDense:
    @pytest.mark.parametrize("x, w, b", [((3, 4), (4, 2), (3,)),
                                         ((3, 4), (3, 2), (2,)),
                                         ((3, 4), (4, 2), (1, 2)),
                                         ((2, 3, 4), (4, 2), (2,))])
    def test_refuses_mismatched_shapes(self, x, w, b):
        tape = Tape()
        with pytest.raises(AutodiffError, match="dense shape mismatch"):
            tape.dense(*(Tape.constant(np.ones(s)) for s in (x, w, b)),
                       leaky=True)

    def test_matches_finite_differences_with_and_without_leaky(self):
        # one hidden layer and a linear output, as the models stack them
        rng = np.random.default_rng(17)
        params = ParamStore()
        params.add("x", rng.normal(size=(5, 3)))
        params.add("w1", rng.normal(size=(3, 4)))
        params.add("b1", rng.normal(size=4))
        params.add("w2", rng.normal(size=(4, 2)))
        params.add("b2", rng.normal(size=2))
        c = rng.normal(size=(5, 2))

        def loss_fn(tape):
            h = tape.dense(tape.param("x"), tape.param("w1"),
                           tape.param("b1"), leaky=True)
            out = tape.dense(h, tape.param("w2"), tape.param("b2"),
                             leaky=False)
            return sum_all(tape, tape.mul(tape.mul(out, out),
                                         Tape.constant(c)))

        # the default step and tolerance, as criterion 2 uses them: the
        # rectifier scales some gradients down to where a 1e-6 step's
        # rounding shows
        report = check_gradients(loss_fn, params)
        assert report.ok(), report.failures()
        assert not any(check.blocked for check in report.checks.values())


class TestBackward:
    def test_square_loss(self):
        params = ParamStore()
        params.add("w", np.array([3.0]))
        tape = Tape(params)
        w = tape.param("w")
        grads = tape.backward(sum_all(tape, tape.mul(w, w)))
        np.testing.assert_array_equal(grads["w"], [6.0])

    def test_bce_of_sigmoid_at_zero(self):
        # d/dz bce(sigmoid(z), y=1) = sigmoid(z) - y = 0.5 - 1 = -0.5
        params = ParamStore()
        params.add("z", np.array([0.0]))
        tape = Tape(params)
        p = tape.sigmoid(tape.param("z"))
        grads = tape.backward(tape.bce(p, np.array([1.0])))
        np.testing.assert_allclose(grads["z"], [-0.5], atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        params = ParamStore()
        params.add("w", np.array([1.0, 2.0]))
        tape = Tape(params)
        w = tape.param("w")
        with pytest.raises(AutodiffError, match="scalar"):
            tape.backward(tape.mul(w, w))

    def test_unreached_parameter_gets_exact_zero(self):
        params = ParamStore()
        params.add("used", np.array([1.0]))
        params.add("unused", np.array([[5.0, 5.0]]))
        params.add("table", np.ones((3, 2)), embedding=True)
        tape = Tape(params)
        u = tape.param("used")
        grads = tape.backward(sum_all(tape, tape.mul(u, u)))
        assert np.all(grads["unused"] == 0.0)
        assert grads["table"].indices.size == 0

    def test_shared_gradient_array_accumulates_apart(self):
        # add() hands one gradient array to both of its inputs; p then
        # gets a second term from the square, whose node comes earlier on
        # the tape.  Adding that term into the shared array would leak it
        # into q's gradient.
        rng = np.random.default_rng(21)
        params = ParamStore()
        params.add("p", rng.normal(size=3))
        params.add("q", rng.normal(size=3))
        c = rng.normal(size=3)

        def loss_fn(tape):
            p, q = tape.param("p"), tape.param("q")
            square = tape.mul(p, p)
            total = tape.add(square, tape.add(p, q))
            return sum_all(tape, tape.mul(total, Tape.constant(c)))

        tape = Tape(params)
        grads = tape.backward(loss_fn(tape))
        np.testing.assert_array_equal(grads["q"], c)
        np.testing.assert_allclose(grads["p"],
                                   c + 2.0 * params.values["p"] * c,
                                   rtol=1e-15)
        assert check_gradients(loss_fn, params, h=1e-6, tol=1e-6).ok()

    def test_tape_consumed_after_backward(self):
        params = ParamStore()
        params.add("w", np.array([1.0]))
        tape = Tape(params)
        w = tape.param("w")
        loss = sum_all(tape, tape.mul(w, w))
        tape.backward(loss)
        with pytest.raises(AutodiffError, match="consumed"):
            tape.backward(loss)

    def test_forward_only_tape_freed_without_cycle_collector(self):
        """A tape never run backward, recording or forward-only as in
        prediction, is freed when dropped, not when the cyclic collector
        next runs."""
        params = ParamStore()
        params.add("w", np.ones((3, 2)))
        params.add("emb", np.ones((4, 3)), embedding=True)
        gc.collect()
        gc.disable()
        try:
            for record in (True, False):
                tape = Tape(params, record=record)
                x = tape.gather_rows(tape.param("emb"), [0, 2])
                tape.sigmoid(tape.matmul(x, tape.param("w")))
                dropped = weakref.ref(tape)
                del tape, x
                assert dropped() is None
        finally:
            gc.enable()


class TestForwardOnlyTape:
    def _params(self):
        params = ParamStore()
        params.add("w", np.arange(6.0).reshape(3, 2) / 7.0)
        params.add("b", np.array([-0.5, 0.25]))
        params.add("emb", np.arange(12.0).reshape(4, 3) / 5.0,
                   embedding=True)
        return params

    def _graph(self, tape):
        x = tape.gather_rows(tape.param("emb"), [3, 0, 3])
        h = tape.dense(x, tape.param("w"), tape.param("b"), leaky=True)
        pooled = segment_sum(tape, segment_softmax(tape, h, [0, 0, 2]),
                             [0, 0, 2], 3)
        blended, _ = tape.norm_ratio_blend(
            x, tape.gather_rows(tape.param("emb"), [1, 1, 2]))
        gap = tape.cosine_gap_loss(x, x, blended, x, [2, 0, 0])
        return tape.add(sum_all(tape, tape.mul(pooled, pooled)), gap)

    def test_same_values_as_a_recording_tape_and_no_nodes(self):
        params = self._params()
        recording, forward_only = Tape(params), Tape(params, record=False)
        a, b = self._graph(recording), self._graph(forward_only)
        assert a.values.tobytes() == b.values.tobytes()
        assert a.node is not None and b.node is None
        assert len(recording._nodes) > 0 and forward_only._nodes == []
        assert forward_only.param("w").node is None

    def test_backward_raises(self):
        tape = Tape(self._params(), record=False)
        loss = self._graph(tape)
        with pytest.raises(AutodiffError, match="forward-only"):
            tape.backward(loss)

    def test_unknown_parameter_still_refused(self):
        with pytest.raises(AutodiffError, match="unknown parameter"):
            Tape(self._params(), record=False).param("nope")


def _random_op_cases(seed):
    """One random scalar-loss graph exercising a mix of ops; returns
    (loss_from_params_fn, params) for finite-difference comparison."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    k = int(rng.integers(2, 4))
    params = ParamStore()
    params.add("a", rng.normal(size=(n, d)))
    params.add("b", rng.normal(size=(n, d)))
    params.add("w", rng.normal(size=(d, k)))
    params.add("bias", rng.normal(size=k))
    # the aux-loss table, its rows and the blocked side, which finite
    # differences would see through unless constant
    params.add("v", rng.uniform(0.2, 1.0, size=(n + 1, d)))
    rows = rng.integers(0, n + 1, size=n)
    blocked = [Tape.constant(rng.normal(size=s)) for s in ((n, d), (n + 1, d))]
    keep = rng.random(size=n * k) < 0.8
    if not keep.any():
        keep[0] = True
    seg = np.sort(rng.integers(0, n + 1, size=n))

    def build():
        tape = Tape(params)
        a, b = tape.param("a"), tape.param("b")
        h = tape.dense(tape.mul(a, b), tape.param("w"), tape.param("bias"),
                       leaky=True)
        blended, _ = tape.norm_ratio_blend(tape.sigmoid(a), b)
        gap = tape.cosine_gap_loss(*blocked, blended, tape.param("v"), rows)
        # softmax of each row of h: one segment per row of k entries
        s = segment_softmax(tape, tape.reshape(h, (n * k, 1)),
                            np.repeat(np.arange(n), k))
        kept = tape.gather_rows(tape.reshape(s, (n * k, 1)),
                                np.flatnonzero(keep))
        part1 = sum_all(tape, kept)
        part2 = sum_all(tape, tape.mul(blended, blended))
        pooled = segment_sum(tape, tape.mul(a, b), seg, n + 1)
        part3 = sum_all(tape, tape.mul(pooled, pooled))
        loss = tape.add(tape.add(part1, tape.scale(gap, 0.3)),
                        tape.add(tape.scale(part2, 0.1),
                                 tape.scale(part3, 0.05)))
        return tape, loss

    return build, params


class TestFiniteDifferenceProperty:
    @pytest.mark.parametrize("seed", range(25))
    def test_composite_graphs_match_fd(self, seed):
        # >=100 random cases in total across parametrized seeds and the
        # 5 parameters checked per graph
        build, params = _random_op_cases(seed)
        tape, loss = build()
        grads = tape.backward(loss)
        for name in params.names():
            theta = params.values[name]

            def loss_of(theta_arr, _n=name):
                t2, l2 = build()
                return float(l2.values)

            fd = fd_grad(loss_of, theta)
            g = grads[name]
            dense = g.to_dense(theta.shape) if isinstance(g, SparseRows) else g
            assert rel_err(dense, fd) < 1e-4, f"{name} mismatch (seed={seed})"

    def test_gather_matches_fd(self):
        rng = np.random.default_rng(11)
        params = ParamStore()
        params.add("t", rng.normal(size=(5, 3)), embedding=True)
        idx = np.array([0, 2, 2, 4, 1])
        w = rng.normal(size=(5, 3))

        def build():
            tape = Tape(params)
            out = tape.gather_rows(tape.param("t"), idx)
            return tape, sum_all(tape, tape.mul(out, Tape.constant(w)))

        tape, loss = build()
        grads = tape.backward(loss)
        fd = fd_grad(lambda th: float(build()[1].values), params.values["t"])
        assert rel_err(grads["t"].to_dense((5, 3)), fd) < 1e-6


class TestDeterminism:
    def test_bit_identical_forward_and_grads(self):
        results = []
        for _ in range(2):
            build, params = _random_op_cases(99)
            tape, loss = build()
            grads = tape.backward(loss)
            results.append((float(loss.values), grads.dense.tobytes(),
                            {k: v.rows.tobytes()
                             for k, v in grads.sparse.items()}))
        assert results[0] == results[1]


class TestDenseGradient:
    """``Tape.backward`` writes the dense gradients into one vector laid
    out like ``ParamStore.dense``; the per-name arrays the tape composed
    before, concatenated, are its oracle."""

    @pytest.mark.parametrize("seed", range(10))
    def test_vector_is_per_name_gradients_concatenated(self, seed):
        build, params = _random_op_cases(seed)
        # a table and a dense parameter the loss never reads
        params.add("table", np.ones((3, 2)), embedding=True)
        params.add("off", np.ones((2, 3)))
        old = per_name_gradients(*build())
        tape, loss = build()
        grads = tape.backward(loss)
        assert grads.dense.tobytes() == np.concatenate(
            [old[n].reshape(-1) for n in old]).astype(np.float64).tobytes()
        assert list(old) == [n for n in params.names() if n != "table"]
        for name, g in old.items():
            assert grads[name].shape == params.values[name].shape
            assert np.shares_memory(grads[name], grads.dense)
        assert not np.any(grads["off"]) and not grads["table"].indices.size
        assert list(grads.sparse) == ["table"]

    def test_constant_loss_gives_the_zero_layout(self):
        params = ParamStore()
        params.add("t", np.ones((2, 2)), embedding=True)
        params.add("w", np.ones(3))
        grads = Tape(params).backward(Tape.constant(1.0))
        assert grads.dense.tobytes() == np.zeros(3).tobytes()
        assert grads["w"].shape == (3,) and not grads["t"].indices.size


class TestCheckGradients:
    def test_linear_layer_bce_tight(self):
        rng = np.random.default_rng(5)
        params = ParamStore()
        params.add("w", rng.normal(size=(4, 1)))
        params.add("b", rng.normal(size=1))
        x = rng.normal(size=(8, 4))
        y = rng.integers(0, 2, size=8).astype(float)

        def loss_fn(tape):
            z = tape.reshape(tape.dense(Tape.constant(x), tape.param("w"),
                                        tape.param("b"), leaky=False), (8,))
            return tape.bce(tape.sigmoid(z), y)

        report = check_gradients(loss_fn, params, h=1e-6, tol=1e-6)
        assert report.ok()
        assert report.max_rel_err() < 1e-6

    def test_blocked_parameter_flagged_not_failed(self):
        params = ParamStore()
        params.add("hidden", np.array([1.0, 2.0]))
        params.add("free", np.array([0.5]))

        def loss_fn(tape):
            blocked = tape.stop_gradient(tape.param("hidden"))
            f = tape.param("free")
            return tape.add(sum_all(tape, tape.mul(blocked, blocked)),
                            sum_all(tape, tape.mul(f, f)))

        report = check_gradients(loss_fn, params, h=1e-5, tol=1e-4)
        assert report.checks["hidden"].blocked
        assert not report.checks["free"].blocked
        assert report.ok()

    def test_non_finite_loss_hard_error(self):
        params = ParamStore()
        params.add("w", np.array([1.0]))

        def loss_fn(tape):
            bad = tape.scale(tape.param("w"), float("inf"))
            return sum_all(tape, bad)

        with pytest.raises(AutodiffError, match="non-finite"):
            check_gradients(loss_fn, params)


class TestMean:
    """The oracle mean the aux loss's composition used; over no rows the
    aux loss is the constant 0.0."""

    def test_basic_and_empty(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        kept = Tape.constant(x[[True, False, True, False]])
        out = helpers.mean(Tape(), kept)
        assert float(out.values) == 2.0
        for bad in (x[:0], x.reshape(2, 2)):
            with pytest.raises(AutodiffError, match="mean wants"):
                helpers.mean(Tape(), Tape.constant(bad))

    def test_backward_spreads_evenly(self):
        params = ParamStore()
        params.add("x", np.array([1.0, 2.0, 4.0]))
        tape = Tape(params)
        grads = tape.backward(helpers.mean(tape, tape.param("x")))
        assert grads["x"].tobytes() == np.full(3, 1.0 / 3.0).tobytes()

    def test_constant_loss_backward_is_all_zero(self):
        params = ParamStore()
        params.add("x", np.array([1.0, 2.0]))
        tape = Tape(params)
        tape.param("x")
        grads = tape.backward(Tape.constant(0.0))
        assert np.all(grads["x"] == 0.0)


class TestNormRatioBlend:
    def test_hand_case(self):
        # delta=[3,0], base=[0,1]: v = 3/(3+1) = 0.75,
        # out = 0.75*[3,0] + 0.25*[0,1] = [2.25, 0.25]
        tape = Tape()
        out, v = tape.norm_ratio_blend(Tape.constant([[3.0, 0.0]]),
                                       Tape.constant([[0.0, 1.0]]))
        assert v.node is None
        np.testing.assert_allclose(v.values, [0.75], rtol=1e-12)
        np.testing.assert_allclose(out.values, [[2.25, 0.25]], rtol=1e-12)

    def test_limits(self):
        tape = Tape()
        base = Tape.constant([[0.5, -0.5]])
        out, v = tape.norm_ratio_blend(Tape.constant([[0.0, 0.0]]), base)
        assert float(v.values[0]) == 0.0
        np.testing.assert_array_equal(out.values, base.values)
        tape = Tape()
        delta = Tape.constant([[2.0, 1.0]])
        out, v = tape.norm_ratio_blend(delta, Tape.constant([[0.0, 0.0]]))
        assert abs(float(v.values[0]) - 1.0) < 1e-9
        np.testing.assert_allclose(out.values, delta.values, rtol=1e-9)

    def test_refuses_mismatched_shapes(self):
        for delta, base in (((2, 3), (2, 2)), ((2, 3), (3, 3)), ((3,), (3,))):
            with pytest.raises(AutodiffError,
                               match="norm_ratio_blend shape mismatch"):
                Tape().norm_ratio_blend(Tape.constant(np.ones(delta)),
                                        Tape.constant(np.ones(base)))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_v_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        tape = Tape()
        _, v = tape.norm_ratio_blend(
            Tape.constant(rng.normal(scale=3.0, size=(n, d))),
            Tape.constant(rng.normal(scale=3.0, size=(n, d))))
        assert np.all(v.values >= 0.0) and np.all(v.values <= 1.0)


# ----------------------------------------------------------------------
# Bitwise oracles: the select, fancy-index and sort forms of the kernels
# that now run without them.


def where_sigmoid(v):
    """Two-branch sigmoid: a boolean mask picks the form per entry."""
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def where_leaky_relu(v, g):
    """``np.where`` leaky rectifier: (forward, backward of upstream g)."""
    return (np.where(v > 0.0, v, LEAKY_SLOPE * v),
            g * np.where(v > 0.0, 1.0, LEAKY_SLOPE))


def fancy_gather(table, idx):
    """Masked range check naming the first bad index, then fancy index."""
    rows = table.shape[0]
    bad = (idx < 0) | (idx >= rows)
    if bad.any():
        return int(idx[bad][0])
    return table[idx] if idx.size else np.zeros((0, table.shape[1]))


def unique_merge(parts, dim):
    """Sparse merge through ``np.unique``'s sort."""
    if not parts:
        return np.zeros(0, dtype=np.int64), np.zeros((0, dim))
    uniq, inverse = np.unique(np.concatenate([p[0] for p in parts]),
                              return_inverse=True)
    rows = np.concatenate([p[1] for p in parts], axis=0)
    return uniq, sum_rows_by_index(inverse, rows, uniq.size)


def fancy_segment_softmax(v, seg, g):
    """Segment softmax whose per-segment rows are widened to their runs by
    fancy indexing: (forward, backward of upstream g)."""
    starts = np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]])
    run = np.cumsum(np.r_[True, seg[1:] != seg[:-1]]) - 1
    e = np.exp(v - np.maximum.reduceat(v, starts, axis=0)[run])
    out = e / np.add.reduceat(e, starts, axis=0)[run]
    inner = np.add.reduceat(g * out, starts, axis=0)
    return out, out * (g - inner[run])


EDGE_FLOATS = [0.0, -0.0, 745.0, -745.0, 5e-324, -5e-324, math.inf, -math.inf]
FLOATS = st.one_of(st.floats(-800.0, 800.0), st.sampled_from(EDGE_FLOATS),
                   st.floats(allow_nan=False))
VECTORS = st.lists(FLOATS, max_size=40).map(np.array)


class TestKernelsMatchOracles:
    @given(VECTORS)
    @example(np.array(EDGE_FLOATS))
    @settings(max_examples=300, deadline=None)
    def test_sigmoid(self, v):
        v = v.astype(np.float64)
        want = where_sigmoid(v)
        assert sigmoid(v).tobytes() == want.tobytes()
        assert Tape().sigmoid(Tape.constant(v)).values.tobytes() == \
            want.tobytes()

    @given(VECTORS, st.integers(0, 2 ** 31 - 1))
    @example(np.array(EDGE_FLOATS), 0)
    @settings(max_examples=300, deadline=None)
    def test_leaky_relu_forward_and_backward(self, v, seed):
        v = v.astype(np.float64)
        g = np.random.default_rng(seed).normal(size=v.shape) * 1e3
        want_out, want_grad = where_leaky_relu(v, g)
        assert leaky_relu(v).tobytes() == want_out.tobytes()
        assert leaky_relu(v, g).tobytes() == want_grad.tobytes()

    @given(st.integers(0, 2 ** 31 - 1), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_dense_is_matmul_then_bias_then_leaky_relu(self, seed, leaky):
        # the oracle is the three-node composition dense replaced; values
        # spread over decades, so any change in an expression or in its
        # order of operations shows in the bits
        rng = np.random.default_rng(seed)
        n, d, k = (int(rng.integers(0, 9)), int(rng.integers(1, 9)),
                   int(rng.integers(1, 9)))
        params = ParamStore()
        for name, shape in (("x", (n, d)), ("w", (d, k)), ("b", (k,))):
            params.add(name, rng.normal(size=shape)
                       * 10.0 ** rng.integers(-4, 4, size=shape))
        x, w, b = (params.values[name] for name in "xwb")
        g = rng.normal(size=(n, k))
        tape = Tape(params)
        out = tape.dense(tape.param("x"), tape.param("w"), tape.param("b"),
                         leaky=leaky)
        grads = tape.backward(sum_all(tape, tape.mul(out, Tape.constant(g))))
        want = x @ w
        want = want + b
        want_g = g
        if leaky:
            want, want_g = where_leaky_relu(want, g)
        assert out.values.tobytes() == want.tobytes()
        assert grads["b"].tobytes() == want_g.sum(axis=0).tobytes()
        assert grads["x"].tobytes() == (want_g @ w.T).tobytes()
        assert grads["w"].tobytes() == (x.T @ want_g).tobytes()

    @given(st.integers(1, 9), st.integers(1, 4),
           st.lists(st.integers(-3, 12), max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_gather_rows(self, rows, dim, indices):
        table = np.random.default_rng(rows).normal(size=(rows, dim))
        idx = np.array(indices, dtype=np.int64)
        want = fancy_gather(table, idx)
        if isinstance(want, int):
            with pytest.raises(AutodiffError,
                               match=f"^index {want} out of range for t "):
                Tape().gather_rows(Tape.constant(table), idx, "t")
            return
        got = Tape().gather_rows(Tape.constant(table), idx, "t").values
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=300, deadline=None)
    def test_merge_sparse(self, seed):
        # few rows, so ids repeat within and across parts; magnitudes
        # spread over 24 decades, so any change in the order of addition
        # changes the bits
        rng = np.random.default_rng(seed)
        dim, rows = int(rng.integers(1, 4)), int(rng.integers(1, 10))
        parts = []
        for _ in range(int(rng.integers(0, 5))):
            n = int(rng.integers(0, 8))
            parts.append((rng.integers(0, rows, size=n),
                          rng.normal(size=(n, dim))
                          * 10.0 ** rng.integers(-12, 12, size=(n, dim))))
        got = _merge_sparse(parts, dim)
        want_idx, want_rows = unique_merge(parts, dim)
        assert got.indices.dtype == want_idx.dtype
        assert got.indices.tobytes() == want_idx.tobytes()
        assert got.rows.shape == want_rows.shape
        assert got.rows.tobytes() == want_rows.tobytes()


    @given(st.integers(1, 8), st.integers(1, 30), st.integers(1, 3),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=300, deadline=None)
    def test_segment_softmax_and_segment_sum(self, n, p, m, seed):
        # rows fall in n segments, some of them empty; magnitudes spread
        # over many decades so that any change in the values gathered per
        # run shows in the bits
        rng = np.random.default_rng(seed)
        seg = np.sort(rng.integers(0, n, size=p))
        v = rng.normal(size=(p, m)) * 10.0 ** rng.integers(-8, 3, size=(p, m))
        g = rng.normal(size=(p, m))
        params = ParamStore()
        params.add("x", v)
        tape = Tape(params)
        out = segment_softmax(tape, tape.param("x"), seg)
        pooled = segment_sum(tape, out, seg, n)
        g_pooled = rng.normal(size=(n, m))
        grads = tape.backward(tape.add(
            sum_all(tape, tape.mul(out, Tape.constant(g))),
            sum_all(tape, tape.mul(pooled, Tape.constant(g_pooled)))))
        upstream = g + g_pooled[seg]  # segment_sum's backward, fancy form
        want_out, want_grad = fancy_segment_softmax(v, seg, upstream)
        assert out.values.tobytes() == want_out.tobytes()
        assert grads["x"].tobytes() == want_grad.tobytes()

    @given(st.integers(1, 6), st.integers(1, 12))
    @settings(max_examples=50, deadline=None)
    def test_head_blocks(self, n, d):
        heads, scaled = _head_blocks(n, d)
        want = np.kron(np.eye(n), np.ones((d, 1)))
        assert heads.dtype == want.dtype and heads.tobytes() == want.tobytes()
        assert scaled.tobytes() == (want / math.sqrt(d)).tobytes()
        assert _head_blocks(n, d)[0] is heads
        for block in (heads, scaled):
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0] = 2.0

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=300, deadline=None)
    def test_target_attention_is_the_composition_it_replaced(self, seed):
        # the oracle is the ten-node composition in tests/helpers.py; rows
        # may own no position, tables may be one row, query and entry rows
        # repeat, and one table may serve as q, k and v at once; values
        # spread over decades, so any change in an expression or in its
        # order of operations shows in the bits
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        b = int(rng.integers(1, 7))
        lengths = rng.integers(0, 4, size=b) * (rng.random(size=b) < 0.8)
        n_q, n_kv = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        shared = rng.random() < 0.2
        if shared:
            n_q = n_kv
        params = ParamStore()
        for name, rows in (("q", n_q), ("k", n_kv), ("v", n_kv),
                           ("combine", n * d)):
            params.add(name, rng.normal(size=(rows, n * d))
                       * 10.0 ** rng.integers(-3, 1, size=(rows, n * d)))
        q_row = rng.integers(0, n_q, size=b)
        entry_row = rng.integers(0, n_kv, size=int(lengths.sum()))
        g = rng.normal(size=(b, n * d))
        outs = []
        for attend in (Tape.target_attention, attention_oracle):
            tape = Tape(params)
            q, k, v = (tape.param("k" if shared else name)
                       for name in "qkv")
            interest, scores = attend(tape, q, q_row, k, v, entry_row,
                                      lengths, tape.param("combine"), n, d)
            grads = tape.backward(sum_all(
                tape, tape.mul(interest, Tape.constant(g))))
            outs.append([interest.values.tobytes(), scores.tobytes()]
                        + [grads[name].tobytes() for name in params.names()])
        assert outs[0] == outs[1]

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=300, deadline=None)
    def test_norm_ratio_blend_is_the_composition_it_replaced(self, seed):
        # the oracle is the ten-node composition in tests/helpers.py; base
        # already holds a gradient when the blend's backward runs, as the
        # key concatenation gives it in the model, and so does delta, so
        # the order of each input's sums shows; either side may have zero
        # rows, and there may be one row or one column
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        params = ParamStore()
        for name in ("delta", "base"):
            x = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 3,
                                                              size=(n, d))
            x[rng.random(size=n) < 0.25] = 0.0
            params.add(name, x)
        g_out, g_delta, g_base = rng.normal(size=(3, n, d))
        outs = []
        for blend in (Tape.norm_ratio_blend, helpers.norm_ratio_blend):
            tape = Tape(params)
            delta, base = tape.param("delta"), tape.param("base")
            out, v = blend(tape, delta, base)
            loss = sum_all(tape, tape.mul(out, Tape.constant(g_out)))
            for x, g in ((delta, g_delta), (base, g_base)):
                loss = tape.add(loss,
                                sum_all(tape, tape.mul(x, Tape.constant(g))))
            grads = tape.backward(loss)
            outs.append([out.values.tobytes(), v.values.tobytes()]
                        + [grads[name].tobytes() for name in params.names()])
        assert outs[0] == outs[1]

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=300, deadline=None)
    def test_cosine_gap_loss_is_the_composition_it_replaced(self, seed):
        # the oracle is the 21-node composition in tests/helpers.py; b_to
        # already holds a gradient when the loss's backward runs, as the
        # target rows' other uses give it in the model, and so does b, so
        # the order of its sums shows; any table may have zero rows, rows
        # repeat, and there may be one row or one column
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        d_a, d_b = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        params = ParamStore()
        names = ("a", "a_to", "b", "b_to")
        for name, shape in zip(names, ((n, d_a), (m, d_a), (n, d_b),
                                       (m, d_b))):
            x = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3,
                                                              size=shape)
            x[rng.random(size=shape[0]) < 0.25] = 0.0
            params.add(name, x)
        rows = rng.integers(0, m, size=n)
        alpha = rng.uniform(0.1, 2.0)
        g_b, g_to = rng.normal(size=(n, d_b)), rng.normal(size=(m, d_b))
        outs = []
        for gap_of in (Tape.cosine_gap_loss, helpers.cosine_gap_loss):
            tape = Tape(params)
            tables = [tape.param(name) for name in names]
            gap = gap_of(tape, *tables, rows)
            loss = tape.scale(gap, alpha)
            for x, g in ((tables[2], g_b), (tables[3], g_to)):
                loss = tape.add(loss,
                                sum_all(tape, tape.mul(x, Tape.constant(g))))
            grads = tape.backward(loss)
            outs.append([gap.values.tobytes()]
                        + [grads[name].tobytes() for name in names])
        assert outs[0] == outs[1]

    def test_cosine_gap_loss_blocked_side_by_finite_differences(self):
        # the blocked side reads b too, so only the freezer, which holds
        # its cosines fixed, lets finite differences agree on b
        rng = np.random.default_rng(23)
        params = ParamStore()
        for name, rows in (("a", 5), ("a_to", 3), ("b", 5), ("b_to", 3)):
            params.add(name, rng.normal(size=(rows, 3)))
        rows = np.array([2, 0, 2, 1, 2])

        def loss_fn(tape):
            b = tape.param("b")
            return tape.cosine_gap_loss(tape.add(tape.param("a"), b),
                                        tape.param("a_to"), b,
                                        tape.param("b_to"), rows)

        report = check_gradients(loss_fn, params, h=1e-6, tol=1e-6)
        assert report.ok(), report.failures()
        assert [name for name, check in report.checks.items()
                if check.blocked] == ["a", "a_to"]

    def test_target_attention_refuses_bad_rows(self):
        tape = Tape()
        table = Tape.constant(np.ones((3, 4)))
        combine = Tape.constant(np.eye(4))
        with pytest.raises(AutodiffError, match="shape mismatch"):
            tape.target_attention(table, [0], table, table, [0, 1], [1],
                                  combine, 2, 2)
        with pytest.raises(AutodiffError, match="shape mismatch"):
            tape.target_attention(table, [0, 1], table, table, [0], [1],
                                  combine, 2, 2)
        with pytest.raises(AutodiffError, match="shape mismatch"):
            tape.target_attention(table, [0], table, table, [0], [1],
                                  combine, 1, 2)
        with pytest.raises(AutodiffError,
                           match="index 3 out of range for the key/value"):
            tape.target_attention(table, [0], table, table, [3], [1],
                                  combine, 2, 2)
        with pytest.raises(AutodiffError,
                           match="index -1 out of range for the query"):
            tape.target_attention(table, [-1], table, table, [0], [1],
                                  combine, 2, 2)


class TestFlatStore:
    def test_dense_params_are_views_of_one_vector(self):
        params = ParamStore()
        params.add("a", np.arange(6.0).reshape(2, 3))
        params.add("t", np.ones((3, 2)), embedding=True)
        params.add("b", np.array([7.0]))
        params.add("empty", np.zeros((0, 4)))
        np.testing.assert_array_equal(params.dense, [0, 1, 2, 3, 4, 5, 7])
        for name in ("a", "b", "empty"):
            assert np.shares_memory(params.values[name], params.dense) or \
                not params.values[name].size
        assert not np.shares_memory(params.values["t"], params.dense)
        params.values["a"][1, 2] = -1.0
        assert params.dense[5] == -1.0

    def test_copy_is_independent(self):
        params = ParamStore()
        params.add("t", np.ones((3, 2)), embedding=True)
        params.add("w", np.arange(4.0))
        other = params.copy()
        assert other.names() == params.names()
        assert other.embedding_names == params.embedding_names
        other.values["w"][0] = 9.0
        other.values["t"][1, 1] = 9.0
        params.dense += 1.0
        np.testing.assert_array_equal(params.values["w"], [1, 2, 3, 4])
        np.testing.assert_array_equal(params.values["t"], np.ones((3, 2)))
        np.testing.assert_array_equal(other.values["w"], [9, 1, 2, 3])
        np.testing.assert_array_equal(other.dense, [9, 1, 2, 3])
        assert other.values["t"][1, 1] == 9.0

    def test_zero_copy_keeps_the_layout(self):
        params = ParamStore()
        params.add("t", np.ones((3, 2)), embedding=True)
        params.add("w", np.arange(4.0).reshape(2, 2))
        zero = params.copy(zero=True)
        assert zero.names() == params.names()
        assert zero.embedding_names == params.embedding_names
        assert zero.dense.tobytes() == np.zeros(4).tobytes()
        assert zero.values["t"].tobytes() == np.zeros((3, 2)).tobytes()
        assert zero.values["w"].shape == (2, 2)

    def test_check_gradients_perturbs_live_values(self):
        rng = np.random.default_rng(3)
        params = ParamStore()
        params.add("w", rng.normal(size=(3, 2)))
        params.add("b", rng.normal(size=2))
        x = rng.normal(size=(4, 3))
        start = params.dense.copy()
        seen = []

        def loss_fn(tape):
            seen.append(params.dense.copy())
            h = tape.dense(Tape.constant(x), tape.param("w"), tape.param("b"),
                           leaky=False)
            return sum_all(tape, tape.mul(h, h))

        report = check_gradients(loss_fn, params, h=1e-6, tol=1e-6)
        assert report.ok() and not any(c.blocked
                                       for c in report.checks.values())
        # each difference pass moved exactly one entry of the flat vector
        moved = [np.flatnonzero(s != start) for s in seen[1:]]
        assert len(moved) == 2 * start.size
        assert all(m.size == 1 for m in moved)
        assert sorted({int(m[0]) for m in moved}) == list(range(start.size))
        assert params.dense.tobytes() == start.tobytes()
