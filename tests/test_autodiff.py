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
    ParamStore,
    SparseRows,
    Tape,
    Tensor,
    check_gradients,
    sigmoid,
    sum_rows_by_index,
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
        loss = tape.sum_all(out)
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
        grads = tape.backward(tape.sum_all(other))
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
            tape = Tape(params)
            out = tape.gather_rows(tape.param("t"), idx)
            loss = tape.sum_all(tape.mul_rows(out, Tape.constant(weights)))
            grads = tape.backward(loss)
            upstream = weights[:, None] * np.ones((n, 3))
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
        grads = tape.backward(tape.sum_all(tape.mul(out, Tape.constant(w))))
        want = np.zeros((3, 2))
        np.add.at(want, [2, 0, 2, 2], w)
        assert grads["t"].tobytes() == want.tobytes()


class TestSegmentSum:
    def test_forward_sums_rows_into_zero_matrix(self):
        # rows of one segment add up; segments with no rows stay zero
        tape = Tape()
        x = Tape.constant([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = tape.segment_sum(x, [0, 3, 3], 4)
        np.testing.assert_array_equal(
            out.values, [[1.0, 2.0], [0.0, 0.0], [0.0, 0.0], [8.0, 10.0]])

    def test_backward_picks_rows(self):
        # d/dx sum(w * segment_sum(x)) = w[seg], exactly
        params = ParamStore()
        params.add("x", np.ones((3, 2)))
        w = np.arange(8.0).reshape(4, 2)
        tape = Tape(params)
        out = tape.segment_sum(tape.param("x"), [0, 3, 3], 4)
        grads = tape.backward(tape.sum_all(tape.mul(out, Tape.constant(w))))
        np.testing.assert_array_equal(grads["x"], w[[0, 3, 3]])

    def test_no_rows(self):
        params = ParamStore()
        params.add("x", np.zeros((0, 3)))
        tape = Tape(params)
        out = tape.segment_sum(tape.param("x"), [], 2)
        np.testing.assert_array_equal(out.values, np.zeros((2, 3)))
        grads = tape.backward(tape.sum_all(out))
        assert grads["x"].shape == (0, 3)

    @pytest.mark.parametrize("seg", [[3, 0], [0, 5], [-1, 1], [0]])
    def test_bad_segments_rejected(self, seg):
        # decreasing, out of range above and below, wrong length
        tape = Tape()
        with pytest.raises(AutodiffError, match="segment_sum"):
            tape.segment_sum(Tape.constant(np.ones((2, 2))), seg, 5)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        params = ParamStore()
        params.add("x", rng.normal(size=(4, 2)))
        w = rng.normal(size=(5, 2))

        def loss_fn():
            tape = Tape(params)
            out = tape.segment_sum(tape.param("x"), [1, 1, 2, 4], 5)
            return tape, tape.sum_all(tape.mul(tape.mul(out, out),
                                               Tape.constant(w)))

        report = check_gradients(loss_fn, params, h=1e-6, tol=1e-6)
        assert report.ok() and not report.checks["x"].blocked


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
        loss = tape.sum_all(tape.mul(tape.stop_gradient(tape.param("x")),
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
        loss = tape.sum_all(tape.mul(tape.stop_gradient(tape.param("x")),
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
    packed = tape.segment_softmax(Tape.constant(x.reshape(-1, 1)[flat]),
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
        out = tape.segment_softmax(Tape.constant([[1.0], [1.0], [1.0]]),
                                   [0, 0, 4])
        np.testing.assert_allclose(out.values, [[0.5], [0.5], [1.0]],
                                   atol=1e-15)

    def test_large_values_do_not_overflow(self):
        # closed form after max subtraction: [1/(1+e), e/(1+e)], in each
        # column with its own max
        expect = [1.0 / (1.0 + math.e), math.e / (1.0 + math.e)]
        tape = Tape()
        out = tape.segment_softmax(
            Tape.constant([[1000.0, -1001.0], [1001.0, -1000.0]]), [7, 7])
        np.testing.assert_allclose(out.values[:, 0], expect, rtol=1e-12)
        np.testing.assert_allclose(out.values[:, 1], expect, rtol=1e-12)
        assert np.isfinite(out.values).all()

    def test_no_rows(self):
        params = ParamStore()
        params.add("x", np.zeros((0, 2)))
        tape = Tape(params)
        out = tape.segment_softmax(tape.param("x"), [])
        assert out.values.shape == (0, 2)
        grads = tape.backward(tape.sum_all(out))
        assert grads["x"].shape == (0, 2) and not grads["x"].any()

    @pytest.mark.parametrize("seg", [[1, 0, 2], [0, 2, 1], [0, 1]])
    def test_decreasing_or_short_seg_refused(self, seg):
        tape = Tape()
        with pytest.raises(AutodiffError, match="segment_softmax"):
            tape.segment_softmax(Tape.constant(np.ones((3, 2))), seg)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_segments_sum_to_one_and_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        p, m = int(rng.integers(1, 12)), int(rng.integers(1, 4))
        x = rng.normal(scale=5.0, size=(p, m))
        seg = np.sort(rng.integers(0, 5, size=p))
        tape = Tape()
        out = tape.segment_softmax(Tape.constant(x), seg).values
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

        def loss_fn():
            tape = Tape(params)
            out = tape.segment_softmax(tape.param("x"), [0, 0, 0, 2, 3, 3])
            return tape, tape.sum_all(tape.mul(out, Tape.constant(w)))

        report = check_gradients(loss_fn, params, h=1e-6, tol=1e-6)
        assert report.ok() and not report.checks["x"].blocked


class TestCosineSimRows:
    def test_identical_orthogonal_zero(self):
        tape = Tape()
        got = tape.cosine_sim_rows(Tape.constant([[1.0, 0.0]]),
                                   Tape.constant([[1.0, 0.0]])).values
        np.testing.assert_allclose(got, [1.0], atol=1e-9)
        tape = Tape()
        got = tape.cosine_sim_rows(Tape.constant([[1.0, 0.0]]),
                                   Tape.constant([[0.0, 1.0]])).values
        np.testing.assert_allclose(got, [0.0], atol=1e-15)
        tape = Tape()
        got = tape.cosine_sim_rows(Tape.constant([[0.0, 0.0]]),
                                   Tape.constant([[1.0, 0.0]])).values
        np.testing.assert_array_equal(got, [0.0])

    def test_paired_rows_match_loop(self):
        # row i of a pairs with row i of b
        rng = np.random.default_rng(0)
        for n in (1, 4, 6):
            a = rng.normal(size=(n, 3))
            b = rng.normal(size=(n, 3))
            tape = Tape()
            got = tape.cosine_sim_rows(Tape.constant(a),
                                       Tape.constant(b)).values
            want = [float(a[i] @ b[i] /
                          (np.linalg.norm(a[i]) * np.linalg.norm(b[i])
                           + COSINE_EPS))
                    for i in range(n)]
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_refuses_unpaired_rows(self):
        tape = Tape()
        with pytest.raises(AutodiffError, match="cosine_sim_rows"):
            tape.cosine_sim_rows(Tape.constant(np.ones((4, 3))),
                                 Tape.constant(np.ones((1, 3))))

    def test_bounded(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(50, 4))
        b = rng.normal(size=(50, 4))
        tape = Tape()
        got = tape.cosine_sim_rows(Tape.constant(a), Tape.constant(b)).values
        assert np.all(got <= 1.0 + 1e-9) and np.all(got >= -1.0 - 1e-9)


class TestSigmoid:
    @given(st.floats(-800.0, 800.0))
    @example(745.0)
    @example(-745.0)
    @example(0.0)
    @example(-0.0)
    @example(-1e-300)
    @settings(max_examples=300, deadline=None)
    def test_scalar_path_bitwise_equals_array_path(self, z):
        want = sigmoid(np.array([z]))[0].tobytes()
        for x in (z, np.float64(z), np.array(z)):
            got = sigmoid(x)
            assert type(got) is float
            assert np.float64(got).tobytes() == want


class TestMatmul:
    def test_refuses_stacked_operands(self):
        tape = Tape()
        stack = Tape.constant(np.ones((2, 4, 1)))
        with pytest.raises(AutodiffError, match="matmul"):
            tape.matmul(Tape.constant(np.ones((2, 3, 4))), stack)
        with pytest.raises(AutodiffError, match="matmul"):
            tape.matmul(Tape.constant(np.ones((3, 4))), stack)


class TestBackward:
    def test_square_loss(self):
        params = ParamStore()
        params.add("w", np.array([3.0]))
        tape = Tape(params)
        w = tape.param("w")
        grads = tape.backward(tape.sum_all(tape.mul(w, w)))
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
        grads = tape.backward(tape.sum_all(tape.mul(u, u)))
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

        def loss_fn():
            tape = Tape(params)
            p, q = tape.param("p"), tape.param("q")
            square = tape.mul(p, p)
            total = tape.add(square, tape.add(p, q))
            return tape, tape.sum_all(tape.mul(total, Tape.constant(c)))

        tape, loss = loss_fn()
        grads = tape.backward(loss)
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
        loss = tape.sum_all(tape.mul(w, w))
        tape.backward(loss)
        with pytest.raises(AutodiffError, match="consumed"):
            tape.backward(loss)

    def test_forward_only_tape_freed_without_cycle_collector(self):
        """A tape never run backward, as in prediction, is freed when
        dropped, not when the cyclic collector next runs."""
        params = ParamStore()
        params.add("w", np.ones((3, 2)))
        params.add("emb", np.ones((4, 3)), embedding=True)
        gc.collect()
        gc.disable()
        try:
            tape = Tape(params)
            x = tape.gather_rows(tape.param("emb"), [0, 2])
            tape.sigmoid(tape.matmul(x, tape.param("w")))
            dropped = weakref.ref(tape)
            del tape, x
            assert dropped() is None
        finally:
            gc.enable()


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
    params.add("v", rng.uniform(0.2, 1.0, size=n))
    mask = rng.random(size=n * k) < 0.8
    if not mask.any():
        mask[0] = True
    seg = np.sort(rng.integers(0, n + 1, size=n))

    def build():
        tape = Tape(params)
        a, b = tape.param("a"), tape.param("b")
        h = tape.leaky_relu(tape.add_bias(tape.matmul(tape.mul(a, b),
                                                      tape.param("w")),
                                          tape.param("bias")))
        h = tape.mul_rows(h, tape.param("v"))
        cos = tape.cosine_sim_rows(a, b)
        blended, _ = tape.norm_ratio_blend(tape.sigmoid(a), b)
        # softmax of each row of h: one segment per row of k entries
        s = tape.segment_softmax(tape.reshape(h, (n * k, 1)),
                                 np.repeat(np.arange(n), k))
        part1 = tape.masked_mean(tape.reshape(s, (n * k,)), mask)
        part2 = tape.sum_all(tape.mul(cos, cos))
        part3 = tape.sum_all(tape.row_norm(blended))
        pooled = tape.segment_sum(tape.mul(a, b), seg, n + 1)
        part4 = tape.sum_all(tape.mul(pooled, pooled))
        loss = tape.add(tape.add(part1, tape.scale(part2, 0.3)),
                        tape.add(tape.scale(part3, 0.1),
                                 tape.scale(part4, 0.05)))
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
            return tape, tape.sum_all(tape.mul(out, Tape.constant(w)))

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
            results.append((float(loss.values),
                            {k: (v.rows.tobytes() if isinstance(v, SparseRows)
                                 else v.tobytes()) for k, v in grads.items()}))
        assert results[0][0] == results[1][0]
        assert results[0][1] == results[1][1]


class TestCheckGradients:
    def test_linear_layer_bce_tight(self):
        rng = np.random.default_rng(5)
        params = ParamStore()
        params.add("w", rng.normal(size=(4, 1)))
        params.add("b", rng.normal(size=1))
        x = rng.normal(size=(8, 4))
        y = rng.integers(0, 2, size=8).astype(float)

        def loss_fn():
            tape = Tape(params)
            z = tape.reshape(tape.add_bias(tape.matmul(Tape.constant(x),
                                                       tape.param("w")),
                                           tape.param("b")), (8,))
            return tape, tape.bce(tape.sigmoid(z), y)

        report = check_gradients(loss_fn, params, h=1e-6, tol=1e-6)
        assert report.ok()
        assert report.max_rel_err() < 1e-6

    def test_blocked_parameter_flagged_not_failed(self):
        params = ParamStore()
        params.add("hidden", np.array([1.0, 2.0]))
        params.add("free", np.array([0.5]))

        def loss_fn():
            tape = Tape(params)
            blocked = tape.stop_gradient(tape.param("hidden"))
            f = tape.param("free")
            loss = tape.add(tape.sum_all(tape.mul(blocked, blocked)),
                            tape.sum_all(tape.mul(f, f)))
            return tape, loss

        report = check_gradients(loss_fn, params, h=1e-5, tol=1e-4)
        assert report.checks["hidden"].blocked
        assert not report.checks["free"].blocked
        assert report.ok()

    def test_non_finite_loss_hard_error(self):
        params = ParamStore()
        params.add("w", np.array([1.0]))

        def loss_fn():
            tape = Tape(params)
            w = tape.param("w")
            bad = tape.scale(w, float("inf"))
            return tape, tape.sum_all(bad)

        with pytest.raises(AutodiffError, match="non-finite"):
            check_gradients(loss_fn, params)


class TestMaskedMean:
    def test_basic_and_empty(self):
        tape = Tape()
        x = Tape.constant([1.0, 2.0, 3.0, 4.0])
        out = tape.masked_mean(x, np.array([True, False, True, False]))
        assert float(out.values) == 2.0
        tape = Tape()
        out = tape.masked_mean(x, np.zeros(4, dtype=bool))
        assert float(out.values) == 0.0

    def test_empty_mask_loss_backward_is_all_zero(self):
        params = ParamStore()
        params.add("x", np.array([1.0, 2.0]))
        tape = Tape(params)
        loss = tape.masked_mean(tape.param("x"), np.zeros(2, dtype=bool))
        grads = tape.backward(loss)
        assert np.all(grads["x"] == 0.0)


class TestNormRatioBlend:
    def test_hand_case(self):
        # delta=[3,0], base=[0,1]: v = 3/(3+1) = 0.75,
        # out = 0.75*[3,0] + 0.25*[0,1] = [2.25, 0.25]
        tape = Tape()
        out, v = tape.norm_ratio_blend(Tape.constant([[3.0, 0.0]]),
                                       Tape.constant([[0.0, 1.0]]))
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
