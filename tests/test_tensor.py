"""Contract and gradient tests for the autodiff tensor engine."""

import numpy as np
import pytest

from fd import check_gradients
from stylerec import tensor as T
from stylerec.errors import ContractError, MaskError, NumericError, ShapeError


class TestMatmul:
    def test_identity(self):
        """I2 @ M == M for any 2x2 M."""
        m = np.array([[2.0, -1.0], [0.5, 3.0]])
        out = T.matmul(np.eye(2), m)
        np.testing.assert_array_equal(out.data, m)

    def test_hand_multiplication(self):
        out = T.matmul([[1.0, 2.0], [3.0, 4.0]], [[1.0], [1.0]])
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(np.ones((2, 3)), np.ones((2, 3)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        check_gradients(lambda ts: T.sum_all(T.matmul(ts[0], ts[1])), [a, b])

    def test_gradient_batched_left(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((4, 5))
        check_gradients(lambda ts: T.sum_all(T.matmul(ts[0], ts[1])), [a, b])

    def test_gradient_batched_both(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((2, 4, 3))
        check_gradients(lambda ts: T.sum_all(T.matmul(ts[0], ts[1])), [a, b])


    def test_gradient_batched_left_non_contiguous(self):
        """A transposed left operand and a sliced upstream gradient both need
        a copy before the flattened GEMM."""
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 4, 3))
        w = rng.standard_normal((4, 5))
        y = rng.standard_normal((2, 3, 2))

        def build(ts):
            left = T.transpose(ts[0])
            assert not left.data.flags.c_contiguous
            out = T.concat_last_dim([T.matmul(left, ts[1]), ts[2]])
            return T.mean_all(T.softplus(out))

        check_gradients(build, [x, w, y])


class TestSoftmax:
    def test_single_element_slice(self):
        out = T.softmax(np.array([[3.7]]), axis=-1)
        np.testing.assert_array_equal(out.data, [[1.0]])

    def test_symmetry(self):
        out = T.softmax(np.array([0.0, 0.0]), axis=-1)
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_closed_form(self):
        out = T.softmax(np.log(np.array([1.0, 3.0])), axis=-1)
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_masked_entries_exactly_zero(self):
        x = np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 5.0]])
        valid = np.array([[True, False, True], [True, True, False]])
        out = T.softmax(x, axis=-1, mask=valid).data
        assert out[0, 1] == 0.0 and out[1, 2] == 0.0
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)

    def test_fully_masked_slice_raises(self):
        with pytest.raises(MaskError):
            T.softmax(np.zeros((2, 3)), axis=-1, mask=np.array([[True, True, True], [False, False, False]]))

    def test_stability_with_large_values(self):
        out = T.softmax(np.array([1000.0, 1000.0]), axis=-1)
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 5))
        w = rng.standard_normal((5, 3))  # mixing matrix makes the scalar loss non-trivial
        check_gradients(lambda ts: T.sum_all(T.matmul(T.softmax(ts[0], axis=-1), w)), [x])

    def test_gradient_masked(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 4))
        valid = np.array([[True, True, False, True], [True, False, True, True]])
        w = rng.standard_normal((2, 4))

        def build(ts):
            sm = T.softmax(ts[0], axis=-1, mask=valid)
            return T.sum_all(T.matmul(sm, T.transpose(T.Tensor(w))))

        check_gradients(build, [x])


class TestLayerNorm:
    def test_constant_slice_gives_zeros(self):
        x = np.full((2, 4), 3.0)
        out = T.layer_norm(x, np.ones(4), np.zeros(4), eps=1e-5)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_two_point_slice(self):
        out = T.layer_norm(np.array([[1.0, 3.0]]), np.ones(2), np.zeros(2), eps=1e-14)
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-6)

    def test_zero_gamma_gives_beta(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 4))
        beta = rng.standard_normal(4)
        out = T.layer_norm(x, np.zeros(4), beta)
        np.testing.assert_allclose(out.data, np.broadcast_to(beta, (3, 4)), atol=1e-12)

    def test_bad_gamma_shape(self):
        with pytest.raises(ShapeError):
            T.layer_norm(np.ones((2, 4)), np.ones(3), np.zeros(4))

    def test_gradient_all_inputs(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 6))
        gamma = rng.standard_normal(6)
        beta = rng.standard_normal(6)
        w = rng.standard_normal((6, 2))

        def build(ts):
            return T.sum_all(T.matmul(T.layer_norm(ts[0], ts[1], ts[2], eps=1e-5), w))

        check_gradients(build, [x, gamma, beta])


class TestElementwise:
    def test_relu_values_and_gradient(self):
        out = T.relu(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])
        rng = np.random.default_rng(7)
        x = rng.standard_normal(10) + 0.05  # keep away from the kink
        check_gradients(lambda ts: T.sum_all(T.relu(ts[0])), [x])

    def test_add_broadcast_bias(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal(4)
        out = T.add(x, b)
        np.testing.assert_allclose(out.data, x + b)
        check_gradients(lambda ts: T.sum_all(T.add(ts[0], ts[1])), [x, b])

    def test_add_shape_error(self):
        with pytest.raises(ShapeError):
            T.add(np.ones((2, 3)), np.ones((4, 5)))

    def test_scale_and_sub(self):
        out = T.sub(np.array([3.0, 1.0]), np.array([1.0, 5.0]))
        np.testing.assert_array_equal(out.data, [2.0, -4.0])

    def test_softplus_value_and_gradient(self):
        assert abs(T.softplus(np.array(0.0)).item() - np.log(2.0)) < 1e-12
        rng = np.random.default_rng(9)
        x = rng.standard_normal(8) * 3
        check_gradients(lambda ts: T.sum_all(T.softplus(ts[0])), [x])

    def test_concat_last_dim(self):
        rng = np.random.default_rng(10)
        a, b = rng.standard_normal((2, 3)), rng.standard_normal((2, 5))
        out = T.concat_last_dim([a, b])
        assert out.shape == (2, 8)
        mix = rng.standard_normal((8, 2))
        check_gradients(lambda ts: T.sum_all(T.matmul(T.concat_last_dim(ts), mix)), [a, b])

    def test_nonfinite_input_rejected(self):
        with pytest.raises(NumericError):
            T.Tensor(np.array([1.0, np.nan]))


class TestDropout:
    def test_p_zero_is_identity(self):
        x = T.Tensor(np.arange(6.0).reshape(2, 3))
        out = T.dropout(x, 0.0, seed=1, mode="train")
        assert out is x

    def test_eval_is_identity(self):
        x = T.Tensor(np.arange(6.0).reshape(2, 3))
        assert T.dropout(x, 0.5, seed=1, mode="eval") is x

    def test_same_seed_bit_identical(self):
        x = np.linspace(-1, 1, 64)
        a = T.dropout(x, 0.3, seed=99, mode="train").data
        b = T.dropout(x, 0.3, seed=99, mode="train").data
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("p", [0.1, 0.5])
    def test_train_mode_expectation(self, p):
        """Mean of dropout(1.0, p) over 1e5 seeded draws stays within 1% of 1."""
        n = 100_000
        out = T.dropout(np.ones(n), p, seed=123, mode="train")
        assert abs(out.data.mean() - 1.0) < 0.01

    def test_gradient_with_fixed_mask(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 4))
        check_gradients(lambda ts: T.sum_all(T.dropout(ts[0], 0.4, seed=7, mode="train")), [x])

    def test_bad_p(self):
        with pytest.raises(ContractError):
            T.dropout(np.ones(3), 1.0, seed=0, mode="train")


class TestLookupAndGather:
    def test_embedding_lookup_values(self):
        table = np.arange(12.0).reshape(4, 3)
        out = T.embedding_lookup(table, np.array([[0, 2], [3, 2]]))
        np.testing.assert_array_equal(out.data, table[[[0, 2], [3, 2]]])

    def test_embedding_gradient_accumulates_duplicates(self):
        table = np.random.default_rng(12).standard_normal((5, 3))
        ids = np.array([1, 1, 4])
        check_gradients(lambda ts: T.sum_all(T.embedding_lookup(ts[0], ids)), [table])
        t = T.Tensor(table, requires_grad=True)
        T.backward(T.sum_all(T.embedding_lookup(t, ids)))
        np.testing.assert_array_equal(t.grad[1], np.full(3, 2.0))
        np.testing.assert_array_equal(t.grad[0], np.zeros(3))

    def test_embedding_id_out_of_range(self):
        with pytest.raises(ShapeError):
            T.embedding_lookup(np.ones((3, 2)), np.array([3]))

    def test_gather_rows_2d_and_3d(self):
        rng = np.random.default_rng(13)
        x2 = rng.standard_normal((4, 3))
        np.testing.assert_array_equal(T.gather_rows(x2, 2).data, x2[2])
        x3 = rng.standard_normal((2, 4, 3))
        idx = np.array([1, 3])
        np.testing.assert_array_equal(T.gather_rows(x3, idx).data, x3[[0, 1], idx])
        check_gradients(lambda ts: T.sum_all(T.gather_rows(ts[0], idx)), [x3])


class TestCosine:
    def test_self_similarity(self):
        u = np.array([0.3, -2.0, 1.0])
        assert abs(T.cosine_similarity(u, u).item() - 1.0) < 1e-12

    def test_orthogonal(self):
        assert T.cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])).item() == 0.0

    def test_zero_norm_raises(self):
        with pytest.raises(NumericError):
            T.cosine_similarity(np.zeros(3), np.ones(3))

    def test_analytic_gradient_case(self):
        """d cos(u, v)/du at u=[1,0], v=[0,1] is [0, 1]."""
        u = T.Tensor(np.array([1.0, 0.0]), requires_grad=True)
        v = T.Tensor(np.array([0.0, 1.0]))
        grads = T.backward(T.cosine_similarity(u, v))
        np.testing.assert_allclose(grads[u], [0.0, 1.0], atol=1e-12)

    def test_gradient_rowwise(self):
        rng = np.random.default_rng(14)
        u = rng.standard_normal((4, 5))
        v = rng.standard_normal((4, 5))
        check_gradients(lambda ts: T.sum_all(T.cosine_similarity(ts[0], ts[1])), [u, v])


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = T.Tensor(np.random.default_rng(15).standard_normal((3, 4)), requires_grad=True)
        grads = T.backward(T.sum_all(x))
        np.testing.assert_array_equal(grads[x], np.ones((3, 4)))

    def test_leaf_grad_accumulates_across_calls(self):
        rng = np.random.default_rng(19)
        x0, w0 = rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 2))

        def loss(x, w, c):
            return T.sum_all(T.softplus(T.scale(T.matmul(x, w), c)))

        grads = []
        for c in (1.0, -0.5):
            x, w = T.Tensor(x0, requires_grad=True), T.Tensor(w0, requires_grad=True)
            g = T.backward(loss(x, w, c))
            grads.append((g[x].copy(), g[w].copy()))
        x, w = T.Tensor(x0, requires_grad=True), T.Tensor(w0, requires_grad=True)
        T.backward(loss(x, w, 1.0))
        T.backward(loss(x, w, -0.5))
        np.testing.assert_array_equal(x.grad, grads[0][0] + grads[1][0])
        np.testing.assert_array_equal(w.grad, grads[0][1] + grads[1][1])

    def test_leaves_sharing_an_upstream_array_keep_own_grads(self):
        """add hands one upstream array to both operands; their .grad stay apart."""
        rng = np.random.default_rng(20)
        a = T.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = T.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = rng.standard_normal((4, 2))
        T.backward(T.sum_all(T.matmul(T.add(a, b), w)))
        first = a.grad.copy()
        assert not np.shares_memory(a.grad, b.grad)
        T.backward(T.sum_all(T.matmul(T.add(a, b), w)))
        np.testing.assert_array_equal(a.grad, first + first)
        np.testing.assert_array_equal(b.grad, first + first)

    def test_non_scalar_loss_rejected(self):
        x = T.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError):
            T.backward(T.relu(x))

    def test_composed_graph_finite_differences(self):
        """A small attention-flavoured graph checks out against central diffs."""
        rng = np.random.default_rng(16)
        x = rng.standard_normal((3, 4))
        wq = rng.standard_normal((4, 4))
        wv = rng.standard_normal((4, 4))

        def build(ts):
            q = T.matmul(ts[0], ts[1])
            att = T.softmax(T.scale(T.matmul(q, T.transpose(q)), 0.5), axis=-1)
            out = T.matmul(att, T.matmul(ts[0], ts[2]))
            return T.sum_all(T.softplus(out))

        worst = check_gradients(build, [x, wq, wv])
        assert worst <= 1e-4

    def test_repeated_runs_bit_identical(self):
        """Same seed, same graph: forward and backward agree bit-for-bit."""

        def run():
            rng = np.random.default_rng(17)
            x = T.Tensor(rng.standard_normal((4, 4)), requires_grad=True)
            h = T.dropout(T.relu(T.matmul(x, rng.standard_normal((4, 4)))), 0.3, seed=5, mode="train")
            loss = T.sum_all(h)
            g = T.backward(loss)
            return loss.data.copy(), g[x].copy()

        l1, g1 = run()
        l2, g2 = run()
        np.testing.assert_array_equal(l1, l2)
        np.testing.assert_array_equal(g1, g2)

    def test_no_grad_suppresses_tape(self):
        x = T.Tensor(np.ones((2, 2)), requires_grad=True)
        with T.no_grad():
            y = T.matmul(x, x)
        assert y.node is None and not y.requires_grad

    def test_gradient_dims_match_parameter_dims(self):
        rng = np.random.default_rng(18)
        w = T.Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        b = T.Tensor(rng.standard_normal(5), requires_grad=True)
        loss = T.sum_all(T.relu(T.add(T.matmul(T.Tensor(rng.standard_normal((2, 3))), w), b)))
        grads = T.backward(loss)
        assert grads[w].shape == (3, 5) and grads[b].shape == (5,)


class TestGradientSuite:
    """Randomized finite-difference sweep across the whole op catalog."""

    @pytest.mark.parametrize("seed", range(20))
    def test_all_ops_randomized(self, seed):
        rng = np.random.default_rng(1000 + seed)
        x = rng.standard_normal((3, 4))
        y = rng.standard_normal((3, 4))
        w = rng.standard_normal((4, 3))
        gamma = rng.standard_normal(4) + 1.5
        beta = rng.standard_normal(4)
        valid = rng.random((3, 4)) > 0.25
        valid[:, 0] = True  # keep every slice non-degenerate
        bias = rng.standard_normal(3)

        def build(ts):
            xs, ys, ws, gs, bs = ts
            h = T.add(xs, T.scale(ys, 0.7))
            h = T.layer_norm(h, gs, bs, eps=1e-5)
            h = T.softmax(h, axis=-1, mask=valid)
            h = T.matmul(h, ws)
            h = T.relu(T.add(h, T.Tensor(bias)))
            h = T.concat_last_dim([h, T.matmul(xs, ws)])
            return T.mean_all(T.softplus(h))

        worst = check_gradients(build, [x, y, w, gamma, beta])
        assert worst <= 1e-4
