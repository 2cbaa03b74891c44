"""Unit tests for the NumPy MLP and Adam optimiser."""

import copy

import numpy as np
import pytest

from repro.core.policy import Adam, MultiHeadMLP, ParameterViews, softmax_and_log_softmax


def softmax(logits):
    return softmax_and_log_softmax(logits)[0]


class TestSoftmax:
    def test_rows_sum_to_one(self):
        logits = np.random.default_rng(0).normal(size=(6, 5))
        probs = softmax(logits)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs > 0)

    def test_stability_with_large_logits(self):
        probs = softmax(np.array([[1000.0, 1000.0, -1000.0]]))
        assert np.isfinite(probs).all()
        assert probs[0, 0] == pytest.approx(0.5)

    def test_log_softmax_consistent(self):
        logits = np.random.default_rng(1).normal(size=(4, 7))
        probs, log_probs = softmax_and_log_softmax(logits)
        assert np.allclose(np.exp(log_probs), probs)

    def test_in_place_pass_matches_the_copying_one(self):
        logits = np.random.default_rng(2).normal(size=(5, 2, 3)).astype(np.float32)
        probs, log_probs = softmax_and_log_softmax(logits)
        out = np.empty_like(logits)
        got = softmax_and_log_softmax(logits, out=out)
        assert got[0] is out and got[1] is logits
        assert np.array_equal(out, probs) and np.array_equal(logits, log_probs)


class TestMultiHeadMLP:
    def test_forward_shapes(self):
        net = MultiHeadMLP(10, (16, 16), (5, 3), rng=np.random.default_rng(0))
        out, activations = net.forward(np.zeros((7, 10)))
        assert out.shape == (7, 8)
        assert net.head_offsets == (0, 5, 8)
        assert [a.shape for a in activations] == [(7, 10), (7, 16), (7, 16)]

    def test_forward_accepts_single_vector(self):
        net = MultiHeadMLP(4, (8,), (2,), rng=np.random.default_rng(0))
        out, _ = net.forward(np.zeros(4))
        assert out.shape == (1, 2)

    def test_parameters_roundtrip(self):
        net = MultiHeadMLP(4, (8, 8), (2, 3), rng=np.random.default_rng(0))
        params = [p.copy() for p in net.parameters()]
        net.set_parameters(params)
        out_a, _ = net.forward(np.ones((2, 4)))
        net2 = MultiHeadMLP(4, (8, 8), (2, 3), rng=np.random.default_rng(1))
        net2.set_parameters(params)
        out_b, _ = net2.forward(np.ones((2, 4)))
        assert np.allclose(out_a, out_b)

    def test_set_parameters_length_checked(self):
        net = MultiHeadMLP(4, (8,), (2,), rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            net.set_parameters(net.parameters()[:-1])

    def test_set_parameters_keeps_the_optimiser_attached(self):
        net = MultiHeadMLP(4, (8,), (2, 3), rng=np.random.default_rng(0))
        opt = Adam(net.parameters(), lr=0.1)
        fresh = [np.full(p.shape, 0.5) for p in net.parameters()]
        net.set_parameters(fresh)
        opt.step([np.ones(p.shape) for p in net.parameters()])
        for param, value in zip(net.parameters(), fresh):
            assert np.all(param < value)

    def test_set_parameters_rejects_wrong_shapes(self):
        net = MultiHeadMLP(4, (8,), (2, 3), rng=np.random.default_rng(0))
        before = [p.copy() for p in net.parameters()]
        params = [p.copy() for p in before]
        params[0] = params[0].T
        with pytest.raises(ValueError, match="shape"):
            net.set_parameters(params)
        for param, original in zip(net.parameters(), before):
            assert np.array_equal(param, original)

    @pytest.mark.parametrize("index, shape", [(1, (1,)), (1, (1, 8)), (2, ())])
    def test_set_parameters_rejects_broadcastable_shapes(self, index, shape):
        net = MultiHeadMLP(4, (8,), (2, 3), rng=np.random.default_rng(0))
        before = [p.copy() for p in net.parameters()]
        params = [p.copy() for p in before]
        params[index] = np.ones(shape)
        with pytest.raises(ValueError, match="shape"):
            net.set_parameters(params)
        for param, original in zip(net.parameters(), before):
            assert np.array_equal(param, original)

    def test_parameters_are_views_of_one_buffer(self):
        net = MultiHeadMLP(4, (8, 8), (2, 3), rng=np.random.default_rng(0))
        params = net.parameters()
        assert params.flat.size == sum(p.size for p in params)
        assert all(np.shares_memory(p, params.flat) for p in params)
        params.flat[:] = 0.0
        out, _ = net.forward(np.ones((1, 4)))
        assert np.array_equal(out, np.zeros((1, 5)))

    def test_deep_copy_keeps_network_and_optimiser_on_one_buffer(self):
        net = MultiHeadMLP(4, (8,), (2, 3), rng=np.random.default_rng(0))
        opt = Adam(net.parameters(), lr=0.1)
        net_copy, opt_copy = copy.deepcopy((net, opt))
        before = [p.copy() for p in net.parameters()]
        opt_copy.step([np.ones(p.shape) for p in net_copy.parameters()])
        for param, copied, original in zip(net.parameters(), net_copy.parameters(), before):
            assert np.array_equal(param, original)
            assert np.all(copied < original)

    def test_heads_are_column_blocks_of_one_matrix(self):
        net = MultiHeadMLP(4, (8,), (5, 3, 3), rng=np.random.default_rng(0))
        W1, b1, W, b = net.parameters()
        assert W.shape == (8, 11) and b.shape == (11,)
        b[...] = np.arange(11)
        x = np.random.default_rng(1).normal(size=(6, 4)).astype(np.float32)
        out, _ = net.forward(x)
        trunk = np.tanh(x @ W1 + b1)
        assert net.head_offsets == (0, 5, 8, 11)
        for start, stop in ((0, 5), (5, 8), (8, 11)):
            head = trunk @ W[:, start:stop] + b[start:stop]
            assert np.allclose(out[:, start:stop], head, atol=1e-6)

    def test_initial_head_draws_are_per_head(self):
        """Each head's weights are drawn as its own array, in head order."""
        net = MultiHeadMLP(4, (8,), (5, 3), rng=np.random.default_rng(7))
        rng = np.random.default_rng(7)
        trunk = rng.normal(0.0, np.sqrt(2.0 / 4), size=(4, 8)).astype(np.float32)
        scale = 0.1 * np.sqrt(1.0 / 8)
        heads = [rng.normal(0.0, scale, size=(8, w)).astype(np.float32) for w in (5, 3)]
        W1, b1, W, b = net.parameters()
        assert np.array_equal(W1, trunk)
        assert np.array_equal(W, np.concatenate(heads, axis=1))
        assert not b1.any() and not b.any()

    def test_networks_share_one_buffer_at_offsets(self):
        first = MultiHeadMLP.layout(4, (8,), (2, 3))
        second = MultiHeadMLP.layout(4, (8,), (1,))
        sizes = [sum(int(np.prod(s)) for s in shapes) for shapes in (first, second)]
        buffer = np.zeros(sum(sizes), dtype=np.float32)
        a = MultiHeadMLP(4, (8,), (2, 3), rng=np.random.default_rng(0), buffer=buffer)
        b = MultiHeadMLP(4, (8,), (1,), rng=np.random.default_rng(1), buffer=buffer, offset=a.size)
        assert (a.size, b.size) == tuple(sizes)
        assert a.parameters().flat.base is buffer and b.parameters().flat.base is buffer
        assert np.array_equal(buffer[: a.size], a.parameters().flat)
        assert np.array_equal(buffer[a.size :], b.parameters().flat)
        # Copies keep both networks on one (copied) buffer.
        a_copy, b_copy = copy.deepcopy((a, b))
        assert a_copy.parameters().buffer is b_copy.parameters().buffer
        assert not np.shares_memory(a_copy.parameters().buffer, buffer)
        b_copy.parameters().flat[:] = 3.0
        assert np.all(a_copy.parameters().buffer[a.size :] == 3.0)
        assert not np.any(buffer[a.size :] == 3.0)

    def test_requires_at_least_one_head(self):
        with pytest.raises(ValueError):
            MultiHeadMLP(4, (8,), ())

    def test_backward_gradient_matches_finite_differences(self):
        """The analytic gradient of a scalar loss matches numeric differentiation.

        The network computes in float32; the loss is evaluated in float64
        over float64 copies of its parameters, so the differences measure
        the gradient rather than float32 rounding.
        """
        rng = np.random.default_rng(3)
        net = MultiHeadMLP(5, (6,), (4,), rng=rng)
        x = rng.normal(size=(3, 5)).astype(np.float32)
        target = rng.normal(size=(3, 4)).astype(np.float32)
        # trunk weight, trunk bias, head weight, head bias
        params = [p.astype(np.float64) for p in net.parameters()]

        def loss_value():
            W1, b1, W2, b2 = params
            out = np.tanh(x.astype(np.float64) @ W1 + b1) @ W2 + b2
            return 0.5 * float(np.sum((out - target) ** 2))

        out, activations = net.forward(x)
        grads = net.backward(activations, out - target)

        eps = 1e-6
        # Check a handful of coordinates across different parameter tensors.
        for p_idx in (0, 1, 2, 3):
            flat = params[p_idx].reshape(-1)
            for coord in (0, flat.size // 2):
                original = flat[coord]
                flat[coord] = original + eps
                plus = loss_value()
                flat[coord] = original - eps
                minus = loss_value()
                flat[coord] = original
                numeric = (plus - minus) / (2 * eps)
                analytic = grads[p_idx].reshape(-1)[coord]
                assert analytic == pytest.approx(numeric, rel=1e-4, abs=1e-6)

    def test_backward_requires_one_grad_per_head(self):
        """The output gradient covers every head's columns, not just one head's."""
        net = MultiHeadMLP(4, (8,), (2, 3), rng=np.random.default_rng(0))
        _, activations = net.forward(np.zeros((1, 4)))
        with pytest.raises(ValueError):
            net.backward(activations, np.zeros((1, 2)))


class TestAdam:
    def test_minimises_quadratic(self):
        rng = np.random.default_rng(0)
        param = rng.normal(size=(4,))
        target = np.array([1.0, -2.0, 0.5, 3.0])
        opt = Adam([param], lr=0.05)
        for _ in range(500):
            grad = 2 * (param - target)
            opt.step([grad])
        assert np.allclose(param, target, atol=1e-2)

    def test_gradient_clipping(self):
        param = np.zeros(3)
        opt = Adam([param], lr=0.1, max_grad_norm=1.0)
        opt.step([np.full(3, 1e6)])
        # The clipped step is bounded by the learning rate scale.
        assert np.all(np.abs(param) < 1.0)

    def test_parameters_must_share_one_buffer(self):
        with pytest.raises(ValueError):
            Adam([np.zeros(2), np.zeros(3)], lr=0.1)

    def test_mismatched_grads_rejected(self):
        opt = Adam([np.zeros(2)], lr=0.1)
        with pytest.raises(ValueError):
            opt.step([np.zeros(2), np.zeros(2)])

    def test_groups_keep_their_own_rate_and_clip(self):
        """Two groups step exactly as two separate optimisers would."""
        rng = np.random.default_rng(2)
        joint = rng.normal(size=7).astype(np.float32)
        start = joint.copy()
        first, second = joint[:3].copy(), joint[3:].copy()
        views = ParameterViews(joint, [(3,), (4,)])
        opt = Adam(views, lr=(0.1, 0.01), max_grad_norm=1.0, groups=(1, 1))
        apart = [
            Adam([first], lr=0.1, max_grad_norm=1.0),
            Adam([second], lr=0.01, max_grad_norm=1.0),
        ]
        for scale in (1e6, 1e-3, 1.0):
            # The first group's gradient is far past the clip, the second's is not.
            grad = rng.normal(size=7).astype(np.float32)
            grad[:3] *= scale
            opt.step([grad[:3], grad[3:]])
            apart[0].step([grad[:3]])
            apart[1].step([grad[3:]])
            assert np.array_equal(views[0], first) and np.array_equal(views[1], second)
        assert not np.array_equal(joint, start)

    def test_groups_must_split_the_parameters(self):
        with pytest.raises(ValueError):
            Adam([np.zeros(2)], lr=0.1, groups=(2,))
        with pytest.raises(ValueError):
            Adam([np.zeros(2)], lr=(0.1, 0.2))

    def test_mlp_trains_on_regression_task(self):
        rng = np.random.default_rng(5)
        net = MultiHeadMLP(3, (16,), (1,), rng=rng)
        opt = Adam(net.parameters(), lr=1e-2)
        X = rng.normal(size=(64, 3))
        y = (X[:, :1] * 2.0 - X[:, 1:2]) * 0.5

        def mse():
            out, _ = net.forward(X)
            return float(np.mean((out - y) ** 2))

        initial = mse()
        for _ in range(300):
            out, activations = net.forward(X)
            grad = 2 * (out - y) / len(X)
            opt.step(net.backward(activations, grad))
        assert mse() < 0.2 * initial
