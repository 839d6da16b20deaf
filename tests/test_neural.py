import re

import numpy as np
import pytest

from uavthz import neural
from uavthz.errors import InvalidInputError, NumericFailureError


def from_layers(dims, layers, **kw):
    """A net whose parameter block holds the given (weight, bias) pairs."""
    return neural.DenseNet(dims, np.concatenate([a.ravel() for pair in layers for a in pair]),
                           **kw)


def taped(net, x):
    tape = []
    neural.forward(net, x, tape)
    return tape


class TestForward:
    def test_all_zero_parameters_give_zero(self):
        net = neural.init_net((4, 8, 2), 0)
        for w in net.weights:
            w[:] = 0.0
        for b in net.biases:
            b[:] = 0.0
        assert np.array_equal(neural.forward(net, np.ones((1, 4))), np.zeros((1, 2)))

    def test_identity_passthrough(self):
        net = from_layers((3, 3), [(np.eye(3), np.zeros(3))])
        x = np.array([[0.4, -1.2, 2.0]])
        assert np.array_equal(neural.forward(net, x), x)

    def test_matches_independent_matrix_evaluation(self):
        net = neural.init_net((4, 6, 3), 42, neural.ACT_TANH)
        x = np.random.default_rng(9).normal(size=(1, 4))
        h = np.maximum(x @ net.weights[0] + net.biases[0], 0.0)
        expected = np.tanh(h @ net.weights[1] + net.biases[1])
        assert np.allclose(neural.forward(net, x), expected, rtol=1e-15)

    def test_batched_shape(self):
        net = neural.init_net((4, 8, 2), 0)
        out = neural.forward(net, np.zeros((7, 4)))
        assert out.shape == (7, 2)

    def test_tanh_output_bounded_by_one(self):
        net = neural.init_net((3, 16, 4), 5, neural.ACT_TANH)
        x = np.random.default_rng(1).normal(scale=50.0, size=(100, 3))
        assert np.all(np.abs(neural.forward(net, x)) <= 1.0)


class TestBackward:
    def test_zero_output_grad(self):
        net = neural.init_net((3, 5, 2), 1)
        tape = taped(net, np.ones((1, 3)))
        grad = neural.backward(net, tape, np.zeros((1, 2)))
        xg = neural.backward(net, tape, np.zeros((1, 2)), wrt_input=True)
        assert grad.shape == net.params.shape and np.all(grad == 0)
        assert xg.shape == (1, 3) and np.all(xg == 0)

    def test_single_linear_layer_outer_product(self):
        net = neural.DenseNet((3, 1), np.zeros(4))
        x = np.array([[1.0, 2.0, 3.0]])
        grad = neural.backward(net, taped(net, x), np.array([[2.0]]))
        assert np.allclose(grad[:3], 2.0 * x[0])
        assert grad[3] == 2.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_central_finite_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        act = neural.ACT_TANH if seed % 2 else neural.ACT_LINEAR
        net = neural.init_net((3, 8, 4, 1), seed, act)
        x = rng.normal(size=(4, 3))
        gout = rng.normal(size=(4, 1))
        tape = taped(net, x)
        grad = neural.backward(net, tape, gout)
        xg = neural.backward(net, tape, gout, wrt_input=True)

        def objective(inputs):
            return float(np.sum(neural.forward(net, inputs) * gout))

        def central_difference(arr, k, h=1e-5):
            old = arr.flat[k]
            arr.flat[k] = old + h
            up = objective(x)
            arr.flat[k] = old - h
            dn = objective(x)
            arr.flat[k] = old
            return (up - dn) / (2 * h)

        for k in rng.choice(net.params.size, size=36, replace=False):
            assert grad[k] == pytest.approx(central_difference(net.params, k),
                                            rel=1e-4, abs=1e-8)
        for k in range(x.size):
            assert xg.flat[k] == pytest.approx(central_difference(x, k), rel=1e-4, abs=1e-8)


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        net = neural.init_net((2, 4, 1), 3)
        before = [w.copy() for w in net.weights]
        state = neural.init_adam(net, 1e-3)
        neural.adam_step(net, np.zeros_like(net.params), state)
        assert all(np.array_equal(a, b) for a, b in zip(before, net.weights))
        assert state.step_count == 1

    def test_first_step_closed_form(self):
        # bias-corrected first step equals lr * g / (|g| + eps_hat)
        net = neural.DenseNet((1, 1), np.array([1.0, 0.0]))
        state = neural.init_adam(net, 0.5)
        g = 3.0
        neural.adam_step(net, np.array([g, 0.0]), state)
        expected = 1.0 - 0.5 * g / (abs(g) + neural.ADAM_EPSILON)
        assert net.weights[0][0, 0] == pytest.approx(expected, rel=1e-9)

    def test_quadratic_convergence(self):
        net = neural.DenseNet((1, 1), np.array([0.0, 1.0]))
        state = neural.init_adam(net, 0.01)
        for _ in range(100):
            w = net.biases[0][0]
            neural.adam_step(net, np.array([0.0, 2.0 * w]), state)
        assert abs(net.biases[0][0]) < 0.5

    def test_nonfinite_gradient_aborts(self):
        net = neural.init_net((2, 2), 0)
        before = net.params.copy()
        state = neural.init_adam(net, 1e-3)
        for bad in (np.nan, np.inf):
            grad = np.zeros_like(net.params)
            grad[-1] = bad
            with pytest.raises(NumericFailureError):
                neural.adam_step(net, grad, state)
        assert state.step_count == 0
        assert np.array_equal(net.params, before) and not state.first_moment.any()


class TestPolyak:
    def test_tau_one_copies(self):
        a, b = neural.init_net((2, 3), 1), neural.init_net((2, 3), 2)
        neural.polyak_update(a, b, 1.0)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))

    def test_tau_zero_freezes(self):
        a, b = neural.init_net((2, 3), 1), neural.init_net((2, 3), 2)
        before = [w.copy() for w in a.weights]
        neural.polyak_update(a, b, 0.0)
        assert all(np.array_equal(x, y) for x, y in zip(before, a.weights))

    def test_scalar_mixture(self):
        a = neural.DenseNet((1, 1), np.zeros(2))
        b = neural.DenseNet((1, 1), np.ones(2))
        neural.polyak_update(a, b, 0.01)
        assert a.weights[0][0, 0] == pytest.approx(0.01)

    def test_geometric_contraction(self):
        a, b = neural.init_net((2, 3), 1), neural.init_net((2, 3), 2)
        tau = 0.25
        gaps = []
        for _ in range(4):
            gap = sum(float(np.abs(x - y).sum())
                      for x, y in zip(a.weights + a.biases, b.weights + b.biases))
            gaps.append(gap)
            neural.polyak_update(a, b, tau)
        for before, after in zip(gaps, gaps[1:]):
            assert after == pytest.approx((1 - tau) * before, rel=1e-9)


class TestDeterminismAndCheckpoint:
    def test_same_seed_bit_identical(self):
        a, b = neural.init_net((3, 7, 2), 11), neural.init_net((3, 7, 2), 11)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a.weights, b.weights))
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a.biases, b.biases))

    def test_checkpoint_round_trip_bit_exact(self, tmp_path):
        nets = {"single": neural.init_net((4, 9, 3), 21, neural.ACT_TANH),
                "stack": neural.init_net((5, 7, 1), (22, 23))}
        adam = neural.init_adam(nets["single"], 2e-4)
        neural.adam_step(nets["single"],
                         np.random.default_rng(2).normal(size=nets["single"].params.shape), adam)
        path = tmp_path / "nets.npz"
        neural.save_net(path, nets)
        with np.load(path) as data:
            assert sorted(data.files) == ["single", "stack", "version"]
            assert int(data["version"]) == neural.CHECKPOINT_VERSION
        loaded = {"single": neural.init_net((4, 9, 3), 0, neural.ACT_TANH),
                  "stack": neural.init_net((5, 7, 1), (0, 1))}
        views = {name: net.weights[0] for name, net in loaded.items()}
        neural.load_net(path, loaded)
        for name, net in nets.items():
            assert loaded[name].params.tobytes() == net.params.tobytes()
            # filled in place: the layer views still read the block
            assert np.shares_memory(views[name], loaded[name].params)
            assert views[name].tobytes() == net.weights[0].tobytes()
        # save the restored nets again: the archive is byte-identical
        path2 = tmp_path / "nets2.npz"
        neural.save_net(path2, loaded)
        assert path2.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("bad", [
        np.zeros(16, dtype=np.float32), np.zeros(17), np.full(16, np.nan),
    ], ids=["float32", "shape", "nan"])
    def test_a_bad_entry_leaves_every_block_untouched(self, tmp_path, bad):
        # the first entry is valid; the load still fails before filling it
        nets = {"first": neural.init_net((3, 3, 1), 0), "second": neural.init_net((3, 3, 1), 1)}
        path = tmp_path / "nets.npz"
        np.savez(path, version=np.array(neural.CHECKPOINT_VERSION),
                 first=neural.init_net((3, 3, 1), 2).params, second=bad)
        before = {name: net.params.copy() for name, net in nets.items()}
        with pytest.raises(InvalidInputError, match=f"^{re.escape(str(path))}: entry 'second'"):
            neural.load_net(path, nets)
        for name, net in nets.items():
            assert net.params.tobytes() == before[name].tobytes()


class TestStack:
    DIMS = (6, 16, 8, 1)

    def test_rows_equal_single_nets(self):
        stack = neural.init_net(self.DIMS, (11, 12))
        assert stack.params.shape == (2, neural.init_net(self.DIMS, 0).params.size)
        for k, seed in enumerate((11, 12)):
            assert stack.params[k].tobytes() == neural.init_net(self.DIMS, seed).params.tobytes()

    def test_views_share_the_block(self):
        for net in (neural.init_net(self.DIMS, 1), neural.init_net(self.DIMS, (1, 2))):
            for arr in net.weights + net.biases:
                assert np.shares_memory(arr, net.params)
            assert sum(a.size for a in net.weights + net.biases) == net.params.size
            net.biases[-1][...] = 7.0
            assert np.all(net.params[..., -1] == 7.0)

    @pytest.mark.parametrize("act", [neural.ACT_LINEAR, neural.ACT_TANH])
    def test_forward_and_backward_match_rows_bit_for_bit(self, act):
        rng = np.random.default_rng(4)
        stack = neural.init_net(self.DIMS, (5, 6), act)
        x = rng.normal(size=(9, 6))
        gout = rng.normal(size=(2, 9, 1))
        tape = []
        y = neural.forward(stack, x, tape)
        grad = neural.backward(stack, tape, gout)
        xg = neural.backward(stack, tape, gout, wrt_input=True)
        assert y.shape == (2, 9, 1) and grad.shape == stack.params.shape and xg.shape == (2, 9, 6)
        for k in range(2):
            row = stack.row(k)
            assert np.shares_memory(row.params, stack.params)
            assert y[k].tobytes() == neural.forward(row, x).tobytes()
            row_tape = taped(row, x)
            assert grad[k].tobytes() == neural.backward(row, row_tape, gout[k]).tobytes()
            assert xg[k].tobytes() == neural.backward(row, row_tape, gout[k],
                                                      wrt_input=True).tobytes()

    @pytest.mark.parametrize("params", [
        np.zeros(10), np.zeros(257, dtype=np.float32), np.zeros((2, 2, 257)),
        np.zeros((257, 2)).T,
    ])
    def test_rejects_bad_blocks(self, params):
        with pytest.raises(InvalidInputError):
            neural.DenseNet(self.DIMS, params)
