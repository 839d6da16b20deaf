import math
import re

import numpy as np
import pytest

from uavthz import neural, td3
from uavthz.config import RunConfig
from uavthz.errors import InvalidInputError, NumericFailureError

F32 = np.float32
U = 2.0 ** -24          # float32's unit roundoff


def from_layers(dims, layers, **kw):
    """A net whose float32 parameter block holds the given (weight, bias) pairs."""
    block = np.concatenate([a.ravel() for pair in layers for a in pair]).astype(F32)
    return neural.DenseNet(dims, block, **kw)


def normal32(rng, size, scale=1.0):
    return rng.normal(scale=scale, size=size).astype(F32)


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
        assert np.array_equal(neural.forward(net, np.ones((1, 4), F32)), np.zeros((1, 2)))

    def test_identity_passthrough(self):
        net = from_layers((3, 3), [(np.eye(3), np.zeros(3))])
        x = np.array([[0.4, -1.2, 2.0]], F32)
        assert np.array_equal(neural.forward(net, x), x)

    def test_matches_independent_matrix_evaluation(self):
        net = neural.init_net((4, 6, 3), 42, neural.ACT_TANH)
        x = normal32(np.random.default_rng(9), (1, 4))
        h = np.maximum(x @ net.weights[0] + net.biases[0], 0.0)
        expected = np.tanh(h @ net.weights[1] + net.biases[1])
        assert np.allclose(neural.forward(net, x), expected, rtol=1e-15)

    def test_batched_shape(self):
        net = neural.init_net((4, 8, 2), 0)
        out = neural.forward(net, np.zeros((7, 4), F32))
        assert out.shape == (7, 2)

    def test_tanh_output_bounded_by_one(self):
        net = neural.init_net((3, 16, 4), 5, neural.ACT_TANH)
        x = normal32(np.random.default_rng(1), (100, 3), scale=50.0)
        assert np.all(np.abs(neural.forward(net, x)) <= 1.0)


class TestBackward:
    def test_zero_output_grad(self):
        net = neural.init_net((3, 5, 2), 1)
        tape = taped(net, np.ones((1, 3), F32))
        grad = neural.backward(net, tape, np.zeros((1, 2), F32))
        xg = neural.backward(net, tape, np.zeros((1, 2), F32), wrt_input=True)
        assert grad.shape == net.params.shape and np.all(grad == 0)
        assert xg.shape == (1, 3) and np.all(xg == 0)

    def test_single_linear_layer_outer_product(self):
        net = neural.DenseNet((3, 1), np.zeros(4, F32))
        x = np.array([[1.0, 2.0, 3.0]], F32)
        grad = neural.backward(net, taped(net, x), np.array([[2.0]], F32))
        assert np.allclose(grad[:3], 2.0 * x[0])
        assert grad[3] == 2.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_central_finite_differences(self, seed):
        # The differences are taken on a float64 copy of the float32 block
        # and input, evaluated layer by layer in float64, so they approximate
        # the exact gradient at the float32 point to about 1e-10. The float32
        # gradient is within its dot-product bound of that: gamma_8 (about
        # 5e-7) times sums of order one, so abs=1e-6 (1.2e-7 seen) with rel=1e-4.
        rng = np.random.default_rng(100 + seed)
        act = neural.ACT_TANH if seed % 2 else neural.ACT_LINEAR
        net = neural.init_net((3, 8, 4, 1), seed, act)
        x = normal32(rng, (4, 3))
        gout = normal32(rng, (4, 1))
        tape = taped(net, x)
        grad = neural.backward(net, tape, gout)
        xg = neural.backward(net, tape, gout, wrt_input=True)
        params64, x64 = net.params.astype(np.float64), x.astype(np.float64)
        weights, biases = neural._layer_views(params64, net.layer_dims)

        def objective():
            h = x64
            for l, (w, b) in enumerate(zip(weights, biases)):
                h = h @ w + b
                if l < len(weights) - 1:
                    h = np.maximum(h, 0.0)
            out = np.tanh(h) if act == neural.ACT_TANH else h
            return float(np.sum(out * gout))

        def central_difference(arr, k, h=1e-5):
            old = arr.flat[k]
            arr.flat[k] = old + h
            up = objective()
            arr.flat[k] = old - h
            dn = objective()
            arr.flat[k] = old
            return (up - dn) / (2 * h)

        for k in rng.choice(net.params.size, size=36, replace=False):
            assert grad[k] == pytest.approx(central_difference(params64, k), rel=1e-4, abs=1e-6)
        for k in range(x.size):
            assert xg.flat[k] == pytest.approx(central_difference(x64, k), rel=1e-4, abs=1e-6)


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        net = neural.init_net((2, 4, 1), 3)
        before = [w.copy() for w in net.weights]
        state = neural.init_adam(net, 1e-3)
        neural.adam_step(net, np.zeros_like(net.params), state)
        assert all(np.array_equal(a, b) for a, b in zip(before, net.weights))
        assert state.step_count == 1

    def test_first_step_closed_form(self):
        # bias-corrected first step equals lr * g / (|g| + eps_hat); the
        # float32 chain rounds about ten times, each by at most U relative
        net = neural.DenseNet((1, 1), np.array([1.0, 0.0], F32))
        state = neural.init_adam(net, 0.5)
        g = 3.0
        neural.adam_step(net, np.array([g, 0.0], F32), state)
        expected = 1.0 - 0.5 * g / (abs(g) + neural.ADAM_EPSILON)
        assert net.weights[0][0, 0] == pytest.approx(expected, rel=10 * U)

    def test_quadratic_convergence(self):
        net = neural.DenseNet((1, 1), np.array([0.0, 1.0], F32))
        state = neural.init_adam(net, 0.01)
        for _ in range(100):
            w = net.biases[0][0]
            neural.adam_step(net, np.array([0.0, 2.0 * w], F32), state)
        assert abs(net.biases[0][0]) < 0.5

    def test_decayed_first_moments_flush_to_zero_without_moving_parameters(self):
        # A few random steps, then zero gradients: every first moment decays
        # by beta1 a step through float32's subnormals. The block spans two
        # Adam pieces. An unflushed whole-block reference, the same chain in
        # the same order, must reach subnormal moments and the same bits.
        net = neural.init_net((2, 200, 160, 1), 5)
        assert net.params.size > neural._ADAM_PIECE
        state = neural.init_adam(net, 1e-3)
        params, m, v = net.params.copy(), np.zeros_like(net.params), np.zeros_like(net.params)
        rng = np.random.default_rng(4)
        tiny = np.finfo(F32).tiny
        reference_subnormals = 0
        for t in range(1, 901):
            grad = normal32(rng, params.shape, 1e-2) if t <= 3 else np.zeros_like(params)
            root_c2 = math.sqrt(1.0 - neural.ADAM_BETA2 ** t)
            step = 1e-3 * root_c2 / (1.0 - neural.ADAM_BETA1 ** t)
            m *= neural.ADAM_BETA1
            m += grad * (1.0 - neural.ADAM_BETA1)
            v *= neural.ADAM_BETA2
            v += grad * (1.0 - neural.ADAM_BETA2) * grad
            params -= m * step / (np.sqrt(v) + neural.ADAM_EPSILON * root_c2)
            neural.adam_step(net, grad, state)
            reference_subnormals += int(((m != 0) & (np.abs(m) < tiny)).sum())
            # neither a moment nor its step term m * step is subnormal
            for term in (np.abs(state.first_moment), np.abs(state.first_moment) * step):
                assert not ((term > 0) & (term < tiny)).any()
        assert reference_subnormals > 0 and not state.first_moment.any()
        assert net.params.tobytes() == params.tobytes()

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
        a = neural.DenseNet((1, 1), np.zeros(2, F32))
        b = neural.DenseNet((1, 1), np.ones(2, F32))
        neural.polyak_update(a, b, 0.01)
        assert a.weights[0][0, 0] == pytest.approx(0.01)

    def test_geometric_contraction(self):
        # The gaps are summed in float64, where a float32 difference is
        # exact; each float32 update (1 - tau) a + tau b rounds three times,
        # so it moves a gap by at most 3 U (|a| + |b|).
        a, b = neural.init_net((2, 3), 1), neural.init_net((2, 3), 2)
        tau = 0.25
        gaps, slack = [], []
        for _ in range(4):
            gaps.append(float(np.abs(a.params.astype(np.float64) - b.params).sum()))
            slack.append(3 * U * float(np.abs(a.params).sum() + np.abs(b.params).sum()))
            neural.polyak_update(a, b, tau)
        for before, after, bound in zip(gaps, gaps[1:], slack):
            assert after == pytest.approx((1 - tau) * before, rel=0, abs=bound)


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
                         normal32(np.random.default_rng(2), nets["single"].params.shape), adam)
        path = tmp_path / "nets.npz"
        neural.save_net(path, nets)
        with np.load(path) as data:
            assert sorted(data.files) == ["single", "stack", "version"]
            assert int(data["version"]) == neural.CHECKPOINT_VERSION
        # the reader fills unfilled blocks, as eval does
        loaded = {"single": neural.empty_net((4, 9, 3), 0, neural.ACT_TANH),
                  "stack": neural.empty_net((5, 7, 1), 2)}
        assert loaded["stack"].params.shape == nets["stack"].params.shape
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
        np.zeros(16), np.zeros(17, F32), np.full(16, np.nan, F32),
    ], ids=["float64", "shape", "nan"])
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
        x = normal32(rng, (9, 6))
        gout = normal32(rng, (2, 9, 1))
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
        np.zeros(10, F32), np.zeros(257), np.zeros((2, 2, 257), F32),
        np.zeros((257, 2), F32).T,
    ])
    def test_rejects_bad_blocks(self, params):
        with pytest.raises(InvalidInputError):
            neural.DenseNet(self.DIMS, params)


def gamma(k):
    """Higham's gamma_k for float32: the relative bound of k accumulated roundings."""
    return k * U / (1 - k * U)


def as64(a):
    return a.astype(np.float64)


class TestFloat32Tolerance:
    """Each layer of a float32 pass against float64 on the same float32 values.

    The stated tolerance is the dot-product bound (Higham, Accuracy and
    Stability of Numerical Algorithms, sec. 3.5): a product of inner dimension
    k is within gamma_k (|A| |B|) of its exact value, and one plus a bias
    within gamma_{k+1} (|x| |W| + |b|). ReLU and tanh are 1-Lipschitz; numpy's
    float32 tanh adds at most 2 ulp (1.4 seen). The float64 evaluation's own
    error is about 1e-9 of the bound.
    """

    HP = RunConfig().hyperparams()

    @pytest.mark.parametrize("dims,act", [(td3.ACTOR.dims(HP.hidden_dims), neural.ACT_TANH),
                                          (td3.CRITICS.dims(HP.hidden_dims), neural.ACT_LINEAR)],
                             ids=["actor", "critic"])
    def test_each_layer_within_the_dot_product_bound(self, dims, act):
        rng = np.random.default_rng(7)
        net = neural.init_net(dims, 5, act)
        x = rng.uniform(-1.0, 1.0, (self.HP.batch_size, dims[0])).astype(F32)
        gout = normal32(rng, (self.HP.batch_size, dims[-1]))
        tape = taped(net, x)
        *acts, t = tape
        out = neural.forward(net, x)
        w_grads, b_grads = neural._layer_views(neural.backward(net, tape, gout), net.layer_dims)
        n = len(net.weights)

        def within(got, exact, bound):
            assert got.dtype == F32
            assert np.all(np.abs(as64(got) - exact) <= bound)

        for l, (w, b) in enumerate(zip(net.weights, net.biases)):
            exact = as64(acts[l]) @ as64(w) + b
            bound = gamma(w.shape[0] + 1) * (np.abs(as64(acts[l])) @ np.abs(as64(w)) + np.abs(b))
            if l < n - 1:
                within(acts[l + 1], np.maximum(exact, 0.0), bound)
            elif t is None:
                within(out, exact, bound)
            else:
                within(out, np.tanh(exact), bound + 2 * np.spacing(np.abs(out)))

        # backward, from the output layer down. delta is the float32 gradient
        # at layer l's output as backward has it: the input gradient of the
        # net of layers l+1.. (which shares the block), masked by the ReLU.
        delta = gout if t is None else gout * (1.0 - t * t)
        offsets = np.cumsum([0] + [(i + 1) * o for i, o in zip(dims[:-1], dims[1:])])
        for l in range(n - 1, -1, -1):
            a, w = as64(acts[l]), as64(net.weights[l])
            d = as64(delta)
            batch = a.shape[0]
            within(w_grads[l], a.T @ d, gamma(batch) * (np.abs(a).T @ np.abs(d)))
            within(b_grads[l], d.sum(axis=0), gamma(batch - 1) * np.abs(d).sum(axis=0))
            tail = neural.DenseNet(dims[l:], net.params[offsets[l]:], act)
            up = neural.backward(tail, taped(tail, acts[l]), gout, wrt_input=True)
            within(up, d @ w.T, gamma(w.shape[1]) * (np.abs(d) @ np.abs(w).T))
            delta = up * (acts[l] > 0)
        assert np.array_equal(up, neural.backward(net, tape, gout, wrt_input=True))
