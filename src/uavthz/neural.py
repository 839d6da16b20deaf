"""Dense feed-forward nets on flat parameter blocks: forward pass, exact backprop, Adam, Polyak.

Everything is float64 numpy. A net's weights and biases live in one contiguous
block, layer by layer, and `weights[l]`, `biases[l]` are views into it. A (K, n)
block stacks K nets of one architecture (the twin critics) that map a shared
(batch, in) input to (K, batch, out). Adam, Polyak, clone and checkpoints act on
whole blocks, elementwise, in the order of a per-layer update. 1-D input is one sample.
"""

import zipfile
from dataclasses import dataclass, field

import numpy as np

from uavthz.errors import InvalidInputError, NumericFailureError

ACT_LINEAR = "linear"
ACT_TANH = "tanh"

CHECKPOINT_VERSION = 2

_ADAM_PIECE = 32768     # elements per piece of the Adam chain (256 KB of scratch)


def _block_size(layer_dims) -> tuple[tuple, int]:
    """Validated layer sizes and the parameter count of one net."""
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise InvalidInputError(f"bad layer dims {dims}")
    return dims, sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))


def _layer_views(block: np.ndarray, dims: tuple) -> tuple[list, list]:
    """Per-layer weight (..., fan_in, fan_out) and bias (..., fan_out) views of a block."""
    weights, biases, off = [], [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        end = off + fan_in * fan_out
        weights.append(block[..., off:end].reshape(*block.shape[:-1], fan_in, fan_out))
        biases.append(block[..., end:end + fan_out])
        off = end + fan_out
    return weights, biases


@dataclass(eq=False)
class DenseNet:
    """Fully connected ReLU net(s) with a linear or scaled-tanh output layer."""

    layer_dims: tuple
    params: np.ndarray     # (n_params,) or (K, n_params), C-contiguous float64
    output_activation: str = ACT_LINEAR
    output_scale: float = 1.0
    weights: list = field(init=False, repr=False)   # views into params
    biases: list = field(init=False, repr=False)

    def __post_init__(self):
        self.layer_dims, n = _block_size(self.layer_dims)
        if self.output_activation not in (ACT_LINEAR, ACT_TANH):
            raise InvalidInputError(f"unknown output activation {self.output_activation!r}")
        p = self.params
        if not (p.dtype == np.float64 and p.ndim in (1, 2) and p.shape[-1] == n
                and p.flags.c_contiguous):
            raise InvalidInputError(f"need a C-contiguous float64 block (n,) or (K, n), n = {n}")
        self.weights, self.biases = _layer_views(p, self.layer_dims)

    def architecture(self):
        return self.params.shape[:-1], self.layer_dims, self.output_activation, self.output_scale

    def row(self, k: int) -> "DenseNet":
        """Net k of a stack, sharing its parameters."""
        return DenseNet(self.layer_dims, self.params[k], self.output_activation,
                        self.output_scale)


@dataclass
class AdamState:
    """First/second moment blocks shaped like the net's params, and the step counter."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


def init_net(layer_dims, seed, output_activation: str = ACT_LINEAR,
             output_scale: float = 1.0) -> DenseNet:
    """Seeded initialization, uniform in +-1/sqrt(fan_in) per layer.

    A tuple of seeds gives a stack whose row k equals init_net(layer_dims, seed[k]).
    """
    seeds = seed if isinstance(seed, tuple) else (seed,)
    dims, n = _block_size(layer_dims)
    params = np.empty((len(seeds), n))
    for row, s in zip(params, seeds):
        rng = np.random.default_rng(s)
        for w, b in zip(*_layer_views(row, dims)):
            bound = 1.0 / np.sqrt(w.shape[0])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
            b[...] = rng.uniform(-bound, bound, size=b.shape)
    return DenseNet(dims, params if isinstance(seed, tuple) else params[0],
                    output_activation, output_scale)


def init_adam(net: DenseNet, learning_rate: float) -> AdamState:
    return AdamState(np.zeros_like(net.params), np.zeros_like(net.params), 0, learning_rate)


def forward(net: DenseNet, x, tape: list | None = None):
    """Deterministic forward pass; 1-D input gives a 1-D output.

    A `tape` list receives what `backward` needs: every layer's input, then
    tanh of the output pre-activation (None for a linear output).
    """
    x = np.asarray(x, dtype=float)
    squeezed = x.ndim == 1
    acts = [x[None, :] if squeezed else x]
    if acts[0].ndim != 2 or acts[0].shape[1] != net.layer_dims[0]:
        raise InvalidInputError(f"input shape {x.shape} incompatible with input dim "
                                f"{net.layer_dims[0]}")
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        h = acts[-1] @ w
        h += b[..., None, :]
        acts.append(np.maximum(h, 0.0, out=h))
    z = acts[-1] @ net.weights[-1] + net.biases[-1][..., None, :]
    t = np.tanh(z) if net.output_activation == ACT_TANH else None
    y = z if t is None else net.output_scale * t
    if tape is not None:
        tape[:] = [*acts, t]
    return y[..., 0, :] if squeezed else y


def backward(net: DenseNet, tape: list, output_grad, wrt_input: bool = False):
    """Exact reverse-mode gradient of sum(output * output_grad) for a taped forward.

    The gradient is with respect to the parameters, shaped like net.params
    and summed over the batch (any 1/batch factor belongs in output_grad),
    or, with `wrt_input`, with respect to the input alone.
    """
    *acts, t = tape
    g = np.asarray(output_grad, dtype=float)
    expected = (*net.params.shape[:-1], acts[0].shape[0], net.layer_dims[-1])
    if g.shape != expected:
        raise InvalidInputError(f"output_grad shape {g.shape} != output shape {expected}")
    delta = g if t is None else g * net.output_scale * (1.0 - t * t)
    if not wrt_input:
        grad = np.empty_like(net.params)
        w_grads, b_grads = _layer_views(grad, net.layer_dims)
    for l in range(len(net.weights) - 1, -1, -1):
        if not wrt_input:
            np.matmul(np.swapaxes(acts[l], -1, -2), delta, out=w_grads[l])
            np.sum(delta, axis=-2, out=b_grads[l])
        if l > 0 or wrt_input:
            delta = delta @ np.swapaxes(net.weights[l], -1, -2)
        if l > 0:
            np.multiply(delta, acts[l] > 0, out=delta)
    return delta if wrt_input else grad


def adam_step(net: DenseNet, grad: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update in place; aborts loudly on non-finite gradients.

    `grad` is overwritten. The chain runs over pieces of the block with one
    piece-sized scratch: a block-sized one is a large short-lived allocation
    that the C allocator hands back and faults in again on every step.
    """
    if grad.shape != net.params.shape:
        raise InvalidInputError(f"gradient shape {grad.shape} != {net.params.shape}")
    if not np.isfinite(grad).all():
        raise NumericFailureError("non-finite gradient in Adam step")
    state.step_count += 1
    c1 = 1.0 - state.beta1 ** state.step_count
    c2 = 1.0 - state.beta2 ** state.step_count
    flat = [a.reshape(-1) for a in (net.params, grad, state.first_moment, state.second_moment)]
    buf = np.empty(min(grad.size, _ADAM_PIECE))
    for lo in range(0, grad.size, _ADAM_PIECE):
        p, g, m, v = (a[lo:lo + _ADAM_PIECE] for a in flat)
        s = buf[:g.size]
        np.multiply(g, 1.0 - state.beta1, out=s)
        m *= state.beta1
        m += s
        np.multiply(g, 1.0 - state.beta2, out=s)
        s *= g
        v *= state.beta2
        v += s
        # lr * (m / c1) / (sqrt(v / c2) + eps), in that order
        np.divide(m, c1, out=s)
        s *= state.learning_rate
        np.divide(v, c2, out=g)
        np.sqrt(g, out=g)
        g += state.epsilon
        s /= g
        p -= s


def polyak_update(target: DenseNet, online: DenseNet, tau: float) -> None:
    """target <- tau*online + (1-tau)*target, elementwise, in place."""
    if target.architecture() != online.architecture():
        raise InvalidInputError("target and online network architectures differ")
    if not 0.0 <= tau <= 1.0:
        raise InvalidInputError(f"tau must lie in [0, 1], got {tau}")
    target.params *= 1.0 - tau
    target.params += tau * online.params


def clone_net(net: DenseNet) -> DenseNet:
    return DenseNet(net.layer_dims, net.params.copy(), net.output_activation,
                    net.output_scale)


def save_net(path, net: DenseNet, adam: AdamState | None = None) -> None:
    """Checkpoint a net, and its Adam state if given, to .npz; floats round-trip bit-exactly."""
    payload = {"version": np.array(CHECKPOINT_VERSION), "layer_dims": np.array(net.layer_dims),
               "output_activation": np.array(net.output_activation),
               "output_scale": np.array(net.output_scale), "params": net.params}
    if adam is not None:
        payload.update(adam_step=np.array(adam.step_count), adam_m=adam.first_moment,
                       adam_v=adam.second_moment, adam_lr_betas_eps=np.array(
                           [adam.learning_rate, adam.beta1, adam.beta2, adam.epsilon]))
    np.savez(path, **payload)


def load_net(path) -> tuple[DenseNet, AdamState | None]:
    """Restore a checkpointed network and, when present, its Adam state.

    A file that is not a checkpoint archive, lacks one of its entries or
    holds an entry of the wrong shape or type raises InvalidInputError
    naming the file.
    """
    try:
        data = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:  # text, pickled, empty, damaged
        raise InvalidInputError(f"{path}: not a checkpoint archive: {exc}") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise InvalidInputError(f"{path}: not a checkpoint archive")
    with data:
        try:
            version = int(data["version"])
            if version != CHECKPOINT_VERSION:
                raise InvalidInputError(f"unsupported checkpoint version {version}, "
                                        f"expected {CHECKPOINT_VERSION}")
            net = DenseNet(tuple(data["layer_dims"]), data["params"],
                           str(data["output_activation"]), float(data["output_scale"]))
            adam = None
            if "adam_step" in data:
                adam = AdamState(data["adam_m"], data["adam_v"], int(data["adam_step"]),
                                 *(float(x) for x in data["adam_lr_betas_eps"]))
        except KeyError as exc:
            raise InvalidInputError(f"{path}: malformed checkpoint: {exc.args[0]}") from exc
        except InvalidInputError as exc:  # the version or the restored net's own check
            raise InvalidInputError(f"{path}: {exc}") from exc
        except (TypeError, ValueError) as exc:  # an entry of the wrong shape or type
            raise InvalidInputError(f"{path}: malformed checkpoint: {exc}") from exc
    return net, adam
