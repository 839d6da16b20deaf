"""Dense feed-forward nets on flat parameter blocks: forward pass, exact backprop, Adam, Polyak.

Every parameter block, Adam moment, input, output and gradient is float32
(DTYPE). A float32 forward, backward and Adam pass costs about half of a
float64 one, and TD3's reference implementation trains in float32 too. The
stated tolerance is the dot-product bound (Higham, Accuracy and Stability of
Numerical Algorithms, sec. 3.5), with gamma_k = k u / (1 - k u) and
u = 2**-24: each layer of forward is within gamma_{fan_in+1} (|x| |W| + |b|)
of a float64 evaluation of the same float32 input and parameters (a tanh
output adds at most 2 ulp), and each product of backward is within gamma_k
times the product of the absolute values, k its inner dimension. Nothing
here casts: a float64 input would silently promote a whole pass, so the
agent converts its data once, where it enters (td3.norm_state and the replay
buffer).

A net's weights and biases live in one contiguous block, layer by layer, and
`weights[l]`, `biases[l]` are views into it. A (K, n) block stacks K nets of
one architecture (the twin critics) that map a shared (batch, in) input to
(K, batch, out). Adam, Polyak, clone and checkpoints act on whole blocks,
elementwise, in the order of a per-layer update. A block is checked when its
DenseNet is built or load_net fills it, and the widths and rates by the run
config; the per-step functions take what the agent built from those and
check nothing but adam_step's finite gradient.

A checkpoint is one .npz archive (save_net, load_net) that holds `version`
and each named net's float32 parameter block, bit for bit. The architecture
is not stored: the reader builds its nets from its own config and fills
their blocks in place, and an entry of another shape or type is an error.
"""

import math
import zipfile
from dataclasses import dataclass, field

import numpy as np

from uavthz.errors import InvalidInputError, NumericFailureError

ACT_LINEAR = "linear"
ACT_TANH = "tanh"

CHECKPOINT_VERSION = 4

# The float type of every block, moment, activation and gradient.
DTYPE = np.float32

# Adam's decay rates and denominator guard, the same for every net.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

_ADAM_PIECE = 32768     # elements per piece of the Adam chain (128 KB of scratch)
# A weight whose gradient stays 0 decays its first moment m by ADAM_BETA1 a
# step into float32's subnormals, where arithmetic is many times slower (the
# critics' step in a default `train` slowed from about 0.19 to 0.50 ms). Each
# step therefore zeroes every m with |m| * min(step_size, 1) below float32's
# smallest normal, so neither m nor its step term m * step_size is subnormal.
# The update of such an m is under _MOMENT_FLOOR * max(1, step_size) / guard,
# at most 3.7e-29 at a learning rate up to 1 (step_size <= lr, guard >=
# ADAM_EPSILON * sqrt(1 - ADAM_BETA2)): under half an ulp of any parameter
# above 6.3e-22 in magnitude.
_MOMENT_FLOOR = np.finfo(DTYPE).tiny


def block_size(layer_dims) -> tuple[tuple, int]:
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
    """Fully connected ReLU net(s) with a linear or tanh output layer."""

    layer_dims: tuple
    # (n_params,) or (K, n_params), C-contiguous float32 (DTYPE): half the cost
    # of float64, within the tolerance the module docstring states
    params: np.ndarray
    output_activation: str = ACT_LINEAR
    weights: list = field(init=False, repr=False)   # views into params
    biases: list = field(init=False, repr=False)

    def __post_init__(self):
        self.layer_dims, n = block_size(self.layer_dims)
        if self.output_activation not in (ACT_LINEAR, ACT_TANH):
            raise InvalidInputError(f"unknown output activation {self.output_activation!r}")
        p = self.params
        if not (p.dtype == DTYPE and p.ndim in (1, 2) and p.shape[-1] == n
                and p.flags.c_contiguous):
            raise InvalidInputError(f"need a C-contiguous float32 block (n,) or (K, n), n = {n}")
        self.weights, self.biases = _layer_views(p, self.layer_dims)

    def row(self, k: int) -> "DenseNet":
        """Net k of a stack, sharing its parameters."""
        return DenseNet(self.layer_dims, self.params[k], self.output_activation)


@dataclass
class AdamState:
    """First/second moment blocks shaped like the net's params, the step counter, the rate."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int
    learning_rate: float


def init_net(layer_dims, seed, output_activation: str = ACT_LINEAR) -> DenseNet:
    """Seeded initialization, uniform in +-1/sqrt(fan_in) per layer.

    The float64 uniforms are rounded into the float32 block. A tuple of seeds
    gives a stack whose row k equals init_net(layer_dims, seed[k]).
    """
    seeds = seed if isinstance(seed, tuple) else (seed,)
    dims, n = block_size(layer_dims)
    params = np.empty((len(seeds), n), dtype=DTYPE)
    for row, s in zip(params, seeds):
        rng = np.random.default_rng(s)
        for w, b in zip(*_layer_views(row, dims)):
            bound = 1.0 / np.sqrt(w.shape[0])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
            b[...] = rng.uniform(-bound, bound, size=b.shape)
    return DenseNet(dims, params if isinstance(seed, tuple) else params[0], output_activation)


def init_adam(net: DenseNet, learning_rate: float) -> AdamState:
    return AdamState(np.zeros_like(net.params), np.zeros_like(net.params), 0, learning_rate)


def forward(net: DenseNet, x, tape: list | None = None):
    """Deterministic forward pass of a (batch, in) float32 array to (..., batch, out).

    A `tape` list receives what `backward` needs: every layer's input, then
    tanh of the output pre-activation (None for a linear output).
    """
    acts = [x]
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        h = acts[-1] @ w
        h += b[..., None, :]
        acts.append(np.maximum(h, 0.0, out=h))
    z = acts[-1] @ net.weights[-1] + net.biases[-1][..., None, :]
    t = np.tanh(z) if net.output_activation == ACT_TANH else None
    if tape is not None:
        tape[:] = [*acts, t]
    return z if t is None else t


def backward(net: DenseNet, tape: list, output_grad, wrt_input: bool = False):
    """Exact reverse-mode gradient of sum(output * output_grad) for a taped forward.

    output_grad is a float32 array shaped like the output. The gradient is
    with respect to the parameters, shaped like net.params and summed over the
    batch (any 1/batch factor belongs in output_grad), or, with `wrt_input`,
    to the input alone.
    """
    *acts, t = tape
    delta = output_grad if t is None else output_grad * (1.0 - t * t)
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
    if not np.isfinite(grad).all():
        raise NumericFailureError("non-finite gradient in Adam step")
    state.step_count += 1
    # Kingma & Ba's efficient form, with c1 = 1 - beta1**t and c2 = 1 - beta2**t:
    # lr sqrt(c2) / c1 * m / (sqrt(v) + eps sqrt(c2)) is algebraically
    # lr * (m / c1) / (sqrt(v / c2) + eps) in two fewer passes over the block.
    # Python floats keep every pass in float32.
    root_c2 = math.sqrt(1.0 - ADAM_BETA2 ** state.step_count)
    step_size = state.learning_rate * root_c2 / (1.0 - ADAM_BETA1 ** state.step_count)
    guard = ADAM_EPSILON * root_c2
    flush_scale = min(step_size, 1.0)
    flat = [a.reshape(-1) for a in (net.params, grad, state.first_moment, state.second_moment)]
    buf = np.empty(min(grad.size, _ADAM_PIECE), dtype=DTYPE)
    for lo in range(0, grad.size, _ADAM_PIECE):
        p, g, m, v = (a[lo:lo + _ADAM_PIECE] for a in flat)
        s = buf[:g.size]
        np.multiply(g, 1.0 - ADAM_BETA1, out=s)
        m *= ADAM_BETA1
        m += s
        # a multiply by the 0/1 mask: a masked store is several times slower
        # where, as for dead units, many moments are exactly 0
        np.multiply(m, flush_scale, out=s)
        np.abs(s, out=s)
        np.greater_equal(s, _MOMENT_FLOOR, out=s)
        m *= s
        np.multiply(g, 1.0 - ADAM_BETA2, out=s)
        s *= g
        v *= ADAM_BETA2
        v += s
        np.multiply(m, step_size, out=s)
        np.sqrt(v, out=g)
        g += guard
        s /= g
        p -= s


def polyak_update(target: DenseNet, online: DenseNet, tau: float) -> None:
    """target <- tau*online + (1-tau)*target, elementwise, in place."""
    target.params *= 1.0 - tau
    target.params += tau * online.params


def clone_net(net: DenseNet) -> DenseNet:
    return DenseNet(net.layer_dims, net.params.copy(), net.output_activation)


def save_net(path, nets: dict) -> None:
    """Write the named nets' parameter blocks and the format version to one .npz archive.

    Floats round-trip bit-exactly. Keep the names save_net and path: the
    benchmark's tracer wraps the function by name and binds path to count
    checkpoint bytes.
    """
    np.savez(path, version=np.array(CHECKPOINT_VERSION),
             **{name: net.params for name, net in nets.items()})


def load_net(path, nets: dict) -> None:
    """Fill the named nets' parameter blocks in place from a save_net archive.

    Each entry must be present, float32, of its block's exact shape and
    finite; otherwise, or when the file is not such an archive of this
    version, InvalidInputError names the file and the entry, and no block is
    touched. A checkpoint is where parameters enter the agent from outside,
    and they enter as the float32 blocks they were saved as, unconverted: a
    version-3 archive (float64 blocks) is refused by its version. The tracer
    binds path by name here too.
    """
    try:
        data = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:  # text, pickled, empty, damaged
        raise InvalidInputError(f"{path}: not a checkpoint archive: {exc}") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise InvalidInputError(f"{path}: not a checkpoint archive")
    blocks = {}
    with data:
        for name in ("version", *nets):
            if name not in data.files:
                raise InvalidInputError(f"{path}: no entry {name!r}")
            try:
                blocks[name] = data[name]
            except (ValueError, OSError, zipfile.BadZipFile) as exc:  # pickled or damaged
                raise InvalidInputError(f"{path}: entry {name!r} unreadable: {exc}") from exc
    version = blocks.pop("version")
    if version.shape != () or version.dtype.kind not in "iu" or version != CHECKPOINT_VERSION:
        raise InvalidInputError(f"{path}: unsupported checkpoint version {version.tolist()!r}, "
                                f"expected {CHECKPOINT_VERSION}")
    for name, block in blocks.items():
        want = nets[name].params.shape
        if block.dtype != DTYPE or block.shape != want:
            raise InvalidInputError(f"{path}: entry {name!r} is {block.dtype} {block.shape}, "
                                    f"expected float32 {want}")
        if not np.isfinite(block).all():
            raise InvalidInputError(f"{path}: entry {name!r} is not finite")
    for name, block in blocks.items():
        nets[name].params[...] = block
