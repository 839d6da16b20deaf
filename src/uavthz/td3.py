"""Twin-delayed deterministic policy gradient agent and its training loop.

Twin critics with clipped double-Q bootstrapping, Gaussian target-policy
smoothing, delayed actor/target updates, a uniform ring replay buffer, and
Gaussian exploration noise. The two critics are one stacked network (row 0
is critic 1, row 1 critic 2) with one stacked target and one Adam state, so
a critic step is one batched forward, one backward and one Adam pass; the
actor step reads critic 1 through a row view. The agent works only in a
normalized space: norm_state maps the flight box per axis onto [-1, 1], and
actions are on the unit ball. train and greedy_rollout, which hold the
environment, multiply an action by its action scale before they move the UAV.
Nothing here checks an array the loop built: the data is checked where it
enters, the settings in the config, each position in the channel, each action
in project_action and the nets at construction and checkpoint load.

Every array of the agent is float32 (neural.DTYPE), and data becomes float32
where it enters: norm_state returns float32 states, and the replay buffer's
float32 columns round each stored transition, reward included. Actions leave
the agent as float32 unit-ball vectors, and Environment.move (through
as_vec3) turns them into float64 meters. The environment, the rewards as
logged and every output file stay float64.

A checkpoint holds the four nets alone (actor, actor_target, critics,
critics_target). The Adam states, the replay buffer and the generators are
not saved, so training does not resume from one; greedy_rollout reads none
of them.
"""

from dataclasses import dataclass

import numpy as np

from uavthz import channel, neural
from uavthz.environment import EnvConfig, Environment
from uavthz.errors import require
from uavthz.neural import AdamState, DenseNet

STATE_DIM = 3
ACTION_DIM = 3
# Shrink factor on the actor's output-layer initialization: a near-zero
# initial policy keeps early actions unsaturated; a policy born saturated
# pushes the UAV onto a face of the flight box and holds it there.
ACTOR_HEAD_SCALE = 0.01
# Factor on the rewards entering the replay buffer, so critic targets stay
# order-one; the logged episode reward keeps the environment's scale.
REWARD_SCALE = 0.1
# Largest noise setting, in action scales. Far noisier actions only pick a
# direction on the unit ball, and near 1e154 their squared norm overflows,
# which would project every noisy action to zero.
MAX_NOISE = 1e3
# Largest parameter count of one net. numpy refuses an array of more than
# 2**63 bytes with a ValueError ("Maximum allowed dimension exceeded" or
# "array is too big"), not a MemoryError; the critic stack holds two nets of
# 4-byte floats, so up to here a net too large for memory ends in numpy's
# MemoryError, which the CLI reports as a config error (exit 2).
MAX_NET_PARAMS = 10 ** 17


@dataclass
class Td3Hyperparams:
    """Network widths, optimizer and exploration settings and the training schedule.

    The counts are at least 1, which the run config checks. The noise
    settings are fractions of the action scale, at most MAX_NOISE, and neither
    net may hold more than MAX_NET_PARAMS parameters.
    """

    hidden_dims: tuple
    actor_lr: float
    critic_lr: float
    discount: float
    tau: float
    policy_delay: int
    batch_size: int
    buffer_capacity: int
    exploration_noise_std: float
    target_noise_std: float
    target_noise_clip: float
    warmup_steps: int
    episodes: int
    steps_per_episode: int

    def __post_init__(self):
        for dims in (self.actor_dims, self.critic_dims):
            require(neural.block_size(dims)[1] <= MAX_NET_PARAMS,
                    f"a net of these widths holds more than {MAX_NET_PARAMS:,} parameters",
                    "hidden_dims")
        for name in ("actor_lr", "critic_lr"):
            require(getattr(self, name) > 0, f"{name} must be positive", name)
        require(0.0 < self.discount < 1.0, "discount must lie in (0, 1)", "discount")
        require(0.0 < self.tau <= 1.0, "tau must lie in (0, 1]", "tau")
        for name in ("exploration_noise_std", "target_noise_std", "target_noise_clip"):
            require(0 <= getattr(self, name) <= MAX_NOISE,
                    f"{name} must lie in [0, {MAX_NOISE:g}]", name)
        require(self.warmup_steps > self.batch_size, "warmup must exceed the batch size",
                "warmup_steps", "batch_size")

    @property
    def actor_dims(self) -> tuple:
        return (STATE_DIM, *self.hidden_dims, ACTION_DIM)

    @property
    def critic_dims(self) -> tuple:
        return (STATE_DIM + ACTION_DIM, *self.hidden_dims, 1)


def norm_state(cfg: EnvConfig, position) -> np.ndarray:
    """Positions mapped per axis from the closed flight box (lo, hi) onto [-1, 1].

    The map 2*(p - lo)/(hi - lo) - 1 runs in float64 and its result is
    rounded into float32, the agent's type. A position in the box lands in
    [-1, 1] exactly, as p - lo and the quotient round monotonically.
    """
    lo, hi = cfg.box
    return (2.0 * (np.asarray(position, dtype=float) - lo) / (hi - lo) - 1.0).astype(neural.DTYPE)


class ReplayBuffer:
    """Fixed-capacity ring storage with uniform random minibatch sampling.

    Its columns are float32: a stored transition is rounded into the agent's
    type, so every minibatch is float32.
    """

    def __init__(self, capacity: int, seed: int):
        self.capacity = capacity
        self._rng = np.random.default_rng(seed)
        self._states = np.zeros((capacity, STATE_DIM), dtype=neural.DTYPE)
        self._actions = np.zeros((capacity, ACTION_DIM), dtype=neural.DTYPE)
        self._rewards = np.zeros(capacity, dtype=neural.DTYPE)
        self._next_states = np.zeros((capacity, STATE_DIM), dtype=neural.DTYPE)
        self._size = 0
        self._cursor = 0

    def __len__(self):
        return self._size

    def add(self, state, action, reward: float, next_state) -> None:
        """Store one transition; state and action components are normalized to [-1, 1]."""
        i = self._cursor
        self._states[i] = state
        self._actions[i] = action
        self._rewards[i] = reward
        self._next_states[i] = next_state
        self._cursor = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int):
        idx = self._rng.integers(0, self._size, size=batch_size)
        return (self._states[idx], self._actions[idx],
                self._rewards[idx], self._next_states[idx])


def _project_unit_ball(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each last-axis row of a shrunk onto the closed unit ball, and the rows' norms."""
    norms = np.linalg.norm(a, axis=-1, keepdims=True)
    return np.where(norms > 1.0, a / np.maximum(norms, 1e-12), a), norms


@dataclass
class Td3Agent:
    """Actor/critic parameter sets, their targets, replay buffer and hyperparameters."""

    actor: DenseNet
    actor_target: DenseNet
    critics: DenseNet          # critic 1 and critic 2, stacked along axis 0
    critics_target: DenseNet
    adam_actor: AdamState
    adam_critics: AdamState
    buffer: ReplayBuffer
    hp: Td3Hyperparams
    rng: np.random.Generator

    @classmethod
    def create(cls, hp: Td3Hyperparams, seed: int) -> "Td3Agent":
        ss = np.random.SeedSequence(seed)
        s_actor, s_c1, s_c2, s_buf, s_noise = ss.spawn(5)
        actor = neural.init_net(hp.actor_dims, _seed_int(s_actor), neural.ACT_TANH)
        actor.weights[-1] *= ACTOR_HEAD_SCALE
        actor.biases[-1] *= ACTOR_HEAD_SCALE
        critics = neural.init_net(hp.critic_dims, (_seed_int(s_c1), _seed_int(s_c2)))
        return cls(
            actor=actor,
            actor_target=neural.clone_net(actor),
            critics=critics,
            critics_target=neural.clone_net(critics),
            adam_actor=neural.init_adam(actor, hp.actor_lr),
            adam_critics=neural.init_adam(critics, hp.critic_lr),
            buffer=ReplayBuffer(hp.buffer_capacity, _seed_int(s_buf)),
            hp=hp,
            rng=np.random.default_rng(s_noise),
        )

    def nets(self) -> dict:
        """The four nets a checkpoint holds, by name; the blocks are shared, not copied."""
        return {"actor": self.actor, "actor_target": self.actor_target,
                "critics": self.critics, "critics_target": self.critics_target}


def _seed_int(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1)[0])


def select_action(agent: Td3Agent, state, explore: bool) -> np.ndarray:
    """Policy action for a normalized float32 (3,) state, on the closed unit ball.

    With explore set, adds zero-mean Gaussian noise to the action (the sum is
    rounded into the float32 action) before projecting it back onto the
    ball; deterministic otherwise. The caller multiplies by the environment's
    action scale to get meters.
    """
    a = neural.forward(agent.actor, state[None, :])[0]
    if explore:
        a += agent.rng.normal(0.0, agent.hp.exploration_noise_std, size=ACTION_DIM)
    return _project_unit_ball(a)[0]


def random_action(agent: Td3Agent) -> np.ndarray:
    """Random action from the closed unit ball (warm-up exploration).

    The radius is uniform in [0, 1] rather than volume-uniform so that small
    displacements are well represented; the optimal action at a good start
    is near zero and the critic needs data there. The draw is float64 and
    the action float32. The caller multiplies by the environment's action
    scale to get meters.
    """
    direction = agent.rng.normal(size=ACTION_DIM)
    direction /= max(np.linalg.norm(direction), 1e-12)
    radius = agent.rng.uniform(0.0, 1.0)
    return (direction * radius).astype(neural.DTYPE)


def critic_update(agent: Td3Agent, minibatch) -> tuple[float, float]:
    """One clipped double-Q step on both critics against a shared smoothed target."""
    states, actions, rewards, next_states = minibatch
    hp = agent.hp
    next_a = neural.forward(agent.actor_target, next_states)
    noise = agent.rng.normal(0.0, hp.target_noise_std, size=next_a.shape)
    next_a += np.clip(noise, -hp.target_noise_clip, hp.target_noise_clip)
    next_a = _project_unit_ball(next_a)[0]
    next_in = np.concatenate([next_states, next_a], axis=1)
    q_next = neural.forward(agent.critics_target, next_in)[..., 0]
    y = rewards + hp.discount * np.minimum(q_next[0], q_next[1])
    tape = []
    q = neural.forward(agent.critics, np.concatenate([states, actions], axis=1), tape)
    err = q[..., 0] - y
    losses = np.mean(err ** 2, axis=1)
    grad = neural.backward(agent.critics, tape, (2.0 * err / err.shape[1])[..., None])
    neural.adam_step(agent.critics, grad, agent.adam_critics)
    return float(losses[0]), float(losses[1])


def actor_update(agent: Td3Agent, minibatch) -> float:
    """One gradient-ascent step on the first critic's value of the policy action.

    The critic is evaluated at the ball-projected policy action (the action
    the environment would actually execute); the projection Jacobian is
    applied on the way back so the ascent never chases values outside the
    feasible set. The critics are left untouched; only the actor moves.
    """
    states = minibatch[0]
    batch = states.shape[0]
    actor_tape, critic_tape = [], []
    a, norms = _project_unit_ball(neural.forward(agent.actor, states, actor_tape))
    outside = norms > 1.0
    critic1 = agent.critics.row(0)
    q = neural.forward(critic1, np.concatenate([states, a], axis=1), critic_tape)[:, 0]
    g = neural.backward(critic1, critic_tape, np.full((batch, 1), -1.0 / batch, neural.DTYPE),
                        wrt_input=True)[:, STATE_DIM:]
    if np.any(outside):
        # d(a/r)/da = (I - a_hat a_hat^T)/r: drop the radial component
        radial = np.sum(g * a, axis=1, keepdims=True) * a
        g = np.where(outside, (g - radial) / norms, g)
    grad = neural.backward(agent.actor, actor_tape, g)
    neural.adam_step(agent.actor, grad, agent.adam_actor)
    return float(np.mean(q))


def sync_targets(agent: Td3Agent) -> None:
    """Polyak-average the target actor and both target critics toward their online twins."""
    neural.polyak_update(agent.critics_target, agent.critics, agent.hp.tau)
    neural.polyak_update(agent.actor_target, agent.actor, agent.hp.tau)


def update(agent: Td3Agent, minibatch) -> tuple[float, float]:
    """Critic step plus, every policy_delay-th call, the delayed actor/target step.

    A diverging net overflows in its forward and backward passes before its
    gradient turns non-finite; the finite check in neural.adam_step reports
    that as one NumericFailureError, so numpy's overflow and invalid-value
    warnings are silenced here.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        losses = critic_update(agent, minibatch)
        if agent.adam_critics.step_count % agent.hp.policy_delay == 0:
            actor_update(agent, minibatch)
            sync_targets(agent)
    return losses


@dataclass
class EpisodeLog:
    episode: int
    reward: float
    mean_max_outage: float


def train(env: Environment, agent: Td3Agent) -> list[EpisodeLog]:
    """Run the training loop of agent.hp on the environment's current topology.

    Every episode restarts the UAV at the environment's start point and runs
    steps_per_episode steps; the topology carries across episodes. The first
    warmup_steps actions are random draws from the action ball, after which
    every step performs one critic update and every policy_delay-th update
    also moves the actor and the targets. The agent is trained in place;
    the result is one log per episode.
    """
    hp = agent.hp
    scale = env.config.limits.action_scale
    logs: list[EpisodeLog] = []
    global_step = 0
    for ep in range(hp.episodes):
        state = norm_state(env.config, env.restart_episode().uav_position)
        ep_reward = 0.0
        ep_outage = 0.0
        for _ in range(hp.steps_per_episode):
            global_step += 1
            if global_step <= hp.warmup_steps:
                action = random_action(agent)
            else:
                action = select_action(agent, state, explore=True)
            result = env.step(action * scale)
            nxt = norm_state(env.config, result.next_state.uav_position)
            agent.buffer.add(state, action, REWARD_SCALE * result.reward, nxt)
            state = nxt
            ep_reward += result.reward
            ep_outage += channel.max_outage(result.outage)
            if len(agent.buffer) > hp.batch_size:
                update(agent, agent.buffer.sample(hp.batch_size))
        logs.append(EpisodeLog(ep, ep_reward, ep_outage / hp.steps_per_episode))
    return logs


def greedy_rollout(env: Environment, agent: Td3Agent,
                   max_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Noise-free policy rollout from the environment's current state.

    Returns (times, positions), (max_steps + 1,) and (max_steps + 1, 3):
    the UAV after k moves and its cumulative flight time, from the start at
    time 0. The UAV only moves: no position is scored and no Monte-Carlo
    seed is drawn, so the caller scores the positions in one outage_scan.
    """
    scale = env.config.limits.action_scale
    times = np.zeros(max_steps + 1)
    positions = np.empty((max_steps + 1, 3))
    positions[0] = env.state.uav_position
    for k in range(1, max_steps + 1):
        action = select_action(agent, norm_state(env.config, positions[k - 1]), explore=False)
        positions[k], elapsed = env.move(action * scale)
        times[k] = times[k - 1] + elapsed
    return times, positions
