"""Twin-delayed deterministic policy gradient agent and its training loop.

Twin critics with clipped double-Q bootstrapping, Gaussian target-policy
smoothing, delayed actor/target updates, a uniform ring replay buffer, and
Gaussian exploration noise. The two critics are one stacked network (row 0
is critic 1, row 1 critic 2) with one stacked target and one Adam state, so
a critic step is one batched forward, one backward and one Adam pass; the
actor step reads critic 1 through a row view. Networks operate in a
normalized space: positions mapped per axis to [-1, 1], actions to the unit
ball; denormalization to meters happens only at the environment boundary.
"""

from dataclasses import dataclass

import numpy as np

from uavthz import neural
from uavthz.environment import Environment
from uavthz.errors import InvalidInputError, require
from uavthz.neural import AdamState, DenseNet

STATE_DIM = 3
ACTION_DIM = 3
# Shrink factor on the actor's output-layer initialization: a near-zero
# initial policy keeps early actions unsaturated; a policy born saturated
# toward the altitude rejection band freezes there.
ACTOR_HEAD_SCALE = 0.01
# Factor on the rewards entering the replay buffer, so critic targets stay
# order-one; the logged episode reward keeps the environment's scale.
REWARD_SCALE = 0.1


@dataclass
class Td3Hyperparams:
    """Network widths, optimizer and exploration settings and the training schedule.

    The noise settings are fractions of the action scale.
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
        require(all(h >= 1 for h in self.hidden_dims), "hidden layer widths must be >= 1",
                "hidden_dims")
        for name in ("actor_lr", "critic_lr"):
            require(getattr(self, name) > 0, f"{name} must be positive", name)
        require(0.0 < self.discount < 1.0, "discount must lie in (0, 1)", "discount")
        require(0.0 < self.tau <= 1.0, "tau must lie in (0, 1]", "tau")
        for name in ("policy_delay", "batch_size", "buffer_capacity", "episodes",
                     "steps_per_episode"):
            require(getattr(self, name) >= 1, f"{name} must be >= 1", name)
        for name in ("exploration_noise_std", "target_noise_std", "target_noise_clip"):
            require(getattr(self, name) >= 0, f"{name} must be >= 0", name)
        require(self.warmup_steps > self.batch_size, "warmup must exceed the batch size",
                "warmup_steps", "batch_size")


@dataclass
class Normalizer:
    """Affine maps between environment coordinates and network coordinates."""

    area_x: float
    area_y: float
    h_min: float
    h_max: float
    action_scale: float

    def norm_state(self, position) -> np.ndarray:
        p = np.asarray(position, dtype=float)
        s = np.empty_like(p)
        s[..., 0] = 2.0 * p[..., 0] / self.area_x - 1.0
        s[..., 1] = 2.0 * p[..., 1] / self.area_y - 1.0
        s[..., 2] = 2.0 * (p[..., 2] - self.h_min) / (self.h_max - self.h_min) - 1.0
        return np.clip(s, -1.0, 1.0)

    def norm_action(self, displacement) -> np.ndarray:
        return np.asarray(displacement, dtype=float) / self.action_scale

    def denorm_action(self, action) -> np.ndarray:
        return np.asarray(action, dtype=float) * self.action_scale


class ReplayBuffer:
    """Fixed-capacity ring storage with uniform random minibatch sampling."""

    def __init__(self, capacity: int, seed: int):
        self.capacity = capacity
        self.rng_seed = seed
        self._rng = np.random.default_rng(seed)
        self._states = np.zeros((capacity, STATE_DIM))
        self._actions = np.zeros((capacity, ACTION_DIM))
        self._rewards = np.zeros(capacity)
        self._next_states = np.zeros((capacity, STATE_DIM))
        self._size = 0
        self._cursor = 0

    def __len__(self):
        return self._size

    def add(self, state, action, reward: float, next_state) -> None:
        """Store one transition; state and action components are normalized to [-1, 1]."""
        if not (np.all(np.isfinite(state)) and np.all(np.isfinite(action))
                and np.isfinite(reward) and np.all(np.isfinite(next_state))):
            raise InvalidInputError("non-finite transition")
        i = self._cursor
        self._states[i] = state
        self._actions[i] = action
        self._rewards[i] = reward
        self._next_states[i] = next_state
        self._cursor = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int):
        if self._size == 0:
            raise InvalidInputError("cannot sample from an empty buffer")
        idx = self._rng.integers(0, self._size, size=batch_size)
        return (self._states[idx], self._actions[idx],
                self._rewards[idx], self._next_states[idx])


def _project_unit_ball(a: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(a, axis=-1, keepdims=True)
    return np.where(norms > 1.0, a / np.maximum(norms, 1e-12), a)


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
    normalizer: Normalizer
    hp: Td3Hyperparams
    rng: np.random.Generator
    critic_updates: int = 0
    actor_updates: int = 0

    @classmethod
    def create(cls, normalizer: Normalizer, hp: Td3Hyperparams, seed: int) -> "Td3Agent":
        ss = np.random.SeedSequence(seed)
        s_actor, s_c1, s_c2, s_buf, s_noise = ss.spawn(5)
        actor_dims = (STATE_DIM, *hp.hidden_dims, ACTION_DIM)
        critic_dims = (STATE_DIM + ACTION_DIM, *hp.hidden_dims, 1)
        actor = neural.init_net(actor_dims, _seed_int(s_actor), neural.ACT_TANH, 1.0)
        actor.weights[-1] *= ACTOR_HEAD_SCALE
        actor.biases[-1] *= ACTOR_HEAD_SCALE
        critics = neural.init_net(critic_dims, (_seed_int(s_c1), _seed_int(s_c2)))
        return cls(
            actor=actor,
            actor_target=neural.clone_net(actor),
            critics=critics,
            critics_target=neural.clone_net(critics),
            adam_actor=neural.init_adam(actor, hp.actor_lr),
            adam_critics=neural.init_adam(critics, hp.critic_lr),
            buffer=ReplayBuffer(hp.buffer_capacity, _seed_int(s_buf)),
            normalizer=normalizer,
            hp=hp,
            rng=np.random.default_rng(s_noise),
        )


def _seed_int(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1)[0])


def select_action(agent: Td3Agent, norm_state, explore: bool) -> np.ndarray:
    """Policy action for a normalized state, as a displacement in meters.

    With explore set, adds zero-mean Gaussian noise to the normalized action
    before projecting back onto the action ball; deterministic otherwise.
    """
    a = neural.forward(agent.actor, np.asarray(norm_state, dtype=float))
    if explore:
        a = a + agent.rng.normal(0.0, agent.hp.exploration_noise_std, size=ACTION_DIM)
    a = _project_unit_ball(a)
    return agent.normalizer.denorm_action(a)


def random_action(agent: Td3Agent) -> np.ndarray:
    """Random displacement in meters from the action ball (warm-up exploration).

    The radius is uniform in [0, 1] rather than volume-uniform so that small
    displacements are well represented; the optimal action at a good start
    is near zero and the critic needs data there.
    """
    direction = agent.rng.normal(size=ACTION_DIM)
    direction /= max(np.linalg.norm(direction), 1e-12)
    radius = agent.rng.uniform(0.0, 1.0)
    return agent.normalizer.denorm_action(direction * radius)


def critic_update(agent: Td3Agent, minibatch) -> tuple[float, float]:
    """One clipped double-Q step on both critics against a shared smoothed target."""
    states, actions, rewards, next_states = minibatch
    if states.shape[0] == 0:
        raise InvalidInputError("empty minibatch")
    hp = agent.hp
    next_a = neural.forward(agent.actor_target, next_states)
    noise = agent.rng.normal(0.0, hp.target_noise_std, size=next_a.shape)
    noise = np.clip(noise, -hp.target_noise_clip, hp.target_noise_clip)
    next_a = _project_unit_ball(next_a + noise)
    next_in = np.concatenate([next_states, next_a], axis=1)
    q_next = neural.forward(agent.critics_target, next_in)[..., 0]
    y = rewards + hp.discount * np.minimum(q_next[0], q_next[1])
    tape = []
    q = neural.forward(agent.critics, np.concatenate([states, actions], axis=1), tape)
    err = q[..., 0] - y
    losses = np.mean(err ** 2, axis=1)
    grad = neural.backward(agent.critics, tape, (2.0 * err / err.shape[1])[..., None])
    neural.adam_step(agent.critics, grad, agent.adam_critics)
    agent.critic_updates += 1
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
    raw = neural.forward(agent.actor, states, actor_tape)
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    outside = norms[:, 0] > 1.0
    a = np.where(outside[:, None], raw / np.maximum(norms, 1e-12), raw)
    critic1 = agent.critics.row(0)
    q = neural.forward(critic1, np.concatenate([states, a], axis=1), critic_tape)[:, 0]
    g = neural.backward(critic1, critic_tape, np.full((batch, 1), -1.0 / batch),
                        wrt_input=True)[:, STATE_DIM:]
    if np.any(outside):
        # d(a/r)/da = (I - a_hat a_hat^T)/r: drop the radial component
        radial = np.sum(g * a, axis=1, keepdims=True) * a
        g_proj = (g - radial) / norms
        g = np.where(outside[:, None], g_proj, g)
    grad = neural.backward(agent.actor, actor_tape, g)
    neural.adam_step(agent.actor, grad, agent.adam_actor)
    agent.actor_updates += 1
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
        if agent.critic_updates % agent.hp.policy_delay == 0:
            actor_update(agent, minibatch)
            sync_targets(agent)
    return losses


@dataclass
class EpisodeLog:
    episode: int
    reward: float
    mean_max_outage: float


def train(env: Environment, agent: Td3Agent):
    """Run the training loop of agent.hp on the environment's current topology.

    Every episode restarts the UAV at the environment's start point and runs
    steps_per_episode steps; the topology carries across episodes. The first
    warmup_steps actions are random draws from the action ball, after which
    every step performs one critic update and every policy_delay-th update
    also moves the actor and the targets.
    """
    hp = agent.hp
    norm = agent.normalizer
    logs: list[EpisodeLog] = []
    global_step = 0
    for ep in range(hp.episodes):
        state = env.restart_episode().uav_position
        ep_reward = 0.0
        ep_outage = 0.0
        for _ in range(hp.steps_per_episode):
            global_step += 1
            ns = norm.norm_state(state)
            if global_step <= hp.warmup_steps:
                action = random_action(agent)
            else:
                action = select_action(agent, ns, explore=True)
            result = env.step(action)
            nxt = result.next_state.uav_position
            agent.buffer.add(ns, norm.norm_action(action), REWARD_SCALE * result.reward,
                             norm.norm_state(nxt))
            state = nxt
            ep_reward += result.reward
            ep_outage += float(result.outage.per_link_outage.max())
            if len(agent.buffer) > hp.batch_size:
                update(agent, agent.buffer.sample(hp.batch_size))
        logs.append(EpisodeLog(ep, ep_reward, ep_outage / hp.steps_per_episode))
    return agent, logs


@dataclass
class RolloutPoint:
    step: int
    time: float
    position: np.ndarray


def greedy_rollout(env: Environment, agent: Td3Agent, max_steps: int):
    """Noise-free policy rollout from the environment's current state.

    Emits the starting point (step 0) followed by one point per move with
    cumulative flight time. The UAV only moves: no position is scored and no
    Monte-Carlo seed is drawn, so the caller scores the visited positions.
    """
    norm = agent.normalizer
    position = env.state.uav_position
    trace = [RolloutPoint(0, 0.0, position)]
    t = 0.0
    for k in range(1, max_steps + 1):
        action = select_action(agent, norm.norm_state(position), explore=False)
        position, elapsed = env.move(action)
        t += elapsed
        trace.append(RolloutPoint(k, t, position))
    return trace
