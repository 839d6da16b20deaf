import copy
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavthz import channel, neural, td3
from uavthz.config import RunConfig
from uavthz.environment import Environment
from uavthz.errors import InvalidInputError, NumericFailureError
from uavthz.td3 import ReplayBuffer, Td3Agent, Td3Hyperparams

F32 = np.float32
# A float32 unit-ball projection a / |a| may leave the norm this far above 1:
# the float32 norm is within 2.5 U of |a| and each quotient rounds by U.
BALL_SLACK = 4 * 2.0 ** -24


def tiny_hp(**kw) -> Td3Hyperparams:
    base = dict(hidden_dims=(16, 8), batch_size=4, warmup_steps=6,
                buffer_capacity=64, episodes=3, steps_per_episode=4)
    base.update(kw)
    return replace(RunConfig().hyperparams(), **base)


def small_env(**kw) -> Environment:
    cfg = replace(RunConfig().env_config(), m_s_min=2, m_s_max=2, **kw)
    return Environment(cfg, replace(RunConfig().channel_params(), uav_n_side=4, sbs_n_side=2))


def make_agent(seed=0, **kw) -> Td3Agent:
    return Td3Agent.create(tiny_hp(**kw), seed)


def random_batch(rng, n=4):
    """A float32 minibatch, as the replay buffer samples one."""
    states = rng.uniform(-1, 1, (n, 3))
    actions = rng.uniform(-0.5, 0.5, (n, 3))
    rewards = rng.uniform(0, 2, n)
    next_states = rng.uniform(-1, 1, (n, 3))
    return tuple(a.astype(F32) for a in (states, actions, rewards, next_states))


def uniform32(rng, size):
    return rng.uniform(-1, 1, size).astype(F32)


def as64(a):
    return a.astype(np.float64)


def clipped_norm_state(cfg, position):
    """Reference state map, spelled out per axis and clipped: on the flight box
    norm_state must agree with it bit for bit."""
    lim = cfg.limits
    p = np.asarray(position, dtype=float)
    s = np.empty(p.shape, dtype=F32)
    s[..., 0] = 2.0 * p[..., 0] / cfg.area_x - 1.0
    s[..., 1] = 2.0 * p[..., 1] / cfg.area_y - 1.0
    s[..., 2] = 2.0 * (p[..., 2] - lim.h_min) / (lim.h_max - lim.h_min) - 1.0
    return np.clip(s, -1.0, 1.0)


def odd_box_config():
    """A flight box whose bounds are not binary fractions, so hi - lo rounds."""
    limits = replace(RunConfig().kinematic_limits(), h_min=30.1, h_max=129.7)
    return replace(RunConfig().env_config(), area_x=120.3, area_y=97.9, limits=limits)


class TestNormState:
    # the default flight volume: a 150 m x 150 m area, altitudes 30 to 130 m
    CFG = RunConfig().env_config()

    def test_state_round_trip_center(self):
        assert np.allclose(td3.norm_state(self.CFG, [75, 75, 80]), [0, 0, 0])
        assert np.allclose(td3.norm_state(self.CFG, [0, 150, 30]), [-1, 1, -1])

    @pytest.mark.parametrize("cfg", [CFG, odd_box_config()], ids=["default", "odd"])
    def test_box_corners_map_to_plus_minus_one(self, cfg):
        lo, hi = cfg.box
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
        corners = np.where(signs > 0, hi, lo)
        assert np.array_equal(td3.norm_state(cfg, corners), signs.astype(F32))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_in_box_position_maps_into_the_unit_cube(self, data):
        cfg = data.draw(st.sampled_from([self.CFG, odd_box_config()]))
        position = [data.draw(st.floats(lo, hi)) for lo, hi in zip(*cfg.box)]
        s = td3.norm_state(cfg, position)
        assert s.dtype == F32 and np.all((-1.0 <= s) & (s <= 1.0))
        assert np.array_equal(s, clipped_norm_state(cfg, position))


class TestReplayBuffer:
    def test_ring_eviction(self):
        buf = ReplayBuffer(3, seed=0)
        for k in range(5):
            buf.add(np.full(3, 0.1), np.zeros(3), float(k), np.zeros(3))
        assert len(buf) == 3
        assert set(buf._rewards.tolist()) == {2.0, 3.0, 4.0}

    def test_sampling_uniformity_chi_squared(self):
        cap = 50
        buf = ReplayBuffer(cap, seed=7)
        for k in range(cap):
            buf.add(np.zeros(3), np.zeros(3), float(k), np.zeros(3))
        draws = 100_000
        counts = np.zeros(cap)
        for _ in range(100):
            _, _, rewards, _ = buf.sample(1000)
            for r in rewards:
                counts[int(r)] += 1
        expected = draws / cap
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # the 0.99 quantile of chi-squared with cap - 1 = 49 degrees of freedom
        assert chi2 < 74.91947430847816


def zero_actor(agent):
    """The agent's actor with every weight and bias set to 0: its action is 0."""
    for w in agent.actor.weights:
        w[:] = 0.0
    for b in agent.actor.biases:
        b[:] = 0.0
    return agent.actor


class TestSelectAction:
    def test_deterministic_without_exploration(self):
        agent = make_agent(3)
        s = np.array([0.2, -0.1, 0.4], F32)
        a1 = td3.select_action(agent.actor, s)
        a2 = td3.select_action(agent.actor, s)
        assert np.array_equal(a1, a2)

    def test_zero_noise_matches_deterministic(self):
        agent = make_agent(4)
        s = np.array([0.2, -0.1, 0.4], F32)
        det = td3.select_action(agent.actor, s)
        noisy = td3.select_action(agent.actor, s, np.zeros(3))
        assert np.array_equal(det, noisy)

    def test_action_within_ball(self):
        agent = make_agent(5)
        rng = np.random.default_rng(0)
        for _ in range(200):
            s = uniform32(rng, 3)
            a = td3.select_action(agent.actor, s, rng.normal(0.0, 0.8, 3))
            assert np.linalg.norm(as64(a)) <= 1.0 + BALL_SLACK

    def test_noise_inside_the_ball_is_the_action_offset(self):
        # a zero actor isolates the noise: well inside the ball it is the
        # action, rounded into float32, and nothing projects it
        actor = zero_actor(make_agent(6))
        rng = np.random.default_rng(1)
        s = np.zeros(3, F32)
        for noise in rng.normal(0.0, 0.05, (1000, 3)):
            a = td3.select_action(actor, s, noise)
            assert a.dtype == F32 and np.array_equal(a, noise.astype(F32))

    def test_noise_outside_the_ball_is_projected(self):
        a = td3.select_action(zero_actor(make_agent(6)), np.zeros(3, F32),
                              np.array([3.0, 0.0, 4.0]))
        assert np.allclose(as64(a), [0.6, 0.0, 0.8], rtol=0, atol=1e-7)

    def test_warmup_action_inside_ball(self):
        agent = make_agent(7)
        for _ in range(100):
            a = td3.random_action(agent)
            assert np.linalg.norm(as64(a)) <= 1.0 + BALL_SLACK


@pytest.mark.parametrize("name", ["exploration_noise_std", "target_noise_std",
                                  "target_noise_clip"])
def test_noise_settings_are_bounded(name):
    assert getattr(tiny_hp(**{name: td3.MAX_NOISE}), name) == td3.MAX_NOISE
    with pytest.raises(InvalidInputError, match=name):
        tiny_hp(**{name: 2 * td3.MAX_NOISE})


# A warning is an error here: at the bound a noisy action still has a norm.
@pytest.mark.filterwarnings("error")
def test_noisiest_action_lands_on_the_ball():
    agent = make_agent(12)
    for _ in range(100):
        noise = agent.rng.normal(0.0, td3.MAX_NOISE, size=3)
        a = td3.select_action(agent.actor, np.zeros(3, F32), noise)
        assert np.linalg.norm(a) == pytest.approx(1.0)


def test_unit_ball_projection_returns_rows_and_their_norms():
    a = np.array([[0.3, 0.0, -0.4], [3.0, 0.0, 4.0], [0.0, 0.0, 0.0]])
    projected, norms = td3._project_unit_ball(a)
    assert np.array_equal(norms[:, 0], [0.5, 5.0, 0.0])
    assert np.array_equal(projected[0], a[0]) and np.array_equal(projected[2], a[2])
    assert np.allclose(projected[1], [0.6, 0.0, 0.8], rtol=0, atol=1e-15)


class TestCriticUpdate:
    def test_zero_discount_targets_reward_only(self):
        agent = make_agent(8, discount=1e-12, target_noise_std=0.0)
        rng = np.random.default_rng(1)
        batch = random_batch(rng)
        states, actions, rewards, _ = batch
        q_before = neural.forward(agent.critics.row(0),
                                  np.concatenate([states, actions], axis=1))[:, 0]
        expected_loss = float(np.mean((q_before - rewards) ** 2))
        loss1, _ = td3.critic_update(agent, batch)
        assert loss1 == pytest.approx(expected_loss, rel=1e-6)

    def test_identical_critic_targets_min_is_first(self):
        agent = make_agent(9, target_noise_std=0.0)
        agent.critics_target.params[1] = agent.critics_target.params[0]
        rng = np.random.default_rng(2)
        states, actions, rewards, next_states = random_batch(rng)
        next_a = neural.forward(agent.actor_target, next_states)
        next_a = next_a / np.maximum(np.linalg.norm(next_a, axis=1, keepdims=True), 1.0)
        q1t = neural.forward(agent.critics_target.row(0),
                             np.concatenate([next_states, next_a], axis=1))[:, 0]
        y = rewards + agent.hp.discount * q1t
        q = neural.forward(agent.critics.row(0),
                           np.concatenate([states, actions], axis=1))[:, 0]
        expected_loss = float(np.mean((q - y) ** 2))
        loss1, _ = td3.critic_update(agent, (states, actions, rewards, next_states))
        assert loss1 == pytest.approx(expected_loss, rel=1e-6)

    def test_hand_built_two_transition_loss(self):
        # frozen tiny nets, zero smoothing noise: the loss is a short formula
        agent = make_agent(10, target_noise_std=0.0, discount=0.5)
        batch = (np.array([[0.1, 0.2, 0.3], [-0.2, 0.0, 0.4]], F32),
                 np.array([[0.1, 0.0, 0.0], [0.0, 0.2, 0.0]], F32),
                 np.array([1.0, 2.0], F32),
                 np.array([[0.0, 0.1, 0.0], [0.3, -0.1, 0.2]], F32))
        states, actions, rewards, next_states = batch
        a2 = neural.forward(agent.actor_target, next_states)
        a2 = a2 / np.maximum(np.linalg.norm(a2, axis=1, keepdims=True), 1.0)
        nin = np.concatenate([next_states, a2], axis=1)
        y = rewards + 0.5 * np.minimum(
            neural.forward(agent.critics_target.row(0), nin)[:, 0],
            neural.forward(agent.critics_target.row(1), nin)[:, 0])
        sin = np.concatenate([states, actions], axis=1)
        manual1 = float(np.mean((neural.forward(agent.critics.row(0), sin)[:, 0] - y) ** 2))
        manual2 = float(np.mean((neural.forward(agent.critics.row(1), sin)[:, 0] - y) ** 2))
        loss1, loss2 = td3.critic_update(agent, batch)
        assert loss1 == pytest.approx(manual1, rel=1e-9)
        assert loss2 == pytest.approx(manual2, rel=1e-9)

    def test_clipped_double_q_bound(self):
        agent = make_agent(11, target_noise_std=0.0)
        rng = np.random.default_rng(3)
        states, actions, rewards, next_states = random_batch(rng)
        next_a = neural.forward(agent.actor_target, next_states)
        next_a = next_a / np.maximum(np.linalg.norm(next_a, axis=1, keepdims=True), 1.0)
        nin = np.concatenate([next_states, next_a], axis=1)
        q1t = neural.forward(agent.critics_target.row(0), nin)[:, 0]
        q2t = neural.forward(agent.critics_target.row(1), nin)[:, 0]
        y = rewards + agent.hp.discount * np.minimum(q1t, q2t)
        assert np.all(y <= rewards + agent.hp.discount * q1t + 1e-12)
        assert np.all(y <= rewards + agent.hp.discount * q2t + 1e-12)

    def test_targets_untouched_by_critic_update(self):
        agent = make_agent(12)
        frozen = agent.critics_target.params.copy()
        rng = np.random.default_rng(4)
        for _ in range(3):
            td3.critic_update(agent, random_batch(rng))
        assert np.array_equal(frozen, agent.critics_target.params)

    def test_nonfinite_gradient_raises(self):
        agent = make_agent(12)
        agent.critics.params[1, 0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericFailureError):
            td3.critic_update(agent, random_batch(np.random.default_rng(4)))
        assert agent.adam_critics.step_count == 0


class TestActorUpdate:
    def test_constant_critic_gives_zero_gradient(self):
        agent = make_agent(13)
        agent.critics.params[0] = 0.0
        agent.critics.row(0).biases[-1][0] = 3.0
        before = [w.copy() for w in agent.actor.weights]
        td3.actor_update(agent, (uniform32(np.random.default_rng(5), (4, 3)),
                                 None, None, None))
        assert all(np.array_equal(a, b) for a, b in zip(before, agent.actor.weights))

    def test_ascends_synthetic_bowl(self):
        # critic1 wired to Q(s, a) = -sum_k |a_k - a*_k| via paired relus
        agent = make_agent(14)
        astar = np.array([0.4, -0.2, 0.3])
        w0 = np.zeros((6, 16))
        b0 = np.zeros(16)
        for k in range(3):
            w0[3 + k, 2 * k] = 1.0
            b0[2 * k] = -astar[k]
            w0[3 + k, 2 * k + 1] = -1.0
            b0[2 * k + 1] = astar[k]
        w1 = np.zeros((16, 8))
        b1 = np.zeros(8)
        w1[:6, 0] = 1.0
        b1[1] = 1.0
        w2 = np.zeros((8, 1))
        w2[0, 0] = -1.0
        critic1 = agent.critics.row(0)
        for view, value in zip(critic1.weights + critic1.biases, (w0, w1, w2, b0, b1, 0.0)):
            view[...] = value
        agent.adam_actor = neural.init_adam(agent.actor, 1e-2)
        states = np.zeros((8, 3), F32)
        for _ in range(2500):
            td3.actor_update(agent, (states, None, None, None))
        out = neural.forward(agent.actor, np.zeros((1, 3), F32))[0]
        assert np.linalg.norm(out - astar) < 0.05

    def test_critics_untouched_by_actor_update(self):
        agent = make_agent(15)
        frozen = agent.critics.params.copy()
        td3.actor_update(agent, (np.zeros((4, 3), F32), None, None, None))
        assert np.array_equal(frozen, agent.critics.params)


class TestDelayContract:
    def test_actor_unchanged_after_odd_updates(self):
        agent = make_agent(16, policy_delay=2)
        rng = np.random.default_rng(6)
        before = [w.copy() for w in agent.actor.weights]
        td3.update(agent, random_batch(rng))  # 1 critic update: no actor step
        assert all(np.array_equal(a, b) for a, b in zip(before, agent.actor.weights))
        td3.update(agent, random_batch(rng))  # 2nd: actor and targets move
        assert not all(np.array_equal(a, b) for a, b in zip(before, agent.actor.weights))

    def test_exact_update_ratio(self):
        agent = make_agent(17, policy_delay=3)
        rng = np.random.default_rng(7)
        for _ in range(12):
            td3.update(agent, random_batch(rng))
        assert agent.adam_critics.step_count == 12
        assert agent.adam_actor.step_count == 4

    def test_targets_move_only_with_actor(self):
        agent = make_agent(18, policy_delay=2)
        rng = np.random.default_rng(8)
        frozen = [w.copy() for w in agent.actor_target.weights]
        td3.update(agent, random_batch(rng))
        assert all(np.array_equal(a, b) for a, b in zip(frozen, agent.actor_target.weights))
        td3.update(agent, random_batch(rng))
        assert not all(np.array_equal(a, b) for a, b in zip(frozen, agent.actor_target.weights))


class TestTrainLoop:
    def _env(self):
        env = small_env(mc_samples=40)
        env.reset(0)
        return env

    def test_carried_states_match_the_clipped_map(self):
        # A 12 m x 12 m x 10 m box, so the 4-step flights reach its faces.
        limits = replace(RunConfig().kinematic_limits(), h_max=40.0)
        env = small_env(mc_samples=40, area_x=12.0, area_y=12.0, limits=limits)
        env.reset(0)
        visited = []
        step = env.step

        def recording(displacement):
            result = step(displacement)
            visited.append(result.next_state.uav_position)
            return result

        env.step = recording
        hp = tiny_hp()
        agent = Td3Agent.create(hp, 25)
        td3.train(env, agent)
        lo, hi = env.config.box
        after = np.reshape(visited, (hp.episodes, hp.steps_per_episode, 3))
        assert np.any((after == lo) | (after == hi))
        start = np.broadcast_to(env.restart_episode().uav_position, (hp.episodes, 1, 3))
        before = np.concatenate([start, after[:, :-1]], axis=1)
        n = len(agent.buffer)
        assert n == hp.episodes * hp.steps_per_episode
        for column, positions in ((agent.buffer._states, before),
                                  (agent.buffer._next_states, after)):
            assert np.array_equal(column[:n], clipped_norm_state(env.config,
                                                                 positions.reshape(n, 3)))

    def test_zero_learning_rates_freeze_parameters(self):
        env = self._env()
        hp = tiny_hp()
        agent = Td3Agent.create(hp, 21)
        agent.adam_actor.learning_rate = agent.adam_critics.learning_rate = 0.0
        before = [agent.actor.params.copy(), agent.critics.params.copy()]
        td3.train(env, agent)
        assert np.array_equal(before[0], agent.actor.params)
        assert np.array_equal(before[1], agent.critics.params)

    def test_fixed_seed_reproduces_reward_series(self):
        series = []
        for _ in range(2):
            env = self._env()
            agent = Td3Agent.create(tiny_hp(), 22)
            logs = td3.train(env, agent)
            series.append([lg.reward for lg in logs])
        assert series[0] == series[1]

    def test_buffer_holds_unit_ball_actions(self):
        # the loop moves the UAV by action_scale times an action and stores
        # the unit-ball action itself
        env = self._env()
        agent = make_agent(24, exploration_noise_std=td3.MAX_NOISE)
        td3.train(env, agent)
        norms = np.linalg.norm(as64(agent.buffer._actions[:len(agent.buffer)]), axis=1)
        assert np.all(norms <= 1.0 + BALL_SLACK) and np.any(norms > 1.0 - BALL_SLACK)

    def test_exploration_noise_is_the_agents_draw_at_its_std(self, monkeypatch):
        # after warm-up, every step draws its noise from agent.rng just before
        # it selects the action, at exploration_noise_std
        env = self._env()
        hp = tiny_hp(exploration_noise_std=0.3)
        agent = Td3Agent.create(hp, 26)
        rng, draws, passed = agent.rng, [], []

        class RecordingRng:
            def normal(self, *args, **kwargs):
                out = rng.normal(*args, **kwargs)
                draws.append((args, kwargs, out))
                return out

            def __getattr__(self, name):
                return getattr(rng, name)

        agent.rng = RecordingRng()
        select = td3.select_action

        def recording(actor, state, noise=None):
            passed.append((len(draws), noise))
            assert actor is agent.actor
            return select(actor, state, noise)

        monkeypatch.setattr(td3, "select_action", recording)
        td3.train(env, agent)
        assert len(passed) == hp.episodes * hp.steps_per_episode - hp.warmup_steps
        for n, noise in passed:
            args, kwargs, out = draws[n - 1]
            assert noise is out and args == (0.0, 0.3) and kwargs == {"size": td3.ACTION_DIM}

    def test_episode_count_and_log_shape(self):
        env = self._env()
        hp = tiny_hp(episodes=5)
        agent = Td3Agent.create(hp, 23)
        logs = td3.train(env, agent)
        assert [lg.episode for lg in logs] == list(range(5))


def test_every_agent_array_is_float32(monkeypatch):
    # A float64 array anywhere in the agent would silently promote the passes
    # it enters; the environment's positions stay float64.
    seen = []

    def recorded(fn, *names):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            arrays = dict(zip(names, args[1:]), result=result)
            seen.extend((fn.__name__, name, a.dtype) for name, a in arrays.items()
                        if isinstance(a, np.ndarray))
            return result
        return wrapper

    monkeypatch.setattr(neural, "forward", recorded(neural.forward, "x"))
    monkeypatch.setattr(neural, "backward", recorded(neural.backward, "tape", "output_grad"))
    monkeypatch.setattr(neural, "adam_step", recorded(neural.adam_step, "grad"))
    env = small_env(mc_samples=40)
    env.reset(0)
    agent = make_agent(29)
    td3.train(env, agent)
    times, positions = td3.greedy_rollout(env, agent.actor, 2)
    assert {name for _, name, _ in seen} == {"x", "output_grad", "grad", "result"}
    assert {dtype for *_, dtype in seen} == {np.dtype(F32)}
    state = td3.norm_state(env.config, positions[-1])
    assert times.dtype == positions.dtype == np.float64 and state.dtype == F32
    arrays = [td3.select_action(agent.actor, state, agent.rng.normal(0.0, 0.1, size=3)),
              td3.random_action(agent)]
    for net in agent.nets().values():
        arrays.append(net.params)
    for adam in (agent.adam_actor, agent.adam_critics):
        arrays += [adam.first_moment, adam.second_moment]
    buf = agent.buffer
    arrays += [buf._states, buf._actions, buf._rewards, buf._next_states, *buf.sample(4)]
    assert all(a.dtype == F32 for a in arrays)


def test_block_sizes_tell_the_hidden_widths_apart():
    # A checkpoint stores no layer dims, only blocks that must match in shape:
    # the actor's and the critics' sizes together fix (hidden1, hidden2).
    h1, h2 = np.meshgrid(np.arange(1, 1025), np.arange(1, 1025), indexing="ij")

    def size(d_in, d_out):
        return (d_in + 1) * h1 + (h1 + 1) * h2 + (h2 + 1) * d_out

    actor = size(td3.STATE_DIM, td3.ACTION_DIM)
    critic = size(td3.STATE_DIM + td3.ACTION_DIM, 1)
    for hidden in ((1, 1), (16, 8), (256, 128), (1024, 3)):
        agent = make_agent(hidden_dims=hidden)
        at = (hidden[0] - 1, hidden[1] - 1)
        assert agent.actor.params.shape == (actor[at],)
        assert agent.critics.params.shape == (2, critic[at])
    assert actor.max() < 2 ** 21
    assert np.unique(actor * 2 ** 21 + critic).size == h1.size
    assert np.unique(actor).size < h1.size   # the actor's size alone does not


@pytest.mark.parametrize("hidden", [(1, 1), (16, 8), (256, 128)])
def test_empty_nets_have_the_agents_layouts(hidden):
    # a checkpoint is read into empty_nets and written from Td3Agent.nets
    agent = make_agent(hidden_dims=hidden)
    empty = td3.empty_nets(hidden)
    assert list(empty) == list(agent.nets()) == list(td3.CHECKPOINT_NETS)
    for name, net in agent.nets().items():
        assert empty[name].layer_dims == net.layer_dims
        assert empty[name].params.shape == net.params.shape
        assert empty[name].params.dtype == net.params.dtype == F32
        assert empty[name].output_activation == net.output_activation
    # a policy bounded to the unit ball's cube, unbounded Q-values
    assert agent.actor.output_activation == agent.actor_target.output_activation == "tanh"
    assert agent.critics.output_activation == agent.critics_target.output_activation == "linear"


class TestGreedyRollout:
    def test_zero_actor_is_stationary(self):
        env = small_env(mc_samples=30)
        env.reset(1)
        times, positions = td3.greedy_rollout(env, zero_actor(make_agent(24)), 5)
        assert times.shape == (6,) and positions.shape == (6, 3)
        assert np.array_equal(positions, np.broadcast_to(positions[0], (6, 3)))
        lo, hi = env.config.box
        assert np.array_equal(positions[0], 0.5 * (lo + hi))
        assert not times.any()

    def test_rollout_moves_by_the_action_scale(self):
        env = small_env(mc_samples=30)
        env.reset(1)
        actor = zero_actor(make_agent(24))
        actor.biases[-1][:] = np.arctanh([0.3, 0.0, -0.4])
        times, positions = td3.greedy_rollout(env, actor, 1)
        scale = env.config.limits.action_scale
        assert np.allclose(positions[1] - positions[0], [0.3 * scale, 0.0, -0.4 * scale])
        assert times[1] == pytest.approx(0.5 * scale / env.config.limits.v_max)
        assert np.array_equal(env.state.uav_position, positions[-1])

    def test_rollout_deterministic(self):
        traces = []
        for _ in range(2):
            env = small_env(mc_samples=30)
            env.reset(2)
            traces.append(td3.greedy_rollout(env, make_agent(25).actor, 6))
        for first, second in zip(*traces):
            assert np.array_equal(first, second)

    def test_rollout_makes_no_outage_scan(self, monkeypatch):
        calls = []
        monkeypatch.setattr(channel, "outage_scan", lambda *a, **k: calls.append(a))
        env = small_env(mc_samples=30)
        env.reset(4)
        times, positions = td3.greedy_rollout(env, make_agent(27).actor, 6)
        assert times.shape == (7,) and positions.shape == (7, 3) and calls == []

    def test_rollout_draws_nothing_from_the_agent(self):
        # the rollout reads the actor alone: an actor filled into empty nets,
        # as eval loads one, flies the agent's trajectory, and the agent's
        # generator is not touched
        agent = make_agent(28)
        loaded = td3.empty_nets(tiny_hp().hidden_dims)["actor"]
        loaded.params[...] = agent.actor.params
        before = agent.rng.bit_generator.state
        traces = []
        for actor in (agent.actor, loaded):
            env = small_env(mc_samples=30)
            env.reset(5)
            traces.append(td3.greedy_rollout(env, actor, 6))
        for first, second in zip(*traces):
            assert np.array_equal(first, second)
        assert agent.rng.bit_generator.state == before

    def test_time_column_is_cumulative_and_bounded(self):
        env = small_env(mc_samples=30)
        env.reset(3)
        times, positions = td3.greedy_rollout(env, make_agent(26).actor, 10)
        assert times.shape == (11,) and positions.shape == (11, 3)
        assert times[0] == 0.0 and np.all(np.diff(times) >= 0.0)
        assert times[-1] <= 10 * 10.0 / 8.0 + 1e-9
        # each step adds the flight time of its move at peak speed
        steps = np.linalg.norm(np.diff(positions, axis=0), axis=1) / env.config.limits.v_max
        assert np.allclose(np.diff(times), steps, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------- reference update
# The previous implementation, kept as an oracle: per-layer weight and bias
# lists, two separate critics with their own Adam states, and a backward pass
# that repeats the forward pass. It runs on the agent's float32 copies and
# float32 minibatches, so it must match the flat-block update bit for bit.

@dataclass
class RefNet:
    weights: list
    biases: list
    output_activation: str


# Adam's decay rates and denominator guard
REF_BETA1, REF_BETA2, REF_EPSILON = 0.9, 0.999, 1e-8


@dataclass
class RefAdam:
    first_moment: list
    second_moment: list
    step_count: int
    learning_rate: float


def ref_net(net, k=None) -> RefNet:
    """Per-layer copies of a net, or of row k of a stacked net."""
    src = net if k is None else net.row(k)
    return RefNet([w.copy() for w in src.weights], [b.copy() for b in src.biases],
                  src.output_activation)


def ref_adam(state, dims, k=None) -> RefAdam:
    """Per-layer copies (weights, then biases) of an Adam state, or of row k of a stack."""
    def lists(block):
        weights, biases = neural._layer_views(block if k is None else block[k], dims)
        return [a.copy() for a in weights + biases]
    return RefAdam(lists(state.first_moment), lists(state.second_moment), state.step_count,
                   state.learning_rate)


def ref_forward_cached(net, x):
    acts = [x]
    h = x
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
        acts.append(h)
    z = h @ net.weights[-1] + net.biases[-1]
    y = np.tanh(z) if net.output_activation == neural.ACT_TANH else z
    return y, acts, z


def ref_forward(net, x):
    return ref_forward_cached(net, x)[0]


def ref_backward(net, x, g):
    _, acts, z = ref_forward_cached(net, x)
    if net.output_activation == neural.ACT_TANH:
        t = np.tanh(z)
        delta = g * (1.0 - t * t)
    else:
        delta = g.copy()
    n_layers = len(net.weights)
    w_grads, b_grads = [None] * n_layers, [None] * n_layers
    for l in range(n_layers - 1, -1, -1):
        w_grads[l] = acts[l].T @ delta
        b_grads[l] = delta.sum(axis=0)
        delta = delta @ net.weights[l].T
        if l > 0:
            delta = delta * (acts[l] > 0)
    return w_grads, b_grads, delta


def ref_adam_step(net, w_grads, b_grads, state):
    grads = list(w_grads) + list(b_grads)
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise NumericFailureError("non-finite gradient in Adam step")
    state.step_count += 1
    t = state.step_count
    # Kingma & Ba's efficient form of lr * (m / c1) / (sqrt(v / c2) + eps)
    root_c2 = math.sqrt(1.0 - REF_BETA2 ** t)
    step_size = state.learning_rate * root_c2 / (1.0 - REF_BETA1 ** t)
    for p, g, m, v in zip(net.weights + net.biases, grads, state.first_moment,
                          state.second_moment):
        m *= REF_BETA1
        m += (1.0 - REF_BETA1) * g
        v *= REF_BETA2
        v += (1.0 - REF_BETA2) * g * g
        p -= step_size * m / (np.sqrt(v) + REF_EPSILON * root_c2)


def ref_polyak_update(target, online, tau):
    for tp, op in zip(target.weights + target.biases, online.weights + online.biases):
        tp *= 1.0 - tau
        tp += tau * op


class RefAgent:
    """The six nets and three Adam states of an agent, copied before any update."""

    def __init__(self, agent):
        critic_dims = agent.critics.layer_dims
        self.critic1, self.critic2 = ref_net(agent.critics, 0), ref_net(agent.critics, 1)
        self.critic1_target = ref_net(agent.critics_target, 0)
        self.critic2_target = ref_net(agent.critics_target, 1)
        self.adam_critic1 = ref_adam(agent.adam_critics, critic_dims, 0)
        self.adam_critic2 = ref_adam(agent.adam_critics, critic_dims, 1)
        self.actor, self.actor_target = ref_net(agent.actor), ref_net(agent.actor_target)
        self.adam_actor = ref_adam(agent.adam_actor, agent.actor.layer_dims)
        self.hp = agent.hp
        self.rng = copy.deepcopy(agent.rng)
        self.critic_updates = 0
        self.projected_batches = 0


def ref_critic_update(agent, minibatch):
    states, actions, rewards, next_states = minibatch
    hp = agent.hp
    next_a = ref_forward(agent.actor_target, next_states)
    noise = agent.rng.normal(0.0, hp.target_noise_std, size=next_a.shape)
    # the float64 noise is added into the float32 action, one rounding
    next_a += np.clip(noise, -hp.target_noise_clip, hp.target_noise_clip)
    next_a = td3._project_unit_ball(next_a)[0]
    next_in = np.concatenate([next_states, next_a], axis=1)
    q1t = ref_forward(agent.critic1_target, next_in)[:, 0]
    q2t = ref_forward(agent.critic2_target, next_in)[:, 0]
    y = rewards + hp.discount * np.minimum(q1t, q2t)
    batch_in = np.concatenate([states, actions], axis=1)
    losses = []
    for critic, adam in ((agent.critic1, agent.adam_critic1),
                         (agent.critic2, agent.adam_critic2)):
        q = ref_forward(critic, batch_in)[:, 0]
        err = q - y
        losses.append(float(np.mean(err ** 2)))
        w_grads, b_grads, _ = ref_backward(critic, batch_in, (2.0 * err / err.size)[:, None])
        ref_adam_step(critic, w_grads, b_grads, adam)
    agent.critic_updates += 1
    return losses[0], losses[1]


def ref_actor_update(agent, minibatch):
    states = minibatch[0]
    batch = states.shape[0]
    raw = ref_forward(agent.actor, states)
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    outside = norms[:, 0] > 1.0
    a = np.where(outside[:, None], raw / np.maximum(norms, 1e-12), raw)
    critic_in = np.concatenate([states, a], axis=1)
    q = ref_forward(agent.critic1, critic_in)[:, 0]
    _, _, input_grad = ref_backward(agent.critic1, critic_in,
                                    np.full((batch, 1), -1.0 / batch, F32))
    g = input_grad[:, td3.STATE_DIM:]
    if np.any(outside):
        agent.projected_batches += 1
        radial = np.sum(g * a, axis=1, keepdims=True) * a
        g = np.where(outside[:, None], (g - radial) / norms, g)
    w_grads, b_grads, _ = ref_backward(agent.actor, states, g)
    ref_adam_step(agent.actor, w_grads, b_grads, agent.adam_actor)
    return float(np.mean(q))


def ref_update(agent, minibatch):
    losses = ref_critic_update(agent, minibatch)
    if agent.critic_updates % agent.hp.policy_delay == 0:
        ref_actor_update(agent, minibatch)
        tau = agent.hp.tau
        ref_polyak_update(agent.critic1_target, agent.critic1, tau)
        ref_polyak_update(agent.critic2_target, agent.critic2, tau)
        ref_polyak_update(agent.actor_target, agent.actor, tau)
    return losses


def assert_same_net(ref, net):
    for a, b in zip(ref.weights + ref.biases, net.weights + net.biases):
        assert a.tobytes() == b.tobytes()


def assert_same_adam(ref, state, dims, k=None):
    got = ref_adam(state, dims, k)
    assert got.step_count == ref.step_count
    for a, b in zip(ref.first_moment + ref.second_moment, got.first_moment + got.second_moment):
        assert a.tobytes() == b.tobytes()


class TestUpdateMatchesReference:
    """Stacked critics on flat blocks against the list-based two-critic update."""

    @pytest.mark.parametrize("hidden,head_scale", [
        ((256, 128), 0.01),   # the default nets
        ((24,), 0.01),
        ((24, 16, 8), 0.01),
        ((24,), 100.0),       # a saturated actor: its actions leave the unit ball
    ])
    def test_300_updates_bit_for_bit(self, monkeypatch, hidden, head_scale):
        monkeypatch.setattr(td3, "ACTOR_HEAD_SCALE", head_scale)
        agent = make_agent(31, hidden_dims=hidden, batch_size=32, warmup_steps=64)
        ref = RefAgent(agent)
        rng = np.random.default_rng(32)
        for _ in range(300):
            batch = random_batch(rng, 32)
            assert td3.update(agent, batch) == ref_update(ref, batch)
        assert agent.adam_actor.step_count == 150
        if head_scale > 1.0:
            assert ref.projected_batches > 100
        for k, (online, target) in enumerate(((ref.critic1, ref.critic1_target),
                                              (ref.critic2, ref.critic2_target))):
            assert_same_net(online, agent.critics.row(k))
            assert_same_net(target, agent.critics_target.row(k))
        assert_same_net(ref.actor, agent.actor)
        assert_same_net(ref.actor_target, agent.actor_target)
        assert_same_adam(ref.adam_critic1, agent.adam_critics, agent.critics.layer_dims, 0)
        assert_same_adam(ref.adam_critic2, agent.adam_critics, agent.critics.layer_dims, 1)
        assert_same_adam(ref.adam_actor, agent.adam_actor, agent.actor.layer_dims)
