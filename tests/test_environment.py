from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavthz.config import RunConfig
from uavthz.environment import Environment, outage_to_reward, project_action
from uavthz.errors import InvalidInputError
from uavthz.geometry import vec3


def small_env(uav_n_side=4, sbs_n_side=2, **kw) -> Environment:
    # cheap Monte-Carlo and small arrays keep steps fast
    cfg = replace(RunConfig().env_config(), **{"mc_samples": 60, **kw})
    params = replace(RunConfig().channel_params(), uav_n_side=uav_n_side, sbs_n_side=sbs_n_side)
    return Environment(cfg, params)


class TestReset:
    def test_fixed_seed_reproduces_topology(self):
        a, b = small_env(), small_env()
        _, ta = a.reset(7)
        _, tb = b.reset(7)
        assert np.array_equal(ta.sbs_list, tb.sbs_list)

    def test_station_count_pinned_range(self):
        env = small_env(m_s_min=4, m_s_max=4)
        for seed in range(12):
            _, topo = env.reset(seed)
            assert len(topo.sbs_list) == 4

    def test_first_call_starts_at_area_center(self):
        env = small_env()
        state, _ = env.reset(0)
        assert np.allclose(state.uav_position, (75.0, 75.0, 80.0))

    def test_every_reset_starts_at_area_center(self):
        env = small_env()
        env.reset(0)
        env.step(vec3(4.0, -3.0, 2.0))
        state, _ = env.reset(1)
        assert np.array_equal(state.uav_position, vec3(75.0, 75.0, 80.0))

    def test_uniform_placement_statistics(self):
        env = small_env()
        xs = []
        for seed in range(400):
            _, topo = env.reset(seed)
            xs.extend(topo.sbs_list[:, 0])
        xs = np.array(xs)
        # mean of U(0,150) is 75 with sigma = 150/sqrt(12)
        bound = 3 * (150 / np.sqrt(12)) / np.sqrt(len(xs))
        assert abs(xs.mean() - 75.0) < bound

    def test_each_reset_draws_its_seeds_topology(self):
        env = small_env(m_s_min=3, m_s_max=3)
        first = env.reset(0)[1].sbs_list
        other = env.reset(99)[1].sbs_list
        again = env.reset(0)[1].sbs_list
        assert np.array_equal(first, again) and not np.array_equal(first, other)


class TestStep:
    def test_altitude_violation_is_full_rejection(self):
        env = small_env()
        env.reset(0)
        for _ in range(5):
            env.step(vec3(0.0, 0.0, 9.9))  # climb to just under the ceiling
        before = env.state.uav_position.copy()
        assert before[2] > 125.0
        res = env.step(vec3(1.0, 2.0, 9.0))  # breaches h_max: full no-op
        assert np.array_equal(res.next_state.uav_position, before)
        assert res.elapsed == 0.0

    def test_zero_action_keeps_position_and_time(self):
        env = small_env()
        env.reset(3)
        before = env.state.uav_position.copy()
        res = env.step(vec3(0.0, 0.0, 0.0))
        assert np.array_equal(res.next_state.uav_position, before)
        assert res.elapsed == 0.0

    def test_action_magnitude_projection(self):
        assert np.linalg.norm(project_action(vec3(30.0, 0.0, 0.0), 10.0)) == pytest.approx(10.0)
        small = project_action(vec3(1.0, 2.0, -1.0), 10.0)
        assert np.array_equal(small, vec3(1.0, 2.0, -1.0))

    def test_elapsed_charges_peak_speed(self):
        env = small_env()
        env.reset(0)
        res = env.step(vec3(8.0, 0.0, 0.0))
        assert res.elapsed == pytest.approx(1.0)

    def test_horizontal_clamp_flag(self):
        env = small_env(clamp_horizontal=True)
        env.reset(0)
        env._uav_position = vec3(149.0, 75.0, 80.0)
        res = env.step(vec3(9.0, 0.0, 0.0))
        assert res.next_state.uav_position[0] == 150.0

    def test_determinism_same_seed_same_actions(self):
        actions = [vec3(2, 1, -1), vec3(-3, 4, 2), vec3(0, 0, 5)]
        outs = []
        for _ in range(2):
            env = small_env()
            env.reset(11)
            rows = [env.step(a) for a in actions]
            outs.append([(r.reward, tuple(r.outage.per_link_outage)) for r in rows])
        assert outs[0] == outs[1]

    @given(st.lists(st.tuples(st.floats(-12, 12), st.floats(-12, 12), st.floats(-12, 12)),
                    min_size=1, max_size=15))
    @settings(max_examples=25, deadline=None)
    def test_altitude_always_in_envelope(self, moves):
        env = small_env()
        env.reset(5)
        for mv in moves:
            env.step(vec3(*mv))
        z = env.state.uav_position[2]
        assert 30.0 <= z <= 130.0


class TestMove:
    # Five climbs to just under the ceiling, one climb that breaches it and is
    # rejected whole, then eastward moves whose eighth crosses x = 150 and is
    # clamped, and an oversized one that is projected and then clamped to no move.
    MOVES = ([vec3(0.0, 0.0, 9.9)] * 5 + [vec3(1.0, 2.0, 9.0)] + [vec3(10.0, 0.0, 0.0)] * 8
             + [vec3(30.0, 0.0, 0.0)])

    def test_move_and_step_give_the_same_path(self):
        moved, stepped = small_env(clamp_horizontal=True), small_env(clamp_horizontal=True)
        moved.reset(4)
        stepped.reset(4)
        path = [moved.move(d) for d in self.MOVES]
        results = [stepped.step(d) for d in self.MOVES]
        for (position, elapsed), res in zip(path, results):
            assert np.array_equal(position, res.next_state.uav_position)
            assert elapsed == res.elapsed
        assert np.array_equal(moved.state.uav_position, stepped.state.uav_position)
        rejected, clamped = path[5], path[13]
        assert np.array_equal(rejected[0], path[4][0]) and rejected[1] == 0.0
        assert clamped[0][0] == 150.0 and clamped[1] == pytest.approx(5.0 / 8.0)
        assert path[14][1] == 0.0

    def test_move_draws_no_step_seed(self):
        # Full-size arrays: with the small ones every link is always in outage,
        # so a skipped step seed would not show.
        moved, stepped = (small_env(uav_n_side=20, sbs_n_side=10, m_s_min=3, m_s_max=3)
                          for _ in range(2))
        moved.reset(0)
        stepped.reset(0)
        moved.move(vec3(3.0, -4.0, 2.0))
        after_move = moved.step(vec3(0.0, 0.0, 0.0))
        first_step = stepped.step(vec3(3.0, -4.0, 2.0))
        assert np.array_equal(after_move.next_state.uav_position,
                              first_step.next_state.uav_position)
        outage = first_step.outage.per_link_outage
        assert np.all((0.0 < outage) & (outage < 1.0))
        assert np.array_equal(after_move.outage.per_link_outage, outage)

    def test_move_needs_a_reset(self):
        with pytest.raises(InvalidInputError):
            small_env().move(vec3(1.0, 0.0, 0.0))


class TestReward:
    def test_log_reward_example(self):
        assert outage_to_reward(np.exp(-2.0), 1e-9) == pytest.approx(2.0)

    def test_floor_bounds_reward(self):
        assert outage_to_reward(0.0, 1e-9) == pytest.approx(-np.log(1e-9))
        assert outage_to_reward(1.0, 1e-9) == 0.0

    @given(st.floats(1e-12, 1.0), st.floats(1e-12, 1.0))
    def test_lower_outage_is_strictly_better(self, a, b):
        ra, rb = outage_to_reward(a, 1e-9), outage_to_reward(b, 1e-9)
        if max(a, 1e-9) < max(b, 1e-9):
            assert ra > rb

    def test_reward_range_invariant(self):
        env = small_env()
        env.reset(0)
        for _ in range(5):
            res = env.step(vec3(3, -2, 1))
            assert 0.0 <= res.reward <= -np.log(1e-9)


class TestRestartEpisode:
    def test_returns_to_the_start_point(self):
        env = small_env()
        start, topo = env.reset(0)
        env.step(vec3(5, 5, 5))
        env.step(vec3(5, -5, 5))
        back = env.restart_episode()
        assert np.array_equal(back.uav_position, start.uav_position)
        assert env.topology is topo
