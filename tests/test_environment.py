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
        a.reset(7)
        b.reset(7)
        assert np.array_equal(a.topology.sbs_list, b.topology.sbs_list)

    def test_station_count_pinned_range(self):
        env = small_env(m_s_min=4, m_s_max=4)
        for seed in range(12):
            env.reset(seed)
            assert len(env.topology.sbs_list) == 4

    def test_first_call_starts_at_area_center(self):
        env = small_env()
        assert env.reset(0) is None
        assert np.allclose(env.state.uav_position, (75.0, 75.0, 80.0))

    def test_every_reset_starts_at_area_center(self):
        env = small_env()
        env.reset(0)
        env.step(vec3(4.0, -3.0, 2.0))
        env.reset(1)
        assert np.array_equal(env.state.uav_position, vec3(75.0, 75.0, 80.0))

    def test_uniform_placement_statistics(self):
        env = small_env()
        xs = []
        for seed in range(400):
            env.reset(seed)
            xs.extend(env.topology.sbs_list[:, 0])
        xs = np.array(xs)
        # mean of U(0,150) is 75 with sigma = 150/sqrt(12)
        bound = 3 * (150 / np.sqrt(12)) / np.sqrt(len(xs))
        assert abs(xs.mean() - 75.0) < bound

    def test_each_reset_draws_its_seeds_topology(self):
        env = small_env(m_s_min=3, m_s_max=3)
        stations = []
        for seed in (0, 99, 0):
            env.reset(seed)
            stations.append(env.topology.sbs_list)
        first, other, again = stations
        assert np.array_equal(first, again) and not np.array_equal(first, other)


class TestStep:
    def test_climb_past_the_ceiling_is_clipped_onto_it(self):
        env = small_env()
        env.reset(0)
        for _ in range(5):
            env.step(vec3(0.0, 0.0, 9.9))  # climb to just under the ceiling
        before = env.state.uav_position.copy()
        assert before[2] > 125.0
        res = env.step(vec3(1.0, 2.0, 9.0))  # crosses h_max: lands on it
        expected = before + vec3(1.0, 2.0, 0.0)
        expected[2] = 130.0
        assert np.array_equal(res.next_state.uav_position, expected)
        assert res.elapsed == pytest.approx(np.linalg.norm(expected - before) / 8.0)

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

    def test_outward_move_from_a_corner_stays_there(self):
        env = small_env()
        env.reset(0)
        for _ in range(20):  # 5.77 m per axis and move: enough to reach the corner
            env.move(vec3(-10.0, -10.0, -10.0))
        corner = vec3(0.0, 0.0, 30.0)
        assert np.array_equal(env.state.uav_position, corner)
        res = env.step(vec3(-3.0, -1.0, -2.0))
        assert np.array_equal(res.next_state.uav_position, corner)
        assert res.elapsed == 0.0

    def test_determinism_same_seed_same_actions(self):
        actions = [vec3(2, 1, -1), vec3(-3, 4, 2), vec3(0, 0, 5)]
        outs = []
        for _ in range(2):
            env = small_env()
            env.reset(11)
            rows = [env.step(a) for a in actions]
            outs.append([(r.reward, tuple(r.outage)) for r in rows])
        assert outs[0] == outs[1]

    @given(st.lists(st.tuples(st.floats(-12, 12), st.floats(-12, 12), st.floats(-12, 12)),
                    min_size=1, max_size=15))
    @settings(max_examples=25, deadline=None)
    def test_position_always_in_flight_box(self, moves):
        # a 20 m x 20 m x 15 m box, so most flights reach one of its faces
        limits = replace(RunConfig().kinematic_limits(), h_max=45.0)
        env = small_env(area_x=20.0, area_y=20.0, limits=limits)
        env.reset(5)
        lo, hi = env.config.box
        for mv in moves:
            position = env.step(vec3(*mv)).next_state.uav_position
            assert np.all((lo <= position) & (position <= hi))


class TestMove:
    # Five climbs to just under the ceiling, one climb that crosses it and is
    # clipped onto it, then eastward moves from x = 76 whose eighth crosses
    # x = 150 and is clipped, and an oversized one that is projected and then
    # clipped to no move.
    MOVES = ([vec3(0.0, 0.0, 9.9)] * 5 + [vec3(1.0, 2.0, 9.0)] + [vec3(10.0, 0.0, 0.0)] * 8
             + [vec3(30.0, 0.0, 0.0)])

    def test_move_and_step_give_the_same_path(self):
        moved, stepped = small_env(), small_env()
        moved.reset(4)
        stepped.reset(4)
        path = [moved.move(d) for d in self.MOVES]
        results = [stepped.step(d) for d in self.MOVES]
        for (position, elapsed), res in zip(path, results):
            assert np.array_equal(position, res.next_state.uav_position)
            assert elapsed == res.elapsed
        assert np.array_equal(moved.state.uav_position, stepped.state.uav_position)
        ceiling, east = path[5], path[13]
        below = path[4][0]
        assert np.array_equal(ceiling[0], vec3(76.0, 77.0, 130.0))
        assert ceiling[1] == pytest.approx(np.hypot(np.sqrt(5.0), 130.0 - below[2]) / 8.0)
        assert np.array_equal(east[0], vec3(150.0, 77.0, 130.0))
        assert east[1] == pytest.approx(4.0 / 8.0)
        assert np.array_equal(path[14][0], east[0]) and path[14][1] == 0.0

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
        outage = first_step.outage
        assert outage.shape == (3,) and np.all((0.0 < outage) & (outage < 1.0))
        assert np.array_equal(after_move.outage, outage)

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
        env.reset(0)
        start, topo = env.state, env.topology
        env.step(vec3(5, 5, 5))
        env.step(vec3(5, -5, 5))
        back = env.restart_episode()
        assert np.array_equal(back.uav_position, start.uav_position)
        assert env.topology is topo
