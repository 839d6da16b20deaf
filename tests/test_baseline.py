import itertools
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from uavthz import baseline, channel, cli
from uavthz.config import RunConfig
from uavthz.environment import Environment, Topology
from uavthz.errors import InvalidInputError

LIMITS = RunConfig().kinematic_limits()
TINY_CONFIG = Path(__file__).resolve().parent / "tiny.cfg"


def scenario(seed=0, n_stations=2):
    env = Environment(replace(RunConfig().env_config(), m_s_min=n_stations, m_s_max=n_stations,
                              mc_samples=100),
                      replace(RunConfig().channel_params(), uav_n_side=8, sbs_n_side=4))
    env.reset(seed)
    return env


def cheap_lattice(**kw):
    """Keyword arguments of scan_grid."""
    return dict(x_steps=5, y_steps=5, z_steps=3, mc_samples=400, seed=11) | kw


class TestGridSearch:
    def test_trivial_single_point_grid(self):
        env = scenario()
        points, worst, best = baseline.scan_grid(env, **cheap_lattice(x_steps=1, y_steps=1,
                                                                      z_steps=1))
        assert points.shape == (2, 3) and worst.shape == (2,) and best == 0
        assert np.allclose(points[0], (0.0, 0.0, 30.0))
        assert 0.0 <= worst[0] <= 1.0

    def test_oracle_dominates_any_grid_point(self):
        env = scenario(1)
        points, worst, best = baseline.scan_grid(env, **cheap_lattice())
        assert len(points) == len(worst) == 5 * 5 * 3 + 1
        assert 0 <= best < 5 * 5 * 3
        assert np.all(worst[best] <= worst[:-1])

    def test_nested_refinement_never_worse(self):
        # 2n-1 points per axis nest the coarse grid (cells halve)
        env = scenario(2)
        _, coarse, i = baseline.scan_grid(env, **cheap_lattice(x_steps=3, y_steps=3, z_steps=2))
        _, fine, j = baseline.scan_grid(env, **cheap_lattice(x_steps=5, y_steps=5, z_steps=3))
        assert fine[j] <= coarse[i] + 1e-12

    def test_shared_seed_reproducible(self):
        env = scenario(3)
        a = baseline.scan_grid(env, **cheap_lattice())
        b = baseline.scan_grid(env, **cheap_lattice())
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]) and a[2] == b[2]

    def test_lexicographic_tie_break(self):
        # zero-vibration, certain LoS, tiny threshold: every grid point and
        # the centre score 0, and the oracle is the first lattice point
        env = scenario(4)
        params = replace(RunConfig().channel_params(), vibration_std_rad=0.0, los_alpha=0.0,
                         sinr_threshold=1e-30)
        env = Environment(env.config, params)
        env.reset(4)
        points, worst, best = baseline.scan_grid(env, **cheap_lattice())
        assert not worst.any()
        assert best == 0 and np.allclose(points[best], (0.0, 0.0, 30.0))

    def test_single_station_optimum_overhead(self):
        # symmetry: with one station the best grid point sits on the column
        # above it (within one cell)
        env = scenario(5, n_stations=1)
        sbs = env.topology.sbs_list[0]
        lattice = cheap_lattice(x_steps=7, y_steps=7, z_steps=3, mc_samples=800)
        points, _, best = baseline.scan_grid(env, **lattice)
        cell = 150.0 / 6
        assert abs(points[best, 0] - sbs[0]) <= cell and abs(points[best, 1] - sbs[1]) <= cell

    def test_lattice_spans_the_area_and_altitude_window(self):
        env = scenario()
        env = Environment(replace(env.config, area_x=90.0, area_y=40.0,
                                  limits=replace(LIMITS, h_min=12.0, h_max=57.0)), env.params)
        env.reset(0)
        points, _, _ = baseline.scan_grid(env, **cheap_lattice(x_steps=4, y_steps=3, z_steps=2))
        assert len(points) == 4 * 3 * 2 + 1
        assert np.array_equal(points[0], (0.0, 0.0, 12.0))
        assert np.array_equal(points[-2], (90.0, 40.0, 57.0))

    def test_lattice_points_equal_the_product_of_the_axes(self):
        # the lattice rows, bit for bit and in order, are itertools.product of
        # the three linspace axes: x slowest, z fastest
        env = scenario(9)
        env = Environment(replace(env.config, area_x=97.3, area_y=41.9,
                                  limits=replace(LIMITS, h_min=12.7, h_max=57.1)), env.params)
        env.reset(9)
        lattice = cheap_lattice(x_steps=7, y_steps=3, z_steps=4, mc_samples=50)
        lo, hi = env.config.box
        axes = [np.linspace(a, b, n) for a, b, n in zip(lo, hi, (7, 3, 4))]
        want = [np.array([float(x), float(y), float(z)]) for x, y, z in itertools.product(*axes)]
        points, worst, _ = baseline.scan_grid(env, **lattice)
        assert points.shape == (len(want) + 1, 3) and points.dtype == np.float64
        assert np.array_equal(points[:-1], want)
        outages = channel.outage_scan(env.topology.sbs_list, want, env.params,
                                      lattice["mc_samples"], lattice["seed"])
        assert [channel.max_outage(outage) for outage in outages] == list(worst[:-1])

    # grid_z = 5 over the 30-130 m window puts the centre's 80 m on the
    # lattice, grid_z = 2 does not; a small table limit splits its group
    @pytest.mark.parametrize("z_steps, max_tables", [(5, None), (2, None), (5, 4)],
                             ids=["centre altitude on the lattice", "off the lattice",
                                  "altitude group split"])
    def test_centre_row_equals_a_scan_of_the_centre_alone(self, monkeypatch, z_steps,
                                                          max_tables):
        if max_tables is not None:
            monkeypatch.setattr(channel, "_MAX_RATIO_TABLES", max_tables)
        env = scenario(10, n_stations=3)
        lattice = cheap_lattice(x_steps=4, y_steps=4, z_steps=z_steps, mc_samples=300)
        points, worst, _ = baseline.scan_grid(env, **lattice)
        centre = baseline.static_center_policy(env.topology, LIMITS)
        assert np.array_equal(points[-1], centre)
        alone = channel.outage_probability(env.topology.sbs_list, centre, env.params,
                                           lattice["mc_samples"], lattice["seed"])
        assert worst[-1] == channel.max_outage(alone)


def test_baseline_command_runs_one_scan(tmp_path, monkeypatch):
    scan, scanned = channel.outage_scan, []

    def counted(links, uavs, *args):
        scanned.append(len(uavs))
        return scan(links, uavs, *args)

    def forbidden(*args, **kwargs):
        raise AssertionError("outage_probability called")

    monkeypatch.setattr(channel, "outage_scan", counted)
    monkeypatch.setattr(channel, "outage_probability", forbidden)
    assert cli.main(["baseline", "--config", str(TINY_CONFIG),
                     "--out-dir", str(tmp_path)]) == cli.EXIT_OK
    assert scanned == [2 * 2 * 1 + 1]  # the tiny lattice and the centre


class TestStaticCenter:
    def test_single_station(self):
        env = scenario(6, n_stations=1)
        sbs = env.topology.sbs_list[0]
        pos = baseline.static_center_policy(env.topology, LIMITS)
        assert np.allclose(pos, (sbs[0], sbs[1], 80.0))

    def test_two_station_midpoint(self):
        env = scenario(7)
        topo = env.topology
        expected = topo.sbs_list.mean(axis=0)
        pos = baseline.static_center_policy(topo, LIMITS)
        assert np.allclose(pos[:2], expected[:2])
        assert pos[2] == 80.0

    def test_empty_topology_rejected(self):
        for stations in ([], np.empty((0, 3))):
            with pytest.raises(InvalidInputError):
                Topology(stations)

    @pytest.mark.parametrize("stations", [np.zeros(3), np.zeros((2, 2)), [(1.0, 2.0, np.inf)],
                                          [(1.0, 2.0, 0.0), (3.0, 4.0)]],
                             ids=["(3,)", "(M, 2)", "non-finite", "ragged"])
    def test_malformed_station_array_rejected(self, stations):
        with pytest.raises(InvalidInputError):
            Topology(stations)

    def test_oracle_beats_static_center(self):
        env = scenario(8)
        _, worst, best = baseline.scan_grid(env, **cheap_lattice(x_steps=7, y_steps=7,
                                                                 z_steps=3))
        # the argmin over the grid cannot exceed the centre, scored on the
        # same draws, up to the center not being a grid point
        assert worst[best] <= worst[-1] + 0.05
