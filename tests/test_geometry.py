import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavthz import geometry
from uavthz.errors import InvalidInputError
from uavthz.geometry import vec3

coord = st.floats(-200.0, 200.0)
altitude = st.floats(1.0, 300.0)
stations = st.lists(st.tuples(coord, coord), min_size=1, max_size=7)


def ground(xy):
    return np.array([(x, y, 0.0) for x, y in xy])


def one(p):
    """The (1, 3) station array of the single position p."""
    return np.array([p], dtype=float)


BEYOND = np.nextafter(geometry.MAX_COORD_M, np.inf)


class TestPositions:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200, -BEYOND, BEYOND])
    def test_rejects_a_coordinate_out_of_bound(self, bad):
        with pytest.raises(InvalidInputError, match="position"):
            geometry.as_vec3((0, bad, 0))
        with pytest.raises(InvalidInputError, match="position"):
            geometry.vec3(0, 0, bad)
        with pytest.raises(InvalidInputError, match="position"):
            geometry.as_points([(0, 0, 0), (1, bad, 0)])

    def test_accepts_the_bound(self):
        edge = geometry.MAX_COORD_M
        assert np.array_equal(geometry.as_vec3((-edge, edge, 1)), [-edge, edge, 1])
        assert geometry.as_points([(edge, -edge, 0)]).shape == (1, 3)

    @pytest.mark.parametrize("bad", [np.zeros(2), np.zeros((1, 3)), np.zeros((2, 3, 3))])
    def test_vec3_rejects_bad_shape(self, bad):
        with pytest.raises(InvalidInputError):
            geometry.as_vec3(bad)

    @pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((2, 2)), np.zeros((2, 3, 3)),
                                     np.empty((0, 3))])
    def test_stations_reject_bad_shape(self, bad):
        with pytest.raises(InvalidInputError):
            geometry.as_points(bad)

    def test_stations_coerce_a_list(self):
        got = geometry.as_points([(1, 2, 0), (3, 4, 0)])
        assert got.dtype == float and np.array_equal(got, [[1, 2, 0], [3, 4, 0]])

    @pytest.mark.parametrize("bad", [[1, (2, 3), 4], ["1", "two", "3"], [1, None, {}]],
                             ids=["ragged", "non-numeric", "a dict"])
    def test_vec3_rejects_ragged_or_non_numeric_input(self, bad):
        with pytest.raises(InvalidInputError, match="position"):
            geometry.as_vec3(bad)

    @pytest.mark.parametrize("bad", [[(1, 2, 3), (1, 2)], [(1, 2, 3), ("x", 2, 3)],
                                     [(1, 2, 3), (1, 2, object())]],
                             ids=["ragged", "non-numeric", "an object"])
    def test_points_reject_ragged_or_non_numeric_input(self, bad):
        with pytest.raises(InvalidInputError, match="position"):
            geometry.as_points(bad)


class TestSpatialAngles:
    def test_same_station_gives_zero(self):
        s = vec3(10, 20, 0)
        tx, ty = geometry.pair_axis_angles(vec3(0, 0, 50), np.array([s, s]))
        assert not tx.any() and not ty.any()

    def test_orthogonal_links_x(self):
        tx, ty = geometry.pair_axis_angles(vec3(0, 0, 50), ground([(-50, 0), (50, 0)]))
        # link vectors (-50,0,-50) and (50,0,-50) are orthogonal in the x-z plane
        assert tx[0, 1] == pytest.approx(np.pi / 2, abs=1e-12)
        assert ty[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_links_y(self):
        tx, ty = geometry.pair_axis_angles(vec3(0, 0, 50), ground([(0, -50), (0, 50)]))
        assert ty[0, 1] == pytest.approx(np.pi / 2, abs=1e-12)
        assert tx[0, 1] == pytest.approx(0.0, abs=1e-12)

    @given(coord, coord, altitude, stations)
    @settings(max_examples=100)
    def test_symmetric_in_station_order(self, ux, uy, uz, xy):
        u, pts = vec3(ux, uy, uz), ground(xy)
        tx, ty = geometry.pair_axis_angles(u, pts)
        assert np.array_equal(tx, tx.T) and np.array_equal(ty, ty.T)
        order = np.arange(len(pts))[::-1]
        rx, ry = geometry.pair_axis_angles(u, pts[order])
        assert np.array_equal(rx, tx[np.ix_(order, order)])
        assert np.array_equal(ry, ty[np.ix_(order, order)])

    @given(coord, coord, altitude, stations)
    def test_self_pair_is_zero(self, ux, uy, uz, xy):
        tx, ty = geometry.pair_axis_angles(vec3(ux, uy, uz), ground(xy))
        assert not np.diag(tx).any() and not np.diag(ty).any()

    @given(coord, coord, altitude, stations)
    def test_range(self, ux, uy, uz, xy):
        for theta in geometry.pair_axis_angles(vec3(ux, uy, uz), ground(xy)):
            assert np.all((0.0 <= theta) & (theta <= np.pi))

    @given(coord, coord, altitude, stations)
    def test_each_pair_independent_of_the_others(self, ux, uy, uz, xy):
        u, pts = vec3(ux, uy, uz), ground(xy)
        tx, ty = geometry.pair_axis_angles(u, pts)
        for i in range(len(pts)):
            for j in range(len(pts)):
                px, py = geometry.pair_axis_angles(u, pts[[i, j]])
                assert tx[i, j] == px[0, 1] and ty[i, j] == py[0, 1]

    # channel.outage_scan shares one x-factor table between positions with the
    # same (x, z) and one y-factor table between those with the same (y, z)
    @given(coord, coord, coord, altitude, stations)
    @settings(max_examples=100)
    def test_each_axis_depends_on_its_coordinate_and_altitude_alone(self, a, b, c, uz, xy):
        pts = ground(xy)
        tx, ty = geometry.pair_axis_angles(vec3(a, b, uz), pts)
        assert np.array_equal(tx, geometry.pair_axis_angles(vec3(a, c, uz), pts)[0])
        assert np.array_equal(ty, geometry.pair_axis_angles(vec3(c, b, uz), pts)[1])


class TestElevationAngle:
    def test_directly_overhead(self):
        assert geometry.elevation_angle(vec3(0, 0, 100), one((0, 0, 0)))[0] == np.pi / 2

    def test_equal_height_and_offset(self):
        assert geometry.elevation_angle(vec3(100, 0, 100), one((0, 0, 0)))[0] == (
            pytest.approx(np.pi / 4))

    def test_345_horizontal(self):
        # horizontal distance sqrt(900+1600) = 50, altitude 50
        assert geometry.elevation_angle(vec3(30, 40, 50), one((0, 0, 0)))[0] == (
            pytest.approx(np.pi / 4))

    @given(altitude, st.floats(0.0, 500.0), st.floats(1.0, 500.0))
    def test_monotone_decreasing_in_horizontal_distance(self, z, d1, extra):
        d2 = d1 + extra
        e1, e2 = geometry.elevation_angle(vec3(0, 0, z), ground([(d1, 0), (d2, 0)]))
        assert e2 < e1
        assert 0.0 < e2 <= np.pi / 2


class TestLinkLength:
    def test_vertical(self):
        assert geometry.link_length(vec3(0, 0, 50), one((0, 0, 0)))[0] == 50.0

    def test_345(self):
        assert geometry.link_length(vec3(3, 4, 0), one((0, 0, 0)))[0] == 5.0

    def test_hand_arithmetic(self):
        assert geometry.link_length(vec3(30, 40, 50), one((0, 0, 0)))[0] == (
            pytest.approx(np.sqrt(5000.0)))

    @given(coord, coord, altitude, coord, coord)
    def test_symmetric(self, ux, uy, uz, sx, sy):
        u, s = vec3(ux, uy, uz), vec3(sx, sy, 0)
        assert geometry.link_length(u, one(s)) == geometry.link_length(s, one(u))

    @given(*([coord] * 9))
    def test_triangle_inequality(self, ax, ay, az, bx, by, bz, cx, cy, cz):
        a, b, c = vec3(ax, ay, az), vec3(bx, by, bz), vec3(cx, cy, cz)
        assert geometry.link_length(a, one(c)) <= (
            geometry.link_length(a, one(b)) + geometry.link_length(b, one(c)) + 1e-9)

    def test_at_least_altitude_for_ground_station(self):
        u = vec3(12, -7, 80)
        assert geometry.link_length(u, one((0, 0, 0)))[0] >= u[2]

    @given(coord, coord, altitude, stations)
    def test_stacked_stations_match_one_at_a_time(self, ux, uy, uz, xy):
        u, pts = vec3(ux, uy, uz), ground(xy)
        lengths = geometry.link_length(u, pts)
        elevations = geometry.elevation_angle(u, pts)
        assert lengths.shape == elevations.shape == (len(pts),)
        for k in range(len(pts)):
            assert lengths[k] == geometry.link_length(u, pts[k:k + 1])[0]
            assert elevations[k] == geometry.elevation_angle(u, pts[k:k + 1])[0]

    # At the coordinate bound every link function is finite: no overflow
    # turns an outage into a NaN SINR that counts as a success.
    def test_finite_at_the_coordinate_bound(self):
        edge = geometry.MAX_COORD_M
        u, pts = vec3(edge, -edge, edge), ground([(-edge, edge), (edge, edge), (0, 0)])
        for values in (geometry.link_length(u, pts), geometry.elevation_angle(u, pts),
                       *geometry.pair_axis_angles(u, pts)):
            assert np.all(np.isfinite(values))

    def test_matches_vector_norm(self):
        rng = np.random.default_rng(0)
        u = vec3(3.0, -2.0, 40.0)
        pts = rng.normal(size=(200, 3)) * 50.0
        want = [np.linalg.norm(u - p) for p in pts]
        assert np.array_equal(geometry.link_length(u, pts), want)



class TestKinematicLimits:
    def test_action_scale_is_one_step_reach(self):
        lim = geometry.KinematicLimits(v_max=3.0, a_max=4.0, h_min=30.0, h_max=130.0, dt=2.0)
        assert lim.action_scale == 3.0 * 2.0 + 0.5 * 4.0 * 2.0 ** 2

    @pytest.mark.parametrize("field", ["v_max", "a_max", "dt"])
    def test_rejects_a_nonpositive_rate_or_step(self, field):
        kw = dict(v_max=10.0, a_max=4.0, h_min=30.0, h_max=130.0, dt=1.0)
        kw[field] = 0.0
        with pytest.raises(InvalidInputError, match=field):
            geometry.KinematicLimits(**kw)

    @pytest.mark.parametrize("dt", [1e154, 1e300, np.inf])
    def test_rejects_an_action_scale_beyond_the_coordinate_bound(self, dt):
        with pytest.raises(InvalidInputError, match="action scale"):
            geometry.KinematicLimits(v_max=10.0, a_max=4.0, h_min=30.0, h_max=130.0, dt=dt)

    def test_accepts_an_action_scale_at_the_coordinate_bound(self):
        edge = geometry.MAX_COORD_M
        lim = geometry.KinematicLimits(v_max=edge, a_max=1e-300, h_min=30.0, h_max=130.0,
                                       dt=1.0)
        assert lim.action_scale == edge
