import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavthz import geometry
from uavthz.errors import GeometryDegenerateError, InvalidInputError
from uavthz.geometry import vec3

coord = st.floats(-200.0, 200.0)
altitude = st.floats(1.0, 300.0)
stations = st.lists(st.tuples(coord, coord), min_size=1, max_size=7)


def ground(xy):
    return np.array([(x, y, 0.0) for x, y in xy])


class TestPositions:
    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            geometry.as_vec3((np.nan, 0, 0))
        with pytest.raises(InvalidInputError):
            geometry.as_points([(0, 0, 0), (1, np.inf, 0)])

    def test_rejects_bad_shape(self):
        for bad in (np.zeros(2), np.zeros((2, 2)), np.zeros((2, 3, 3))):
            with pytest.raises(InvalidInputError):
                geometry.as_points(bad)


class TestSpatialAngles:
    def test_same_station_gives_zero(self):
        s = vec3(10, 20, 0)
        tx, ty = geometry.pair_axis_angles(vec3(0, 0, 50), [s, s])
        assert not tx.any() and not ty.any()

    def test_orthogonal_links_x(self):
        tx, ty = geometry.pair_axis_angles(vec3(0, 0, 50), [vec3(-50, 0, 0), vec3(50, 0, 0)])
        # link vectors (-50,0,-50) and (50,0,-50) are orthogonal in the x-z plane
        assert tx[0, 1] == pytest.approx(np.pi / 2, abs=1e-12)
        assert ty[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_links_y(self):
        tx, ty = geometry.pair_axis_angles(vec3(0, 0, 50), [vec3(0, -50, 0), vec3(0, 50, 0)])
        assert ty[0, 1] == pytest.approx(np.pi / 2, abs=1e-12)
        assert tx[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_altitude(self):
        with pytest.raises(GeometryDegenerateError):
            geometry.pair_axis_angles(vec3(0, 0, 0), [vec3(1, 0, 0), vec3(0, 1, 0)])

    def test_needs_a_station_matrix(self):
        with pytest.raises(InvalidInputError):
            geometry.pair_axis_angles(vec3(0, 0, 50), vec3(1, 0, 0))

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
        assert geometry.elevation_angle(vec3(0, 0, 100), vec3(0, 0, 0)) == np.pi / 2

    def test_equal_height_and_offset(self):
        assert geometry.elevation_angle(vec3(100, 0, 100), vec3(0, 0, 0)) == pytest.approx(np.pi / 4)

    def test_345_horizontal(self):
        # horizontal distance sqrt(900+1600) = 50, altitude 50
        assert geometry.elevation_angle(vec3(30, 40, 50), vec3(0, 0, 0)) == pytest.approx(np.pi / 4)

    def test_degenerate(self):
        with pytest.raises(GeometryDegenerateError):
            geometry.elevation_angle(vec3(0, 0, -1), vec3(0, 0, 0))

    @given(altitude, st.floats(0.0, 500.0), st.floats(1.0, 500.0))
    def test_monotone_decreasing_in_horizontal_distance(self, z, d1, extra):
        d2 = d1 + extra
        e1 = geometry.elevation_angle(vec3(d1, 0, z), vec3(0, 0, 0))
        e2 = geometry.elevation_angle(vec3(d2, 0, z), vec3(0, 0, 0))
        assert e2 < e1
        assert 0.0 < e2 <= np.pi / 2


class TestLinkLength:
    def test_vertical(self):
        assert geometry.link_length(vec3(0, 0, 50), vec3(0, 0, 0)) == 50.0

    def test_345(self):
        assert geometry.link_length(vec3(3, 4, 0), vec3(0, 0, 0)) == 5.0

    def test_hand_arithmetic(self):
        assert geometry.link_length(vec3(30, 40, 50), vec3(0, 0, 0)) == pytest.approx(np.sqrt(5000.0))

    @given(coord, coord, altitude, coord, coord)
    def test_symmetric(self, ux, uy, uz, sx, sy):
        u, s = vec3(ux, uy, uz), vec3(sx, sy, 0)
        assert geometry.link_length(u, s) == geometry.link_length(s, u)

    @given(*([coord] * 9))
    def test_triangle_inequality(self, ax, ay, az, bx, by, bz, cx, cy, cz):
        a, b, c = vec3(ax, ay, az), vec3(bx, by, bz), vec3(cx, cy, cz)
        assert geometry.link_length(a, c) <= (
            geometry.link_length(a, b) + geometry.link_length(b, c) + 1e-9)

    def test_at_least_altitude_for_ground_station(self):
        u = vec3(12, -7, 80)
        assert geometry.link_length(u, vec3(0, 0, 0)) >= u[2]

    @given(coord, coord, altitude, stations)
    def test_stacked_stations_match_one_at_a_time(self, ux, uy, uz, xy):
        u, pts = vec3(ux, uy, uz), ground(xy)
        lengths = geometry.link_length(u, pts)
        elevations = geometry.elevation_angle(u, pts)
        assert lengths.shape == elevations.shape == (len(pts),)
        for k, p in enumerate(pts):
            assert lengths[k] == geometry.link_length(u, p)
            assert elevations[k] == geometry.elevation_angle(u, p)

    def test_matches_vector_norm(self):
        rng = np.random.default_rng(0)
        u = vec3(3.0, -2.0, 40.0)
        pts = rng.normal(size=(200, 3)) * 50.0
        want = [np.linalg.norm(u - p) for p in pts]
        assert np.array_equal(geometry.link_length(u, pts), want)

