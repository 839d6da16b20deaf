import numpy as np
import pytest

from uavthz import antenna, channel, geometry
from uavthz.antenna import ArrayAntennaConfig
from uavthz.channel import ChannelParams, LinkState, OutageEstimate
from uavthz.errors import InvalidInputError
from uavthz.geometry import vec3


def make_params(**kw) -> ChannelParams:
    return ChannelParams(**kw)


def make_link(x, y, n_uav=20, n_sbs=10, power=0.01, los=True):
    return LinkState(vec3(x, y, 0.0), power, ArrayAntennaConfig(n_uav), n_sbs, los)


class TestPathLoss:
    def test_free_space_term_140ghz_100m(self):
        # (2.1429e-3 / (4*pi*100))^2 ~ 2.908e-12, i.e. -115.36 dB
        hlf = channel.free_space_term(make_params(), 100.0)
        assert 10 * np.log10(hlf) == pytest.approx(-115.36, abs=0.01)

    def test_zero_absorption_is_unity(self):
        p = make_params(absorption_coeff=0.0)
        for length in (1.0, 50.0, 1000.0):
            assert channel.absorption_term(p, length) == 1.0

    def test_inverse_square_law(self):
        p = make_params()
        assert channel.free_space_term(p, 200.0) / channel.free_space_term(p, 100.0) == (
            pytest.approx(0.25))

    def test_squared_magnitude_composition(self):
        p = make_params()
        length = 73.0
        expected = (channel.free_space_term(p, length) * channel.absorption_term(p, length)) ** 2
        assert channel.path_loss(p, length) == pytest.approx(expected, rel=1e-12)
        assert channel.path_loss(p, length) == pytest.approx(
            (p.wavelength / (4 * np.pi * length)) ** 4 * np.exp(-p.absorption_coeff * length),
            rel=1e-12)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(InvalidInputError):
            channel.path_loss(make_params(), 0.0)


class TestLosProbability:
    def test_urban_overhead(self):
        p = make_params(los_alpha=9.61, los_b=0.16)
        assert channel.los_probability(p, np.pi / 2) == pytest.approx(0.99997, abs=5e-5)

    def test_alpha_zero_is_certain(self):
        p = make_params(los_alpha=0.0)
        for elev in (0.01, 0.3, 1.2):
            assert channel.los_probability(p, elev) == 1.0

    def test_exponent_vanishes_at_alpha_degrees(self):
        p = make_params()
        elev = np.deg2rad(p.los_alpha)
        assert channel.los_probability(p, elev) == pytest.approx(1 / (1 + p.los_alpha), rel=1e-12)

    def test_strictly_increasing_in_elevation(self):
        p = make_params()
        elevs = np.linspace(0.01, np.pi / 2, 200)
        vals = [channel.los_probability(p, e) for e in elevs]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestInstantaneousSinr:
    def test_single_link_closed_form(self):
        p = make_params(vibration_std_rad=0.0)
        lk = make_link(50.0, 50.0)
        uav = vec3(50.0, 50.0, 80.0)
        out = channel.instantaneous_sinr([lk], uav, (0.0, 0.0), p)
        g0_u = antenna.normalization_constant(lk.uav_array)
        g0_s = antenna.normalization_constant(ArrayAntennaConfig(10))
        expected = lk.tx_power_w * channel.path_loss(p, 80.0) * g0_s * g0_u / p.noise_power_w
        assert out.per_link_sinr[0] == pytest.approx(expected, rel=1e-12)

    def test_colocated_symmetric_links(self):
        p = make_params()
        links = [make_link(40.0, 60.0), make_link(40.0, 60.0)]
        out = channel.instantaneous_sinr(links, vec3(70.0, 75.0, 90.0), (0.0, 0.0), p)
        assert out.per_link_sinr[0] == pytest.approx(out.per_link_sinr[1], rel=1e-12)

    def test_two_link_value_against_scalar_reimplementation(self):
        # independent scalar evaluation of the SINR formula, kept free of the
        # library's vectorized path
        p = make_params()
        uav = np.array([75.0, 70.0, 85.0])
        s1, s2 = np.array([40.0, 40.0, 0.0]), np.array([100.0, 55.0, 0.0])
        links = [make_link(40.0, 40.0), make_link(100.0, 55.0)]
        out = channel.instantaneous_sinr(links, uav, (0.01, -0.02), p)

        lam = 3.0e8 / p.carrier_hz
        g0_u = antenna.normalization_constant(ArrayAntennaConfig(20))
        g0_s = antenna.normalization_constant(ArrayAntennaConfig(10))

        def hl2(sbs):
            L = np.sqrt(((uav - sbs) ** 2).sum())
            return (lam / (4 * np.pi * L)) ** 4 * np.exp(-p.absorption_coeff * L)

        def axis_angle(u, a, b, z):
            num = (u - a) ** 2 + (u - b) ** 2 + 2 * z * z - (a - b) ** 2
            den = 2 * np.sqrt(((u - a) ** 2 + z * z) * ((u - b) ** 2 + z * z))
            return np.arccos(np.clip(num / den, -1, 1))

        def uav_gain(tx, ty):
            def ratio(psi):
                if abs(np.sin(psi / 2)) < 1e-12:
                    return 1.0
                return np.sin(20 * psi / 2) / (20 * np.sin(psi / 2))
            px, py = np.pi * np.sin(tx), np.pi * np.sin(ty)
            return g0_u * (ratio(px) * ratio(py)) ** 2

        jx, jy = 0.01, -0.02
        sinr = []
        for me, other in ((s1, s2), (s2, s1)):
            tx = axis_angle(uav[0], me[0], other[0], uav[2])
            ty = axis_angle(uav[1], me[1], other[1], uav[2])
            signal = 0.01 * hl2(me) * g0_s * uav_gain(jx, jy)
            interf = 0.01 * hl2(other) * g0_s * uav_gain(tx + jx, ty + jy)
            sinr.append(signal / (interf + p.noise_power_w))
        assert out.per_link_sinr == pytest.approx(sinr, rel=1e-10)

    def test_interference_removal_never_hurts(self):
        p = make_params()
        uav = vec3(75.0, 75.0, 70.0)
        links = [make_link(40.0, 40.0), make_link(48.0, 44.0), make_link(110.0, 90.0)]
        full = channel.instantaneous_sinr(links, uav, (0.01, 0.02), p)
        reduced = channel.instantaneous_sinr(links[:2], uav, (0.01, 0.02), p)
        assert reduced.per_link_sinr[0] >= full.per_link_sinr[0]
        assert reduced.per_link_sinr[1] >= full.per_link_sinr[1]

    def test_nlos_attenuates_signal(self):
        p = make_params(vibration_std_rad=0.0)
        uav = vec3(50.0, 50.0, 80.0)
        los = channel.instantaneous_sinr([make_link(50, 50, los=True)], uav, (0, 0), p)
        nlos = channel.instantaneous_sinr([make_link(50, 50, los=False)], uav, (0, 0), p)
        assert nlos.per_link_sinr[0] == pytest.approx(
            p.nlos_extra_loss * los.per_link_sinr[0], rel=1e-12)

    def test_requires_a_link(self):
        with pytest.raises(InvalidInputError):
            channel.instantaneous_sinr([], vec3(0, 0, 50), (0, 0), make_params())


class TestOutageProbability:
    def test_deterministic_zero_outage(self):
        # sigma=0 and certain LoS make the Monte-Carlo degenerate
        p = make_params(vibration_std_rad=0.0, los_alpha=0.0)
        est = channel.outage_probability([make_link(50, 50)], vec3(50, 50, 80), p, 400, 7)
        assert est.per_link_outage[0] == 0.0

    def test_deterministic_full_outage(self):
        p = make_params(vibration_std_rad=0.0, los_alpha=0.0, noise_power_w=1.0)
        est = channel.outage_probability([make_link(50, 50)], vec3(50, 50, 80), p, 400, 7)
        assert est.per_link_outage[0] == 1.0

    def test_same_seed_bit_identical(self):
        p = make_params()
        links = [make_link(40, 40), make_link(48, 44)]
        a = channel.outage_probability(links, vec3(70, 70, 70), p, 3000, 123)
        b = channel.outage_probability(links, vec3(70, 70, 70), p, 3000, 123)
        assert np.array_equal(a.per_link_outage, b.per_link_outage)

    def test_independent_seeds_within_binomial_bound(self):
        p = make_params()
        links = [make_link(40, 40), make_link(48, 44)]
        n = 100_000
        a = channel.outage_probability(links, vec3(75, 75, 80), p, n, 1)
        b = channel.outage_probability(links, vec3(75, 75, 80), p, n, 2)
        for pa, pb in zip(a.per_link_outage, b.per_link_outage):
            bound = 3 * np.sqrt(max(pa * (1 - pa), 1e-9) / n) * 2
            assert abs(pa - pb) <= bound

    @pytest.mark.parametrize("los_mode", [channel.LOS_PER_SAMPLE, channel.LOS_PER_CALL])
    def test_blocked_draws_equal_one_block(self, monkeypatch, los_mode):
        p = make_params(los_mode=los_mode)
        links = [make_link(40, 40), make_link(48, 44), make_link(110, 100)]
        uav = vec3(70, 70, 75)
        block = channel._DRAW_BLOCK
        sizes = (1, block - 1, block, block + 1, 2 * block + 1)
        blocked = [channel.outage_probability(links, uav, p, s, 9) for s in sizes]
        monkeypatch.setattr(channel, "_DRAW_BLOCK", max(sizes))
        for s, got in zip(sizes, blocked):
            want = channel.outage_probability(links, uav, p, s, 9)
            assert np.array_equal(got.per_link_outage, want.per_link_outage)
        assert 0.0 < channel.max_outage(blocked[-1]) < 1.0

    def test_threshold_monotonicity(self):
        links = [make_link(40, 40), make_link(48, 44), make_link(110, 100)]
        uav = vec3(70, 70, 75)
        low = channel.outage_probability(links, uav, make_params(sinr_threshold=1.0), 2000, 5)
        high = channel.outage_probability(links, uav, make_params(sinr_threshold=10.0), 2000, 5)
        assert np.all(high.per_link_outage >= low.per_link_outage)

    def test_per_call_los_mode_freezes_flags(self):
        # with no vibration, per-call LoS flags make every sample identical
        p = make_params(vibration_std_rad=0.0, los_mode=channel.LOS_PER_CALL)
        links = [make_link(30, 30), make_link(120, 110)]
        est = channel.outage_probability(links, vec3(75, 75, 40), p, 901, 3)
        assert set(np.unique(est.per_link_outage)).issubset({0.0, 1.0})

    def test_estimate_validation(self):
        with pytest.raises(InvalidInputError):
            OutageEstimate(np.array([1.2]), 10, 0)

    def test_rejects_zero_samples(self):
        with pytest.raises(InvalidInputError):
            channel.outage_probability([make_link(1, 1)], vec3(0, 0, 50), make_params(), 0, 0)


class TestMaxOutage:
    def test_picks_maximum(self):
        assert channel.max_outage(OutageEstimate(np.array([0.1, 0.5, 0.2]), 10, 0)) == 0.5

    def test_single_link(self):
        assert channel.max_outage(OutageEstimate(np.array([0.3]), 10, 0)) == 0.3

    def test_all_equal(self):
        assert channel.max_outage(OutageEstimate(np.array([0.25, 0.25]), 10, 0)) == 0.25

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            channel.max_outage(OutageEstimate(np.array([]), 10, 0))
