import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from uavthz import antenna, channel, geometry
from uavthz.antenna import ArrayAntennaConfig
from uavthz.channel import ChannelParams, LinkState, OutageEstimate
from uavthz.config import RunConfig
from uavthz.errors import InvalidInputError
from uavthz.geometry import vec3


def make_params(**kw) -> ChannelParams:
    return replace(RunConfig().channel_params(), **kw)


def make_link(x, y, n_uav=20, n_sbs=10, power=0.01, los=True, spacing=0.5):
    return LinkState(vec3(x, y, 0.0), power, ArrayAntennaConfig(n_uav, spacing), n_sbs, los)


# Reference kernel: one pattern evaluation per (link, interferer) pair with the
# period reduction always applied, the allocating np.sinc expression of the
# pattern, a full (S, M, M) interference tensor, fresh draws per position and
# a scalar loop over station pairs for the link geometry. The library kernel
# must reproduce it bit for bit.

def oracle_axis_ratio(n, psi):
    m = np.round(psi / (2.0 * np.pi))
    r = psi - 2.0 * np.pi * m
    ratio = np.sinc(n * r / (2.0 * np.pi)) / np.sinc(r / (2.0 * np.pi))
    return ratio * np.where((m * (n - 1)) % 2 == 0, 1.0, -1.0)


def oracle_axis_angle(u, a, b, z):
    da, db = u - a, u - b
    num = da * da + db * db + 2.0 * z * z - (a - b) ** 2
    den = 2.0 * np.sqrt((da * da + z * z) * (db * db + z * z))
    return float(np.arccos(np.clip(num / den, -1.0, 1.0)))


def oracle_precompute(links, uav, params):
    m = len(links)
    tx = np.array([lk.tx_power_w for lk in links])
    pl = np.array([channel.path_loss(params, geometry.link_length(uav, lk.sbs_position))
                   for lk in links])
    g0s = np.array([
        antenna.normalization_constant(
            ArrayAntennaConfig(lk.sbs_array_n_side, lk.uav_array.spacing_over_lambda))
        for lk in links
    ])
    p_los = np.array([
        channel.los_probability(params, geometry.elevation_angle(uav, lk.sbs_position))
        for lk in links
    ])
    thx = np.zeros((m, m))
    thy = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i != j:
                si, sj = links[i].sbs_position, links[j].sbs_position
                thx[i, j] = oracle_axis_angle(uav[0], si[0], sj[0], uav[2])
                thy[i, j] = oracle_axis_angle(uav[1], si[1], sj[1], uav[2])
    return tx, pl, g0s, p_los, thx, thy, [lk.uav_array for lk in links]


def oracle_gain(cfg, theta_x, theta_y):
    kd = 2.0 * np.pi * cfg.spacing_over_lambda
    rx = oracle_axis_ratio(cfg.n_side, kd * np.sin(theta_x))
    ry = oracle_axis_ratio(cfg.n_side, kd * np.sin(theta_y))
    return antenna.normalization_constant(cfg) * (rx * ry) ** 2


def oracle_sinr(geom, params, theta_jx, theta_jy, alpha):
    tx, pl, g0s, _, thx, thy, cfgs = geom
    s, m = theta_jx.shape[0], len(cfgs)
    desired_gain = np.empty((s, m))
    for i, cfg in enumerate(cfgs):
        desired_gain[:, i] = oracle_gain(cfg, theta_jx, theta_jy)
    term = np.empty((s, m, m))
    for j, cfg in enumerate(cfgs):
        off_x = thx[:, j][None, :] + theta_jx[:, None]
        off_y = thy[:, j][None, :] + theta_jy[:, None]
        gain_ij = oracle_gain(cfg, off_x, off_y)
        term[:, :, j] = tx[j] * pl[j] * alpha[:, j, None] * g0s[None, :] * gain_ij
    idx = np.arange(m)
    signal = tx[None, :] * alpha * pl[None, :] * g0s[None, :] * desired_gain
    term[:, idx, idx] = 0.0
    return signal / (term.sum(axis=2) + params.noise_power_w)


def oracle_outage(links, uav, params, n_samples, seed):
    geom = oracle_precompute(links, uav, params)
    m = len(links)
    rng = np.random.default_rng(seed)
    theta_jx = rng.normal(0.0, params.vibration_std_rad, size=n_samples)
    theta_jy = rng.normal(0.0, params.vibration_std_rad, size=n_samples)
    if params.los_mode == channel.LOS_PER_CALL:
        flags = np.broadcast_to(rng.random(m)[None, :] < geom[3][None, :], (n_samples, m))
    else:
        flags = rng.random((n_samples, m)) < geom[3][None, :]
    alpha = np.where(flags, 1.0, params.nlos_extra_loss)
    sinr = oracle_sinr(geom, params, theta_jx, theta_jy, alpha)
    return np.count_nonzero(sinr < params.sinr_threshold, axis=0) / n_samples


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
        g0_s = antenna.normalization_constant(ArrayAntennaConfig(10, 0.5))
        expected = lk.tx_power_w * channel.path_loss(p, 80.0) * g0_s * g0_u / p.noise_power_w
        assert out.per_link_sinr[0] == pytest.approx(expected, rel=1e-12)
        assert out.per_link_interference_w[0] == 0.0

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
        g0_u = antenna.normalization_constant(ArrayAntennaConfig(20, 0.5))
        g0_s = antenna.normalization_constant(ArrayAntennaConfig(10, 0.5))

        def hl2(sbs):
            L = np.sqrt(((uav - sbs) ** 2).sum())
            return (lam / (4 * np.pi * L)) ** 4 * np.exp(-p.absorption_coeff * L)

        def uav_gain(tx, ty):
            def ratio(psi):
                if abs(np.sin(psi / 2)) < 1e-12:
                    return 1.0
                return np.sin(20 * psi / 2) / (20 * np.sin(psi / 2))
            px, py = np.pi * np.sin(tx), np.pi * np.sin(ty)
            return g0_u * (ratio(px) * ratio(py)) ** 2

        jx, jy = 0.01, -0.02
        sinr, interference = [], []
        for me, other in ((s1, s2), (s2, s1)):
            tx = oracle_axis_angle(uav[0], me[0], other[0], uav[2])
            ty = oracle_axis_angle(uav[1], me[1], other[1], uav[2])
            signal = 0.01 * hl2(me) * g0_s * uav_gain(jx, jy)
            interf = 0.01 * hl2(other) * g0_s * uav_gain(tx + jx, ty + jy)
            sinr.append(signal / (interf + p.noise_power_w))
            interference.append(interf)
        assert out.per_link_sinr == pytest.approx(sinr, rel=1e-10)
        assert out.per_link_interference_w == pytest.approx(interference, rel=1e-10, abs=0.0)

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

KERNEL_CASES = {
    "one link": ([(50, 60)], (70, 75, 80), 0.5),
    "two links": ([(40, 40), (110, 95)], (75, 70, 85), 0.5),
    "six links": ([(12, 30), (40, 44), (48, 44), (75, 140), (110, 95), (140, 10)],
                  (70, 70, 75), 0.5),
    "station under the UAV": ([(70, 70), (40, 44), (110, 95)], (70, 70, 60), 0.5),
    "spacing 0.7 (period reduction)": ([(12, 30), (40, 44), (75, 140), (110, 95)],
                                       (70, 70, 75), 0.7),
}


class TestKernelMatchesReference:
    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_geometry_and_sinr_bit_identical(self, case):
        stations, uav, spacing = KERNEL_CASES[case]
        links = [make_link(x, y, spacing=spacing) for x, y in stations]
        uav = vec3(*uav)
        p = make_params()
        ref = oracle_precompute(links, uav, p)
        geom = channel._precompute(links, uav, p)
        assert np.array_equal(geom.tx_power, ref[0])
        assert np.array_equal(geom.path_loss_sq, ref[1])
        assert np.array_equal(geom.sbs_g0, ref[2])
        assert np.array_equal(geom.p_los, ref[3])
        m = len(links)
        pairs = ~np.eye(m, dtype=bool)
        for offset, theta in ((geom.offset_x, ref[4]), (geom.offset_y, ref[5])):
            assert offset[0] == 0.0 and offset.shape == (1 + m * (m - 1) // 2,)
            assert np.array_equal(offset[geom.column][pairs], theta[pairs])
        if spacing > 0.5:
            # some |psi| = k*d*|sin(offset)| exceed pi, so the reduction acts
            assert np.any(2 * np.pi * spacing * np.sin(geom.offset_x) > np.pi)
        rng = np.random.default_rng(5)
        s = 4000
        jx = rng.normal(0.0, 0.05, s)
        jy = rng.normal(0.0, 0.05, s)
        alpha = np.where(rng.random((s, m)) < 0.6, 1.0, p.nlos_extra_loss)
        got, _ = channel._sinr_matrix(geom, p, jx, jy, alpha, channel._Workspace(s, m))
        assert np.array_equal(got, oracle_sinr(ref, p, jx, jy, alpha))

    @pytest.mark.parametrize("spacing", [0.5, 0.7, 1.3])
    def test_in_place_gain_matches_sinc_expression(self, spacing):
        # exact zeros of psi, period boundaries and a short block reusing a
        # larger scratch; the reference is the allocating np.sinc expression
        cfg = ArrayAntennaConfig(20, spacing)
        kd = 2 * np.pi * spacing
        special = [0.0, -0.0, np.arcsin(min(1.0, np.pi / kd)),
                   np.arcsin(min(1.0, 2 * np.pi / kd))]
        rng = np.random.default_rng(11)
        theta_x = np.concatenate([special, rng.uniform(-1.5, 1.5, 60)]).reshape(8, 8)
        theta_y = np.concatenate([special[::-1], rng.uniform(-1.5, 1.5, 60)]).reshape(8, 8)
        scratch = antenna.PatternScratch(128)
        out = np.empty((8, 8))
        got = antenna.gain_at_axis_offsets(cfg, theta_x, theta_y, out=out, scratch=scratch)
        assert got is out
        assert np.array_equal(out, oracle_gain(cfg, theta_x, theta_y))
        assert antenna.gain_at_axis_offsets(cfg, 0.0, 0.0) == oracle_gain(cfg, 0.0, 0.0)

    @pytest.mark.parametrize("los_mode", [channel.LOS_PER_SAMPLE, channel.LOS_PER_CALL])
    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_outage_bit_identical(self, case, los_mode):
        stations, uav, spacing = KERNEL_CASES[case]
        links = [make_link(x, y, spacing=spacing) for x, y in stations]
        p = make_params(los_mode=los_mode, vibration_std_rad=np.deg2rad(4.0))
        n = 2 * channel._DRAW_BLOCK + 7
        got = channel.outage_probability(links, vec3(*uav), p, n, 17).per_link_outage
        want = oracle_outage(links, vec3(*uav), p, n, 17)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1, "B-1", "B+1", "2B+7"])
    @pytest.mark.parametrize("spacing", [0.5, 0.7])
    @pytest.mark.parametrize("los_mode", [channel.LOS_PER_SAMPLE, channel.LOS_PER_CALL])
    def test_scan_matches_per_position_reference(self, los_mode, spacing, n):
        block = channel._DRAW_BLOCK
        n = {"B-1": block - 1, "B+1": block + 1, "2B+7": 2 * block + 7}.get(n, n)
        stations = [(12, 30), (40, 44), (75, 140), (110, 95)]
        links = [make_link(x, y, spacing=spacing) for x, y in stations]
        p = make_params(los_mode=los_mode, vibration_std_rad=np.deg2rad(4.0))
        positions = [vec3(70 + 9 * k, 60 + 5 * k, 40 + 12 * k) for k in range(7)]
        want = [oracle_outage(links, uav, p, n, 23) for uav in positions]
        for k in (1, 2, 7):
            got = list(channel.outage_scan(links, positions[:k], p, n, 23))
            assert len(got) == k
            for est, ref in zip(got, want):
                assert (est.n_samples, est.seed) == (n, 23)
                assert np.array_equal(est.per_link_outage, ref)

    def test_mixed_uav_arrays_rejected(self):
        links = [make_link(40, 40), make_link(110, 95, n_uav=8)]
        with pytest.raises(InvalidInputError, match="one UAV array"):
            channel.outage_probability(links, vec3(75, 70, 85), make_params(), 10, 0)


def scan_peak_bytes(links, positions, p, n):
    """Peak traced memory of one scan, its estimates discarded as they come."""
    tracemalloc.start()
    try:
        for _ in channel.outage_scan(links, positions, p, n, 4):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestScanMemory:
    LINKS = [make_link(12, 30), make_link(40, 44), make_link(75, 140), make_link(110, 95),
             make_link(140, 10), make_link(48, 44)]

    def setup_method(self):
        # fill the g0 cache outside the traced region
        channel.outage_probability(self.LINKS, vec3(70, 70, 75), make_params(), 8, 0)

    def test_peak_does_not_grow_with_positions(self):
        p = make_params()
        n = 2 * channel._DRAW_BLOCK + 7
        positions = [vec3(20 + 3 * k, 30 + 2 * k, 50 + k) for k in range(40)]
        one = scan_peak_bytes(self.LINKS, positions[:1], p, n)
        forty = scan_peak_bytes(self.LINKS, positions, p, n)
        assert forty - one <= 64 * 1024

    def test_only_the_draws_grow_with_samples(self):
        # two jitter values and one uniform per link and draw; the block
        # workspace is the same size at both sample counts
        p = make_params()
        block = channel._DRAW_BLOCK
        small = scan_peak_bytes(self.LINKS, [vec3(70, 70, 75)], p, 2 * block)
        large = scan_peak_bytes(self.LINKS, [vec3(70, 70, 75)], p, 6 * block)
        draws = 4 * block * 8 * (2 + len(self.LINKS))
        assert large - small <= draws + 64 * 1024


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
