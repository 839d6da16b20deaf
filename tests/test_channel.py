import functools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from uavthz import antenna, channel, geometry
from uavthz.antenna import ArrayAntennaConfig
from uavthz.channel import ChannelParams
from uavthz.config import RunConfig
from uavthz.environment import Environment
from uavthz.errors import GeometryDegenerateError, InvalidInputError
from uavthz.geometry import vec3


def make_params(**kw) -> ChannelParams:
    return replace(RunConfig().channel_params(), **kw)


def station_positions(*xy):
    """The (M, 3) array of ground stations at the given (x, y) points."""
    return np.array([(x, y, 0.0) for x, y in xy], dtype=float)


# What the channel's two entries, outage_scan and instantaneous_sinr, reject
# of their stations and of a UAV position.
BAD_STATION_ARRAYS = {
    "empty": np.empty((0, 3)),
    "(3,)": np.array([40.0, 40.0, 0.0]),
    "(M, 2)": np.array([(40.0, 40.0), (110.0, 95.0)]),
    "non-finite": station_positions((40, 40), (110, np.nan)),
    "beyond the bound": station_positions((40, 40), (110, 1e200)),
    "ragged": [(40.0, 40.0, 0.0), (110.0, 95.0)],
}
BAD_UAVS = {
    "on the ground": ((75.0, 70.0, 0.0), GeometryDegenerateError),
    "below the ground": ((75.0, 70.0, -1.0), GeometryDegenerateError),
    "below the altitude floor": ((75.0, 70.0, 1e-100), GeometryDegenerateError),
    "(2,)": ((75.0, 70.0), InvalidInputError),
    "non-finite": ((75.0, np.inf, 85.0), InvalidInputError),
    "beyond the bound": ((1e200, 70.0, 85.0), InvalidInputError),
    "ragged": ((75.0, (70.0, 1.0), 85.0), InvalidInputError),
    "non-numeric": (("75", "north", "85"), InvalidInputError),
}


# Reference kernel: one pattern evaluation per (link, interferer) pair with the
# period reduction always applied, the allocating float64 np.sinc expression of
# the pattern, a full (S, M, M) interference tensor, fresh draws per position,
# built from their definition with allocating expressions, and a scalar loop
# over station pairs for the link geometry. The library reproduces its link
# geometry bit for bit. Its UAV gains are float32 and meet the antenna module's
# stated tolerance (gain_tolerance), so each SINR lies within the interval
# those gain errors allow (assert_sinr_within_gain_tolerance). Its estimator
# judges every draw of a link twice, with the link's own LoS state set to LoS
# and to NLoS, and weights the two failure counts by the LoS probability
# (oracle_outage); sampled_outage is the estimator that judges each draw once,
# at its drawn state. At most 1e-4 of a link's LoS or NLoS verdicts may differ
# from the reference's, which at the fewer than 10k draws of the count tests
# below means none.

EPS32 = float(np.finfo(np.float32).eps)


def gain_tolerance(cfg):
    """The antenna module's bound on a float32 gain's error: g0 * (2n*k*d + 3) * eps32."""
    kd = 2.0 * np.pi * cfg.spacing_over_lambda
    return antenna.normalization_constant(cfg) * (2 * cfg.n_side * kd + 3) * EPS32


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


def oracle_precompute(sbs, uav, params):
    # per-link power, g0 and UAV array, each built per link from params
    m = len(sbs)
    tx = np.array([params.tx_power_w for _ in sbs])
    pl = np.array([channel.path_loss(params, geometry.link_length(uav, s[None])[0])
                   for s in sbs])
    g0s = np.array([
        antenna.normalization_constant(
            ArrayAntennaConfig(params.sbs_n_side, params.spacing_over_lambda))
        for _ in sbs
    ])
    p_los = np.array([
        channel.los_probability(params, geometry.elevation_angle(uav, s[None])[0])
        for s in sbs
    ])
    thx = np.zeros((m, m))
    thy = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i != j:
                si, sj = sbs[i], sbs[j]
                thx[i, j] = oracle_axis_angle(uav[0], si[0], sj[0], uav[2])
                thy[i, j] = oracle_axis_angle(uav[1], si[1], sj[1], uav[2])
    uav_arrays = [ArrayAntennaConfig(params.uav_n_side, params.spacing_over_lambda) for _ in sbs]
    return tx, pl, g0s, p_los, thx, thy, uav_arrays


def oracle_gain(cfg, theta_x, theta_y):
    kd = 2.0 * np.pi * cfg.spacing_over_lambda
    rx = oracle_axis_ratio(cfg.n_side, kd * np.sin(theta_x))
    ry = oracle_axis_ratio(cfg.n_side, kd * np.sin(theta_y))
    return antenna.normalization_constant(cfg) * (rx * ry) ** 2


def oracle_sinr_terms(geom, theta_jx, theta_jy, alpha, own=None):
    """(signal, interference, signal per unit of UAV gain, interference per unit), each (S, M).

    alpha scales each link as an interferer, own (default: alpha) as the desired link.
    """
    tx, pl, g0s, _, thx, thy, cfgs = geom
    s, m = theta_jx.shape[0], len(cfgs)
    own = alpha if own is None else own
    desired_gain = np.empty((s, m))
    for i, cfg in enumerate(cfgs):
        desired_gain[:, i] = oracle_gain(cfg, theta_jx, theta_jy)
    term = np.empty((s, m, m))
    per_gain = np.empty((s, m, m))
    for j, cfg in enumerate(cfgs):
        off_x = thx[:, j][None, :] + theta_jx[:, None]
        off_y = thy[:, j][None, :] + theta_jy[:, None]
        gain_ij = oracle_gain(cfg, off_x, off_y)
        per_gain[:, :, j] = tx[j] * pl[j] * alpha[:, j, None] * g0s[None, :]
        term[:, :, j] = per_gain[:, :, j] * gain_ij
    idx = np.arange(m)
    signal_per_gain = tx[None, :] * own * pl[None, :] * g0s[None, :]
    term[:, idx, idx] = 0.0
    per_gain[:, idx, idx] = 0.0
    return (signal_per_gain * desired_gain, term.sum(axis=2), signal_per_gain,
            per_gain.sum(axis=2))


def oracle_sinr(geom, params, theta_jx, theta_jy, alpha, own=None):
    signal, interference, _, _ = oracle_sinr_terms(geom, theta_jx, theta_jy, alpha, own)
    return signal / (interference + params.noise_power_w)


def oracle_verdicts(geom, params, theta_jx, theta_jy, alpha):
    """(LoS, NLoS) outage verdicts, (S, M) each: a link's own state set, its interferers' alpha."""
    return tuple(oracle_sinr(geom, params, theta_jx, theta_jy, alpha,
                             np.full(alpha.shape, own)) < params.sinr_threshold
                 for own in (1.0, params.nlos_extra_loss))


def assert_sinr_within_gain_tolerance(sinr, interference, geom, params, theta_jx, theta_jy,
                                      alpha, own=None):
    """sinr and interference are the reference's with every UAV gain off by at most its tolerance.

    Each term is linear in one UAV gain, so a gain error of at most dg moves
    the interference by at most dg times its per-gain sum and bounds the SINR
    between the two extreme ratios. The float64 arithmetic around the gains
    adds a relative 1e-12.
    """
    signal, ref_interference, signal_per_gain, interference_per_gain = oracle_sinr_terms(
        geom, theta_jx, theta_jy, alpha, own)
    dg, noise, slack = gain_tolerance(geom[6][0]), params.noise_power_w, 1e-12
    assert np.all(np.abs(interference - ref_interference)
                  <= interference_per_gain * dg + slack * ref_interference)
    low = (signal - signal_per_gain * dg) / (ref_interference + interference_per_gain * dg + noise)
    high = ((signal + signal_per_gain * dg)
            / (np.maximum(ref_interference - interference_per_gain * dg, 0.0) + noise))
    assert np.all((low * (1 - slack) <= sinr) & (sinr <= high * (1 + slack)))


def oracle_lattice_generator(n):
    # every candidate up to n + 1 (which is always coprime to n), nearest first
    g = n * (math.sqrt(5.0) - 1.0) / 2.0
    return min((a for a in range(1, n + 2) if math.gcd(a, n) == 1),
               key=lambda a: (abs(a - g), a))


def oracle_draws(params, m, n, seed):
    """The scan's draws from their definition, in the documented order.

    A Cranley-Patterson shifted rank-1 lattice through Box-Muller for the
    jitter; a Latin hypercube for the LoS uniforms.
    """
    rng = np.random.default_rng(seed)
    shift = rng.random(2)
    v = rng.random((n, m))
    perms = np.stack([rng.permutation(n) for _ in range(m)], axis=1)
    uniforms = (perms + v) / n
    s = np.arange(n)
    u1 = (s / n + shift[0]) % 1.0
    u2 = ((s * oracle_lattice_generator(n)) % n / n + shift[1]) % 1.0
    r = params.vibration_std_rad * np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * np.pi * u2
    return r * np.cos(angle), r * np.sin(angle), uniforms


def plain_draws(params, m, n, seed):
    """Plain Monte-Carlo draws: Gaussian jitter, independent LoS uniforms."""
    rng = np.random.default_rng(seed)
    theta_jx = rng.normal(0.0, params.vibration_std_rad, size=n)
    theta_jy = rng.normal(0.0, params.vibration_std_rad, size=n)
    return theta_jx, theta_jy, rng.random((n, m))


def oracle_outage(links, uav, params, n_samples, seed, draws=oracle_draws):
    """The conditional estimator: each link's own LoS state summed out, its interferers' drawn."""
    geom = oracle_precompute(links, uav, params)
    theta_jx, theta_jy, uniforms = draws(params, len(links), n_samples, seed)
    alpha = np.where(uniforms < geom[3], 1.0, params.nlos_extra_loss)
    los, nlos = (np.count_nonzero(v, axis=0)
                 for v in oracle_verdicts(geom, params, theta_jx, theta_jy, alpha))
    p_los = geom[3]
    return (p_los * los + (1.0 - p_los) * nlos) / n_samples


def sampled_outage(links, uav, params, n_samples, seed, draws=oracle_draws):
    """The sampled-verdict estimator: the share of draws below threshold at each drawn LoS state."""
    geom = oracle_precompute(links, uav, params)
    theta_jx, theta_jy, uniforms = draws(params, len(links), n_samples, seed)
    alpha = np.where(uniforms < geom[3], 1.0, params.nlos_extra_loss)
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

    def test_far_below_alpha_degrees_reads_zero_without_a_warning(self):
        # exp overflows to inf there; the logistic's limit is 0
        p = make_params(los_alpha=10000.0)
        assert np.all(channel.los_probability(p, np.deg2rad([0.5, 45.0, 90.0])) == 0.0)

    def test_strictly_increasing_in_elevation(self):
        p = make_params()
        elevs = np.linspace(0.01, np.pi / 2, 200)
        vals = [channel.los_probability(p, e) for e in elevs]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestInstantaneousSinr:
    def test_single_link_closed_form(self):
        p = make_params(vibration_std_rad=0.0)
        uav = vec3(50.0, 50.0, 80.0)
        sinr, interference = channel.instantaneous_sinr(station_positions((50.0, 50.0)), uav,
                                                        (0.0, 0.0), p)
        g0_u = antenna.normalization_constant(ArrayAntennaConfig(20, 0.5))
        g0_s = antenna.normalization_constant(ArrayAntennaConfig(10, 0.5))
        expected = 0.01 * channel.path_loss(p, 80.0) * g0_s * g0_u / p.noise_power_w
        # both UAV factors are exactly 1 at boresight: the gain is g0 in float32
        assert sinr[0] == pytest.approx(expected, rel=EPS32)
        assert interference[0] == 0.0

    def test_colocated_symmetric_links(self):
        p = make_params()
        links = station_positions((40.0, 60.0), (40.0, 60.0))
        sinr, _ = channel.instantaneous_sinr(links, vec3(70.0, 75.0, 90.0), (0.0, 0.0), p)
        assert sinr[0] == pytest.approx(sinr[1], rel=1e-12)

    def test_two_link_value_against_scalar_reimplementation(self):
        # independent scalar evaluation of the SINR formula, kept free of the
        # library's vectorized path
        p = make_params()
        uav = np.array([75.0, 70.0, 85.0])
        s1, s2 = np.array([40.0, 40.0, 0.0]), np.array([100.0, 55.0, 0.0])
        links = station_positions((40.0, 40.0), (100.0, 55.0))
        sinr, interference = channel.instantaneous_sinr(links, uav, (0.01, -0.02), p)

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

        # the UAV gains are float32: each is within dg of the scalar value,
        # which bounds each link's interference and SINR
        dg = gain_tolerance(ArrayAntennaConfig(20, 0.5))
        jx, jy = 0.01, -0.02
        for k, (me, other) in enumerate(((s1, s2), (s2, s1))):
            tx = oracle_axis_angle(uav[0], me[0], other[0], uav[2])
            ty = oracle_axis_angle(uav[1], me[1], other[1], uav[2])
            signal_per_gain, interf_per_gain = 0.01 * hl2(me) * g0_s, 0.01 * hl2(other) * g0_s
            signal = signal_per_gain * uav_gain(jx, jy)
            interf = interf_per_gain * uav_gain(tx + jx, ty + jy)
            assert abs(interference[k] - interf) <= interf_per_gain * dg
            noise = p.noise_power_w
            low = (signal - signal_per_gain * dg) / (interf + interf_per_gain * dg + noise)
            high = (signal + signal_per_gain * dg) / (max(interf - interf_per_gain * dg, 0) + noise)
            assert low <= sinr[k] <= high

    def test_interference_removal_never_hurts(self):
        p = make_params()
        uav = vec3(75.0, 75.0, 70.0)
        links = station_positions((40.0, 40.0), (48.0, 44.0), (110.0, 90.0))
        full, _ = channel.instantaneous_sinr(links, uav, (0.01, 0.02), p)
        reduced, _ = channel.instantaneous_sinr(links[:2], uav, (0.01, 0.02), p)
        assert np.all(reduced >= full[:2])

    def test_nlos_draws_attenuate_signal(self):
        # one link, no jitter: a threshold between the LoS SINR and
        # nlos_extra_loss times it fails exactly the NLoS draws
        links, uav = station_positions((50, 50)), vec3(50.0, 50.0, 80.0)
        p = make_params(vibration_std_rad=0.0, los_b=0.0)
        los_sinr = channel.instantaneous_sinr(links, uav, (0, 0), p)[0][0]
        threshold = np.sqrt(p.nlos_extra_loss) * los_sinr
        for los_alpha, outage in ((0.0, 0.0), (1e300, 1.0)):  # LoS certain, then never
            q = replace(p, los_alpha=los_alpha, sinr_threshold=threshold)
            est = channel.outage_probability(links, uav, q, 300, 4)
            assert est[0] == outage

    @pytest.mark.parametrize("links", BAD_STATION_ARRAYS.values(), ids=BAD_STATION_ARRAYS)
    def test_rejects_a_bad_station_array(self, links):
        with pytest.raises(InvalidInputError, match="position"):
            channel.instantaneous_sinr(links, vec3(75, 70, 85), (0, 0), make_params())

    @pytest.mark.parametrize("uav,error", BAD_UAVS.values(), ids=BAD_UAVS)
    def test_rejects_a_bad_uav(self, uav, error):
        with pytest.raises(error):
            channel.instantaneous_sinr(station_positions((40, 40)), uav, (0, 0), make_params())


# Powers and thresholds at the ends of what ChannelParams accepts: a transmit
# power 1e250 noise powers (the 2^k unit's reason: in plain noise units the
# float32 cast overflows), alone and with NLoS draws of zero desired power
# over a noise term below float32's range; thresholds whose float32 cast
# overflows or is subnormal, or near float32's largest value, where the
# bound's sum overflows; powers below float32's range; and one station,
# whose interference is an empty sum.
EXTREME_ROWS = {
    "tx 1e250 noise powers": ({"noise_power_w": 0.01 / 1e250}, [(40, 40), (110, 95), (12, 30)]),
    "threshold 1e300": ({"sinr_threshold": 1e300}, [(40, 40), (110, 95), (12, 30)]),
    "threshold 1e300, noise 1e200 W": ({"sinr_threshold": 1e300, "noise_power_w": 1e200},
                                       [(40, 40), (110, 95), (12, 30)]),
    "threshold 3e38, noise 1e-24 W": ({"sinr_threshold": 3e38, "noise_power_w": 1e-24},
                                      [(40, 40), (110, 95), (12, 30)]),
    "threshold 1e-40": ({"sinr_threshold": 1e-40}, [(40, 40), (110, 95), (12, 30)]),
    "tx 1e-300 W": ({"tx_power_w": 1e-300}, [(40, 40), (110, 95), (12, 30)]),
    "NLoS loss 0, tx 1e250 noise powers": ({"noise_power_w": 0.01 / 1e250, "nlos_extra_loss": 0.0,
                                           "los_b": 0.05}, [(40, 40), (110, 95), (12, 30)]),
    "one station": ({}, [(40, 40)]),
    "one station, threshold 1e300": ({"sinr_threshold": 1e300}, [(40, 40)]),
}


class TestOutageProbability:
    def test_deterministic_zero_outage(self):
        # sigma=0 and certain LoS make the Monte-Carlo degenerate
        p = make_params(vibration_std_rad=0.0, los_alpha=0.0)
        est = channel.outage_probability(station_positions((50, 50)), vec3(50, 50, 80), p, 400, 7)
        assert est[0] == 0.0

    def test_deterministic_full_outage(self):
        p = make_params(vibration_std_rad=0.0, los_alpha=0.0, noise_power_w=1.0)
        est = channel.outage_probability(station_positions((50, 50)), vec3(50, 50, 80), p, 400, 7)
        assert est[0] == 1.0

    def test_same_seed_bit_identical(self):
        p = make_params()
        links = station_positions((40, 40), (48, 44))
        a = channel.outage_probability(links, vec3(70, 70, 70), p, 3000, 123)
        b = channel.outage_probability(links, vec3(70, 70, 70), p, 3000, 123)
        assert np.array_equal(a, b)

    def test_independent_seeds_within_binomial_bound(self):
        p = make_params()
        links = station_positions((40, 40), (48, 44))
        n = 100_000
        a = channel.outage_probability(links, vec3(75, 75, 80), p, n, 1)
        b = channel.outage_probability(links, vec3(75, 75, 80), p, n, 2)
        for pa, pb in zip(a, b):
            bound = 3 * np.sqrt(max(pa * (1 - pa), 1e-9) / n) * 2
            assert abs(pa - pb) <= bound

    def test_blocked_draws_equal_one_block(self, monkeypatch):
        p = make_params()
        links = station_positions((40, 40), (48, 44), (110, 100))
        uav = vec3(70, 70, 75)
        block = channel._DRAW_BLOCK
        sizes = (1, block - 1, block, block + 1, 2 * block + 1)
        blocked = [channel.outage_probability(links, uav, p, s, 9) for s in sizes]
        monkeypatch.setattr(channel, "_DRAW_BLOCK", max(sizes))
        for s, got in zip(sizes, blocked):
            want = channel.outage_probability(links, uav, p, s, 9)
            assert np.array_equal(got, want)
        assert 0.0 < channel.max_outage(blocked[-1]) < 1.0

    def test_threshold_monotonicity(self):
        links = station_positions((40, 40), (48, 44), (110, 100))
        uav = vec3(70, 70, 75)
        low = channel.outage_probability(links, uav, make_params(sinr_threshold=1.0), 2000, 5)
        high = channel.outage_probability(links, uav, make_params(sinr_threshold=10.0), 2000, 5)
        assert np.all(high >= low)

    def test_bound_that_overflows_fails_every_draw_without_a_warning(self):
        # thr * (I + N) exceeds the float64 range, in W and in the scan's
        # unit: the bound's noise term is inf
        p = make_params(sinr_threshold=1e300, noise_power_w=1e200)
        links = station_positions((40, 40), (110, 95))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = channel.outage_probability(links, vec3(70, 70, 75), p, 300, 3)
        assert np.all(est == 1.0)

    @pytest.mark.parametrize("row", sorted(EXTREME_ROWS))
    def test_extreme_powers_and_thresholds_match_the_oracle_without_a_warning(self, row):
        # the float32 stage's unit keeps every term in range: the estimates
        # equal the float64 oracle's, and no cast or product warns
        kw, stations = EXTREME_ROWS[row]
        p, links, uav = make_params(**kw), station_positions(*stations), vec3(70, 70, 75)
        want = oracle_outage(links, uav, p, 2000, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = channel.outage_probability(links, uav, p, 2000, 3)
        assert np.array_equal(est, want)

    @pytest.mark.parametrize("nlos_extra_loss", [0.0, 1.0])
    def test_nlos_loss_at_its_ends(self, nlos_extra_loss):
        # at 0 an NLoS draw always fails; at 1 it is judged as a LoS draw
        p = make_params(nlos_extra_loss=nlos_extra_loss, los_b=0.05)
        links = station_positions((12, 30), (40, 44), (110, 95))
        uav = vec3(70, 70, 75)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = channel.outage_probability(links, uav, p, 700, 5)
        assert np.array_equal(est, oracle_outage(links, uav, p, 700, 5))
        p_los = channel._precompute(links, uav[None], p)[1][0]
        if nlos_extra_loss == 0.0:
            assert np.all(est >= (1.0 - p_los) * (1.0 - 1e-12))

    def test_rejects_zero_samples(self):
        with pytest.raises(InvalidInputError):
            channel.outage_probability(station_positions((1, 1)), vec3(0, 0, 50), make_params(),
                                       0, 0)

KERNEL_CASES = {
    "one link": ([(50, 60)], (70, 75, 80), 0.5),
    "two links": ([(40, 40), (110, 95)], (75, 70, 85), 0.5),
    "six links": ([(12, 30), (40, 44), (48, 44), (75, 140), (110, 95), (140, 10)],
                  (70, 70, 75), 0.5),
    "station under the UAV": ([(70, 70), (40, 44), (110, 95)], (70, 70, 60), 0.5),
    "spacing 0.7 (period reduction)": ([(12, 30), (40, 44), (75, 140), (110, 95)],
                                       (70, 70, 75), 0.7),
}


# LoS parameters for the bit-for-bit tests. The default urban model puts
# nearly every link in LoS, so its draws barely reach the NLoS branch; a
# flatter elevation curve makes both states common.
LOS_REGIMES = {"default LoS": {}, "frequent NLoS": {"los_b": 0.05}}


# Position lists whose points share an x or a y at one altitude, so the scan
# shares factor tables between them.
SHARED_AXIS_LAYOUTS = {
    # the lexicographic order of baseline.scan_grid's lattice rows
    "3x3x2 lattice": [(x, y, z) for x in (20, 75, 130) for y in (30, 80, 130)
                      for z in (40, 90)],
    # repeated altitudes in no particular order
    "unordered": [(90, 60, 70), (40, 60, 45), (90, 110, 45), (40, 110, 70),
                  (65, 60, 70), (90, 60, 45), (40, 35, 70)],
    # a move clipped at a face of the flight box repeats the position exactly
    "duplicate": [(70, 60, 80), (70, 60, 80), (95, 60, 80), (95, 60, 80)],
}


def check_scan_against_oracle(positions, los, spacing, n):
    """Scans of the first 1, 2 and all positions equal each position scanned alone, bit for bit.

    And they equal the per-position oracle calls: at these sample counts the
    stated tolerance lets no verdict differ. Each scan takes the positions
    once as a list of (3,) arrays and once as one (k, 3) array. Each check
    runs at one, two and four stations: no station pair, one, and six.
    """
    block = channel._DRAW_BLOCK
    n = {"B-1": block - 1, "B+1": block + 1, "2B+7": 2 * block + 7}.get(n, n)
    p = make_params(spacing_over_lambda=spacing, vibration_std_rad=np.deg2rad(4.0),
                    **LOS_REGIMES[los])
    positions = [vec3(*uav) for uav in positions]
    for m in (1, 2, 4):
        links = station_positions((12, 30), (40, 44), (75, 140), (110, 95))[:m]
        want = [oracle_outage(links, uav, p, n, 23) for uav in positions]
        alone = [channel.outage_probability(links, uav, p, n, 23)
                 for uav in positions]
        for k in (1, 2, len(positions)):
            for uavs in (positions[:k], np.array(positions[:k])):
                got = channel.outage_scan(links, uavs, p, n, 23)
                assert got.shape == (k, m) and got.dtype == np.float64
                for est, single, ref in zip(got, alone, want):
                    assert np.array_equal(est, single), m
                    assert np.array_equal(est, ref), m


class TestKernelMatchesReference:
    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_geometry_and_sinr_bit_identical(self, case):
        # the case's position is row 0 of a group whose other row is a
        # position at its altitude with a largest power in another octave
        stations, uav, spacing = KERNEL_CASES[case]
        links = station_positions(*stations)
        uav = vec3(*uav)
        group = np.array([uav, uav + (60.0, -40.0, 0.0)])
        p = make_params(spacing_over_lambda=spacing)
        m, s = len(links), 4000
        _, row = channel._pairs(m)
        pairs = ~np.eye(m, dtype=bool)
        setup = channel._precompute(links, group, p)
        assert [a.shape for a in setup] == [(2, m)] * 2 + [(2, 1 + m * (m - 1) // 2)] * 2
        refs = [oracle_precompute(links, uav_g, p) for uav_g in group]
        for ref, (power_g, p_los_g, offset_x_g, offset_y_g) in zip(refs, zip(*setup)):
            assert np.all(ref[0] == p.tx_power_w) and np.all(ref[2] == p.sbs_g0)
            assert np.array_equal(power_g, ref[0] * ref[1] * ref[2])
            assert np.array_equal(p_los_g, ref[3])
            assert all(cfg == p.uav_array for cfg in ref[6])
            for offset, theta in ((offset_x_g, ref[4]), (offset_y_g, ref[5])):
                assert offset[0] == 0.0
                assert np.array_equal(offset[row][pairs], theta[pairs])
        ref = refs[0]
        power, _, offset_x, offset_y = (a[0] for a in setup)
        if spacing > 0.5:
            # some |psi| = k*d*|sin(offset)| exceed pi, so the reduction acts
            assert np.any(2 * np.pi * spacing * np.sin(offset_x) > np.pi)
        rng = np.random.default_rng(5)
        jx = rng.normal(0.0, 0.05, s)
        jy = rng.normal(0.0, 0.05, s)
        los = rng.random((s, m)) < 0.6
        alpha = np.where(los, 1.0, p.nlos_extra_loss)
        ratio_x, ratio_y = (channel._ratio_table(jitter, offset, p)
                            for jitter, offset in ((jx, offset_x), (jy, offset_y)))
        assert ratio_x.shape == (1 + m * (m - 1) // 2, s)
        assert ratio_x.dtype == ratio_y.dtype == np.float32
        # in W, as instantaneous_sinr calls the stage
        desired, interference = channel._link_powers(p, ratio_x, ratio_y, power,
                                                     power[:, None] * alpha.T, 0.0)
        assert desired.dtype == interference.dtype == np.float64
        assert desired.shape == interference.shape == (m, s)
        # the desired power is the link's in line of sight, whatever its alpha
        got = (desired / (interference + p.noise_power_w)).T
        assert_sinr_within_gain_tolerance(got, interference.T, ref, p, jx, jy, alpha,
                                          np.ones_like(alpha))
        # in the scan's float32 unit, on the same gains: the unit's desired
        # power and its bound thr * (I + N) round within the module's stated
        # gamma terms (two roundings for D, M + 1 for each term of the
        # bound), plus float32's subnormal spacing per term; each row of the
        # group has its own unit
        unit, weight, noise = channel._float32_terms(setup[0], p)
        assert unit.shape == (2, m) and weight.shape == (2, 2, m, 1) and noise.shape == (2,)
        assert np.frexp(setup[0][0].max())[1] != np.frexp(setup[0][1].max())[1]
        assert np.all((0.5 <= unit.max(axis=1)) & (unit.max(axis=1) < 1.0))
        desired32, bound32 = channel._link_powers(p, ratio_x, ratio_y, unit[0],
                                                  np.where(los.T, *weight[:, 0]), noise[0])
        assert desired32.dtype == bound32.dtype == np.float32
        scale = 2.0 ** -np.frexp(power.max())[1]
        tiny = float(np.finfo(np.float32).smallest_subnormal)
        for got, exact, n in ((desired32, desired * scale, 2),
                              (bound32, p.sinr_threshold * (interference + p.noise_power_w)
                               * scale, m + 1)):
            gamma = n * EPS32 / 2 / (1 - n * EPS32 / 2)
            assert np.all(np.abs(got - exact) <= (gamma + 1e-12) * exact + m * tiny)

    @pytest.mark.parametrize("spacing", [0.5, 0.7, 1.3])
    def test_gain_matches_sinc_expression(self, spacing):
        # exact zeros of psi and period boundaries; the reference is the
        # float64 np.sinc expression, which the float32 gain meets within its
        # tolerance
        cfg = ArrayAntennaConfig(20, spacing)
        kd = 2 * np.pi * spacing
        special = [0.0, -0.0, np.arcsin(min(1.0, np.pi / kd)),
                   np.arcsin(min(1.0, 2 * np.pi / kd))]
        rng = np.random.default_rng(11)
        theta_x = np.concatenate([special, rng.uniform(-1.5, 1.5, 60)]).reshape(8, 8)
        theta_y = np.concatenate([special[::-1], rng.uniform(-1.5, 1.5, 60)]).reshape(8, 8)
        want = oracle_gain(cfg, theta_x, theta_y)
        g0 = antenna.normalization_constant(cfg)
        # the steps the scan takes, on float32 angles, and at boresight alone
        ratio_x, ratio_y = (antenna.axis_ratio(cfg, theta.astype(np.float32))
                            for theta in (theta_x, theta_y))
        out = antenna.gain_from_axis_ratios(g0, ratio_x, ratio_y)
        assert out.dtype == np.float32
        assert np.all(np.abs(out - want) <= gain_tolerance(cfg))
        ratio = antenna.axis_ratio(cfg, np.float32(0.0))
        boresight = antenna.gain_from_axis_ratios(g0, ratio, ratio)
        assert boresight == pytest.approx(oracle_gain(cfg, 0.0, 0.0), rel=EPS32)

    @pytest.mark.parametrize("los", sorted(LOS_REGIMES))
    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_outage_bit_identical(self, case, los):
        stations, uav, spacing = KERNEL_CASES[case]
        links = station_positions(*stations)
        p = make_params(spacing_over_lambda=spacing, vibration_std_rad=np.deg2rad(4.0),
                        **LOS_REGIMES[los])
        n = 2 * channel._DRAW_BLOCK + 7
        got = channel.outage_probability(links, vec3(*uav), p, n, 17)
        want = oracle_outage(links, vec3(*uav), p, n, 17)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1, "B-1", "B+1", "2B+7"])
    @pytest.mark.parametrize("spacing", [0.5, 0.7])
    @pytest.mark.parametrize("los", sorted(LOS_REGIMES))
    def test_scan_matches_per_position_reference(self, los, spacing, n):
        # no two positions share x, y or altitude
        positions = [(70 + 9 * k, 60 + 5 * k, 40 + 12 * k) for k in range(7)]
        check_scan_against_oracle(positions, los, spacing, n)

    @pytest.mark.parametrize("n", [1, "B-1", "B+1", "2B+7"])
    @pytest.mark.parametrize("spacing", [0.5, 0.7])
    @pytest.mark.parametrize("los", sorted(LOS_REGIMES))
    @pytest.mark.parametrize("layout", sorted(SHARED_AXIS_LAYOUTS))
    def test_shared_axis_scan_matches_per_position_reference(self, layout, los, spacing, n):
        check_scan_against_oracle(SHARED_AXIS_LAYOUTS[layout], los, spacing, n)

    def test_altitude_groups_split_above_the_table_limit(self, monkeypatch):
        monkeypatch.setattr(channel, "_MAX_RATIO_TABLES", 5)
        uavs = np.array([(x, y, z) for z in (80, 60) for x in (10, 20, 30) for y in (1, 2)],
                        dtype=float)
        # at z = 80 (indices 0-5): x = 10, 20 and y = 1, 2 fill four tables,
        # x = 30 makes five; the z = 60 positions form the next group
        assert list(channel._altitude_groups(uavs)) == [[0, 1, 2, 3, 4, 5],
                                                        [6, 7, 8, 9, 10, 11]]
        monkeypatch.setattr(channel, "_MAX_RATIO_TABLES", 4)
        assert list(channel._altitude_groups(uavs)) == [[0, 1, 2, 3], [4, 5],
                                                        [6, 7, 8, 9], [10, 11]]
        p = make_params()
        links = station_positions((12, 30), (40, 44), (110, 95))
        for est, uav in zip(channel.outage_scan(links, uavs, p, 300, 5), uavs):
            assert np.array_equal(est, oracle_outage(links, uav, p, 300, 5))

    def test_progress_reports_each_position_as_its_group_completes(self):
        links = station_positions((12, 30), (110, 95))
        uavs = [vec3(70, 60, 50), vec3(80, 60, 90), vec3(70, 65, 50)]
        calls = []
        channel.outage_scan(links, uavs, make_params(), 50, 1,
                            progress=lambda k, n: calls.append((k, n)))
        assert calls == [(1, 3), (2, 3), (3, 3)]

    @pytest.mark.parametrize("links", BAD_STATION_ARRAYS.values(), ids=BAD_STATION_ARRAYS)
    def test_scan_rejects_a_bad_station_array(self, links):
        with pytest.raises(InvalidInputError, match="position"):
            channel.outage_scan(links, [vec3(75, 70, 85)], make_params(), 10, 0)

    @pytest.mark.parametrize("uav,error", BAD_UAVS.values(), ids=BAD_UAVS)
    def test_scan_rejects_one_bad_position_among_good_ones(self, uav, error):
        uavs = [vec3(75, 70, 85), uav, vec3(40, 70, 85)]
        with pytest.raises(error):
            channel.outage_scan(station_positions((40, 40), (110, 95)), uavs, make_params(), 10, 0)

    def test_pattern_is_float32_and_sinr_float64(self, monkeypatch):
        # every factor table, its angles and the gain table are float32 in
        # both entries, with no silent float64 promotion; the SINR and
        # interference stay float64
        seen = set()
        axis_ratio, gain_from_axis_ratios = antenna.axis_ratio, antenna.gain_from_axis_ratios

        def recording_ratio(cfg, theta):
            ratio = axis_ratio(cfg, theta)
            seen.add((theta.dtype, ratio.dtype))
            return ratio

        def recording_gain(g0, ratio_x, ratio_y):
            gain = gain_from_axis_ratios(g0, ratio_x, ratio_y)
            seen.add((ratio_x.dtype, ratio_y.dtype, gain.dtype))
            return gain

        monkeypatch.setattr(antenna, "axis_ratio", recording_ratio)
        monkeypatch.setattr(antenna, "gain_from_axis_ratios", recording_gain)
        p, links = make_params(), station_positions((40, 40), (110, 95), (75, 140))
        channel.outage_scan(links, [vec3(70, 60, 50), vec3(70, 80, 50), vec3(90, 60, 75)], p,
                            channel._DRAW_BLOCK + 7, 0)
        sinr, interference = channel.instantaneous_sinr(links, vec3(75, 70, 85), (0.01, -0.02), p)
        assert seen == {(np.dtype(np.float32),) * 2, (np.dtype(np.float32),) * 3}
        assert sinr.dtype == interference.dtype == np.float64

    def test_scan_stage_is_float32(self, monkeypatch):
        # every array into and out of the scan's SINR stage, its scalar noise
        # term included, is float32: no buffer of a block is promoted to
        # float64; instantaneous_sinr runs the same stage in float64 W
        seen = []
        link_powers = channel._link_powers

        def recording(*args):
            out = link_powers(*args)
            seen.append([np.result_type(a) for a in (*args[1:], *out)])
            return out

        monkeypatch.setattr(channel, "_link_powers", recording)
        p, links = make_params(), station_positions((40, 40), (110, 95), (75, 140))
        positions = [vec3(70, 60, 50), vec3(70, 80, 50), vec3(90, 60, 75)]
        channel.outage_scan(links, positions, p, channel._DRAW_BLOCK + 7, 0)
        assert len(seen) == 2 * len(positions)
        assert all(dtype == np.float32 for dtypes in seen for dtype in dtypes)
        seen.clear()
        channel.instantaneous_sinr(links, vec3(75, 70, 85), (0.01, -0.02), p)
        # the tables are float32; the powers, weights, noise and results float64
        assert seen == [[np.float32] * 2 + [np.float64] * 5]

    def test_scan_looks_up_each_g0_once(self, monkeypatch):
        # one lookup per array and params object, however many scans,
        # positions and blocks of draws
        calls = []
        lookup = antenna.normalization_constant
        monkeypatch.setattr(antenna, "normalization_constant",
                            lambda cfg: calls.append(cfg) or lookup(cfg))
        p = make_params()
        links = station_positions((40, 40), (110, 95), (75, 140))
        positions = [vec3(x, 70, z) for x in (40, 75, 110) for z in (60, 85)]
        for seed in (0, 1):
            channel.outage_scan(links, positions, p, 2 * channel._DRAW_BLOCK + 7, seed)
        channel.instantaneous_sinr(links, vec3(75, 70, 85), (0.01, -0.02), p)
        assert sorted(calls, key=lambda cfg: cfg.n_side) == sorted(
            [p.sbs_array, p.uav_array], key=lambda cfg: cfg.n_side)

    def test_checking_params_computes_no_g0(self, monkeypatch):
        # g0 stays lazy: building and replacing params looks up nothing
        calls = []
        monkeypatch.setattr(antenna, "normalization_constant", calls.append)
        p = RunConfig().channel_params()
        replace(p, uav_n_side=4)
        assert calls == []


# Geometries for the bias test. BIAS_LOS puts every LoS probability between
# 0.4 and 0.63, so neither LoS state is rare. Per-link outages lie between
# 0.19 and 0.65.
BIAS_LOS = {"los_b": 0.05}
BIAS_GEOMETRIES = {
    "four links": ([(12, 30), (40, 44), (75, 140), (110, 95)], (70, 70, 75)),
    "three links, close pair": ([(40, 40), (48, 44), (110, 100)], (70, 70, 75)),
    "two links, low UAV": ([(50, 60), (100, 60)], (75, 62, 50)),
}


@functools.cache
def plain_reference(geometry, spacing, n_samples=200_000):
    """(stations, uav, per-link outage) from plain Monte-Carlo draws at n_samples.

    Plain draws (Gaussian jitter, independent LoS uniforms) go through the
    library kernel, which the bit-for-bit tests above pin to the oracle.
    """
    stations, uav = BIAS_GEOMETRIES[geometry]
    links = station_positions(*stations)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(channel, "_draws", plain_draws)
        est = channel.outage_probability(
            links, vec3(*uav), make_params(spacing_over_lambda=spacing, **BIAS_LOS),
            n_samples, 99)
    return links, vec3(*uav), est


def box_muller_inverse(theta_x, theta_y, sigma):
    """The (u1, u2) in [0, 1)^2 that Box-Muller maps to (theta_x, theta_y)."""
    u1 = -np.expm1(-(theta_x ** 2 + theta_y ** 2) / (2 * sigma ** 2))
    return u1, np.arctan2(theta_y, theta_x) / (2 * np.pi) % 1.0


class TestVarianceReducedDraws:
    @pytest.mark.parametrize("spacing", [0.5, 0.7])
    @pytest.mark.parametrize("geometry", sorted(BIAS_GEOMETRIES))
    def test_mean_over_seeds_matches_plain_monte_carlo(self, geometry, spacing):
        links, uav, ref = plain_reference(geometry, spacing)
        p = make_params(spacing_over_lambda=spacing, **BIAS_LOS)
        est = np.array([channel.outage_probability(links, uav, p, 500, seed)
                        for seed in range(50)])
        se_mean = est.std(axis=0, ddof=1) / np.sqrt(len(est))
        se_ref = np.sqrt(ref * (1 - ref) / 200_000)
        assert np.all(np.abs(est.mean(axis=0) - ref) <= 4 * np.hypot(se_mean, se_ref))

    def test_worst_link_std_at_most_half_of_plain_monte_carlo(self):
        links = station_positions(*KERNEL_CASES["six links"][0])
        uav, p = vec3(*KERNEL_CASES["six links"][1]), make_params()
        new = [channel.max_outage(channel.outage_probability(links, uav, p, 500, seed))
               for seed in range(30)]
        plain = [sampled_outage(links, uav, p, 500, seed, draws=plain_draws).max()
                 for seed in range(30)]
        assert np.std(new, ddof=1) <= 0.5 * np.std(plain, ddof=1)

    @pytest.mark.parametrize("n", [500, 10_000])
    def test_worst_link_std_below_the_sampled_verdicts(self, n):
        # the same draws, each link's own LoS state summed out or drawn
        links = station_positions(*KERNEL_CASES["six links"][0])
        uav, p = vec3(*KERNEL_CASES["six links"][1]), make_params()
        conditional = [channel.max_outage(channel.outage_probability(links, uav, p, n, seed))
                       for seed in range(30)]
        sampled = [sampled_outage(links, uav, p, n, seed).max() for seed in range(30)]
        assert np.std(conditional, ddof=1) < np.std(sampled, ddof=1)

    @pytest.mark.parametrize("n", [1, 2, 500, 610, 2 * channel._DRAW_BLOCK + 7])
    def test_draws_are_a_shifted_lattice_and_a_latin_hypercube(self, n):
        p = make_params()
        theta_x, theta_y, uniforms = channel._draws(p, 3, n, 8)
        bins = np.arange(n + 1) / n
        for column in uniforms.T:
            # the k-th smallest value lies in [k/n, (k+1)/n)
            ordered = np.sort(column)
            assert np.all((bins[:-1] <= ordered) & (ordered < bins[1:]))
        if n >= 500:
            # and is uniform within its stratum
            within = uniforms * n % 1.0
            assert abs(within.mean() - 0.5) < 4 * np.sqrt(1 / 12 / within.size)
            assert abs(within.var() - 1 / 12) < 0.01
        # both uniforms of point s sit at frac(s*(1, a)/n + shift)
        u1, u2 = box_muller_inverse(theta_x, theta_y, p.vibration_std_rad)
        s = np.arange(n)
        for u, lattice in ((u1, s / n), (u2, s * oracle_lattice_generator(n) / n)):
            offset = (u - lattice) % 1.0
            assert np.all(np.abs((offset - offset[0] + 0.5) % 1.0 - 0.5) < 1e-9)
        assert np.all((0.0 <= u1) & (u1 < 1.0))

    def test_lattice_shift_is_uniform_and_independent_between_axes(self):
        # lattice point 0 is the shift itself
        p = make_params()
        shifts = np.array([
            box_muller_inverse(*channel._draws(p, 2, 7, seed)[:2], p.vibration_std_rad)
            for seed in range(200)])[:, :, 0]
        assert np.all(np.abs(shifts.mean(axis=0) - 0.5) < 4 * np.sqrt(1 / 12 / 200))
        assert abs(np.corrcoef(shifts.T)[0, 1]) < 4 / np.sqrt(200)

    def test_lattice_generator_is_the_nearest_coprime(self):
        for n in range(1, 400):
            assert channel._lattice_generator(n) == oracle_lattice_generator(n)
        fib = [1, 2]
        while fib[-1] < 200_000:
            fib.append(fib[-1] + fib[-2])
        # Fibonacci n gives the Fibonacci lattice
        for prev, n in zip(fib, fib[1:]):
            assert channel._lattice_generator(n) == prev


class TestFloat32Verdicts:
    def test_verdicts_match_float64_at_100k_draws(self, monkeypatch):
        # six-station default scenarios: the start point and one random
        # position each; at most 1e-4 of a link's 100k LoS verdicts, and of
        # its 100k NLoS verdicts, may differ from the float64 reference's on
        # the same draws
        cfg = RunConfig(m_s_min=6, m_s_max=6)
        env = Environment(cfg.env_config(), cfg.channel_params())
        p, lim, n = env.params, env.config.limits, 100_000
        powers = []
        link_powers = channel._link_powers

        def recording(*args):
            desired, bound = link_powers(*args)
            powers.append((desired, bound))
            return desired, bound

        monkeypatch.setattr(channel, "_link_powers", recording)
        for scenario in range(3):
            env.reset(scenario)
            links = env.topology.sbs_list
            rng = np.random.default_rng(scenario)
            positions = [env.state.uav_position] + [
                vec3(rng.uniform(0, env.config.area_x), rng.uniform(0, env.config.area_y),
                     rng.uniform(lim.h_min, lim.h_max))]
            for k, uav in enumerate(positions):
                seed = 10 * scenario + k
                powers.clear()
                est = channel.outage_probability(links, uav, p, n, seed)
                # float32, link-major, in the position's unit with thr folded in
                desired, bound = (np.concatenate(a, axis=1).T for a in zip(*powers))
                assert desired.dtype == bound.dtype == np.float32
                got = (desired < bound, p.nlos_extra_loss * desired < bound)
                ref = oracle_precompute(links, uav, p)
                los, nlos = (np.count_nonzero(v, axis=0) for v in got)
                assert np.array_equal(est, (ref[3] * los + (1.0 - ref[3]) * nlos) / n)
                theta_jx, theta_jy, uniforms = channel._draws(p, len(links), n, seed)
                alpha = np.where(uniforms < ref[3], 1.0, p.nlos_extra_loss)
                want = [oracle_verdicts(ref, p, theta_jx[lo:lo + 10_000],
                                        theta_jy[lo:lo + 10_000], alpha[lo:lo + 10_000])
                        for lo in range(0, n, 10_000)]
                for verdicts, reference in zip(got, map(np.concatenate, zip(*want))):
                    assert np.all(np.count_nonzero(verdicts != reference, axis=0) <= 1e-4 * n)


def scan_peak_bytes(links, positions, p, n):
    """Peak traced memory of one scan, its estimates included."""
    tracemalloc.start()
    try:
        for _ in channel.outage_scan(links, positions, p, n, 4):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestScanMemory:
    LINKS = station_positions((12, 30), (40, 44), (75, 140), (110, 95), (140, 10), (48, 44))

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

    def test_distinct_altitudes_set_up_one_group_at_a_time(self):
        # 1,000 positions at 1,000 altitudes are 1,000 altitude groups. Each
        # group's set-up is freed before the next group's, so above a
        # one-position scan the peak holds only what every position keeps
        # through the scan: its (N, M) float64 rows (p_los and the two
        # failure counts, and the three temporaries that combine them into
        # the estimates) and its altitude's entry in _altitude_groups (a
        # key, a list and a dict slot, about 170 bytes). A set-up of every
        # position at once would add its (N, M) powers and (N, 1 + M(M-1)/2)
        # offsets, 380 bytes a position for six links.
        p = make_params()
        n_pos, m = 1000, len(self.LINKS)
        positions = np.array([(20 + 0.1 * k, 30 + 0.1 * k, 50 + 0.05 * k) for k in range(n_pos)])
        one = scan_peak_bytes(self.LINKS, positions[:1], p, 64)
        many = scan_peak_bytes(self.LINKS, positions, p, 64)
        assert many - one <= n_pos * (6 * 8 * m + 256) + 64 * 1024

    def test_lattice_peak_within_its_ratio_tables(self):
        # an nx x ny lattice at one altitude keeps one float32 x-factor table
        # per x and one y-factor table per y on top of a one-point scan
        p = make_params()
        block, m = channel._DRAW_BLOCK, len(self.LINKS)
        nx, ny = 5, 4
        lattice = [vec3(20 + 25 * i, 30 + 30 * j, 75) for i in range(nx) for j in range(ny)]
        tables = (nx + ny) * block * (1 + m * (m - 1) // 2) * np.dtype(np.float32).itemsize
        peaks = {}
        for n in (2 * block, 6 * block):
            one = scan_peak_bytes(self.LINKS, lattice[:1], p, n)
            peaks[n] = scan_peak_bytes(self.LINKS, lattice, p, n)
            assert peaks[n] - one <= tables + 64 * 1024
        draws = 4 * block * 8 * (2 + m)
        assert peaks[6 * block] - peaks[2 * block] <= draws + 64 * 1024


class TestMaxOutage:
    def test_picks_maximum(self):
        assert channel.max_outage(np.array([0.1, 0.5, 0.2])) == 0.5

    def test_single_link(self):
        assert channel.max_outage(np.array([0.3])) == 0.3

    def test_all_equal(self):
        assert channel.max_outage(np.array([0.25, 0.25])) == 0.25
