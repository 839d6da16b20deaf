import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavthz import antenna
from uavthz.antenna import ArrayAntennaConfig
from uavthz.errors import InvalidInputError

TESTED_N = (1, 2, 4, 8, 20)
SPACINGS = (0.25, 0.5, 0.7, 1.0, 1.3)


def cfg(n, spacing_over_lambda=0.5):
    return ArrayAntennaConfig(n, spacing_over_lambda)


class OutOfHemisphereError(InvalidInputError):
    """A two-axis angle pair has no matching (theta, phi) direction in the forward hemisphere."""


def two_axis_gain_args(theta_x: float, theta_y: float) -> tuple[float, float]:
    """Oracle: convert per-axis offset angles to the (theta, phi) parameterization.

    Solves sin(theta)*cos(phi) = sin(theta_x) and
    sin(theta)*sin(phi) = sin(theta_y); phi is returned in [0, 2*pi) and is
    canonically 0 at boresight.
    """
    sx, sy = np.sin(theta_x), np.sin(theta_y)
    s2 = sx * sx + sy * sy
    if s2 > 1.0 + 1e-12:
        raise OutOfHemisphereError(
            f"axis angles ({theta_x}, {theta_y}) have no forward-hemisphere direction")
    if s2 == 0.0:
        return 0.0, 0.0
    theta = float(np.arcsin(np.sqrt(min(s2, 1.0))))
    phi = float(np.arctan2(sy, sx)) % (2 * np.pi)
    return theta, phi


def axis_power(psi, n):
    """Oracle: one axis's power factor |sum_k exp(i*k*psi)|^2 / n^2, a plain phasor sum."""
    k = np.arange(n).reshape(-1, *([1] * np.ndim(psi)))
    return np.abs(np.exp(1j * k * psi).sum(axis=0)) ** 2 / n ** 2


def gain(c, theta, phi):
    """Oracle: gain at spherical direction (theta, phi), g0 times the phasor-sum pattern."""
    kd_st = 2 * np.pi * c.spacing_over_lambda * np.sin(theta)
    out = (antenna.normalization_constant(c) * axis_power(kd_st * np.cos(phi), c.n_side)
           * axis_power(kd_st * np.sin(phi), c.n_side))
    return float(out) if np.ndim(out) == 0 else out


def offset_gain(c, theta_x, theta_y):
    """Gain at per-axis offsets from boresight, by the two steps the outage kernel runs.

    The pattern depends on direction only through the offset sines
    sin(theta)*cos(phi) = sin(theta_x) and sin(theta)*sin(phi) = sin(theta_y).
    """
    theta_x, theta_y = np.asarray(theta_x, dtype=float), np.asarray(theta_y, dtype=float)
    shape = np.broadcast_shapes(theta_x.shape, theta_y.shape)
    scratch = antenna.PatternScratch(math.prod(shape))
    ratio_x = antenna.axis_ratio(c, theta_x, np.empty(shape), scratch)
    ratio_y = antenna.axis_ratio(c, theta_y, np.empty(shape), scratch)
    out = antenna.gain_from_axis_ratios(antenna.normalization_constant(c), ratio_x, ratio_y,
                                        ratio_x)
    return float(out) if out.ndim == 0 else out


def corrected_g0_reference(n, spacing_over_lambda, n_theta=512, n_phi=1024):
    """Independent g0: full-grid endpoint-corrected trapezoid of the phasor-sum pattern.

    The pattern is axis_power per axis, with no fold and no sinc quotient, so
    it shares no code or symmetry argument with the library.
    """
    theta = np.linspace(0.0, np.pi, n_theta + 1)
    phi = np.linspace(0.0, 2 * np.pi, n_phi + 1)
    st = np.sin(theta)[:, None]
    kd_st = 2 * np.pi * spacing_over_lambda * st
    pattern = axis_power(kd_st * np.cos(phi), n) * axis_power(kd_st * np.sin(phi), n)
    h_theta, h_phi = np.pi / n_theta, 2 * np.pi / n_phi
    inner = h_phi * (pattern.sum(axis=1) - 0.5 * (pattern[:, 0] + pattern[:, -1]))
    f = inner * st[:, 0]
    trapezoid = h_theta * (f.sum() - 0.5 * (f[0] + f[-1]))
    integral = trapezoid + h_theta ** 2 / 12 * 2 * np.pi * (pattern[0, 0] + pattern[-1, 0])
    return 4 * np.pi / integral


def element_pair_g0(n, spacing_over_lambda):
    """Independent g0: n^4 over the sum of sinc(2*(d/lambda)*|r_m - r_m'|/d) over element pairs.

    Pair (m, m') contributes the sphere integral of exp(i*k*(r_m - r_m').u)
    over 4*pi; all n^2 x n^2 ordered pairs are summed directly, with no lag
    multiplicities and no symmetry fold.
    """
    i, j = np.divmod(np.arange(n * n), n)
    dist = np.hypot(i[:, None] - i[None, :], j[:, None] - j[None, :])
    return n ** 4 / np.sinc(2 * spacing_over_lambda * dist).sum()


def random_offsets(seed, size):
    rng = np.random.default_rng(seed)
    return rng.uniform(-np.pi / 2, np.pi / 2, size), rng.uniform(-np.pi / 2, np.pi / 2, size)


class TestGain:
    @pytest.mark.parametrize("n", TESTED_N)
    def test_boresight_equals_normalization_constant(self, n):
        c = cfg(n)
        assert offset_gain(c, 0.0, 0.0) == pytest.approx(
            antenna.normalization_constant(c), rel=1e-12)

    def test_single_element_everywhere(self):
        assert np.allclose(offset_gain(cfg(1), *random_offsets(0, 50)), 1.0)

    def test_first_null_of_20_element_cut(self):
        # numerator sin(N*pi*sin(theta_x)/2) vanishes at sin(theta_x) = 2/N
        theta = np.arcsin(2.0 / 20.0)
        assert offset_gain(cfg(20), theta, 0.0) == pytest.approx(0.0, abs=1e-9)

    def test_null_suppression_at_n20(self):
        c = cfg(20)
        peak = offset_gain(c, 0.0, 0.0)
        null = offset_gain(c, np.arcsin(0.1), 0.0)
        assert peak / max(null, 1e-300) >= 1e6

    @pytest.mark.parametrize("n", TESTED_N)
    def test_range(self, n):
        # no direction beats boresight, whose gain is g0
        c = cfg(n)
        vals = offset_gain(c, *random_offsets(1, 10_000))
        assert np.all(vals >= 0.0)
        assert np.all(vals <= antenna.normalization_constant(c) * (1.0 + 1e-12))

    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_continuity_at_singular_angles(self, n):
        # the boresight singularity of the axis ratio is removable
        c = cfg(n)
        limit = offset_gain(c, 0.0, 0.0)
        for eps in (1e-9, -1e-9):
            assert abs(offset_gain(c, eps, 0.0) - limit) < 1e-6 * limit
            assert abs(offset_gain(c, 0.0, eps) - limit) < 1e-6 * limit

    @pytest.mark.parametrize("spacing", SPACINGS)
    def test_axis_swap_symmetry(self, spacing):
        c = cfg(8, spacing)
        tx, ty = random_offsets(2, 100)
        assert np.allclose(offset_gain(c, tx, ty),
                           offset_gain(c, ty, tx), rtol=1e-12, atol=0.0)

    def test_grating_lobe_limit_filled(self):
        # spacing > lambda/2 pushes an axis argument through 2*pi; the filled
        # limit keeps the gain finite and <= g0, with a full lobe at endfire
        wide = cfg(4, spacing_over_lambda=1.0)
        g0 = antenna.normalization_constant(wide)
        vals = offset_gain(wide, np.linspace(-np.pi / 2, np.pi / 2, 2001), 0.0)
        assert np.all(np.isfinite(vals)) and np.all(vals <= g0 * (1.0 + 1e-12))
        assert offset_gain(wide, np.pi / 2, 0.0) == pytest.approx(g0, rel=1e-9)

    def test_invalid_config(self):
        with pytest.raises(InvalidInputError):
            ArrayAntennaConfig(0, 0.5)
        with pytest.raises(InvalidInputError):
            ArrayAntennaConfig(antenna.MAX_N_SIDE + 1, 0.5)
        with pytest.raises(InvalidInputError):
            ArrayAntennaConfig(4, spacing_over_lambda=0.0)


class TestTwoAxisAdapter:
    def test_boresight_canonical(self):
        assert two_axis_gain_args(0.0, 0.0) == (0.0, 0.0)

    def test_single_axis_offset(self):
        th, ph = two_axis_gain_args(np.pi / 6, 0.0)
        assert th == pytest.approx(np.pi / 6)
        assert ph == pytest.approx(0.0)

    def test_diagonal_offset(self):
        th, ph = two_axis_gain_args(np.pi / 6, np.pi / 6)
        assert th == pytest.approx(np.arcsin(np.sqrt(0.5)))
        assert ph == pytest.approx(np.pi / 4)

    def test_out_of_hemisphere(self):
        with pytest.raises(OutOfHemisphereError):
            two_axis_gain_args(1.2, 1.2)

    # |tx|, |ty| <= pi/4 keeps sin^2+sin^2 <= 1 (inside the adapter's domain)
    @given(st.floats(-np.pi / 4, np.pi / 4), st.floats(-np.pi / 4, np.pi / 4))
    @settings(max_examples=60)
    def test_defining_equations(self, tx, ty):
        th, ph = two_axis_gain_args(tx, ty)
        assert np.sin(th) * np.cos(ph) == pytest.approx(np.sin(tx), abs=1e-12)
        assert np.sin(th) * np.sin(ph) == pytest.approx(np.sin(ty), abs=1e-12)

    @given(st.floats(-np.pi / 4, np.pi / 4), st.floats(-np.pi / 4, np.pi / 4))
    @settings(max_examples=40)
    def test_offset_gain_matches_adapter(self, tx, ty):
        c = cfg(8)
        via_adapter = gain(c, *two_axis_gain_args(tx, ty))
        direct = offset_gain(c, tx, ty)
        assert direct == pytest.approx(via_adapter, rel=1e-10, abs=1e-12)


class TestNormalization:
    def test_single_element_unity(self):
        assert antenna.normalization_constant(cfg(1)) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("spacing", SPACINGS)
    def test_n2_matches_independent_oracle(self, spacing):
        reference = corrected_g0_reference(2, spacing)
        assert reference == pytest.approx(element_pair_g0(2, spacing), rel=1e-8)
        assert antenna.normalization_constant(cfg(2, spacing)) == pytest.approx(reference,
                                                                                rel=1e-5)

    @pytest.mark.parametrize("spacing", SPACINGS)
    @pytest.mark.parametrize("n", (1, 2, 3, 5, 8))
    def test_matches_element_pair_sum(self, n, spacing):
        assert antenna.normalization_constant(cfg(n, spacing)) == pytest.approx(
            element_pair_g0(n, spacing), rel=1e-12)

    def test_monotone_in_element_count(self):
        g0 = [antenna.normalization_constant(cfg(n)) for n in TESTED_N]
        assert all(a < b for a, b in zip(g0, g0[1:]))

    def test_cache_hits_are_stable(self):
        first = antenna.normalization_constant(cfg(4))
        second = antenna.normalization_constant(cfg(4))
        assert first == second
