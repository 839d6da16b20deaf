import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavthz import antenna
from uavthz.antenna import ArrayAntennaConfig
from uavthz.errors import InvalidInputError, NumericFailureError

TESTED_N = (1, 2, 4, 8, 20)


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


def gain(c, theta, phi):
    """Oracle: array gain at (theta, phi), the normalization constant times the array factor."""
    out = antenna.normalization_constant(c) * antenna.array_factor(c, theta, phi)
    return float(out) if np.ndim(out) == 0 else out


def corrected_g0_reference(n, n_theta=512, n_phi=1024):
    """Independent g0: full-grid endpoint-corrected trapezoid of the phasor-sum pattern.

    The pattern is |sum_k exp(i*k*psi)|^2 / n^2 per axis, with no fold and no
    sinc quotient, so it shares no code or symmetry argument with the library.
    """
    theta = np.linspace(0.0, np.pi, n_theta + 1)
    phi = np.linspace(0.0, 2 * np.pi, n_phi + 1)
    k = np.arange(n)[:, None, None]

    def axis_power(psi):
        return np.abs(np.exp(1j * k * psi).sum(axis=0)) ** 2 / n ** 2

    st = np.sin(theta)[:, None]
    pattern = axis_power(np.pi * st * np.cos(phi)) * axis_power(np.pi * st * np.sin(phi))
    h_theta, h_phi = np.pi / n_theta, 2 * np.pi / n_phi
    inner = h_phi * (pattern.sum(axis=1) - 0.5 * (pattern[:, 0] + pattern[:, -1]))
    f = inner * st[:, 0]
    trapezoid = h_theta * (f.sum() - 0.5 * (f[0] + f[-1]))
    integral = trapezoid + h_theta ** 2 / 12 * 2 * np.pi * (pattern[0, 0] + pattern[-1, 0])
    return 4 * np.pi / integral


def exact_g0(n):
    """Closed-form g0 at d = lambda/2: the sphere integral of exp(i*k.u) is 4*pi*sinc(|k|)."""
    p = np.arange(1 - n, n)
    w = (n - np.abs(p)).astype(float)
    r = np.hypot(p[:, None], p[None, :])        # |k| / pi for lag (p, q)
    return n ** 4 / (np.outer(w, w) * np.sinc(r)).sum()


class TestArrayFactor:
    @pytest.mark.parametrize("n", TESTED_N)
    def test_boresight_is_one(self, n):
        assert antenna.array_factor(cfg(n), 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_single_element_isotropic(self):
        rng = np.random.default_rng(0)
        th = rng.uniform(0, np.pi, 50)
        ph = rng.uniform(0, 2 * np.pi, 50)
        assert np.allclose(antenna.array_factor(cfg(1), th, ph), 1.0)

    def test_first_null_of_20_element_cut(self):
        # numerator sin(N*pi*sin(theta)/2) vanishes at sin(theta) = 2/N
        theta = np.arcsin(2.0 / 20.0)
        assert antenna.array_factor(cfg(20), theta, 0.0) == pytest.approx(0.0, abs=1e-9)

    def test_range(self):
        rng = np.random.default_rng(1)
        for n in TESTED_N:
            vals = antenna.array_factor(cfg(n), rng.uniform(0, np.pi, 200),
                                        rng.uniform(0, 2 * np.pi, 200))
            assert np.all(vals >= 0.0) and np.all(vals <= 1.0 + 1e-12)

    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_continuity_at_singular_angles(self, n):
        # the boresight singularity of the axis ratio is removable
        limit = antenna.array_factor(cfg(n), 0.0, 0.0)
        for eps in (1e-9, -1e-9):
            assert abs(antenna.array_factor(cfg(n), eps, 0.0) - limit) < 1e-6

    def test_quarter_turn_symmetry(self):
        rng = np.random.default_rng(2)
        th = rng.uniform(0, np.pi, 100)
        ph = rng.uniform(0, 2 * np.pi, 100)
        a = antenna.array_factor(cfg(8), th, ph)
        b = antenna.array_factor(cfg(8), th, ph + np.pi / 2)
        assert np.allclose(a, b, atol=1e-10)

    def test_grating_lobe_limit_filled(self):
        # spacing > lambda/2 pushes an axis argument through 2*pi; the filled
        # limit keeps the factor finite and <= 1
        wide = cfg(4, spacing_over_lambda=1.0)
        vals = antenna.array_factor(wide, np.linspace(0, np.pi, 2001), 0.0)
        assert np.all(np.isfinite(vals)) and np.all(vals <= 1.0 + 1e-12)
        assert antenna.array_factor(wide, np.pi / 2, 0.0) == pytest.approx(1.0, abs=1e-9)


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
    @settings(max_examples=40, deadline=None)  # first call pays the cached quadrature
    def test_offset_gain_matches_adapter(self, tx, ty):
        c = cfg(8)
        via_adapter = gain(c, *two_axis_gain_args(tx, ty))
        direct = antenna.gain_at_axis_offsets(c, tx, ty)
        assert direct == pytest.approx(via_adapter, rel=1e-10, abs=1e-12)


class TestNormalization:
    def test_single_element_unity(self):
        assert antenna.normalization_constant(cfg(1)) == pytest.approx(1.0, abs=1e-10)

    def test_n2_matches_independent_oracle(self):
        reference = corrected_g0_reference(2)
        assert reference == pytest.approx(exact_g0(2), rel=1e-8)
        assert antenna.normalization_constant(cfg(2)) == pytest.approx(reference, rel=1e-5)

    @pytest.mark.parametrize("n", TESTED_N)
    def test_matches_closed_form(self, n):
        assert antenna.normalization_constant(cfg(n)) == pytest.approx(exact_g0(n), rel=1e-5)

    @pytest.mark.parametrize("n", TESTED_N)
    def test_sphere_power_identity(self, n):
        # G0 times the pattern integral must reproduce 4*pi
        c = cfg(n)
        integral = antenna._sphere_integral(c, 1024, 2048)
        assert antenna.normalization_constant(c) * integral == pytest.approx(
            4 * np.pi, rel=1e-5)

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(antenna, "_G0_CACHE", {})
        monkeypatch.setattr(antenna, "_QUAD_MAX_DOUBLINGS", 0)
        with pytest.raises(NumericFailureError):
            antenna.normalization_constant(cfg(64))

    def test_monotone_in_element_count(self):
        g0 = [antenna.normalization_constant(cfg(n)) for n in TESTED_N]
        assert all(a < b for a, b in zip(g0, g0[1:]))

    def test_cache_hits_are_stable(self):
        first = antenna.normalization_constant(cfg(4))
        second = antenna.normalization_constant(cfg(4))
        assert first == second


class TestGain:
    @pytest.mark.parametrize("n", TESTED_N)
    def test_boresight_equals_normalization_constant(self, n):
        c = cfg(n)
        assert gain(c, 0.0, 0.0) == pytest.approx(
            antenna.normalization_constant(c), rel=1e-12)

    def test_single_element_everywhere(self):
        rng = np.random.default_rng(3)
        vals = gain(cfg(1), rng.uniform(0, np.pi, 20), rng.uniform(0, 2 * np.pi, 20))
        assert np.allclose(vals, 1.0, rtol=1e-4)

    def test_null_suppression_at_n20(self):
        c = cfg(20)
        peak = gain(c, 0.0, 0.0)
        null = gain(c, np.arcsin(0.1), 0.0)
        assert peak / max(null, 1e-300) >= 1e6

    @pytest.mark.parametrize("n", TESTED_N)
    def test_boresight_dominates_random_directions(self, n):
        rng = np.random.default_rng(4)
        c = cfg(n)
        th = rng.uniform(0.0, np.pi, 10_000)
        ph = rng.uniform(0.0, 2 * np.pi, 10_000)
        assert gain(c, 0.0, 0.0) >= np.max(gain(c, th, ph)) - 1e-9

    def test_invalid_config(self):
        with pytest.raises(InvalidInputError):
            ArrayAntennaConfig(0, 0.5)
        with pytest.raises(InvalidInputError):
            ArrayAntennaConfig(4, spacing_over_lambda=0.0)
