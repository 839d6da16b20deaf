"""Square uniform array radiation pattern: array factor, normalization, gain lookup.

The pattern of an N x N uniform square array is the squared product of two
uniform-line-source factors, one per array axis. A normalization constant
scales the pattern so the total power radiated over the sphere is 4*pi
regardless of element count; it is computed once per configuration and cached.

The sphere integral is a composite trapezoid in (theta, phi) plus the
Euler-Maclaurin endpoint term (h^2/12) * 2*pi * (AF(0, 0) + AF(pi, 0)),
h = pi / n_theta, which makes it O(h^4): phi is periodic, so the trapezoid is
already spectrally accurate there, and the pattern's only leading theta error
comes from the poles. Rungs start at 256 x 512 and double until two
consecutive ones agree to 1e-4 relative; the finer rung is kept. Against the
exact lattice-sum directivity this delivers 2e-12 relative error for N = 1 and
2.4e-6 for N = 20 at d = lambda/2.

The pattern is evaluated by in-place ufunc chains over caller-supplied
buffers (PatternScratch), in exactly the operation order of the np.sinc
expression sinc(n*psi/2pi) / sinc(psi/2pi), so the bits are those of that
expression while a caller evaluating many blocks allocates nothing per block.
The per-axis ratio is only ever squared, so its sign across periods of psi
is not computed.
"""

import math
from dataclasses import dataclass

import numpy as np

from uavthz.errors import NumericFailureError, require

TWO_PI = 2.0 * np.pi
# What np.sinc puts in place of a zero argument before dividing.
_EPS = np.finfo(float).eps

# Quadrature ladder for the normalization integral: base grid, doubled until
# consecutive rungs agree to _QUAD_RTOL relative.
_QUAD_BASE = (256, 512)
_QUAD_RTOL = 1e-4
_QUAD_MAX_DOUBLINGS = 3
_QUAD_CHUNK_ROWS = 256


@dataclass(frozen=True)
class ArrayAntennaConfig:
    """Square array description: N elements per side, spacing as a fraction of wavelength.

    The pattern depends on k*d_a = 2*pi*spacing_over_lambda, never on the
    carrier itself, so the carrier is not part of the description.
    """

    n_side: int
    spacing_over_lambda: float

    def __post_init__(self):
        require(self.n_side >= 1, f"n_side must be >= 1, got {self.n_side}", "n_side")
        require(self.spacing_over_lambda > 0, "spacing_over_lambda must be positive",
                "spacing_over_lambda")


class PatternScratch:
    """Reusable buffers for the in-place pattern chain of up to `size` directions.

    Holds three float arrays and one boolean mask. views(shape) hands out
    contiguous leading slices of each, shaped as requested, so one instance
    serves every block of a scan, the last short block included.
    """

    def __init__(self, size: int):
        self._floats = np.empty((3, size))
        self._mask = np.empty(size, dtype=bool)

    def views(self, shape):
        n = math.prod(shape)
        return ([f[:n].reshape(shape) for f in self._floats],
                self._mask[:n].reshape(shape))


def _sinc_of_scaled(y, out, mask):
    """out = sin(y) / y with every zero of y replaced by eps; y is overwritten.

    This is np.sinc after its `pi * x` step: where(x, x, eps), then
    sin(y) / y, so the bits match np.sinc(x) for y = pi * x.
    """
    np.equal(y, 0.0, out=mask)
    np.copyto(y, _EPS, where=mask)
    np.sin(y, out=out)
    np.divide(out, y, out=out)


def _axis_ratio(n: int, psi, periodic: bool, out, tmp, mask):
    """out = sin(n*psi/2) / (n*sin(psi/2)) up to sign, every removable singularity filled.

    With periodic set, reduces psi modulo 2*pi and evaluates the reduced
    argument r as a quotient of normalized sincs, which is exact away from the
    singular points and smooth through them (the reduced denominator sinc is
    bounded below by 2/pi). Across period m the ratio also changes sign by
    (-1)^(m*(n-1)); the power pattern only uses its square, so that sign is
    left out. Without periodic set, psi must lie in [-pi, pi], where m is
    always 0, so skipping the reduction gives the same bits.

    Runs in place: psi is overwritten, tmp and mask are scratch of psi's
    shape. The operation order is that of
    np.sinc(n * r / TWO_PI) / np.sinc(r / TWO_PI), so the result is
    bit-identical to that allocating expression.
    """
    if periodic:
        np.divide(psi, TWO_PI, out=out)
        np.rint(out, out=out)                   # m, the period index
        np.multiply(out, TWO_PI, out=out)
        np.subtract(psi, out, out=psi)          # r = psi - 2*pi*m
    np.multiply(psi, n, out=out)
    np.divide(out, TWO_PI, out=out)
    np.multiply(out, np.pi, out=out)
    _sinc_of_scaled(out, tmp, mask)             # numerator sinc in tmp
    np.divide(psi, TWO_PI, out=psi)
    np.multiply(psi, np.pi, out=psi)
    _sinc_of_scaled(psi, out, mask)             # denominator sinc in out
    np.divide(tmp, out, out=out)


def _factor_from_psi(cfg: ArrayAntennaConfig, psi_x, psi_y, out, tmp, mask):
    """out = (rx * ry)^2 from the per-axis phases; psi_x and psi_y are overwritten.

    tmp and mask are scratch of out's shape.
    """
    # |psi| <= k*d_a on every caller, so the period reduction is only needed
    # for spacings above lambda/2 (k*d_a > pi).
    periodic = TWO_PI * cfg.spacing_over_lambda > np.pi
    _axis_ratio(cfg.n_side, psi_x, periodic, out, tmp, mask)
    _axis_ratio(cfg.n_side, psi_y, periodic, psi_x, tmp, mask)
    np.multiply(out, psi_x, out=out)
    np.square(out, out=out)


def array_factor(cfg: ArrayAntennaConfig, theta, phi):
    """Normalized power pattern in [0, 1] at spherical direction (theta, phi).

    theta is measured from boresight; the value 1 is reached at boresight.
    Accepts scalars or broadcastable arrays.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    shape = np.broadcast_shapes(theta.shape, phi.shape)
    (psi_x, psi_y, tmp), mask = PatternScratch(math.prod(shape)).views(shape)
    kd_st = TWO_PI * cfg.spacing_over_lambda * np.sin(theta)
    np.multiply(kd_st, np.cos(phi), out=psi_x)
    np.multiply(kd_st, np.sin(phi), out=psi_y)
    out = np.empty(shape)
    _factor_from_psi(cfg, psi_x, psi_y, out, tmp, mask)
    return float(out) if out.ndim == 0 else out


def gain_at_axis_offsets(cfg: ArrayAntennaConfig, theta_x, theta_y, out=None, scratch=None):
    """Gain at per-axis angular offsets from boresight.

    The pattern depends on direction only through the offset sines
    sin(theta)*cos(phi) = sin(theta_x) and sin(theta)*sin(phi) = sin(theta_y),
    so this is total in (theta_x, theta_y).

    out (an array of the broadcast shape) and scratch (a PatternScratch of at
    least that size) are filled in place when given; a caller that evaluates
    many blocks passes the same ones each time, so no block allocates.
    """
    theta_x = np.asarray(theta_x, dtype=float)
    theta_y = np.asarray(theta_y, dtype=float)
    shape = np.broadcast_shapes(theta_x.shape, theta_y.shape)
    if scratch is None:
        scratch = PatternScratch(math.prod(shape))
    if out is None:
        out = np.empty(shape)
    (psi_x, psi_y, tmp), mask = scratch.views(shape)
    kd = TWO_PI * cfg.spacing_over_lambda
    np.sin(theta_x, out=psi_x)
    np.multiply(psi_x, kd, out=psi_x)
    np.sin(theta_y, out=psi_y)
    np.multiply(psi_y, kd, out=psi_y)
    _factor_from_psi(cfg, psi_x, psi_y, out, tmp, mask)
    np.multiply(out, normalization_constant(cfg), out=out)
    return float(out) if out.ndim == 0 else out


def _sphere_integral(cfg: ArrayAntennaConfig, n_theta: int, n_phi: int) -> float:
    """Endpoint-corrected trapezoid of array_factor * sin(theta) over the sphere.

    n_theta x n_phi is the full-sphere grid; n_theta must be even and n_phi a
    multiple of 8. The pattern depends on sin(theta) only and is invariant
    under phi -> -phi, pi - phi and pi/2 - phi, so the trapezoid is summed
    over theta in [0, pi/2] and phi in [0, pi/4] and scaled by 16, which in
    exact arithmetic equals the sum over the full periodic grid.
    """
    h = np.pi / n_theta
    theta = np.linspace(0.0, 0.5 * np.pi, n_theta // 2 + 1)
    phi = np.linspace(0.0, 0.25 * np.pi, n_phi // 8 + 1)
    w_theta = np.full(theta.size, h)
    w_theta[[0, -1]] *= 0.5
    w_phi = np.full(phi.size, TWO_PI / n_phi)
    w_phi[[0, -1]] *= 0.5
    total = 0.0
    for lo in range(0, theta.size, _QUAD_CHUNK_ROWS):
        rows = theta[lo:lo + _QUAD_CHUNK_ROWS, None]
        block = array_factor(cfg, rows, phi[None, :]) * np.sin(rows)
        total += float(w_theta[lo:lo + _QUAD_CHUNK_ROWS] @ block @ w_phi)
    poles = array_factor(cfg, 0.0, 0.0) + array_factor(cfg, np.pi, 0.0)
    return 16.0 * total + h * h / 12.0 * TWO_PI * poles


_G0_CACHE: dict[ArrayAntennaConfig, float] = {}


def normalization_constant(cfg: ArrayAntennaConfig) -> float:
    """Power-normalization constant: 4*pi over the sphere integral of the pattern.

    Each rung is the endpoint-corrected trapezoid of _sphere_integral, which
    is O(h^4). The ladder starts at 256 x 512 and doubles the grid until two
    consecutive rungs agree to 1e-4 relative, then keeps the finer rung, whose
    error is then about 1/15 of that difference (2.4e-6 relative for N = 20
    at d = lambda/2). If that never happens within _QUAD_MAX_DOUBLINGS
    doublings, NumericFailureError is raised. The result is cached per pattern
    configuration; a rare duplicate computation by a concurrent caller is
    harmless because the computation is deterministic.
    """
    cached = _G0_CACHE.get(cfg)
    if cached is not None:
        return cached
    n_theta, n_phi = _QUAD_BASE
    prev = _sphere_integral(cfg, n_theta, n_phi)
    for _ in range(_QUAD_MAX_DOUBLINGS):
        n_theta, n_phi = 2 * n_theta, 2 * n_phi
        cur = _sphere_integral(cfg, n_theta, n_phi)
        if abs(cur - prev) <= _QUAD_RTOL * abs(cur):
            g0 = 4.0 * np.pi / cur
            _G0_CACHE[cfg] = g0
            return g0
        prev = cur
    raise NumericFailureError(
        f"pattern quadrature did not converge for n_side={cfg.n_side}")
