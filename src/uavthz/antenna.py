"""Square uniform array radiation pattern: normalization and gain lookup.

The pattern of an N x N uniform square array is the squared product of two
uniform-line-source factors, one per array axis. A normalization constant g0
scales the pattern so the total power radiated over the sphere is 4*pi
regardless of element count. It has a closed form: the pattern is
|sum_m exp(i*k*r_m.u)|^2 / N^4 over the element positions r_m = d*(i, j), and
the sphere integral of exp(i*K.u) is 4*pi*sin|K|/|K|, so with the element lag
(p, q) = (i - i', j - j'), which occurs (N-|p|)(N-|q|) times,
g0 = N^4 / sum_{|p|,|q|<N} (N-|p|)(N-|q|) * sinc(2*(d/lambda)*sqrt(p^2+q^2))
in np.sinc's normalized convention. It is exact at every spacing.

The pattern is evaluated in two steps: axis_ratio computes one axis's
factor by an in-place float32 ufunc chain over caller-supplied buffers
(PatternScratch), in the operation order of the np.sinc expression
sinc(n*psi/2pi) / sinc(psi/2pi), and gain_from_axis_ratios forms
g0 * (ratio_x * ratio_y)^2 from a g0 that the caller looked up once. A
caller evaluating many blocks allocates nothing per block, and a caller whose
directions share one axis's offsets computes that factor once.
The factor is only ever squared, so its sign across periods of psi is not
computed.

Precision: the pattern runs in float32, whose sin is many times faster than
float64's, and the outage kernel's time is mostly this pattern. Rounding
psi = k*d*sin(theta) to float32 moves it by a few k*d*eps, and the factor's
slope in psi grows with n, so the stated tolerance is: for angles rounded
from float64 into float32, the squared per-axis factor is within
n * k*d * eps32 of the float64 expression's (relative to its peak, 1).
The gain is then within g0 * (2n*k*d + 3) * eps32 of its float64 value. The
tests check the factor's bound for n up to MAX_N_SIDE and spacings up to 10
wavelengths. g0 itself is float64.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from uavthz.errors import require

TWO_PI = 2.0 * np.pi
# What np.sinc puts in place of a zero argument before dividing, at the
# pattern's precision.
_EPS = np.finfo(np.float32).eps

# Largest array side accepted; g0's lag sum for it takes about 0.1 s and 50 MB.
MAX_N_SIDE = 1024


@dataclass(frozen=True)
class ArrayAntennaConfig:
    """Square array description: N elements per side, spacing as a fraction of wavelength.

    The pattern depends on k*d_a = 2*pi*spacing_over_lambda, never on the
    carrier itself, so the carrier is not part of the description.
    """

    n_side: int
    spacing_over_lambda: float

    def __post_init__(self):
        require(1 <= self.n_side <= MAX_N_SIDE,
                f"n_side must lie in [1, {MAX_N_SIDE}], got {self.n_side}", "n_side")
        require(self.spacing_over_lambda > 0, "spacing_over_lambda must be positive",
                "spacing_over_lambda")


class PatternScratch:
    """Reusable buffers for the in-place axis_ratio chain of up to `size` directions.

    Holds two float32 arrays and one boolean mask. views(shape) hands out
    contiguous leading slices of each, shaped as requested, so one instance
    serves every block of a scan, the last short block included.
    """

    def __init__(self, size: int):
        self._floats = np.empty((2, size), dtype=np.float32)
        self._mask = np.empty(size, dtype=bool)

    def views(self, shape):
        n = math.prod(shape)
        return ([f[:n].reshape(shape) for f in self._floats],
                self._mask[:n].reshape(shape))


def _sinc_of_scaled(y, out, mask):
    """out = sin(y) / y with every zero of y replaced by eps; y is overwritten.

    This is np.sinc after its `pi * x` step: where(x, x, eps), then
    sin(y) / y, at the precision of y and out.
    """
    np.equal(y, 0.0, out=mask)
    np.copyto(y, _EPS, where=mask)
    np.sin(y, out=out)
    np.divide(out, y, out=out)


def axis_ratio(cfg: ArrayAntennaConfig, theta, out, scratch: PatternScratch):
    """out = the per-axis pattern factor at angular offsets theta from boresight.

    The factor is sin(n*psi/2) / (n*sin(psi/2)) at psi = k*d_a*sin(theta),
    up to sign, with every removable singularity filled; the gain is g0 times
    the squared product of the two axes' factors (gain_from_axis_ratios).
    theta broadcasts to out's shape; scratch holds at least out.size
    directions. out is float32, and so is theta in the outage kernel; the
    squared factor then meets the module docstring's tolerance. Returns out.

    For spacings above lambda/2 (k*d_a > pi), psi is reduced modulo 2*pi and
    the reduced argument r is evaluated as a quotient of normalized sincs,
    which is exact away from the singular points and smooth through them (the
    reduced denominator sinc is bounded below by 2/pi). Across period m the
    factor also changes sign by (-1)^(m*(n-1)); only its square is used, so
    that sign is left out. At smaller spacings |psi| <= k*d_a <= pi, where m
    is always 0, so skipping the reduction gives the same bits.

    The operation order is that of
    np.sinc(n * r / TWO_PI) / np.sinc(r / TWO_PI), evaluated in out's
    precision.
    """
    (psi, tmp), mask = scratch.views(out.shape)
    kd = TWO_PI * cfg.spacing_over_lambda
    np.sin(theta, out=psi)
    np.multiply(psi, kd, out=psi)
    if kd > np.pi:
        np.divide(psi, TWO_PI, out=out)
        np.rint(out, out=out)                   # m, the period index
        np.multiply(out, TWO_PI, out=out)
        np.subtract(psi, out, out=psi)          # r = psi - 2*pi*m
    np.multiply(psi, cfg.n_side, out=out)
    np.divide(out, TWO_PI, out=out)
    np.multiply(out, np.pi, out=out)
    _sinc_of_scaled(out, tmp, mask)             # numerator sinc in tmp
    np.divide(psi, TWO_PI, out=psi)
    np.multiply(psi, np.pi, out=psi)
    _sinc_of_scaled(psi, out, mask)             # denominator sinc in out
    np.divide(tmp, out, out=out)
    return out


def gain_from_axis_ratios(g0: float, ratio_x, ratio_y, out):
    """out = g0 * (ratio_x * ratio_y)^2, the gain from its two axis_ratio factors.

    g0 is the array's normalization_constant, looked up once by the caller.
    out may be either input; in the outage kernel all three are float32.
    Returns out.
    """
    np.multiply(ratio_x, ratio_y, out=out)
    np.square(out, out=out)
    np.multiply(out, g0, out=out)
    return out


@functools.cache
def normalization_constant(cfg: ArrayAntennaConfig) -> float:
    """Power-normalization constant: 4*pi over the sphere integral of the pattern.

    The closed-form lag sum of the module docstring, folded onto p, q >= 0
    (the summand is even in each), where a nonzero lag stands for both signs.
    Exact up to rounding at every spacing; memoised per configuration because
    every outage scan asks for it once per array.
    """
    n = cfg.n_side
    lag = np.arange(n)
    w = 2.0 * (n - lag)
    w[0] = n
    r = np.hypot(lag[:, None], lag[None, :])
    return float(n ** 4 / (np.outer(w, w) * np.sinc(2.0 * cfg.spacing_over_lambda * r)).sum())
