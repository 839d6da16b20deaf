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
factor at the angles' precision, in the Dirichlet form
sin(n*psi/2) / (n*sin(psi/2)) of the uniform-array factor (Balanis, Antenna
Theory, 4th ed., 2016, ch. 6), and gain_from_axis_ratios forms
g0 * (ratio_x * ratio_y)^2 from a g0 the caller holds (channel.ChannelParams
keeps one per array), so a caller whose directions share one axis's offsets
computes that factor once.
The factor is only ever squared, so its sign across periods of psi is not
computed.

Precision: the pattern runs in float32, whose sin is many times faster than
float64's, and the outage kernel's time is mostly this pattern. Rounding
psi/2 = (k*d/2)*sin(theta) to float32 moves it by a few k*d*eps, and the
factor's slope in psi grows with n; the two sines and the product n*psi/2
each add a rounding of at most a few eps relative to the factor's peak. So
the stated tolerance is: for angles rounded from float64 into float32, the
squared per-axis factor is within n * k*d * eps32 of the square of the
float64 np.sinc expression sinc(n*psi/2pi) / sinc(psi/2pi) (relative to
its peak, 1).
The gain is then within g0 * (2n*k*d + 3) * eps32 of its float64 value. The
tests check the factor's bound for n up to MAX_N_SIDE and spacings up to 10
wavelengths. g0 itself is float64.
"""

from dataclasses import dataclass

import numpy as np

from uavthz.errors import require

# Largest array side accepted; g0's lag sum for it takes about 0.1 s and 50 MB.
MAX_N_SIDE = 1024
# Largest spacing accepted, in wavelengths: the range of the stated tolerance.
# Far beyond it k*d overflows the float32 pattern.
MAX_SPACING = 10.0


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
        require(0 < self.spacing_over_lambda <= MAX_SPACING,
                f"spacing_over_lambda must lie in (0, {MAX_SPACING:g}]", "spacing_over_lambda")


def axis_ratio(cfg: ArrayAntennaConfig, theta):
    """The per-axis pattern factor at angular offsets theta from boresight, at theta's precision.

    The factor is sin(n*psi/2) / (n*sin(psi/2)) at psi = k*d_a*sin(theta),
    up to sign, with its removable singularity filled by exactly 1; the gain
    is g0 times the squared product of the two axes' factors
    (gain_from_axis_ratios). In the outage kernel theta is float32; the
    squared factor then meets the module docstring's tolerance.

    For spacings above lambda/2 (k*d_a > pi), psi/2 is reduced modulo pi
    (psi modulo 2*pi, halved exactly), so the reduced r = psi - 2*pi*m has
    |r/2| <= pi/2 and sin(r/2) vanishes only at r = 0, which includes every
    grating lobe. Across period m the factor changes sign by
    (-1)^(m*(n-1)); only its square is used, so that sign is left out. At
    smaller spacings |psi| <= k*d_a <= pi, where m is always 0, so skipping
    the reduction gives the same bits.
    """
    half = np.sin(theta) * (np.pi * cfg.spacing_over_lambda)     # psi / 2
    if cfg.spacing_over_lambda > 0.5:
        half = half - np.rint(half / np.pi) * np.pi
    den = np.sin(half) * cfg.n_side
    with np.errstate(invalid="ignore"):     # 0/0, exactly where half is 0
        ratio = np.divide(np.sin(half * cfg.n_side), den, out=np.empty_like(den))
    np.copyto(ratio, 1, where=den == 0)
    return ratio


def gain_from_axis_ratios(g0: float, ratio_x, ratio_y):
    """g0 * (ratio_x * ratio_y)^2, the gain from its two axis_ratio factors.

    g0 is the array's normalization_constant, held by the caller; in the
    outage kernel both factors, and so the gain, are float32.
    """
    return np.square(ratio_x * ratio_y) * g0


def normalization_constant(cfg: ArrayAntennaConfig) -> float:
    """Power-normalization constant: 4*pi over the sphere integral of the pattern.

    The closed-form lag sum of the module docstring, folded onto p, q >= 0
    (the summand is even in each), where a nonzero lag stands for both signs.
    Exact up to rounding at every spacing.
    """
    n = cfg.n_side
    lag = np.arange(n)
    w = 2.0 * (n - lag)
    w[0] = n
    r = np.hypot(lag[:, None], lag[None, :])
    return float(n ** 4 / (np.outer(w, w) * np.sinc(2.0 * cfg.spacing_over_lambda * r)).sum())
