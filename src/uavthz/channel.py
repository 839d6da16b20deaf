"""THz link budget, LoS probability, interference-aware SINR and Monte-Carlo outage.

The channel amplitude of a link of length L combines free-space loss
(lambda / (4*pi*L))^2 with molecular absorption exp(-K*L/2), so the squared
magnitude entering the SINR is (lambda / (4*pi*L))^4 * exp(-K*L). A
scenario's M ground stations are one (M, 3) position array, one link each;
they share one transmit power and one array, and the UAV has one array, all
declared in ChannelParams. Ground stations steer perfectly at the UAV (gain
equals their normalization constant); the UAV side is evaluated at the
angular offsets implied by link geometry plus the UAV's Gaussian orientation
jitter.

There is one LoS model. Each link is in line of sight independently with
probability los_probability(its elevation); otherwise its power, as a desired
link and as an interferer, is scaled by nlos_extra_loss. The one-orientation
instantaneous_sinr takes every link in line of sight.

The entries outage_scan and instantaneous_sinr check each (N, 3) stack once
(geometry.as_points): the stations, M >= 1, and the UAV positions, each at
altitude at least geometry.MIN_ALTITUDE_M (else GeometryDegenerateError). A
scan returns one (N, M) array of per-link outage probabilities, a row per UAV
position.

The per-axis angle between the links to stations i and j is symmetric in
(i, j), so each draw needs the UAV pattern at 1 + M(M-1)/2 distinct offsets
(16 for six links): the jitter alone, which gives every link's desired gain,
and the jitter plus the angles of each unordered station pair, which gives
the interference. Link geometry (lengths, elevations, pair angles) is
evaluated for all stations at once per altitude group; the arrays and their g0,
once per ChannelParams, and the map from station pairs to offsets, once per M.

The gain at a column is g0 * (ratio_x * ratio_y)^2, the squared product of
two per-axis factors (antenna.axis_ratio). The x-axis pair angles depend on
the UAV's (x, z) alone and the y-axis ones on its (y, z), so the x-factor
table of a block of draws is the same for every position with the same x and
altitude, and likewise for y.

outage_scan is the one Monte-Carlo outage path; outage_probability is its
one-position case. A scan makes its random draws once and shares them across
its positions (common random numbers). The draws are variance-reduced and
unbiased: the jitter is a randomly shifted rank-1 lattice (Cranley-Patterson)
mapped to Gaussians by Box-Muller, and the LoS uniforms, one per draw and
link, form a Latin hypercube; at 500 draws they cut the std of the
worst-link outage over seeds to about a third of plain Monte Carlo's.
outage_scan gives the construction and the one order in which the generator
is read.

The estimator is conditional Monte Carlo (Rao-Blackwellisation; Asmussen and
Glynn, Stochastic Simulation, 2007, V.4). A link's interference does not
depend on its own LoS state, so given a draw's jitter and its interferers'
sampled states, link i fails with probability
p_i*[D < thr*(I + N)] + (1 - p_i)*[nlos*D < thr*(I + N)], where D is its LoS
desired power, I its interference, N the noise and p_i its LoS probability.
Averaging this conditional expectation instead of one sampled verdict keeps
the mean and cannot raise any link's variance. At 10k draws it cut the std
over seeds of the worst-link outage to a median 0.38 of the sampled verdict's
(0.06 to 0.90) at 24 positions over eight six-station topologies. It needs
no draw beyond the interferers' states, so the common random numbers hold as
above, and it sums two integer failure counts per link, so an estimate does
not depend on how the draws are split into blocks.

The scan groups the positions by exact altitude; per group, the blocks of
draws are the outer loop: per block it builds one x-factor table per
distinct x and one y-factor table per distinct y of the group, then, per
position, forms the gain table from its two tables and counts the
failures. A 15 x 15 altitude of the baseline lattice thus needs 30 factor
tables per block instead of 450. Every per-block array is link-major: a
table has a row per offset and the weights and verdicts a row per link, each
row one link's or offset's draws, contiguous. A block's arrays are plain
numpy temporaries of at most _DRAW_BLOCK columns, and each factor table is
freed as the next block's table for its x or y replaces it, so beyond the
draws memory does not grow with their number.

Precision: the UAV pattern is float32 (the angle table, the factor tables
and the gain table). Each factor is the Dirichlet quotient sin(n*psi/2) /
(n*sin(psi/2)) of two float32 sines (antenna.axis_ratio), and its square is
within the antenna module's n*k*d*eps32 of the float64 np.sinc expression;
the gain is within g0*(2n*k*d + 3)*eps32 of its float64 value. The scan's
SINR stage is float32 too (_link_powers, the bound and the verdicts): each
position's powers are divided by one power of two 2^k, the unit, which puts
the largest c_j = tx*pl_j*g0_sbs in [1/2, 1), and the threshold is folded
into the interferers' powers and the noise (_float32_terms), so a verdict is
D < sum_j w_j*gain_ij + thr*N/2^k with w_j = thr*c_j/2^k in the interferer's
sampled state (MAX_POWER_RATIO gives the range). Dividing by a power of two
is exact, so in float64 this is the verdict D < thr*(I + N) on the same
gains. In float32, D carries two roundings (its coefficient's cast and the
product with the gain; four in the NLoS verdict's nlos*D) and each term of
the bound at most M + 1 (its cast, its product with the gain, and the M - 1
additions of the interferers and the noise), so when every term is in
float32's normal range the computed D / bound is within a relative
gamma_{M+5} = (M+5)u / (1 - (M+5)u), u = 2^-24, of the exact one (Higham,
Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, 3.1): 6.6e-7
for six links. A draw's LoS or NLoS verdict can therefore differ from a
float64 kernel's only where its SINR lies within that relative distance, or
within the gain tolerance, of the threshold; the tests bound the share of
such draws at 1e-4 per link and verdict. Everything else stays float64: the
draws, the link geometry, p_los, the unit and instantaneous_sinr's powers in
W; the failure counts are integers.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from uavthz import antenna, geometry
from uavthz.antenna import ArrayAntennaConfig
from uavthz.errors import GeometryDegenerateError, InvalidInputError, require
from uavthz.geometry import Vec3, as_points

SPEED_OF_LIGHT = 3.0e8  # m/s

# Lowest carrier, in Hz: a wavelength of at most 0.3 m. A link to a ground
# station is at least geometry.MIN_ALTITUDE_M = 1 mm long, so
# lambda / (4*pi*L) <= 24 and the path loss (lambda / (4*pi*L))^4 <= 3.3e5 is
# finite.
MIN_CARRIER_HZ = 1e9

# Largest transmit power in W, and largest ratio of transmit to noise power.
# A link's path loss is at most 24^4 = 3.3e5 (MIN_CARRIER_HZ), and no array
# that ArrayAntennaConfig accepts has a g0 above 1e7: on a grid of spacings up
# to MAX_SPACING the largest is 6.0e6, at n_side = MAX_N_SIDE and 0.97
# wavelengths (5.7 n_side^2). A received power is thus at most
# tx * 3.3e5 * (1e7)^2 = 3.3e19 tx <= 3.3e269 W, an interference sum over up
# to 1e15 stations (config.MAX_COUNT) at most 3.3e284 W, finite in mW too,
# and a SINR at most 3.3e19 tx / noise <= 3.3e269.
#
# outage_scan's float32 stage divides a position's powers by 2^k, the frexp
# exponent of its largest c_j = tx*pl_j*g0_sbs, so each c_j/2^k < 1 and, with
# the UAV gain below 1e7, a desired power in that unit is below 1e7 and an
# interference sum below 1e7 M <= 1e22 (config.MAX_COUNT stations), far
# inside float32's largest finite value, 3.4e38. The threshold-scaled terms
# thr*c_j/2^k and thr*N/2^k are computed in float64. In float32 a noise term
# beyond 3.4e38 reads inf and an interferer's term saturates at 3.4e38 (an
# inf times a gain of 0 would be NaN). Neither changes a verdict: such a
# noise term exceeds every desired power, and so does such an interferer's
# term whenever its gain in the sampled state is at least 1e7/3.4e38 =
# 3e-32, far below the gain tolerance. The noise term is at least float32's
# smallest subnormal: it stays positive, as N is, so a desired power of 0
# (an NLoS draw at nlos_extra_loss = 0) fails, as it does in float64, when
# thr*N/2^k is below float32's range. No float32 operation then overflows,
# except a saturated term times a gain, which reads inf and fails the draw,
# its limit; none makes a NaN.
MAX_POWER_RATIO = 1e250
_FLOAT32_MAX = float(np.finfo(np.float32).max)
_FLOAT32_TINY = float(np.finfo(np.float32).smallest_subnormal)

# Draws per block in outage_scan. Bounds every temporary of a block (for six
# links the float32 (16, S) gain table is 64 KB, the (M, M, S) gathered
# interferer gains 144 KB and the float64 (M, S) LoS uniforms 48 KB), so
# memory does not grow with S.
_DRAW_BLOCK = 1024
# Most per-axis factor tables (one per distinct x or y of an altitude group)
# that outage_scan keeps at once: 4 MB of float32 (16, _DRAW_BLOCK) tables for
# six links. A default baseline altitude needs 30.
_MAX_RATIO_TABLES = 64


@dataclass(frozen=True)
class ChannelParams:
    """Propagation, detection and antenna constants shared by every link of a scenario, in SI units.

    Every station transmits tx_power_w through the square array sbs_array;
    the UAV has uav_array. Both have the spacing spacing_over_lambda and are
    built once; their g0s, sbs_g0 and uav_g0, on first use, so a check computes none.
    tx_power_w is at most MAX_POWER_RATIO W and MAX_POWER_RATIO noise powers.
    """

    carrier_hz: float
    absorption_coeff: float               # 1/m
    noise_power_w: float
    sinr_threshold: float                 # linear
    los_alpha: float
    los_b: float
    nlos_extra_loss: float                # linear
    vibration_std_rad: float
    tx_power_w: float
    uav_n_side: int
    sbs_n_side: int
    spacing_over_lambda: float

    def __post_init__(self):
        require(self.carrier_hz >= MIN_CARRIER_HZ,
                f"carrier_hz must be at least {MIN_CARRIER_HZ:g} Hz", "carrier_hz")
        for name in ("noise_power_w", "sinr_threshold", "tx_power_w"):
            require(getattr(self, name) > 0, f"{name} must be positive", name)
        # divided, not multiplied, so the check itself cannot overflow
        require(self.tx_power_w / MAX_POWER_RATIO <= min(1.0, self.noise_power_w),
                f"tx_power_w must be <= {MAX_POWER_RATIO:g} W and <= {MAX_POWER_RATIO:g} "
                f"times noise_power_w, or a SINR could overflow", "tx_power_w", "noise_power_w")
        require(self.absorption_coeff >= 0, "absorption coefficient must be >= 0",
                "absorption_coeff")
        require(0.0 <= self.nlos_extra_loss <= 1.0, "nlos_extra_loss must lie in [0, 1]",
                "nlos_extra_loss")
        # half a turn; far beyond it the float32 jitter angles overflow
        require(0 <= self.vibration_std_rad <= math.pi, "vibration std must lie in [0, pi] rad",
                "vibration_std_rad")
        for name in ("los_alpha", "los_b"):
            require(getattr(self, name) >= 0, f"{name} must be >= 0", name)
        for side, name in (("uav_n_side", "uav_array"), ("sbs_n_side", "sbs_array")):
            try:
                array = ArrayAntennaConfig(getattr(self, side), self.spacing_over_lambda)
            except InvalidInputError as exc:
                raise InvalidInputError(
                    str(exc), *(side if f == "n_side" else f for f in exc.fields)) from exc
            object.__setattr__(self, name, array)      # set once; the params are frozen

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    @functools.cached_property
    def uav_g0(self) -> float:
        return antenna.normalization_constant(self.uav_array)

    @functools.cached_property
    def sbs_g0(self) -> float:
        return antenna.normalization_constant(self.sbs_array)


def free_space_term(params: ChannelParams, length):
    """(lambda / (4*pi*L))^2, the free-space factor of the channel amplitude, elementwise in L."""
    return (params.wavelength / (4.0 * np.pi * length)) ** 2


def absorption_term(params: ChannelParams, length):
    """exp(-K*L/2), the molecular-absorption factor of the channel amplitude, elementwise in L."""
    return np.exp(-0.5 * params.absorption_coeff * length)


def path_loss(params: ChannelParams, length):
    """Squared channel magnitude |h_L|^2 = (lambda/(4*pi*L))^4 * exp(-K*L)."""
    return (free_space_term(params, length) * absorption_term(params, length)) ** 2


def los_probability(params: ChannelParams, elevation):
    """Line-of-sight probability at the given elevation angle(s) (radians).

    Far below los_alpha degrees the exponential overflows to inf, which gives
    the logistic's limit, 0, without a warning.
    """
    deg = np.degrees(elevation)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + params.los_alpha * np.exp(-params.los_b * (deg - params.los_alpha)))


@functools.cache
def _pairs(m: int) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """(upper, row): m stations' unordered pairs, in triu_indices order, and their gain-table rows.

    row[i, j] = row[j, i] is the gain-table row of interferer j at link i
    (i != j); row[i, i] = 0.
    """
    upper = np.triu_indices(m, 1)
    row = np.zeros((m, m), dtype=np.intp)
    row[upper] = np.arange(1, len(upper[0]) + 1)
    return upper, row + row.T


def _precompute(sbs: np.ndarray, uavs: np.ndarray, params: ChannelParams):
    """(power, p_los, offset_x, offset_y): the (M, 3) stations sbs seen from the (G, 3) uavs.

    Everything about the link geometry at each position that does not
    depend on draws, a row per position. power (G, M) is
    tx * |h_L|^2 * g0_sbs, each link's W per unit of UAV gain, and p_los
    (G, M) its LoS probability. The UAV gain is looked up at
    1 + M(M-1)/2 per-axis offsets per draw, so offset_x and offset_y are
    (G, 1 + M(M-1)/2): column 0 is zero, the jitter alone (the desired
    gain, shared by every link), and column 1 + p adds the axis angles of
    unordered station pair p (_pairs).
    """
    upper, _ = _pairs(len(sbs))
    power = params.tx_power_w * path_loss(params, geometry.link_length(uavs, sbs)) * params.sbs_g0
    offset_x, offset_y = np.zeros((2, len(uavs), 1 + len(upper[0])))
    offset_x[:, 1:], offset_y[:, 1:] = geometry.pair_axis_angles(uavs, sbs[upper[0]], sbs[upper[1]])
    return power, los_probability(params, geometry.elevation_angle(uavs, sbs)), offset_x, offset_y


def _ratio_table(jitter: np.ndarray, offset: np.ndarray, params: ChannelParams) -> np.ndarray:
    """The UAV's float32 axis_ratio factor at offset[c] + jitter[s], one axis, (1 + M(M-1)/2, S).

    jitter is (S,) and offset one position's row of offset_x or offset_y
    (_precompute); their sum is rounded into float32 before the pattern.
    """
    theta = (offset[:, None] + jitter).astype(np.float32)
    return antenna.axis_ratio(params.uav_array, theta)


def _float32_terms(power: np.ndarray, params: ChannelParams):
    """(desired, weights, noise): float32 verdict terms of the (G, M) powers, a row in its unit 2^k.

    2^k puts the row's largest power in [1/2, 1) (frexp). desired (G, M) is
    power / 2^k; weights (2, G, M, 1) is thr * power / 2^k in line of sight
    (weights[0]) and times nlos_extra_loss not (weights[1]); noise (G,) is
    thr * N / 2^k. Each is computed in float64 and rounded into float32, the
    weights saturated at float32's largest value and the noise kept at least
    its smallest subnormal (MAX_POWER_RATIO states why).
    """
    k = np.frexp(power.max(axis=1))[1]
    unit_power = np.ldexp(power, -k[:, None])
    thr = params.sinr_threshold
    weights = np.minimum(
        thr * np.multiply.outer((1.0, params.nlos_extra_loss), unit_power[..., None]), _FLOAT32_MAX)
    with np.errstate(over="ignore", under="ignore"):
        noise = np.maximum(thr * np.ldexp(params.noise_power_w, -k), _FLOAT32_TINY)
        return unit_power.astype(np.float32), weights.astype(np.float32), noise.astype(np.float32)


def _link_powers(params: ChannelParams, ratio_x: np.ndarray, ratio_y: np.ndarray,
                 desired: np.ndarray, weights: np.ndarray, noise) -> tuple[np.ndarray, np.ndarray]:
    """(desired power, interference + noise) per link and draw, (M, S) each, link-major.

    ratio_x/ratio_y are a position's per-axis factor tables (_ratio_table),
    from which the gain table is formed; desired (M,) is each link's power
    per unit of UAV gain as the desired link, and weights (M, S) each link's
    as an interferer at each draw. Link i's interference sums
    weights[j] * gain[row[i, j]] over j != i (_pairs). The results take the
    dtype of desired, weights and noise: float32 in outage_scan's unit,
    float64 W in instantaneous_sinr. A saturated weight times a gain may
    overflow to inf, which fails the draw, its limit.
    """
    gain = antenna.gain_from_axis_ratios(params.uav_g0, ratio_x, ratio_y)
    _, row = _pairs(len(desired))
    gathered = gain[row]                          # (M, M, S): interferer j's gain at link i
    diagonal = np.arange(len(desired))
    gathered[diagonal, diagonal] = 0.0            # no link interferes with itself
    with np.errstate(over="ignore"):
        return (desired[:, None] * gain[0],
                np.einsum("ijs,js->is", gathered, weights) + noise)


def _checked_uavs(v) -> np.ndarray:
    """The (N, 3) UAV positions v checked by geometry.as_points, none below the altitude floor.

    Below geometry.MIN_ALTITUDE_M a link function may overflow or divide by zero.
    """
    uavs = as_points(v)
    if not np.all(uavs[:, 2] >= geometry.MIN_ALTITUDE_M):
        raise GeometryDegenerateError(f"UAV altitude must be at least "
                                      f"{geometry.MIN_ALTITUDE_M:g} m, got {uavs[:, 2].min()}")
    return uavs


def instantaneous_sinr(links, uav: Vec3, orientation: tuple[float, float],
                       params: ChannelParams) -> tuple[np.ndarray, np.ndarray]:
    """(sinr, interference_w): per-link linear SINR and interference power (W), each (M,).

    One fixed orientation, every link in line of sight; links, the (M, 3)
    station array, and uav are checked as in outage_scan.
    """
    sbs = as_points(links)
    power, _, offset_x, offset_y = (a[0] for a in _precompute(sbs, _checked_uavs((uav,)), params))
    ratio_x = _ratio_table(np.array([float(orientation[0])]), offset_x, params)
    ratio_y = _ratio_table(np.array([float(orientation[1])]), offset_y, params)
    desired, interference = _link_powers(params, ratio_x, ratio_y, power, power[:, None], 0.0)
    return desired[:, 0] / (interference[:, 0] + params.noise_power_w), interference[:, 0]


def _altitude_groups(uavs):
    """Position indices of the (N, 3) uavs grouped by exact altitude, each group in stack order.

    Groups come in order of their altitude's first appearance. A group is
    split where keeping it whole would need more than _MAX_RATIO_TABLES
    distinct x and y values together, so the scan's ratio tables stay bounded
    for any position list.
    """
    by_altitude = {}
    for i, uav in enumerate(uavs):
        by_altitude.setdefault(uav[2], []).append(i)
    for indices in by_altitude.values():
        group, xs, ys = [], set(), set()
        for i in indices:
            x, y = uavs[i, 0], uavs[i, 1]
            if len(xs | {x}) + len(ys | {y}) > _MAX_RATIO_TABLES:
                yield group
                group, xs, ys = [], set(), set()
            group.append(i)
            xs.add(x)
            ys.add(y)
        yield group


def _lattice_generator(n: int) -> int:
    """The integer a >= 1 nearest n*(sqrt(5)-1)/2 that is coprime to n, the smaller on a tie.

    For a Fibonacci number n this is the previous Fibonacci number, so the
    rank-1 lattice {s*(1, a)/n mod 1} is the Fibonacci lattice.
    """
    g = n * (math.sqrt(5.0) - 1.0) / 2.0
    below = math.floor(g)
    above = below + 1
    while True:
        # candidates in order of their distance to g
        if g - below <= above - g:
            a, below = below, below - 1
        else:
            a, above = above, above + 1
        if a >= 1 and math.gcd(a, n) == 1:
            return a


def _draws(params: ChannelParams, m: int, n: int,
           seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(theta_jx, theta_jy, uniforms): the random draws of one scan of n samples and m links.

    theta_jx and theta_jy are (n,) and uniforms is (n, m). See outage_scan for
    the estimator and the order in which the generator is read: the shift,
    the (n, m) uniforms, then one permutation per link. Built in place:
    beyond the three results, it holds at most one n-vector and one boolean
    mask at a time.
    """
    rng = np.random.default_rng(seed)
    shift = rng.random(2)
    uniforms = rng.random((n, m))
    for j in range(m):
        column = uniforms[:, j]
        np.add(column, rng.permutation(n), out=column)
    np.divide(uniforms, n, out=uniforms)
    # lattice point s: u = frac((s, s*a mod n) / n + shift)
    index = np.arange(n)
    u1 = np.divide(index, n)
    np.multiply(index, _lattice_generator(n), out=index)
    np.remainder(index, n, out=index)
    u2 = np.divide(index, n)
    for u, d in zip((u1, u2), shift):
        np.add(u, d, out=u)
        np.subtract(u, 1.0, out=u, where=u >= 1.0)
    # Box-Muller: radius sigma*sqrt(-2 log(1 - u1)), angle 2*pi*u2
    radius = u1
    np.negative(radius, out=radius)
    np.log1p(radius, out=radius)
    np.multiply(radius, -2.0, out=radius)
    np.sqrt(radius, out=radius)
    np.multiply(radius, params.vibration_std_rad, out=radius)
    angle = u2
    np.multiply(angle, 2.0 * np.pi, out=angle)
    sin = np.sin(angle, out=index.view(np.float64))  # the index buffer is free
    theta_jx = np.cos(angle, out=angle)
    np.multiply(theta_jx, radius, out=theta_jx)
    theta_jy = np.multiply(radius, sin, out=radius)
    return theta_jx, theta_jy, uniforms


def outage_scan(links, uavs, params: ChannelParams, n_samples: int, seed: int,
                progress=None) -> np.ndarray:
    """Monte-Carlo outage per link at each UAV position: an (N, M) array, a row per position.

    links is the (M, 3) station array and uavs the (N, 3) stack of UAV
    positions, each checked once per scan (_checked_uavs). Keep the names
    links and n_samples: the benchmark's tracer binds them to count draws.

    Every position sees the same draws (common random numbers), made once per
    scan by _draws; a position only changes which LoS uniforms fall below its
    LoS probabilities: link j of draw s is in line of sight as an interferer
    when its uniform is below p_los of link j at that position. Each estimate
    is therefore bit-identical to a scan of that position alone, for a given
    (seed, n_samples).

    The draws are variance-reduced but every sample keeps the plain
    Monte-Carlo distribution:

    - Jitter: point s of the n-point rank-1 lattice with generator a
      (_lattice_generator), shifted by one uniform Delta on the unit square
      (Cranley-Patterson): u = frac((s, s*a mod n) / n + Delta). The
      Box-Muller transform maps it to theta_x = r*cos(2*pi*u2),
      theta_y = r*sin(2*pi*u2) with r = sigma*sqrt(-2*log1p(-u1)). The shift
      makes every point uniform on the square, so every draw is N(0, sigma^2)
      per axis, independent between the axes; the lattice spreads the n
      points evenly, which removes most of the jitter's sampling noise.
    - LoS: a Latin hypercube. Link j's uniform at sample s is
      (pi_j(s) + v_sj) / n with an independent random permutation pi_j and
      v_sj ~ U[0, 1), so each link's column has exactly one value in every
      [k/n, (k+1)/n), and each value is uniform on [0, 1) and independent of
      the jitter and of the other links.

    The generator default_rng(seed) is read in one fixed order: the shift
    (random(2)), then v (random((n, m))), then permutation(n) for link
    0, 1, ..., m - 1.

    The estimate is conditional on each link's own LoS state (see the module
    docstring): per draw, link i is judged twice on its LoS desired power D
    against the bound thr*(I + N) of its interference I, once in line of
    sight (D < bound) and once not (nlos*D < bound), and the two failure
    counts c_los and c_nlos combine as (p_i*c_los + (1 - p_i)*c_nlos) / n.
    Only the interferers use their sampled LoS states. The draw of link i's
    own state is independent of its D and I, so the expectation of each term
    is the plain estimator's, and the estimate is unbiased.

    Positions are evaluated by altitude group (_altitude_groups). A group's
    link geometry and float32 verdict terms are set up in one array pass
    (_precompute, then _float32_terms) and freed before the next group's.
    Then, over fixed blocks of _DRAW_BLOCK draws: per block, one x-factor
    table per distinct x and one y-factor table per distinct y of the group,
    then per position the float32 verdict stage (_link_powers; see the
    module docstring for its precision) and the two integer failure counts,
    which are summed. Every draw's verdicts come from the same column-wise
    arithmetic whatever its block and whichever position built its tables,
    and the counts are combined once, at the end, so the result is
    bit-identical to evaluating all draws of each position alone in one
    block. progress, when given, is called as progress(k, n) for each of the
    n positions as its group completes.
    """
    if n_samples < 1:
        raise InvalidInputError("n_samples must be >= 1")
    sbs, uavs = as_points(links), _checked_uavs(uavs)
    m = len(sbs)
    theta_jx, theta_jy, uniforms = _draws(params, m, n_samples, seed)
    p_los = np.empty((len(uavs), m))
    los_failures = np.zeros((len(uavs), m), dtype=np.int64)
    nlos_failures = np.zeros((len(uavs), m), dtype=np.int64)
    done = 0
    for group in _altitude_groups(uavs):
        power, p_los[group], offset_x, offset_y = _precompute(sbs, uavs[group], params)
        unit_power, state_weights, noise = _float32_terms(power, params)
        # the x-axis pair angles depend on the UAV's (x, z) alone, the y-axis
        # ones on (y, z) (geometry.pair_axis_angles), so positions of one
        # altitude that share x have equal offset_x rows and share their
        # x-factor table, and likewise y
        offsets_x = dict(zip(uavs[group, 0], offset_x))
        offsets_y = dict(zip(uavs[group, 1], offset_y))
        table_x, table_y = {}, {}
        for lo in range(0, n_samples, _DRAW_BLOCK):
            block = slice(lo, lo + _DRAW_BLOCK)
            # each table replaces the last block's under its key
            for x, offset in offsets_x.items():
                table_x[x] = _ratio_table(theta_jx[block], offset, params)
            for y, offset in offsets_y.items():
                table_y[y] = _ratio_table(theta_jy[block], offset, params)
            los_uniforms = uniforms[block].T.copy()     # (M, S), a row per link
            for g, i in enumerate(group):
                # each interferer at its sampled state's weight
                weights = np.where(los_uniforms < p_los[i, :, None], *state_weights[:, g])
                desired, bound = _link_powers(params, table_x[uavs[i, 0]], table_y[uavs[i, 1]],
                                              unit_power[g], weights, noise[g])
                los_failures[i] += np.count_nonzero(desired < bound, axis=1)
                nlos_failures[i] += np.count_nonzero(params.nlos_extra_loss * desired < bound,
                                                     axis=1)
        if progress is not None:
            for _ in group:
                done += 1
                progress(done, len(uavs))
    return (p_los * los_failures + (1.0 - p_los) * nlos_failures) / n_samples


def outage_probability(links, uav: Vec3, params: ChannelParams,
                       n_samples: int, seed: int) -> np.ndarray:
    """Monte-Carlo outage per link at one position, (M,), as outage_scan estimates it.

    The one-position case of outage_scan, its one row; see there for the
    draws and for links. The tracer binds links and n_samples by name here too.
    """
    return outage_scan(links, (uav,), params, n_samples, seed)[0]


def max_outage(estimate: np.ndarray) -> float:
    """Largest entry of an (M,) per-link outage array, M >= 1."""
    return float(estimate.max())
