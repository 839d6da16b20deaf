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

There is one LoS model. In every Monte-Carlo draw, each link is in line of
sight independently with probability los_probability(its elevation);
otherwise its power, as a desired link and as an interferer, is scaled by
nlos_extra_loss. The one-orientation instantaneous_sinr takes every link in
line of sight.

The entries outage_scan and instantaneous_sinr check each (N, 3) stack once
(geometry.as_points): the stations, M >= 1, and the UAV positions, each at
positive altitude (else GeometryDegenerateError). A scan returns one (N, M)
array of per-link outage probabilities, a row per UAV position.

The per-axis angle between the links to stations i and j is symmetric in
(i, j), so each draw needs the UAV pattern at 1 + M(M-1)/2 distinct offsets
(16 for six links): the jitter alone, which gives every link's desired gain,
and the jitter plus the angles of each unordered station pair, which gives
the interference. Link geometry (lengths, elevations, pair angles) is
evaluated for all stations at once per position; the stations' g0, the UAV
array and its g0, and the map from station pairs to offsets, once per scan.

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
link, form a Latin hypercube; at 500 draws the std of the worst-link outage
over seeds is about a third of plain Monte Carlo's. outage_scan gives the
construction and the one order in which the generator is read.

The scan groups the positions by exact altitude; per group, the blocks of
draws are the outer loop: per block it builds one x-factor table per
distinct x and one y-factor table per distinct y of the group, then, per
position, forms the gain table from its two tables and runs the SINR. A
15 x 15 altitude of the baseline lattice thus needs 30 factor tables per
block instead of 450. Everything runs as in-place ufunc chains over one
workspace allocated per scan, so no block allocates anything that grows with
its size.

Precision: the UAV pattern is float32 (the angle table, the factor tables,
the gain table and the gathered interferer gains) and meets the tolerance
the antenna module states. Everything else stays float64: the draws, the link
geometry, path_loss_sq, p_los, the failure counts, and every power and SINR
buffer. Powers here are about 1e-22 W (noise at -190 dBm), and sidelobe
interference terms fall below float32's smallest normal, 1.2e-38, so a
float32 power would lose them. A draw's verdict can therefore differ from a
float64 kernel's only where its SINR lies within the gain tolerance of the
threshold; the tests bound the share of such draws at 1e-4 per link.
"""

import math
from dataclasses import dataclass

import numpy as np

from uavthz import antenna, geometry
from uavthz.antenna import ArrayAntennaConfig
from uavthz.errors import GeometryDegenerateError, InvalidInputError, require
from uavthz.geometry import Vec3, as_points

SPEED_OF_LIGHT = 3.0e8  # m/s

# Draws per _sinr_matrix call in outage_scan. Sizes the scan's one workspace
# (the float32 (S, 16) gain table is 64 KB for six links, the float64 (S, M)
# interference sums 48 KB) so memory does not grow with S.
_DRAW_BLOCK = 1024
# Most per-axis factor tables (one per distinct x or y of an altitude group)
# that outage_scan keeps at once: 4 MB of float32 (_DRAW_BLOCK, 16) tables for
# six links. A default baseline altitude needs 30.
_MAX_RATIO_TABLES = 64


@dataclass
class ChannelParams:
    """Propagation, detection and antenna constants shared by every link of a scenario, in SI units.

    Every station transmits tx_power_w through the square array sbs_array;
    the UAV has uav_array. Both arrays have the spacing spacing_over_lambda.
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
        for name in ("carrier_hz", "noise_power_w", "sinr_threshold", "tx_power_w"):
            require(getattr(self, name) > 0, f"{name} must be positive", name)
        require(self.absorption_coeff >= 0, "absorption coefficient must be >= 0",
                "absorption_coeff")
        require(0.0 <= self.nlos_extra_loss <= 1.0, "nlos_extra_loss must lie in [0, 1]",
                "nlos_extra_loss")
        require(self.vibration_std_rad >= 0, "vibration std must be >= 0", "vibration_std_rad")
        for name in ("los_alpha", "los_b"):
            require(getattr(self, name) >= 0, f"{name} must be >= 0", name)
        for side in ("uav_n_side", "sbs_n_side"):
            try:
                ArrayAntennaConfig(getattr(self, side), self.spacing_over_lambda)
            except InvalidInputError as exc:
                raise InvalidInputError(
                    str(exc), *(side if f == "n_side" else f for f in exc.fields)) from exc

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    @property
    def uav_array(self) -> ArrayAntennaConfig:
        return ArrayAntennaConfig(self.uav_n_side, self.spacing_over_lambda)

    @property
    def sbs_array(self) -> ArrayAntennaConfig:
        return ArrayAntennaConfig(self.sbs_n_side, self.spacing_over_lambda)


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
    """Line-of-sight probability at the given elevation angle(s) (radians)."""
    deg = np.degrees(elevation)
    return 1.0 / (1.0 + params.los_alpha * np.exp(-params.los_b * (deg - params.los_alpha)))


@dataclass
class _LinkGeometry:
    """Everything about the stations seen from one UAV position that does not depend on draws.

    The UAV gain is looked up at (S, 1 + M(M-1)/2) per-axis offsets per block
    of draws: column 0 is the jitter alone (the desired gain, shared by every
    link) and column 1 + p adds the axis angles of unordered station pair p
    (_Workspace.column).
    """

    path_loss_sq: np.ndarray      # (M,) |h_L|^2 per link
    p_los: np.ndarray             # (M,)
    offset_x: np.ndarray          # (1 + M(M-1)/2,) zero, then pair axis angles
    offset_y: np.ndarray          # (1 + M(M-1)/2,)


def _precompute(sbs: np.ndarray, uav: Vec3, params: ChannelParams, upper) -> _LinkGeometry:
    """The link geometry of the (M, 3) stations sbs at uav; upper indexes the station pairs."""
    thx, thy = geometry.pair_axis_angles(uav, sbs)
    return _LinkGeometry(path_loss(params, geometry.link_length(uav, sbs)),
                         los_probability(params, geometry.elevation_angle(uav, sbs)),
                         np.concatenate(([0.0], thx[upper])), np.concatenate(([0.0], thy[upper])))


class _Workspace:
    """The constants of one scan and the buffers of one block of draws.

    The constants depend only on params and the station count m: the
    stations' g0, the UAV array and its g0, upper (the unordered station
    pairs, in triu_indices order) and column[i, j], the gain-table column of
    interferer j at link i (i != j), symmetric. The pattern buffers (theta,
    gain, gathered, pattern) are float32, the rest float64 (see the module
    docstring). The buffers are reused by every block
    and position of the scan: rows is the block capacity; a shorter block
    uses the leading rows of each buffer, which are contiguous, so no block
    allocates anything that grows with its size.
    """

    def __init__(self, params: ChannelParams, rows: int, m: int):
        self.sbs_g0 = antenna.normalization_constant(params.sbs_array)
        self.uav_array = params.uav_array
        self.uav_g0 = antenna.normalization_constant(params.uav_array)
        self.upper = np.triu_indices(m, 1)
        column = np.zeros((m, m), dtype=np.intp)
        column[self.upper] = np.arange(1, len(self.upper[0]) + 1)
        self.column = column + column.T
        k = 1 + m * (m - 1) // 2
        self.theta, self.gain = np.empty((2, rows, k), dtype=np.float32)
        self.pattern = antenna.PatternScratch(rows * k)
        self.gathered = np.empty((rows, m), dtype=np.float32)
        self.alpha, self.term, self.interference, self.sinr = np.empty((4, rows, m))
        self.flags = np.empty((rows, m), dtype=bool)
        self.scale = np.empty((rows, 1))


def _ratio_table(jitter: np.ndarray, offset: np.ndarray, out: np.ndarray,
                 work: _Workspace) -> np.ndarray:
    """out[s, c] = the UAV's axis_ratio factor at jitter[s] + offset[c], one axis.

    jitter is (S,), offset one position's offset_x or offset_y and out
    (S, 1 + M(M-1)/2). Returns out.
    """
    theta = work.theta[:jitter.shape[0]]
    np.add(jitter[:, None], offset, out=theta)
    return antenna.axis_ratio(work.uav_array, theta, out, work.pattern)


def _sinr_matrix(geom: _LinkGeometry, params: ChannelParams, ratio_x: np.ndarray,
                 ratio_y: np.ndarray, alpha: np.ndarray,
                 work: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Linear SINR and interference power (W) for S orientation draws and M links.

    ratio_x/ratio_y: the position's per-axis factor tables of shape
    (S, 1 + M(M-1)/2) (_ratio_table); alpha: per-sample LoS attenuation of
    shape (S, M); work: a workspace of at least S rows.
    Returns two (S, M) views into work, valid until its next use.
    Interference is summed over interferers j = 0..M-1 in order, with the
    operation order of the allocating expression
    tx * pl_j * alpha_j * g0 * gain, in float64 on the float32 gains.
    """
    s = ratio_x.shape[0]
    gain = antenna.gain_from_axis_ratios(work.uav_g0, ratio_x, ratio_y, work.gain[:s])
    term, gathered, scale = work.term[:s], work.gathered[:s], work.scale[:s]
    interference = work.interference[:s]
    interference.fill(0.0)
    tx = params.tx_power_w
    for j in range(work.column.shape[0]):
        # power received on every link i from interferer j's beam
        np.multiply(alpha[:, j, None], tx * geom.path_loss_sq[j], out=scale)
        np.multiply(scale, work.sbs_g0, out=term)
        # mode="clip" lets take write straight into gathered; the indices are
        # always in range
        np.take(gain, work.column[:, j], axis=1, out=gathered, mode="clip")
        np.multiply(term, gathered, out=term)
        term[:, j] = 0.0
        np.add(interference, term, out=interference)
    sinr = work.sinr[:s]
    np.multiply(alpha, tx, out=sinr)
    np.multiply(sinr, geom.path_loss_sq, out=sinr)
    np.multiply(sinr, work.sbs_g0, out=sinr)
    np.multiply(sinr, gain[:, :1], out=sinr)
    np.add(interference, params.noise_power_w, out=term)
    np.divide(sinr, term, out=sinr)
    return sinr, interference


def _checked_uavs(v) -> np.ndarray:
    """The (N, 3) UAV positions v checked by geometry.as_points, each altitude positive."""
    uavs = as_points(v)
    if not np.all(uavs[:, 2] > 0):
        raise GeometryDegenerateError(f"UAV altitude must be positive, got {uavs[:, 2].min()}")
    return uavs


def instantaneous_sinr(links, uav: Vec3, orientation: tuple[float, float],
                       params: ChannelParams) -> tuple[np.ndarray, np.ndarray]:
    """(sinr, interference_w): per-link linear SINR and interference power (W), each (M,).

    One fixed orientation, every link in line of sight; links, the (M, 3)
    station array, and uav are checked as in outage_scan.
    """
    sbs, uav = as_points(links), _checked_uavs((uav,))[0]
    work = _Workspace(params, 1, len(sbs))
    geom = _precompute(sbs, uav, params, work.upper)
    ratio_x, ratio_y = np.empty((2, 1, geom.offset_x.shape[0]), dtype=np.float32)
    _ratio_table(np.array([float(orientation[0])]), geom.offset_x, ratio_x, work)
    _ratio_table(np.array([float(orientation[1])]), geom.offset_y, ratio_y, work)
    sinr, interference = _sinr_matrix(geom, params, ratio_x, ratio_y, np.ones((1, len(sbs))),
                                      work)
    return sinr[0], interference[0]


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
    LoS probabilities: link j of draw s is in line of sight when its uniform
    is below p_los of link j at that position. Each estimate is therefore
    bit-identical to a scan of that position alone, for a given
    (seed, n_samples).

    The draws are variance-reduced but every sample keeps the plain
    Monte-Carlo distribution, so each estimate is unbiased:

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

    Positions are evaluated by altitude group (_altitude_groups), over fixed
    blocks of draws in one workspace allocated once per scan: per block, one
    x-factor table per distinct x and one y-factor table per distinct y of
    the group, then per position the gain and the SINR, whose integer failure
    counts are summed. Every draw's SINR is computed by the same row-wise
    arithmetic whatever its block and whichever position built its tables,
    so the result is bit-identical to evaluating all draws of each position
    alone in one block. progress, when given, is called as progress(k, n)
    for each of the n positions as its group completes.
    """
    if n_samples < 1:
        raise InvalidInputError("n_samples must be >= 1")
    sbs, uavs = as_points(links), _checked_uavs(uavs)
    m = len(sbs)
    theta_jx, theta_jy, uniforms = _draws(params, m, n_samples, seed)
    rows = min(_DRAW_BLOCK, n_samples)
    work = _Workspace(params, rows, m)
    failures = np.zeros((len(uavs), m), dtype=np.int64)
    done = 0
    for group in _altitude_groups(uavs):
        geoms = [_precompute(sbs, uavs[i], params, work.upper) for i in group]
        # the x-axis pair angles depend on the UAV's (x, z) alone, the y-axis
        # ones on (y, z) (geometry.pair_axis_angles), so positions of one
        # altitude that share x share their x-factor table, and likewise y
        offsets_x, offsets_y = {}, {}
        for i, geom in zip(group, geoms):
            offsets_x.setdefault(uavs[i, 0], geom.offset_x)
            offsets_y.setdefault(uavs[i, 1], geom.offset_y)
        k = work.theta.shape[1]
        table_x = dict(zip(offsets_x, np.empty((len(offsets_x), rows, k), dtype=np.float32)))
        table_y = dict(zip(offsets_y, np.empty((len(offsets_y), rows, k), dtype=np.float32)))
        for lo in range(0, n_samples, rows):
            s = min(rows, n_samples - lo)
            for x, offset in offsets_x.items():
                _ratio_table(theta_jx[lo:lo + s], offset, table_x[x][:s], work)
            for y, offset in offsets_y.items():
                _ratio_table(theta_jy[lo:lo + s], offset, table_y[y][:s], work)
            drawn = uniforms[lo:lo + s]
            alpha, flags = work.alpha[:s], work.flags[:s]
            for i, geom in zip(group, geoms):
                np.less(drawn, geom.p_los, out=flags)
                alpha.fill(params.nlos_extra_loss)
                np.copyto(alpha, 1.0, where=flags)
                sinr, _ = _sinr_matrix(geom, params, table_x[uavs[i, 0]][:s],
                                       table_y[uavs[i, 1]][:s], alpha, work)
                np.less(sinr, params.sinr_threshold, out=flags)
                failures[i] += np.count_nonzero(flags, axis=0)
        if progress is not None:
            for _ in group:
                done += 1
                progress(done, len(uavs))
    return failures / n_samples


def outage_probability(links, uav: Vec3, params: ChannelParams,
                       n_samples: int, seed: int) -> np.ndarray:
    """Monte-Carlo outage per link at one position, (M,): the share of draws below threshold.

    The one-position case of outage_scan, its one row; see there for the
    draws and for links. The tracer binds links and n_samples by name here too.
    """
    return outage_scan(links, (uav,), params, n_samples, seed)[0]


def max_outage(estimate: np.ndarray) -> float:
    """Largest entry of an (M,) per-link outage array, M >= 1."""
    return float(estimate.max())
