"""THz link budget, LoS probability, interference-aware SINR and Monte-Carlo outage.

The channel amplitude of a link of length L combines free-space loss
(lambda / (4*pi*L))^2 with molecular absorption exp(-K*L/2), so the squared
magnitude entering the SINR is (lambda / (4*pi*L))^4 * exp(-K*L). Ground
stations steer perfectly at the UAV (gain equals their normalization
constant); the UAV side is evaluated at the angular offsets implied by link
geometry plus the UAV's Gaussian orientation jitter.

All links of a scenario share one UAV array, and the per-axis angle between
the links to stations i and j is symmetric in (i, j). Each draw therefore
needs the UAV pattern at 1 + M(M-1)/2 distinct offsets (16 for six links):
the jitter alone, which gives every link's desired gain, and the jitter plus
the angles of each unordered station pair, which gives the interference.
Link geometry (lengths, elevations, pair angles) is evaluated for all
stations at once.

outage_scan is the one Monte-Carlo outage path; outage_probability is its
one-position case. A scan makes its random draws once and shares them across
its positions (common random numbers), and evaluates them in fixed blocks in
one workspace allocated per scan: the pattern and the SINR are in-place ufunc
chains over that workspace, so no block allocates anything that grows with
its size.
"""

from dataclasses import dataclass

import numpy as np

from uavthz import antenna, geometry
from uavthz.antenna import ArrayAntennaConfig
from uavthz.errors import InvalidInputError, require
from uavthz.geometry import Vec3, as_vec3

SPEED_OF_LIGHT = 3.0e8  # m/s

LOS_PER_SAMPLE = "per-sample"
LOS_PER_CALL = "per-call"

# Draws per _sinr_matrix call in outage_scan. Sizes the scan's one workspace
# (the (S, 16) gain table is 128 KB for six links, the (S, M) interference
# sums 48 KB) so memory does not grow with S.
_DRAW_BLOCK = 1024


@dataclass
class ChannelParams:
    """Propagation and detection constants for every link in a scenario, in SI units."""

    carrier_hz: float
    absorption_coeff: float               # 1/m
    noise_power_w: float
    sinr_threshold: float                 # linear
    los_alpha: float
    los_b: float
    nlos_extra_loss: float                # linear
    vibration_std_rad: float
    los_mode: str

    def __post_init__(self):
        for name in ("carrier_hz", "noise_power_w", "sinr_threshold"):
            require(getattr(self, name) > 0, f"{name} must be positive", name)
        require(self.absorption_coeff >= 0, "absorption coefficient must be >= 0",
                "absorption_coeff")
        require(0.0 <= self.nlos_extra_loss <= 1.0, "nlos_extra_loss must lie in [0, 1]",
                "nlos_extra_loss")
        require(self.vibration_std_rad >= 0, "vibration std must be >= 0", "vibration_std_rad")
        for name in ("los_alpha", "los_b"):
            require(getattr(self, name) >= 0, f"{name} must be >= 0", name)
        require(self.los_mode in (LOS_PER_SAMPLE, LOS_PER_CALL),
                f"unknown los_mode {self.los_mode!r}", "los_mode")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz


@dataclass
class LinkState:
    """One ground station and the antenna pair serving it."""

    sbs_position: Vec3
    tx_power_w: float
    uav_array: ArrayAntennaConfig
    sbs_array_n_side: int
    los_flag: bool = True  # True = line of sight

    def __post_init__(self):
        self.sbs_position = as_vec3(self.sbs_position)
        if self.sbs_array_n_side < 1:
            raise InvalidInputError("sbs_array_n_side must be >= 1")


@dataclass
class SinrSample:
    """Per-link linear SINR and interference power (W) for one orientation realization."""

    per_link_sinr: np.ndarray
    per_link_interference_w: np.ndarray
    orientation: tuple[float, float]


@dataclass
class OutageEstimate:
    """Per-link Monte-Carlo outage probabilities with their sample count and seed."""

    per_link_outage: np.ndarray
    n_samples: int
    seed: int

    def __post_init__(self):
        self.per_link_outage = np.asarray(self.per_link_outage, dtype=float)
        if np.any(self.per_link_outage < 0) or np.any(self.per_link_outage > 1):
            raise InvalidInputError("outage probabilities must lie in [0, 1]")


def _check_length(length):
    if np.any(np.asarray(length) <= 0):
        raise InvalidInputError(f"link length must be positive, got {length}")


def free_space_term(params: ChannelParams, length):
    """(lambda / (4*pi*L))^2, the free-space factor of the channel amplitude, elementwise in L."""
    _check_length(length)
    return (params.wavelength / (4.0 * np.pi * np.asarray(length))) ** 2


def absorption_term(params: ChannelParams, length):
    """exp(-K*L/2), the molecular-absorption factor of the channel amplitude, elementwise in L."""
    _check_length(length)
    return np.exp(-0.5 * params.absorption_coeff * np.asarray(length))


def path_loss(params: ChannelParams, length):
    """Squared channel magnitude |h_L|^2 = (lambda/(4*pi*L))^4 * exp(-K*L)."""
    return (free_space_term(params, length) * absorption_term(params, length)) ** 2


def los_probability(params: ChannelParams, elevation):
    """Line-of-sight probability at the given elevation angle(s) (radians)."""
    deg = np.degrees(elevation)
    return 1.0 / (1.0 + params.los_alpha * np.exp(-params.los_b * (deg - params.los_alpha)))


@dataclass
class _LinkGeometry:
    """Everything about a (links, uav) pair that does not depend on random draws.

    The UAV gain is looked up at (S, 1 + M(M-1)/2) per-axis offsets per block
    of draws: column 0 is the jitter alone (the desired gain, shared by every
    link) and column 1 + p adds the axis angles of unordered station pair p.
    column[i, j] is the table column of interferer j at link i (i != j).
    """

    tx_power: np.ndarray          # (M,)
    path_loss_sq: np.ndarray      # (M,) |h_L|^2 per link
    sbs_g0: np.ndarray            # (M,) receiving-side normalization constant
    p_los: np.ndarray             # (M,)
    offset_x: np.ndarray          # (1 + M(M-1)/2,) zero, then pair axis angles
    offset_y: np.ndarray          # (1 + M(M-1)/2,)
    column: np.ndarray            # (M, M) int, symmetric
    uav_array: ArrayAntennaConfig


def _precompute(links, uav: Vec3, params: ChannelParams) -> _LinkGeometry:
    if len(links) < 1:
        raise InvalidInputError("need at least one link")
    uav_array = links[0].uav_array
    if any(lk.uav_array != uav_array for lk in links):
        raise InvalidInputError("all links must share one UAV array")
    m = len(links)
    sbs = np.array([lk.sbs_position for lk in links])
    tx = np.array([lk.tx_power_w for lk in links])
    pl = path_loss(params, geometry.link_length(uav, sbs))
    g0s = np.array([
        antenna.normalization_constant(
            ArrayAntennaConfig(lk.sbs_array_n_side, uav_array.spacing_over_lambda))
        for lk in links
    ])
    p_los = los_probability(params, geometry.elevation_angle(uav, sbs))
    thx, thy = geometry.pair_axis_angles(uav, sbs)
    upper = np.triu_indices(m, 1)
    column = np.zeros((m, m), dtype=np.intp)
    column[upper] = np.arange(1, len(upper[0]) + 1)
    column = column + column.T
    return _LinkGeometry(tx, pl, g0s, p_los, np.concatenate(([0.0], thx[upper])),
                         np.concatenate(([0.0], thy[upper])), column, uav_array)


class _Workspace:
    """Buffers for one block of draws, reused by every block and position of a scan.

    rows is the block capacity; a shorter block uses the leading rows of each
    buffer, which are contiguous, so no block allocates anything that grows
    with its size.
    """

    def __init__(self, rows: int, m: int):
        k = 1 + m * (m - 1) // 2
        self.theta_x, self.theta_y, self.gain = np.empty((3, rows, k))
        self.pattern = antenna.PatternScratch(rows * k)
        self.alpha, self.term, self.gathered, self.interference, self.sinr = (
            np.empty((5, rows, m)))
        self.flags = np.empty((rows, m), dtype=bool)
        self.scale = np.empty((rows, 1))


def _sinr_matrix(geom: _LinkGeometry, params: ChannelParams,
                 theta_jx: np.ndarray, theta_jy: np.ndarray,
                 alpha: np.ndarray, work: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Linear SINR and interference power (W) for S orientation draws and M links.

    theta_jx/theta_jy: jitter draws of shape (S,); alpha: per-sample LoS
    attenuation of shape (S, M); work: a workspace of at least S rows.
    Returns two (S, M) views into work, valid until its next use.
    Interference is summed over interferers j = 0..M-1 in order, with the
    operation order of the allocating expression
    tx_j * pl_j * alpha_j * g0 * gain, so every value is bit-identical to it.
    """
    s = theta_jx.shape[0]
    theta_x, theta_y, gain = work.theta_x[:s], work.theta_y[:s], work.gain[:s]
    np.add(theta_jx[:, None], geom.offset_x, out=theta_x)
    np.add(theta_jy[:, None], geom.offset_y, out=theta_y)
    antenna.gain_at_axis_offsets(geom.uav_array, theta_x=theta_x, theta_y=theta_y,
                                 out=gain, scratch=work.pattern)
    term, gathered, scale = work.term[:s], work.gathered[:s], work.scale[:s]
    interference = work.interference[:s]
    interference.fill(0.0)
    for j in range(geom.column.shape[0]):
        # power received on every link i from interferer j's beam
        np.multiply(alpha[:, j, None], geom.tx_power[j] * geom.path_loss_sq[j], out=scale)
        np.multiply(scale, geom.sbs_g0, out=term)
        # mode="clip" lets take write straight into gathered; the indices are
        # always in range
        np.take(gain, geom.column[:, j], axis=1, out=gathered, mode="clip")
        np.multiply(term, gathered, out=term)
        term[:, j] = 0.0
        np.add(interference, term, out=interference)
    sinr = work.sinr[:s]
    np.multiply(alpha, geom.tx_power, out=sinr)
    np.multiply(sinr, geom.path_loss_sq, out=sinr)
    np.multiply(sinr, geom.sbs_g0, out=sinr)
    np.multiply(sinr, gain[:, :1], out=sinr)
    np.add(interference, params.noise_power_w, out=term)
    np.divide(sinr, term, out=sinr)
    return sinr, interference


def instantaneous_sinr(links, uav: Vec3, orientation: tuple[float, float],
                       params: ChannelParams) -> SinrSample:
    """Per-link SINR for one fixed orientation and the links' own LoS flags."""
    geom = _precompute(links, uav, params)
    tx = np.array([float(orientation[0])])
    ty = np.array([float(orientation[1])])
    alpha = np.where([[lk.los_flag for lk in links]], 1.0, params.nlos_extra_loss)
    sinr, interference = _sinr_matrix(geom, params, tx, ty, alpha, _Workspace(1, len(links)))
    return SinrSample(sinr[0], interference[0], (float(orientation[0]), float(orientation[1])))


def outage_scan(links, uavs, params: ChannelParams, n_samples: int, seed: int):
    """Yield the Monte-Carlo outage per link at each UAV position of `uavs`, in order.

    Every position sees the same draws (common random numbers): the jitter
    from N(0, sigma^2) per axis, then the LoS uniforms, one per link and
    sample in per-sample mode or one per link in per-call mode (held across
    samples). The draws are made once per scan; a position only changes which
    uniforms fall below its LoS probabilities. Each estimate is therefore
    bit-identical to a scan of that position alone, for a given
    (seed, n_samples).

    The SINR is evaluated over fixed blocks of draws in one workspace that is
    allocated once per scan, and the integer failure counts are summed. Every
    draw's SINR is computed by the same row-wise arithmetic whatever its
    block, so the result is bit-identical to evaluating all draws in one
    block.
    """
    if n_samples < 1:
        raise InvalidInputError("n_samples must be >= 1")
    m = len(links)
    per_call = params.los_mode == LOS_PER_CALL
    rng = np.random.default_rng(seed)
    theta_jx = rng.normal(0.0, params.vibration_std_rad, size=n_samples)
    theta_jy = rng.normal(0.0, params.vibration_std_rad, size=n_samples)
    uniforms = rng.random(m if per_call else (n_samples, m))
    rows = min(_DRAW_BLOCK, n_samples)
    work = _Workspace(rows, m)
    for uav in uavs:
        geom = _precompute(links, uav, params)
        if per_call:
            # one LoS state per link, held by every row of every block
            np.copyto(work.alpha, np.where(uniforms < geom.p_los, 1.0, params.nlos_extra_loss))
        failures = np.zeros(m, dtype=np.int64)
        for lo in range(0, n_samples, rows):
            hi = min(lo + rows, n_samples)
            alpha, flags = work.alpha[:hi - lo], work.flags[:hi - lo]
            if not per_call:
                np.less(uniforms[lo:hi], geom.p_los, out=flags)
                alpha.fill(params.nlos_extra_loss)
                np.copyto(alpha, 1.0, where=flags)
            sinr, _ = _sinr_matrix(geom, params, theta_jx[lo:hi], theta_jy[lo:hi], alpha, work)
            np.less(sinr, params.sinr_threshold, out=flags)
            failures += np.count_nonzero(flags, axis=0)
        yield OutageEstimate(failures / n_samples, n_samples, seed)


def outage_probability(links, uav: Vec3, params: ChannelParams,
                       n_samples: int, seed: int) -> OutageEstimate:
    """Monte-Carlo outage per link at one position: fraction of draws with SINR below threshold.

    The one-position case of outage_scan; see there for the draws.
    """
    return next(outage_scan(links, (uav,), params, n_samples, seed))


def max_outage(estimate: OutageEstimate) -> float:
    """Largest per-link outage probability."""
    if estimate.per_link_outage.size == 0:
        raise InvalidInputError("outage estimate covers no links")
    return float(estimate.per_link_outage.max())
