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
"""

from dataclasses import dataclass

import numpy as np

from uavthz import antenna, geometry
from uavthz.antenna import ArrayAntennaConfig
from uavthz.errors import InvalidInputError
from uavthz.geometry import Vec3, as_vec3

SPEED_OF_LIGHT = 3.0e8  # m/s

LOS_PER_SAMPLE = "per-sample"
LOS_PER_CALL = "per-call"

# Draws per _sinr_matrix call in outage_probability. Bounds the per-block
# temporaries (the (S, 16) gain table is 128 KB for six links, the (S, M)
# interference sums 48 KB) so peak memory does not grow with S.
_DRAW_BLOCK = 1024


@dataclass
class ChannelParams:
    """Propagation and detection constants for every link in a scenario."""

    carrier_hz: float = 140e9
    absorption_coeff: float = 1e-3        # 1/m
    noise_power_w: float = 1e-22          # W (-190 dBm)
    sinr_threshold: float = 10 ** 0.5     # linear (5 dB)
    los_alpha: float = 9.61
    los_b: float = 0.16
    nlos_extra_loss: float = 0.01         # linear (-20 dB)
    vibration_std_rad: float = np.deg2rad(2.0)
    los_mode: str = LOS_PER_SAMPLE

    def __post_init__(self):
        if self.carrier_hz <= 0 or self.noise_power_w <= 0 or self.sinr_threshold <= 0:
            raise InvalidInputError("carrier, noise power and SINR threshold must be positive")
        if self.absorption_coeff < 0:
            raise InvalidInputError("absorption coefficient must be >= 0")
        if not 0.0 <= self.nlos_extra_loss <= 1.0:
            raise InvalidInputError("nlos_extra_loss must lie in [0, 1]")
        if self.vibration_std_rad < 0:
            raise InvalidInputError("vibration std must be >= 0")
        if self.los_alpha < 0 or self.los_b < 0:
            raise InvalidInputError("LoS constants must be >= 0")
        if self.los_mode not in (LOS_PER_SAMPLE, LOS_PER_CALL):
            raise InvalidInputError(f"unknown los_mode {self.los_mode!r}")

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
        if self.tx_power_w <= 0:
            raise InvalidInputError("tx_power_w must be positive")
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
            ArrayAntennaConfig(lk.sbs_array_n_side, uav_array.spacing_over_lambda,
                               params.carrier_hz))
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


def _sinr_matrix(geom: _LinkGeometry, params: ChannelParams,
                 theta_jx: np.ndarray, theta_jy: np.ndarray,
                 alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Linear SINR and interference power (W) for S orientation draws and M links.

    theta_jx/theta_jy: jitter draws of shape (S,); alpha: per-sample LoS
    attenuation of shape (S, M). Returns two (S, M) arrays. Interference is
    summed into an (S, M) array over interferers j = 0..M-1 in order.
    """
    gain = antenna.gain_at_axis_offsets(geom.uav_array,
                                        theta_x=theta_jx[:, None] + geom.offset_x,
                                        theta_y=theta_jy[:, None] + geom.offset_y)
    m = geom.column.shape[0]
    interference = np.zeros((theta_jx.shape[0], m))
    for j in range(m):
        # power received on every link i from interferer j's beam
        term = (geom.tx_power[j] * geom.path_loss_sq[j]
                * alpha[:, j, None] * geom.sbs_g0[None, :] * gain[:, geom.column[:, j]])
        term[:, j] = 0.0
        interference += term
    signal = (geom.tx_power[None, :] * alpha * geom.path_loss_sq[None, :]
              * geom.sbs_g0[None, :] * gain[:, :1])
    return signal / (interference + params.noise_power_w), interference


def instantaneous_sinr(links, uav: Vec3, orientation: tuple[float, float],
                       params: ChannelParams) -> SinrSample:
    """Per-link SINR for one fixed orientation and the links' own LoS flags."""
    geom = _precompute(links, uav, params)
    tx = np.array([float(orientation[0])])
    ty = np.array([float(orientation[1])])
    alpha = np.where([[lk.los_flag for lk in links]], 1.0, params.nlos_extra_loss)
    sinr, interference = _sinr_matrix(geom, params, tx, ty, alpha)
    return SinrSample(sinr[0], interference[0], (float(orientation[0]), float(orientation[1])))


def outage_probability(links, uav: Vec3, params: ChannelParams,
                       n_samples: int, seed: int) -> OutageEstimate:
    """Monte-Carlo outage per link: fraction of draws with SINR below threshold.

    Each sample draws the orientation jitter from N(0, sigma^2) per axis and,
    in per-sample mode, an independent Bernoulli LoS state per link; per-call
    mode draws the LoS states once and holds them across samples. The draw
    order is fixed, so results are bit-identical for a given (seed, n_samples).
    All draws are made up front; the SINR is then evaluated over fixed blocks
    of draws and the integer failure counts are summed. Every draw's SINR is
    computed by the same row-wise arithmetic whatever its block, so the result
    is bit-identical to evaluating all draws in one block.
    """
    if n_samples < 1:
        raise InvalidInputError("n_samples must be >= 1")
    geom = _precompute(links, uav, params)
    m = len(links)
    rng = np.random.default_rng(seed)
    theta_jx = rng.normal(0.0, params.vibration_std_rad, size=n_samples)
    theta_jy = rng.normal(0.0, params.vibration_std_rad, size=n_samples)
    if params.los_mode == LOS_PER_CALL:
        flags = rng.random(m)[None, :] < geom.p_los[None, :]
        flags = np.broadcast_to(flags, (n_samples, m))
    else:
        flags = rng.random((n_samples, m)) < geom.p_los[None, :]
    alpha = np.where(flags, 1.0, params.nlos_extra_loss)
    failures = np.zeros(m, dtype=np.int64)
    for lo in range(0, n_samples, _DRAW_BLOCK):
        hi = lo + _DRAW_BLOCK
        sinr, _ = _sinr_matrix(geom, params, theta_jx[lo:hi], theta_jy[lo:hi], alpha[lo:hi])
        failures += np.count_nonzero(sinr < params.sinr_threshold, axis=0)
    return OutageEstimate(failures / n_samples, n_samples, seed)


def max_outage(estimate: OutageEstimate) -> float:
    """Largest per-link outage probability."""
    if estimate.per_link_outage.size == 0:
        raise InvalidInputError("outage estimate covers no links")
    return float(estimate.per_link_outage.max())
