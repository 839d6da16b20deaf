"""Kinematic envelope of the UAV and angular geometry between the UAV and ground stations.

Positions are plain numpy arrays of shape (3,) in meters; N of them (the
ground stations, or the UAV positions of a scan) stack into an (N, 3) array.
A position is checked once, where it enters the program (as_vec3, as_points):
numbers, finite and at most MAX_COORD_M in magnitude, else InvalidInputError.
The link functions take a checked (3,) UAV with positive altitude and checked
(M, 3) stations, and check nothing. All functions here are pure and safe to
call concurrently.
"""

from dataclasses import dataclass

import numpy as np

from uavthz.errors import InvalidInputError, require

Vec3 = np.ndarray

# Largest coordinate magnitude a position may have, in meters. Far below the
# ~1e76 m at which _axis_angle's (da^2 + z^2) * (db^2 + z^2) overflows, so
# every link function is finite on checked positions.
MAX_COORD_M = 1e6


def _within_bound(a: np.ndarray) -> np.ndarray:
    # NaN compares false, so this one test also rejects non-finite values
    if not np.all(np.abs(a) <= MAX_COORD_M):
        raise InvalidInputError(
            f"position coordinates must be finite and within {MAX_COORD_M:g} m, got {a}")
    return a


def _as_float_array(v) -> np.ndarray:
    try:
        return np.asarray(v, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged or non-numeric input
        raise InvalidInputError(f"position coordinates must be numbers: {exc}") from exc


def as_vec3(v) -> Vec3:
    """Coerce to a (3,) float array of finite coordinates within MAX_COORD_M."""
    a = _as_float_array(v)
    if a.shape != (3,):
        raise InvalidInputError(f"expected a 3-vector, got shape {a.shape}")
    return _within_bound(a)


def vec3(x: float, y: float, z: float) -> Vec3:
    """The checked position (x, y, z) (as_vec3)."""
    return as_vec3((x, y, z))


def as_points(v) -> np.ndarray:
    """Coerce to an (N, 3) float array of N >= 1 positions, each checked like as_vec3."""
    a = _as_float_array(v)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] != 3:
        raise InvalidInputError(f"expected (N, 3) positions, N >= 1, got shape {a.shape}")
    return _within_bound(a)


@dataclass
class KinematicLimits:
    """Speed, acceleration and altitude envelope of the vehicle, and its control step."""

    v_max: float    # m/s
    a_max: float    # m/s^2
    h_min: float    # m
    h_max: float    # m
    dt: float       # s

    def __post_init__(self):
        for name in ("v_max", "a_max", "dt"):
            require(getattr(self, name) > 0, f"{name} must be positive", name)
        require(0 < self.h_min < self.h_max, "need 0 < h_min < h_max", "h_min", "h_max")
        require(self.h_max <= MAX_COORD_M, f"h_max must be at most {MAX_COORD_M:g} m", "h_max")
        # dt < 1e154 first: from about 1.3e154 on, dt ** 2 raises OverflowError
        require(self.dt < 1e154 and self.action_scale <= MAX_COORD_M,
                f"the action scale v_max*dt + a_max*dt^2/2 must be at most {MAX_COORD_M:g} m",
                "v_max", "a_max", "dt")

    @property
    def action_scale(self) -> float:
        """Largest per-step displacement: v_max*dt + a_max*dt^2/2."""
        return self.v_max * self.dt + 0.5 * self.a_max * self.dt ** 2


def _axis_angle(u, a, b, z):
    # Angle between the (a - u, -z) and (b - u, -z) directions in one
    # vertical plane, written in the law-of-cosines form with the acos
    # argument clamped against floating-point overshoot. Elementwise; the
    # result is symmetric in (a, b) bit for bit and exactly 0 where a == b.
    da, db = u - a, u - b
    num = da * da + db * db + 2.0 * z * z - (a - b) ** 2
    den = 2.0 * np.sqrt((da * da + z * z) * (db * db + z * z))
    return np.arccos(np.clip(num / den, -1.0, 1.0))


def pair_axis_angles(uav: Vec3, sbs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis angular separations between the links to every pair of ground stations.

    sbs is (M, 3). Returns (theta_x, theta_y), each an (M, M) symmetric
    matrix with zero diagonal and entries in [0, pi]: entry (i, j) is the
    angle between the links to stations i and j projected onto the x-z
    (resp. y-z) vertical plane.
    """
    tx = _axis_angle(uav[0], sbs[:, 0, None], sbs[None, :, 0], uav[2])
    ty = _axis_angle(uav[1], sbs[:, 1, None], sbs[None, :, 1], uav[2])
    return tx, ty


def elevation_angle(uav: Vec3, sbs: np.ndarray) -> np.ndarray:
    """Elevation of the UAV as seen from each of the (M, 3) ground stations sbs.

    Each value lies in (0, pi/2]; directly overhead (zero horizontal offset)
    returns exactly pi/2.
    """
    horiz = np.hypot(uav[0] - sbs[:, 0], uav[1] - sbs[:, 1])
    return np.arctan2(uav[2], horiz)


def link_length(uav: Vec3, sbs: np.ndarray) -> np.ndarray:
    """Euclidean distance from the UAV to each of the (M, 3) endpoints sbs."""
    d = uav - sbs
    # vecdot is the dot product np.linalg.norm takes of one vector, so each
    # length equals np.linalg.norm of its difference bit for bit.
    return np.sqrt(np.vecdot(d, d))
