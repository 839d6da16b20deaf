"""Kinematic envelope of the UAV and angular geometry between the UAV and ground stations.

Positions are plain numpy arrays of shape (3,) in meters; the positions of
M ground stations stack into an (M, 3) array, and the link functions accept
either form. All functions here are pure and safe to call concurrently.
"""

from dataclasses import dataclass

import numpy as np

from uavthz.errors import GeometryDegenerateError, InvalidInputError

Vec3 = np.ndarray


def vec3(x: float, y: float, z: float) -> Vec3:
    """Build a finite 3-vector, rejecting NaN/Inf components."""
    v = np.array([x, y, z], dtype=float)
    if not np.all(np.isfinite(v)):
        raise InvalidInputError(f"non-finite vector components: {v}")
    return v


def as_vec3(v) -> Vec3:
    """Coerce to a finite (3,) float array."""
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise InvalidInputError(f"expected a 3-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"non-finite vector components: {a}")
    return a


def as_points(v) -> np.ndarray:
    """Coerce to a finite float array of one (3,) or several (M, 3) positions."""
    a = np.asarray(v, dtype=float)
    if a.ndim not in (1, 2) or a.shape[-1] != 3:
        raise InvalidInputError(f"expected (3,) or (M, 3) positions, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"non-finite position components: {a}")
    return a


@dataclass
class KinematicLimits:
    """Speed, acceleration and altitude envelope of the vehicle."""

    v_max: float = 8.0    # m/s
    a_max: float = 4.0    # m/s^2
    h_min: float = 30.0   # m
    h_max: float = 130.0  # m

    def __post_init__(self):
        if self.v_max <= 0 or self.a_max <= 0:
            raise InvalidInputError("v_max and a_max must be positive")
        if not 0 < self.h_min < self.h_max:
            raise InvalidInputError("need 0 < h_min < h_max")


def _axis_angle(u, a, b, z):
    # Angle between the (a - u, -z) and (b - u, -z) directions in one
    # vertical plane, written in the law-of-cosines form with the acos
    # argument clamped against floating-point overshoot. Elementwise; the
    # result is symmetric in (a, b) bit for bit and exactly 0 where a == b.
    da, db = u - a, u - b
    num = da * da + db * db + 2.0 * z * z - (a - b) ** 2
    den = 2.0 * np.sqrt((da * da + z * z) * (db * db + z * z))
    return np.arccos(np.clip(num / den, -1.0, 1.0))


def pair_axis_angles(uav: Vec3, sbs_positions) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis angular separations between the links to every pair of ground stations.

    sbs_positions is (M, 3). Returns (theta_x, theta_y), each an (M, M)
    symmetric matrix with zero diagonal and entries in [0, pi]: entry (i, j)
    is the angle between the links to stations i and j projected onto the
    x-z (resp. y-z) vertical plane.
    """
    uav, pts = as_vec3(uav), as_points(sbs_positions)
    if pts.ndim != 2:
        raise InvalidInputError(f"expected (M, 3) station positions, got shape {pts.shape}")
    if uav[2] <= 0:
        raise GeometryDegenerateError(f"UAV altitude must be positive, got {uav[2]}")
    tx = _axis_angle(uav[0], pts[:, 0, None], pts[None, :, 0], uav[2])
    ty = _axis_angle(uav[1], pts[:, 1, None], pts[None, :, 1], uav[2])
    return tx, ty


def elevation_angle(uav: Vec3, sbs) -> float | np.ndarray:
    """Elevation of the UAV as seen from one (3,) or several (M, 3) ground stations.

    Each value lies in (0, pi/2]; directly overhead (zero horizontal offset)
    returns exactly pi/2.
    """
    uav, sbs = as_vec3(uav), as_points(sbs)
    if uav[2] <= 0:
        raise GeometryDegenerateError(f"UAV altitude must be positive, got {uav[2]}")
    horiz = np.hypot(uav[0] - sbs[..., 0], uav[1] - sbs[..., 1])
    return np.arctan2(uav[2], horiz)


def link_length(uav: Vec3, sbs) -> float | np.ndarray:
    """Euclidean distance from the UAV to one (3,) or several (M, 3) endpoints."""
    d = as_vec3(uav) - as_points(sbs)
    # vecdot is the same dot product np.linalg.norm takes of one vector, so
    # stacked and single lengths equal np.linalg.norm bit for bit.
    return np.sqrt(np.vecdot(d, d))


def trajectory_time(waypoints, speeds) -> float:
    """Total travel time along a piecewise-linear path, one speed per segment."""
    pts = [as_vec3(w) for w in waypoints]
    spd = [float(s) for s in speeds]
    if len(pts) != len(spd) + 1:
        raise InvalidInputError(
            f"{len(pts)} waypoints need {max(len(pts) - 1, 0)} speeds, got {len(spd)}"
        )
    if any(not np.isfinite(s) or s <= 0 for s in spd):
        raise InvalidInputError("segment speeds must be positive and finite")
    total = 0.0
    for k, v in enumerate(spd):
        total += float(np.linalg.norm(pts[k + 1] - pts[k])) / v
    return total
