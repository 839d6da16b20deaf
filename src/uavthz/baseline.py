"""Brute-force and heuristic placement baselines used as optimality yardsticks.

The grid search evaluates the worst-link outage on a full 3D lattice that
spans the environment's flight box, faces included, and scores the static
centre in the same channel.outage_scan. One scan draws once, so comparisons
between its rows, and with any policy scored with the same seed and draw
count, are free of sampling noise.
"""

import numpy as np

from uavthz import channel, geometry
from uavthz.environment import Environment, Topology
from uavthz.geometry import KinematicLimits, Vec3


def scan_grid(env: Environment, x_steps: int, y_steps: int, z_steps: int, mc_samples: int,
              seed: int, progress=None) -> tuple[np.ndarray, np.ndarray, int]:
    """(points, worst, best): the lattice and the static centre scored in one scan.

    points is (N + 1, 3): the N = x_steps * y_steps * z_steps lattice points, x
    slowest and z fastest, each axis a linspace over the flight box (one step:
    its lower bound), then static_center_policy's position. worst holds each
    row's worst-link outage from one channel.outage_scan of mc_samples draws
    from seed, which gets progress. best is the first lattice row at the least
    worst, so ties go to the lexicographically smallest point.
    """
    axes = [np.linspace(lo, hi, n) for lo, hi, n
            in zip(*env.config.box, (x_steps, y_steps, z_steps))]
    lattice = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 3)
    points = np.vstack([lattice, static_center_policy(env.topology, env.config.limits)])
    worst = channel.outage_scan(env.topology.sbs_list, points, env.params,
                                mc_samples, seed, progress).max(axis=1)
    return points, worst, int(np.argmin(worst[:-1]))


def static_center_policy(topology: Topology, limits: KinematicLimits) -> Vec3:
    """Centroid of the active stations at the midpoint of the altitude window."""
    centroid = topology.sbs_list.mean(axis=0)
    return geometry.vec3(float(centroid[0]), float(centroid[1]),
                         0.5 * (limits.h_min + limits.h_max))
