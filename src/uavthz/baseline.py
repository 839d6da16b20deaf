"""Brute-force and heuristic placement baselines used as optimality yardsticks.

The grid search evaluates the worst-link outage on a full 3D lattice that
spans the environment's flight box, faces included, with a single shared
Monte-Carlo seed, so comparisons between grid points (and against any policy
scored with the same seed) are free of sampling noise. The whole lattice is
one channel.outage_scan, which shares its per-axis tables between lattice
points (see there).
"""

import numpy as np

from uavthz import channel, geometry
from uavthz.environment import Environment, Topology
from uavthz.geometry import KinematicLimits, Vec3


def scan_grid(env: Environment, x_steps: int, y_steps: int, z_steps: int, mc_samples: int,
              seed: int, progress=None):
    """Yield (position, max_outage) for every lattice point in lexicographic order.

    The lattice is one (x_steps * y_steps * z_steps, 3) array, x slowest and
    z fastest, each axis a linspace over the flight box (one step: its lower
    bound), which channel.outage_scan checks and scores in one scan of
    mc_samples draws from seed, so the rows come once it completes; progress,
    when given, is called as progress(k, n) for each of the n lattice points
    as its altitude completes.
    """
    axes = [np.linspace(lo, hi, n) for lo, hi, n
            in zip(*env.config.box, (x_steps, y_steps, z_steps))]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 3)
    outages = channel.outage_scan(env.topology.sbs_list, points, env.params,
                                  mc_samples, seed, progress)
    for pos, outage in zip(points, outages):
        yield pos, channel.max_outage(outage)


def grid_search_best_position(env: Environment, x_steps: int, y_steps: int, z_steps: int,
                              mc_samples: int, seed: int,
                              progress=None) -> tuple[Vec3, float, list]:
    """Lattice point with the lowest worst-link outage, ties broken lexicographically.

    Returns (best position, its worst-link outage, every (position,
    max_outage) row of the scan in lattice order). The arguments are
    scan_grid's.
    """
    rows = list(scan_grid(env, x_steps, y_steps, z_steps, mc_samples, seed, progress))
    # min keeps the first of equal values, the lexicographically smallest point
    best_pos, best_val = min(rows, key=lambda row: row[1])
    return best_pos, best_val, rows


def static_center_policy(topology: Topology, limits: KinematicLimits) -> Vec3:
    """Centroid of the active stations at the midpoint of the altitude window."""
    centroid = topology.sbs_list.mean(axis=0)
    return geometry.vec3(float(centroid[0]), float(centroid[1]),
                         0.5 * (limits.h_min + limits.h_max))
