"""Brute-force and heuristic placement baselines used as optimality yardsticks.

The grid search evaluates the worst-link outage on a full 3D lattice that
spans the environment's flight box, faces included, with a single shared
Monte-Carlo seed, so comparisons between grid points (and against any policy
scored with the same seed) are free of sampling noise.
The whole lattice is one channel.outage_scan, which draws once and, at each
altitude, computes the per-axis pattern factors once per lattice x and once
per lattice y instead of once per point: 15 + 15 tables per altitude and
block of draws instead of 2 x 225 on the default 15 x 15 x 5 lattice.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from uavthz import channel, geometry
from uavthz.environment import Environment, Topology
from uavthz.errors import require
from uavthz.geometry import KinematicLimits, Vec3


@dataclass
class GridSearchSpec:
    """Lattice shape and Monte-Carlo budget of the placement oracle."""

    x_steps: int
    y_steps: int
    z_steps: int
    mc_samples: int
    seed: int

    def __post_init__(self):
        # A 1-count axis is allowed and collapses to the lower bound.
        for name in ("x_steps", "y_steps", "z_steps", "mc_samples"):
            require(getattr(self, name) >= 1, f"{name} must be >= 1", name)


def scan_grid(env: Environment, spec: GridSearchSpec, progress=None):
    """Yield (position, max_outage) for every lattice point in lexicographic order.

    The lattice is one outage scan, so the rows come once it completes;
    progress, when given, is called as progress(k, n) for each of the n
    lattice points as its altitude completes.
    """
    axes = [np.linspace(lo, hi, n) for lo, hi, n
            in zip(*env.config.box, (spec.x_steps, spec.y_steps, spec.z_steps))]
    points = [geometry.vec3(float(x), float(y), float(z))
              for x, y, z in itertools.product(*axes)]
    estimates = channel.outage_scan(env.topology.sbs_list, points, env.params,
                                    spec.mc_samples, spec.seed, progress)
    for pos, est in zip(points, estimates):
        yield pos, channel.max_outage(est)


def grid_search_best_position(env: Environment, spec: GridSearchSpec,
                              progress=None) -> tuple[Vec3, float, list]:
    """Lattice point with the lowest worst-link outage, ties broken lexicographically.

    Returns (best position, its worst-link outage, every (position,
    max_outage) row of the scan in lattice order). progress is passed to
    scan_grid.
    """
    rows = list(scan_grid(env, spec, progress))
    # min keeps the first of equal values, the lexicographically smallest point
    best_pos, best_val = min(rows, key=lambda row: row[1])
    return best_pos, best_val, rows


def static_center_policy(topology: Topology, limits: KinematicLimits) -> Vec3:
    """Centroid of the active stations at the midpoint of the altitude window."""
    centroid = topology.sbs_list.mean(axis=0)
    return geometry.vec3(float(centroid[0]), float(centroid[1]),
                         0.5 * (limits.h_min + limits.h_max))
