"""Brute-force and heuristic placement baselines used as optimality yardsticks.

The grid search evaluates the worst-link outage on a full 3D lattice with a
single shared Monte-Carlo seed, so comparisons between grid points (and
against any policy scored with the same seed) are free of sampling noise.
The whole lattice is one channel.outage_scan, which draws once and, at each
altitude, computes the per-axis pattern factors once per lattice x and once
per lattice y instead of once per point: 15 + 15 tables per altitude and
block of draws instead of 2 x 225 on the default 15 x 15 x 5 lattice.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from uavthz import channel, geometry
from uavthz.channel import ChannelParams
from uavthz.environment import Topology
from uavthz.errors import require
from uavthz.geometry import KinematicLimits, Vec3


@dataclass
class GridSearchSpec:
    """Lattice shape and Monte-Carlo budget of the placement oracle."""

    x_steps: int
    y_steps: int
    z_steps: int
    x_range: tuple
    y_range: tuple
    z_range: tuple
    mc_samples: int
    seed: int

    def __post_init__(self):
        # A 1-count axis is allowed and collapses to the lower bound.
        for name in ("x_steps", "y_steps", "z_steps", "mc_samples"):
            require(getattr(self, name) >= 1, f"{name} must be >= 1", name)

    def axes(self):
        return (np.linspace(*self.x_range, self.x_steps),
                np.linspace(*self.y_range, self.y_steps),
                np.linspace(*self.z_range, self.z_steps))


def scan_grid(topology: Topology, params: ChannelParams, spec: GridSearchSpec, progress=None):
    """Yield (position, max_outage) for every lattice point in lexicographic order.

    The lattice is one outage scan, so the rows come once it completes;
    progress, when given, is called as progress(k, n) for each of the n
    lattice points as its altitude completes.
    """
    points = [geometry.vec3(float(x), float(y), float(z))
              for x, y, z in itertools.product(*spec.axes())]
    estimates = channel.outage_scan(topology.sbs_list, points, params,
                                    spec.mc_samples, spec.seed, progress)
    for pos, est in zip(points, estimates):
        yield pos, channel.max_outage(est)


def grid_search_best_position(topology: Topology, params: ChannelParams,
                              spec: GridSearchSpec, progress=None) -> tuple[Vec3, float, list]:
    """Lattice point with the lowest worst-link outage, ties broken lexicographically.

    Returns (best position, its worst-link outage, every (position,
    max_outage) row of the scan in lattice order). progress is passed to
    scan_grid.
    """
    rows = list(scan_grid(topology, params, spec, progress))
    # min keeps the first of equal values, the lexicographically smallest point
    best_pos, best_val = min(rows, key=lambda row: row[1])
    return best_pos, best_val, rows


def static_center_policy(topology: Topology, limits: KinematicLimits) -> Vec3:
    """Centroid of the active stations at the midpoint of the altitude window."""
    centroid = topology.sbs_list.mean(axis=0)
    return geometry.vec3(float(centroid[0]), float(centroid[1]),
                         0.5 * (limits.h_min + limits.h_max))
