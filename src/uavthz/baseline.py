"""Brute-force and heuristic placement baselines used as optimality yardsticks.

The grid search evaluates the worst-link outage on a full 3D lattice with a
single shared Monte-Carlo seed, so comparisons between grid points (and
against any policy scored with the same seed) are free of sampling noise.
The whole lattice is one channel.outage_scan, which draws once.
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


def scan_grid(topology: Topology, params: ChannelParams, spec: GridSearchSpec):
    """Yield (position, max_outage) for every lattice point in lexicographic order.

    The lattice is one outage scan: its draws are made once and every point
    reuses them and the scan's block workspace.
    """
    points = [geometry.vec3(float(x), float(y), float(z))
              for x, y, z in itertools.product(*spec.axes())]
    estimates = channel.outage_scan(topology.sbs_list, points, params,
                                    spec.mc_samples, spec.seed)
    for pos, est in zip(points, estimates):
        yield pos, channel.max_outage(est)


def grid_search_best_position(topology: Topology, params: ChannelParams,
                              spec: GridSearchSpec, progress=None) -> tuple[Vec3, float, list]:
    """Lattice point with the lowest worst-link outage, ties broken lexicographically.

    Returns (best position, its worst-link outage, every (position,
    max_outage) row of the scan in lattice order). progress, when given, is
    called as progress(k, n) after the k-th of the n lattice points.
    """
    n = spec.x_steps * spec.y_steps * spec.z_steps
    rows = []
    best_pos, best_val = None, np.inf
    for pos, val in scan_grid(topology, params, spec):
        rows.append((pos, val))
        if val < best_val:
            best_pos, best_val = pos, val
        if progress is not None:
            progress(len(rows), n)
    return best_pos, float(best_val), rows


def static_center_policy(topology: Topology, limits: KinematicLimits) -> Vec3:
    """Centroid of the active stations at the midpoint of the altitude window."""
    centroid = topology.positions().mean(axis=0)
    return geometry.vec3(float(centroid[0]), float(centroid[1]),
                         0.5 * (limits.h_min + limits.h_max))
