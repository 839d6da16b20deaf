"""Brute-force and heuristic placement baselines used as optimality yardsticks.

The grid search evaluates the worst-link outage on a full 3D lattice with a
single shared Monte-Carlo seed, so comparisons between grid points (and
against any policy scored with the same seed) are free of sampling noise.
"""

from dataclasses import dataclass

import numpy as np

from uavthz import channel, geometry
from uavthz.channel import ChannelParams
from uavthz.environment import Topology
from uavthz.errors import InvalidInputError
from uavthz.geometry import KinematicLimits, Vec3


@dataclass
class GridSearchSpec:
    """Lattice shape and Monte-Carlo budget of the placement oracle."""

    x_steps: int = 15
    y_steps: int = 15
    z_steps: int = 5
    x_range: tuple = (0.0, 150.0)
    y_range: tuple = (0.0, 150.0)
    z_range: tuple = (30.0, 130.0)
    mc_samples: int = 10_000
    seed: int = 0

    def __post_init__(self):
        # A 1-count axis is allowed and collapses to the lower bound.
        if min(self.x_steps, self.y_steps, self.z_steps) < 1:
            raise InvalidInputError("grid step counts must be >= 1")
        if self.mc_samples < 1:
            raise InvalidInputError("mc_samples must be >= 1")

    def axes(self):
        return (np.linspace(*self.x_range, self.x_steps),
                np.linspace(*self.y_range, self.y_steps),
                np.linspace(*self.z_range, self.z_steps))


def scan_grid(topology: Topology, params: ChannelParams, spec: GridSearchSpec):
    """Yield (position, max_outage) for every lattice point in lexicographic order."""
    xs, ys, zs = spec.axes()
    for x in xs:
        for y in ys:
            for z in zs:
                pos = geometry.vec3(float(x), float(y), float(z))
                est = channel.outage_probability(topology.sbs_list, pos, params,
                                                 spec.mc_samples, spec.seed)
                yield pos, channel.max_outage(est)


def grid_search_best_position(topology: Topology, params: ChannelParams,
                              spec: GridSearchSpec) -> tuple[Vec3, float, list]:
    """Lattice point with the lowest worst-link outage, ties broken lexicographically.

    Returns (best position, its worst-link outage, every (position,
    max_outage) row of the scan in lattice order).
    """
    rows = []
    best_pos, best_val = None, np.inf
    for pos, val in scan_grid(topology, params, spec):
        rows.append((pos, val))
        if val < best_val:
            best_pos, best_val = pos, val
    return best_pos, float(best_val), rows


def static_center_policy(topology: Topology,
                         limits: KinematicLimits | None = None) -> Vec3:
    """Centroid of the active stations at the midpoint of the altitude window."""
    if not topology.sbs_list:
        raise InvalidInputError("topology has no stations")
    limits = limits or KinematicLimits()
    centroid = topology.positions().mean(axis=0)
    return geometry.vec3(float(centroid[0]), float(centroid[1]),
                         0.5 * (limits.h_min + limits.h_max))
