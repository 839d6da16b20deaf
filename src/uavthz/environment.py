"""Topology MDP: state, bounded continuous action, box-clipped transition and
outage-based reward.

One environment instance is a sequential state machine over one topology per
reset: reset(seed) draws the stations from the seed and places the UAV at the
start point, the centre of the flight box; move() advances the UAV by a
bounded 3D displacement and draws nothing; step() is move() followed by
scoring the new position by Monte-Carlo outage on the next seed of the reset's
step-seed stream; and restart_episode() returns the UAV to the start point for
the next training episode on the same stations.

The UAV flies in the closed flight box EnvConfig.box, the service area times
the altitude window. A move is shrunk onto the action ball and then clipped
into the box on every axis: no move is rejected, and one that would leave the
box stops on its face.
"""

from dataclasses import dataclass, field

import numpy as np

from uavthz import channel
from uavthz.channel import ChannelParams
from uavthz.errors import InvalidInputError, require
from uavthz.geometry import MAX_COORD_M, KinematicLimits, Vec3, as_points, as_vec3


@dataclass
class Topology:
    """The active ground stations: their positions in meters, one row each.

    sbs_list is a finite (M, 3) array with M >= 1, on the ground (z = 0)
    when drawn by the environment. It is what the channel functions take as
    their links; the stations' transmit power and array are in ChannelParams.
    """

    sbs_list: np.ndarray

    def __post_init__(self):
        self.sbs_list = as_points(self.sbs_list)


@dataclass
class EnvState:
    """UAV position in meters."""

    uav_position: Vec3


@dataclass
class StepResult:
    """The state after a step, its reward, the (M,) per-link outage and the flight time (s)."""

    next_state: EnvState
    reward: float
    outage: np.ndarray
    elapsed: float


@dataclass
class EnvConfig:
    """Service area, station count, kinematic envelope and scoring knobs, in SI units.

    box is the closed flight box [0, area_x] x [0, area_y] x [h_min, h_max]
    as its (lo, hi) corners, computed when the config is built. The antennas
    and the transmit power are channel constants (ChannelParams).
    """

    area_x: float
    area_y: float
    m_s_min: int
    m_s_max: int
    t_min: float
    t_max: float
    limits: KinematicLimits
    mc_samples: int
    reward_floor: float
    box: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        require(self.reward_floor > 0, "reward_floor must be positive", "reward_floor")
        for name in ("area_x", "area_y"):
            require(0 < getattr(self, name) <= MAX_COORD_M,
                    f"{name} must lie in (0, {MAX_COORD_M:g}] m", name)
        require(1 <= self.m_s_min <= self.m_s_max, "need 1 <= m_s_min <= m_s_max",
                "m_s_min", "m_s_max")
        require(0 < self.t_min <= self.t_max, "need 0 < t_min <= t_max", "t_min", "t_max")
        require(self.mc_samples >= 1, "mc_samples must be >= 1", "mc_samples")
        self.box = (np.array([0.0, 0.0, self.limits.h_min]),
                    np.array([self.area_x, self.area_y, self.limits.h_max]))

    @property
    def time_budget(self) -> float:
        """Flight-time budget of one episode: the mean topology change interval."""
        return 0.5 * (self.t_min + self.t_max)


def outage_to_reward(max_outage: float, floor: float) -> float:
    """Negative log of the worst-link outage, clamped away from zero outage."""
    return float(-np.log(max(max_outage, floor)))


def project_action(displacement: Vec3, scale: float) -> Vec3:
    """Shrink a displacement onto the closed ball of radius `scale` if needed."""
    d = as_vec3(displacement)
    norm = float(np.linalg.norm(d))
    if norm > scale and norm > 0:
        return d * (scale / norm)
    return d


class Environment:
    """Sequential simulator owning the current topology and UAV position."""

    def __init__(self, config: EnvConfig, params: ChannelParams):
        self.config = config
        self.params = params
        self.topology: Topology | None = None
        self._uav_position: Vec3 | None = None
        self._step_seed_rng = None

    # -- construction helpers -------------------------------------------------

    def _draw_topology(self, rng) -> Topology:
        """Draw the station count, then the x and y of each station in turn."""
        cfg = self.config
        m_s = int(rng.integers(cfg.m_s_min, cfg.m_s_max + 1))
        stations = np.zeros((m_s, 3))
        stations[:, :2] = rng.uniform(0.0, (cfg.area_x, cfg.area_y), size=(m_s, 2))
        return Topology(stations)

    # -- MDP surface -----------------------------------------------------------

    def reset(self, seed: int) -> None:
        """Draw the topology from [seed, 0] and place the UAV at the start point.

        The per-step Monte-Carlo seeds come from [seed, 1], so a reset with
        the same seed repeats the run exactly.
        """
        self.topology = self._draw_topology(np.random.default_rng([seed, 0]))
        self._step_seed_rng = np.random.default_rng([seed, 1])
        self.restart_episode()

    def restart_episode(self) -> EnvState:
        """Return the UAV to the start point, the centre of the flight box.

        The stations and the step-seed stream carry on: every training
        episode flies over the topology of the last reset.
        """
        if self.topology is None:
            raise InvalidInputError("environment not reset")
        lo, hi = self.config.box
        self._uav_position = 0.5 * (lo + hi)
        return EnvState(self._uav_position.copy())

    @property
    def state(self) -> EnvState:
        if self._uav_position is None:
            raise InvalidInputError("environment not reset")
        return EnvState(self._uav_position.copy())

    def _next_step_seed(self) -> int:
        return int(self._step_seed_rng.integers(0, 2 ** 63))

    def move(self, displacement) -> tuple[Vec3, float]:
        """Move the UAV by a displacement in meters; return the new position and elapsed time.

        The displacement is first shrunk onto the action ball, and the new
        position is then clipped into the closed flight box on every axis, so
        no move is rejected. Elapsed time charges the realized displacement
        at peak speed. No Monte-Carlo seed is drawn.
        """
        if self.topology is None:
            raise InvalidInputError("environment not reset")
        cur = self._uav_position
        lim = self.config.limits
        lo, hi = self.config.box
        nxt = np.minimum(np.maximum(cur + project_action(displacement, lim.action_scale), lo), hi)
        self._uav_position = nxt
        return nxt.copy(), float(np.linalg.norm(nxt - cur)) / lim.v_max

    def step(self, displacement) -> StepResult:
        """move(), then score the new position on the next step seed and return the reward.

        A move that the box clips to nothing is scored too, at the position
        the UAV kept.
        """
        position, elapsed = self.move(displacement)
        outage = self.outage_at(position, self.config.mc_samples, self._next_step_seed())
        reward = outage_to_reward(channel.max_outage(outage), self.config.reward_floor)
        return StepResult(EnvState(position), reward, outage, elapsed)

    def outage_at(self, position, n_samples: int, seed: int) -> np.ndarray:
        """The (M,) per-link outage at any position on the current topology (pure helper)."""
        if self.topology is None:
            raise InvalidInputError("environment not reset")
        return channel.outage_probability(self.topology.sbs_list, position, self.params,
                                          n_samples, seed)

