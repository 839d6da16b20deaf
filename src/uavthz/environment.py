"""Topology MDP: state, bounded continuous action, altitude-bounded transition
and outage-based reward.

One environment instance is a sequential state machine over one topology per
reset: reset(seed) draws the stations from the seed and places the UAV at the
start point, the area center at mid altitude; move() advances the UAV by a
bounded 3D displacement and draws nothing; step() is move() followed by
scoring the new position by Monte-Carlo outage on the next seed of the reset's
step-seed stream; and restart_episode() returns the UAV to the start point for
the next training episode on the same stations.
"""

from dataclasses import dataclass

import numpy as np

from uavthz import channel, geometry
from uavthz.antenna import ArrayAntennaConfig
from uavthz.channel import ChannelParams, LinkState, OutageEstimate
from uavthz.errors import InvalidInputError, require
from uavthz.geometry import KinematicLimits, Vec3, as_vec3


@dataclass
class Topology:
    """The active ground stations."""

    sbs_list: list

    def __post_init__(self):
        require(len(self.sbs_list) >= 1, "topology has no stations", "sbs_list")

    def positions(self) -> np.ndarray:
        return np.array([lk.sbs_position for lk in self.sbs_list])


@dataclass
class EnvState:
    """UAV position in meters."""

    uav_position: Vec3

    def __post_init__(self):
        self.uav_position = as_vec3(self.uav_position)


@dataclass
class StepResult:
    next_state: EnvState
    reward: float
    outage: OutageEstimate
    elapsed: float


@dataclass
class EnvConfig:
    """Service area, station count, kinematic envelope, antennas and scoring knobs, in SI units."""

    area_x: float
    area_y: float
    m_s_min: int
    m_s_max: int
    t_min: float
    t_max: float
    dt: float
    limits: KinematicLimits
    tx_power_w: float
    uav_n_side: int
    sbs_n_side: int
    spacing_over_lambda: float
    mc_samples: int
    reward_floor: float
    clamp_horizontal: bool

    def __post_init__(self):
        for name in ("area_x", "area_y", "dt", "tx_power_w", "reward_floor"):
            require(getattr(self, name) > 0, f"{name} must be positive", name)
        require(1 <= self.m_s_min <= self.m_s_max, "need 1 <= m_s_min <= m_s_max",
                "m_s_min", "m_s_max")
        require(0 < self.t_min <= self.t_max, "need 0 < t_min <= t_max", "t_min", "t_max")
        require(self.mc_samples >= 1, "mc_samples must be >= 1", "mc_samples")
        for side in ("uav_n_side", "sbs_n_side"):
            try:
                ArrayAntennaConfig(getattr(self, side), self.spacing_over_lambda)
            except InvalidInputError as exc:
                raise InvalidInputError(
                    str(exc), *(side if f == "n_side" else f for f in exc.fields)) from exc

    @property
    def uav_array(self) -> ArrayAntennaConfig:
        return ArrayAntennaConfig(self.uav_n_side, self.spacing_over_lambda)

    @property
    def action_scale(self) -> float:
        """Largest per-step displacement: v_max*dt + a_max*dt^2/2."""
        return self.limits.v_max * self.dt + 0.5 * self.limits.a_max * self.dt ** 2

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
        cfg = self.config
        m_s = int(rng.integers(cfg.m_s_min, cfg.m_s_max + 1))
        return Topology([
            LinkState(geometry.vec3(float(rng.uniform(0.0, cfg.area_x)),
                                    float(rng.uniform(0.0, cfg.area_y)), 0.0),
                      cfg.tx_power_w, cfg.uav_array, cfg.sbs_n_side)
            for _ in range(m_s)
        ])

    # -- MDP surface -----------------------------------------------------------

    def reset(self, seed: int) -> tuple[EnvState, Topology]:
        """Draw the topology from [seed, 0] and place the UAV at the start point.

        The per-step Monte-Carlo seeds come from [seed, 1], so a reset with
        the same seed repeats the run exactly.
        """
        self.topology = self._draw_topology(np.random.default_rng([seed, 0]))
        self._step_seed_rng = np.random.default_rng([seed, 1])
        return self.restart_episode(), self.topology

    def restart_episode(self) -> EnvState:
        """Return the UAV to the start point, the area center at mid altitude.

        The stations and the step-seed stream carry on: every training
        episode flies over the topology of the last reset.
        """
        if self.topology is None:
            raise InvalidInputError("environment not reset")
        lim = self.config.limits
        self._uav_position = geometry.vec3(0.5 * self.config.area_x, 0.5 * self.config.area_y,
                                           0.5 * (lim.h_min + lim.h_max))
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

        The displacement is first shrunk onto the action ball. A move whose
        altitude leaves the open (h_min, h_max) window is rejected whole: the
        UAV stays where it is. With clamp_horizontal the position is then
        clipped into the service area. Elapsed time charges the realized
        displacement at peak speed. No Monte-Carlo seed is drawn.
        """
        if self.topology is None:
            raise InvalidInputError("environment not reset")
        cur = self._uav_position
        cand = cur + project_action(displacement, self.config.action_scale)
        lim = self.config.limits
        nxt = cand if lim.h_min < cand[2] < lim.h_max else cur
        if self.config.clamp_horizontal:
            nxt = nxt.copy()
            nxt[0] = float(np.clip(nxt[0], 0.0, self.config.area_x))
            nxt[1] = float(np.clip(nxt[1], 0.0, self.config.area_y))
        self._uav_position = nxt
        return nxt.copy(), float(np.linalg.norm(nxt - cur)) / lim.v_max

    def step(self, displacement) -> StepResult:
        """move(), then score the new position on the next step seed and return the reward.

        A rejected move is scored too, at the position the UAV kept.
        """
        position, elapsed = self.move(displacement)
        outage = self.outage_at(position, self.config.mc_samples, self._next_step_seed())
        reward = outage_to_reward(channel.max_outage(outage), self.config.reward_floor)
        return StepResult(EnvState(position), reward, outage, elapsed)

    def outage_at(self, position, n_samples: int, seed: int) -> OutageEstimate:
        """Score an arbitrary position against the current topology (pure helper)."""
        if self.topology is None:
            raise InvalidInputError("environment not reset")
        return channel.outage_probability(self.topology.sbs_list, as_vec3(position),
                                          self.params, n_samples, seed)

