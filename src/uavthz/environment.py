"""Topology MDP: state, bounded continuous action, altitude-clamped transition
and outage-based reward.

One environment instance is a sequential state machine: reset() draws a
topology epoch (the UAV keeps its position across epochs, starting at the
area center on the very first call), and step() advances the UAV by a bounded
3D displacement, scoring the new position by Monte-Carlo outage.
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
class EnvAction:
    """Requested 3D displacement in meters for one step."""

    displacement: Vec3

    def __post_init__(self):
        self.displacement = as_vec3(self.displacement)


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
    outage_alarm_threshold: float
    clamp_horizontal: bool
    clamp_z_only: bool
    freeze_topology: bool

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
        self.epoch_start: Vec3 | None = None
        self._step_seed_rng = None
        self.alarm_steps = 0   # steps with any per-link outage above the alarm threshold
        self.total_steps = 0

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
        """Start a topology epoch: fresh stations, continuous UAV position.

        With freeze_topology set, repeated resets keep the first drawn
        topology (single-scenario training) while reseeding the step stream.
        """
        rng = np.random.default_rng([seed, 0])
        if self.topology is None or not self.config.freeze_topology:
            self.topology = self._draw_topology(rng)
        if self._uav_position is None:
            lim = self.config.limits
            self._uav_position = geometry.vec3(
                0.5 * self.config.area_x, 0.5 * self.config.area_y,
                0.5 * (lim.h_min + lim.h_max))
        self.epoch_start = self._uav_position.copy()
        self._step_seed_rng = np.random.default_rng([seed, 1])
        return EnvState(self._uav_position.copy()), self.topology

    def restart_episode(self) -> EnvState:
        """Return the UAV to the epoch's start position (training episodes all
        launch from the point the UAV occupied when the topology appeared)."""
        if self.epoch_start is None:
            raise InvalidInputError("environment not reset")
        self._uav_position = self.epoch_start.copy()
        return EnvState(self._uav_position.copy())

    @property
    def state(self) -> EnvState:
        if self._uav_position is None:
            raise InvalidInputError("environment not reset")
        return EnvState(self._uav_position.copy())

    def _next_step_seed(self) -> int:
        return int(self._step_seed_rng.integers(0, 2 ** 63))

    def step(self, action) -> StepResult:
        """Apply a bounded displacement, score the new position, return the reward.

        The move is rejected outright when the resulting altitude leaves the
        open (h_min, h_max) window (or, with clamp_z_only, the vertical
        component is clipped instead). Elapsed time charges the realized
        displacement at peak speed.
        """
        if self.topology is None:
            raise InvalidInputError("environment not reset")
        disp = action.displacement if isinstance(action, EnvAction) else as_vec3(action)
        disp = project_action(disp, self.config.action_scale)
        cur = self._uav_position
        cand = cur + disp
        lim = self.config.limits
        if lim.h_min < cand[2] < lim.h_max:
            nxt = cand
        elif self.config.clamp_z_only:
            nxt = cand.copy()
            nxt[2] = float(np.clip(cand[2], lim.h_min, lim.h_max))
        else:
            nxt = cur.copy()
        if self.config.clamp_horizontal:
            nxt = nxt.copy()
            nxt[0] = float(np.clip(nxt[0], 0.0, self.config.area_x))
            nxt[1] = float(np.clip(nxt[1], 0.0, self.config.area_y))
        outage = channel.outage_probability(
            self.topology.sbs_list, nxt, self.params,
            self.config.mc_samples, self._next_step_seed())
        worst = channel.max_outage(outage)
        reward = outage_to_reward(worst, self.config.reward_floor)
        elapsed = float(np.linalg.norm(nxt - cur)) / lim.v_max
        self._uav_position = nxt
        self.total_steps += 1
        if np.any(outage.per_link_outage >= self.config.outage_alarm_threshold):
            self.alarm_steps += 1
        return StepResult(EnvState(nxt.copy()), reward, outage, elapsed)

    def outage_at(self, position, n_samples: int, seed: int) -> OutageEstimate:
        """Score an arbitrary position against the current topology (pure helper)."""
        if self.topology is None:
            raise InvalidInputError("environment not reset")
        return channel.outage_probability(self.topology.sbs_list, as_vec3(position),
                                          self.params, n_samples, seed)

