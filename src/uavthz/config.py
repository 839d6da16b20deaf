"""Run configuration: one flat `section.key = value` text file covering every module.

Each RunConfig field declares its dotted key, its default and its unit: the
class and field of the simulation object it sets, and the conversion `si`
from its operator-friendly unit (dBm for powers, dB for the SINR threshold,
degrees for the vibration std, GHz for the carrier) to that field's SI unit.

A RunConfig checks itself whole when it is built: it builds every object once,
so each object's own checks run, without computing a g0 or allocating a
network. A bad file therefore fails before any work, and the command exits 2
with one line that names the dotted key. Unknown and duplicate keys and
non-finite numbers are rejected by name as well.
"""

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from uavthz.baseline import GridSearchSpec
from uavthz.channel import ChannelParams
from uavthz.environment import EnvConfig
from uavthz.errors import ConfigError, InvalidInputError
from uavthz.geometry import KinematicLimits
from uavthz.td3 import Normalizer, Td3Hyperparams


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _key(key: str, default, cls=None, name=None, si=None):
    # Sets field `name` (default: the field's own name) of class cls through the
    # unit conversion si; fields that set one target pass it a tuple, in order.
    return field(default=default, metadata={"key": key, "cls": cls, "name": name, "si": si})


@dataclass(frozen=True)
class RunConfig:
    """Every setting of a run, one field per config key, checked whole when built."""

    area_x_m: float = _key("area.x_m", 150.0, EnvConfig, "area_x")
    area_y_m: float = _key("area.y_m", 150.0, EnvConfig, "area_y")
    m_s_min: int = _key("topology.m_s_min", 2, EnvConfig)
    m_s_max: int = _key("topology.m_s_max", 6, EnvConfig)
    t_min_s: float = _key("topology.t_min_s", 20.0, EnvConfig, "t_min")
    t_max_s: float = _key("topology.t_max_s", 35.0, EnvConfig, "t_max")
    carrier_ghz: float = _key("channel.carrier_ghz", 140.0, ChannelParams, "carrier_hz",
                              lambda ghz: ghz * 1e9)
    tx_power_dbm: float = _key("channel.tx_power_dbm", 10.0, ChannelParams, "tx_power_w",
                               dbm_to_watts)
    absorption_per_m: float = _key("channel.absorption_per_m", 1e-3, ChannelParams,
                                   "absorption_coeff")
    noise_power_dbm: float = _key("channel.noise_power_dbm", -190.0, ChannelParams,
                                  "noise_power_w", dbm_to_watts)
    sinr_threshold_db: float = _key("channel.sinr_threshold_db", 5.0, ChannelParams,
                                    "sinr_threshold", db_to_linear)
    los_alpha: float = _key("channel.los_alpha", 9.61, ChannelParams)
    los_b: float = _key("channel.los_b", 0.16, ChannelParams)
    nlos_extra_loss: float = _key("channel.nlos_extra_loss", 0.01, ChannelParams)
    vibration_std_deg: float = _key("channel.vibration_std_deg", 2.0, ChannelParams,
                                    "vibration_std_rad", math.radians)
    uav_n_side: int = _key("antenna.uav_n_side", 20, ChannelParams)
    sbs_n_side: int = _key("antenna.sbs_n_side", 10, ChannelParams)
    spacing_over_lambda: float = _key("antenna.spacing_over_lambda", 0.5, ChannelParams)
    v_max_mps: float = _key("kinematics.v_max_mps", 8.0, KinematicLimits, "v_max")
    a_max_mps2: float = _key("kinematics.a_max_mps2", 4.0, KinematicLimits, "a_max")
    h_min_m: float = _key("kinematics.h_min_m", 30.0, KinematicLimits, "h_min")
    h_max_m: float = _key("kinematics.h_max_m", 130.0, KinematicLimits, "h_max")
    dt_s: float = _key("kinematics.dt_s", 1.0, KinematicLimits, "dt")
    mc_samples_train: int = _key("env.mc_samples_train", 500, EnvConfig, "mc_samples")
    mc_samples_eval: int = _key("env.mc_samples_eval", 100_000)
    reward_floor: float = _key("env.reward_floor", 1e-9, EnvConfig)
    clamp_horizontal: bool = _key("env.clamp_horizontal", False, EnvConfig)
    hidden1: int = _key("td3.hidden1", 256, Td3Hyperparams, "hidden_dims")
    hidden2: int = _key("td3.hidden2", 128, Td3Hyperparams, "hidden_dims")
    actor_lr: float = _key("td3.actor_lr", 1e-4, Td3Hyperparams)
    critic_lr: float = _key("td3.critic_lr", 1e-4, Td3Hyperparams)
    discount: float = _key("td3.discount", 0.9, Td3Hyperparams)
    tau: float = _key("td3.tau", 0.01, Td3Hyperparams)
    policy_delay: int = _key("td3.policy_delay", 2, Td3Hyperparams)
    batch_size: int = _key("td3.batch_size", 32, Td3Hyperparams)
    buffer_capacity: int = _key("td3.buffer_capacity", 1000, Td3Hyperparams)
    episodes: int = _key("td3.episodes", 150, Td3Hyperparams)
    steps_per_episode: int = _key("td3.steps_per_episode", 10, Td3Hyperparams)
    exploration_noise: float = _key("td3.exploration_noise", 0.1, Td3Hyperparams,
                                    "exploration_noise_std")
    target_noise: float = _key("td3.target_noise", 0.2, Td3Hyperparams, "target_noise_std")
    target_noise_clip: float = _key("td3.target_noise_clip", 0.5, Td3Hyperparams)
    warmup_steps: int = _key("td3.warmup_steps", 256, Td3Hyperparams)
    grid_x: int = _key("baseline.grid_x", 15, GridSearchSpec, "x_steps")
    grid_y: int = _key("baseline.grid_y", 15, GridSearchSpec, "y_steps")
    grid_z: int = _key("baseline.grid_z", 5, GridSearchSpec, "z_steps")
    grid_mc_samples: int = _key("baseline.mc_samples", 10_000, GridSearchSpec, "mc_samples")

    def __post_init__(self):
        self.normalizer()          # builds the environment and its kinematic limits
        self.channel_params()
        self.hyperparams()
        self.grid_spec(0)
        if self.mc_samples_eval < 1:
            raise ConfigError(self._describe(["mc_samples_eval"], "must be >= 1"))

    def _describe(self, names, message: str) -> str:
        named = [f"{f.metadata['key']} = {_text(getattr(self, f.name))}"
                 for f in fields(self) if f.name in names]
        return f"{', '.join(named)}: {message}" if named else message

    def _build(self, cls, **extra):
        """cls from the fields that set it, plus extra; a failed check names their keys."""
        mine = [f for f in fields(self) if f.metadata["cls"] is cls]
        args = {}
        for f in mine:
            value, si = getattr(self, f.name), f.metadata["si"]
            args.setdefault(f.metadata["name"] or f.name, []).append(si(value) if si else value)
        try:
            return cls(**{k: v[0] if len(v) == 1 else tuple(v) for k, v in args.items()}, **extra)
        except InvalidInputError as exc:
            raise ConfigError(self._describe(
                [f.name for f in mine if (f.metadata["name"] or f.name) in exc.fields],
                str(exc))) from exc

    def channel_params(self) -> ChannelParams:
        return self._build(ChannelParams)

    def kinematic_limits(self) -> KinematicLimits:
        return self._build(KinematicLimits)

    def env_config(self) -> EnvConfig:
        return self._build(EnvConfig, limits=self.kinematic_limits())

    def hyperparams(self) -> Td3Hyperparams:
        return self._build(Td3Hyperparams)

    def normalizer(self) -> Normalizer:
        env = self.env_config()
        lim = env.limits
        return Normalizer(env.area_x, env.area_y, lim.h_min, lim.h_max, lim.action_scale)

    def grid_spec(self, seed: int) -> GridSearchSpec:
        return self._build(GridSearchSpec, seed=seed, x_range=(0.0, self.area_x_m),
                           y_range=(0.0, self.area_y_m), z_range=(self.h_min_m, self.h_max_m))


_FIELDS = {f.metadata["key"]: f for f in fields(RunConfig)}


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


_BOOLS = {**dict.fromkeys(("true", "1", "yes", "on"), True),
          **dict.fromkeys(("false", "0", "no", "off"), False)}


def _parse_value(f, raw: str):
    try:
        value = _BOOLS[raw.lower()] if f.type is bool else f.type(raw)
        if f.type is float and not math.isfinite(value):
            raise ValueError(raw)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad value for {f.metadata['key']}: {raw!r}") from exc
    return value


def parse_config(text: str) -> RunConfig:
    """Parse flat `section.key = value` lines; '#' starts a comment."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key: {key}")
        f = _FIELDS[key]
        if f.name in values:
            raise ConfigError(f"duplicate config key: {key}")
        values[f.name] = _parse_value(f, raw)
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) reproduces cfg exactly."""
    lines = []
    for prev, f in zip([None, *fields(RunConfig)], fields(RunConfig)):
        key = f.metadata["key"]
        if prev is not None and prev.metadata["key"].split(".")[0] != key.split(".")[0]:
            lines.append("")
        lines.append(f"{key} = {_text(getattr(cfg, f.name))}")
    return "\n".join(lines) + "\n"
