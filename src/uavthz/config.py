"""Run configuration: one flat `section.key = value` text file covering every module.

Each RunConfig field declares its dotted key, its default and its unit: the
class and field of the simulation object it sets, and the conversion `si`
from its operator-friendly unit (dBm for powers, dB for the SINR threshold,
degrees for the vibration std, GHz for the carrier) to that field's SI unit.

Every integer key is a count, and the rule for counts is declared here
alone: each lies in [1, MAX_COUNT]. env.mc_samples_eval and the baseline.*
keys set no object; the eval and baseline commands read them from the config.

A RunConfig checks itself whole when it is built: the counts, then every
object built once, so each object's own checks run, without computing a g0
or allocating a network. A bad file therefore fails before any work, and the
command exits 2 with one line that names the dotted key. Unknown and
duplicate keys and non-finite numbers are rejected by name as well, and so is
a value whose conversion to SI units overflows or is not finite (a power or
threshold above about 3,100 dB, a carrier of 1e300 GHz), and a baseline
lattice of more than MAX_COUNT points. Two bounds keep the float32 antenna
pattern finite: channel.vibration_std_deg is at most 180 (half a turn) and
antenna.spacing_over_lambda at most 10. Three floors keep the link functions
and flight times finite: channel.carrier_ghz is at least 1
(channel.MIN_CARRIER_HZ), and kinematics.h_min_m and kinematics.v_max_mps are
each at least 0.001 (geometry.MIN_ALTITUDE_M and MIN_SPEED_MPS).
"""

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from uavthz.channel import ChannelParams
from uavthz.environment import EnvConfig
from uavthz.errors import ConfigError, InvalidInputError
from uavthz.geometry import KinematicLimits
from uavthz.td3 import Td3Hyperparams


# Largest value of an integer key, a count (the least is 1). numpy refuses an
# array of more than 2**63 bytes with a ValueError ("array is too big"), not a
# MemoryError. At the other keys' defaults every array sized by one count, or
# by the baseline lattice's point count, holds under 9 KiB per unit of it, so
# up to here a count too large for memory ends in numpy's MemoryError, which
# the CLI reports as a config error (exit 2).
MAX_COUNT = 10 ** 15


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
    # The smallest count of 1k, 2k, 5k, 10k, 20k, 50k whose worst-link std over
    # 30 seeds (8 six-station topologies x 3 positions) has a median, RMS and
    # p90 at most the sampled-verdict estimator's at 100k draws: 0.00013,
    # 0.00020, 0.00031 against 0.00021, 0.00030, 0.00047 (CHANGES.md).
    mc_samples_eval: int = _key("env.mc_samples_eval", 20_000)
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
    grid_x: int = _key("baseline.grid_x", 15)
    grid_y: int = _key("baseline.grid_y", 15)
    grid_z: int = _key("baseline.grid_z", 5)
    # The same rule against the sampled-verdict estimator at 10k draws: 0.00037,
    # 0.00044, 0.00062 against 0.00080, 0.00091, 0.00128; 2k fails on p90.
    grid_mc_samples: int = _key("baseline.mc_samples", 5_000)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is int and not 1 <= value <= MAX_COUNT:
                bound = "must be >= 1" if value < 1 else f"must be <= {MAX_COUNT}"
                raise ConfigError(self._describe([f.name], bound))
        self.env_config()          # builds the kinematic limits too
        self.channel_params()
        self.hyperparams()
        if self.grid_x * self.grid_y * self.grid_z > MAX_COUNT:
            raise ConfigError(self._describe(["grid_x", "grid_y", "grid_z"],
                                             f"the lattice must hold <= {MAX_COUNT} points"))

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
            if si:
                try:
                    value = si(value)
                except OverflowError:
                    value = math.inf
                if not math.isfinite(value):
                    raise ConfigError(self._describe([f.name], "overflows in SI units"))
            args.setdefault(f.metadata["name"] or f.name, []).append(value)
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


_FIELDS = {f.metadata["key"]: f for f in fields(RunConfig)}


def _text(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _parse_value(f, raw: str):
    try:
        value = f.type(raw)
        if f.type is float and not math.isfinite(value):
            raise ValueError(raw)
    except ValueError as exc:
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
