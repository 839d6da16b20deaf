import json
import math

import pytest

from uavthz import cli
from uavthz.config import MAX_COUNT, RunConfig, parse_config, serialize_config
from uavthz.errors import ConfigError

NON_DEFAULT = RunConfig(
    area_x_m=120.5, m_s_min=3, carrier_ghz=300.0, noise_power_dbm=-187.25,
    vibration_std_deg=0.1 + 0.2, uav_n_side=8, mc_samples_eval=1234,
    hidden1=64, actor_lr=3e-4, grid_z=2,
)

# The default config as the manifest echoes and hashes it.
DEFAULT_TEXT = """\
area.x_m = 150.0
area.y_m = 150.0

topology.m_s_min = 2
topology.m_s_max = 6

channel.carrier_ghz = 140.0
channel.tx_power_dbm = 10.0
channel.absorption_per_m = 0.001
channel.noise_power_dbm = -190.0
channel.sinr_threshold_db = 5.0
channel.los_alpha = 9.61
channel.los_b = 0.16
channel.nlos_extra_loss = 0.01
channel.vibration_std_deg = 2.0

antenna.uav_n_side = 20
antenna.sbs_n_side = 10
antenna.spacing_over_lambda = 0.5

kinematics.v_max_mps = 8.0
kinematics.a_max_mps2 = 4.0
kinematics.h_min_m = 30.0
kinematics.h_max_m = 130.0
kinematics.dt_s = 1.0

env.mc_samples_train = 500
env.mc_samples_eval = 20000

td3.hidden1 = 256
td3.hidden2 = 128
td3.actor_lr = 0.0001
td3.critic_lr = 0.0001
td3.discount = 0.9
td3.tau = 0.01
td3.policy_delay = 2
td3.batch_size = 32
td3.buffer_capacity = 1000
td3.episodes = 150
td3.steps_per_episode = 10
td3.exploration_noise = 0.1
td3.target_noise = 0.2
td3.target_noise_clip = 0.5
td3.warmup_steps = 256

baseline.grid_x = 15
baseline.grid_y = 15
baseline.grid_z = 5
baseline.mc_samples = 5000
"""

# One bad line each, and the key the error must name; the upper-bound rows name
# the key with its value, which also keeps their test ids apart. The last rows
# are keys that earlier versions wrote, with the values they wrote by default.
BAD_VALUES = [
    ("td3.episodes = 0", "td3.episodes"),
    ("td3.steps_per_episode = 0", "td3.steps_per_episode"),
    ("area.x_m = -10", "area.x_m"),
    ("area.x_m = 0", "area.x_m"),
    ("area.x_m = 1e200", "area.x_m"),
    ("channel.carrier_ghz = nan", "channel.carrier_ghz"),
    ("antenna.spacing_over_lambda = nan", "antenna.spacing_over_lambda"),
    ("channel.tx_power_dbm = inf", "channel.tx_power_dbm"),
    ("channel.tx_power_dbm = -4000", "channel.tx_power_dbm"),
    ("td3.discount = 1.5", "td3.discount"),
    ("td3.actor_lr = 0", "td3.actor_lr"),
    ("td3.batch_size = 0", "td3.batch_size"),
    ("td3.buffer_capacity = 0", "td3.buffer_capacity"),
    ("td3.hidden2 = 0", "td3.hidden2"),
    ("baseline.grid_x = 0", "baseline.grid_x"),
    ("topology.m_d_max = 2", "topology.m_d_max"),
    ("antenna.uav_n_side = 0", "antenna.uav_n_side"),
    ("antenna.sbs_n_side = 0", "antenna.sbs_n_side"),
    ("antenna.uav_n_side = 1025", "antenna.uav_n_side = 1025"),
    ("antenna.sbs_n_side = 1025", "antenna.sbs_n_side = 1025"),
    ("kinematics.h_min_m = 200", "kinematics.h_min_m"),
    ("kinematics.h_max_m = 1e300", "kinematics.h_max_m"),
    ("kinematics.dt_s = 1e300", "kinematics.dt_s"),
    ("kinematics.v_max_mps = 1e300", "kinematics.v_max_mps"),
    ("env.mc_samples_eval = 0", "env.mc_samples_eval"),
    # every count is at least 1
    ("topology.m_s_min = 0", "topology.m_s_min"),
    ("topology.m_s_max = 0", "topology.m_s_max"),
    ("env.mc_samples_train = 0", "env.mc_samples_train = 0"),
    ("td3.hidden1 = 0", "td3.hidden1"),
    ("td3.policy_delay = 0", "td3.policy_delay"),
    ("td3.warmup_steps = 0", "td3.warmup_steps"),
    ("baseline.grid_y = 0", "baseline.grid_y"),
    ("baseline.grid_z = 0", "baseline.grid_z"),
    ("baseline.mc_samples = 0", "baseline.mc_samples = 0"),
    # above MAX_COUNT numpy would refuse the arrays with a ValueError
    ("td3.buffer_capacity = 1000000000000000000", "td3.buffer_capacity"),
    ("env.mc_samples_train = 1000000000000000000", "env.mc_samples_train"),
    ("baseline.mc_samples = 1000000000000000000", "baseline.mc_samples"),
    # a lattice of more than MAX_COUNT points would make numpy refuse its arrays
    ("baseline.grid_x = 3000000\nbaseline.grid_y = 3000000\nbaseline.grid_z = 3000000",
     "baseline.grid_x = 3000000, baseline.grid_y = 3000000, baseline.grid_z = 3000000"),
    # a net of two such widths would make numpy refuse its block with a ValueError
    ("td3.hidden1 = 1000000000000000\ntd3.hidden2 = 1000000000000000",
     "td3.hidden1 = 1000000000000000, td3.hidden2 = 1000000000000000"),
    ("td3.exploration_noise = 1e200", "td3.exploration_noise"),
    ("td3.target_noise = 1e300\ntd3.target_noise_clip = 1e300", "td3.target_noise"),
    # a unit conversion that overflows, or converts to inf
    ("channel.tx_power_dbm = 1e300", "channel.tx_power_dbm"),
    ("channel.noise_power_dbm = 1e300", "channel.noise_power_dbm"),
    ("channel.sinr_threshold_db = 1e300", "channel.sinr_threshold_db"),
    ("channel.carrier_ghz = 1e300", "channel.carrier_ghz"),
    # powers whose SINR would overflow: 1e287 W against 1e-303 W of noise
    ("channel.tx_power_dbm = 2900\nchannel.noise_power_dbm = -3000",
     "channel.tx_power_dbm = 2900.0, channel.noise_power_dbm = -3000.0"),
    # beyond these the float32 angle table would overflow
    ("channel.vibration_std_deg = 1e300", "channel.vibration_std_deg"),
    ("antenna.spacing_over_lambda = 1e40", "antenna.spacing_over_lambda"),
    # below these floors a link function or a flight time would overflow
    ("channel.carrier_ghz = 1e-300", "channel.carrier_ghz"),
    ("kinematics.h_min_m = 1e-300", "kinematics.h_min_m"),
    ("kinematics.v_max_mps = 1e-310", "kinematics.v_max_mps"),
    ("channel.los_mode = per-sample", "unknown config key: channel.los_mode"),
    ("env.clamp_z_only = false", "unknown config key: env.clamp_z_only"),
    ("env.clamp_horizontal = false", "unknown config key: env.clamp_horizontal"),
    ("env.freeze_topology = true", "unknown config key: env.freeze_topology"),
    ("env.outage_alarm_threshold = 0.1", "unknown config key: env.outage_alarm_threshold"),
    ("topology.t_min_s = 20.0", "unknown config key: topology.t_min_s"),
    ("topology.t_max_s = 35.0", "unknown config key: topology.t_max_s"),
    ("env.reward_floor = 1e-09", "unknown config key: env.reward_floor"),
]


def test_default_text_is_the_canonical_form():
    assert serialize_config(RunConfig()) == DEFAULT_TEXT
    assert len(DEFAULT_TEXT.splitlines()) == 49


@pytest.mark.parametrize("cfg", [RunConfig(), NON_DEFAULT], ids=["default", "non_default"])
def test_serialize_round_trip(cfg):
    text = serialize_config(cfg)
    assert parse_config(text) == cfg
    assert serialize_config(parse_config(text)) == text


def test_unknown_key_is_rejected():
    with pytest.raises(ConfigError, match="unknown config key: td3.hidden3"):
        parse_config("td3.hidden1 = 32\ntd3.hidden3 = 16\n")


def test_duplicate_key_is_rejected():
    with pytest.raises(ConfigError, match="duplicate config key: td3.tau"):
        parse_config("td3.tau = 0.01\n# comment\ntd3.tau = 0.02\n")


@pytest.mark.parametrize("line,key", BAD_VALUES, ids=[key for _, key in BAD_VALUES])
def test_bad_value_names_its_key(line, key):
    with pytest.raises(ConfigError) as info:
        parse_config(line + "\n")
    assert key in str(info.value)


# A warning is an error here: a bad value is refused before any arithmetic.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("line,key", BAD_VALUES, ids=[key for _, key in BAD_VALUES])
def test_bad_value_fails_the_run_before_any_output(tmp_path, capsys, line, key):
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["baseline", "--config", str(config), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and key in err
    assert [f.name for f in out.iterdir()] == ["manifest.json"]
    data = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert data["status"] == "failed" and data["error"] == err.strip()


def test_count_bound_is_inclusive():
    cfg = parse_config(f"td3.buffer_capacity = {MAX_COUNT}\n")
    assert cfg.buffer_capacity == MAX_COUNT
    with pytest.raises(ConfigError, match=f"td3.buffer_capacity = {MAX_COUNT + 1}: must be <= "):
        parse_config(f"td3.buffer_capacity = {MAX_COUNT + 1}\n")


def test_lattice_point_bound_is_inclusive():
    side = round(MAX_COUNT ** (1 / 3))
    assert side ** 3 == MAX_COUNT
    cfg = parse_config(f"baseline.grid_x = {side}\nbaseline.grid_y = {side}\n"
                       f"baseline.grid_z = {side}\n")
    assert cfg.grid_x * cfg.grid_y * cfg.grid_z == MAX_COUNT
    with pytest.raises(ConfigError, match=f"baseline.grid_z = {side + 1}: the lattice must"):
        parse_config(f"baseline.grid_x = {side}\nbaseline.grid_y = {side}\n"
                     f"baseline.grid_z = {side + 1}\n")


# The bound parses, and the next float beyond it, toward `outside`, is refused.
@pytest.mark.parametrize("key,bound,outside", [("channel.vibration_std_deg", 180.0, math.inf),
                                               ("antenna.spacing_over_lambda", 10.0, math.inf),
                                               ("channel.carrier_ghz", 1.0, 0.0),
                                               ("kinematics.h_min_m", 1e-3, 0.0),
                                               ("kinematics.v_max_mps", 1e-3, 0.0)])
def test_bounds_are_inclusive(key, bound, outside):
    parse_config(f"{key} = {bound!r}\n")
    beyond = math.nextafter(bound, outside)
    with pytest.raises(ConfigError, match=f"^{key} = {beyond!r}[:,]"):
        parse_config(f"{key} = {beyond!r}\n")


def test_two_keys_of_one_check_are_both_named():
    with pytest.raises(ConfigError, match="kinematics.h_min_m = 90.0, kinematics.h_max_m = 60.0"):
        parse_config("kinematics.h_min_m = 90\nkinematics.h_max_m = 60\n")


def test_unreadable_config_exits_2(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"td3.tau = \xff\n")
    assert cli.main(["linkbudget", "--config", str(config), "--uav", "75,75,80",
                     "--sbs", "40,40"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read config ") and err.count("\n") == 1


def test_out_dir_that_is_a_file_exits_4(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("not a directory\n", encoding="utf-8")
    code = cli.main(["baseline", "--out-dir", str(target)])
    assert code == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.count("\n") == 1
    assert target.read_text(encoding="utf-8") == "not a directory\n"
