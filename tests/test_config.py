import pytest

from uavthz import cli
from uavthz.config import RunConfig, parse_config, serialize_config
from uavthz.errors import ConfigError

NON_DEFAULT = RunConfig(
    area_x_m=120.5, m_s_min=3, carrier_ghz=300.0, noise_power_dbm=-187.25,
    vibration_std_deg=0.1 + 0.2, los_mode="per-call", uav_n_side=8, clamp_horizontal=True,
    freeze_topology=False, mc_samples_eval=1234, hidden1=64, actor_lr=3e-4, grid_z=2,
)


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


def test_out_dir_that_is_a_file_exits_4(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("not a directory\n", encoding="utf-8")
    code = cli.main(["baseline", "--out-dir", str(target)])
    assert code == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.count("\n") == 1
    assert target.read_text(encoding="utf-8") == "not a directory\n"
