import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from uavthz import antenna, cli, neural

SRC = Path(__file__).resolve().parents[1] / "src"

# Same code paths as the defaults, at a size that runs in well under a second.
TINY = """\
antenna.uav_n_side = 4
antenna.sbs_n_side = 2
td3.hidden1 = 16
td3.hidden2 = 8
td3.batch_size = 4
td3.episodes = 3
td3.steps_per_episode = 4
td3.warmup_steps = 6
env.mc_samples_train = 64
env.mc_samples_eval = 256
baseline.grid_x = 2
baseline.grid_y = 2
baseline.grid_z = 1
baseline.mc_samples = 128
"""


def write_config(tmp_path, extra=""):
    path = tmp_path / "run.cfg"
    path.write_text(TINY + extra, encoding="utf-8")
    return path


def manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))


def run_process(*argv):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-m", "uavthz", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trained")
    config = write_config(tmp)
    out = tmp / "train"
    assert cli.main(["train", "--config", str(config), "--seed", "3",
                     "--out-dir", str(out)]) == cli.EXIT_OK
    return config, out


def test_commands_exit_zero_in_a_process(tmp_path):
    config = write_config(tmp_path)
    train, ev, base = tmp_path / "train", tmp_path / "eval", tmp_path / "baseline"
    steps = [
        ("train", "--config", config, "--seed", 1, "--out-dir", train),
        ("eval", "--config", config, "--seed", 1, "--out-dir", ev,
         "--checkpoint", train / "checkpoint"),
        ("baseline", "--config", config, "--seed", 1, "--out-dir", base),
        ("linkbudget", "--config", config, "--uav", "75,75,80",
         "--sbs", "40,40", "--sbs", "110,90"),
    ]
    for argv in steps:
        proc = run_process(*argv)
        assert proc.returncode == cli.EXIT_OK, proc.stderr
    for out in (train, ev, base):
        assert manifest(out)["status"] == "complete"
    assert proc.stdout.count("pass") + proc.stdout.count("FAIL") == 2


@pytest.mark.parametrize("command,extra,flags", [
    ("train", "antenna.uav_n_side = 0\n", ()),
    ("baseline", "kinematics.h_min_m = 200\n", ()),
    ("train", "", ("--mc-samples", "0")),
    ("eval", "", ("--mc-samples", "0", "--checkpoint", "missing")),
    ("baseline", "", ("--mc-samples", "-3")),
])
def test_bad_config_exits_2_with_failed_manifest(tmp_path, capsys, command, extra, flags):
    out = tmp_path / "out"
    code = cli.main([command, "--config", str(write_config(tmp_path, extra)),
                     "--out-dir", str(out), *flags])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    data = manifest(out)
    assert data["status"] == "failed"
    assert data["error"] == err.strip()


def test_mc_samples_flag_is_applied(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["baseline", "--config", str(write_config(tmp_path)),
                     "--out-dir", str(out), "--mc-samples", "32"]) == cli.EXIT_OK
    assert "mc_samples: 32\n" in (out / "grid_scan.csv").read_text(encoding="utf-8")


def test_quadrature_failure_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(antenna, "_G0_CACHE", {})
    monkeypatch.setattr(antenna, "_QUAD_MAX_DOUBLINGS", 0)
    out = tmp_path / "out"
    code = cli.main(["baseline", "--config", str(write_config(tmp_path)),
                     "--out-dir", str(out)])
    assert code == cli.EXIT_NUMERIC
    assert capsys.readouterr().err.startswith("numeric failure: ")
    assert manifest(out)["status"] == "failed"


def test_reruns_are_byte_identical(tmp_path, trained):
    config, first = trained
    second = tmp_path / "again"
    assert cli.main(["train", "--config", str(config), "--seed", "3",
                     "--out-dir", str(second)]) == cli.EXIT_OK
    outputs = manifest(first)["outputs"]
    assert outputs and manifest(second)["outputs"] == outputs


@pytest.mark.parametrize("net", ["actor", "critic2_target"])
def test_checkpoint_net_mismatch_is_named(tmp_path, capsys, trained, net):
    config, out = trained
    checkpoint = tmp_path / "checkpoint"
    checkpoint.mkdir()
    for f in (out / "checkpoint").iterdir():
        (checkpoint / f.name).write_bytes(f.read_bytes())
    neural.save_net(checkpoint / f"{net}.npz", neural.init_net((8, 3, 1), 0))
    code = cli.main(["eval", "--config", str(config), "--out-dir", str(tmp_path / "eval"),
                     "--checkpoint", str(checkpoint)])
    assert code == cli.EXIT_CONFIG
    assert f"checkpoint {net} architecture" in capsys.readouterr().err
