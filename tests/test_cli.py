import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from uavthz import antenna, channel, cli, geometry, neural
from uavthz.antenna import ArrayAntennaConfig
from uavthz.channel import LinkState
from uavthz.config import dbm_to_watts, load_config

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


def copy_checkpoint(src, dst):
    dst.mkdir()
    for f in src.iterdir():
        (dst / f.name).write_bytes(f.read_bytes())
    return dst


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


@pytest.mark.parametrize("command,flags", [
    ("train", ()),
    ("eval", ("--checkpoint", "missing")),
    ("baseline", ()),
    ("linkbudget", ("--uav", "75,75,80", "--sbs", "40,40")),
])
def test_bad_value_exits_2_on_every_command(tmp_path, capsys, command, flags):
    # A td3 value is checked even by the commands that never train.
    config = write_config(tmp_path, "td3.discount = 1.5\n")
    out = tmp_path / "out"
    argv = [command, "--config", str(config), *flags]
    if command != "linkbudget":
        argv += ["--out-dir", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == "config error: td3.discount = 1.5: discount must lie in (0, 1)\n"
    assert captured.out == ""
    if command != "linkbudget":
        assert [f.name for f in out.iterdir()] == ["manifest.json"]
        data = manifest(out)
        assert data["status"] == "failed" and data["error"] == captured.err.strip()


@pytest.mark.parametrize("flags", [
    ("--uav", "a,b,c", "--sbs", "1,2"),
    ("--uav", "75,75,80", "--sbs", "x,2"),
])
def test_bad_linkbudget_coordinates_exit_2(capsys, flags):
    assert cli.main(["linkbudget", *flags]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: expected ") and err.count("\n") == 1


def test_mc_samples_flag_is_checked_like_the_file(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(write_config(tmp_path)), "--out-dir", str(out),
                     "--mc-samples", "0"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == ("config error: --mc-samples 0: env.mc_samples_train = 0: "
                                       "mc_samples must be >= 1\n")
    assert [f.name for f in out.iterdir()] == ["manifest.json"]


def test_mc_samples_flag_is_applied(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["baseline", "--config", str(write_config(tmp_path)),
                     "--out-dir", str(out), "--mc-samples", "32"]) == cli.EXIT_OK
    assert "mc_samples: 32\n" in (out / "grid_scan.csv").read_text(encoding="utf-8")


# The first critic step moves every weight by about the learning rate, so the
# next forward pass overflows and the next gradient is not finite. The TD3
# update silences numpy's warnings on the way: the failure is reported once.
def test_diverging_adam_step_exits_3(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["train", "--config", str(write_config(tmp_path, "td3.critic_lr = 1e308\n")),
                     "--out-dir", str(out)])
    assert code == cli.EXIT_NUMERIC
    assert capsys.readouterr().err == "numeric failure: non-finite gradient in Adam step\n"
    assert manifest(out)["status"] == "failed"


def test_diverging_adam_step_prints_one_line(tmp_path):
    out = tmp_path / "out"
    proc = run_process("train", "--config", write_config(tmp_path, "td3.critic_lr = 1e308\n"),
                       "--out-dir", out)
    assert proc.returncode == cli.EXIT_NUMERIC
    assert proc.stderr == "numeric failure: non-finite gradient in Adam step\n"
    assert manifest(out)["status"] == "failed"


def test_reruns_are_byte_identical(tmp_path, trained):
    config, first = trained
    second = tmp_path / "again"
    assert cli.main(["train", "--config", str(config), "--seed", "3",
                     "--out-dir", str(second)]) == cli.EXIT_OK
    outputs = manifest(first)["outputs"]
    assert outputs and manifest(second)["outputs"] == outputs


def test_rewards_csv_reports_each_episodes_mean_worst_link_outage(trained):
    _, out = trained
    lines = [ln for ln in (out / "rewards.csv").read_text(encoding="utf-8").splitlines()
             if not ln.startswith("#")]
    assert lines[0] == "episode,reward,moving_avg_40,mean_max_outage"
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    assert len(rows) == 3
    assert all(np.isfinite(row).all() and 0.0 <= row[3] <= 1.0 for row in rows)


def run_eval(config, trained_out, out):
    return cli.main(["eval", "--config", str(config), "--seed", "3", "--out-dir", str(out),
                     "--checkpoint", str(trained_out / "checkpoint")])


def test_eval_scores_the_trajectory_in_one_scan(tmp_path, monkeypatch, trained):
    config, out = trained
    scan, positions = channel.outage_scan, []

    def counted(links, uavs, *args):
        positions.append(len(uavs))
        return scan(links, uavs, *args)

    monkeypatch.setattr(channel, "outage_scan", counted)
    assert run_eval(config, out, tmp_path / "eval") == cli.EXIT_OK
    assert positions == [5]  # the start and td3.steps_per_episode = 4 moves


def test_eval_manifest_names_the_best_point_of_the_trajectory(tmp_path, trained):
    config, out = trained
    eval_dir = tmp_path / "eval"
    assert run_eval(config, out, eval_dir) == cli.EXIT_OK
    lines = [ln for ln in (eval_dir / "trajectory.csv").read_text(encoding="utf-8").splitlines()
             if not ln.startswith("#")]
    assert lines[0].split(",")[:6] == ["step", "t", "x", "y", "z", "max_outage"]
    rows = [ln.split(",") for ln in lines[1:]]
    worst = [float(row[5]) for row in rows]
    best = min(worst)
    data = manifest(eval_dir)
    assert float(f"{data['best_max_outage']:.9g}") == best
    assert data["best_step"] == int(rows[worst.index(best)][0])
    assert data["best_max_outage"] <= min(data["initial_max_outage"], data["final_max_outage"])


@pytest.mark.parametrize("command,flag", [
    ("train", "--seed"),
    ("eval", "--seed"),
    ("eval", "--scenario-seed"),
    ("baseline", "--seed"),
    ("baseline", "--scenario-seed"),
])
def test_negative_seed_exits_2_with_failed_manifest(tmp_path, capsys, trained, command, flag):
    config, trained_out = trained
    out = tmp_path / "out"
    argv = [command, "--config", str(config), "--out-dir", str(out), flag, "-1"]
    if command == "eval":
        argv += ["--checkpoint", str(trained_out / "checkpoint")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: {flag} -1: must be >= 0\n"
    assert [f.name for f in out.iterdir()] == ["manifest.json"]
    data = manifest(out)
    assert data["status"] == "failed" and data["error"] == err.strip()


@pytest.mark.parametrize("net", ["actor", "critics_target"])
def test_checkpoint_net_mismatch_is_named(tmp_path, capsys, trained, net):
    config, out = trained
    checkpoint = copy_checkpoint(out / "checkpoint", tmp_path / "checkpoint")
    neural.save_net(checkpoint / f"{net}.npz", neural.init_net((8, 3, 1), 0))
    code = cli.main(["eval", "--config", str(config), "--out-dir", str(tmp_path / "eval"),
                     "--checkpoint", str(checkpoint)])
    assert code == cli.EXIT_CONFIG
    assert f"checkpoint {net} architecture" in capsys.readouterr().err


def test_old_checkpoint_version_names_the_file(tmp_path, capsys, trained):
    config, out = trained
    checkpoint = copy_checkpoint(out / "checkpoint", tmp_path / "checkpoint")
    path = checkpoint / "critics.npz"
    with np.load(path) as data:
        entries = dict(data)
    np.savez(path, **{**entries, "version": np.array(1)})
    code = cli.main(["eval", "--config", str(config), "--out-dir", str(tmp_path / "eval"),
                     "--checkpoint", str(checkpoint)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert str(path) in err and "version 1" in err


def linkbudget_interference_dbm(capsys, config, *stations):
    argv = ["linkbudget", "--config", str(config), "--uav", "75,75,80"]
    for x, y in stations:
        argv += ["--sbs", f"{x},{y}"]
    assert cli.main(argv) == cli.EXIT_OK
    rows = [ln.split() for ln in capsys.readouterr().out.splitlines()
            if ln.rstrip().endswith(("pass", "FAIL"))]
    return [float(row[7]) for row in rows]


def test_linkbudget_one_station_has_no_interference(tmp_path, capsys):
    assert linkbudget_interference_dbm(capsys, write_config(tmp_path), (40, 40)) == [-np.inf]


def test_linkbudget_runs_at_the_largest_array(tmp_path, capsys):
    config = tmp_path / "big.cfg"
    config.write_text(f"antenna.uav_n_side = {antenna.MAX_N_SIDE}\n", encoding="utf-8")
    assert len(linkbudget_interference_dbm(capsys, config, (40, 40), (110, 90))) == 2


def test_linkbudget_two_station_interference(tmp_path, capsys):
    # Interference near -220 dBm under a -70 dBm noise floor: rebuilding it
    # from the SINR as signal / sinr - noise cancels to garbage here.
    config = tmp_path / "noisy.cfg"
    config.write_text("channel.noise_power_dbm = -70\n", encoding="utf-8")
    stations = [(40.0, 40.0), (110.0, 90.0)]
    printed = linkbudget_interference_dbm(capsys, config, *stations)
    cfg = load_config(config)
    params = cfg.channel_params()
    uav_array = ArrayAntennaConfig(cfg.uav_n_side, cfg.spacing_over_lambda)
    links = [LinkState(geometry.vec3(x, y, 0.0), dbm_to_watts(cfg.tx_power_dbm), uav_array,
                       cfg.sbs_n_side) for x, y in stations]
    sample = channel.instantaneous_sinr(links, geometry.vec3(75.0, 75.0, 80.0), (0.0, 0.0),
                                        params)
    expected = [float(f"{10 * np.log10(watts * 1e3):.2f}")
                for watts in sample.per_link_interference_w]
    assert printed == expected
    assert all(-230.0 < v < -210.0 for v in printed)


def drop_params(path):
    with np.load(path) as data:
        entries = {k: v for k, v in data.items() if k != "params"}
    np.savez(path, **entries)


def set_entry(key, value):
    def spoil(path):
        with np.load(path) as data:
            entries = dict(data)
        np.savez(path, **{**entries, key: np.array(value)})
    return spoil


def set_meta(key, value):
    def spoil(path):
        meta = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**meta, key: value}), encoding="utf-8")
    return spoil


# A meta.json count must be a non-negative JSON integer, and not a bool.
BAD_META = [("agent_seed", "x"), ("agent_seed", None), ("agent_seed", [1]),
            ("agent_seed", 1.5), ("agent_seed", -1), ("critic_updates", True),
            ("actor_updates", 2.0)]


@pytest.mark.parametrize("name,spoil", [
    ("critics.npz", drop_params),
    ("actor.npz", lambda path: path.write_text("not an archive\n", encoding="utf-8")),
    ("meta.json", lambda path: path.write_text("{agent_seed: 3", encoding="utf-8")),
    *(pytest.param("meta.json", set_meta(key, value), id=f"meta.json-{key}={json.dumps(value)}")
      for key, value in BAD_META),
    pytest.param("critics.npz", set_entry("version", [2, 2]), id="critics.npz-version-shape-2"),
    pytest.param("actor.npz", set_entry("output_scale", [1.0, 1.0]),
                 id="actor.npz-output_scale-shape-2"),
    pytest.param("actor_target.npz", set_entry("layer_dims", ["three", "sixteen", "eight"]),
                 id="actor_target.npz-layer_dims-strings"),
])
def test_malformed_checkpoint_file_exits_2_naming_it(tmp_path, capsys, trained, name, spoil):
    config, out = trained
    checkpoint = copy_checkpoint(out / "checkpoint", tmp_path / "checkpoint")
    spoil(checkpoint / name)
    eval_dir = tmp_path / "eval"
    code = cli.main(["eval", "--config", str(config), "--out-dir", str(eval_dir),
                     "--checkpoint", str(checkpoint)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert str(checkpoint / name) in err
    data = manifest(eval_dir)
    assert data["status"] == "failed" and data["error"] == err.strip()


def test_baseline_progress_is_throttled(tmp_path, monkeypatch, capsys):
    config = write_config(tmp_path)
    quiet = tmp_path / "quiet"
    assert cli.main(["baseline", "--config", str(config), "--out-dir", str(quiet)]) == 0
    assert capsys.readouterr().err == ""
    monkeypatch.setattr(cli, "PROGRESS_INTERVAL_S", 0.0)
    loud = tmp_path / "loud"
    assert cli.main(["baseline", "--config", str(config), "--out-dir", str(loud)]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"scanned {k}/4 lattice points" for k in range(1, 5)]
    assert captured.out == ""
    for name in ("grid_scan.csv", "baseline_summary.csv", "sbs_layout.csv"):
        assert (loud / name).read_bytes() == (quiet / name).read_bytes()


def test_baseline_progress_waits_a_full_interval_between_lines(tmp_path, monkeypatch, capsys):
    # a clock that advances 1 s per reading: with a 1.5 s interval every
    # second lattice point is reported
    ticks = iter(range(10_000))
    monkeypatch.setattr(cli, "perf_counter", lambda: float(next(ticks)))
    monkeypatch.setattr(cli, "PROGRESS_INTERVAL_S", 1.5)
    assert cli.main(["baseline", "--config", str(write_config(tmp_path)),
                     "--out-dir", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "scanned 2/4 lattice points", "scanned 4/4 lattice points"]
