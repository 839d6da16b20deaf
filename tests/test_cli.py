import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from uavthz import antenna, channel, cli, geometry, neural
from uavthz.config import load_config

SRC = Path(__file__).resolve().parents[1] / "src"

# Same code paths as the defaults, at a size that runs in well under a second.
TINY = (Path(__file__).resolve().parent / "tiny.cfg").read_text(encoding="utf-8")


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


# Every array size comes from the config. At 1e14 the first array of each
# setting exceeds a 128 TiB address space, so no overcommit setting lets it be
# allocated; numpy's MemoryError is then a config error.
@pytest.mark.parametrize("command,key", [
    ("train", "td3.buffer_capacity"),
    ("train", "td3.hidden1"),
    ("baseline", "baseline.mc_samples"),
])
def test_array_too_large_for_memory_exits_2_with_one_line(tmp_path, command, key):
    config = tmp_path / "huge.cfg"
    kept = [line for line in TINY.splitlines() if not line.startswith(f"{key} ")]
    config.write_text("\n".join([*kept, f"{key} = 100000000000000"]) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    proc = run_process(command, "--config", config, "--out-dir", out)
    assert proc.returncode == cli.EXIT_CONFIG
    assert proc.stderr.startswith("config error: out of memory: ")
    assert proc.stderr.count("\n") == 1
    data = manifest(out)
    assert data["status"] == "failed" and data["error"] == proc.stderr.strip()


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


OUT_OF_BOUND = "position coordinates must be finite and within 1e+06 m"


# A warning is an error here: each bad input is refused before any arithmetic.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags,message", [
    (("--uav", "75,75,80", "--sbs", "nan,2"), f"link 1: {OUT_OF_BOUND}"),
    (("--uav", "75,75,80", "--sbs", "10,20", "--sbs", "1,inf"), f"link 2: {OUT_OF_BOUND}"),
    (("--uav", "75,75,80", "--sbs", "10,2e6"), f"link 1: {OUT_OF_BOUND}"),
    (("--uav", "75,75,inf", "--sbs", "10,20"), OUT_OF_BOUND),
    (("--uav", "1e200,75,80", "--sbs", "10,20"), OUT_OF_BOUND),
    (("--uav", "75,75,0", "--sbs", "10,20"),
     "degenerate geometry: UAV altitude must be at least 0.001 m, got 0.0"),
    (("--uav", "10,20,1e-100", "--sbs", "10,20"),
     "degenerate geometry: UAV altitude must be at least 0.001 m, got 1e-100"),
])
def test_bad_linkbudget_station_or_uav_exits_2(capsys, flags, message):
    assert cli.main(["linkbudget", *flags]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {message}")
    assert captured.err.count("\n") == 1 and captured.out == ""


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


def test_interrupted_run_exits_130_with_failed_manifest(tmp_path, capsys, monkeypatch):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(channel, "outage_scan", interrupt)
    out = tmp_path / "out"
    code = cli.main(["baseline", "--config", str(write_config(tmp_path)), "--out-dir", str(out)])
    assert code == cli.EXIT_INTERRUPTED == 130
    assert capsys.readouterr().err == "interrupted\n"
    data = manifest(out)
    assert data["status"] == "failed" and data["error"] == "interrupted"


def test_ctrl_c_prints_one_line(tmp_path):
    # a lattice that takes seconds, interrupted once its manifest says it runs
    out, config = tmp_path / "out", tmp_path / "long.cfg"
    config.write_text(TINY.replace("baseline.grid_x = 2", "baseline.grid_x = 40")
                      .replace("baseline.grid_y = 2", "baseline.grid_y = 40"), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.Popen([sys.executable, "-m", "uavthz", "baseline", "--config", str(config),
                             "--out-dir", str(out)], stderr=subprocess.PIPE, text=True, env=env)
    path = out / "manifest.json"
    try:
        while not (path.exists() and "config_sha256" in path.read_text(encoding="utf-8")):
            assert proc.poll() is None
            time.sleep(0.01)
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == cli.EXIT_INTERRUPTED
    assert err == "interrupted\n"
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
    # --scenario-seed is another spelling of --seed
    assert err == "config error: --seed -1: must be >= 0\n"
    assert [f.name for f in out.iterdir()] == ["manifest.json"]
    data = manifest(out)
    assert data["status"] == "failed" and data["error"] == err.strip()


@pytest.mark.parametrize("command", ["eval", "baseline"])
def test_scenario_seed_is_another_spelling_of_seed(tmp_path, trained, command):
    config, trained_out = trained
    digests = []
    for flag in ("--seed", "--scenario-seed"):
        out = tmp_path / flag.strip("-")
        argv = [command, "--config", str(config), "--out-dir", str(out), flag, "3"]
        if command == "eval":
            argv += ["--checkpoint", str(trained_out / "checkpoint")]
        assert cli.main(argv) == cli.EXIT_OK
        assert manifest(out)["seed"] == 3
        digests.append(manifest(out)["outputs"])
    assert digests[0] and digests[0] == digests[1]


# What every manifest holds; a complete one adds the command's summary.
RUN_KEYS = {"version", "command", "seed", "status", "outputs", "config", "config_sha256",
            "resolved_si", "wall_clock_s"}


def test_complete_manifest_holds_each_commands_summary(tmp_path, trained):
    config, trained_out = trained
    base = tmp_path / "baseline"
    assert run_eval(config, trained_out, tmp_path / "eval") == cli.EXIT_OK
    assert cli.main(["baseline", "--config", str(config), "--out-dir", str(base)]) == 0
    summaries = {
        "train": {"episodes", "final_moving_avg_40"},
        "eval": {"episode_time_s", "initial_max_outage", "final_max_outage",
                 "best_max_outage", "best_step"},
        "baseline": {"oracle_max_outage", "static_center_max_outage"},
    }
    for out, (command, keys) in zip((trained_out, tmp_path / "eval", base), summaries.items()):
        data = manifest(out)
        assert data["command"] == command and data["status"] == "complete"
        assert set(data) == RUN_KEYS | keys
    assert manifest(trained_out)["episodes"] == 3


def test_manifest_lists_only_the_files_its_command_wrote(tmp_path, trained):
    # baseline run into a directory holding a train run and a stale layout
    config, trained_out = trained
    out = tmp_path / "shared"
    out.mkdir()
    (out / "rewards.csv").write_bytes((trained_out / "rewards.csv").read_bytes())
    copy_checkpoint(trained_out / "checkpoint", out / "checkpoint")
    (out / "sbs_layout.csv").write_text("stale\n", encoding="utf-8")
    assert cli.main(["baseline", "--config", str(config), "--out-dir", str(out)]) == 0
    outputs = manifest(out)["outputs"]
    assert sorted(outputs) == ["baseline_summary.csv", "grid_scan.csv", "sbs_layout.csv"]
    for name, digest in outputs.items():
        assert digest == cli._sha256(out / name)
    assert (out / "sbs_layout.csv").read_text(encoding="utf-8") != "stale\n"


def rewrite_archive(path, **entries):
    """Rewrite the checkpoint archive at path with some entries replaced (None drops one)."""
    with np.load(path) as data:
        merged = {**dict(data), **entries}
    np.savez(path, **{k: v for k, v in merged.items() if v is not None})


def test_checkpoint_is_one_archive_of_the_four_blocks(tmp_path, trained):
    config, out = trained
    checkpoint = out / "checkpoint"
    assert [f.name for f in checkpoint.iterdir()] == ["nets.npz"]
    with np.load(checkpoint / "nets.npz") as data:
        assert sorted(data.files) == ["actor", "actor_target", "critics", "critics_target",
                                      "version"]
        assert data["version"].shape == () and int(data["version"]) == 4
        assert data["actor"].shape == (3 * 16 + 16 + 16 * 8 + 8 + 8 * 3 + 3,)
        assert data["critics"].shape == (2, 6 * 16 + 16 + 16 * 8 + 8 + 8 + 1)
        assert all(data[name].dtype == np.float32 for name in data.files if name != "version")


@pytest.mark.parametrize("net", ["actor", "critics_target"])
def test_checkpoint_net_mismatch_is_named(tmp_path, capsys, trained, net):
    config, out = trained
    checkpoint = copy_checkpoint(out / "checkpoint", tmp_path / "checkpoint")
    path = checkpoint / "nets.npz"
    rewrite_archive(path, **{net: neural.init_net((8, 3, 1), 0).params})
    assert run_eval(config, tmp_path, tmp_path / "eval") == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: entry '{net}' is float32 (31,)")


def test_old_checkpoint_version_names_the_file(tmp_path, capsys, trained):
    config, out = trained
    checkpoint = copy_checkpoint(out / "checkpoint", tmp_path / "checkpoint")
    path = checkpoint / "nets.npz"
    rewrite_archive(path, version=np.array(2))
    assert run_eval(config, tmp_path, tmp_path / "eval") == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert str(path) in err and "version 2" in err


def test_float64_checkpoint_of_version_3_is_refused_by_its_version(tmp_path, capsys, trained):
    # the previous format: the same four blocks, in float64
    config, out = trained
    checkpoint = copy_checkpoint(out / "checkpoint", tmp_path / "checkpoint")
    path = checkpoint / "nets.npz"
    with np.load(path) as data:
        blocks = {name: data[name].astype(np.float64) for name in data.files if name != "version"}
    np.savez(path, version=np.array(3), **blocks)
    eval_dir = tmp_path / "eval"
    assert run_eval(config, tmp_path, eval_dir) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == (f"config error: {path}: unsupported checkpoint version 3, "
                   f"expected {neural.CHECKPOINT_VERSION}\n")
    assert manifest(eval_dir)["status"] == "failed"


def test_old_checkpoint_layout_is_no_checkpoint(tmp_path, capsys, trained):
    # the per-net files of the previous format are not read
    config, _ = trained
    checkpoint = tmp_path / "checkpoint"
    checkpoint.mkdir()
    for name in ("actor", "actor_target", "critics", "critics_target"):
        np.savez(checkpoint / f"{name}.npz", version=np.array(2))
    (checkpoint / "meta.json").write_text("{}\n", encoding="utf-8")
    assert run_eval(config, tmp_path, tmp_path / "eval") == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: no checkpoint at {checkpoint}\n"


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


def test_linkbudget_reports_zero_power_as_minus_inf_silently():
    # Beyond about 700 km the default absorption underflows the path loss to
    # 0 W, so the received power, the interference and the SINR are all 0.
    proc = run_process("linkbudget", "--uav", "900000,75,80", "--sbs", "10,20")
    assert proc.returncode == cli.EXIT_OK and proc.stderr == ""
    row = proc.stdout.splitlines()[-1].split()
    assert np.isfinite(float(row[4]))  # the free-space term alone stays positive
    assert row[5] == row[7] == row[8] == "-inf" and row[9] == "FAIL"


def test_linkbudget_is_silent_where_los_probability_is_zero(tmp_path):
    # far below los_alpha degrees the logistic's exp overflows; p_los reads 0
    config = tmp_path / "blocked.cfg"
    config.write_text("channel.los_alpha = 10000\n", encoding="utf-8")
    proc = run_process("linkbudget", "--config", config, "--uav", "75,75,80", "--sbs", "10,20")
    assert proc.returncode == cli.EXIT_OK and proc.stderr == ""
    assert proc.stdout.splitlines()[-1].split()[3] == "0.0000"


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
    params = load_config(config).channel_params()
    sbs = np.array([(x, y, 0.0) for x, y in stations])
    _, interference_w = channel.instantaneous_sinr(sbs, geometry.vec3(75.0, 75.0, 80.0),
                                                   (0.0, 0.0), params)
    expected = [float(f"{10 * np.log10(watts * 1e3):.2f}") for watts in interference_w]
    assert printed == expected
    assert all(-230.0 < v < -210.0 for v in printed)


def set_entry(name, value):
    return lambda path: rewrite_archive(path, **{name: value})


def spoil_entry(name, spoil):
    def rewrite(path):
        with np.load(path) as data:
            block = data[name]
        rewrite_archive(path, **{name: spoil(block)})
    return rewrite


def with_nan(block):
    block = block.copy()
    block.flat[block.size // 2] = np.nan
    return block


def trained_at_other_widths(path):
    # a real checkpoint, trained with the first hidden layer 12 wide, not 16
    other = path.parent.parent / "other"
    other.mkdir()
    config = other / "run.cfg"
    config.write_text(TINY.replace("td3.hidden1 = 16", "td3.hidden1 = 12"), encoding="utf-8")
    assert cli.main(["train", "--config", str(config), "--seed", "3",
                     "--out-dir", str(other / "train")]) == cli.EXIT_OK
    path.write_bytes((other / "train" / "checkpoint" / "nets.npz").read_bytes())


@pytest.mark.parametrize("spoil,message", [
    pytest.param(lambda path: path.write_text("not an archive\n", encoding="utf-8"),
                 "not a checkpoint archive", id="text"),
    pytest.param(set_entry("critics", None), "no entry 'critics'", id="missing-critics"),
    pytest.param(set_entry("version", None), "no entry 'version'", id="missing-version"),
    pytest.param(spoil_entry("actor", lambda b: b.astype(np.float64)),
                 "entry 'actor' is float64", id="actor-float64"),
    pytest.param(spoil_entry("actor_target", lambda b: b[:-1]),
                 "entry 'actor_target' is float32 (226,), expected float32 (227,)",
                 id="actor_target-shape"),
    pytest.param(spoil_entry("critics_target", with_nan), "entry 'critics_target' is not finite",
                 id="critics_target-nan"),
    pytest.param(set_entry("version", np.array(2)), "unsupported checkpoint version 2",
                 id="version-2"),
    pytest.param(set_entry("version", np.array([4, 4])), "unsupported checkpoint version [4, 4]",
                 id="version-shape-2"),
    pytest.param(trained_at_other_widths, "entry 'actor' is float32 (179,), expected float32 "
                 "(227,)", id="other-widths"),
])
def test_malformed_checkpoint_file_exits_2_naming_it(tmp_path, capsys, trained, spoil,
                                                     message):
    config, out = trained
    checkpoint = copy_checkpoint(out / "checkpoint", tmp_path / "checkpoint")
    path = checkpoint / "nets.npz"
    spoil(path)
    eval_dir = tmp_path / "eval"
    assert run_eval(config, tmp_path, eval_dir) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: ") and err.count("\n") == 1
    assert message in err
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
    # the 2 x 2 lattice and the static centre
    assert captured.err.splitlines() == [f"scanned {k}/5 positions" for k in range(1, 6)]
    assert captured.out == ""
    for name in ("grid_scan.csv", "baseline_summary.csv", "sbs_layout.csv"):
        assert (loud / name).read_bytes() == (quiet / name).read_bytes()


def test_baseline_progress_waits_a_full_interval_between_lines(tmp_path, monkeypatch, capsys):
    # a clock that advances 1 s per reading: with a 1.5 s interval every
    # second position is reported
    ticks = iter(range(10_000))
    monkeypatch.setattr(cli, "perf_counter", lambda: float(next(ticks)))
    monkeypatch.setattr(cli, "PROGRESS_INTERVAL_S", 1.5)
    assert cli.main(["baseline", "--config", str(write_config(tmp_path)),
                     "--out-dir", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "scanned 2/5 positions", "scanned 4/5 positions"]
