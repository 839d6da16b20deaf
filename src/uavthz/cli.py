"""Command-line front end: train, eval, baseline and linkbudget subcommands.

Every run writes its outputs under --out-dir only, preceded by a manifest
that echoes the resolved configuration and is finalized with wall-clock
timings and SHA-256 digests of the produced files, or marked "failed" with
the error message when the run exits non-zero. Output tables are CSV
with a '#'-prefixed metadata preamble and 9-significant-digit floats, so a
repeated run with the same config and seed is byte-identical.
"""

import argparse
import contextlib
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

import uavthz
from uavthz import baseline, channel, geometry, neural, td3
from uavthz.antenna import ArrayAntennaConfig, normalization_constant
from uavthz.channel import LinkState
from uavthz.config import RunConfig, load_config, serialize_config
from uavthz.environment import Environment
from uavthz.errors import ConfigError, InvalidInputError, NumericFailureError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

# Least seconds between two progress lines of the baseline scan on stderr.
PROGRESS_INTERVAL_S = 5.0

_NET_FILES = ("actor", "actor_target", "critics", "critics_target")


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.9g}"
    return str(value)


def write_csv(path: Path, meta: dict, header, rows) -> None:
    lines = [f"# {k}: {_fmt(v)}" for k, v in meta.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        # Read in pieces: a whole checkpoint block in one bytes object would
        # set the process's peak memory.
        for piece in iter(lambda: fh.read(1 << 16), b""):
            digest.update(piece)
    return digest.hexdigest()


class Manifest:
    """Run metadata written before the work starts and finalized after it ends.

    It is written as soon as the output directory exists, so a run whose
    config fails to load or validate still leaves a manifest that says so.
    """

    def __init__(self, out_dir: Path, command: str, seed: int):
        self.path = out_dir / "manifest.json"
        self.started = perf_counter()
        self.data = {
            "version": uavthz.__version__,
            "command": command,
            "seed": seed,
            "status": "running",
            "outputs": {},
        }
        self._write()

    def _write(self):
        self.path.write_text(json.dumps(self.data, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")

    def record_config(self, cfg: RunConfig):
        """Echo the resolved configuration, which was checked when it was built."""
        text = serialize_config(cfg)
        params, env_cfg = cfg.channel_params(), cfg.env_config()
        self.data["config"] = text
        self.data["config_sha256"] = hashlib.sha256(text.encode()).hexdigest()
        self.data["resolved_si"] = {
            "noise_power_w": params.noise_power_w,
            "tx_power_w": env_cfg.tx_power_w,
            "sinr_threshold_linear": params.sinr_threshold,
            "vibration_std_rad": params.vibration_std_rad,
            "carrier_hz": params.carrier_hz,
            "action_scale_m": env_cfg.action_scale,
        }
        self._write()

    def fail(self, message: str):
        self.data["status"] = "failed"
        self.data["error"] = message
        self.data["wall_clock_s"] = perf_counter() - self.started
        self._write()

    def finalize(self, out_dir: Path, extra: dict | None = None):
        self.data["status"] = "complete"
        self.data["wall_clock_s"] = perf_counter() - self.started
        if extra:
            self.data.update(extra)
        for f in sorted(out_dir.rglob("*")):
            if f.is_file() and f != self.path:
                self.data["outputs"][str(f.relative_to(out_dir))] = _sha256(f)
        self._write()


def _build_env(cfg: RunConfig) -> Environment:
    return Environment(cfg.env_config(), cfg.channel_params())


def _build_agent(cfg: RunConfig, seed: int) -> td3.Td3Agent:
    return td3.Td3Agent.create(cfg.normalizer(), cfg.hyperparams(), seed)


def moving_average(values, window: int):
    """Trailing mean over up to `window` previous entries (inclusive)."""
    out = []
    acc = 0.0
    for i, v in enumerate(values):
        acc += v
        if i >= window:
            acc -= values[i - window]
        out.append(acc / min(i + 1, window))
    return out


def save_checkpoint(ck_dir: Path, agent: td3.Td3Agent, cfg: RunConfig, seed: int) -> None:
    ck_dir.mkdir(parents=True, exist_ok=True)
    for name in _NET_FILES:
        neural.save_net(ck_dir / f"{name}.npz", getattr(agent, name),
                        getattr(agent, f"adam_{name}", None))
    (ck_dir / "config.txt").write_text(serialize_config(cfg), encoding="utf-8")
    (ck_dir / "meta.json").write_text(
        json.dumps({"version": uavthz.__version__, "agent_seed": seed,
                    "critic_updates": agent.critic_updates,
                    "actor_updates": agent.actor_updates}, indent=2) + "\n",
        encoding="utf-8")


def _meta_int(meta: dict, key: str, meta_path: Path) -> int:
    """meta[key], 0 when absent; anything but a non-negative JSON integer is a ConfigError."""
    value = meta.get(key, 0)
    if type(value) is not int or value < 0:  # bool is an int subclass
        raise ConfigError(f"{meta_path}: {key} must be a non-negative integer, "
                          f"got {json.dumps(value)}")
    return value


def load_checkpoint(ck_dir: Path, cfg: RunConfig) -> td3.Td3Agent:
    meta_path = ck_dir / "meta.json"
    if not meta_path.is_file():
        raise ConfigError(f"no checkpoint at {ck_dir}")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8 or not JSON
        raise ConfigError(f"{meta_path}: not valid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise ConfigError(f"{meta_path}: expected a JSON object")
    agent = _build_agent(cfg, _meta_int(meta, "agent_seed", meta_path))
    for name in _NET_FILES:
        net, adam = neural.load_net(ck_dir / f"{name}.npz")
        expected = getattr(agent, name).architecture()
        if net.architecture() != expected:
            raise ConfigError(
                f"checkpoint {name} architecture {net.architecture()} "
                f"does not match config architecture {expected}")
        setattr(agent, name, net)
        if adam is not None:
            setattr(agent, f"adam_{name}", adam)
    agent.critic_updates = _meta_int(meta, "critic_updates", meta_path)
    agent.actor_updates = _meta_int(meta, "actor_updates", meta_path)
    return agent


# ------------------------------------------------------------------ subcommands

def cmd_train(cfg: RunConfig, seed: int, out_dir: Path, manifest: Manifest) -> int:
    env = _build_env(cfg)
    env.reset(seed)
    agent = _build_agent(cfg, seed)
    agent, logs = td3.train(env, agent)
    rewards = [lg.reward for lg in logs]
    avg = moving_average(rewards, 40)
    write_csv(out_dir / "rewards.csv",
              {"seed": seed, "version": uavthz.__version__},
              ("episode", "reward", "moving_avg_40", "mean_max_outage"),
              [(lg.episode, lg.reward, avg[i], lg.mean_max_outage)
               for i, lg in enumerate(logs)])
    save_checkpoint(out_dir / "checkpoint", agent, cfg, seed)
    manifest.finalize(out_dir, {
        "episodes": len(logs),
        "final_moving_avg_40": avg[-1],
    })
    return EXIT_OK


def _sbs_layout_rows(env: Environment):
    return [(i, p[0], p[1]) for i, p in enumerate(env.topology.positions())]


def cmd_eval(cfg: RunConfig, checkpoint: Path, scenario_seed: int, out_dir: Path,
             manifest: Manifest) -> int:
    agent = load_checkpoint(checkpoint, cfg)
    env = _build_env(cfg)
    env.reset(scenario_seed)
    trace = td3.greedy_rollout(env, agent, cfg.steps_per_episode)
    # The rollout only moves the UAV; every visited position is scored here,
    # at evaluation-grade sample counts in one scan with one shared seed, so
    # along-trajectory comparisons share their randomness.
    rescore_seed = scenario_seed + 1
    n_links = len(env.topology.sbs_list)
    estimates = channel.outage_scan(env.topology.sbs_list, [pt.position for pt in trace],
                                    env.params, cfg.mc_samples_eval, rescore_seed)
    rows = [(pt.step, pt.time, pt.position[0], pt.position[1], pt.position[2],
             channel.max_outage(est), *est.per_link_outage)
            for pt, est in zip(trace, estimates)]
    header = ("step", "t", "x", "y", "z", "max_outage",
              *(f"outage_{i + 1}" for i in range(n_links)))
    meta = {"seed": scenario_seed, "version": uavthz.__version__,
            "mc_samples": cfg.mc_samples_eval, "rescore_seed": rescore_seed}
    write_csv(out_dir / "trajectory.csv", meta, header, rows)
    write_csv(out_dir / "sbs_layout.csv",
              {"seed": scenario_seed, "version": uavthz.__version__},
              ("index", "x", "y"), _sbs_layout_rows(env))
    flight_time = trace[-1].time
    best = min(rows, key=lambda row: row[5])  # the first step at the lowest max outage
    manifest.finalize(out_dir, {
        "episode_time_s": flight_time,
        "time_budget_s": env.config.time_budget,
        "time_budget_satisfied": bool(flight_time <= env.config.time_budget),
        "initial_max_outage": rows[0][5],
        "final_max_outage": rows[-1][5],
        "best_max_outage": best[5],
        "best_step": best[0],
    })
    return EXIT_OK


def cmd_baseline(cfg: RunConfig, scenario_seed: int, out_dir: Path,
                 manifest: Manifest) -> int:
    env = _build_env(cfg)
    env.reset(scenario_seed)
    spec = cfg.grid_spec(scenario_seed + 1)
    params = cfg.channel_params()
    started = perf_counter()

    def progress(k, n):
        nonlocal started
        now = perf_counter()
        if now - started >= PROGRESS_INTERVAL_S:
            print(f"scanned {k}/{n} lattice points", file=sys.stderr)
            started = now

    best_pos, best_val, scan = baseline.grid_search_best_position(env.topology, params, spec,
                                                                  progress)
    meta = {"seed": scenario_seed, "version": uavthz.__version__,
            "mc_samples": spec.mc_samples, "mc_seed": spec.seed}
    write_csv(out_dir / "grid_scan.csv", meta, ("x", "y", "z", "max_outage"),
              [(*pos, val) for pos, val in scan])
    center = baseline.static_center_policy(env.topology, cfg.kinematic_limits())
    center_est = channel.outage_probability(env.topology.sbs_list, center, params,
                                            spec.mc_samples, spec.seed)
    center_val = channel.max_outage(center_est)
    write_csv(out_dir / "baseline_summary.csv", meta,
              ("method", "x", "y", "z", "max_outage"),
              [("grid_oracle", best_pos[0], best_pos[1], best_pos[2], best_val),
               ("static_center", center[0], center[1], center[2], center_val)])
    write_csv(out_dir / "sbs_layout.csv",
              {"seed": scenario_seed, "version": uavthz.__version__},
              ("index", "x", "y"), _sbs_layout_rows(env))
    manifest.finalize(out_dir, {"oracle_max_outage": best_val,
                                "static_center_max_outage": center_val})
    return EXIT_OK


def _parse_xyz(text: str, n: int):
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) != n:
        raise ConfigError(f"expected {n} comma-separated numbers, got {text!r}")
    return parts


def cmd_linkbudget(cfg: RunConfig, uav_xyz: str, sbs_list: list[str]) -> int:
    if not sbs_list:
        raise ConfigError("linkbudget needs at least one --sbs x,y")
    params = cfg.channel_params()
    env_cfg = cfg.env_config()
    uav = geometry.vec3(*_parse_xyz(uav_xyz, 3))
    uav_array = env_cfg.uav_array
    links = []
    for i, text in enumerate(sbs_list):
        x, y = _parse_xyz(text, 2)
        try:
            links.append(LinkState(geometry.vec3(x, y, 0.0), env_cfg.tx_power_w,
                                   uav_array, cfg.sbs_n_side))
        except InvalidInputError as exc:
            raise ConfigError(f"link {i + 1}: {exc}") from exc
    try:
        sample = channel.instantaneous_sinr(links, uav, (0.0, 0.0), params)
    except InvalidInputError as exc:
        raise ConfigError(f"degenerate geometry: {exc}") from exc
    g0_uav = normalization_constant(uav_array)
    g0_sbs = normalization_constant(ArrayAntennaConfig(cfg.sbs_n_side, cfg.spacing_over_lambda))
    print(f"uav: ({uav[0]:g}, {uav[1]:g}, {uav[2]:g})   "
          f"carrier {cfg.carrier_ghz:g} GHz   threshold {cfg.sinr_threshold_db:g} dB")
    header = (f"{'link':>4} {'length_m':>10} {'elev_deg':>9} {'p_los':>7} "
              f"{'freespace_db':>13} {'pathloss_db':>12} {'gain_db':>9} "
              f"{'intf_dbm':>10} {'sinr_db':>8}  verdict")
    print(header)
    for i, lk in enumerate(links):
        length = geometry.link_length(uav, lk.sbs_position)
        elev = geometry.elevation_angle(uav, lk.sbs_position)
        p_los = channel.los_probability(params, elev)
        hlf = channel.free_space_term(params, length)
        pl2 = channel.path_loss(params, length)
        sinr = sample.per_link_sinr[i]
        interference = sample.per_link_interference_w[i]
        verdict = "pass" if sinr >= params.sinr_threshold else "FAIL"
        intf_dbm = 10 * np.log10(interference * 1e3) if interference > 0 else -np.inf
        print(f"{i + 1:>4} {length:>10.3f} {np.degrees(elev):>9.3f} {p_los:>7.4f} "
              f"{10 * np.log10(hlf):>13.2f} {10 * np.log10(pl2):>12.2f} "
              f"{10 * np.log10(g0_sbs * g0_uav):>9.2f} {intf_dbm:>10.2f} "
              f"{10 * np.log10(sinr):>8.2f}  {verdict}")
    return EXIT_OK


# ------------------------------------------------------------------ entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="uavthz",
                                     description="UAV THz fronthaul simulator and trainer")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_dir=True):
        p.add_argument("--config", type=Path, default=None,
                       help="flat key=value config file (defaults apply if omitted)")
        p.add_argument("--seed", type=int, default=0)
        if out_dir:
            p.add_argument("--out-dir", type=Path, required=True)
        p.add_argument("--mc-samples", type=int, default=None,
                       help="override the Monte-Carlo sample count")

    p_train = sub.add_parser("train", help="train a policy and write the reward table")
    common(p_train)

    p_eval = sub.add_parser("eval", help="greedy rollout of a trained policy")
    common(p_eval)
    p_eval.add_argument("--checkpoint", type=Path, required=True)
    p_eval.add_argument("--scenario-seed", type=int, default=None,
                        help="topology seed (defaults to --seed)")

    p_base = sub.add_parser("baseline", help="grid-search oracle and static-center scan")
    common(p_base)
    p_base.add_argument("--scenario-seed", type=int, default=None)

    p_link = sub.add_parser("linkbudget", help="one-shot per-link budget report")
    common(p_link, out_dir=False)
    p_link.add_argument("--uav", required=True, help="x,y,z in meters")
    p_link.add_argument("--sbs", action="append", default=[], help="x,y in meters (repeat)")
    return parser


def _resolve_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config is not None else RunConfig()
    if args.mc_samples is None:
        return cfg
    n = args.mc_samples
    try:
        return replace(cfg, mc_samples_train=n, mc_samples_eval=n, grid_mc_samples=n)
    except ConfigError as exc:
        raise ConfigError(f"--mc-samples {n}: {exc}") from exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    manifest = None
    try:
        if args.command == "linkbudget":
            return cmd_linkbudget(_resolve_config(args), args.uav, args.sbs)
        out_dir = args.out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        seed = args.seed
        if getattr(args, "scenario_seed", None) is not None:
            seed = args.scenario_seed
        manifest = Manifest(out_dir, args.command, seed)
        for flag in ("seed", "scenario_seed"):
            value = getattr(args, flag, None)
            if value is not None and value < 0:
                # np.random.SeedSequence refuses a negative seed
                raise ConfigError(f"--{flag.replace('_', '-')} {value}: must be >= 0")
        cfg = _resolve_config(args)
        manifest.record_config(cfg)
        if args.command == "train":
            return cmd_train(cfg, seed, out_dir, manifest)
        if args.command == "eval":
            return cmd_eval(cfg, args.checkpoint, seed, out_dir, manifest)
        return cmd_baseline(cfg, seed, out_dir, manifest)
    except (ConfigError, InvalidInputError) as exc:
        message, code = f"config error: {exc}", EXIT_CONFIG
    except NumericFailureError as exc:
        message, code = f"numeric failure: {exc}", EXIT_NUMERIC
    except OSError as exc:
        message, code = f"i/o error: {exc}", EXIT_IO
    print(message, file=sys.stderr)
    if manifest is not None:
        # The error is already reported; a manifest that cannot be rewritten
        # (the same I/O fault) must not turn the exit code into a traceback.
        with contextlib.suppress(OSError):
            manifest.fail(message)
    return code


if __name__ == "__main__":
    sys.exit(main())
