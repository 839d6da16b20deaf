"""Command-line front end: train, eval, baseline and linkbudget subcommands.

`main` does the steps every run command shares, in this order: it creates
--out-dir and writes the manifest there, checks the seed, loads the config
and records it in the manifest, and builds the environment and resets it
from the seed. A run command (`cmd_train`, `cmd_eval`, `cmd_baseline`) takes
the config, that environment and the parsed arguments, writes its files
under --out-dir and returns a summary dict and the paths it wrote. `main`
finalizes the manifest with the summary, with wall-clock timings and with
SHA-256 digests of those files alone, so a file already in --out-dir, such
as another command's output, is not listed. A run that exits non-zero leaves
the manifest marked "failed" with the error message. `linkbudget` draws
nothing and writes no files.

One seed sets the topology and every draw of a run: --seed, which `eval` and
`baseline` also accept spelled --scenario-seed. Output tables are CSV with a
'#'-prefixed preamble (the seed, the version, then any run metadata) and
9-significant-digit floats, so a repeated run with the same config and seed
is byte-identical.

`train` leaves its policy in checkpoint/nets.npz, the checkpoint's only
file: the float32 parameter blocks of the actor, the twin critics and their
targets (layout in uavthz.neural). The config is recorded once, in the manifest.
`eval` builds the agent from its own --config and fills the four blocks, so
a checkpoint read under other network widths ends with exit 2.
"""

import argparse
import contextlib
import hashlib
import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import uavthz
from uavthz import baseline, channel, geometry, neural, td3
from uavthz.config import RunConfig, load_config, serialize_config
from uavthz.environment import Environment
from uavthz.errors import (ConfigError, GeometryDegenerateError, InvalidInputError,
                           NumericFailureError)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4
EXIT_INTERRUPTED = 130      # 128 + SIGINT, the shell's code for a Ctrl-C

# Least seconds between two progress lines of the baseline scan on stderr.
PROGRESS_INTERVAL_S = 5.0

# A checkpoint is one archive of the agent's parameter blocks (neural.save_net).
CHECKPOINT_FILE = "nets.npz"


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.9g}"
    return str(value)


def write_csv(path: Path, seed: int, header, rows, **meta) -> Path:
    """Write a table under a '#' preamble (the seed, the version, then meta); return path."""
    meta = {"seed": seed, "version": uavthz.__version__, **meta}
    lines = [f"# {k}: {_fmt(v)}" for k, v in meta.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


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
        params = cfg.channel_params()
        self.data["config"] = text
        self.data["config_sha256"] = hashlib.sha256(text.encode()).hexdigest()
        self.data["resolved_si"] = {
            "noise_power_w": params.noise_power_w,
            "tx_power_w": params.tx_power_w,
            "sinr_threshold_linear": params.sinr_threshold,
            "vibration_std_rad": params.vibration_std_rad,
            "carrier_hz": params.carrier_hz,
            "action_scale_m": cfg.kinematic_limits().action_scale,
        }
        self._write()

    def fail(self, message: str):
        self.data["status"] = "failed"
        self.data["error"] = message
        self.data["wall_clock_s"] = perf_counter() - self.started
        self._write()

    def finalize(self, out_dir: Path, summary: dict, written):
        """Mark the run complete with its summary and the digests of the files it wrote.

        written lists the paths under out_dir that the command wrote; any
        other file there, such as another run's output, is left out.
        """
        self.data["status"] = "complete"
        self.data["wall_clock_s"] = perf_counter() - self.started
        self.data.update(summary)
        for f in sorted(written):
            self.data["outputs"][str(f.relative_to(out_dir))] = _sha256(f)
        self._write()


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


def save_checkpoint(ck_dir: Path, agent: td3.Td3Agent) -> Path:
    """Write the agent's four nets to ck_dir/nets.npz, the checkpoint's only file; return its path.

    Keep the name: the benchmark's tracer wraps this function by name.
    """
    ck_dir.mkdir(parents=True, exist_ok=True)
    path = ck_dir / CHECKPOINT_FILE
    neural.save_net(path, agent.nets())
    return path


def load_checkpoint(ck_dir: Path, cfg: RunConfig, seed: int) -> td3.Td3Agent:
    """An agent built from cfg and seed whose four nets are read from ck_dir.

    The checkpoint overwrites every net, so the seed sets only the agent's
    generators, which a greedy rollout never reads.
    """
    path = ck_dir / CHECKPOINT_FILE
    if not path.is_file():
        raise ConfigError(f"no checkpoint at {ck_dir}")
    agent = td3.Td3Agent.create(cfg.hyperparams(), seed)
    neural.load_net(path, agent.nets())
    return agent


# ------------------------------------------------------------------ subcommands

def cmd_train(cfg: RunConfig, env: Environment, args) -> tuple[dict, list[Path]]:
    agent = td3.Td3Agent.create(cfg.hyperparams(), args.seed)
    logs = td3.train(env, agent)
    avg = moving_average([lg.reward for lg in logs], 40)
    written = [write_csv(args.out_dir / "rewards.csv", args.seed,
                         ("episode", "reward", "moving_avg_40", "mean_max_outage"),
                         [(lg.episode, lg.reward, avg[i], lg.mean_max_outage)
                          for i, lg in enumerate(logs)]),
               save_checkpoint(args.out_dir / "checkpoint", agent)]
    return {"episodes": len(logs), "final_moving_avg_40": avg[-1]}, written


def write_sbs_layout(out_dir: Path, env: Environment, seed: int) -> Path:
    return write_csv(out_dir / "sbs_layout.csv", seed, ("index", "x", "y"),
                     [(i, x, y) for i, (x, y, _) in enumerate(env.topology.sbs_list)])


def cmd_eval(cfg: RunConfig, env: Environment, args) -> tuple[dict, list[Path]]:
    agent = load_checkpoint(args.checkpoint, cfg, args.seed)
    times, positions = td3.greedy_rollout(env, agent, cfg.steps_per_episode)
    # The rollout only moves the UAV; every visited position is scored here,
    # at evaluation-grade sample counts in one scan with one shared seed, so
    # along-trajectory comparisons share their randomness.
    rescore_seed = args.seed + 1
    outages = channel.outage_scan(env.topology.sbs_list, positions, env.params,
                                  cfg.mc_samples_eval, rescore_seed)
    rows = [(k, t, *position, channel.max_outage(outage), *outage)
            for k, (t, position, outage) in enumerate(zip(times, positions, outages))]
    header = ("step", "t", "x", "y", "z", "max_outage",
              *(f"outage_{i + 1}" for i in range(len(env.topology.sbs_list))))
    written = [write_csv(args.out_dir / "trajectory.csv", args.seed, header, rows,
                         mc_samples=cfg.mc_samples_eval, rescore_seed=rescore_seed),
               write_sbs_layout(args.out_dir, env, args.seed)]
    best = min(rows, key=lambda row: row[5])  # the first step at the lowest max outage
    return {
        "episode_time_s": float(times[-1]),
        "initial_max_outage": rows[0][5],
        "final_max_outage": rows[-1][5],
        "best_max_outage": best[5],
        "best_step": best[0],
    }, written


def cmd_baseline(cfg: RunConfig, env: Environment, args) -> tuple[dict, list[Path]]:
    mc_seed = args.seed + 1
    started = perf_counter()

    def progress(k, n):
        nonlocal started
        now = perf_counter()
        if now - started >= PROGRESS_INTERVAL_S:
            print(f"scanned {k}/{n} positions", file=sys.stderr)
            started = now

    points, worst, best = baseline.scan_grid(env, cfg.grid_x, cfg.grid_y, cfg.grid_z,
                                             cfg.grid_mc_samples, mc_seed, progress)
    meta = {"mc_samples": cfg.grid_mc_samples, "mc_seed": mc_seed}
    written = [write_csv(args.out_dir / "grid_scan.csv", args.seed, ("x", "y", "z", "max_outage"),
                         [(*pos, val) for pos, val in zip(points[:-1], worst[:-1])], **meta),
               write_csv(args.out_dir / "baseline_summary.csv", args.seed,
                         ("method", "x", "y", "z", "max_outage"),
                         [("grid_oracle", *points[best], worst[best]),
                          ("static_center", *points[-1], worst[-1])], **meta),
               write_sbs_layout(args.out_dir, env, args.seed)]
    return {"oracle_max_outage": float(worst[best]),
            "static_center_max_outage": float(worst[-1])}, written


def _parse_xyz(text: str, n: int):
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) != n:
        raise ConfigError(f"expected {n} comma-separated numbers, got {text!r}")
    return parts


def _db(power):
    """10 * log10(power), elementwise; a zero power reads -inf, without a warning."""
    with np.errstate(divide="ignore"):
        return 10 * np.log10(power)


def cmd_linkbudget(cfg: RunConfig, uav_xyz: str, sbs_list: list[str]) -> int:
    if not sbs_list:
        raise ConfigError("linkbudget needs at least one --sbs x,y")
    params = cfg.channel_params()
    uav = geometry.vec3(*_parse_xyz(uav_xyz, 3))
    sbs = np.zeros((len(sbs_list), 3))
    for i, text in enumerate(sbs_list):
        try:
            sbs[i] = geometry.vec3(*_parse_xyz(text, 2), 0.0)
        except InvalidInputError as exc:
            raise ConfigError(f"link {i + 1}: {exc}") from exc
    try:
        link_sinrs, interference_w = channel.instantaneous_sinr(sbs, uav, (0.0, 0.0), params)
    except GeometryDegenerateError as exc:
        raise ConfigError(f"degenerate geometry: {exc}") from exc
    gain_db = _db(params.sbs_g0 * params.uav_g0)
    print(f"uav: ({uav[0]:g}, {uav[1]:g}, {uav[2]:g})   "
          f"carrier {cfg.carrier_ghz:g} GHz   threshold {cfg.sinr_threshold_db:g} dB")
    header = (f"{'link':>4} {'length_m':>10} {'elev_deg':>9} {'p_los':>7} "
              f"{'freespace_db':>13} {'pathloss_db':>12} {'gain_db':>9} "
              f"{'intf_dbm':>10} {'sinr_db':>8}  verdict")
    print(header)
    length = geometry.link_length(uav, sbs)
    elev = geometry.elevation_angle(uav, sbs)
    columns = zip(length, np.degrees(elev), channel.los_probability(params, elev),
                  _db(channel.free_space_term(params, length)),
                  _db(channel.path_loss(params, length)),
                  _db(interference_w * 1e3), link_sinrs)
    for i, (length_m, elev_deg, p_los, free_db, loss_db, intf_dbm, sinr) in enumerate(columns):
        verdict = "pass" if sinr >= params.sinr_threshold else "FAIL"
        print(f"{i + 1:>4} {length_m:>10.3f} {elev_deg:>9.3f} {p_los:>7.4f} "
              f"{free_db:>13.2f} {loss_db:>12.2f} {gain_db:>9.2f} {intf_dbm:>10.2f} "
              f"{_db(sinr):>8.2f}  {verdict}")
    return EXIT_OK


# ------------------------------------------------------------------ entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="uavthz",
                                     description="UAV THz fronthaul simulator and trainer")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, text, *seed_spellings):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", type=Path, default=None,
                       help="flat key=value config file (defaults apply if omitted)")
        if seed_spellings:   # linkbudget draws nothing and writes no files
            p.add_argument(*seed_spellings, dest="seed", type=int, default=0,
                           help="seed of the topology and of every draw of the run")
            p.add_argument("--out-dir", type=Path, required=True)
        return p

    command("train", "train a policy and write the reward table", "--seed")
    p_eval = command("eval", "greedy rollout of a trained policy", "--seed", "--scenario-seed")
    p_eval.add_argument("--checkpoint", type=Path, required=True)
    command("baseline", "grid-search oracle and static-center scan", "--seed", "--scenario-seed")
    p_link = command("linkbudget", "one-shot per-link budget report")
    p_link.add_argument("--uav", required=True, help="x,y,z in meters")
    p_link.add_argument("--sbs", action="append", default=[], help="x,y in meters (repeat)")
    return parser


COMMANDS = {"train": cmd_train, "eval": cmd_eval, "baseline": cmd_baseline}


def _config(path) -> RunConfig:
    return RunConfig() if path is None else load_config(path)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    manifest = None
    try:
        if args.command == "linkbudget":
            return cmd_linkbudget(_config(args.config), args.uav, args.sbs)
        args.out_dir.mkdir(parents=True, exist_ok=True)
        manifest = Manifest(args.out_dir, args.command, args.seed)
        if args.seed < 0:
            # np.random.SeedSequence refuses a negative seed
            raise ConfigError(f"--seed {args.seed}: must be >= 0")
        cfg = _config(args.config)
        manifest.record_config(cfg)
        env = Environment(cfg.env_config(), cfg.channel_params())
        env.reset(args.seed)
        manifest.finalize(args.out_dir, *COMMANDS[args.command](cfg, env, args))
        return EXIT_OK
    except (ConfigError, InvalidInputError) as exc:
        message, code = f"config error: {exc}", EXIT_CONFIG
    except MemoryError as exc:
        message, code = f"config error: out of memory: {exc}", EXIT_CONFIG
    except NumericFailureError as exc:
        message, code = f"numeric failure: {exc}", EXIT_NUMERIC
    except OSError as exc:
        message, code = f"i/o error: {exc}", EXIT_IO
    except KeyboardInterrupt:
        message, code = "interrupted", EXIT_INTERRUPTED
    print(message, file=sys.stderr)
    if manifest is not None:
        # The error is already reported; a manifest that cannot be rewritten
        # (the same I/O fault) must not turn the exit code into a traceback.
        with contextlib.suppress(OSError):
            manifest.fail(message)
    return code


if __name__ == "__main__":
    sys.exit(main())
