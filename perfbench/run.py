"""End-to-end and per-layer benchmark of the `train`, `baseline` and `eval` commands.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload train --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

A run is a closed loop with one client. It starts one fresh child process at
a time (`perfbench/child.py`). Each child imports the package and calls
`linkbudget` once (set-up), then runs the workload's command through
`cli.main` a fixed number of times. Children follow one another until
`--seconds` have passed, and at least three run. End-to-end metrics are
medians: `setup_s` over children, `wall_s` over all commands. With
`--trace 1`, untraced and traced children alternate; the traced ones wrap the
program's layer functions (see `spans.py`) and give the per-layer metrics.
Every command run and every output check is one operation; a failed one is
counted in `failed` and makes `correct` false.

The workload seed picks one of 64 recorded six-station scenarios; the CLI
derives every Monte-Carlo stream from it. The program receives only the
generated config file and command-line flags.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Human-readable lines before it print
every metric with its unit, the error rate and the machine. The full record
is written to `.perfbench/results/`.
"""

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCES = HERE / "references.json"

RUN_BUDGET_S = 170.0      # every run ends well inside the 180 s limit
MIN_CHILDREN = 3          # untraced children per --trace 0 run
# One BLAS thread: on a small shared machine a second spinning BLAS thread
# made command times noisier and no faster. Never more than nproc.
BLAS_THREADS = 1
REFERENCE_K = 5.0         # tolerance in Monte-Carlo standard errors
PRECISION_SEEDS = tuple(range(1000, 1030))
REFERENCE_SCENARIO = 0
N_SCENARIOS = 64          # workload seeds map onto this many recorded scenarios

# Every scenario has six stations, so the cost of a command does not depend on
# the seed; only the station positions and the Monte-Carlo streams change.
SIX_STATIONS = {"topology.m_s_min": 6, "topology.m_s_max": 6}

WORKLOADS = {
    "train": {
        "why": ("200 TD3 steps at 500 draws, a fresh MC seed per step: TD3/neural work and "
                "per-call kernel overhead dominate; lattice and large-S changes should not "
                "move it"),
        "config": {**SIX_STATIONS, "td3.episodes": 20, "td3.warmup_steps": 64},
        "repeats": 4,
        "precision_samples": 500,
    },
    "baseline": {
        "why": ("3x3x2 lattice at 10k draws sharing one MC seed (common random numbers): "
                "chunked lattice scans show here; no TD3 work"),
        "config": {**SIX_STATIONS, "baseline.grid_x": 3, "baseline.grid_y": 3,
                   "baseline.grid_z": 2},
        "repeats": 6,
        "precision_samples": 10_000,
    },
    "eval": {
        "why": ("checkpoint load plus 3 positions re-scored at 100k draws (28.8 MB per "
                "(S,M,M) tensor): memory traffic, not per-call overhead, sets the time"),
        "config": {**SIX_STATIONS, "td3.episodes": 4, "td3.steps_per_episode": 2,
                   "td3.warmup_steps": 36},
        "repeats": 3,
        "precision_samples": 10_000,
    },
}

# Tiny settings for --smoke: same code paths, seconds instead of minutes.
SMOKE_CONFIG = {
    "antenna.uav_n_side": 4, "antenna.sbs_n_side": 2,
    "td3.hidden1": 16, "td3.hidden2": 8, "td3.batch_size": 4,
    "env.mc_samples_train": 64, "env.mc_samples_eval": 256,
    "baseline.grid_x": 2, "baseline.grid_y": 2, "baseline.grid_z": 1,
    "baseline.mc_samples": 128,
}
SMOKE_TRAIN = {"td3.episodes": 3, "td3.steps_per_episode": 4, "td3.warmup_steps": 6}

# ------------------------------------------------------------------ per-layer metrics

def _stat(v, name, key):
    return v["stats"].get(name, {}).get(key, 0)


def _ratio(num, den):
    return num / den if den else 0.0


def _calls(name):
    return lambda v: _stat(v, name, "calls")


def _total(name):
    return lambda v: _stat(v, name, "total_s")


def _self(name):
    return lambda v: _stat(v, name, "self_s")


def _counter(key):
    return lambda v: v["counters"].get(key, 0)


# name -> (unit, value for one invocation: set-up plus one command).
# Percentiles are pooled over all traced commands instead.
PER_CHILD = {
    "antenna.g0_calls": ("count", _calls("antenna.g0")),
    "antenna.g0_s": ("s", _total("antenna.g0")),
    "antenna.gain_calls": ("count", _calls("antenna.gain")),
    "antenna.gain_evals": ("count", _counter("antenna.gain_evals")),
    # self time: the first call in a process also runs the g0 quadrature
    "antenna.gain_s": ("s", _self("antenna.gain")),
    "geometry.calls": ("count", _calls("geometry")),
    # geometry functions call each other, so self time avoids double counting
    "geometry.s": ("s", _self("geometry")),
    "channel.outage_calls": ("count", _calls("channel.outage")),
    "channel.draws": ("count", _counter("channel.draws")),
    "channel.outage_s": ("s", _total("channel.outage")),
    "channel.self_s": ("s", _self("channel.outage")),
    "channel.ns_per_pair_draw": ("ns", lambda v: 1e9 * _ratio(
        _stat(v, "channel.outage", "total_s"), v["counters"].get("channel.pair_draws", 0))),
    "environment.step_calls": ("count", _calls("environment.step")),
    "environment.step_s": ("s", _total("environment.step")),
    "environment.self_s": ("s", _self("environment.step")),
    "environment.moved_ratio": ("ratio", lambda v: _ratio(
        v["counters"].get("environment.moved", 0), _stat(v, "environment.step", "calls"))),
    "td3.update_calls": ("count", _calls("td3.update")),
    "td3.update_s": ("s", _total("td3.update")),
    "td3.critic_update_s": ("s", _total("td3.critic_update")),
    "td3.actor_update_s": ("s", _total("td3.actor_update")),
    "td3.sync_targets_s": ("s", _total("td3.sync_targets")),
    "td3.select_action_s": ("s", _total("td3.select_action")),
    "neural.forward_calls": ("count", _calls("neural.forward")),
    "neural.forward_s": ("s", _total("neural.forward")),
    "neural.backward_s": ("s", _total("neural.backward")),
    "neural.adam_step_calls": ("count", _calls("neural.adam_step")),
    "neural.adam_step_s": ("s", _total("neural.adam_step")),
    "neural.polyak_update_s": ("s", _total("neural.polyak_update")),
    "neural.save_net_s": ("s", _total("neural.save_net")),
    "neural.load_net_s": ("s", _total("neural.load_net")),
    "neural.checkpoint_bytes": ("bytes", _counter("neural.checkpoint_bytes")),
    "baseline.points": ("count", _calls("baseline.scan")),
    "baseline.scan_s": ("s", lambda v: _stat(v, "baseline.scan", "total_s")
                        + _stat(v, "baseline.scan.exhausted", "total_s")),
    "cli.write_csv_s": ("s", _total("cli.write_csv")),
    "cli.output_bytes": ("bytes", lambda v: v["output_bytes"]),
    "cli.checkpoint_s": ("s", _total("cli.checkpoint")),
    "cli.finalize_s": ("s", _total("cli.finalize")),
    "trace.coverage": ("ratio", lambda v: v["coverage"]),
}

# name -> (span, quantile); values in ms over the samples of all traced children.
PERCENTILES = {
    "channel.outage_ms.p50": ("channel.outage", 0.5),
    "channel.outage_ms.p90": ("channel.outage", 0.9),
    "environment.step_ms.p50": ("environment.step", 0.5),
    "environment.step_ms.p90": ("environment.step", 0.9),
    "td3.update_ms.p50": ("td3.update", 0.5),
    "td3.update_ms.p90": ("td3.update", 0.9),
    "baseline.point_ms.p50": ("baseline.scan", 0.5),
    "baseline.point_ms.p90": ("baseline.scan", 0.9),
}


def percentile_ms(samples, q):
    """The q-quantile in ms, or None unless at least ten samples lie beyond it."""
    if len(samples) * (1.0 - q) < 10:
        return None
    ordered = sorted(samples)
    return 1e3 * ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)]


def invocation_view(r: dict) -> dict:
    """One traced child's spans as one invocation: set-up plus the mean command."""
    setup, total = r["trace_setup"], r["trace_total"]
    k = len(r["commands"])

    def per_invocation(before, after):
        return before + (after - before) / k

    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    stats = {name: {key: per_invocation(setup["stats"].get(name, zero)[key], value)
                    for key, value in after.items()}
             for name, after in total["stats"].items()}
    counters = {key: per_invocation(setup["counters"].get(key, 0), value)
                for key, value in total["counters"].items()}
    walls = sum(c["wall_s"] for c in r["commands"])
    return {"stats": stats, "counters": counters,
            "coverage": _ratio(total["top_level_s"], walls),
            "output_bytes": r["commands"][0]["output_bytes"]}


def command_samples(r: dict, span: str) -> list:
    before = len(r["trace_setup"]["samples_s"].get(span, []))
    return r["trace_total"]["samples_s"].get(span, [])[before:]


def command_walls(children) -> list:
    return [c["wall_s"] for r in children for c in r["commands"]]


def layer_metrics(traced, untraced) -> dict:
    """Per-layer metrics: per-child medians, pooled percentiles, tracing overhead.

    A percentile without ten samples beyond it, or a layer that did no work on
    this workload, reads 0.
    """
    views = [invocation_view(r) for r in traced]
    out = {name: (unit, statistics.median(fn(v) for v in views))
           for name, (unit, fn) in PER_CHILD.items()}
    for name, (span, q) in PERCENTILES.items():
        value = percentile_ms([s for r in traced for s in command_samples(r, span)], q)
        out[name] = ("ms", 0.0 if value is None else value)
    out["trace.overhead_s"] = ("s", statistics.median(command_walls(traced))
                               - statistics.median(command_walls(untraced)))
    return out


def end_to_end_metrics(untraced, precision_values) -> dict:
    return {
        "setup_s": ("s", statistics.median(r["setup_s"] for r in untraced)),
        "wall_s": ("s", statistics.median(command_walls(untraced))),
        "peak_rss_mb": ("MB", statistics.median(r["peak_rss_mb"] for r in untraced)),
        "max_outage_std": ("probability", statistics.stdev(precision_values)),
    }


# ------------------------------------------------------------------ inputs

def write_config(path: Path, values: dict) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    return path


def linkbudget_argv(config: Path, seed: int) -> list:
    """Set-up call: one link budget for six generated stations around the centre."""
    rng = random.Random(seed)
    argv = ["linkbudget", "--config", str(config), "--uav", "75,75,80"]
    for _ in range(6):
        argv += ["--sbs", f"{rng.uniform(0, 150):.3f},{rng.uniform(0, 150):.3f}"]
    return argv


def command_argv(workload: str, config: Path, scenario: int, out_dir: Path,
                 checkpoint: Path | None) -> list:
    common = ["--config", str(config), "--out-dir", str(out_dir)]
    if workload == "train":
        return ["train", *common, "--seed", str(scenario)]
    if workload == "baseline":
        return ["baseline", *common, "--scenario-seed", str(scenario)]
    return ["eval", *common, "--checkpoint", str(checkpoint),
            "--scenario-seed", str(scenario)]


# ------------------------------------------------------------------ processes

def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Run:
    """Operations attempted in one benchmark invocation, with their outcomes."""

    def __init__(self):
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.ops = []          # (what, ok, detail)

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.ops.append((what, bool(ok), detail))
        return bool(ok)

    @property
    def failed(self):
        return [op for op in self.ops if not op[1]]

    def child(self, tag: str, setup_argv, commands, trace=False, precision=None):
        """Run one child process; returns its result, or None if it failed.

        `commands` is a list of (argv, out_dir), run in order after set-up.
        """
        spec_path = WORK / f"{tag}.spec.json"
        result_path = WORK / f"{tag}.result.json"
        result_path.unlink(missing_ok=True)
        spec = {"src": str(SRC), "setup_argv": setup_argv, "trace": trace,
                "commands": [{"argv": argv, "out_dir": str(out)} for argv, out in commands],
                "precision": precision, "result": str(result_path)}
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                                  cwd=ROOT, env=child_env(), capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.check(f"{tag}: finishes in time", False, f"killed after {timeout:.0f} s")
            return None
        if not self.check(f"{tag}: child exits 0",
                          proc.returncode == 0 and result_path.is_file(),
                          proc.stderr.strip()[-400:]):
            return None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        self.check(f"{tag}: linkbudget exits 0", result["setup_rc"] == 0)
        verdicts = [ln for ln in result["setup_stdout"].splitlines()
                    if ln.rstrip().endswith(("pass", "FAIL"))]
        self.check(f"{tag}: linkbudget reports six links", len(verdicts) == 6)
        for i, ((_, out_dir), done) in enumerate(zip(commands, result["commands"])):
            manifest = out_dir / "manifest.json"
            status = (json.loads(manifest.read_text(encoding="utf-8")).get("status")
                      if manifest.is_file() else None)
            self.check(f"{tag}/{i}: command exits 0 with a complete manifest",
                       done["rc"] == 0 and status == "complete",
                       f"exit {done['rc']}, status {status}")
        return result


# ------------------------------------------------------------------ output checks

def read_csv(path: Path):
    """(header, rows) of a CSV written by the CLI, without its '#' preamble."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def within_mc_error(value: float, reference: float, samples: int) -> bool:
    """|value - reference| <= k standard errors of a proportion estimated from `samples`."""
    p = min(max(reference, 1.0 / samples), 1.0 - 1.0 / samples)
    return abs(value - reference) <= REFERENCE_K * math.sqrt(p * (1 - p) / samples) + 1e-9


def linspace(lo, hi, n):
    return [lo] if n == 1 else [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def check_outputs(run: Run, workload: str, tag: str, out_dir: Path, cfg: dict,
                  scenario: int, refs: dict | None):
    if workload == "train":
        _, rows = read_csv(out_dir / "rewards.csv")
        finite = all(math.isfinite(float(v)) for row in rows for v in row[1:])
        run.check(f"{tag}: {cfg['td3.episodes']} finite reward rows",
                  len(rows) == cfg["td3.episodes"] and finite, f"{len(rows)} rows")
    elif workload == "baseline":
        _, rows = read_csv(out_dir / "grid_scan.csv")
        lattice = [(x, y, z)
                   for x in linspace(0.0, 150.0, cfg["baseline.grid_x"])
                   for y in linspace(0.0, 150.0, cfg["baseline.grid_y"])
                   for z in linspace(30.0, 130.0, cfg["baseline.grid_z"])]
        in_order = len(rows) == len(lattice) and all(
            math.isclose(float(a), b, rel_tol=1e-7, abs_tol=1e-6)
            for row, point in zip(rows, lattice) for a, b in zip(row[:3], point))
        run.check(f"{tag}: grid rows in lattice order", in_order, f"{len(rows)} rows")
        if refs is not None:
            _, summary = read_csv(out_dir / "baseline_summary.csv")
            centre = float(next(r for r in summary if r[0] == "static_center")[4])
            ref = refs["baseline_static_center"][scenario]
            run.check(f"{tag}: static-centre outage near reference",
                      within_mc_error(centre, ref, refs["baseline_samples"]),
                      f"{centre} vs {ref}")
    else:
        header, rows = read_csv(out_dir / "trajectory.csv")
        steps = cfg["td3.steps_per_episode"]
        run.check(f"{tag}: {steps + 1} trajectory rows", len(rows) == steps + 1,
                  f"{len(rows)} rows")
        if refs is not None and rows:
            step0 = float(rows[0][header.index("max_outage")])
            ref = refs["eval_step0"][scenario]
            run.check(f"{tag}: step-0 outage near reference",
                      within_mc_error(step0, ref, refs["eval_samples"]), f"{step0} vs {ref}")


def output_digests(out_dir: Path) -> dict:
    return json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))["outputs"]


# ------------------------------------------------------------------ one invocation

def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Run one workload; returns (run, untraced results, traced results, precision values)."""
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run()
    scenario = seed % N_SCENARIOS
    wl = WORKLOADS[workload]
    cfg = dict(wl["config"])
    if smoke:
        cfg.update(SMOKE_CONFIG)
        if workload != "baseline":
            cfg.update(SMOKE_TRAIN)
    config = write_config(work / "workload.cfg", cfg)
    refs = None if smoke else json.loads(REFERENCES.read_text(encoding="utf-8"))
    samples = 32 if smoke else wl["precision_samples"]
    precision = {"config": str(config), "scenario": REFERENCE_SCENARIO, "samples": samples,
                 "seeds": list(PRECISION_SEEDS[:3] if smoke else PRECISION_SEEDS)}
    setup_argv = linkbudget_argv(config, seed)

    checkpoint = None
    if workload == "eval":
        # Train a short checkpoint with the code under test; never a fixture.
        prep_dir = work / "prep"
        prep = run.child(f"{workload}/prep", setup_argv,
                         [(["train", "--config", str(config), "--seed", str(scenario),
                            "--out-dir", str(prep_dir)], prep_dir)])
        if prep is None:
            return run, [], [], []
        checkpoint = prep_dir / "checkpoint"

    untraced, traced, digests = [], [], None
    repeats = 1 if smoke else wl["repeats"]
    min_children = 2 if trace else MIN_CHILDREN
    started = time.monotonic()
    i = 0
    while (i < min_children or time.monotonic() - started < seconds) \
            and time.monotonic() < run.deadline - 30.0:
        is_traced = trace and i % 2 == 1
        tag = f"{workload}/child{i}"
        commands = [(command_argv(workload, config, scenario, out, checkpoint), out)
                    for out in (work / f"out{i}.{k}" for k in range(repeats))]
        result = run.child(tag, setup_argv, commands, trace=is_traced,
                           precision=precision if i == 0 else None)
        i += 1
        if result is None:
            continue
        for k, (_, out_dir) in enumerate(commands):
            check_outputs(run, workload, f"{tag}/{k}", out_dir, cfg, scenario, refs)
            if digests is None:
                digests = output_digests(out_dir)
                if workload == "train":
                    result["final_moving_avg_40"] = json.loads(
                        (out_dir / "manifest.json").read_text())["final_moving_avg_40"]
            else:
                run.check(f"{tag}/{k}: output digests equal the first command's",
                          output_digests(out_dir) == digests)
            shutil.rmtree(out_dir, ignore_errors=True)
        (traced if is_traced else untraced).append(result)

    values = untraced[0].get("precision", []) if untraced else []
    if refs is not None and values:
        ref = refs["precision_mean"][str(samples)]
        mean = statistics.fmean(values)
        run.check("precision mean near reference",
                  within_mc_error(mean, ref, samples * len(values)), f"{mean} vs {ref}")
    return run, untraced, traced, values


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def machine(untraced) -> dict:
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": untraced[0]["numpy"] if untraced else None,
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "platform": platform.platform()}


def report(workload, seed, seconds, trace, smoke=False):
    """Measure one workload, print every metric, and return the result object."""
    run, untraced, traced, precision = measure(workload, seed, seconds, trace, smoke)
    e2e = end_to_end_metrics(untraced, precision) if untraced and len(precision) > 1 else {}
    layers = layer_metrics(traced, untraced) if traced and untraced else {}
    attempted, failed = len(run.ops), len(run.failed)
    info = machine(untraced)

    print(f"# workload {workload}  seed {seed}  scenario {seed % N_SCENARIOS}  children "
          f"{len(untraced)} untraced + {len(traced)} traced, "
          f"{len(command_walls(untraced))} untraced commands")
    print(f"# git {info['git_sha']}  python {info['python']}  numpy {info['numpy']}  "
          f"nproc {info['nproc']}  blas_threads {info['blas_threads']}")
    for name, (unit, value) in {**e2e, **layers}.items():
        print(f"{workload:8s} {name:28s} {value:14.6g} {unit}")
    print(f"{workload:8s} {'error_rate':28s} {failed / max(attempted, 1):14.6g} ratio "
          f"({failed} of {attempted} operations)")
    if untraced and "final_moving_avg_40" in untraced[0]:
        print(f"{workload:8s} {'moving_avg_40 (not gated)':28s} "
              f"{untraced[0]['final_moving_avg_40']:14.6g} reward")
    for what, _, detail in run.failed:
        print(f"FAILED {what}: {detail}")
    absent = sorted({a for r in traced for a in r["trace_total"]["absent"]})
    if absent:
        print(f"# layers absent from this build: {', '.join(absent)}")

    chosen = layers if trace else e2e
    result = {"correct": failed == 0 and bool(chosen), "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (u, v) in chosen.items()}}
    record = {**result, "workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "smoke": smoke, "why": WORKLOADS[workload]["why"],
              "machine": info, "end_to_end": e2e, "per_layer": layers,
              "operations": run.ops, "absent_layers": absent,
              "children": [{"traced": r in traced, "setup_s": r["setup_s"],
                            "peak_rss_mb": r["peak_rss_mb"],
                            "wall_s": [c["wall_s"] for c in r["commands"]],
                            "cpu_s": [c["cpu_s"] for c in r["commands"]]}
                           for r in untraced + traced]}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{'smoke-' if smoke else ''}{workload}-seed{seed}-trace{int(trace)}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return result, e2e, layers


def smoke() -> int:
    """Every workload once, tiny configs, untraced and traced; checks every metric name."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in WORKLOADS:
        result, e2e, layers = report(workload, 0, 0, trace=True, smoke=True)
        if result["failed"]:
            problems.append(f"{workload}: {result['failed']} failed operations")
        for section, emitted in (("end_to_end", e2e), ("per_layer", layers)):
            for metric in bench[section]:
                got = emitted.get(metric["name"])
                if got is None or got[0] != metric["unit"]:
                    problems.append(f"{workload}: {section} metric {metric['name']} "
                                    f"[{metric['unit']}] emitted as {got}")
    for p in problems:
        print(f"SMOKE FAILED {p}")
    print(json.dumps({"smoke": "ok" if not problems else "failed", "problems": problems}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once on tiny configs and check metric names")
    args = parser.parse_args(argv)
    if not (SRC / "uavthz" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'uavthz'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result, _, _ = report(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
