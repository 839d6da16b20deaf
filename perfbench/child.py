"""One measured process: set-up, the workload's command a few times, optional extras.

Usage: python3 child.py SPEC.json

The spec names the source tree, the `linkbudget` set-up arguments, one
argument list per repeat of the command, whether to trace, and an optional
precision probe. The result is written as JSON to the path the spec gives;
nothing is printed on success, because the CLI owns standard output.
"""

import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time


def precision_probe(probe: dict) -> list:
    """Worst-link outage at a scenario's static-centre position, one value per MC seed."""
    from uavthz import baseline, channel, config, environment

    cfg = config.load_config(probe["config"])
    env = environment.Environment(cfg.env_config(), cfg.channel_params())
    env.reset(probe["scenario"])
    centre = baseline.static_center_policy(env.topology, cfg.kinematic_limits())
    return [channel.max_outage(channel.outage_probability(
                env.topology.sbs_list, centre, env.params, probe["samples"], seed))
            for seed in probe["seeds"]]


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    start = perf_counter()
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import uavthz
    from uavthz import cli
    if src not in Path(uavthz.__file__).resolve().parents:
        print(f"uavthz was imported from {uavthz.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        setup_rc = cli.main(spec["setup_argv"])
    result = {"setup_rc": setup_rc, "setup_stdout": captured.getvalue(),
              "setup_s": perf_counter() - start, "commands": []}

    if tracer is not None:
        result["trace_setup"] = tracer.report()
        tracer.top_level_s = 0.0
    for command in spec["commands"]:
        t0, c0 = perf_counter(), process_time()
        rc = cli.main(command["argv"])
        wall_s, cpu_s = perf_counter() - t0, process_time() - c0
        out_dir = Path(command["out_dir"])
        result["commands"].append({
            "rc": rc, "wall_s": wall_s, "cpu_s": cpu_s,
            "output_bytes": sum(f.stat().st_size for f in out_dir.rglob("*") if f.is_file()),
        })
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["numpy"] = sys.modules["numpy"].__version__
    if tracer is not None:
        result["trace_total"] = tracer.report()
    if spec.get("precision"):
        result["precision"] = precision_probe(spec["precision"])
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
