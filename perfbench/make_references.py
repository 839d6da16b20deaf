"""Record the reference outages that the benchmark's output checks compare against.

Usage, from the root of a source checkout (about 90 s):

    python3 perfbench/make_references.py

Writes `perfbench/references.json`. The values were recorded once, at the
commit that added the benchmark; a later change that alters the Monte-Carlo
estimator must stay within a few standard errors of them. Re-record only to
fix the reference itself, never to make a failing check pass.
"""

import json
import sys
import tempfile
from pathlib import Path

import run
from child import precision_probe


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from uavthz import baseline, channel, config, environment

    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        cfg_path = {name: run.write_config(Path(tmp) / f"{name}.cfg", wl["config"])
                    for name, wl in run.WORKLOADS.items()}
        base_cfg = config.load_config(cfg_path["baseline"])
        eval_cfg = config.load_config(cfg_path["eval"])
        static_center, step0 = [], []
        for scenario in range(run.N_SCENARIOS):
            env = environment.Environment(base_cfg.env_config(), base_cfg.channel_params())
            env.reset(scenario)
            centre = baseline.static_center_policy(env.topology, base_cfg.kinematic_limits())
            static_center.append(channel.max_outage(channel.outage_probability(
                env.topology.sbs_list, centre, env.params, base_cfg.grid_mc_samples,
                scenario + 1)))
            env = environment.Environment(eval_cfg.env_config(), eval_cfg.channel_params())
            env.reset(scenario)
            step0.append(channel.max_outage(env.outage_at(
                env.state.uav_position, eval_cfg.mc_samples_eval, scenario + 1)))
            print(f"scenario {scenario}: static centre {static_center[-1]:.5f}, "
                  f"eval step 0 {step0[-1]:.5f}", flush=True)
        precision_mean = {}
        for name in ("train", "baseline"):
            samples = run.WORKLOADS[name]["precision_samples"]
            values = precision_probe({"config": str(cfg_path[name]),
                                      "scenario": run.REFERENCE_SCENARIO,
                                      "samples": samples,
                                      "seeds": list(run.PRECISION_SEEDS)})
            precision_mean[str(samples)] = sum(values) / len(values)
    refs = {"baseline_samples": base_cfg.grid_mc_samples,
            "eval_samples": eval_cfg.mc_samples_eval,
            "precision_mean": precision_mean,
            "baseline_static_center": static_center,
            "eval_step0": step0}
    run.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
