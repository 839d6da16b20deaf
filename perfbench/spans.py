"""In-memory span tracer that wraps the program's layer functions from outside.

Each target is resolved by name when the tracer is installed. A target that no
longer exists is recorded as absent instead of failing the run, so the
benchmark keeps working while later changes rename or delete functions. A
function is patched at every `uavthz` module attribute that holds it, which
covers callers that resolve it through a from-import (`cli.normalization_constant`
as well as `antenna.normalization_constant`).

Spans nest: a span's self time is its duration minus the time of the spans it
directly caused. Generator functions keep their laziness; each `next()` is one
span.
"""

import functools
import importlib
import inspect
import os
import sys
from collections import Counter
from time import perf_counter

# Spans whose individual durations are kept for percentiles.
SAMPLED = ("channel.outage", "environment.step", "td3.update", "baseline.scan")


def _bound(fn):
    """Return a function mapping a call's (args, kwargs) to its named arguments."""
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        try:
            return sig.bind(*args, **kwargs).arguments
        except TypeError:
            return {}
    return arguments


def _count_gain_evals(fn):
    import numpy as np
    named = _bound(fn)

    def hook(counters, args, kwargs, result):
        a = named(args, kwargs)
        if "theta_x" in a and "theta_y" in a:
            shape = np.broadcast_shapes(np.shape(a["theta_x"]), np.shape(a["theta_y"]))
            counters["antenna.gain_evals"] += int(np.prod(shape))
    return hook


def _count_draws(fn):
    named = _bound(fn)

    def hook(counters, args, kwargs, result):
        a = named(args, kwargs)
        if "n_samples" in a and "links" in a:
            s, m = int(a["n_samples"]), len(a["links"])
            counters["channel.draws"] += s
            counters["channel.pair_draws"] += s * m * m
    return hook


def _count_moves(fn):
    def hook(counters, args, kwargs, result):
        elapsed = getattr(result, "elapsed", None)
        if elapsed is not None:
            counters["environment.moved"] += elapsed > 0
    return hook


def _count_checkpoint_bytes(fn):
    named = _bound(fn)

    def hook(counters, args, kwargs, result):
        path = named(args, kwargs).get("path")
        if path is None:
            return
        for candidate in (os.fspath(path), os.fspath(path) + ".npz"):
            if os.path.isfile(candidate):
                counters["neural.checkpoint_bytes"] += os.path.getsize(candidate)
                return
    return hook


# (module, attribute path, span name, counter hook factory or None)
TARGETS = (
    ("uavthz.antenna", "normalization_constant", "antenna.g0", None),
    ("uavthz.antenna", "gain_at_axis_offsets", "antenna.gain", _count_gain_evals),
    ("uavthz.channel", "outage_probability", "channel.outage", _count_draws),
    ("uavthz.environment", "Environment.step", "environment.step", _count_moves),
    ("uavthz.td3", "update", "td3.update", None),
    ("uavthz.td3", "critic_update", "td3.critic_update", None),
    ("uavthz.td3", "actor_update", "td3.actor_update", None),
    ("uavthz.td3", "sync_targets", "td3.sync_targets", None),
    ("uavthz.td3", "select_action", "td3.select_action", None),
    ("uavthz.neural", "forward", "neural.forward", None),
    ("uavthz.neural", "backward", "neural.backward", None),
    ("uavthz.neural", "adam_step", "neural.adam_step", None),
    ("uavthz.neural", "polyak_update", "neural.polyak_update", None),
    ("uavthz.neural", "save_net", "neural.save_net", _count_checkpoint_bytes),
    ("uavthz.neural", "load_net", "neural.load_net", _count_checkpoint_bytes),
    ("uavthz.baseline", "scan_grid", "baseline.scan", None),
    ("uavthz.cli", "write_csv", "cli.write_csv", None),
    ("uavthz.cli", "save_checkpoint", "cli.checkpoint", None),
    ("uavthz.cli", "Manifest.finalize", "cli.finalize", None),
)

# Every public function defined in these modules is traced under one span name.
WHOLE_MODULES = (("uavthz.geometry", "geometry"),)


class Tracer:
    """Aggregates spans per name: calls, total and self seconds, optional samples."""

    def __init__(self):
        self.stats = {}                # name -> [calls, total_s, self_s]
        self.samples = {name: [] for name in SAMPLED}
        self.counters = Counter()
        self.top_level_s = 0.0         # time covered by spans with no parent
        self.absent = set()            # targets or counters that could not be resolved
        self._open = []                # child time accumulated by each open span

    def _close(self, name, start, end):
        duration = end - start
        child = self._open.pop()
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child
        if name in self.samples:
            self.samples[name].append(duration)
        if self._open:
            self._open[-1] += duration
        else:
            self.top_level_s += duration

    def wrap(self, name, fn, hook=None):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        self._open.append(0.0)
                        start = perf_counter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            # The exhausting call yields no item, so it is
                            # kept out of the per-item samples.
                            self._close(f"{name}.exhausted", start, perf_counter())
                            return
                        except BaseException:
                            self._close(name, start, perf_counter())
                            raise
                        self._close(name, start, perf_counter())
                        yield item
                finally:
                    inner.close()
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, start, perf_counter())
            if hook is not None:
                try:
                    hook(self.counters, args, kwargs, result)
                except (TypeError, ValueError):
                    # A changed signature loses the counter, never the call.
                    self.absent.add(f"{name} counter")
            return result
        return traced

    def _patch(self, module_name, path, name, hook_factory):
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.add(f"{module_name}.{path}")
            return
        try:
            hook = hook_factory(original) if hook_factory else None
        except (TypeError, ValueError):
            hook = None
            self.absent.add(f"{name} counter")
        traced = self.wrap(name, original, hook)
        if inspect.isclass(owner):
            setattr(owner, attr, traced)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "uavthz":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)

    def install(self):
        for module_name, path, name, hook_factory in TARGETS:
            self._patch(module_name, path, name, hook_factory)
        for module_name, name in WHOLE_MODULES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.add(module_name)
                continue
            for attr, value in list(vars(module).items()):
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module_name):
                    self._patch(module_name, attr, name, None)

    def report(self) -> dict:
        """A copy of everything recorded so far."""
        return {
            "stats": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                      for k, v in self.stats.items()},
            "samples_s": {k: list(v) for k, v in self.samples.items()},
            "counters": dict(self.counters),
            "top_level_s": self.top_level_s,
            "absent": sorted(self.absent),
        }
