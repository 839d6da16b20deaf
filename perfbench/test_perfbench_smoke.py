"""Tests of the benchmark itself: smoke mode, the bare-directory failure, the tracer."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from spans import Tracer

HERE = Path(__file__).resolve().parent


def test_smoke_emits_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          cwd=HERE.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert json.loads(proc.stdout.splitlines()[-1]) == {"smoke": "ok", "problems": []}


def test_fails_without_program_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_spans_nest_and_generators_stay_lazy():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert tracer.stats["outer"][0] == tracer.stats["inner"][0] == 1
    outer_total, outer_self = tracer.stats["outer"][1:]
    assert abs(outer_total - outer_self - tracer.stats["inner"][1]) < 1e-12

    produced = []

    def numbers(n):
        for i in range(n):
            produced.append(i)
            yield i

    gen = tracer.wrap("baseline.scan", numbers)(3)
    assert produced == []
    assert next(gen) == 0 and produced == [0]
    assert list(gen) == [1, 2]
    assert len(tracer.samples["baseline.scan"]) == 3
    assert tracer.stats["baseline.scan.exhausted"][0] == 1
