"""Self-tests of the benchmark: the tracer's arithmetic and patching, tiny
smoke runs of every workload, and BENCHMARK.json kept in step with the code.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from run import END_TO_END
from tracer import Tracer
from workloads import WORKLOADS, layer_metric_names, layer_metric_unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.fixture
def fakepkg(monkeypatch):
    """fakepkg.inner defines leaf() and top(); fakepkg.user binds leaf by import."""
    pkg = types.ModuleType("fakepkg")
    pkg.__path__ = []
    inner = types.ModuleType("fakepkg.inner")
    exec("def leaf():\n    return 1\n\ndef top():\n    return leaf() + leaf()\n", inner.__dict__)
    user = types.ModuleType("fakepkg.user")
    user.leaf = inner.leaf
    for mod in (pkg, inner, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return types.SimpleNamespace(inner=inner, user=user)


def test_tracer_self_time_nesting_and_restore(fakepkg):
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 10.0])
    tracer = Tracer(["inner.top", "inner.leaf", "inner.gone", "missing.fn"], package="fakepkg",
                    counters={"inner.leaf": ("leaf.count", lambda args, kw: 1),
                              "inner.top": ("top.bad", lambda args, kw: args[5])},
                    clock=lambda: next(ticks))
    leaf, top = fakepkg.inner.leaf, fakepkg.inner.top
    with tracer:
        assert fakepkg.inner.leaf is not leaf
        assert fakepkg.user.leaf is fakepkg.inner.leaf
        assert fakepkg.inner.top() == 2
    assert fakepkg.inner.leaf is leaf and fakepkg.user.leaf is leaf
    assert fakepkg.inner.top is top

    totals = tracer.totals()
    assert totals["inner.top"] == (1, 10.0, 7.0)   # 10 s span minus its children's 2 + 1
    assert totals["inner.leaf"] == (2, 3.0, 3.0)
    assert totals["inner.gone"] == (0, 0.0, 0.0)
    assert list(tracer.parent) == [-1, 0, 0]
    assert tracer.counts["leaf.count"] == 2
    assert sorted(tracer.absent) == ["inner.gone", "missing.fn", "top.bad"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == layer_metric_names()
    assert all(m["unit"] == layer_metric_unit(m["name"]) for m in spec["per_layer"])


def run_benchmark(tmp_path, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--tiny", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    return result["metrics"]


def test_smoke_end_to_end_metrics(tmp_path):
    metrics = run_benchmark(tmp_path, trace=0)
    for w in WORKLOADS:
        for name, unit in END_TO_END.items():
            assert metrics[f"{w}.{name}"]["unit"] == unit
        assert metrics[f"{w}.units_per_s"]["value"] > 0
        assert metrics[f"{w}.setup_s"]["value"] > 0
    # a second run of the same seed meets the repeat records the first wrote
    run_benchmark(tmp_path, trace=0)


def test_smoke_traced_metrics_and_workload_contrasts(tmp_path):
    metrics = run_benchmark(tmp_path, trace=1)
    value = {k: v["value"] for k, v in metrics.items()}
    for w in WORKLOADS:
        for name in layer_metric_names():
            assert f"{w}.{name}" in metrics
    rows = "encoders.encode_history.rows_per_unit"
    assert value[f"train_long_history_gen.{rows}"] > value[f"train_short_multitask.{rows}"]
    assert value["train_long_history_gen.decoders.discriminative_loss_and_rank.calls_per_unit"] == 0
    for fn in ("autodiff.backward", "training.adam_step", "grounding.posterior_ground"):
        assert value[f"eval_rank.{fn}.calls_per_unit"] == 0
        assert value[f"train_short_multitask.{fn}.calls_per_unit"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "eval_rank",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
