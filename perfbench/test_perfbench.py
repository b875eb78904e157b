"""Tests of the benchmark itself, on scaled-down copies of its workloads.

    python3 -m pytest perfbench
"""

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from spectral_attn import models  # noqa: E402

TINY_MODEL = dict(workloads.MODEL, L=16, T=4, P=4, S=2, H=2, D=8, layers=1, batch_size=8)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


TINY_TONES = tuple(((f, 1.0, 0.3 * i),) for i, f in enumerate((2, 2, 5, 5)))


def tiny(name):
    """The named workload at L=16, D=8, C=4 on a 120-step series."""
    return replace(workloads.WORKLOADS[name], tones=TINY_TONES, length=120,
                   ratios=(0.5, 0.25), period=16, model=TINY_MODEL, analysis_windows=2)


@pytest.fixture(params=sorted(workloads.WORKLOADS))
def workload(request):
    return tiny(request.param)


def test_declared_metric_names_are_valid():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_untraced_run_reports_every_end_to_end_metric(workload, tmp_path):
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    ledger, values, _ = run.measure(workload, seed=3, seconds=1, workdir=tmp_path)
    assert ledger.attempted > 0 and not ledger.failed, ledger.messages
    metrics = run.result_metrics(values, units)
    assert set(metrics) == set(units)
    assert all(m["value"] > 0 for m in metrics.values())


def test_traced_run_reports_every_per_layer_metric(workload, tmp_path):
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    spans = tmp_path / "spans.csv"
    ledger, values, details = run.measure_traced(workload, 3, tmp_path, spans)
    assert not ledger.failed, ledger.messages
    assert set(run.result_metrics(values, units)) == set(units)
    assert values["numerics.calls.matmul"] > 0
    assert values["numerics.bwd_s.matmul"] > 0
    assert values["numerics.adam_steps"] > 0
    spectral = values["spectral.amplitude_rows"] > 0
    assert spectral == ("fsatten" in workload.mechanisms)
    assert (values["models.patchify_s"] > 0) == (workload.architecture == "temporal")
    rows = spans.read_text(encoding="utf-8").splitlines()
    assert rows[0] == "id,parent,op,name,start_s,end_s"
    assert len(rows) == details["spans"] + 1


def test_tracer_wraps_every_entry_point_and_restores_the_originals(tmp_path):
    originals = tracing.entry_point_objects()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = tracing.entry_point_objects()
        assert wrapped.keys() == originals.keys()
        assert all(wrapped[key] is not originals[key] for key in originals)
    finally:
        tracer.uninstall()
    restored = tracing.entry_point_objects()
    assert all(restored[key] is originals[key] for key in originals)

    # An untraced cycle after removal records nothing in the tracer.
    before = len(tracer)
    workload = tiny("variate-desk")
    ledger = workloads.Ledger()
    prepared = workloads.set_up(workload, 0, tmp_path, ledger)
    workloads.run_cycle(workload, prepared, 0, tmp_path, ledger)
    assert len(tracer) == before
    assert not ledger.failed, ledger.messages


def test_a_raising_forecast_is_counted_and_the_run_goes_on(tmp_path, monkeypatch):
    workload = tiny("variate-desk")
    ledger = workloads.Ledger()
    prepared = workloads.set_up(workload, 0, tmp_path, ledger)
    original = models.forecast

    def flaky(x, model, capture=None):
        if model.config.mechanism == "soatten":
            raise ValueError("injected")
        return original(x, model, capture)

    monkeypatch.setattr(models, "forecast", flaky)
    cycle = workloads.run_cycle(workload, prepared, 0, tmp_path, ledger)
    test_windows = len(prepared.pairs["test"])
    assert len(ledger.failed) == test_windows
    assert "soatten" not in cycle.mse_ratio
    assert set(cycle.analyze_s) == set(workload.mechanisms)


def test_a_wrong_condition_number_fails_the_analysis_check(tmp_path, monkeypatch):
    from spectral_attn import analysis

    workload = tiny("variate-desk")
    ledger = workloads.Ledger()
    prepared = workloads.set_up(workload, 0, tmp_path, ledger)
    original = analysis.condition_number
    monkeypatch.setattr(analysis, "condition_number", lambda a: original(a) * (1 + 1e-5))
    workloads.run_cycle(workload, prepared, 0, tmp_path, ledger)
    failed_kinds = {ledger.ops[op][0] for op in ledger.failed}
    assert failed_kinds == {"analysis"}
    assert len(ledger.failed) == len(workload.mechanisms) * workloads.ANALYSIS_REPEATS


def test_run_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench" / path.name)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "temporal", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
