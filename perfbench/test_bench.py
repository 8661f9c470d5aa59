"""Tests of the benchmark itself.  Run from the checkout root::

    python3 -m pytest perfbench -q

The traced-run tests start the benchmark twice per workload (a few minutes).
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == [
        *run.LAYER_METRICS, *run.OTHER_LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tracer_wraps_every_binding_and_restores_it():
    import regdeph.cli
    import regdeph.codes
    import regdeph.core
    import regdeph.regimes

    originals = (regdeph.core.fidelity_curve, regdeph.core.pair_factors,
                 regdeph.core.damping_weight)
    with tracer.Tracer() as t:
        assert regdeph.cli.fidelity_curve is regdeph.core.fidelity_curve
        assert regdeph.core.fidelity_curve is not originals[0]
        assert regdeph.codes.pair_factors is regdeph.core.pair_factors
        assert regdeph.regimes.damping_weight is regdeph.core.damping_weight
        from regdeph.core import BasisLabel
        i, j = BasisLabel((1, 1)), BasisLabel((1, -1))
        regdeph.regimes.damping_weight(i, j, [1.0, 0.0, 0.0], [[0, 0, 0], [1, 0, 0]])
    spans, _ = t.take()
    assert [s[1] for s in spans] == ["core.damping_weight"]
    assert (regdeph.core.fidelity_curve, regdeph.core.pair_factors,
            regdeph.core.damping_weight) == originals
    assert regdeph.cli.fidelity_curve is originals[0]


def test_self_time_subtracts_union_of_children():
    spans = [(1, "a", 0.0, 10.0, None, 0), (2, "b", 1.0, 4.0, 1, 0),
             (3, "b", 3.0, 6.0, 1, 1), (4, "c", 8.0, 9.0, None, 0)]
    layers = tracer.summarize(spans, [])
    assert layers["a"]["self_s"] == pytest.approx(5.0)
    assert layers["b"]["s"] == pytest.approx(6.0)
    assert tracer.top_level_cover(spans) == pytest.approx(10.0)


def test_cpu_clock_counts_work_on_other_threads_and_in_children():
    import os
    import threading

    import clock

    def busy():
        sum(range(2_000_000))

    a = clock.sample()
    busy()
    one = clock.sample()[1] - a[1]
    a = clock.sample()
    worker = threading.Thread(target=busy)
    worker.start()
    worker.join()
    # the timing thread only waited; the worker's CPU time is counted
    assert clock.sample()[1] - a[1] > 0.5 * one
    proc = subprocess.Popen([sys.executable, "-c", "sum(range(2_000_000))"])
    _, status, usage = os.wait4(proc.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert clock.child_cpu_s(usage) > 0.5 * one


def test_refuses_to_run_without_the_source_tree():
    empty = ROOT / ".perfbench" / "no-source"
    shutil.rmtree(empty, ignore_errors=True)
    shutil.copytree(HERE, empty / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", empty)
    try:
        proc = bench("--workload", "closed_form", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=empty)
    finally:
        shutil.rmtree(empty, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


def counts(stdout):
    metrics = json.loads(stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "B")}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_exact_counts_repeat_between_traced_runs(workload):
    args = ("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1")
    first, second = bench(*args), bench(*args)
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0, second.stderr
    assert json.loads(first.stdout.strip().splitlines()[-1])["correct"]
    assert counts(first.stdout) == counts(second.stdout)
    assert any(counts(first.stdout).values())
