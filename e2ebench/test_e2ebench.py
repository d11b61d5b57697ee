"""The benchmark's own tests, at a tiny budget.

Run with ``python3 -m pytest -q e2ebench`` from the checkout root.  They
run each workload end to end with ``--iterations`` turned down, so the
numbers are not comparable with real runs; what they pin is the output
contract (every named metric, with its unit), zero failures, traced-run
integrity, the oracle's ability to catch a wrong program, and wrapper
removal.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from e2ebench import oracle, tracing, workloads  # noqa: E402

TINY_ITERATIONS = {"search-loop": 40, "serve-store": 30}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "e2ebench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(TINY_ITERATIONS))
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_prints_with_unit_and_nothing_fails(workload, trace):
    spec = _spec()
    assert workload in {w["name"] for w in spec["workloads"]}
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace),
                "--iterations", str(TINY_ITERATIONS[workload]))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert "failed_share 0.0000 share" in proc.stdout
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in expected}
    for metric in expected:
        value = metrics[metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], (int, float))
        # ... and the human-readable line carries the same name and unit.
        assert any(line.startswith(metric["name"] + " ")
                   and line.endswith(" " + metric["unit"])
                   for line in lines), metric["name"]
    if not trace:
        assert all(metrics[m["name"]]["value"] > 0 for m in expected)
        # Reported times are the measured ones times the host factor.
        measured = next(line for line in lines
                        if line.startswith("measured: "))
        numbers = re.findall(r"[0-9.]+(?:e[+-]?[0-9]+)?", measured)
        wall, gmean, setup, factor = (float(n) for n in numbers[:4])
        for name, raw in (("wall_s", wall), ("search_s_gmean", gmean),
                          ("setup_s", setup)):
            assert metrics[name]["value"] == pytest.approx(raw * factor,
                                                           rel=2e-3)
    else:
        assert metrics["trace_overhead"]["value"] > 0
        assert metrics["stage.full.attempts"]["value"] >= 0


def test_oracle_flags_a_mismatched_program():
    from repro import api
    from repro.bpf import assemble

    source = api.benchmark_program("xdp_pktcntr")
    assert oracle.check_program(source, source) is None
    # Same program, but XDP_DROP (1) where the source returns XDP_PASS (2).
    text = source.to_text()
    assert "mov64 r0, 2" in text
    wrong = source.with_instructions(
        assemble(text.replace("mov64 r0, 2", "mov64 r0, 1")))
    reason = oracle.check_program(source, wrong)
    assert reason is not None and "differs" in reason


def test_oracle_flags_a_program_the_kernel_checker_rejects():
    from repro import api
    from repro.bpf import assemble

    source = api.benchmark_program("xdp_pktcntr")
    # Reading an uninitialised register is rejected by the kernel checker.
    unsafe = source.with_instructions(assemble("mov64 r0, r5\nexit"))
    reason = oracle.check_program(source, unsafe)
    assert reason is not None and "kernel checker" in reason


def test_oracle_inputs_are_owned_and_deterministic():
    from repro import api

    source = api.benchmark_program("xdp-balancer")
    first = oracle.oracle_inputs(source)
    assert [t.freeze_key() for t in first] == \
        [t.freeze_key() for t in oracle.oracle_inputs(source)]
    other = oracle.oracle_inputs(source, seed=oracle.ORACLE_SEED + 1)
    assert [t.freeze_key() for t in first] != [t.freeze_key() for t in other]


def test_tracer_restores_every_patched_attribute():
    points = tracing.layer_points()
    before = [(owner, attr, vars(owner).get(attr, None))
              for _, owner, attr in points]
    tracer = tracing.Tracer()
    tracer.install(points)
    assert all(vars(owner).get(attr) is not original
               for owner, attr, original in before)
    tracer.uninstall()
    assert not tracer.installed
    for owner, attr, original in before:
        assert vars(owner).get(attr, None) is original


def test_tracer_self_time_excludes_children():
    class Layer:
        def outer(self):
            self.inner()

        def inner(self):
            pass

    tracer = tracing.Tracer()
    tracer.install([("outer", Layer, "outer"), ("inner", Layer, "inner")])
    try:
        Layer().outer()
    finally:
        tracer.uninstall()
    spans = {span[1]: span for span in tracer.spans}
    outer, inner = spans["outer"], spans["inner"]
    assert inner[3] == outer[0]                       # parent link
    outer_duration = outer[5] - outer[4]
    inner_duration = inner[5] - inner[4]
    assert outer[6] == pytest.approx(outer_duration - inner_duration)


def test_plan_is_a_function_of_its_arguments():
    workload = workloads.WORKLOADS["search-loop"]
    assert workloads.plan(workload, 7, 30) == workloads.plan(workload, 7, 30)
    assert workloads.plan(workload, 7, 30) != workloads.plan(workload, 8, 30)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "e2ebench"), tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "search-loop", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
