"""Tests of the benchmark itself (not collected by the repository's test run).

    PYTHONPATH=src python3 -m pytest -q benchmark/test_benchmark.py
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args, "--tiny"], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    lines = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0")
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)


def _served(request, corrupt):
    _, code, out = worker.serve(request)
    code, out = corrupt(code, out)
    return {"latencies_s": {"0": [0.1, 0.2, 0.3]}, "outputs": {"0": [code, out]}, "changed": {}}


CORRUPTIONS = {
    "series check flipped": ("series", lambda c, o: (c, o.replace("=true", "=false", 1))),
    "exit code": ("cli-mix", lambda c, o: (c + 1, o)),
    "first line dropped": ("cli-mix", lambda c, o: (c, "\n".join(o.splitlines()[1:]))),
    "polytope answer": ("orthant", lambda c, o: (c, o.replace("kind=", "kind=not-", 1))),
}


@pytest.mark.parametrize("name", CORRUPTIONS)
def test_corrupted_answer_counts_as_failed(name):
    workload, corrupt = CORRUPTIONS[name]
    request = dict(workloads.build(workload, 5, tiny=True)[0], id=0)
    assert run.grade([request], _served(request, lambda c, o: (c, o))) == (3, 0, set())
    assert run.grade([request], _served(request, corrupt)) == (3, 3, {"0"})


def test_answer_that_changes_between_runs_counts_as_failed():
    request = dict(workloads.build("cli-mix", 5, tiny=True)[0], id=0)
    served = _served(request, lambda c, o: (c, o))
    served["changed"] = {"0": 1}
    assert run.grade([request], served) == (3, 1, {"0"})


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    def counts():
        lines = bench("--workload", workload, "--seed", "4", "--seconds", "0", "--trace", "1")
        result = json.loads(lines[-1])
        assert result["correct"]
        return {k: v["value"] for k, v in result["metrics"].items()
                if v["unit"] != "s" and k != "trace.overhead"}

    first = counts()
    assert first == counts()
    assert {m["name"] for m in SPEC["per_layer"]} >= set(first)
