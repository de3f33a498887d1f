"""The benchmark's own tests: python3 -m pytest benchmark -q

Smoke-size runs of every workload must emit every metric of
BENCHMARK.json with its unit; the output check must fail on a perturbed
row; traced self times must add up to the root span; and a directory
without the library's sources must make the benchmark fail.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDED = json.loads((HERE / "reference.json").read_text())
# the column each workload's rows are judged by, and its position
PRIMARY = {"scan": 4, "eta-scan": 2, "fractal": 1, "perturbation": 2}


def bench(workload, trace, cwd=ROOT, seed=DEFAULT_SEED):
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_harness():
    assert [(w["name"], w["why"]) for w in BENCH["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_emits_every_metric(workload, trace):
    done = bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        return
    assert result["metrics"]["cli.main.calls"]["value"] == 1
    assert result["metrics"]["tableio.csv_bytes_identical"]["value"] == 1

    # self times add up to the root spans, within the tracing overhead
    trace_file = ROOT / json.loads(done.stdout.strip().splitlines()[-2])["info"]["trace_file"]
    spans = json.loads(trace_file.read_text())["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_total = sum(end - start - c for (_, start, end, _), c in zip(spans, child))
    root_total = sum(end - start for _, start, end, parent in spans if parent < 0)
    overhead = result["metrics"]["trace.overhead_s"]["value"]
    assert abs(self_total - root_total) <= max(abs(overhead), 1e-9)


def _smoke_outputs(workload, seed, out_dir):
    import spinchain.cli  # noqa: F401
    outcome = run.run_table(workload, seed, out_dir, smoke=True)
    assert all(status == "ok" for _, _, status in outcome)
    return [(s, oracle.read_output(p)) for s, p, _ in outcome]


def _failed(workload, seed, outputs):
    checks = oracle.check_table(workload, True, seed, outputs,
                                RECORDED[workload.name]["smoke"], DEFAULT_SEED)
    return [label for label, ok, _ in checks if not ok]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_output_check_catches_a_perturbed_row(name, tmp_path):
    workload = WORKLOADS[name]
    col = PRIMARY[workload.command]
    for seed in (DEFAULT_SEED, DEFAULT_SEED + 4):
        outputs = _smoke_outputs(workload, seed, tmp_path / str(seed))
        assert _failed(workload, seed, outputs) == []

        # one row, against the recorded reference
        bad = copy.deepcopy(outputs)
        bad[0][1]["rows"][1][col] *= 1 + 1e-7
        failed = _failed(workload, seed, bad)
        if seed == DEFAULT_SEED:
            assert "reference row 1" in " | ".join(failed), failed

        # every row, against the independent oracles
        for _, out in bad:
            for row in out["rows"]:
                row[col] *= 1 + 1e-7
        failed = _failed(workload, seed, bad)
        assert any("oracle" in label for label in failed), failed


def test_bare_directory_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("scan-t1", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
