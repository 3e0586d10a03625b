"""Smoke test of the benchmark: every workload at toy size, untraced and traced.

    python -m pytest perfbench/tests
"""

import json
import math
import signal
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path[:0] = [str(HERE.parent), str(REPO / "src")]

import bench  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def benchmark_json():
    return json.loads((REPO / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_harness_metrics(benchmark_json):
    assert [(m["name"], m["unit"], m["better"]) for m in benchmark_json["end_to_end"]] == list(
        bench.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in benchmark_json["per_layer"]] == [
        m[:3] for m in tracing.LAYER_METRICS
    ]
    assert [w["name"] for w in benchmark_json["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_at_toy_size(name, trace, tmp_path, benchmark_json):
    record, line = bench.run(name, seed=3, seconds=0.0, trace=trace, size=workloads.TOY,
                             root=tmp_path)
    assert line["correct"], record["problems"]
    assert line["attempted"] >= 1
    expected = benchmark_json["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(math.isfinite(v["value"]) for v in line["metrics"].values())
    workload = workloads.WORKLOADS[name]
    assert set(record["metrics"]) == {
        "setup_s", "peak_rss_mb", "failed_frac", workload.throughput[0], *workload.quality_units
    }


def test_measure_samples_while_it_runs_and_restores_the_timer():
    handler = signal.getsignal(signal.SIGPROF)
    value, seconds, samples = speed.measure(lambda: sum(i * i for i in range(3_000_000)))
    assert value == sum(i * i for i in range(3_000_000))
    # one sample before, one after, and at least one every SAMPLE_EVERY of CPU
    assert len(samples) >= 2 + int(seconds / speed.SAMPLE_EVERY)
    assert seconds > 0
    assert signal.getsignal(signal.SIGPROF) is handler
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
