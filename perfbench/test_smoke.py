"""Keeps the benchmark harness from rotting; run with ``python3 -m pytest perfbench``.

The smoke run drives every workload once at tiny scale, through fresh CLI
subprocesses and through the traced in-process path, and checks every
artifact against the digests recorded for the default seed.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == list(workloads.WHY.items())
    assert list(workloads.WHY) == list(workloads.COMMANDS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)


def test_smoke_run_passes_its_artifact_checks():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert results[-1] == {"smoke": "passed"}
    runs = results[:-1]
    assert len(runs) == 2 * len(workloads.COMMANDS)
    for result in runs:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
