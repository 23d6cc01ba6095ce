"""A short run prints every metric BENCHMARK.json names, with its unit,
and checks out clean.  Run: python3 -m pytest benchmark/tests"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_short_run_reports_every_declared_metric(trace, section):
    r = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "codim2-propsim",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_workload_names_match_the_spec():
    sys.path.insert(0, str(ROOT / "benchmark"))
    import workloads

    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.WORKLOADS
