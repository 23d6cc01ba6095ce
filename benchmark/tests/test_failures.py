"""A program that raises still gets a result line: failed operations are
counted, the metrics they leave unmeasured read null, and the run is not
correct.  Run: python3 -m pytest benchmark/tests"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402


def _boom(*args, **kwargs):
    raise RuntimeError("injected failure")


def _result(capsys, workload: str) -> dict:
    assert run.main(["--workload", workload, "--seed", "0", "--seconds", "0.5", "--trace", "0"]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_every_operation_of_one_kind_failing(monkeypatch, capsys):
    monkeypatch.setattr(run.load_program(), "prop_similar", _boom)
    result = _result(capsys, "codim2-propsim")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    metrics = result["metrics"]
    assert metrics["propsim_witness_ms_p50"]["value"] is None
    assert metrics["propsim_decide_ms_p50"]["value"] is None
    assert metrics["codim2_iso_ms_p50"]["value"] > 0


def test_program_failing_while_operations_are_built(monkeypatch, capsys):
    # reference normal forms are computed while the operations are built
    monkeypatch.setattr(run.load_program(), "normalize_codim2", _boom)
    result = _result(capsys, "codim2-propsim")
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] == 1
    assert all(m["value"] is None for m in result["metrics"].values())
