"""Schema of the committed benchmark records (BENCH_*.json at the repo root).

Only the shape is checked, never the timings: every workload of
BENCHMARK.json has untraced runs on both sides, every end-to-end
metric appears in each of those runs and in the per-side summary, and
no run is recorded twice.  The recorder, scripts/bench_record.py,
refuses a run that would repeat one.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")
STATS = ("runs", "median", "q1", "q3")


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_schema(path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = json.loads(path.read_text())
    assert isinstance(record["python"], str) and isinstance(record["cpu_count"], int)
    names = [m["name"] for m in bench["end_to_end"]]
    keys = [(r["workload"], r["seed"], r["side"], r["trace"]) for r in record["runs"]]
    assert len(keys) == len(set(keys))
    for run in record["runs"]:
        assert run["side"] in SIDES
        assert isinstance(run["seed"], int) and run["trace"] in (0, 1)
        assert isinstance(run["correct"], bool)
        assert isinstance(run["attempted"], int) and isinstance(run["failed"], int)
        assert isinstance(run["metrics"], dict)
    summary = record["summary"]["by_workload"]
    for w in bench["workloads"]:
        for side in SIDES:
            runs = [r for r in record["runs"]
                    if r["workload"] == w["name"] and r["side"] == side and not r["trace"]]
            assert runs, (w["name"], side)
            for r in runs:
                assert all("value" in r["metrics"].get(name, {}) for name in names), (
                    w["name"], side, r["seed"])
            stats = summary[w["name"]][side]
            for name in names:
                assert set(STATS) <= set(stats[name]), (w["name"], side, name)
                assert stats[name]["runs"] == len(runs)
        pairs = record["summary"]["pairs"][w["name"]]
        for name in names:
            assert 0 <= pairs[name]["change_better"] <= pairs[name]["pairs"]


def _recorder():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
    br = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(br)
    return br


def test_recorder_refuses_a_repeated_run():
    br = _recorder()
    recorded = [{"workload": "fuzz", "seed": 2, "trace": 0, "side": side} for side in SIDES]
    assert br.plan(["fuzz:3-4", "corpus:2"], 0, recorded) == [("fuzz", 3), ("fuzz", 4), ("corpus", 2)]
    assert br.plan(["fuzz:2"], 1, recorded) == [("fuzz", 2)]  # traced runs are summarised apart
    for specs in (["fuzz:1-3"], ["corpus:5,5"], ["corpus:5", "corpus:4-6"]):
        with pytest.raises(SystemExit):
            br.plan(specs, 0, recorded)


def _synthetic(medians: dict) -> dict:
    """A record whose summary holds only the given change medians, keyed
    by workload and then metric."""
    return {"summary": {"by_workload": {
        w: {"parent": {}, "change": {m: {"runs": 1, "median": v, "q1": v, "q3": v} for m, v in ms.items()}}
        for w, ms in medians.items()}}}


def test_recorder_compares_with_the_previous_record(tmp_path, capsys):
    br = _recorder()
    end_to_end = [{"name": "cli_call_ms_p50", "unit": "ms"}, {"name": "classify_per_s", "unit": "1/s"}]
    for n, value in ((3, 400.0), (5, 200.0), (12, 1.0)):
        (tmp_path / f"BENCH_{n}.json").write_text(json.dumps(_synthetic({"cli": {"cli_call_ms_p50": value}})))
    (tmp_path / "BENCH_x.json").write_text("{}")
    out = tmp_path / "BENCH_9.json"
    assert br.previous_record(out) == tmp_path / "BENCH_5.json"
    assert br.previous_record(tmp_path / "BENCH_3.json") is None
    record = _synthetic({"cli": {"cli_call_ms_p50": 150.0, "classify_per_s": 10.0},
                         "cli traced": {"cli_call_ms_p50": 1.0}})
    lines = br.compare(record, json.loads((tmp_path / "BENCH_5.json").read_text()), end_to_end)
    assert [line.split() for line in lines] == [
        ["cli", "cli_call_ms_p50", "200", "->", "150", "ms", "-25.0%"],
        ["cli", "classify_per_s", "-", "->", "10", "1/s", "n/a"],
    ]
    br.print_comparison(out, record, end_to_end)
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "change medians, BENCH_5.json -> BENCH_9.json:" and printed[1:] == lines


def test_recorder_reports_failures_per_workload_and_side():
    br = _recorder()

    def run(side, workload, seed, failed, attempted, correct=True, trace=0):
        return {"side": side, "workload": workload, "seed": seed, "trace": trace,
                "failed": failed, "attempted": attempted, "correct": correct}

    runs = [run("parent", "fuzz", 1, 0, 100), run("change", "fuzz", 1, 0, 120),
            run("parent", "fuzz", 2, 0, 90), run("change", "fuzz", 2, 3, 110, correct=False),
            run("change", "cli", 3, 0, 40), run("change", "cli", 3, 1, 30, trace=1)]
    assert [line.split() for line in br.failure_lines(runs)] == [
        ["cli", "change", "failed", "0/40,", "not", "correct", "in", "0", "of", "1", "runs"],
        ["cli", "traced", "change", "failed", "1/30,", "not", "correct", "in", "0", "of", "1", "runs"],
        ["fuzz", "change", "failed", "3/230,", "not", "correct", "in", "1", "of", "2", "runs"],
        ["fuzz", "parent", "failed", "0/190,", "not", "correct", "in", "0", "of", "2", "runs"],
    ]


def test_recorder_runs_each_side_without_cached_bytecode(tmp_path, monkeypatch, capsys):
    """Before each run the recorder removes the ``__pycache__`` directories
    under that checkout's ``src/``, and leaves everything else there."""
    br = _recorder()
    sides = {name: tmp_path / name for name in SIDES}
    for checkout in sides.values():
        for cache in ("src/pkg/__pycache__", "src/pkg/sub/__pycache__", "benchmark/__pycache__"):
            (checkout / cache).mkdir(parents=True)
            (checkout / cache / "mod.cpython-311.pyc").write_bytes(b"stale")
        (checkout / "src/pkg/mod.py").write_text("")
    seen = []

    def run_once(checkout, workload, seed, trace):
        seen.append((checkout, sorted(p.relative_to(checkout).as_posix()
                                      for p in checkout.rglob("__pycache__"))))
        (checkout / "src/pkg/__pycache__").mkdir()  # as a run that writes bytecode
        return {"metrics": {}, "failed": 0, "attempted": 1, "correct": True}

    monkeypatch.setattr(br, "run_once", run_once)
    out = tmp_path / "BENCH_1.json"
    assert br.main(["--parent", str(sides["parent"]), "--change", str(sides["change"]),
                    "--runs", "fuzz:1-2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert [c for c, _ in seen] == [sides["parent"], sides["change"], sides["change"], sides["parent"]]
    assert all(caches == ["benchmark/__pycache__"] for _, caches in seen)
    assert (sides["parent"] / "src/pkg/mod.py").exists()
    assert len(json.loads(out.read_text())["runs"]) == 4
