"""Record alternating benchmark runs of two checkouts in a BENCH_*.json file.

Usage, from the repository root:

    python3 scripts/bench_record.py --parent ../parent --change . \\
        --runs fuzz:801-810 --runs corpus:811,812 --out BENCH_8.json

Each ``--runs WORKLOAD:SEEDS`` entry runs ``benchmark/run.py`` once per
seed in each checkout, one run at a time, alternating which side runs
first, for as long as ``benchmark/run.py`` itself runs by default.
Before each run the ``__pycache__`` directories under that checkout's
``src/`` are removed, so both sides start from the same state: where
``PYTHONDONTWRITEBYTECODE=1`` is set, a cache left in one checkout by an
earlier run would spare only that side the compiling of every module.
``SEEDS`` is a comma-separated list of seeds or ``a-b`` ranges.  With
``--append`` the runs are added to those already in ``--out``; a
(workload, seed, trace) that is already recorded, or named twice, is
refused before anything runs, so every pair is counted.  The file holds every run's
result line, per-metric medians and quartiles for each side and workload,
and the pairs in which the change beat the parent on each end-to-end
metric of ``BENCHMARK.json``.  ``--trace 1`` records traced runs instead
(per-layer metrics); they are summarised apart from the untraced ones.

At the end the recorder prints, for each workload and end-to-end metric,
the change median against the change median of the same workload and
metric in the highest-numbered earlier ``BENCH_<n>.json`` beside
``--out``.  Then, for each workload and side, it prints the failed
operations over the attempted ones, summed over the runs, and the number
of runs whose outputs were not all correct: a higher share of failures
rejects a change on its own, whatever its timings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def plan(specs: list, trace: int, runs: list) -> list:
    """The (workload, seed) pairs to run; SystemExit if one repeats a
    recorded run of the same trace setting or another entry of ``specs``."""
    seen = {(r["workload"], r["seed"]) for r in runs if r["trace"] == trace}
    todo = []
    for spec in specs:
        workload, _, seeds = spec.partition(":")
        for seed in parse_seeds(seeds):
            if (workload, seed) in seen:
                raise SystemExit(f"{workload} seed {seed} trace {trace} is already recorded")
            seen.add((workload, seed))
            todo.append((workload, seed))
    return todo


def clear_bytecode(checkout: Path) -> None:
    """Remove every ``__pycache__`` directory under ``checkout/src``."""
    for cache in list((checkout / "src").rglob("__pycache__")):
        shutil.rmtree(cache)


def run_once(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarise(runs: list, end_to_end: list) -> dict:
    """Medians and quartiles per (trace, workload, side, metric), and the
    pairs (same workload and seed) won by the change per end-to-end metric."""
    summary: dict = {}
    for r in runs:
        key = f"{r['workload']}{' traced' if r['trace'] else ''}"
        for name, metric in r["metrics"].items():
            value = metric["value"]
            if value is not None:
                summary.setdefault(key, {}).setdefault(r["side"], {}).setdefault(name, []).append(value)
    for sides in summary.values():
        for metrics in sides.values():
            for name, values in metrics.items():
                q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                               else (values[0],) * 3)
                metrics[name] = {"runs": len(values), "median": med, "q1": q1, "q3": q3}
    wins: dict = {}
    untraced = {(r["workload"], r["seed"], r["side"]): r for r in runs if not r["trace"]}
    for (workload, seed, side), change in untraced.items():
        parent = untraced.get((workload, seed, "parent"))
        if side != "change" or parent is None:
            continue
        for m in end_to_end:
            a = parent["metrics"].get(m["name"], {}).get("value")
            b = change["metrics"].get(m["name"], {}).get("value")
            if a is None or b is None:
                continue
            w = wins.setdefault(workload, {}).setdefault(m["name"], {"pairs": 0, "change_better": 0})
            w["pairs"] += 1
            w["change_better"] += (b < a) if m["better"] == "lower" else (b > a)
    return {"by_workload": summary, "pairs": wins}


def record_number(path: Path):
    """n of a ``BENCH_<n>.json`` path, None for any other name."""
    n = path.stem.removeprefix("BENCH_")
    return int(n) if path.suffix == ".json" and n != path.stem and n.isdigit() else None


def previous_record(out: Path):
    """The highest-numbered ``BENCH_<n>.json`` beside ``out`` whose n is
    below that of ``out``, or None."""
    own = record_number(out)
    earlier = [(n, p) for p in out.parent.glob("BENCH_*.json")
               if (n := record_number(p)) is not None and own is not None and n < own]
    return max(earlier)[1] if earlier else None


def compare(record: dict, previous: dict, end_to_end: list) -> list:
    """One line per workload and end-to-end metric of the untraced runs:
    the previous record's change median, this record's, and the relative
    difference."""
    now, then = record["summary"]["by_workload"], previous["summary"]["by_workload"]
    lines = []
    for workload in sorted(w for w in now if not w.endswith(" traced")):
        for m in end_to_end:
            b = now[workload].get("change", {}).get(m["name"], {}).get("median")
            a = then.get(workload, {}).get("change", {}).get(m["name"], {}).get("median")
            if b is None:
                continue
            shown = "-" if a is None else f"{a:.4g}"
            delta = f"{(b - a) / a:+.1%}" if a else "n/a"
            lines.append(f"{workload:>15} {m['name']:<24} {shown:>10} -> {b:<10.4g} {m['unit']:<4} {delta}")
    return lines


def print_comparison(out: Path, record: dict, end_to_end: list) -> None:
    prev = previous_record(out)
    if prev is None:
        print(f"no BENCH_<n>.json numbered below {out.name} to compare with")
        return
    print(f"change medians, {prev.name} -> {out.name}:")
    for line in compare(record, json.loads(prev.read_text()), end_to_end):
        print(line)


def failure_lines(runs: list) -> list:
    """One line per workload (traced runs apart) and side: failed over
    attempted operations summed over the runs, and the runs whose
    ``correct`` is false."""
    tally: dict = {}
    for r in runs:
        key = (f"{r['workload']}{' traced' if r['trace'] else ''}", r["side"])
        t = tally.setdefault(key, [0, 0, 0, 0])
        t[0] += r["failed"]
        t[1] += r["attempted"]
        t[2] += not r["correct"]
        t[3] += 1
    return [f"{workload:>15} {side:<6} failed {failed}/{attempted}, not correct in {wrong} of {count} runs"
            for (workload, side), (failed, attempted, wrong, count) in sorted(tally.items())]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--runs", action="append", required=True, metavar="WORKLOAD:SEEDS")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--append", action="store_true")
    args = p.parse_args(argv)

    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    record = json.loads(args.out.read_text()) if args.append and args.out.exists() else {"runs": []}
    record["python"] = platform.python_version()
    record["cpu_count"] = os.cpu_count()
    pair = list(zip(SIDES, (args.parent, args.change)))
    for i, (workload, seed) in enumerate(plan(args.runs, args.trace, record["runs"])):
        for side, checkout in pair if i % 2 == 0 else pair[::-1]:
            clear_bytecode(checkout)
            res = run_once(checkout, workload, seed, args.trace)
            record["runs"].append({"side": side, "workload": workload, "seed": seed,
                                   "trace": args.trace, **res})
            print(side, workload, seed, json.dumps(res), flush=True)
        # saved after every pair, so an interrupted session keeps its runs
        record["summary"] = summarise(record["runs"], end_to_end)
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print_comparison(args.out, record, end_to_end)
    print("failed operations and incorrect runs, per workload and side:")
    for line in failure_lines(record["runs"]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
