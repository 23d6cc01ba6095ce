"""Benchmark of the solvlie classifier, the codim-2 isomorphism test,
proportional similarity and the command line.

Usage, from the repository root:

    python3 benchmark/run.py --workload corpus --seed 1 --seconds 26 --trace 0

``--workload`` is one of corpus, fuzz, codim2-propsim, cli, or all.
With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it runs the same operations untraced and then traced and
prints the per-layer metrics.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  See
README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checker as ck
import speed as sp
import workloads as wl
from tracer import SPAN, TARGETS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3

END_TO_END = (
    ("setup_s", "s"),
    ("classify_ms_p50", "ms"),
    ("classify_ms_p95", "ms"),
    ("classify_per_s", "1/s"),
    ("codim2_iso_ms_p50", "ms"),
    ("propsim_witness_ms_p50", "ms"),
    ("propsim_decide_ms_p50", "ms"),
    ("cli_call_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
)


def _per_layer():
    out = []
    for _, _, metric, mode in TARGETS:
        if mode == SPAN:
            out.append((metric + ".self_ms", "ms"))
    calls = ("scalars.quadext_make", "scalars.exdiv", "scalars.sqrt_exact",
             "matrices.inverse", "matrices.rref", "matrices.matmul", "matrices.mat_new",
             "liealg.transform", "liealg.transform_sparse", "liealg.bracket",
             "frobenius.similar")
    out += [(c + ".calls", "count") for c in calls]
    out += [
        ("scalars.quad_witness_share", "share"),
        ("scalars.input_bits_max", "bits"),
        ("scalars.witness_bits_max", "bits"),
        ("propsim.numeric_share", "share"),
        ("cli.import_ms", "ms"),
        ("trace.overhead_ms", "ms"),
    ]
    return out


class Tally:
    """Operation counts, latencies and the first few problems.

    An operation runs many times in a run.  Its latency is the median of
    its repeats, each scaled to the reference speed by the reference timings
    taken nearest to it (see speed.py); percentiles are then taken over
    the distinct operations of a kind."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.samples: dict = {}  # kind -> {id(op): [(start, seconds)]}
        self.problems: list = []

    def record(self, op, start: float, seconds: float):
        self.samples.setdefault(op.kind, {}).setdefault(id(op), []).append((start, seconds))

    def latencies(self, *kinds, speed=None) -> list:
        """Per-operation latencies in seconds, scaled by ``speed`` if given."""
        return [
            statistics.median(s * (1.0 if speed is None else speed.scale(t)) for t, s in runs)
            for kind in kinds for runs in self.samples.get(kind, {}).values()
        ]

    def note(self, what: str):
        if len(self.problems) < 10:
            self.problems.append(what)


def execute(op, tally: Tally, in_process: bool = False, tracer=None):
    """Time one operation, then check its result outside the timing (a
    result equal to one already checked for this operation is not checked
    again)."""
    fn = op.replay if in_process and op.replay is not None else op.run
    tally.attempted += 1
    t0 = perf_counter()
    try:
        out = fn() if tracer is None else tracer.operation(op.kind, fn)
    except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
        tally.failed += 1
        tally.note(f"{op.kind} failed: {traceback.format_exc(limit=3)}")
        return None
    tally.record(op, t0, perf_counter() - t0)
    try:
        sig = wl.signature(op, out)
        ok = sig == op.verified or op.check(out)
        if ok:
            op.verified = sig
    except Exception:  # noqa: BLE001 - a malformed result is a wrong result
        ok = False
        tally.note(f"{op.kind} check raised: {traceback.format_exc(limit=3)}")
    if not ok:
        tally.wrong += 1
        tally.note(f"{op.kind}: wrong result")
    return out


def _ms_p50(times) -> float | None:
    """None when every operation of the kind failed: the metric reads null
    in the result line and the run is not correct."""
    return statistics.median(times) * 1e3 if times else None


def _ms_p95(times) -> float | None:
    ordered = sorted(times)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)] * 1e3 if times else None


def _difference(a, b):
    return None if a is None or b is None else a - b


def load_program():
    """Import solvlie from this checkout's src/, nowhere else."""
    if not (SRC / "solvlie" / "__init__.py").is_file():
        raise SystemExit(f"error: no solvlie package under {SRC}")
    sys.path.insert(0, str(SRC))
    import solvlie
    import solvlie.cli  # noqa: F401 - the in-process CLI replay needs it
    import solvlie.harness  # noqa: F401

    if Path(solvlie.__file__).resolve().parent != (SRC / "solvlie").resolve():
        raise SystemExit(f"error: imported solvlie from {solvlie.__file__}")
    return solvlie


def build_ops(inputs_path: Path) -> tuple:
    """The program's half of set-up, from the inputs the benchmark drew."""
    sl = load_program()
    with open(inputs_path, "rb") as fh:
        inputs = pickle.load(fh)
    return sl, wl.build_ops(sl, inputs, wl.Cli(sl, str(SRC), str(ROOT)))


def make_plan(workload: str, seed: int, work_dir: Path) -> tuple:
    """Draw the workload's inputs (the benchmark's half of set-up, off the
    clock), save them for the set-up samples, then build the operations.
    Returns (solvlie, operations, path of the saved inputs)."""
    sl = load_program()
    work_dir.mkdir(parents=True, exist_ok=True)
    inputs_path = work_dir / "inputs.pickle"
    with open(inputs_path, "wb") as fh:
        pickle.dump(wl.make_inputs(sl, workload, seed, str(work_dir)), fh)
    return (*build_ops(inputs_path), inputs_path)


def setup_sample(inputs_path: Path, starts: sp.Speed) -> float | None:
    """Wall time from starting a fresh interpreter until it has imported
    solvlie and built the program's objects for the saved inputs, scaled
    to the reference speed by process-start timings taken just before and
    just after it; None if the child failed."""
    for _ in range(sp.NEAREST):
        starts.tick(force=True)
    t0 = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--setup-from", str(inputs_path)],
        cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
    ) as child:
        line = child.stdout.readline()
        elapsed = perf_counter() - t0
        child.stdout.read()
        code = child.wait(timeout=120)
    for _ in range(sp.NEAREST):
        starts.tick(force=True)
    return elapsed * starts.scale(t0) if line.strip() == "ready" and code == 0 else None


def import_ms() -> float:
    code = ("import time; t = time.perf_counter(); import solvlie.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        r = subprocess.run([sys.executable, "-c", code], cwd=str(ROOT), env=env,
                           capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(r.stdout.strip()) * 1e3)
    return statistics.median(samples)


def measure(workload: str, seed: int, seconds: float, work_dir: Path) -> tuple:
    """Untraced run: whole blocks until ``seconds`` have passed, so that
    every operation kind is sampled across the whole run, with the
    reference kernel timed between operations every speed.INTERVAL
    seconds and a reference process started before every CLI call.  The
    set-up samples are spread evenly from the start to the end, and each
    counts as one operation.
    Returns (tally, end-to-end metrics)."""
    _, ops, inputs_path = make_plan(workload, seed, work_dir)
    tally, kernel, starts = Tally(), sp.interpreter(), sp.process_start(str(ROOT))
    setup: list = []

    def sample_setup():
        tally.attempted += 1
        elapsed = setup_sample(inputs_path, starts)
        if elapsed is None:
            tally.failed += 1
            tally.note("set-up child failed")
        else:
            setup.append(elapsed)

    start = perf_counter()
    sample_setup()
    sampled = 1
    while True:  # at least one block, however short the run
        for op in ops:
            kernel.tick()
            if op.kind == wl.CLI:
                starts.tick(force=True)
            execute(op, tally)
        while (sampled < SETUP_SAMPLES - 1
               and perf_counter() - start >= sampled * seconds / (SETUP_SAMPLES - 1)):
            sample_setup()
            sampled += 1
        if perf_counter() - start >= seconds:
            break
    kernel.tick(force=True)
    starts.tick(force=True)
    while sampled < SETUP_SAMPLES:
        sample_setup()
        sampled += 1
    classify = tally.latencies(wl.CLASSIFY, speed=kernel)
    metrics = {
        "setup_s": statistics.median(setup) if setup else None,
        "classify_ms_p50": _ms_p50(classify),
        "classify_ms_p95": _ms_p95(classify),
        "classify_per_s": len(classify) / sum(classify) if classify else None,
        "codim2_iso_ms_p50": _ms_p50(tally.latencies(wl.CODIM2_ISO, speed=kernel)),
        "propsim_witness_ms_p50": _ms_p50(tally.latencies(wl.PROPSIM_WITNESS, speed=kernel)),
        "propsim_decide_ms_p50": _ms_p50(tally.latencies(wl.PROPSIM_DECIDE, speed=kernel)),
        "cli_call_ms_p50": _ms_p50(tally.latencies(wl.CLI, speed=starts)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for name, ref in (("kernel", kernel), ("process start", starts)):
        print(f"{workload:>15} {'reference ' + name + ', median (raw)':<40} "
              f"{statistics.median(ref.seconds) * 1e3:>14.6g} ms")
    return tally, {name: (metrics[name], unit) for name, unit in END_TO_END}


class Observed:
    """Figures read from the outputs of the traced operations."""

    def __init__(self):
        self.classified = 0
        self.quad_witnesses = 0
        self.input_bits = 0
        self.witness_bits = 0
        self.verdicts = 0
        self.numeric = 0

    def add(self, op, out):
        if out is None:
            return
        if op.kind == wl.CLASSIFY:
            w = ck.matrix_of(out.witness.transform.matrix)
            self.classified += 1
            self.quad_witnesses += any(isinstance(x, ck.Surd) for row in w for x in row)
            self.witness_bits = max([self.witness_bits] + [ck.bit_height(x) for row in w for x in row])
            self.input_bits = max([self.input_bits] + [
                ck.bit_height(x) for vec in op.table[1].values() for x in vec])
        elif op.kind in (wl.CODIM2_ISO, wl.PROPSIM_WITNESS, wl.PROPSIM_DECIDE):
            verdict = out[1] if op.kind == wl.CODIM2_ISO else out
            self.verdicts += 1
            self.numeric += verdict.mode == "numeric"


def measure_traced(workload: str, seed: int, seconds: float, work_dir: Path) -> tuple:
    """Whole blocks with the CLI calls replayed in-process, untraced and
    traced in turn, so that both see the same phases of the machine.  A
    block is always the same operations, so per-operation call counts
    repeat exactly for a seed however many blocks fit."""
    _, ops, _ = make_plan(workload, seed, work_dir)
    plain, traced, observed, tracer = Tally(), Tally(), Observed(), Tracer()
    start = perf_counter()
    while perf_counter() - start < seconds:
        for op in ops:
            execute(op, plain, in_process=True)
        tracer.install()
        try:
            for op in ops:
                observed.add(op, execute(op, traced, in_process=True, tracer=tracer))
        finally:
            tracer.uninstall()

    n_traced = traced.attempted
    self_s, calls = tracer.layer_totals()
    metrics = {}
    for _, _, name, _ in TARGETS:
        metrics[name + ".self_ms"] = self_s.get(name, 0.0) * 1e3 / n_traced
        metrics[name + ".calls"] = calls.get(name, 0) / n_traced
    metrics.update({
        "scalars.quad_witness_share": observed.quad_witnesses / max(1, observed.classified),
        "scalars.input_bits_max": observed.input_bits,
        "scalars.witness_bits_max": observed.witness_bits,
        "propsim.numeric_share": observed.numeric / max(1, observed.verdicts),
        "cli.import_ms": import_ms(),
        "trace.overhead_ms": _difference(_ms_p50(traced.latencies(*traced.samples)),
                                         _ms_p50(plain.latencies(*plain.samples))),
    })
    tally = Tally()
    for part in (plain, traced):
        tally.attempted += part.attempted
        tally.failed += part.failed
        tally.wrong += part.wrong
        tally.problems += part.problems
    return tally, {name: (metrics[name], unit) for name, unit in _per_layer()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload's result.  An exception from the program while the
    operations are built counts as one failed operation, with every
    metric None."""
    work_dir = HERE / ".work" / f"{os.getpid()}-{workload}"
    try:
        fn = measure_traced if trace else measure
        tally, metrics = fn(workload, seed, seconds, work_dir)
    except Exception:  # noqa: BLE001 - reported as a failed run, not a crash
        tally = Tally()
        tally.attempted = tally.failed = 1
        tally.note(f"set-up failed: {traceback.format_exc(limit=5)}")
        metrics = {name: (None, unit) for name, unit in (_per_layer() if trace else END_TO_END)}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for problem in tally.problems:
        print(problem, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        shown = "-" if value is None else f"{value:.6g}"
        print(f"{workload:>15} {name:<40} {shown:>14} {unit}")
    return {
        "correct": tally.wrong == 0 and all(value is not None for value, _ in metrics.values()),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=wl.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=26.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-from", type=Path, metavar="INPUTS",
                   help="build the program's objects for saved inputs, print 'ready' "
                        "and exit (one set-up sample)")
    args = p.parse_args(argv)

    if args.setup_from:
        build_ops(args.setup_from)
        print("ready", flush=True)
        return 0

    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        for w, res in results.items():
            print(json.dumps({"workload": w, **res}))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
