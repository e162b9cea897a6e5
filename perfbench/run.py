#!/usr/bin/env python3
"""fock-canon benchmark: one client, one process, closed loop.

Run from the root of a checkout:

  python3 perfbench/run.py --workload tables-cold --seed 1 --seconds 15 --trace 0
  python3 perfbench/run.py --smoke       # each workload once at tiny degrees
  python3 perfbench/run.py --record      # rewrite perfbench/reference.json

Workloads (see ``workloads.py``): tables-cold, solve-warm, verify-ops,
cache-read.  The program is imported from ``src/`` of the checkout; the
benchmark exits 2 without a result when it is not there.

With ``--trace 0`` the run reports the end-to-end metrics.  Each operation
(a request or a verify check) runs once per pass and counts at its median
latency over the passes:
  wall_s       time of one pass: the sum of the operations' latencies
  setup_s      median over the set-up repetitions of one set-up: a fresh
               import of the package, then the workload's own set-up
  op_p50_ms    median operation latency
  op_tail_ms   latency at the highest percentile of (90, 95, 99, 99.9) that
               keeps ten samples beyond it at the workload's minimum count
  peak_rss_mb  peak resident memory of this process
A shared machine's speed can drift by a third and more within seconds, so
every time is scaled by a speed probe run next to each operation (``workloads.SpeedProbe``); the unscaled pass times go to the
result file in ``.bench_out/``.

With ``--trace 1`` untraced and traced passes alternate, and the run reports
the per-module metrics of ``spans.layer_metrics`` plus the tracing overhead
(traced minus untraced pass time).  Counts must repeat exactly between the
traced passes.  The spans of the first traced pass go to ``.bench_out/``.

Operations fail when they raise, exit non-zero, fail a check, or when the
digest of their output differs from ``reference.json``.  ``failed`` over
``attempted`` in the result line is the failure ratio.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
import types
from pathlib import Path
from time import perf_counter

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"
SETUP_REPS = 3
SETUP_MIN_S = 0.5
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)
MODULE_NAMES = ("wedge", "fock", "canonical", "partitions", "matrixio", "cli", "verify")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_program():
    """Import fockcanon afresh from the checkout, dropping any earlier import."""
    if not (SRC / "fockcanon" / "__init__.py").is_file():
        raise BenchError(f"no fockcanon package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [k for k in sys.modules if k == "fockcanon" or k.startswith("fockcanon.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"fockcanon.{name}") for name in MODULE_NAMES}
    where = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"fockcanon was imported from {where}, not from {SRC}")
    return types.SimpleNamespace(
        upper=mods["canonical"].canonical_upper,
        lower=mods["canonical"].canonical_lower,
        **mods,
    )


def load_reference() -> dict:
    if not REFERENCE.is_file():
        raise BenchError(f"missing {REFERENCE}")
    return json.loads(REFERENCE.read_text())


def git_revision() -> str | None:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    """Content hash of the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted((SRC / "fockcanon").glob("*.py*")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def stamp(prog, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "kernel_backend": prog.wedge.backend(),
        "fockcanon_pure": os.environ.get("FOCKCANON_PURE") == "1",
        "nproc": len(os.sched_getaffinity(0)),
    }


def percentile(values, pct: float) -> float:
    data = sorted(values)
    pos = (len(data) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(min_ops: int) -> float:
    """Highest ladder percentile with ten samples beyond it at min_ops samples."""
    for pct in TAIL_LADDER:
        if min_ops * (1 - pct / 100.0) >= 10:
            return pct
    return 50.0


def set_up(w, tally):
    """Set up at least SETUP_REPS times and for SETUP_MIN_S; returns the
    program and the median set-up time.  Each step (the import, then the
    workload's own) is timed alone and scaled by the speed probe."""
    times = []
    while len(times) < SETUP_REPS or sum(times) < SETUP_MIN_S:
        gc.collect()
        first_burst = len(w.probe.bursts)
        w.probe.follow()
        t0 = perf_counter()
        prog = load_program()
        steps = [perf_counter() - t0]
        w.probe.follow(steps[0])
        for step in w.setup_steps(prog):
            t0 = perf_counter()
            step()
            steps.append(perf_counter() - t0)
            w.probe.follow(steps[-1])
        times.append(sum(dt * f for dt, f in zip(steps, w.probe.scales(first_burst))))
    for err in w.check_setup(prog):
        tally.problem(f"set-up: {err}")
    return prog, statistics.median(times)


def measure(w, args, tally):
    """Untraced passes for args.seconds (and at least w.min_passes).

    Every time is scaled by the speed probe (``workloads.SpeedProbe``); the
    raw pass times are kept in the result file.
    """
    prog, setup_s = set_up(w, tally)
    raw = []
    start = perf_counter()
    while len(raw) < w.min_passes or perf_counter() - start < args.seconds:
        raw.append(workloads.timed_pass(w, prog, tally)[0])
    pct = tail_percentile(w.min_passes * w.ops_per_pass)
    # Every pass runs the same operations in the same order; an operation's
    # latency is its median over the passes, which keeps what one slow moment
    # of the machine adds to a single repetition out of the figures.
    per_op = [statistics.median(column) for column in zip(*tally.passes)]
    ms = sorted(dt * 1000.0 for dt in per_op) * len(raw)
    metrics = {
        "wall_s": (sum(per_op), "s"),
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (percentile(ms, 50.0), "ms"),
        "op_tail_ms": (percentile(ms, pct), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "op_seconds_scaled": tally.passes,
        "pass_seconds_raw": raw,
        "passes": len(raw),
        "op_samples": len(ms),
        "op_tail_percentile": pct,
    }
    return prog, metrics, notes, None


def outcome_counts(w, results) -> dict:
    """Counts the harness sees for one traced pass: verify checks run and
    failed, and CLI requests that exited non-zero."""
    is_verify = w.name == "verify-ops"
    return {
        "verify.checks": len(results) if is_verify else 0,
        "verify.failed": sum(err is not None for _, err in results) if is_verify else 0,
        "cli.exit_nonzero": sum(err is not None and ": exit code " in err for _, err in results),
    }


def measure_traced(w, args, tally):
    """Untraced and traced passes alternate; per-module metrics from the traced."""
    prog, _ = set_up(w, tally)
    first_burst = len(w.probe.bursts)
    plain, traced, first_dump = [], [], None
    start = perf_counter()
    while len(traced) < 2 or perf_counter() - start < args.seconds:
        _, results = workloads.timed_pass(w, prog, tally)
        plain.append(sum(dt for dt, _ in results))
        tracer = spans.Tracer()
        wall, results = workloads.timed_pass(w, prog, tally, tracer)
        traced.append(
            spans.layer_metrics(tracer.spans, wall)
            | {"trace.wall_s": wall}
            | outcome_counts(w, results)
        )
        if first_dump is None:
            first_dump = tracer.dump()
    for name in spans.COUNT_METRICS:
        values = {m[name] for m in traced}
        if len(values) != 1:
            tally.problem(f"{name} differs between traced passes: {sorted(values)}")
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    # Traced passes run without probes (they would show in the spans), so
    # their times take the mean scale of the untraced passes around them.
    scale = w.probe.mean_scale(first_burst)
    per_layer = {}
    for name in traced[0]:
        values = [m[name] for m in traced]
        per_layer[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
    for name, unit in units.items():
        if unit == "s" and name in per_layer:
            per_layer[name] *= scale
    per_layer["trace.untraced_wall_s"] = statistics.median(plain)
    per_layer["trace.overhead_s"] = per_layer["trace.wall_s"] - per_layer["trace.untraced_wall_s"]
    if w.name in ("solve-warm", "cache-read") and per_layer["kernel.calls"] != 0:
        tally.problem(f"kernel.calls = {per_layer['kernel.calls']} in the timed part of {w.name}")
    if w.name == "cache-read" and per_layer["matrixio.store.calls"] != 0:
        tally.problem("cache-read stored a matrix: some request missed the cache")
    metrics = {name: (per_layer[name], units[name]) for name in units}
    notes = {"untraced_passes": len(plain), "traced_passes": len(traced), "probe_scale": scale}
    return prog, metrics, notes, first_dump


def run_workload(args) -> int:
    os.environ.pop("FOCK_CANON_CACHE", None)
    ref = load_reference()
    fock_caches = [p / ".fock-cache" for p in {ROOT, Path.cwd()}]
    existed = {p: p.exists() for p in fock_caches}
    OUT_DIR.mkdir(exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    w = workloads.WORKLOADS[args.workload](ref, args.seed, tmp_root)
    tally = workloads.Tally()
    try:
        measure_fn = measure_traced if args.trace else measure
        prog, metrics, notes, dump = measure_fn(w, args, tally)
    finally:
        w.close()
        shutil.rmtree(tmp_root, ignore_errors=True)
    for p in fock_caches:
        if p.exists() and not existed[p]:
            tally.problem(f"the run created {p}")
    info = stamp(prog, args)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if dump is not None:
        (OUT_DIR / f"spans-{tag}.json").write_text(json.dumps(dump | {"stamp": info}))
    correct = tally.failed == 0 and not tally.errors
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT_DIR / f"result-{tag}.json").write_text(
        json.dumps({"stamp": info, "notes": notes, "result": result}, indent=1)
    )
    for err in tally.errors[:20]:
        print(f"error: {err}", file=sys.stderr)
    print("stamp " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_ratio = {tally.failed}/{tally.attempted}")
    if args.trace:
        print(f"{notes['traced_passes']} traced and {notes['untraced_passes']} untraced passes")
    else:
        print(f"{notes['passes']} passes; op_tail_ms is p{notes['op_tail_percentile']:g}"
              f" of {notes['op_samples']} samples")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload once, tiny")
    parser.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = parser.parse_args(argv)
    try:
        if args.record:
            import record
            return record.main(load_program, REFERENCE)
        if args.smoke:
            import smoke
            return smoke.main(load_program, load_reference(), ROOT)
        if args.workload is None:
            parser.error("--workload is required")
        return run_workload(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)
