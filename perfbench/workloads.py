"""The four workloads.  Each one is a closed loop with a single client.

A workload is driven in passes.  ``setup_steps`` are timed and bring the
freshly imported program to the workload's starting state; ``prepare`` runs untimed
before every pass; ``run_pass`` is the timed pass and returns raw records;
``check`` turns those records into (latency, failure) pairs after the timer
has stopped, so that digesting outputs is never timed.

Sizes are smaller than the full north-star degrees so that a pass takes one to
four seconds and a run holds several passes; each workload keeps the layers
it was chosen to stress (see ``predictions.json``).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import shutil
import tempfile
from time import perf_counter

# Full-size plans.
TABLE_SIZES = ((2, 9), (3, 10), (4, 11))
SOLVE_SIZES = ((2, 10), (3, 10), (4, 11))
VERIFY_PLAN = (
    ("involution", 2, 8),
    ("heisenberg", 3, 6),
    ("ribbon", 2, 6),
    ("ribbon", 3, 6),
    ("steinberg", 2, 10),
    ("domino", 2, 10),
    ("uqsl", 3, 6),
)
CACHE_BATCH = 192

# Smoke plans: the same code paths at tiny degrees.
SMOKE_TABLE_SIZES = ((2, 6), (3, 5), (4, 6))
SMOKE_VERIFY_PLAN = (
    ("involution", 2, 4),
    ("heisenberg", 3, 3),
    ("ribbon", 2, 3),
    ("ribbon", 3, 3),
    ("steinberg", 2, 6),
    ("domino", 2, 6),
    ("uqsl", 3, 3),
)
SMOKE_CACHE_BATCH = 48

KINDS = ("A", "D", "E", "C")
FORMATS = ("json", "csv", "latex", "pretty")
BLOCK_SHARE = 0.25


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def matrix_key(kind, n, m, fmt="json", block=None) -> str:
    return f"{kind}/n{n}/m{m}/{fmt}/{'-' if block is None else block}"


def suite_key(suite, n, max_m) -> str:
    return f"verify/{suite}/n{n}/m{max_m}"


def block_arg(core) -> str:
    return json.dumps(list(core), separators=(",", ":"))


def clear_memos(prog) -> None:
    """Drop every memo the cold workloads start without."""
    prog.wedge.clear_caches()
    prog.upper.cache_clear()
    prog.lower.cache_clear()


PROBE_NOMINAL_S = 0.0005
PROBE_DUTY = 0.1
PROBE_BURST_MIN = 4


class SpeedProbe:
    """Follows the machine's speed next to every operation.

    The machine is shared, and its speed drifts by a third and more within
    seconds.  The probe is a fixed piece of pure-Python work that shares no
    code with the program and allocates nothing the garbage collector tracks.
    A burst of probes runs before a pass and after every operation, for about
    PROBE_DUTY of the operation's time; an operation's time is scaled by the
    bursts on either side of it to the time it takes on a machine where one
    probe takes PROBE_NOMINAL_S.  Probe time is never part of a latency.
    """

    def __init__(self):
        self.bursts: list[float] = []  # mean probe time of each burst
        self.active = True

    @staticmethod
    def _once() -> float:
        t0 = perf_counter()
        table: dict[int, int] = {}
        acc = 0
        for i in range(2000):
            k = (i * 7919) % 1009
            table[k] = table.get(k, 0) + i
            acc ^= k * i
        return perf_counter() - t0

    def follow(self, seconds: float = 0.0) -> float:
        """Probe after `seconds` of work; returns the time the probe ended."""
        if self.active:
            count = max(PROBE_BURST_MIN, round(PROBE_DUTY * seconds / PROBE_NOMINAL_S))
            self.bursts.append(sum(self._once() for _ in range(count)) / count)
        return perf_counter()

    def scales(self, start: int) -> list[float]:
        """Scale factor of each operation after bursts[start], from the
        bursts before and after it."""
        b = self.bursts[start:]
        return [2 * PROBE_NOMINAL_S / (x + y) for x, y in zip(b, b[1:])]

    def mean_scale(self, start: int = 0) -> float:
        """One factor for everything timed since bursts[start]."""
        b = self.bursts[start:]
        return PROBE_NOMINAL_S * len(b) / sum(b)


def request(prog, argv, probe: SpeedProbe | None = None):
    """One ``fock-canon`` invocation in process: (seconds, exit code, stdout)."""
    out = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = prog.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    dt = perf_counter() - t0
    if probe is not None:
        probe.follow(dt)
    return dt, rc, out.getvalue()


def matrix_argv(kind, n, m, fmt="json", cache_dir=None, block=None):
    argv = ["matrix", "--kind", kind, "-n", str(n), "-m", str(m), "--format", fmt]
    argv += ["--no-cache"] if cache_dir is None else ["--cache-dir", cache_dir]
    if block is not None:
        argv += ["--block", block]
    return argv


class Workload:
    name = ""
    min_passes = 1
    ops_per_pass = 1

    def __init__(self, ref: dict, seed: int, tmp_root: str, smoke: bool = False):
        self.ref = ref
        self.seed = seed
        self.tmp_root = tmp_root
        self.smoke = smoke
        self.cache_dir = None
        self.probe = SpeedProbe()

    def fresh_cache_dir(self) -> str:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir = tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.tmp_root)
        return self.cache_dir

    def close(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None

    def setup_steps(self, prog) -> list:
        """The set-up after the import, as steps that run.py times one by one."""
        return [lambda: clear_memos(prog)]

    def check_setup(self, prog) -> list[str]:
        return []

    def prepare(self, prog) -> None:
        pass

    def run_pass(self, prog) -> list:
        raise NotImplementedError

    def check(self, prog, records) -> list:
        """(latency seconds, failure text or None) per operation."""
        return [(dt, self.expect(key, text, rc)) for key, dt, rc, text in records]

    def expect(self, key: str, text: str, rc: int = 0) -> str | None:
        """Failure text for an output, or None when it is the reference."""
        if rc != 0:
            return f"{key}: exit code {rc}"
        if digest(text) != self.ref["digests"].get(key):
            return f"{key}: output digest differs from the reference"
        return None


class TablesCold(Workload):
    """Every kind at every size, from cleared memos and an empty cache."""

    name = "tables-cold"
    min_passes = 9

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sizes = SMOKE_TABLE_SIZES if self.smoke else TABLE_SIZES
        self.plan = [(k, n, m) for k in KINDS for n, m in self.sizes]
        self.ops_per_pass = len(self.plan)

    def prepare(self, prog) -> None:
        clear_memos(prog)
        cache_dir = self.fresh_cache_dir()
        kind, n, m = self.plan[0]
        if os.listdir(cache_dir) or os.path.exists(prog.matrixio.cache_path(cache_dir, kind, n, m)):
            raise RuntimeError("cold pass does not start from an empty cache")

    def run_pass(self, prog) -> list:
        records = []
        for kind, n, m in self.plan:
            dt, rc, text = request(prog, matrix_argv(kind, n, m, cache_dir=self.cache_dir), self.probe)
            records.append((matrix_key(kind, n, m), dt, rc, text))
        return records

    def check(self, prog, records) -> list:
        out = super().check(prog, records)
        for i, (kind, n, m) in enumerate(self.plan):
            if out[i][1] is None and not os.path.exists(
                prog.matrixio.cache_path(self.cache_dir, kind, n, m)
            ):
                out[i] = (out[i][0], f"{matrix_key(kind, n, m)}: not written to the cache")
        return out


class SolveWarm(Workload):
    """D, E and C with the bar images already computed."""

    name = "solve-warm"
    min_passes = 12

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sizes = SMOKE_TABLE_SIZES if self.smoke else SOLVE_SIZES
        self.plan = [(k, n, m) for n, m in self.sizes for k in ("D", "E", "C")]
        self.ops_per_pass = len(self.plan)
        self.bar_matrices = []

    def setup_steps(self, prog) -> list:
        self.bar_matrices = []
        warm = [
            lambda n=n, m=m: self.bar_matrices.append(prog.canonical.a_matrix(n, m))
            for n, m in self.sizes
        ]
        return super().setup_steps(prog) + warm

    def check_setup(self, prog) -> list[str]:
        errors = [
            self.expect(matrix_key("A", n, m), prog.matrixio.matrix_to_json(a))
            for (n, m), a in zip(self.sizes, self.bar_matrices)
        ]
        return [e for e in errors if e]

    def prepare(self, prog) -> None:
        prog.upper.cache_clear()
        prog.lower.cache_clear()

    def run_pass(self, prog) -> list:
        records = []
        for kind, n, m in self.plan:
            dt, rc, text = request(prog, matrix_argv(kind, n, m), self.probe)
            records.append((matrix_key(kind, n, m), dt, rc, text))
        return records


class VerifyOps(Workload):
    """``fock-canon verify`` traffic: many short straightenings and operator
    actions.  An operation is one check; its latency runs from the previous
    check's report (or the suite's start) to its own report."""

    name = "verify-ops"
    min_passes = 3

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.plan = SMOKE_VERIFY_PLAN if self.smoke else VERIFY_PLAN
        self.ops_per_pass = sum(self.ref["verify_checks"][suite_key(*s)] for s in self.plan)
        self._marks: list = []

    def setup_steps(self, prog) -> list:
        return super().setup_steps(prog) + [lambda: self._hook_checks(prog)]

    def _hook_checks(self, prog) -> None:
        # Latency probe: Report.add is looked up on the class at call time.
        report_cls = prog.verify.Report
        orig_add = report_cls.add
        marks, probe = self._marks, self.probe

        def add(report, label, ok, detail=""):
            t = perf_counter()
            marks.append((t, probe.follow(t - marks[-1][1])))
            return orig_add(report, label, ok, detail)

        report_cls.add = add

    def prepare(self, prog) -> None:
        clear_memos(prog)

    def run_pass(self, prog) -> list:
        records = []
        for suite, n, max_m in self.plan:
            t0 = perf_counter()
            self._marks[:] = [(t0, t0)]  # (report time, end of the probe after it)
            try:
                report = prog.verify.run_suite(suite, n=n, max_m=max_m)
            except Exception as exc:  # the raise counts as one more operation
                t = perf_counter()
                self._marks.append((t, self.probe.follow(t - self._marks[-1][1])))
                report = exc
            records.append((suite_key(suite, n, max_m), list(self._marks), report))
        return records

    def check(self, prog, records) -> list:
        out = []
        for key, marks, report in records:
            if isinstance(report, Exception):
                suite_err, checks = f"{key}: raised {report!r}", [None] * (len(marks) - 1)
            else:
                suite_err, checks = self.expect(key, report.render()), report.checks
            # Check i ran from the end of the probe after check i-1 to its report.
            for i, (t, _) in enumerate(marks[1:]):
                err = suite_err
                if err is None and not checks[i][1]:
                    err = f"{key}: check failed: {checks[i][0]}"
                out.append((t - marks[i][1], err))
        return out


class CacheRead(Workload):
    """Seeded mix of ``fock-canon matrix`` requests that all hit the cache."""

    name = "cache-read"
    min_passes = 5

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sizes = SMOKE_TABLE_SIZES if self.smoke else TABLE_SIZES
        batch = SMOKE_CACHE_BATCH if self.smoke else CACHE_BATCH
        # Every (kind, size, format) appears equally often, so seeds differ
        # in order and in the blocks asked for, not in how much is rendered.
        rng = random.Random(self.seed)
        combos = [(k, n, m, f) for k in KINDS for n, m in self.sizes for f in FORMATS]
        picks = combos * (batch // len(combos))
        rng.shuffle(picks)
        self.mix = []
        for kind, n, m, fmt in picks:
            block = None
            if rng.random() < BLOCK_SHARE:
                block = block_arg(rng.choice(self.ref["cores"][f"n{n}/m{m}"]))
            self.mix.append((kind, n, m, fmt, block))
        self.ops_per_pass = len(self.mix)
        self.fill = []

    def setup_steps(self, prog) -> list:
        self.fill = []
        cache_dir = self.fresh_cache_dir()

        def fill(kind, n, m):
            self.fill.append((kind, n, m, request(prog, matrix_argv(kind, n, m, cache_dir=cache_dir))))

        return super().setup_steps(prog) + [
            lambda k=k, n=n, m=m: fill(k, n, m) for k in KINDS for n, m in self.sizes
        ]

    def check_setup(self, prog) -> list[str]:
        errors = [self.expect(matrix_key(k, n, m), text, rc) for k, n, m, (_, rc, text) in self.fill]
        return [e for e in errors if e]

    def run_pass(self, prog) -> list:
        records = []
        for kind, n, m, fmt, block in self.mix:
            argv = matrix_argv(kind, n, m, fmt, cache_dir=self.cache_dir, block=block)
            dt, rc, text = request(prog, argv, self.probe)
            records.append((matrix_key(kind, n, m, fmt, block), dt, rc, text))
        return records


class Tally:
    """Operations attempted and failed, with their latencies."""

    def __init__(self):
        self.passes: list[list[float]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, results) -> None:
        self.passes.append([dt for dt, _ in results])
        for _, err in results:
            self.attempted += 1
            if err is not None:
                self.failed += 1
                self.errors.append(err)

    def problem(self, text: str) -> None:
        self.errors.append(text)


def timed_pass(w, prog, tally: Tally, tracer=None):
    """One pass: untimed prepare, timed run (traced if a tracer is given),
    untimed check.  Returns the raw wall seconds and the per-operation
    results; untraced latencies are scaled by the speed probe."""
    w.prepare(prog)
    gc.collect()
    if tracer is not None:
        tracer.install(prog)
        w.probe.active = False  # the probe would count in the callers' spans
    first_burst = len(w.probe.bursts)
    w.probe.follow()
    try:
        t0 = perf_counter()
        records = w.run_pass(prog)
        wall = perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
            w.probe.active = True
    results = w.check(prog, records)
    if tracer is None:
        scales = w.probe.scales(first_burst)
        if len(scales) != len(results):
            raise RuntimeError(f"{len(scales)} probe scales for {len(results)} operations")
        results = [(dt * f, err) for (dt, err), f in zip(results, scales)]
    tally.add(results)
    return wall, results


WORKLOADS = {w.name: w for w in (TablesCold, SolveWarm, VerifyOps, CacheRead)}
