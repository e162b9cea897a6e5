"""End-to-end timings of the ``fock-canon`` CLI, one fresh process per run.

For each size (n, m) this runs, in a new interpreter, the equivalent of

    python -m fockcanon.cli matrix --kind K -n N -m M --no-cache --format json

once for each kind A, D, E and C, and once more with all four kinds in one
process (kind "ADEC"), where the bar images are shared by A and D, and D's
walk and C's walk by D, E and C: E is read off C, so a single E run walks
D and C as well.  The sizes past the reach, ADEC_SIZES, get the ADEC run
only.  Then, at the sizes with single runs, it times the cache's read side,
once for each kind (recorded with "cache": "hit"):

    python -m fockcanon.cli matrix --kind K -n N -m M --cache-dir DIR --format json

DIR is filled beforehand by one untimed process per size that runs these
four commands on an empty cache, so every timed run loads, checks and
prints a stored document; its stdout is the document that the --no-cache
run of the kind printed.  Then, for each entry (suite, n, max_m) of
perfbench's verify-ops plan, it runs the equivalent of

    python -m fockcanon.cli verify --suite SUITE -n N --max-m MAX_M

Every run is a pair: the base side imports REV's ``src/``, exported with
``git archive`` under ``.bench_out/base-<short REV>/``, and the change
side this checkout's ``src/``, so the script needs a git checkout.  REV is
HEAD by default: with uncommitted changes that compares the change with its
parent, and on a clean tree it is the null pair, whose ratios show the
spread of a pair that changes nothing.  Each sample runs both sides one
right after the other, the base first in every other sample (alternating
along the runs and along the repeats), so that both sides of a pair see the
same speed of the machine.  The documents are byte-identical, so both
sides' hit runs read one cache, filled from this checkout's ``src/``.

One run takes the wall time, the peak RSS, the exit code and the SHA-256 of
stdout of its process.  Every run is repeated in rounds over all runs, so
that a drift of the machine's speed falls on all of them alike, until it
has REPEATS samples if the slower side's first took under SUB_SECOND_S,
else LONG_REPEATS (the reach sizes).  Each side's summary gives the median
wall time with its min and max, the median peak RSS, and whether the stdout
digests of its samples are equal; an ADEC run's at a size with single runs
also gives whether its stdout is the four single runs' stdouts one after
the other.  A record holds both sides' summaries, the per-sample ratios of
the change's wall time to the base's with their median, and whether both
sides printed the same stdout.  The wall time is taken from the spawn to a blocking wait for
the child's exit, which returns as soon as the child exits (a wait with a
timeout would poll, sleeping up to 50 ms).  A timer kills a run that
outlives TIMEOUT_S; it is recorded as timed out, with exit code -9.  The
results, with both revisions and the Python version, go to
``BENCH_base-<short REV>.json``, whose path is printed.

    python benchmarks/bench.py [--out DIR] [--smoke] [--base REV]

Peak RSS is the child's own VmHWM, which it reads from /proc/self/status at
exit and writes to stderr (None where there is no /proc).  The child's
``ru_maxrss`` cannot serve: on Linux it starts out at the spawning process's
peak, recorded as ``driver_peak_rss_mb``, and keeps it across the exec.
BENCH files written before this script read VmHWM hold ``ru_maxrss`` as
peak_rss_mb; those written before it repeated runs hold one sample per run,
and those written before LONG_REPEATS one sample per run of 1 s or more.
Files named ``BENCH_<short revision>.json`` are from before every run was a
pair: they hold one side per run.

Equal stdout digests mean equal matrices and equal verify reports.  The
exit status is the gate: it is 1, and each failing run is named on stderr
with its reason, when on either side a run failed or timed out, the samples
of a run printed different stdouts, an ADEC run's stdout differs from its
single runs' where they exist, a hit run printed another document than its
kind's --no-cache run, or a run recorded no peak RSS where /proc/self/status
exists; or when the two sides of a run printed different stdouts.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
import threading
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from workloads import SMOKE_VERIFY_PLAN, VERIFY_PLAN  # noqa: E402  (verify-ops' plans)

KINDS = ("A", "D", "E", "C")
ALL_KINDS = "".join(KINDS)
# the north star's end-to-end sizes, then the reach sizes
SIZES = ((2, 13), (3, 12), (4, 12), (2, 18), (2, 20), (3, 20), (4, 22), (3, 22), (4, 24))
SMOKE_SIZES = ((2, 6), (3, 5), (4, 6))
# two more degrees of reach: the ADEC run only
ADEC_SIZES = ((2, 22), (3, 24), (4, 26))
SMOKE_ADEC_SIZES = ((2, 8),)
TIMEOUT_S = 300.0
SUB_SECOND_S = 1.0
REPEATS = 5
LONG_REPEATS = 3
SIDES = ("base", "change")  # who goes first alternates
# the plan's fields that name a run
RUN_FIELDS = ("kind", "suite", "n", "m", "max_m", "cache")
# where the child can read its VmHWM, every run must record a peak RSS
PROC_STATUS = os.path.exists("/proc/self/status")
# the child: `main(argv)` for each CLI argv of the JSON list argv[1], then its VmHWM
CHILD = """
import json, sys
from fockcanon.cli import main
try:
    for argv in json.loads(sys.argv[1]):
        status = main(argv)
        if status:
            break
finally:
    try:
        with open("/proc/self/status") as fh:
            hwm = [line.split()[1] for line in fh if line.startswith("VmHWM:")]
        print("VmHWM_kB", *hwm, file=sys.stderr)
    except OSError:
        pass
sys.exit(status)
"""


def _git(*args) -> str:
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, *args], capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return ""
    return done.stdout.strip()


def _sha256(*paths: str) -> str:
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    return digest.hexdigest()


def _child_peak_mb(err_path: str):
    """The VmHWM the child wrote last to its stderr, in MB, or None."""
    with open(err_path, errors="replace") as fh:
        marks = [line.split() for line in fh if line.startswith("VmHWM_kB ")]
    return round(int(marks[-1][1]) / 1024, 1) if marks and len(marks[-1]) == 2 else None


def export_base(rev: str) -> tuple[str, str]:
    """(full revision, its src/ directory): REV's src/ from ``git archive``,
    extracted once under .bench_out/base-<short REV>/."""
    full = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    if not full:
        raise SystemExit(f"bench.py: {rev!r} is not a revision of a git checkout at {ROOT}")
    out = os.path.join(ROOT, ".bench_out", f"base-{full[:7]}")
    src = os.path.join(out, "src")
    if not os.path.isdir(src):
        os.makedirs(out, exist_ok=True)
        tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", full, "src"],
                             capture_output=True, check=True).stdout
        with tempfile.TemporaryDirectory(dir=out) as tmp:
            with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
                archive.extractall(tmp, filter="data")
            os.replace(os.path.join(tmp, "src"), src)
    return full, src


def run_one(argvs: list, timeout: float, out_path: str, err_path: str, src: str) -> dict:
    """One fresh CLI process that runs main(argv) for each argv of argvs in
    turn, importing the package from src; stdout and stderr go to files, so
    a large matrix cannot block on a pipe.  Returns the sample."""
    argv = [sys.executable, "-c", CHILD, json.dumps(argvs)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    t0 = perf_counter()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        child = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        timer = threading.Timer(timeout, child.kill)
        timer.start()
        try:
            code = child.wait()
            wall = perf_counter() - t0
        finally:
            timer.cancel()
    timed_out = code == -signal.SIGKILL and wall >= timeout
    sample = {
        "wall_s": round(wall, 4),
        "peak_rss_mb": _child_peak_mb(err_path),
        "exit_code": code,
        "timed_out": timed_out,
        "stdout_bytes": os.path.getsize(out_path),
        "stdout_sha256": _sha256(out_path),
    }
    if code and not timed_out:
        with open(err_path, errors="replace") as fh:
            sample["stderr_tail"] = fh.read()[-400:]
    return sample


def plan(smoke: bool, cache_dir: str) -> list:
    """(record head, CLI argvs of its process) for every run, in order; the
    hit runs read cache_dir."""
    runs = []
    sizes = SMOKE_SIZES if smoke else SIZES
    for n, m in (*sizes, *(SMOKE_ADEC_SIZES if smoke else ADEC_SIZES)):
        flags = ["-n", str(n), "-m", str(m), "--no-cache", "--format", "json"]
        for kinds in (*KINDS, ALL_KINDS) if (n, m) in sizes else (ALL_KINDS,):
            runs.append(({"kind": kinds, "n": n, "m": m},
                         [["matrix", "--kind", kind, *flags] for kind in kinds]))
        for kind in KINDS if (n, m) in sizes else ():
            runs.append(({"kind": kind, "n": n, "m": m, "cache": "hit"},
                         [["matrix", "--kind", kind, "-n", str(n), "-m", str(m),
                           "--cache-dir", cache_dir, "--format", "json"]]))
    for suite, n, max_m in SMOKE_VERIFY_PLAN if smoke else VERIFY_PLAN:
        runs.append(({"suite": suite, "n": n, "max_m": max_m},
                     [["verify", "--suite", suite, "-n", str(n), "--max-m", str(max_m)]]))
    return runs


def summary(samples: list) -> dict:
    """One side's summary of a run from its samples: median wall time and
    peak RSS, the first failure, and the first sample's stdout."""
    walls = [s["wall_s"] for s in samples]
    peaks = [s["peak_rss_mb"] for s in samples if s["peak_rss_mb"] is not None]
    failed = [s for s in samples if s["exit_code"]]
    record = {
        "repeats": len(samples),
        "wall_s_samples": walls,
        "wall_s": statistics.median(walls),
        "wall_s_min": min(walls),
        "wall_s_max": max(walls),
        "peak_rss_mb": statistics.median(peaks) if peaks else None,
        "exit_code": failed[0]["exit_code"] if failed else 0,
        "timed_out": any(s["timed_out"] for s in samples),
        "stdout_bytes": samples[0]["stdout_bytes"],
        "stdout_sha256": samples[0]["stdout_sha256"],
        "stdouts_equal": len({s["stdout_sha256"] for s in samples}) == 1,
    }
    if failed and "stderr_tail" in failed[0]:
        record["stderr_tail"] = failed[0]["stderr_tail"]
    return record


def pair(head: dict, base: dict, change: dict) -> dict:
    """The record of one run with both sides: each side's summary, the
    per-sample ratios change/base of the wall time and their median, and
    whether both sides printed the same stdout."""
    ratios = [round(c / b, 4) for b, c in zip(base["wall_s_samples"], change["wall_s_samples"])]
    return {
        **head,
        "base": base,
        "change": change,
        "ratios": ratios,
        "ratio_median": statistics.median(ratios),
        "sides_equal": base["stdouts_equal"] and change["stdouts_equal"]
        and base["stdout_sha256"] == change["stdout_sha256"],
    }


def fill_cache(runs: list, tmp: str, src: str) -> None:
    """Run the hit runs of each size in one process, untimed, so that each
    stores its document in the empty cache that the timed hit runs read."""
    sizes: dict = {}
    for head, argvs in runs:
        if head.get("cache") == "hit":
            sizes.setdefault((head["n"], head["m"]), []).extend(argvs)
    for argvs in sizes.values():
        sample = run_one(argvs, TIMEOUT_S, os.path.join(tmp, "fill.out"),
                         os.path.join(tmp, "fill.err"), src)
        if sample["exit_code"]:
            raise SystemExit(f"bench.py: filling the cache failed: {argvs[0]}\n"
                             f"{sample.get('stderr_tail', '')}")


def failures(records: list) -> list:
    """(run, reason) for each fault of the pair records: the gate that the
    exit status reports.  A hit run is compared with its kind's --no-cache
    run at its size, side by side."""
    cold = {(r["kind"], r["n"], r["m"]): r for r in records if "kind" in r and "cache" not in r}
    found = []
    for r in records:
        run = " ".join(f"{key}={r[key]}" for key in RUN_FIELDS if key in r)
        for side in SIDES:
            s = r[side]
            if s["exit_code"]:
                found.append((run, f"{side} exited {s['exit_code']}"
                                   + (" (timed out)" if s["timed_out"] else "")))
            if not s["stdouts_equal"]:
                found.append((run, f"{side}'s samples printed different stdouts"))
            if not s.get("equals_single_runs", True):
                found.append((run, f"{side}'s stdout is not its single runs' stdouts"))
            if PROC_STATUS and s["peak_rss_mb"] is None:
                found.append((run, f"{side} recorded no peak RSS"))
            if r.get("cache") == "hit":
                if s["stdout_sha256"] != cold[r["kind"], r["n"], r["m"]][side]["stdout_sha256"]:
                    found.append((run, f"{side} printed another document than its --no-cache run"))
        if not r["sides_equal"]:
            found.append((run, "the two sides printed different stdouts"))
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=os.path.dirname(os.path.abspath(__file__)),
                        help="directory for the BENCH file (default: benchmarks/)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"tiny sizes {SMOKE_SIZES}, ADEC only at {SMOKE_ADEC_SIZES}, "
                             "and the smoke verify plan only")
    parser.add_argument("--base", metavar="REV", default="HEAD",
                        help="the revision whose src/ is the base side (default: HEAD)")
    args = parser.parse_args(argv)
    base_revision, base_src = export_base(args.base)
    sides = {"base": base_src, "change": os.path.join(ROOT, "src")}
    with tempfile.TemporaryDirectory() as tmp:
        runs = plan(args.smoke, os.path.join(tmp, "cache"))
        samples = {side: [[] for _ in runs] for side in SIDES}
        # the --no-cache run of each (kind, n, m)
        index = {(h["kind"], h["n"], h["m"]): i for i, (h, _) in enumerate(runs)
                 if "kind" in h and "cache" not in h}
        equal_to_singles: dict = {side: {} for side in SIDES}
        fill_cache(runs, tmp, sides["change"])
        err_path = os.path.join(tmp, "stderr")
        for rnd in range(REPEATS):
            for i, (head, argvs) in enumerate(runs):
                if rnd:
                    first = max(samples[side][i][0]["wall_s"] for side in SIDES)
                    if rnd >= (LONG_REPEATS if first >= SUB_SECOND_S else REPEATS):
                        continue
                for side in SIDES if (rnd + i) % 2 == 0 else SIDES[::-1]:
                    out_path = os.path.join(tmp, f"{side}-{i}.out")
                    sample = run_one(argvs, TIMEOUT_S, out_path, err_path, sides[side])
                    samples[side][i].append(sample)
                    print(json.dumps({**head, "side": side, **sample}), file=sys.stderr)
                    if not rnd and head.get("kind") == ALL_KINDS:
                        singles = [index.get((kind, head["n"], head["m"])) for kind in KINDS]
                        if None not in singles:  # not at an ADEC-only size
                            paths = [os.path.join(tmp, f"{side}-{j}.out") for j in singles]
                            equal_to_singles[side][i] = sample["stdout_sha256"] == _sha256(*paths)
    summaries = {side: [summary(s) for s in samples[side]] for side in SIDES}
    for side in SIDES:
        for i, same in equal_to_singles[side].items():
            summaries[side][i]["equals_single_runs"] = same
    records = [pair(head, b, c) for (head, _), b, c
               in zip(runs, summaries["base"], summaries["change"])]
    doc = {
        "revision": _git("rev-parse", "HEAD"),
        "src_modified": bool(_git("status", "--porcelain", "--", "src")),
        "base_revision": base_revision,
        "python": platform.python_version(),
        "machine": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs",
        "command": "one process per run: matrix --kind K -n N -m M --no-cache --format json, "
                   "for each kind K of the run; for a hit run, matrix --kind K -n N -m M "
                   "--cache-dir DIR --format json on a cache filled beforehand; or "
                   "verify --suite SUITE -n N --max-m MAX_M",
        "child": CHILD,
        "peak_rss": "VmHWM of the child at exit",
        "timeout_s": TIMEOUT_S,
        "repeats": f"{REPEATS} samples for a run under {SUB_SECOND_S} s, else {LONG_REPEATS}; "
                   "wall_s and peak_rss_mb are medians",
        "pairs": "each sample runs base and change back to back, base first in "
                 "every other sample; ratios are change/base per sample",
        "driver_peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "runs": records,
    }
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"BENCH_base-{base_revision[:7]}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(path)
    bad = failures(records)
    for run, reason in bad:
        print(f"bench.py: {run}: {reason}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
