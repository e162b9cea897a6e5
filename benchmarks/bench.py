"""End-to-end timings of ``fock-canon matrix``, one fresh process per run.

For each size (n, m) this runs, from this checkout's ``src/`` in a new
interpreter, the equivalent of

    python -m fockcanon.cli matrix --kind K -n N -m M --no-cache --format json

once for each kind A, D, E and C, and once more with all four kinds in one
process (kind "ADEC"), where D's walk is shared by C and the bar images by
D and E.  Each run records its wall time, its peak RSS, exit code and the
SHA-256 of its stdout; the ADEC run also records whether its stdout is the
four single runs' stdouts one after the other.  A run that outlives
TIMEOUT_S is killed and recorded as timed out, with exit code -9.  The wall
time is taken around ``subprocess.run``, whose wait with a timeout polls,
sleeping up to 50 ms between polls, so wall_s can read up to 50 ms long.
The results, with the git revision and the Python version, go to
``BENCH_<short revision>.json``, whose path is printed.

    python benchmarks/bench.py [--out DIR] [--smoke]

Peak RSS is the child's own VmHWM, which it reads from /proc/self/status at
exit and writes to stderr (None where there is no /proc).  The child's
``ru_maxrss`` cannot serve: on Linux it starts out at the spawning process's
peak, recorded as ``driver_peak_rss_mb``, and keeps it across the exec.
BENCH files written before this script read VmHWM hold ``ru_maxrss`` as
peak_rss_mb.

Two files from two revisions are comparable run by run: equal stdout digests
mean equal matrices.  The exit status is 1 when any run failed or timed out,
or when an ADEC run's stdout differs from its single runs'.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KINDS = ("A", "D", "E", "C")
ALL_KINDS = "".join(KINDS)
# the north star's end-to-end sizes, then the reach sizes
SIZES = ((2, 13), (3, 12), (4, 12), (2, 18), (2, 20), (3, 20), (4, 22), (3, 22), (4, 24))
SMOKE_SIZES = ((2, 6), (3, 5))
TIMEOUT_S = 300.0
# the child: `matrix --kind K` for each letter K of argv[1], then its VmHWM
CHILD = """
import sys
from fockcanon.cli import main
try:
    for kind in sys.argv[1]:
        status = main(["matrix", "--kind", kind, *sys.argv[2:]])
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


def run_one(kinds: str, n: int, m: int, timeout: float, tmp: str) -> tuple[dict, str]:
    """One fresh CLI process that computes each kind of kinds in turn;
    stdout and stderr go to files, so a large matrix cannot block on a pipe.
    Returns the record and the path of the stdout file."""
    argv = [sys.executable, "-c", CHILD, kinds,
            "-n", str(n), "-m", str(m), "--no-cache", "--format", "json"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    out_path, err_path = os.path.join(tmp, f"{kinds}.out"), os.path.join(tmp, "stderr")
    timed_out = False
    t0 = perf_counter()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        try:
            code = subprocess.run(argv, stdout=out, stderr=err, env=env, timeout=timeout).returncode
        except subprocess.TimeoutExpired:  # run() has killed the child
            timed_out, code = True, -signal.SIGKILL
    wall = perf_counter() - t0
    record = {
        "kind": kinds, "n": n, "m": m,
        "wall_s": round(wall, 4),
        "peak_rss_mb": _child_peak_mb(err_path),
        "exit_code": code,
        "timed_out": timed_out,
        "stdout_bytes": os.path.getsize(out_path),
        "stdout_sha256": _sha256(out_path),
    }
    if code and not timed_out:
        with open(err_path, errors="replace") as fh:
            record["stderr_tail"] = fh.read()[-400:]
    return record, out_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=os.path.dirname(os.path.abspath(__file__)),
                        help="directory for the BENCH file (default: benchmarks/)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"tiny sizes {SMOKE_SIZES} only")
    args = parser.parse_args(argv)
    revision = _git("rev-parse", "HEAD") or "unknown"
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for n, m in SMOKE_SIZES if args.smoke else SIZES:
            outs = []
            for kinds in (*KINDS, ALL_KINDS):
                record, out_path = run_one(kinds, n, m, TIMEOUT_S, tmp)
                if kinds == ALL_KINDS:
                    record["equals_single_runs"] = record["stdout_sha256"] == _sha256(*outs)
                outs.append(out_path)
                runs.append(record)
                print(json.dumps(record), file=sys.stderr)
    doc = {
        "revision": revision,
        "src_modified": bool(_git("status", "--porcelain", "--", "src")),
        "python": platform.python_version(),
        "machine": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs",
        "command": "matrix --kind K -n N -m M --no-cache --format json, for each kind K of the run",
        "child": CHILD,
        "peak_rss": "VmHWM of the child at exit",
        "timeout_s": TIMEOUT_S,
        "driver_peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "runs": runs,
    }
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"BENCH_{revision[:7]}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(path)
    ok = all(r["exit_code"] == 0 and r.get("equals_single_runs", True) for r in runs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
