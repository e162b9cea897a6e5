"""End-to-end timings of ``fock-canon matrix``, one fresh process per run.

For each size (n, m) and each kind A, D, E and C, this runs

    python -m fockcanon.cli matrix --kind K -n N -m M --no-cache --format json

from this checkout's ``src/`` in a new interpreter, and records its wall time,
peak RSS (``ru_maxrss`` from ``os.wait4``), exit code and the SHA-256 of its
stdout.  A run that outlives TIMEOUT_S is killed and recorded as timed out.
The results, with the git revision and the Python version, go to
``BENCH_<short revision>.json``, whose path is printed.

    python benchmarks/bench.py [--out DIR] [--smoke]

A child's peak RSS is never below the peak of this script's own process,
recorded as ``driver_peak_rss_mb``: on Linux the child starts out sharing
this process's memory, and ``ru_maxrss`` keeps that peak across the exec.

Two files from two revisions are comparable run by run: equal stdout digests
mean equal matrices.  The exit status is 1 when any run failed or timed out.
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
import threading
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KINDS = ("A", "D", "E", "C")
# the north star's end-to-end sizes, then the reach sizes
SIZES = ((2, 13), (3, 12), (4, 12), (2, 18), (2, 20), (3, 20), (4, 22))
SMOKE_SIZES = ((2, 6), (3, 5))
TIMEOUT_S = 300.0


def _git(*args) -> str:
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, *args], capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return ""
    return done.stdout.strip()


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run_one(kind: str, n: int, m: int, timeout: float, tmp: str) -> dict:
    """One fresh CLI process; stdout and stderr go to files, so a large
    matrix cannot block on a pipe."""
    argv = [sys.executable, "-m", "fockcanon.cli", "matrix", "--kind", kind,
            "-n", str(n), "-m", str(m), "--no-cache", "--format", "json"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    out_path, err_path = os.path.join(tmp, "stdout"), os.path.join(tmp, "stderr")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    fired = []

    def kill(pid):
        fired.append(True)
        os.kill(pid, signal.SIGKILL)

    t0 = perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    killer = threading.Timer(timeout, kill, (pid,))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        killer.cancel()
    wall = perf_counter() - t0
    record = {
        "kind": kind, "n": n, "m": m,
        "wall_s": round(wall, 4),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),  # Linux: KiB
        "exit_code": os.waitstatus_to_exitcode(status),
        "timed_out": bool(fired),
        "stdout_bytes": os.path.getsize(out_path),
        "stdout_sha256": _sha256(out_path),
    }
    if record["exit_code"] and not fired:
        with open(err_path, errors="replace") as fh:
            record["stderr_tail"] = fh.read()[-400:]
    return record


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
            for kind in KINDS:
                record = run_one(kind, n, m, TIMEOUT_S, tmp)
                runs.append(record)
                print(json.dumps(record), file=sys.stderr)
    doc = {
        "revision": revision,
        "src_modified": bool(_git("status", "--porcelain", "--", "src")),
        "python": platform.python_version(),
        "machine": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs",
        "command": "python -m fockcanon.cli matrix --kind K -n N -m M --no-cache --format json",
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
    return 0 if all(r["exit_code"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
