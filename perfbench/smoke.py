"""Smoke mode: the benchmark checks itself at tiny degrees.

1. Every workload runs set-up and one pass at the smoke sizes; no operation
   may fail.
2. The n=2 matrices for m <= 6 that the frozen tables cover are requested
   through the CLI and compared with ``verify.reference_bar_matrix`` and
   ``verify.reference_upper_matrix``.
3. A deliberately wrong expected digest must make an operation fail.
4. Every metric and workload that ``predictions.json`` names is defined in
   ``BENCHMARK.json``.
"""

from __future__ import annotations

import copy
import json
import shutil
import tempfile

import workloads as wl


def one_pass(cls, ref, load_program, tmp_root):
    w = cls(ref, 0, tmp_root, smoke=True)
    tally = wl.Tally()
    try:
        prog = load_program()
        for step in w.setup_steps(prog):
            step()
        for err in w.check_setup(prog):
            tally.problem(f"set-up: {err}")
        wall, _ = wl.timed_pass(w, prog, tally)
    finally:
        w.close()
    return tally, wall


def frozen_tables(load_program) -> list[str]:
    prog = load_program()
    wl.clear_memos(prog)
    v, mio = prog.verify, prog.matrixio
    wanted = [("A", m, v.reference_bar_matrix(m)) for m in (2, 3, 4)]
    wanted += [("D", m, v.reference_upper_matrix(m)) for m in range(2, 7)]
    problems = []
    for kind, m, frozen in wanted:
        _, rc, text = wl.request(prog, wl.matrix_argv(kind, 2, m))
        if rc != 0 or text != mio.matrix_to_json(frozen):
            problems.append(f"{kind} n=2 m={m} differs from the frozen table")
    return problems


def prediction_names(root) -> list[str]:
    bench = json.loads((root / "BENCHMARK.json").read_text())
    metrics = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]} | {"*"}
    names = {w["name"] for w in bench["workloads"]} | {"*"}
    problems = []
    doc = json.loads((root / "perfbench" / "predictions.json").read_text())
    for module in doc["modules"]:
        entries = module["should_move"] + module["should_not_move"] + module["expect"]
        used = set(module["metrics"]) | {e["metric"] for e in entries}
        problems += [f"predictions.json names unknown metric {m}" for m in used - metrics]
        used = {e["workload"] for e in entries}
        problems += [f"predictions.json names unknown workload {w}" for w in used - names]
    return problems


def main(load_program, ref, root) -> int:
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix="smoke-", dir=out_dir)
    problems = []
    try:
        for name, cls in wl.WORKLOADS.items():
            tally, wall = one_pass(cls, ref, load_program, tmp_root)
            print(f"{name}: {tally.attempted} operations, {tally.failed} failed, {wall:.3f} s")
            problems += [f"{name}: {e}" for e in tally.errors]
            if tally.attempted == 0:
                problems.append(f"{name}: no operations ran")
        problems += frozen_tables(load_program)
        problems += prediction_names(root)
        broken = copy.deepcopy(ref)
        kind, n, m = "D", *wl.SMOKE_TABLE_SIZES[0]
        broken["digests"][wl.matrix_key(kind, n, m)] = "0" * 64
        tally, _ = one_pass(wl.TablesCold, broken, load_program, tmp_root)
        print(f"wrong expected digest: fail_ratio = {tally.failed}/{tally.attempted}")
        if tally.failed == 0:
            problems.append("a wrong expected digest did not make an operation fail")
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0
