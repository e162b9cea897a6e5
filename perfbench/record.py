"""Write ``reference.json``: output digests, verify check counts and n-cores.

Every matrix is checked against invariants that do not come from the matrix
alone before its digest is recorded:

  A:  bar(A) * A = I, unit diagonal
  D:  unit diagonal, off-diagonal entries in qZ[q]
  E:  unit diagonal, off-diagonal entries in q^-1 Z[q^-1]
  C:  D * C = I, c[lam,mu](q) = e[lam',mu'](1/q) (canonical.check_duality),
      unit diagonal
  all: no entry joins two different n-core blocks

The rendered csv, latex and pretty outputs that ``cache-read`` requests are
recorded as produced from the checked matrices.  Every verify suite of the
plans must pass.
"""

from __future__ import annotations

import json
import shutil
import tempfile

import workloads as wl


class InvariantError(AssertionError):
    pass


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise InvariantError(what)


def check_invariants(prog, n: int, m: int, mats: dict) -> None:
    a, d, e, c = (mats[k] for k in wl.KINDS)
    one = prog.canonical.ONE
    core = {p: prog.partitions.n_core_quotient(p, n)[0] for p in a.order}
    for kind, mat in mats.items():
        tag = f"{kind} n={n} m={m}"
        _require(all(mat.entries.get((p, p)) == one for p in mat.order), f"{tag}: unit diagonal")
        _require(all(core[r] == core[s] for r, s in mat.entries), f"{tag}: n-core blocks")
    _require(a.bar_entries().matmul(a).is_identity(), f"A n={n} m={m}: bar(A) A = I")
    _require(
        all(v.in_positive_ring() for (r, s), v in d.entries.items() if r != s),
        f"D n={n} m={m}: off-diagonal in qZ[q]",
    )
    _require(
        all(v.in_negative_ring() for (r, s), v in e.entries.items() if r != s),
        f"E n={n} m={m}: off-diagonal in q^-1 Z[q^-1]",
    )
    _require(d.matmul(c).is_identity(), f"n={n} m={m}: D C = I")
    _require(prog.canonical.check_duality(e, c), f"n={n} m={m}: duality of E and C")


def main(load_program, path) -> int:
    prog = load_program()
    digests: dict[str, str] = {}
    cores: dict[str, list] = {}
    checks: dict[str, int] = {}
    tmp = tempfile.mkdtemp(prefix="record-", dir=path.parent.parent)
    try:
        all_sizes = sorted(set(wl.TABLE_SIZES + wl.SOLVE_SIZES + wl.SMOKE_TABLE_SIZES))
        for n, m in all_sizes:
            wl.clear_memos(prog)
            mats, texts = {}, {}
            for kind in wl.KINDS:
                _, rc, text = wl.request(prog, wl.matrix_argv(kind, n, m, cache_dir=tmp))
                _require(rc == 0, f"{kind} n={n} m={m}: exit code {rc}")
                mats[kind] = prog.matrixio.matrix_from_json(text)
                texts[kind] = text
            check_invariants(prog, n, m, mats)
            for kind, text in texts.items():
                _require(text == prog.matrixio.matrix_to_json(mats[kind]), f"{kind}: JSON round trip")
                digests[wl.matrix_key(kind, n, m)] = wl.digest(text)
            cores[f"n{n}/m{m}"] = sorted(list(k) for k in prog.canonical.blocks(n, m))
            print(f"recorded n={n} m={m}", flush=True)
        for n, m in sorted(set(wl.TABLE_SIZES + wl.SMOKE_TABLE_SIZES)):
            for kind in wl.KINDS:
                for fmt in wl.FORMATS:
                    for block in [None] + [wl.block_arg(c) for c in cores[f"n{n}/m{m}"]]:
                        argv = wl.matrix_argv(kind, n, m, fmt, cache_dir=tmp, block=block)
                        _, rc, text = wl.request(prog, argv)
                        _require(rc == 0, f"{argv}: exit code {rc}")
                        digests[wl.matrix_key(kind, n, m, fmt, block)] = wl.digest(text)
        for suite, n, max_m in sorted(set(wl.VERIFY_PLAN + wl.SMOKE_VERIFY_PLAN)):
            wl.clear_memos(prog)
            report = prog.verify.run_suite(suite, n=n, max_m=max_m)
            _require(report.ok, report.render())
            key = wl.suite_key(suite, n, max_m)
            digests[key] = wl.digest(report.render())
            checks[key] = len(report.checks)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    doc = {"digests": digests, "verify_checks": checks, "cores": cores}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {path}")
    return 0
