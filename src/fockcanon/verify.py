"""Verification suites: each check runs a mathematical identity at desk scale
and reports pass/fail counts.  The tables suite pins the known n=2 bar and
upper-basis matrices for small degrees, frozen below entry by entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import canonical, fock
from .canonical import (
    adjoint_matrix,
    a_matrix,
    blocks,
    canonical_lower,
    canonical_upper,
    check_duality,
    domino_theorem_check,
    steinberg_g_minus,
)
from .fock import FockVector
from .laurent import ONE, LaurentPoly, q_int
from .partitions import (
    conjugate,
    diagram,
    dominance_leq,
    is_n_regular,
    partitions_of,
    revlex_order,
    ribbon_strips_above,
    two_sign,
)


@dataclass
class Report:
    suite: str
    checks: list = field(default_factory=list)

    def add(self, label: str, ok: bool, detail: str = "") -> None:
        self.checks.append((label, bool(ok), detail))

    @property
    def ok(self) -> bool:
        """True iff the suite ran a check and every check passed."""
        return bool(self.checks) and all(ok for _, ok, _ in self.checks)

    def render(self) -> str:
        lines = []
        for label, ok, detail in self.checks:
            mark = "PASS" if ok else "FAIL"
            suffix = f"  ({detail})" if detail else ""
            lines.append(f"[{mark}] {self.suite}: {label}{suffix}")
        overall = "PASS" if self.ok else "FAIL"
        lines.append(f"[{overall}] {self.suite}: suite total "
                     f"({sum(ok for _, ok, _ in self.checks)}/{len(self.checks)} checks)")
        return "\n".join(lines)


# Known n=2 matrices for small degrees, entry by entry (rows/cols in revlex
# order; only nonzero off-diagonal entries listed, diagonals are all 1).
_BAR_OFFDIAG_N2 = {
    2: {((1, 1), (2,)): {1: 1, -1: -1}},
    3: {((1, 1, 1), (3,)): {1: 1, -1: -1}},
    4: {
        ((3, 1), (4,)): {1: 1, -1: -1},
        ((2, 2), (4,)): {0: -1, -2: 1},
        ((1, 1, 1, 1), (4,)): {2: 1, 0: -1},
        ((2, 2), (3, 1)): {1: 1, -1: -1},
        ((2, 1, 1), (3, 1)): {2: 1, 0: -1},
        ((2, 1, 1), (2, 2)): {1: 1, -1: -1},
        ((1, 1, 1, 1), (2, 2)): {0: -1, -2: 1},
        ((1, 1, 1, 1), (2, 1, 1)): {1: 1, -1: -1},
    },
}

_UPPER_OFFDIAG_N2 = {
    2: {((1, 1), (2,)): {1: 1}},
    3: {((1, 1, 1), (3,)): {1: 1}},
    4: {
        ((3, 1), (4,)): {1: 1},
        ((2, 1, 1), (4,)): {1: 1},
        ((1, 1, 1, 1), (4,)): {2: 1},
        ((2, 2), (3, 1)): {1: 1},
        ((2, 1, 1), (3, 1)): {2: 1},
        ((2, 1, 1), (2, 2)): {1: 1},
        ((1, 1, 1, 1), (2, 1, 1)): {1: 1},
    },
    5: {
        ((3, 1, 1), (5,)): {1: 1},
        ((1, 1, 1, 1, 1), (5,)): {2: 1},
        ((2, 1, 1, 1), (4, 1)): {1: 1},
        ((3, 1, 1), (3, 2)): {1: 1},
        ((2, 2, 1), (3, 2)): {2: 1},
        ((2, 2, 1), (3, 1, 1)): {1: 1},
        ((1, 1, 1, 1, 1), (3, 1, 1)): {1: 1},
    },
    6: {
        ((5, 1), (6,)): {1: 1},
        ((4, 1, 1), (6,)): {1: 1},
        ((3, 1, 1, 1), (6,)): {2: 1},
        ((2, 1, 1, 1, 1), (6,)): {2: 1},
        ((1, 1, 1, 1, 1, 1), (6,)): {3: 1},
        ((4, 2), (5, 1)): {1: 1},
        ((4, 1, 1), (5, 1)): {2: 1},
        ((3, 1, 1, 1), (5, 1)): {1: 1},
        ((2, 2, 1, 1), (5, 1)): {2: 1},
        ((2, 1, 1, 1, 1), (5, 1)): {3: 1},
        ((4, 1, 1), (4, 2)): {1: 1},
        ((3, 1, 1, 1), (4, 2)): {2: 1},
        ((2, 2, 2), (4, 2)): {2: 1},
        ((2, 2, 1, 1), (4, 2)): {3: 1},
        ((3, 3), (4, 2)): {1: 1},
        ((3, 1, 1, 1), (4, 1, 1)): {1: 1},
        ((2, 2, 2), (4, 1, 1)): {1: 1},
        ((2, 2, 1, 1), (4, 1, 1)): {2: 1},
        ((2, 1, 1, 1, 1), (4, 1, 1)): {1: 1},
        ((1, 1, 1, 1, 1, 1), (4, 1, 1)): {2: 1},
        ((3, 1, 1, 1), (3, 3)): {1: 1},
        ((2, 2, 2), (3, 3)): {1: 1},
        ((2, 2, 1, 1), (3, 3)): {2: 1},
        ((2, 2, 1, 1), (3, 1, 1, 1)): {1: 1},
        ((2, 1, 1, 1, 1), (3, 1, 1, 1)): {2: 1},
        ((2, 2, 1, 1), (2, 2, 2)): {1: 1},
        ((2, 1, 1, 1, 1), (2, 2, 1, 1)): {1: 1},
        ((1, 1, 1, 1, 1, 1), (2, 1, 1, 1, 1)): {1: 1},
    },
}


def reference_bar_matrix(m: int) -> canonical.TransitionMatrix:
    """Frozen bar matrix for n=2, m in {2,3,4}."""
    entries = {(p, p): ONE for p in revlex_order(m)}
    for key, terms in _BAR_OFFDIAG_N2[m].items():
        entries[key] = LaurentPoly.from_terms(terms)
    return canonical.TransitionMatrix("A", 2, m, entries)


def reference_upper_matrix(m: int) -> canonical.TransitionMatrix:
    """Frozen upper-basis matrix for n=2, m in {2,...,6}."""
    entries = {(p, p): ONE for p in revlex_order(m)}
    for key, terms in _UPPER_OFFDIAG_N2[m].items():
        entries[key] = LaurentPoly.from_terms(terms)
    return canonical.TransitionMatrix("D", 2, m, entries)


# -- suites ---------------------------------------------------------------------


def run_tables(n: int = 2, max_m: int = 6) -> Report:
    if n != 2:
        raise ValueError(f"suite tables: reference tables exist only for n=2, not n={n}")
    rep = Report("tables")
    for m in (2, 3, 4):
        if m > max_m:
            continue
        rep.add(f"bar matrix m={m}", a_matrix(2, m) == reference_bar_matrix(m))
    for m in range(2, max_m + 1):
        if m > 6:
            break
        rep.add(f"upper matrix m={m}", canonical_upper(2, m) == reference_upper_matrix(m))
    return rep


def run_involution(n: int, max_m: int) -> Report:
    """bar^2 = id, bar(A)A = I, conjugation symmetry, and bar commuting with
    f_i and B_-k.

    wedge.bar_basis builds most bar images from bar(f_i v) = f_i bar(v), so
    the f_i commutation holds partly by construction here; the independent
    check is tests/test_wedge.py::test_bar_recursion_matches_straightening,
    which compares those images with word reversal and straightening.
    """
    rep = Report("involution")
    for m in range(max_m + 1):
        ok = True
        for lam in partitions_of(m):
            v = fock.bar(fock.bar_basis_vector(lam, n), n)
            if v != FockVector.basis(lam):
                ok = False
        rep.add(f"bar^2 = id, m={m}", ok)
        a = a_matrix(n, m)
        rep.add(f"Abar*A = I, m={m}", a.bar_entries().matmul(a).is_identity())
        sym = a.entries == {
            (conjugate(mu), conjugate(lam)): v for (lam, mu), v in a.entries.items()
        }
        rep.add(f"conjugation symmetry of bar matrix, m={m}", sym)
    # bar commutes with the lowering operators
    for m in range(min(max_m, 6) + 1):
        ok = True
        for lam in partitions_of(m):
            v = FockVector.basis(lam)
            bv = fock.bar_basis_vector(lam, n)
            for i in range(n):
                if fock.bar(fock.f_action(i, v, n), n) != fock.f_action(i, bv, n):
                    ok = False
            for k in (1, 2):
                if fock.bar(fock.b_action(-k, v, n), n) != fock.b_action(-k, bv, n):
                    ok = False
        rep.add(f"bar commutes with f_i and B_-k, m={m}", ok)
    return rep


def run_uqsl(n: int, max_m: int) -> Report:
    rep = Report("uqsl")
    for m in range(max_m + 1):
        ok = True
        for lam in partitions_of(m):
            v = FockVector.basis(lam)
            diffs, _ = fock.weight_exponents(lam, n)
            for i in range(n):
                for j in range(n):
                    lhs = fock.e_action(i, fock.f_action(j, v, n), n) - fock.f_action(
                        j, fock.e_action(i, v, n), n
                    )
                    want = v.scale(q_int(diffs[i])) if i == j else FockVector()
                    if lhs != want:
                        ok = False
        rep.add(f"[e_i, f_j] commutator, m={m}", ok)
    # classical limit: at q=1 the node-adding rule is multiplicity free
    ok = True
    for m in range(min(max_m, 6) + 1):
        for lam in partitions_of(m):
            for i in range(n):
                fv = fock.f_action(i, FockVector.basis(lam), n)
                if any(c.eval_one() != 1 for _, c in fv.items()):
                    ok = False
    rep.add("classical limit of f_i is multiplicity free", ok)
    # highest-weight vectors are annihilated by every e_i
    ok = True
    for r in range(min(3, max_m) + 1):
        for lam in partitions_of(r):
            hw = fock.psi_q(lam, n)
            for i in range(n):
                if fock.e_action(i, hw, n):
                    ok = False
    rep.add("highest-weight vectors killed by e_i", ok)
    return rep


def run_heisenberg(n: int, max_m: int) -> Report:
    rep = Report("heisenberg")
    for k in (1, 2):
        scalar = LaurentPoly.from_terms({-2 * k * j: k for j in range(n)})
        ok = True
        for m in range(min(max_m, 4) + 1):
            for lam in partitions_of(m):
                v = FockVector.basis(lam)
                lhs = fock.b_action(k, fock.b_action(-k, v, n), n) - fock.b_action(
                    -k, fock.b_action(k, v, n), n
                )
                if lhs != v.scale(scalar):
                    ok = False
        rep.add(f"[B_k, B_-k] = k(1-q^-2nk)/(1-q^-2k), k={k}", ok)
    ok = True
    for k in (1, 2):
        for d in range(min(max_m, 6) + 1):
            for lam in partitions_of(d):
                u = FockVector.basis(lam)
                bu = fock.b_action(k, u, n)
                for mu in partitions_of(d - k * n) if d >= k * n else ():
                    w = FockVector.basis(mu)
                    lhs = fock.inner_product(bu, w)
                    rhs = fock.inner_product(u, fock.b_action(-k, w, n))
                    if lhs != rhs:
                        ok = False
    rep.add("<B_k u, v> = <u, B_-k v>", ok)
    return rep


def run_ribbon(n: int, max_m: int) -> Report:
    rep = Report("ribbon")
    for k in (1, 2, 3):
        ok = True
        for m in range(min(max_m, 6) + 1):
            for lam in partitions_of(m):
                v = FockVector.basis(lam)
                if fock.v_op(k, v, n) != fock.v_op_via_heisenberg(k, v, n):
                    ok = False
        rep.add(f"strip sum equals exponential formula, k={k}", ok)
    ok = True
    bounds_ok = True
    for m in range(min(max_m, 6) + 1):
        for lam in partitions_of(m):
            for k in (1, 2):
                for strip in ribbon_strips_above(lam, n, k):
                    if not (0 <= strip.height <= k * (n - 1)):
                        bounds_ok = False
            # single ribbons from the diagram, independent of the abacus
            got = {
                (s.target, s.height) for s in ribbon_strips_above(lam, n, 1)
            }
            want = set()
            for mu in partitions_of(m + n):
                cells = diagram(mu) - diagram(lam)
                if len(cells) != n or not _connected(cells) or _has_square(cells):
                    continue
                if not diagram(lam) <= diagram(mu):
                    continue
                want.add((mu, len({r for r, _ in cells}) - 1))
            if got != want:
                ok = False
    rep.add("single ribbons match diagram enumeration", ok)
    rep.add("0 <= h <= k(n-1)", bounds_ok)
    if n == 2:
        ok = True
        for m in range(min(max_m, 6) + 1):
            for lam in blocks(2, m).get((), ()):
                for strip in ribbon_strips_above(lam, 2, 2):
                    sign = two_sign(strip.target) * two_sign(lam)
                    if sign != (-1) ** strip.height:
                        ok = False
        rep.add("(-1)^h is the 2-sign ratio", ok)
    return rep


def _connected(cells) -> bool:
    cells = set(cells)
    if not cells:
        return False
    stack = [next(iter(cells))]
    seen = set()
    while stack:
        r, c = stack.pop()
        if (r, c) in seen:
            continue
        seen.add((r, c))
        for nb in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
            if nb in cells and nb not in seen:
                stack.append(nb)
    return seen == cells


def _has_square(cells) -> bool:
    return any(
        (r + 1, c) in cells and (r, c + 1) in cells and (r + 1, c + 1) in cells
        for r, c in cells
    )


def run_adjoint(n: int, max_m: int) -> Report:
    rep = Report("adjoint")
    ok = True
    for k in (1, 2):
        for d in range(min(max_m, 8) + 1):
            if d < k * n:
                continue
            for mu in partitions_of(d):
                x = FockVector.basis(mu)
                ux = fock.u_op(k, x, n)
                for lam in partitions_of(d - k * n):
                    y = FockVector.basis(lam)
                    if fock.inner_product(ux, y) != fock.inner_product(
                        x, fock.v_op(k, y, n)
                    ):
                        ok = False
    rep.add("<U_k x, y> = <x, V_k y>", ok)
    ok = True
    for j in (1, 2, 3):
        for k in (1, 2, 3):
            vac = FockVector.basis(())
            if fock.v_op(j, fock.v_op(k, vac, n), n) != fock.v_op(
                k, fock.v_op(j, vac, n), n
            ):
                ok = False
    rep.add("V_j V_k = V_k V_j on the vacuum", ok)
    return rep


def run_duality(n: int, max_m: int) -> Report:
    rep = Report("duality")
    for m in range(max_m + 1):
        d = canonical_upper(n, m)
        e = canonical_lower(n, m)
        c = adjoint_matrix(d)
        rep.add(f"D*C = I, m={m}", d.matmul(c).is_identity())
        rep.add(f"c = e-conjugate-bar, m={m}", check_duality(e, c))
        core = {p: b for b, members in blocks(n, m).items() for p in members}
        ring_ok = True
        tri_ok = True
        block_ok = True
        for (lam, mu), poly in d.entries.items():
            if lam != mu and not poly.in_positive_ring():
                ring_ok = False
            if not dominance_leq(lam, mu):
                tri_ok = False
            if core[lam] != core[mu]:
                block_ok = False
        for (lam, mu), poly in e.entries.items():
            if lam != mu and not poly.in_negative_ring():
                ring_ok = False
            if not dominance_leq(mu, lam):
                tri_ok = False
            if core[lam] != core[mu]:
                block_ok = False
        rep.add(f"rings: off-diag D in qZ[q], E in q^-1 Z[q^-1], m={m}", ring_ok)
        rep.add(f"triangularity, m={m}", tri_ok)
        rep.add(f"n-core block structure, m={m}", block_ok)
        bar_ok = all(
            fock.bar(d.column(mu), n) == d.column(mu)
            and fock.bar(e.row(mu), n) == e.row(mu)
            for mu in revlex_order(m)
        )
        rep.add(f"bar invariance of both bases, m={m}", bar_ok)
    return rep


def run_steinberg(n: int, max_m: int) -> Report:
    rep = Report("steinberg")
    for m in range(max_m + 1):
        e = canonical_lower(n, m)
        ok = True
        applicable = 0
        for lam in partitions_of(m):
            if is_n_regular(conjugate(lam), n):
                continue
            applicable += 1
            if steinberg_g_minus(lam, n) != e.row(lam):
                ok = False
        rep.add(f"factorization matches rows, m={m}", ok, f"{applicable} cases")
    return rep


def run_domino(n: int, max_m: int) -> Report:
    if n != 2:
        raise ValueError(f"suite domino: the domino theorem is for n=2 only, not n={n}")
    rep = Report("domino")
    for m in range(2, max_m + 1, 2):
        r = domino_theorem_check(m)
        rep.add(f"spin sums match rows, m={m}", r.ok, f"{r.checked} pairs")
    return rep


SUITES = {
    "tables": run_tables,
    "involution": run_involution,
    "uqsl": run_uqsl,
    "heisenberg": run_heisenberg,
    "ribbon": run_ribbon,
    "adjoint": run_adjoint,
    "steinberg": run_steinberg,
    "domino": run_domino,
    "duality": run_duality,
}


def run_suite(name: str, n: int, max_m: int) -> Report:
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}") from None
    return fn(n=n, max_m=max_m)
