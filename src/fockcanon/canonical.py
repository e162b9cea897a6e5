"""Canonical bases and transition matrices.

Per degree m the bar involution is unitriangular on the standard basis in
reverse-lexicographic order, with blocks indexed by n-cores; `blocks` is the
one table of that layout.  Bar-invariance and unitriangularity then fix the
canonical bases one entry at a time: for each basis vector, walk the rest of
its block downward in revlex, and the sum of a[lam, nu] bar(x[nu]) over the
entries nu already solved is a bar-antisymmetric polynomial whose qZ[q] half
is the next entry of the upper basis G, and whose q^-1 Z[q^-1] half is that
of the lower basis G^-.  The same walk over the columns of D, pushing x[nu]
unchanged and taking the negated sum, is forward substitution for C = D^-1.

Matrix kinds and orientations:
  A: bar images,      column mu = bar|mu>
  D: upper basis,     column mu = G(mu)
  E: lower basis,     row lam  = G^-(lam)
  C: inverse of D     (adjoint-basis coefficients)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import neg

from . import fock, wedge
from .fock import FockVector
from .laurent import ONE, ZERO, LaurentPoly, add_product, antisym_split, collect
from .partitions import (
    Partition,
    conjugate,
    is_n_regular,
    n_core_quotient,
    partitions_of,
    revlex_order,
    two_sign,
    yamanouchi_domino_tableaux,
)


class NotApplicableError(ValueError):
    """Steinberg factorization requested for a partition with n-regular conjugate."""


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    kind: str
    n: int
    m: int
    entries: dict[tuple[Partition, Partition], LaurentPoly]

    @property
    def order(self) -> tuple[Partition, ...]:
        return revlex_order(self.m)

    def entry(self, row: Partition, col: Partition) -> LaurentPoly:
        return self.entries.get((tuple(row), tuple(col)), ZERO)

    def column(self, col: Partition) -> FockVector:
        col = tuple(col)
        return FockVector(
            {r: c for (r, cc), c in self.entries.items() if cc == col}
        )

    def row(self, row: Partition) -> FockVector:
        row = tuple(row)
        return FockVector(
            {cc: c for (r, cc), c in self.entries.items() if r == row}
        )

    def bar_entries(self) -> "TransitionMatrix":
        return TransitionMatrix(
            self.kind, self.n, self.m, {k: v.bar() for k, v in self.entries.items()}
        )

    def matmul(self, other: "TransitionMatrix") -> "TransitionMatrix":
        sums: dict[tuple[Partition, Partition], dict] = {}
        by_row: dict[Partition, list] = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        for (r, mid), v in self.entries.items():
            for c, w in by_row.get(mid, ()):
                add_product(sums.setdefault((r, c), {}), v, w)
        return TransitionMatrix("?", self.n, self.m, collect(sums))

    def is_identity(self) -> bool:
        return self.entries == {(p, p): ONE for p in self.order}

    def __eq__(self, other):
        return (
            isinstance(other, TransitionMatrix)
            and (self.kind, self.n, self.m) == (other.kind, other.n, other.m)
            and self.entries == other.entries
        )


@lru_cache(maxsize=None)
def blocks(n: int, m: int) -> dict[Partition, tuple[Partition, ...]]:
    """Partitions of m grouped by n-core, revlex order kept inside blocks."""
    out: dict[Partition, list[Partition]] = {}
    for p in revlex_order(m):
        core, _ = n_core_quotient(p, n)
        out.setdefault(core, []).append(p)
    return {core: tuple(members) for core, members in out.items()}


def a_matrix(n: int, m: int) -> TransitionMatrix:
    """Bar matrix: column mu holds bar|mu> in the standard basis."""
    entries: dict[tuple[Partition, Partition], LaurentPoly] = {}
    for block in blocks(n, m).values():
        block_set = set(block)
        for mu in block:
            for lam, c in fock.bar_basis_vector(mu, n).items():
                if lam not in block_set:
                    raise AssertionError(f"bar|{mu}> leaves its n-core block")
                entries[(lam, mu)] = c
    return TransitionMatrix("A", n, m, entries)


def _block_walk(n: int, m: int, column, push, settle):
    """Solve the unitriangular x column by column inside each n-core block,
    given the columns column(nu) = {lam: a[lam, nu]} of a unitriangular a.
    Returns the entries of x keyed (row, column).

    For the column of mu, acc[lam] sums a[lam, nu] push(x[nu]) over the
    entries x[nu] solved so far, in place as {exponent: int}, and
    x[lam] = settle(acc[lam]) unless that sum is zero.  An entry of a above
    its diagonal or across two blocks leaves a nonzero sum in acc at the end
    of the block, which raises AssertionError.
    """
    entries: dict[tuple[Partition, Partition], LaurentPoly] = {}
    for block in blocks(n, m).values():
        columns = {nu: column(nu) for nu in block}
        for i, mu in enumerate(block):
            acc: dict[Partition, dict[int, int]] = {}
            for lam in block[i:]:
                if lam == mu:
                    x = ONE
                else:
                    total = LaurentPoly.from_terms(acc.pop(lam, {}))
                    if not total:
                        continue
                    x = settle(total)
                entries[(lam, mu)] = x
                px = push(x)
                for nu, a in columns[lam].items():
                    if nu != lam:
                        add_product(acc.setdefault(nu, {}), a, px)
            leftover = collect(acc)
            if leftover:
                raise AssertionError(
                    f"columns of the {n}-core block of {mu} are not "
                    f"unitriangular: {sorted(leftover)} left over"
                )
    return entries


def _canonical_basis(
    n: int, m: int, lower: bool
) -> dict[tuple[Partition, Partition], LaurentPoly]:
    """Entries of D (lower=False) or E (lower=True), keyed (row, column).

    The walk runs over the bar images, where by bar-invariance acc[lam] equals
    x[lam] - bar(x[lam]); x[lam] is its qZ[q] (D) or q^-1 Z[q^-1] (E) half.
    """
    sign = -1 if lower else 1
    entries = _block_walk(
        n, m, lambda nu: wedge.bar_basis(nu, n), LaurentPoly.bar,
        lambda acc: LaurentPoly.from_terms(
            {sign * j: sign * r for j, r in antisym_split(acc).items()}
        ),
    )
    return {(mu, lam): x for (lam, mu), x in entries.items()} if lower else entries


@lru_cache(maxsize=None)
def canonical_upper(n: int, m: int) -> TransitionMatrix:
    """Matrix D: column mu holds G(mu) = |mu> + sum_{lam} d_{lam mu} |lam>."""
    return TransitionMatrix("D", n, m, _canonical_basis(n, m, lower=False))


@lru_cache(maxsize=None)
def canonical_lower(n: int, m: int) -> TransitionMatrix:
    """Matrix E: row lam holds G^-(lam) = sum_mu e_{lam mu} |mu>."""
    return TransitionMatrix("E", n, m, _canonical_basis(n, m, lower=True))


def adjoint_matrix(d: TransitionMatrix) -> TransitionMatrix:
    """Matrix C = D^-1 by forward substitution in each n-core block."""
    if d.kind != "D":
        raise ValueError("adjoint_matrix expects a D matrix")
    columns: dict[Partition, dict[Partition, LaurentPoly]] = {}
    for (lam, nu), a in d.entries.items():
        columns.setdefault(nu, {})[lam] = a
    entries = _block_walk(d.n, d.m, lambda nu: columns.get(nu, {}), lambda x: x, neg)
    return TransitionMatrix("C", d.n, d.m, entries)


def check_duality(e: TransitionMatrix, c: TransitionMatrix) -> bool:
    """Entrywise identity c_{lam,mu}(q) = e_{lam',mu'}(1/q)."""
    if (e.n, e.m) != (c.n, c.m):
        raise ValueError("matrices are not comparable")
    return c.entries == {
        (conjugate(lam), conjugate(mu)): v.bar() for (lam, mu), v in e.entries.items()
    }


def steinberg_decompose(p: Partition, n: int) -> tuple[Partition, Partition]:
    """Write p = mu + n*alpha with mu' n-regular; unique via conjugate parts.

    Each part value of p' keeps its multiplicity mod n in mu'; the quotients
    go to alpha' n-fold.  Raises NotApplicableError when p' is n-regular
    (alpha would be empty).
    """
    pc = conjugate(p)
    if is_n_regular(pc, n):
        raise NotApplicableError(f"conjugate of {p} is {n}-regular")
    mult: dict[int, int] = {}
    for part in pc:
        mult[part] = mult.get(part, 0) + 1
    mu_c: list[int] = []
    alpha_c: list[int] = []
    for value, m in sorted(mult.items(), reverse=True):
        mu_c.extend([value] * (m % n))
        alpha_c.extend([value] * (m // n))
    mu = conjugate(tuple(sorted(mu_c, reverse=True)))
    alpha = conjugate(tuple(sorted(alpha_c, reverse=True)))
    rebuilt = tuple(
        (mu[i] if i < len(mu) else 0) + n * (alpha[i] if i < len(alpha) else 0)
        for i in range(max(len(mu), len(alpha)))
    )
    assert rebuilt == p, (p, mu, alpha)
    return mu, alpha


def steinberg_g_minus(p: Partition, n: int) -> FockVector:
    """G^-(p) = S_alpha(G^-(mu)) for the factorization p = mu + n*alpha."""
    mu, alpha = steinberg_decompose(tuple(p), n)
    gm = canonical_lower(n, sum(mu)).row(mu)
    return fock.s_alpha(alpha, gm, n)


@dataclass
class DominoReport:
    m: int
    checked: int
    mismatches: list

    @property
    def ok(self) -> bool:
        return not self.mismatches


def domino_theorem_check(m: int) -> DominoReport:
    """Compare rows of E (n=2) with signed spin sums over Yamanouchi domino
    tableaux: e_{2 lam, mu} = eps_2(mu) * sum_T q^(-v(T))."""
    if m % 2:
        raise ValueError("m must be even")
    e = canonical_lower(2, m)
    checked = 0
    mismatches = []
    for lam in partitions_of(m // 2):
        row = tuple(2 * x for x in lam)
        for mu in blocks(2, m)[()]:
            total = ZERO
            for tab in yamanouchi_domino_tableaux(mu, lam):
                total = total + LaurentPoly.monomial(1, -tab.vertical)
            expected = total * two_sign(mu)
            actual = e.entry(row, mu)
            checked += 1
            if expected != actual:
                mismatches.append((row, mu, actual, expected))
    return DominoReport(m, checked, mismatches)
