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
Each block numbers its rows once, and the sums are a list with one slot per
row, each a sparse {exponent: int} dict: the walk's own product loop adds a
whole column times a solved entry into them, ``laurent.antisym_split`` reads
both halves of a sum in one pass, so that settling a row gives its entry and
the product to push, and a solved entry becomes a LaurentPoly once.

Matrix kinds and orientations:
  A: bar images,      column mu = bar|mu>
  D: upper basis,     column mu = G(mu)
  E: lower basis,     row lam  = G^-(lam)
  C: inverse of D     (adjoint-basis coefficients)

C is solved once per D and kept on it, and E is always read off C by the
duality e_{lam,mu}(q) = c_{lam',mu'}(1/q), so D, E and C together walk D
and C only.  E's own walk over the bar images (``lower_by_walk``) is kept
as the independent oracle that the duality check and the tests compare
with.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

from . import fock, wedge
from .fock import FockVector
from .laurent import ONE, ZERO, LaurentPoly, add_product, antisym_split, collect
from .partitions import (  # NotApplicableError: re-exported with steinberg_decompose
    NotApplicableError,
    Partition,
    conjugate,
    n_core_quotient,
    partitions_of,
    revlex_order,
    steinberg_decompose,
    two_sign,
    yamanouchi_domino_tableaux,
)


@dataclass(frozen=True)
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
    images = wedge.bar_degree(m, n)
    entries: dict[tuple[Partition, Partition], LaurentPoly] = {}
    for block in blocks(n, m).values():
        block_set = set(block)
        for mu in block:
            for lam, c in images[mu].items():
                if lam not in block_set:
                    raise AssertionError(f"bar|{mu}> leaves its n-core block")
                entries[(lam, mu)] = c
    return TransitionMatrix("A", n, m, entries)


def _block_walk(n: int, m: int, column, settle):
    """Solve the unitriangular x column by column inside each n-core block,
    given the columns column(nu) = {lam: a[lam, nu]} of a unitriangular a.
    Returns the entries of x keyed (row, column).

    Each block numbers its partitions once, in revlex, and flattens its
    columns into below[k], the (row, pairs) of column k without the
    diagonal; an entry outside the block or above the diagonal raises
    AssertionError here, before any row of the block is settled, so every
    push goes to a row not yet settled.  For column i, sums[r] adds up
    a[r, k] pushed[k] over the rows k solved so far, as None or an
    {exponent: int} dict: the diagonal pushes ONE, and settle(sums[k])
    returns (x, pushed) as pairs, x the entry of row k and pushed what row k
    adds down below[k] (a one-term pushed as a shifted, scaled copy).  A row
    whose sum is untouched or settles to no pairs gets no entry.
    """
    entries: dict[tuple[Partition, Partition], LaurentPoly] = {}
    for block in blocks(n, m).values():
        rows = {p: k for k, p in enumerate(block)}
        below = []
        for j, nu in enumerate(block):
            pairs = []
            for lam, a in column(nu).items():
                if lam != nu:
                    k = rows.get(lam)
                    if k is None or k < j:
                        where = f"outside its {n}-core block" if k is None else "above its diagonal"
                        raise AssertionError(f"column {nu} has an entry at {lam}, {where}")
                    pairs.append((k, a.terms()))
            below.append(pairs)
        size = len(block)
        for i, mu in enumerate(block):
            entries[(mu, mu)] = ONE
            sums: list = [None] * size
            for r, a in below[i]:
                sums[r] = dict(a)
            for k in range(i + 1, size):
                acc = sums[k]
                if acc is None:
                    continue
                x, pushed = settle(acc)
                if not x:
                    continue
                entries[(block[k], mu)] = LaurentPoly(x)
                if len(pushed) == 1:
                    ((j, y),) = pushed
                    for r, a in below[k]:
                        acc = sums[r]
                        if acc is None:
                            sums[r] = {e + j: c * y for e, c in a}
                        else:
                            for e, c in a:
                                e += j
                                acc[e] = acc.get(e, 0) + c * y
                else:
                    for r, a in below[k]:
                        acc = sums[r]
                        if acc is None:
                            acc = sums[r] = {}
                        for e, c in a:
                            for j, y in pushed:
                                acc[e + j] = acc.get(e + j, 0) + c * y
    return entries


def _canonical_basis(
    n: int, m: int, lower: bool
) -> dict[tuple[Partition, Partition], LaurentPoly]:
    """Entries of D (lower=False) or E (lower=True), keyed (row, column).

    The walk runs over the bar images, where by bar-invariance sums[lam]
    equals x[lam] - bar(x[lam]); ``antisym_split`` reads x[lam], its qZ[q]
    (D) or q^-1 Z[q^-1] (E) half, and bar(x[lam]), which is pushed, off the
    sum in one pass.
    """
    entries = _block_walk(
        n, m, wedge.bar_degree(m, n).__getitem__, partial(antisym_split, lower=lower)
    )
    return {(mu, lam): x for (lam, mu), x in entries.items()} if lower else entries


@lru_cache(maxsize=None)
def canonical_upper(n: int, m: int) -> TransitionMatrix:
    """Matrix D: column mu holds G(mu) = |mu> + sum_{lam} d_{lam mu} |lam>."""
    return TransitionMatrix("D", n, m, _canonical_basis(n, m, lower=False))


@lru_cache(maxsize=None)
def canonical_lower(n: int, m: int) -> TransitionMatrix:
    """Matrix E: row lam holds G^-(lam) = sum_mu e_{lam mu} |mu>, read off
    C = D^-1 conjugated and barred (the duality), with C solved once per D."""
    return TransitionMatrix("E", n, m, _conjugate_bar(adjoint_matrix(canonical_upper(n, m))))


def lower_by_walk(n: int, m: int) -> TransitionMatrix:
    """Matrix E by its own walk over the bar images: not the route of
    canonical_lower but the independent oracle that the duality check and
    the tests compare with C."""
    return TransitionMatrix("E", n, m, _canonical_basis(n, m, lower=True))


def adjoint_matrix(d: TransitionMatrix) -> TransitionMatrix:
    """Matrix C = D^-1 by forward substitution in each n-core block, solved
    once per D object and kept on it, so that C lives as long as its D."""
    if d.kind != "D":
        raise ValueError("adjoint_matrix expects a D matrix")
    c = vars(d).get("_adjoint")
    if c is not None:
        return c
    columns: dict[Partition, dict[Partition, LaurentPoly]] = {}
    for (lam, nu), a in d.entries.items():
        columns.setdefault(nu, {})[lam] = a

    def settle(acc):  # x[lam] is its negated sum, and is pushed unchanged
        x = tuple(sorted([(e, -c) for e, c in acc.items() if c]))
        return x, x

    entries = _block_walk(d.n, d.m, lambda nu: columns.get(nu, {}), settle)
    c = vars(d)["_adjoint"] = TransitionMatrix("C", d.n, d.m, entries)
    return c


def check_duality(e: TransitionMatrix, c: TransitionMatrix) -> bool:
    """Entrywise identity c_{lam,mu}(q) = e_{lam',mu'}(1/q)."""
    if (e.n, e.m) != (c.n, c.m):
        raise ValueError("matrices are not comparable")
    return c.entries == _conjugate_bar(e)


def _conjugate_bar(mat: TransitionMatrix) -> dict[tuple[Partition, Partition], LaurentPoly]:
    """The entries (lam', mu'): v(1/q) for the entries (lam, mu): v of mat,
    which takes C to E and E to C."""
    conj = {p: conjugate(p) for p in mat.order}
    return {(conj[lam], conj[mu]): v.bar() for (lam, mu), v in mat.entries.items()}


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
