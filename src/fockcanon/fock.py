"""The bosonic picture: Fock vectors and the operator actions on them.

Basis vectors are indexed by partitions.  The Chevalley action is computed
combinatorially on partitions: f_i and e_i are one loop, ``node_sums``,
which the bar images of the wedge layer share for f_i.  The Heisenberg
generators B_k, the ribbon operators V_k and U_k and the bar involution are
linear maps over stored images of basis vectors: bar|p> kept by the wedge
layer (wedge.bar_basis), and B_k|p>, V_k|p> and U_k|p> by lru_cache
functions (wedge.b_basis, ``strip_basis``, each strip walk done once) whose
cache_info() counts their use; all live until wedge.clear_caches.  The
ribbon operators S_alpha come in two independent implementations: the
Jacobi-Trudi determinant in the V_k (s_alpha) and the character expansion
through B_k (s_alpha_via_characters), which doubles as an oracle and reads
no strip; the exponential-formula oracle for V_k = S_(k),
v_op_via_heisenberg, is the character oracle at (k).  Its rational
weights are scaled to integer class sizes, so all arithmetic stays in
Z[q, 1/q].  Chains of operators, the B_k of the oracle, the V_k of psi_q
and the minors of S_alpha (``s_sums``, which the S-step of the wedge layer
calls), run on sparse {exponent: int} sums, which become LaurentPoly values
once, at the end.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from . import symfunc, wedge
from .laurent import ONE, LaurentPoly, add_column, add_product, add_shifted, collect, divide_exact
from .partitions import (
    Partition,
    add_node_variants,
    check_partition,
    node_counts,
    partition_label,
    partitions_of,
    remove_node_variants,
    ribbon_strips_above,
    ribbon_strips_below,
)


class FockVector:
    """Finitely supported map from partitions to coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for p, c in dict(terms).items():
                if c:
                    data[tuple(p)] = c
        object.__setattr__(self, "terms", data)

    def __setattr__(self, name, value):
        raise AttributeError("FockVector is immutable")

    @classmethod
    def basis(cls, p: Partition) -> "FockVector":
        return cls({tuple(p): ONE})

    def items(self):
        return self.terms.items()

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, FockVector) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "FockVector") -> "FockVector":
        sums: dict = {}
        for vec in (self, other):
            for p, c in vec.terms.items():
                add_shifted(sums.setdefault(p, {}), c.terms())
        return FockVector(collect(sums))

    def __neg__(self) -> "FockVector":
        return FockVector({p: -c for p, c in self.terms.items()})

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + (-other)

    def scale(self, c) -> "FockVector":
        if not c:
            return FockVector()
        return FockVector({p: coeff * c for p, coeff in self.terms.items()})

    def __str__(self):
        return self.pretty()

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        # by degree, then in revlex order: parts descending within a degree
        for p in sorted(self.terms, key=lambda p: (-sum(p), p), reverse=True):
            ket = "|" + partition_label(p) + ">"
            c = self.terms[p]
            body, sign = _coeff_str(c)
            pieces.append((sign, body + ket))
        first_sign, first = pieces[0]
        out = ("-" if first_sign < 0 else "") + first
        for sign, body in pieces[1:]:
            out += (" - " if sign < 0 else " + ") + body
        return out

    def to_json(self) -> list:
        return [
            {"partition": list(p), "poly": c.to_json()}
            for p, c in sorted(self.terms.items())
        ]

    @classmethod
    def from_json(cls, doc) -> "FockVector":
        terms = {}
        for entry in doc:
            p = tuple(entry["partition"])
            if p in terms:
                raise ValueError(f"partition {p} appears more than once")
            terms[p] = LaurentPoly.from_json(entry["poly"])
        return cls(terms)

    def __repr__(self):
        return f"FockVector({self.pretty()!r})"


def _coeff_str(c) -> tuple[str, int]:
    """Render a coefficient for ket display; returns (body, sign).  A
    monomial is its LaurentPoly.pretty form less the sign, with a bare 1 left
    out; a longer coefficient is parenthesised, with sign 1."""
    text = c.pretty()
    if len(c.terms()) > 1:
        return f"({text})", 1
    body = text.lstrip("-")
    return ("" if body == "1" else body), (-1 if text[0] == "-" else 1)


# -- Chevalley action ---------------------------------------------------------


def node_sums(variants, sign: int, i: int, v, n: int) -> dict:
    """{partition: {exponent: int}}: the sum over (p, c) in v, a FockVector or
    {partition: LaurentPoly}, and (nu, N) in variants(p, i, n) of
    c q^{sign N} |nu>; each c is added by add_shifted, shifted by sign N."""
    sums: dict = {}
    for p, c in v.items():
        pairs = c.terms()
        for nu, count in variants(p, i, n):
            add_shifted(sums.setdefault(nu, {}), pairs, sign * count)
    return sums


def f_action(i: int, v: FockVector, n: int) -> FockVector:
    """Node-adding generator: f_i |lam> = sum q^{N_i^r} |mu>."""
    return FockVector(collect(node_sums(add_node_variants, 1, i, v, n)))


def e_action(i: int, v: FockVector, n: int) -> FockVector:
    """Node-removing generator: e_i |mu> = sum q^{-N_i^l} |lam>.

    The exponent is the negative of the left count; the positive variant
    fails the quantum Serre commutator with f_i.  A key of v that is not a
    partition raises ValueError (f_i checks its keys in node_row's memo).
    """
    for p in v.terms:
        check_partition(p)
    return FockVector(collect(node_sums(remove_node_variants, -1, i, v, n)))


def weight_exponents(p: Partition, n: int) -> tuple[tuple[int, ...], int]:
    """Diagonal exponents: q^{h_i}|p> = q^{N_i}|p>, q^D|p> = q^{-N0}|p>."""
    counts = node_counts(p, n)
    return counts.diff, counts.zero_nodes


# -- Heisenberg / ribbon operators --------------------------------------------


def _sparse(v: FockVector) -> dict:
    return {p: dict(c.terms()) for p, c in v.items()}


def _b_sums(k: int, terms: dict, n: int) -> dict:
    """{partition: {exponent: int}}: B_k on terms, an {exponent: int} sum per
    partition, as a linear map over the images wedge.b_basis keeps, each added
    by laurent.add_column.  B_k lowers the degree by kn, so a term |p> with
    |p| < kn maps to 0 and is not straightened; its key is still checked, so
    a p that is not a partition raises ValueError here or in b_basis."""
    sums: dict = {}
    for p, c in terms.items():
        if sum(p) >= k * n:
            add_column(sums, wedge.b_basis(k, p, n), c.items())
        else:
            check_partition(p)
    return sums


def b_action(k: int, v: FockVector, n: int) -> FockVector:
    """Heisenberg generator B_k through the wedge picture (_b_sums)."""
    return FockVector(collect(_b_sums(k, _sparse(v), n)))


@lru_cache(maxsize=None)
def strip_basis(k: int, p: Partition, n: int, above: bool) -> tuple:
    """V_k|p> (above) or U_k|p> (below) as (partition, pairs) terms: one
    term (-1)^h q^{-h} per strip of ribbon_strips_above or ribbon_strips_below,
    at its target or source, its pairs those of the shared monomial.  Walked
    once and kept, like the B_k images, until wedge.clear_caches.  A p that
    is not a partition raises ValueError on its miss."""
    check_partition(p)
    strips = ribbon_strips_above(p, n, k) if above else ribbon_strips_below(p, n, k)
    monomial = LaurentPoly.monomial
    return tuple(
        (s.target if above else s.source, monomial((-1) ** s.height, -s.height).terms())
        for s in strips
    )


def _strip_sums(above: bool, k: int, terms: dict, n: int) -> dict:
    """{partition: {exponent: int}}: V_k (above) or U_k (below) on terms, an
    {exponent: int} sum per partition, as a linear map over the images
    strip_basis keeps, each added by laurent.add_column, as in _b_sums."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    sums: dict = {}
    for p, c in terms.items():
        add_column(sums, strip_basis(k, p, n, above), c.items())
    return sums


def v_op(k: int, v: FockVector, n: int) -> FockVector:
    """Ribbon analogue of multiplication by the degree-k complete function:
    V_k |lam> = sum (-1)^h q^{-h} |mu> over horizontal strips of weight k."""
    return FockVector(collect(_strip_sums(True, k, _sparse(v), n)))


def u_op(k: int, v: FockVector, n: int) -> FockVector:
    """Adjoint of v_op: strip removal with the same signed coefficients."""
    return FockVector(collect(_strip_sums(False, k, _sparse(v), n)))


def v_op_via_heisenberg(k: int, v: FockVector, n: int) -> FockVector:
    """Exponential-formula oracle for v_op:
    V_k = sum over partitions rho of k of B_{-rho} / z_rho.

    V_k is S_(k), and chi^(k) is 1 on every cycle type, so this is the
    character oracle s_alpha_via_characters at alpha = (k).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    return s_alpha_via_characters((k,) if k else (), v, n)


def s_alpha(alpha: Partition, v: FockVector, n: int) -> FockVector:
    """Ribbon analogue of multiplication by the Schur function s_alpha: the
    Jacobi-Trudi determinant det(V_{alpha_i - i + j}) applied to v (s_sums).
    alpha must be a partition."""
    return FockVector(collect(s_sums(alpha, _sparse(v), n)))


def s_sums(alpha: Partition, terms: dict, n: int) -> dict:
    """{partition: {exponent: int}}: S_alpha on terms, an {exponent: int} sum
    per partition, which is read and never written to.

    The determinant is expanded along its first column, recursively.  The
    V_k commute, so the minor on a row set R, taken with the last |R|
    columns, is one sparse sum; each is computed once per call and kept by
    R.  Down a column alpha_i - i + j falls, so its first negative entry
    (zero in the determinant) ends the scan.  V_0 is the identity and reads
    no strip image.  The first entry of a column is at least its part of
    alpha, so it applies a V_d, which gives a fresh sum, and the other terms
    are added into that sum: a kept minor is never written to.  Partitions
    whose coefficients cancel are dropped from each minor, so no strip image
    is read for them."""
    ell = len(alpha)
    minors: dict = {(): terms}

    def minor(rows: tuple) -> dict:
        if rows in minors:
            return minors[rows]
        col = ell - len(rows)
        for k, r in enumerate(rows):
            d = alpha[r] - r + col
            if d < 0:
                break
            term = minor(rows[:k] + rows[k + 1:])
            if d:
                term = _strip_sums(True, d, term, n)
            if not k:
                out = term
                continue
            for p, c in term.items():
                add_shifted(out.setdefault(p, {}), c.items(), 0, -1 if k % 2 else 1)
        minors[rows] = out = {p: c for p, c in out.items() if any(c.values())}
        return out

    return minor(tuple(range(ell)))


def s_alpha_via_characters(alpha: Partition, v: FockVector, n: int) -> FockVector:
    """Character-expansion oracle: S_alpha = sum over cycle types beta of
    (chi^alpha_beta / z_beta) B_{-beta}, applying B_{-beta_1} first.

    Evaluated as (1/r!) sum chi^alpha_beta (r!/z_beta) B_{-beta}, r = |alpha|:
    each r!/z_beta is the size of a conjugacy class of S_r, and the division
    by r! is exact or raises NonIntegralResultError.
    """
    d = factorial(sum(alpha))
    start, sums = _sparse(v), {}
    for beta in partitions_of(sum(alpha)):
        weight = symfunc.mn_character(alpha, beta) * (d // symfunc.z_order(beta))
        if not weight:
            continue
        term = start
        for part in beta:
            term = _b_sums(-part, term, n)
        for p, c in term.items():
            add_shifted(sums.setdefault(p, {}), c.items(), 0, weight)
    return FockVector({p: divide_exact(c, d) for p, c in collect(sums).items()})


def psi_q(p: Partition, n: int) -> FockVector:
    """Highest-weight vector V_{p_1} V_{p_2} ... V_{p_r} |0>."""
    terms = {(): {0: 1}}
    for k in reversed(p):
        terms = _strip_sums(True, k, terms, n)
    return FockVector(collect(terms))


def inner_product(u: FockVector, v: FockVector) -> LaurentPoly:
    """Bilinear pairing with orthonormal standard basis (no conjugation)."""
    total: dict[int, int] = {}
    small, large = (u, v) if len(u.terms) <= len(v.terms) else (v, u)
    for p, c in small.items():
        other = large.terms.get(p)
        if other is not None:
            add_product(total, c, other)
    return LaurentPoly.from_terms(total)


# -- bar involution -----------------------------------------------------------


def bar_basis_vector(p: Partition, n: int) -> FockVector:
    return FockVector(wedge.bar_basis(tuple(p), n))


def bar(v: FockVector, n: int) -> FockVector:
    """Semi-linear involution: coefficients q -> 1/q, kets to their bar images."""
    sums: dict = {}
    for p, c in v.items():
        cb = c.bar()
        for lam, a in wedge.bar_basis(tuple(p), n).items():
            add_product(sums.setdefault(lam, {}), a, cb)
    return FockVector(collect(sums))
