"""The bosonic picture: Fock vectors and the operator actions on them.

Basis vectors are indexed by partitions.  The Chevalley action is computed
combinatorially on partitions; the Heisenberg generators and the bar
involution are delegated to the wedge layer.  The ribbon operators come in
two independent implementations: the combinatorial strip sum (v_op / u_op)
and the exponential formula through wedge straightening (v_op_via_heisenberg),
which doubles as an oracle.  Its rational weights 1/z_rho are scaled by k! to
integer class sizes, so all arithmetic stays in Z[q, 1/q].
"""

from __future__ import annotations

from math import factorial

from . import symfunc, wedge
from .laurent import ONE, LaurentPoly, add_product, collect, divide_exact
from .partitions import (
    Partition,
    add_node_variants,
    node_counts,
    partition_label,
    partitions_of,
    remove_node_variants,
    revlex_index,
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
                add_product(sums.setdefault(p, {}), c, ONE)
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
        def order(p):
            return (sum(p), revlex_index(sum(p))[p])
        pieces = []
        for p in sorted(self.terms, key=order):
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
    """Render a coefficient for ket display; returns (body, sign)."""
    terms = list(c.terms())
    if len(terms) == 1:
        e, a = terms[0]
        sign = -1 if a < 0 else 1
        a = abs(a)
        if e == 0:
            return ("" if a == 1 else str(a)), sign
        mono = "q" if e == 1 else f"q^{e}"
        return (mono if a == 1 else f"{a}{mono}"), sign
    return f"({c.pretty()})", 1


# -- Chevalley action ---------------------------------------------------------


def _node_action(variants, sign: int, i: int, v: FockVector, n: int) -> FockVector:
    """sum over (p, c) in v and (nu, N) in variants(p, i, n) of c q^{sign N} |nu>."""
    sums: dict = {}
    for p, c in v.items():
        for nu, count in variants(p, i, n):
            shift = LaurentPoly.monomial(1, sign * count)
            add_product(sums.setdefault(nu, {}), c, shift)
    return FockVector(collect(sums))


def f_action(i: int, v: FockVector, n: int) -> FockVector:
    """Node-adding generator: f_i |lam> = sum q^{N_i^r} |mu>."""
    return _node_action(add_node_variants, 1, i, v, n)


def e_action(i: int, v: FockVector, n: int) -> FockVector:
    """Node-removing generator: e_i |mu> = sum q^{-N_i^l} |lam>.

    The exponent is the negative of the left count; the positive variant
    fails the quantum Serre commutator with f_i.
    """
    return _node_action(remove_node_variants, -1, i, v, n)


def weight_exponents(p: Partition, n: int) -> tuple[tuple[int, ...], int]:
    """Diagonal exponents: q^{h_i}|p> = q^{N_i}|p>, q^D|p> = q^{-N0}|p>."""
    counts = node_counts(p, n)
    return counts.diff, counts.zero_nodes


# -- Heisenberg / ribbon operators --------------------------------------------


def b_action(k: int, v: FockVector, n: int) -> FockVector:
    """Heisenberg generator B_k through the wedge picture.  B_k lowers the
    degree by kn, so a term |p> with |p| < kn maps to 0 and is not straightened."""
    wv = {}
    for p, c in v.items():
        if sum(p) >= k * n:
            wv[wedge.minimal_head(wedge.partition_to_word(p, len(p)))] = c
    out = wedge.b_action_words(k, wv, n)
    return FockVector({wedge.word_to_partition(w): c for w, c in out.items()})


def _strip_action(strips, above: bool, k: int, v: FockVector, n: int) -> FockVector:
    """sum over (p, c) in v and the strips of strips(p, n, k) of
    c (-1)^h q^{-h} at the strip's target (above) or source (below)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    sums: dict = {}
    for p, c in v.items():
        for strip in strips(p, n, k):
            key = strip.target if above else strip.source
            sign = LaurentPoly.monomial(-1 if strip.height % 2 else 1, -strip.height)
            add_product(sums.setdefault(key, {}), c, sign)
    return FockVector(collect(sums))


def v_op(k: int, v: FockVector, n: int) -> FockVector:
    """Ribbon analogue of multiplication by the degree-k complete function:
    V_k |lam> = sum (-1)^h q^{-h} |mu> over horizontal strips of weight k."""
    return _strip_action(ribbon_strips_above, True, k, v, n)


def u_op(k: int, v: FockVector, n: int) -> FockVector:
    """Adjoint of v_op: strip removal with the same signed coefficients."""
    return _strip_action(ribbon_strips_below, False, k, v, n)


def _chain_sum(chains, op, v: FockVector, n: int) -> FockVector:
    """sum over (parts, weight) in chains of weight * op(parts[-1], ...
    op(parts[0], v)); chains of weight 0 are not applied."""
    sums: dict = {}
    for parts, weight in chains:
        if not weight:
            continue
        term = v
        for part in parts:
            term = op(part, term, n)
        scale = LaurentPoly.monomial(weight)
        for p, c in term.items():
            add_product(sums.setdefault(p, {}), c, scale)
    return FockVector(collect(sums))


def _power_sum_expansion(r: int, weight, v: FockVector, n: int) -> FockVector:
    """(1/r!) * sum over partitions beta of r of weight(beta) * B_{-beta} v,
    applying B_{-beta_1} first.

    weight(beta) is r! times the rational coefficient of B_{-beta}, an
    integer, so the sum stays in Z[q, 1/q]; the final division by r! is exact
    or raises NonIntegralResultError.
    """
    chains = (
        (tuple(-part for part in beta), weight(beta)) for beta in partitions_of(r)
    )
    out = _chain_sum(chains, b_action, v, n)
    d = factorial(r)
    return FockVector({p: divide_exact(c, d) for p, c in out.items()})


def v_op_via_heisenberg(k: int, v: FockVector, n: int) -> FockVector:
    """Exponential-formula oracle for v_op:
    V_k = sum over partitions rho of k of B_{-rho} / z_rho.

    Evaluated as (1/k!) sum (k!/z_rho) B_{-rho}: each k!/z_rho is the size of
    a conjugacy class of S_k, and the division by k! must be exact.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _power_sum_expansion(
        k, lambda rho: factorial(k) // symfunc.z_order(rho), v, n
    )


def s_alpha(alpha: Partition, v: FockVector, n: int) -> FockVector:
    """Ribbon analogue of multiplication by the Schur function s_alpha,
    via the inverse Kostka expansion s_alpha = sum kappa_mu h_mu."""
    chains = (
        (reversed(mu), kappa) for mu, kappa in symfunc.schur_to_h(tuple(alpha)).items()
    )
    return _chain_sum(chains, v_op, v, n)


def s_alpha_via_characters(alpha: Partition, v: FockVector, n: int) -> FockVector:
    """Character-expansion oracle:
    S_alpha = sum over cycle types beta of (chi^alpha_beta / z_beta) B_{-beta}.
    """
    r = sum(alpha)
    return _power_sum_expansion(
        r,
        lambda beta: symfunc.mn_character(alpha, beta)
        * (factorial(r) // symfunc.z_order(beta)),
        v,
        n,
    )


def psi_q(p: Partition, n: int) -> FockVector:
    """Highest-weight vector V_{p_1} V_{p_2} ... V_{p_r} |0>."""
    return _chain_sum([(reversed(p), 1)], v_op, FockVector.basis(()), n)


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
