"""Exact arithmetic for Laurent polynomials in the deformation variable q.

Coefficients are arbitrary-precision Python integers: everything lives in
Z[q, 1/q].  Formulas with rational weights, such as the exponential formula
for the ribbon operators, are scaled to integer weights and divided back with
``divide_exact``.  Values are immutable and always kept in canonical form: a
tuple of their nonzero terms as (exponent, coefficient) pairs, lowest exponent
first, the zero polynomial having no terms.  The dense coefficient window
between the lowest and highest exponent exists only in the JSON form.

Values are shared (hash-consed): constructing one returns the stored value
with the same pairs when there is one (``_interned``), so a matrix holds one
object per distinct entry however many entries it has.  The table lives
until ``wedge.clear_caches``; equality and hashing stay by value, so a value
made before a clear equals, and hashes like, its rebuild after it.

Sums of products, such as the coefficients of an operator applied to a
vector, are not built as a chain of immutable values: ``add_product`` adds
a*b in place into a sparse {exponent: int} dict, ``add_shifted`` adds a value
times c*q^s for an integer c (all that f_i and e_i multiply by),
``add_column`` adds a column of values times one value into a table of such
dicts (the sums of ``fock``'s B_k, V_k and U_k, linear maps over stored
images of basis vectors), and ``collect`` turns a table into LaurentPoly
values once.  ``antisym_split`` reads both halves of a bar-antisymmetric
sum.  Two other places add into such sums by hand, each on its own dicts:
the block walk of the triangular solves (``canonical._block_walk``) and the
straightening kernel (``_straighten_py._add_product`` and ``_product``).
"""

from __future__ import annotations

import operator
from functools import lru_cache


class NotAntisymmetricError(ValueError):
    """The polynomial is not antisymmetric under q -> 1/q."""


class NonIntegralResultError(ValueError):
    """An exact division by an integer left a remainder (see divide_exact)."""


class LaurentPoly:
    """A Laurent polynomial over Z in one variable q, one shared object per
    distinct value.

    ``LaurentPoly(pairs)`` takes a tuple of pairs already in canonical form,
    exact ints sorted by exponent with no zero coefficient, and returns the
    stored value for it, made on the first request.  The table compares keys
    by value, so a lookalike such as True for 1 or 2.0 for 2 would return
    (or store) a value holding the wrong type: build values with
    ``monomial``, ``from_terms`` or arithmetic, which give exact ints.
    """

    __slots__ = ("_pairs",)

    def __new__(cls, pairs: tuple = ()):
        return _interned(pairs)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):  # copies and unpickled values are the shared one
        return LaurentPoly, (self._pairs,)

    # -- constructors ------------------------------------------------------

    @classmethod
    def monomial(cls, coeff: int = 1, exp: int = 0) -> "LaurentPoly":
        """coeff q^exp; an int-like coeff or exp becomes an exact int, and a
        float raises TypeError."""
        coeff = operator.index(coeff)
        return cls(((operator.index(exp), coeff),) if coeff else ())

    @classmethod
    def from_terms(cls, terms: dict) -> "LaurentPoly":
        return cls(tuple([(e, c) for e, c in sorted(terms.items()) if c]))

    # -- inspection --------------------------------------------------------

    def terms(self) -> tuple[tuple[int, int], ...]:
        """The nonzero (exponent, coefficient) pairs, lowest exponent first."""
        return self._pairs

    def eval_one(self) -> int:
        """Exact evaluation at q = 1."""
        return sum(c for _, c in self._pairs)

    def in_positive_ring(self) -> bool:
        """True iff the polynomial lies in qZ[q] (or is zero)."""
        return not self._pairs or self._pairs[0][0] >= 1

    def in_negative_ring(self) -> bool:
        """True iff the polynomial lies in q^-1 Z[q^-1] (or is zero)."""
        return not self._pairs or self._pairs[-1][0] <= -1

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.monomial(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        acc = dict(self._pairs)
        add_shifted(acc, other._pairs)
        return LaurentPoly.from_terms(acc)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(tuple([(e, -c) for e, c in self._pairs]))

    def __sub__(self, other):
        if isinstance(other, (LaurentPoly, int)):
            return self + -other
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.monomial(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        acc: dict[int, int] = {}
        add_product(acc, self, other)
        return LaurentPoly.from_terms(acc)

    __rmul__ = __mul__

    def bar(self) -> "LaurentPoly":
        """Substitute q -> 1/q."""
        return LaurentPoly(tuple([(-e, c) for e, c in reversed(self._pairs)]))

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self._pairs == other._pairs
        if isinstance(other, int):
            return self == LaurentPoly.monomial(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._pairs)

    def __bool__(self):
        return bool(self._pairs)

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        return self.pretty()

    def __repr__(self):
        return f"LaurentPoly({self.pretty()!r})"

    def pretty(self) -> str:
        """Plain-text form with caret exponents, e.g. ``q^2-1+q^-2``."""
        return self._render("q^{e}")

    def latex(self) -> str:
        """LaTeX form with braced exponents, e.g. ``q^{2}-1+q^{-2}``."""
        return self._render("q^{{{e}}}")

    def _render(self, exp_fmt: str) -> str:
        if not self._pairs:
            return "0"
        pieces = []
        for e, c in reversed(self._pairs):
            sign = "-" if c < 0 else "+"
            a = abs(c)
            if e == 0:
                body = str(a)
            else:
                var = "q" if e == 1 else exp_fmt.format(e=e)
                body = var if a == 1 else f"{a}{var}"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        out = (first_sign if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            out += sign + body
        return out

    # -- JSON --------------------------------------------------------------

    def to_json(self) -> dict:
        """The dense window from the lowest to the highest exponent."""
        if not self._pairs:
            return {"min": 0, "c": []}
        lo = self._pairs[0][0]
        window = ["0"] * (self._pairs[-1][0] - lo + 1)
        for e, c in self._pairs:
            window[e - lo] = str(c)
        return {"min": lo, "c": window}

    @classmethod
    def from_json(cls, doc: dict) -> "LaurentPoly":
        """Inverse of to_json: an int "min" and decimal-string coefficients.

        A coefficient must be written as to_json writes it (str of an int:
        ASCII digits, a leading "-" only, no leading zeros, no "-0").  Zero
        coefficients are dropped, so a zero-padded window reads as the
        trimmed value.
        """
        if type(doc) is not dict:
            raise ValueError(f"not a polynomial document: {doc!r}")
        min_exp, coeffs = doc["min"], doc["c"]
        if type(min_exp) is not int or type(coeffs) is not list:
            raise ValueError(f"not a polynomial document: {doc!r}")
        pairs = []
        for e, c in enumerate(coeffs, min_exp):
            if type(c) is not str or str(value := int(c)) != c:
                raise ValueError(f"coefficient {c!r} is not a decimal string")
            if value:
                pairs.append((e, value))
        return cls(tuple(pairs))


@lru_cache(maxsize=None)
def _interned(pairs: tuple) -> LaurentPoly:
    """The one LaurentPoly holding pairs, made on a miss and kept until
    wedge.clear_caches."""
    poly = object.__new__(LaurentPoly)
    object.__setattr__(poly, "_pairs", pairs)
    return poly


def add_product(acc: dict[int, int], a: LaurentPoly, b: LaurentPoly) -> None:
    """Add a*b into the sparse {exponent: int} sum acc in place.

    Coefficients that cancel stay in acc as zeros; ``collect`` drops them.
    """
    bpairs = b._pairs
    for i, x in a._pairs:
        for j, y in bpairs:
            acc[i + j] = acc.get(i + j, 0) + x * y


def add_shifted(acc: dict[int, int], pairs, shift: int = 0, scale: int = 1) -> None:
    """Add scale*q^shift*p into the sparse sum acc in place, p given as its
    (exponent, coefficient) pairs; zeros stay in acc until ``collect``."""
    for e, c in pairs:
        acc[e + shift] = acc.get(e + shift, 0) + scale * c


def add_column(sums: dict, column: list, x: tuple) -> None:
    """Add a*x into sums[row] in place for each (row, a) of column, where a
    and x are given as their (exponent, coefficient) pairs: the product loop
    of ``fock``'s operator sums, B_k, V_k and U_k as linear maps over stored
    images of basis vectors.
    """
    for row, a in column:
        acc = sums.setdefault(row, {})
        for i, c in a:
            for j, y in x:
                acc[i + j] = acc.get(i + j, 0) + c * y


def collect(sums: dict) -> dict:
    """{key: LaurentPoly} from {key: {exponent: int}}, without the keys whose
    sum is zero."""
    out = {}
    for key, terms in sums.items():
        poly = LaurentPoly.from_terms(terms)
        if poly:
            out[key] = poly
    return out


ZERO = LaurentPoly()
ONE = LaurentPoly.monomial(1)


def q_int(n: int) -> LaurentPoly:
    """The symmetric quantum integer [n] = (q^n - q^-n)/(q - q^-1)."""
    if n < 0:
        return -q_int(-n)
    return LaurentPoly(tuple([(e, 1) for e in range(1 - n, n, 2)]))


def divide_exact(p: LaurentPoly, d: int) -> LaurentPoly:
    """The quotient p / d in Z[q, 1/q] for a positive integer d.

    Raises NonIntegralResultError when a coefficient of p is not a multiple
    of d, which signals a wrong integer weight upstream.
    """
    pairs = []
    for e, c in p._pairs:
        quo, rem = divmod(c, d)
        if rem:
            raise NonIntegralResultError(f"{p} is not divisible by {d}")
        pairs.append((e, quo))
    return LaurentPoly(tuple(pairs))


def antisym_split(terms: dict, lower: bool = False) -> tuple:
    """Split a bar-antisymmetric sparse {exponent: int} sum as x - bar(x).

    x is the half of the sum in qZ[q], or in q^-1 Z[q^-1] when lower, and
    bar(x) is the other half negated.  Returns the pairs of x and of bar(x),
    each lowest exponent first, from one pass over the sum; zero coefficients
    are ignored.  Raises NotAntisymmetricError if bar(p) != -p, a nonzero q^0
    coefficient included, which signals a corrupted bar computation upstream.
    """
    x, xbar = [], []
    for e, c in sorted(terms.items()):
        if c:
            if terms.get(-e, 0) != -c:
                p = LaurentPoly.from_terms(terms)
                raise NotAntisymmetricError(f"not antisymmetric under q -> 1/q: {p}")
            if (e < 0) == lower:
                x.append((e, c))
            else:
                xbar.append((e, -c))
    return tuple(x), tuple(xbar)
