"""Exact arithmetic for Laurent polynomials in the deformation variable q.

Coefficients are arbitrary-precision Python integers: everything lives in
Z[q, 1/q].  Formulas with rational weights, such as the exponential formula
for the ribbon operators, are scaled to integer weights and divided back with
``divide_exact``.  Values are immutable and always kept in canonical form: a
tuple of their nonzero terms as (exponent, coefficient) pairs, lowest exponent
first, the zero polynomial having no terms.  The dense coefficient window
between the lowest and highest exponent exists only in the JSON form.

Sums of products, such as the entries of a triangular solve or the
coefficients of an operator applied to a vector, are not built as a chain of
immutable values: ``add_product`` adds a*b in place into a sparse
{exponent: int} dict, and ``collect`` turns a whole table of such dicts into
LaurentPoly values once, when the sums are read.  The product of two values
is one such sum.
"""

from __future__ import annotations


class NotAntisymmetricError(ValueError):
    """The polynomial is not antisymmetric under q -> 1/q."""


class NonIntegralResultError(ValueError):
    """An exact division by an integer left a remainder (see divide_exact)."""


class LaurentPoly:
    """A Laurent polynomial over Z in one variable q."""

    __slots__ = ("_pairs",)

    def __init__(self, pairs: tuple = ()):
        """Wrap pairs already in canonical form; build values with
        ``monomial``, ``from_terms`` or arithmetic."""
        object.__setattr__(self, "_pairs", pairs)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def monomial(cls, coeff: int = 1, exp: int = 0) -> "LaurentPoly":
        return cls(((exp, coeff),) if coeff else ())

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
        for e, c in other._pairs:
            acc[e] = acc.get(e, 0) + c
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


def add_product(acc: dict[int, int], a: LaurentPoly, b: LaurentPoly) -> None:
    """Add a*b into the sparse {exponent: int} sum acc in place.

    Coefficients that cancel stay in acc as zeros; ``collect`` drops them.
    """
    bpairs = b._pairs
    for i, x in a._pairs:
        for j, y in bpairs:
            acc[i + j] = acc.get(i + j, 0) + x * y


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


def antisym_split(p: LaurentPoly) -> dict[int, int]:
    """Decompose a bar-antisymmetric polynomial as sum r_j (q^j - q^-j).

    Returns the map j -> r_j over j > 0.  Raises NotAntisymmetricError if
    bar(p) != -p, which signals a corrupted bar computation upstream.
    """
    if p.bar() != -p:
        raise NotAntisymmetricError(f"not antisymmetric under q -> 1/q: {p}")
    return {e: c for e, c in p._pairs if e > 0}
