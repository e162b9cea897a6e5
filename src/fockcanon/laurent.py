"""Exact arithmetic for Laurent polynomials in the deformation variable q.

Coefficients are arbitrary-precision Python integers: everything lives in
Z[q, 1/q].  Formulas with rational weights, such as the exponential formula
for the ribbon operators, are scaled to integer weights and divided back with
``divide_exact``.  Values are immutable and always kept in canonical form: a
dense coefficient window between the lowest and highest nonzero exponent, the
zero polynomial having an empty window.

Sums of products, such as the entries of a triangular solve or the
coefficients of an operator applied to a vector, are not built as a chain of
immutable values: ``add_product`` adds a*b in place into a sparse
{exponent: int} dict, and ``collect`` turns a whole table of such dicts into
LaurentPoly values once, when the sums are read.
"""

from __future__ import annotations

from typing import Iterator


class NotAntisymmetricError(ValueError):
    """The polynomial is not antisymmetric under q -> 1/q."""


class NonIntegralResultError(ValueError):
    """An exact division by an integer left a remainder (see divide_exact)."""


def _trim(min_exp, coeffs):
    lo, hi = 0, len(coeffs)
    while hi > lo and not coeffs[hi - 1]:
        hi -= 1
    while lo < hi and not coeffs[lo]:
        lo += 1
    if lo == hi:
        return 0, ()
    return min_exp + lo, tuple(coeffs[lo:hi])


def _add_windows(amin, acoeffs, bmin, bcoeffs):
    if not acoeffs:
        return bmin, bcoeffs
    if not bcoeffs:
        return amin, acoeffs
    lo = min(amin, bmin)
    hi = max(amin + len(acoeffs), bmin + len(bcoeffs))
    out = [0] * (hi - lo)
    for i, c in enumerate(acoeffs):
        out[amin - lo + i] = c
    for i, c in enumerate(bcoeffs):
        out[bmin - lo + i] += c
    return _trim(lo, out)


def _mul_windows(amin, acoeffs, bmin, bcoeffs):
    if not acoeffs or not bcoeffs:
        return 0, ()
    out = [0] * (len(acoeffs) + len(bcoeffs) - 1)
    for i, a in enumerate(acoeffs):
        if not a:
            continue
        for j, b in enumerate(bcoeffs):
            if b:
                out[i + j] += a * b
    return _trim(amin + bmin, out)


class LaurentPoly:
    """A Laurent polynomial over Z in one variable q."""

    __slots__ = ("min", "coeffs")

    def __init__(self, min_exp: int = 0, coeffs=()):
        m, c = _trim(min_exp, tuple(coeffs))
        object.__setattr__(self, "min", m)
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def monomial(cls, coeff: int = 1, exp: int = 0) -> "LaurentPoly":
        return cls(exp, (coeff,))

    @classmethod
    def from_terms(cls, terms: dict) -> "LaurentPoly":
        if not terms:
            return cls()
        lo = min(terms)
        hi = max(terms)
        window = [0] * (hi - lo + 1)
        for e, c in terms.items():
            window[e - lo] = c
        return cls(lo, window)

    # -- inspection --------------------------------------------------------

    def terms(self) -> Iterator[tuple[int, int]]:
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.min + i, c

    @property
    def max_exp(self) -> int:
        return self.min + len(self.coeffs) - 1 if self.coeffs else 0

    def eval_one(self) -> int:
        """Exact evaluation at q = 1."""
        return sum(self.coeffs)

    def in_positive_ring(self) -> bool:
        """True iff the polynomial lies in qZ[q] (or is zero)."""
        return not self.coeffs or self.min >= 1

    def in_negative_ring(self) -> bool:
        """True iff the polynomial lies in q^-1 Z[q^-1] (or is zero)."""
        return not self.coeffs or self.max_exp <= -1

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, LaurentPoly):
            m, c = _add_windows(self.min, self.coeffs, other.min, other.coeffs)
            return LaurentPoly(m, c)
        if isinstance(other, int):
            return self + LaurentPoly.monomial(other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.min, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (LaurentPoly, int)):
            return self + (-other if isinstance(other, LaurentPoly) else -other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            m, c = _mul_windows(self.min, self.coeffs, other.min, other.coeffs)
            return LaurentPoly(m, c)
        if isinstance(other, int):
            return LaurentPoly(self.min, tuple(c * other for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def bar(self) -> "LaurentPoly":
        """Substitute q -> 1/q."""
        return LaurentPoly(-(self.min + len(self.coeffs) - 1), self.coeffs[::-1])

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.min == other.min and self.coeffs == other.coeffs
        if isinstance(other, int):
            return self == LaurentPoly.monomial(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.min, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

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
        if not self.coeffs:
            return "0"
        pieces = []
        for e, c in sorted(self.terms(), key=lambda t: -t[0]):
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
        return {"min": self.min, "c": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, doc: dict) -> "LaurentPoly":
        """Inverse of to_json: an int "min" and decimal-string coefficients."""
        if type(doc) is not dict:
            raise ValueError(f"not a polynomial document: {doc!r}")
        min_exp, coeffs = doc["min"], doc["c"]
        if type(min_exp) is not int or type(coeffs) is not list:
            raise ValueError(f"not a polynomial document: {doc!r}")
        out = []
        for c in coeffs:
            if type(c) is not str:
                raise ValueError(f"coefficient {c!r} is not a decimal string")
            out.append(int(c))
        return cls(min_exp, out)


def add_product(acc: dict[int, int], a: LaurentPoly, b: LaurentPoly) -> None:
    """Add a*b into the sparse {exponent: int} sum acc in place.

    Coefficients that cancel stay in acc as zeros; ``collect`` drops them.
    """
    bmin, bcoeffs = b.min, b.coeffs
    for i, x in enumerate(a.coeffs, a.min + bmin):
        if x:
            for e, y in enumerate(bcoeffs, i):
                if y:
                    acc[e] = acc.get(e, 0) + x * y


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
    if n == 0:
        return ZERO
    if n < 0:
        return -q_int(-n)
    return LaurentPoly(-(n - 1), (1, 0) * (n - 1) + (1,))


def divide_exact(p: LaurentPoly, d: int) -> LaurentPoly:
    """The quotient p / d in Z[q, 1/q] for a positive integer d.

    Raises NonIntegralResultError when a coefficient of p is not a multiple
    of d, which signals a wrong integer weight upstream.
    """
    out = []
    for c in p.coeffs:
        quo, rem = divmod(c, d)
        if rem:
            raise NonIntegralResultError(f"{p} is not divisible by {d}")
        out.append(quo)
    return LaurentPoly(p.min, out)


def antisym_split(p: LaurentPoly) -> dict[int, int]:
    """Decompose a bar-antisymmetric polynomial as sum r_j (q^j - q^-j).

    Returns the map j -> r_j over j > 0.  Raises NotAntisymmetricError if
    bar(p) != -p, which signals a corrupted bar computation upstream.
    """
    if p.bar() != -p:
        raise NotAntisymmetricError(f"not antisymmetric under q -> 1/q: {p}")
    return {e: c for e, c in p.terms() if e > 0}

