import ast
from fractions import Fraction
from pathlib import Path

import pytest

import fockcanon
from fockcanon.laurent import (
    ONE,
    ZERO,
    LaurentPoly,
    NonIntegralResultError,
    NotAntisymmetricError,
    add_shifted,
    antisym_split,
    collect,
    divide_exact,
    q_int,
)

P = LaurentPoly.from_terms

# Exact evaluation is an oracle that shares no code with the package's
# arithmetic: it reads only the terms.
POINTS = (Fraction(2), Fraction(-3), Fraction(1, 2))


def evaluate(p: LaurentPoly, q: Fraction) -> Fraction:
    return sum((c * q**e for e, c in p.terms()), Fraction(0))


# gaps, negative exponents, a monomial, a constant and zero
SAMPLES = (
    P({-3: 2, 1: -1, 4: 5}),
    P({-2: -4, 0: 6, 2: 8}),
    P({1: 1, -1: -1}),
    P({-5: -3}),
    P({0: 7}),
    ZERO,
)


def test_add_cancellation():
    assert P({1: 1, -1: -1}) + P({-1: 1}) == LaurentPoly.monomial(1, 1)


def test_add_identity():
    p = P({3: 2, 0: -1})
    assert ZERO + p == p


def test_add_hand():
    assert P({2: 1, 0: -1}) + P({0: -1, -2: 1}) == P({2: 1, 0: -2, -2: 1})


def test_mul_inverse():
    assert LaurentPoly.monomial(1, 1) * LaurentPoly.monomial(1, -1) == ONE


def test_mul_hand():
    assert P({1: 1, -1: -1}) * P({1: 1, -1: 1}) == P({2: 1, -2: -1})


def test_mul_zero():
    assert P({5: 3}) * ZERO == ZERO


def test_bar_antisymmetric():
    assert P({1: 1, -1: -1}).bar() == P({-1: 1, 1: -1})


def test_bar_fixes_one():
    assert ONE.bar() == ONE


def test_bar_substitution():
    assert P({2: 1, 0: -1}).bar() == P({-2: 1, 0: -1})


def test_antisym_split_simple():
    assert antisym_split(P({1: 1, -1: -1})) == {1: 1}


def test_antisym_split_zero():
    assert antisym_split(ZERO) == {}


def test_antisym_split_hand():
    assert antisym_split(P({3: 2, 1: -1, -1: 1, -3: -2})) == {3: 2, 1: -1}


def test_antisym_split_rejects():
    with pytest.raises(NotAntisymmetricError):
        antisym_split(P({1: 1}))


def test_antisym_split_of_a_sparse_sum():
    # zero coefficients, as a sum left by cancellation holds, are ignored
    assert antisym_split({2: 3, 0: 0, -2: -3, 1: 0}) == {2: 3}
    assert antisym_split({1: 0, -1: 0}) == {}


@pytest.mark.parametrize("terms", [{0: 1}, {1: 1, 0: 2, -1: -1}, {-1: 1}, {2: 1, -2: 1}])
def test_antisym_split_rejects_a_sparse_sum(terms):
    with pytest.raises(NotAntisymmetricError):
        antisym_split(terms)


def test_add_shifted_by_hand():
    p = P({-1: 2, 2: -3})
    acc = {}
    add_shifted(acc, p.terms())
    assert acc == {-1: 2, 2: -3}
    acc = {}
    add_shifted(acc, p.terms(), 3, -2)
    assert acc == {2: -4, 5: 6}
    # into an existing sum: a shared exponent adds up, the others are kept
    acc = {2: 1, 7: 5}
    add_shifted(acc, p.terms(), 3)
    assert acc == {2: 3, 5: -3, 7: 5}


def test_add_shifted_keeps_zeros_until_collect():
    # a sum given as dict items, cancelling against what acc holds
    acc = {0: 4, 1: 1}
    add_shifted(acc, {-2: 2, 0: 5}.items(), 2, -2)
    assert acc == {0: 0, 1: 1, 2: -10}
    assert collect({"x": acc, "zero": {3: 0}}) == {"x": P({1: 1, 2: -10})}


@pytest.mark.parametrize("shift, scale", [(0, 1), (-4, 1), (2, -1), (-1, 3), (5, 0)])
def test_add_shifted_matches_the_product(shift, scale):
    """Terms and dict items alike, add_shifted adds scale*q^shift*p, by exact
    evaluation."""
    for p in SAMPLES:
        for a in SAMPLES:
            for pairs in (p.terms(), dict(p.terms()).items()):
                acc = dict(a.terms())
                add_shifted(acc, pairs, shift, scale)
                for q in POINTS:
                    want = evaluate(a, q) + scale * q**shift * evaluate(p, q)
                    assert evaluate(P(acc), q) == want


def test_q_int():
    assert q_int(2) == P({1: 1, -1: 1})
    assert q_int(0) == ZERO
    assert q_int(-2) == -q_int(2)


def test_pretty():
    assert P({2: 1, 0: -1, -2: 1}).pretty() == "q^2-1+q^-2"
    assert P({1: 1, -1: -1}).pretty() == "q-q^-1"
    assert ZERO.pretty() == "0"
    assert P({1: -2}).pretty() == "-2q"


def test_latex():
    assert P({2: 1, -1: -1}).latex() == "q^{2}-q^{-1}"


def test_ring_membership_helpers():
    assert P({1: 1, 3: 2}).in_positive_ring()
    assert not P({0: 1}).in_positive_ring()
    assert P({-1: 4}).in_negative_ring()
    assert ZERO.in_positive_ring() and ZERO.in_negative_ring()


def test_json_rejects_non_integer_fields():
    for doc in (
        {"min": 0.5, "c": ["1"]},
        {"min": True, "c": ["1"]},
        {"min": "0", "c": ["1"]},
        {"min": 0, "c": [1.5]},
        {"min": 0, "c": [1]},
        {"min": 0, "c": "12"},
        # int() reads these, but to_json never writes them
        {"min": 0, "c": [" 1_0"]},
        {"min": 0, "c": ["\u0663"]},
        {"min": 0, "c": ["+1"]},
        {"min": 0, "c": ["01"]},
        {"min": 0, "c": ["1", "-0"]},
    ):
        with pytest.raises(ValueError):
            LaurentPoly.from_json(doc)


def test_divide_exact_quotient():
    p = P({3: -6, 0: 12, -2: -18})
    assert divide_exact(p, 6) == P({3: -1, 0: 2, -2: -3})
    assert divide_exact(p, 1) == p
    assert divide_exact(ZERO, 24) == ZERO


def test_divide_exact_remainder_raises():
    with pytest.raises(NonIntegralResultError):
        divide_exact(P({1: 4, -1: -3}), 2)
    with pytest.raises(NonIntegralResultError):
        divide_exact(P({0: -1}), 2)


def test_one_integer_ring():
    """No second coefficient ring: nothing in the package imports fractions."""
    for path in Path(fockcanon.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert "fractions" not in {m.split(".")[0] for m in modules}, path
    assert not hasattr(fockcanon, "RationalLaurentPoly")


def test_arithmetic_matches_evaluation():
    for q in POINTS:
        for a in SAMPLES:
            ea = evaluate(a, q)
            assert evaluate(a.bar(), q) == evaluate(a, 1 / q)
            assert evaluate(-a, q) == -ea
            for k in (-2, 0, 3):
                assert evaluate(a * k, q) == evaluate(k * a, q) == k * ea
                assert evaluate(a + k, q) == evaluate(k + a, q) == ea + k
                assert evaluate(a - k, q) == ea - k
                assert evaluate(k - a, q) == k - ea
            for b in SAMPLES:
                eb = evaluate(b, q)
                assert evaluate(a + b, q) == ea + eb
                assert evaluate(a - b, q) == ea - eb
                assert evaluate(a * b, q) == ea * eb
        assert evaluate(divide_exact(SAMPLES[1], 2), q) == evaluate(SAMPLES[1], q) / 2
        for k in range(-4, 5):
            assert evaluate(q_int(k), q) == (q**k - q**-k) / (q - 1 / q)


def test_every_construction_gives_one_canonical_form():
    """q^2 - q^-2 + 3q^-5 built eight ways: equal, equally hashed, and held
    as its nonzero terms, lowest exponent first."""
    q = LaurentPoly.monomial(1, 1)
    qi = LaurentPoly.monomial(1, -1)
    value = P({2: 1, -2: -1, -5: 3})
    built = [
        value,
        P({-5: 3, 0: 0, 2: 1, -2: -1, 7: 0}),
        LaurentPoly.monomial(3, -5) + LaurentPoly.monomial(-1, -2) + LaurentPoly.monomial(1, 2),
        (q + qi) * (q - qi) + 3 * qi * qi * qi * qi * qi,
        P({5: 3, 2: -1, -2: 1}).bar(),
        -P({2: -1, -2: 1, -5: -3}),
        divide_exact(value * 4, 4) + P({9: 1}) - P({9: 1}),
        LaurentPoly.from_json({"min": -7, "c": ["0", "0", "3", "0", "0", "-1", "0", "0",
                                               "0", "1", "0"]}),
    ]
    for v in built:
        assert v == value and hash(v) == hash(value)
        assert list(v.terms()) == [(-5, 3), (-2, -1), (2, 1)]
        assert not v.in_positive_ring() and not v.in_negative_ring()
    assert len(set(built)) == 1


def test_json_window():
    value = P({2: 1, -2: -1})
    assert value.to_json() == {"min": -2, "c": ["-1", "0", "0", "0", "1"]}
    padded = {"min": -4, "c": ["0", "0", "-1", "0", "0", "0", "1", "0"]}
    assert LaurentPoly.from_json(padded) == value
    assert LaurentPoly.from_json(padded).to_json() == value.to_json()
    assert ZERO.to_json() == {"min": 0, "c": []}
    for doc in ({"min": 0, "c": []}, {"min": 3, "c": ["0", "0"]}):
        assert LaurentPoly.from_json(doc) == ZERO and not LaurentPoly.from_json(doc)
