import ast
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import fockcanon
from fockcanon.laurent import (
    ONE,
    ZERO,
    LaurentPoly,
    NonIntegralResultError,
    NotAntisymmetricError,
    add_product,
    antisym_split,
    collect,
    divide_exact,
    q_int,
)

P = LaurentPoly.from_terms


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


def test_q_int():
    assert q_int(2) == P({1: 1, -1: 1})
    assert q_int(0) == ZERO
    assert q_int(-2) == -q_int(2)


small_polys = st.builds(
    lambda d: LaurentPoly.from_terms(d),
    st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=6),
)


@given(small_polys)
def test_bar_involution(p):
    assert p.bar().bar() == p


@given(small_polys, small_polys, small_polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@given(small_polys)
def test_antisym_round_trip(p):
    r = p - p.bar()
    parts = antisym_split(r)
    rebuilt = sum(
        (LaurentPoly.from_terms({j: c, -j: -c}) for j, c in parts.items()),
        ZERO,
    )
    assert rebuilt == r


@given(small_polys)
def test_json_round_trip(p):
    assert LaurentPoly.from_json(p.to_json()) == p
    assert all(isinstance(c, str) for c in p.to_json()["c"])


@given(
    st.lists(
        st.tuples(st.integers(0, 3), small_polys, small_polys, st.booleans()),
        max_size=8,
    )
)
@example([(0, P({1: 1, -1: -1}), P({0: 2, 2: 1}), True), (1, P({1: 1}), ONE, False)])
def test_add_product_matches_laurent_fold(draws):
    """The in-place accumulator against the immutable fold a*b + ...; each
    product drawn with the flag set is also added negated, so keys whose
    products all carry it cancel to zero and must be absent."""
    products = []
    for key, a, b, cancel in draws:
        products.append((key, a, b))
        if cancel:
            products.append((key, -a, b))
    sums, expected = {}, {}
    for key, a, b in products:
        add_product(sums.setdefault(key, {}), a, b)
        expected[key] = expected.get(key, ZERO) + a * b
    assert collect(sums) == {k: v for k, v in expected.items() if v}


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


@given(small_polys, st.integers(1, 30))
def test_divide_exact_inverts_scaling(p, d):
    assert divide_exact(p * d, d) == p


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
