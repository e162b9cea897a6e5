"""Property-based tests of partitions and Laurent polynomials.

They need hypothesis, which is an optional test dependency (the ``test``
extra); without it this module is skipped and every other test still runs.
"""

import pytest

pytest.importorskip(
    "hypothesis", reason="hypothesis is not installed: property-based tests need the test extra"
)

from hypothesis import example, given, strategies as st

from fockcanon import partitions as pt
from test_laurent import POINTS, evaluate
from fockcanon.laurent import (
    ONE,
    ZERO,
    LaurentPoly,
    add_product,
    antisym_split,
    collect,
    divide_exact,
)

P = LaurentPoly.from_terms


partitions_strategy = st.builds(
    lambda xs: tuple(sorted(xs, reverse=True)),
    st.lists(st.integers(1, 8), max_size=7),
)


@given(partitions_strategy)
def test_conjugate_involution(p):
    assert pt.conjugate(pt.conjugate(p)) == p


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
    for lower in (False, True):
        x, xbar = antisym_split(dict(r.terms()), lower)
        half = LaurentPoly(x)
        assert half.in_negative_ring() if lower else half.in_positive_ring()
        assert LaurentPoly(xbar) == half.bar()
        assert half - half.bar() == r


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
    """The in-place accumulator against the immutable fold a*b + ... and
    against exact evaluation, which shares no code with the product; each
    product drawn with the flag set is also added negated, so keys whose
    products all carry it cancel to zero and must be absent."""
    products = []
    for key, a, b, cancel in draws:
        products.append((key, a, b))
        if cancel:
            products.append((key, -a, b))
    sums, expected = {}, {}
    values = {q: {} for q in POINTS}
    for key, a, b in products:
        add_product(sums.setdefault(key, {}), a, b)
        expected[key] = expected.get(key, ZERO) + a * b
        for q, at_q in values.items():
            at_q[key] = at_q.get(key, 0) + evaluate(a, q) * evaluate(b, q)
    collected = collect(sums)
    assert collected == {k: v for k, v in expected.items() if v}
    for q, at_q in values.items():
        assert {k: evaluate(collected.get(k, ZERO), q) for k in at_q} == at_q


@given(small_polys, st.integers(1, 30))
def test_divide_exact_inverts_scaling(p, d):
    assert divide_exact(p * d, d) == p
