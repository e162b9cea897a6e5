from fractions import Fraction
from math import factorial

import pytest

from fockcanon import fock, symfunc
from fockcanon.fock import FockVector
from fockcanon.laurent import LaurentPoly
from fockcanon.partitions import SizeMismatchError, conjugate, diagram, partitions_of


def test_z_order():
    assert symfunc.z_order((1, 1)) == 2
    assert symfunc.z_order((2,)) == 2
    assert symfunc.z_order((2, 1, 1)) == 4


def test_z_order_class_equation():
    # conjugacy class sizes r!/z_beta sum to r!
    for r in range(1, 8):
        assert sum(factorial(r) // symfunc.z_order(b) for b in partitions_of(r)) == factorial(r)


def test_mn_trivial_character():
    for beta in partitions_of(5):
        assert symfunc.mn_character((5,), beta) == 1


def test_mn_examples():
    assert symfunc.mn_character((1, 1), (2,)) == -1
    assert symfunc.mn_character((2, 1), (1, 1, 1)) == 2


def test_mn_sign_character():
    # chi^(1^r) on beta is the sign of the permutation
    for r in range(1, 7):
        for beta in partitions_of(r):
            sign = (-1) ** sum(b - 1 for b in beta)
            assert symfunc.mn_character((1,) * r, beta) == sign


def test_mn_size_mismatch():
    with pytest.raises(SizeMismatchError):
        symfunc.mn_character((2,), (1,))


def _hooks(p):
    pc = conjugate(p)
    return [
        p[r - 1] - c + pc[c - 1] - r + 1
        for (r, c) in sorted(diagram(p))
    ]


def test_mn_dimension_equals_hook_count():
    for r in range(1, 7):
        for alpha in partitions_of(r):
            dim = factorial(r)
            for h in _hooks(alpha):
                dim //= h
            assert symfunc.mn_character(alpha, (1,) * r) == dim


def test_column_orthogonality():
    for r in range(1, 7):
        parts = list(partitions_of(r))
        for a in parts:
            for g in parts:
                s = sum(
                    Fraction(
                        symfunc.mn_character(a, b) * symfunc.mn_character(g, b),
                        symfunc.z_order(b),
                    )
                    for b in parts
                )
                assert s == (1 if a == g else 0)


def _ssyt_count(shape, content):
    """Number of semistandard tableaux of the given shape and content."""
    cells = sorted(diagram(shape), key=lambda rc: (rc[0], rc[1]))

    def rec(idx, filling, remaining):
        if idx == len(cells):
            return 1 if all(x == 0 for x in remaining) else 0
        r, c = cells[idx]
        total = 0
        for v in range(1, len(remaining) + 1):
            if remaining[v - 1] == 0:
                continue
            left = filling.get((r, c - 1))
            up = filling.get((r - 1, c))
            if left is not None and v < left:
                continue
            if up is not None and v <= up:
                continue
            filling[(r, c)] = v
            remaining[v - 1] -= 1
            total += rec(idx + 1, filling, remaining)
            remaining[v - 1] += 1
            del filling[(r, c)]
        return total

    return rec(0, {}, list(content))


def test_kostka_round_trip_on_fock_space():
    # h_mu = sum_lam K_{lam mu} s_lam, realized on the Fock space as
    # V_{mu_1} ... V_{mu_l} v = sum_lam K_{lam mu} S_lam v, with the Kostka
    # numbers counted from semistandard tableaux: a check of the determinant
    # in fock.s_alpha that uses neither characters nor permutations
    for n in (2, 3):
        for v in (FockVector.basis(()), FockVector.basis((1,))):
            for r in range(7):
                s_images = {lam: fock.s_alpha(lam, v, n) for lam in partitions_of(r)}
                for mu in partitions_of(r):
                    h_image = v
                    for part in mu:
                        h_image = fock.v_op(part, h_image, n)
                    total = FockVector()
                    for lam, image in s_images.items():
                        kostka = _ssyt_count(lam, mu)
                        if kostka:
                            total = total + image.scale(LaurentPoly.monomial(kostka))
                    assert total == h_image, (n, v, mu)
