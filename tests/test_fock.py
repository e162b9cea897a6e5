import pytest

from fockcanon import fock, symfunc
from fockcanon.fock import FockVector
from fockcanon.laurent import LaurentPoly, NonIntegralResultError, ZERO, q_int
from fockcanon.partitions import partitions_of

P = LaurentPoly.from_terms


def V(terms):
    return FockVector({p: P(t) for p, t in terms.items()})


def basis(p):
    return FockVector.basis(p)


# -- Chevalley action ----------------------------------------------------------


def test_f_action_examples():
    assert fock.f_action(0, basis(()), 2) == basis((1,))
    assert fock.f_action(1, basis((1,)), 2) == V({(2,): {0: 1}, (1, 1): {1: 1}})
    assert fock.f_action(0, basis((1,)), 2) == FockVector()


def test_e_action_examples():
    assert fock.e_action(1, basis((2,)), 2) == V({(1,): {-1: 1}})
    assert fock.e_action(1, basis((1, 1)), 2) == basis((1,))
    assert fock.e_action(0, basis((1,)), 2) == basis(())


def test_weight_exponents():
    assert fock.weight_exponents((), 2) == ((1, 0), 0)
    assert fock.weight_exponents((1,), 2) == ((-1, 2), 1)
    assert fock.weight_exponents((2, 1), 2)[1] == 1


def test_quantum_commutator():
    for n in (2, 3):
        for m in range(6):
            for lam in partitions_of(m):
                v = basis(lam)
                diffs, _ = fock.weight_exponents(lam, n)
                for i in range(n):
                    for j in range(n):
                        lhs = fock.e_action(i, fock.f_action(j, v, n), n) - \
                            fock.f_action(j, fock.e_action(i, v, n), n)
                        want = v.scale(q_int(diffs[i])) if i == j else FockVector()
                        assert lhs == want, (n, lam, i, j)


def test_classical_limit_multiplicity_free():
    for n in (2, 3):
        for m in range(6):
            for lam in partitions_of(m):
                for i in range(n):
                    fv = fock.f_action(i, basis(lam), n)
                    assert all(c.eval_one() == 1 for _, c in fv.items())


# -- ribbon operators ----------------------------------------------------------


def test_v_op_examples():
    assert fock.v_op(1, basis(()), 2) == V({(2,): {0: 1}, (1, 1): {-1: -1}})
    assert fock.v_op(0, basis((3, 1)), 2) == basis((3, 1))
    assert fock.v_op(1, basis(()), 3) == V(
        {(3,): {0: 1}, (2, 1): {-1: -1}, (1, 1, 1): {-2: 1}}
    )


def test_u_op_examples():
    assert fock.u_op(1, basis((2,)), 2) == basis(())
    assert fock.u_op(1, basis((1, 1)), 2) == V({(): {-1: -1}})
    assert fock.u_op(1, basis((1,)), 2) == FockVector()


def test_v_op_heisenberg_oracle():
    for n in (2, 3):
        for k in (0, 1, 2, 3):
            for m in range(5):
                for lam in partitions_of(m):
                    v = basis(lam)
                    assert fock.v_op(k, v, n) == fock.v_op_via_heisenberg(k, v, n)


def test_v_ops_commute():
    vac = basis(())
    for n in (2, 3):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                assert fock.v_op(j, fock.v_op(k, vac, n), n) == fock.v_op(
                    k, fock.v_op(j, vac, n), n
                )


def test_adjointness_u_v():
    for n in (2, 3):
        for k in (1, 2):
            for d in range(k * n, 9):
                for mu in partitions_of(d):
                    ux = fock.u_op(k, basis(mu), n)
                    for lam in partitions_of(d - k * n):
                        assert fock.inner_product(ux, basis(lam)) == \
                            fock.inner_product(basis(mu), fock.v_op(k, basis(lam), n))


# -- S_alpha and highest-weight map --------------------------------------------


def test_s_alpha_examples():
    vac = basis(())
    assert fock.s_alpha((1,), vac, 2) == fock.v_op(1, vac, 2)
    assert fock.s_alpha((), basis((2, 1)), 2) == basis((2, 1))
    v11 = fock.v_op(1, fock.v_op(1, vac, 2), 2)
    v2 = fock.v_op(2, vac, 2)
    assert fock.s_alpha((1, 1), vac, 2) == v11 - v2


def test_s_alpha_character_oracle():
    for n in (2, 3):
        for r in range(4):
            for alpha in partitions_of(r):
                for m in (0, 1, 2):
                    for lam in partitions_of(m):
                        v = basis(lam)
                        assert fock.s_alpha(alpha, v, n) == \
                            fock.s_alpha_via_characters(alpha, v, n)


def test_character_oracle_fails_loudly_on_wrong_characters(monkeypatch):
    # chi = 1 on (1^r) and 0 elsewhere leaves (1/r!) B_{-1}^r, which is not
    # integral: the exact division must raise instead of truncating.
    def wrong_character(alpha, beta):
        return 1 if beta == (1,) * sum(alpha) else 0

    monkeypatch.setattr(symfunc, "mn_character", wrong_character)
    for n in (2, 3):
        for alpha in ((2,), (1, 1), (2, 1), (3,)):
            with pytest.raises(NonIntegralResultError):
                fock.s_alpha_via_characters(alpha, basis(()), n)


def test_psi_q_examples():
    assert fock.psi_q((1,), 2) == V({(2,): {0: 1}, (1, 1): {-1: -1}})
    assert fock.psi_q((), 3) == basis(())


def test_psi_q_highest_weight():
    for n in (2, 3):
        for r in range(4):
            for lam in partitions_of(r):
                hw = fock.psi_q(lam, n)
                assert not hw or {sum(p) for p in hw.terms} == {n * r}
                for i in range(n):
                    assert not fock.e_action(i, hw, n), (n, lam, i)


# -- inner product and bar ------------------------------------------------------


def test_inner_product():
    assert fock.inner_product(basis((2,)), basis((2,))) == P({0: 1})
    assert fock.inner_product(basis((2,)), basis((1, 1))) == ZERO
    v = basis((2,)) + basis((1, 1)).scale(P({1: 1}))
    assert fock.inner_product(v, basis((1, 1))) == P({1: 1})


def test_bar_semilinear():
    assert fock.bar(basis((1, 1)).scale(P({1: 1})), 2) == \
        basis((1, 1)).scale(P({-1: 1}))
    g2 = basis((2,)) + basis((1, 1)).scale(P({1: 1}))
    assert fock.bar(g2, 2) == g2
    assert fock.bar(basis(()), 4) == basis(())


def test_bar_involution_vectors():
    for n in (2, 3):
        for m in range(6):
            for lam in partitions_of(m):
                assert fock.bar(fock.bar(basis(lam), n), n) == basis(lam)


def test_b_action_heisenberg_relation():
    for n in (2, 3):
        for k in (1, 2):
            scalar = P({-2 * k * j: k for j in range(n)})
            for m in range(5):
                for lam in partitions_of(m):
                    v = basis(lam)
                    lhs = fock.b_action(k, fock.b_action(-k, v, n), n) - \
                        fock.b_action(-k, fock.b_action(k, v, n), n)
                    assert lhs == v.scale(scalar)


def test_b_action_below_degree_kn_is_zero_without_straightening(monkeypatch):
    def refuse(terms, n):
        raise AssertionError("a term of degree below kn was straightened")

    monkeypatch.setattr(fock.wedge._kernel, "straighten_terms", refuse)
    assert not fock.b_action(50, basis((1,)), 2)
    assert not fock.b_action(1, basis((1, 1)) + basis(()), 3)


def test_vector_pretty_and_json():
    v = basis((2,)) + basis((1, 1)).scale(P({-1: -1}))
    assert v.pretty() == "|2> - q^-1|11>"
    assert FockVector.from_json(v.to_json()) == v
    g = basis((2,)) + basis((1, 1)).scale(P({1: 1, -1: -1}))
    assert g.pretty() == "|2> + (q-q^-1)|11>"
