import random
import time
from functools import partial
from itertools import combinations, permutations

import pytest

from fockcanon import fock, partitions, symfunc, wedge
from fockcanon.fock import FockVector
from fockcanon.laurent import ONE, LaurentPoly, NonIntegralResultError, ZERO, q_int
from fockcanon.partitions import partition_label, partitions_of, revlex_order

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


def test_exponential_formula_computes_each_b_image_once(monkeypatch):
    # every (k, p) the chains B_{-beta} reach from |lam>, beta a partition of 3
    lam, n = (2, 1), 3
    reached = set()
    for beta in partitions_of(3):
        v = basis(lam)
        for part in beta:
            reached |= {(-part, p) for p in v.terms}
            v = fock.b_action(-part, v, n)
    calls = []
    real = wedge.b_action_words

    def counted(k, p, n):
        calls.append((k, p))
        return real(k, p, n)

    wedge.clear_caches()
    monkeypatch.setattr(wedge, "b_action_words", counted)
    try:
        fock.v_op_via_heisenberg(3, basis(lam), n)
    finally:
        wedge.clear_caches()
    assert len(calls) == len(set(calls))
    assert set(calls) == reached


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
    # (n, largest |alpha|, degrees of the basis vectors): every alpha up to
    # degree 6 at n=2; |alpha| = 6 at n=3 alone would take seconds
    cases = ((2, 6, (0, 1)), (3, 5, (0,)), (2, 3, (2,)), (3, 3, (1, 2)))
    for n, top, degrees in cases:
        for r in range(top + 1):
            for alpha in partitions_of(r):
                for m in degrees:
                    for lam in partitions_of(m):
                        v = basis(lam)
                        assert fock.s_alpha(alpha, v, n) == \
                            fock.s_alpha_via_characters(alpha, v, n)


def test_s_alpha_keeps_each_minor(monkeypatch):
    # det(V_{1-i+j}) of size l has l(l+1)/2 minors that need a strip walk;
    # applying each h-chain of the inverse Kostka expansion walks 192 times
    walks = []
    real = fock._strip_sums

    def counting(*args):
        walks.append(args[1])
        return real(*args)

    monkeypatch.setattr(fock, "_strip_sums", counting)
    ell = 10
    out = fock.s_alpha((1,) * ell, basis(()), 2)
    assert out and len(walks) <= ell * (ell + 1) // 2
    assert 0 not in walks


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


# -- strip images ---------------------------------------------------------------


def _strips(above, p, n, k):
    """(other partition, height) of each strip out of p (above) or into it."""
    if above:
        return [(s.target, s.height) for s in partitions.ribbon_strips_above(p, n, k)]
    return [(s.source, s.height) for s in partitions.ribbon_strips_below(p, n, k)]


def _strip_sum(above, k, v, n):
    """V_k v (above) or U_k v (below) summed strip by strip, reading no
    stored image."""
    out = {}
    for p, c in v.items():
        for nu, h in _strips(above, p, n, k):
            out[nu] = out.get(nu, ZERO) + c * LaurentPoly.monomial((-1) ** h, -h)
    return FockVector(out)


def _s_alpha_by_permutations(alpha, v, n):
    """det(V_{alpha_i - i + j}) by its permutation expansion, each product of
    V_k applied by _strip_sum."""
    out = FockVector()
    for perm in permutations(range(len(alpha))):
        ks = [alpha[i] - i + j for i, j in enumerate(perm)]
        if min(ks, default=0) < 0:
            continue
        term = v
        for k in ks:
            term = _strip_sum(True, k, term, n)
        inversions = sum(a > b for a, b in combinations(perm, 2))
        out = out - term if inversions % 2 else out + term
    return out


def _strip_cases(n):
    """(operator, its direct strip sum) for n, k <= 3 and m <= 6: v_op, u_op
    and s_alpha on each basis vector, psi_q on each partition with parts
    at most 3."""
    cases = []
    for m in range(7):
        for lam in partitions_of(m):
            v = basis(lam)
            for k in range(4):
                cases.append((partial(fock.v_op, k, v, n), _strip_sum(True, k, v, n)))
                cases.append((partial(fock.u_op, k, v, n), _strip_sum(False, k, v, n)))
                for alpha in partitions_of(k):
                    cases.append(
                        (partial(fock.s_alpha, alpha, v, n), _s_alpha_by_permutations(alpha, v, n))
                    )
            if lam[:1] <= (3,):
                want = basis(())
                for k in reversed(lam):
                    want = _strip_sum(True, k, want, n)
                cases.append((partial(fock.psi_q, lam, n), want))
    return cases


@pytest.mark.parametrize("n", [2, 3, 4])
def test_strip_operators_equal_the_direct_strip_sums(monkeypatch, n):
    # first cold, building every image, then warm, where every image is read
    # and no strip is walked
    def refuse(p, n, k):
        raise AssertionError("a stored strip image was walked again")

    cases = _strip_cases(n)
    wedge.clear_caches()
    try:
        for op, want in cases:
            assert op() == want, op
        monkeypatch.setattr(fock, "ribbon_strips_above", refuse)
        monkeypatch.setattr(fock, "ribbon_strips_below", refuse)
        for op, want in cases:
            assert op() == want, op
    finally:
        wedge.clear_caches()


def test_strip_images_live_until_clear_caches(monkeypatch):
    v = FockVector({(3, 1): P({-1: 2, 2: -1}), (2,): LaurentPoly.monomial(1, 1)})
    walks = []

    def counted(real, above):
        def strips(p, n, k):
            walks.append((above, p, k))
            return real(p, n, k)
        return strips

    wedge.clear_caches()
    monkeypatch.setattr(fock, "ribbon_strips_above", counted(fock.ribbon_strips_above, True))
    monkeypatch.setattr(fock, "ribbon_strips_below", counted(fock.ribbon_strips_below, False))
    try:
        want = {above: _strip_sum(above, 1, v, 2) for above in (True, False)}
        # one walk per basis vector and direction, however often it is read
        for _ in range(2):
            assert fock.v_op(1, v, 2) == want[True]
            assert fock.u_op(1, v, 2) == want[False]
        first = sorted(walks)
        assert first == sorted((above, p, 1) for above in (True, False) for p in v.terms)
        assert fock.strip_basis.cache_info().currsize == 4
        wedge.clear_caches()
        assert fock.strip_basis.cache_info().currsize == 0
        assert fock.v_op(1, v, 2) == want[True]
        assert fock.u_op(1, v, 2) == want[False]
        assert sorted(walks) == sorted(first * 2)
    finally:
        wedge.clear_caches()


def test_strip_images_are_unchanged_by_multi_term_coefficients():
    wedge.clear_caches()
    try:
        lam, n = (3, 1), 2
        images = {above: fock.strip_basis(1, lam, n, above) for above in (True, False)}
        assert all(images.values())
        before = {above: [(p, list(pairs)) for p, pairs in image] for above, image in images.items()}
        v = FockVector({lam: P({-2: 3, 0: -1, 1: 2}), (2,): P({1: -1})})
        for above, op in ((True, fock.v_op), (False, fock.u_op)):
            got = op(1, v, n)
            assert got == _strip_sum(above, 1, v, n)
            assert op(1, v, n) == got
        for above, image in images.items():
            assert fock.strip_basis(1, lam, n, above) is image
            assert [(p, list(pairs)) for p, pairs in image] == before[above]
    finally:
        wedge.clear_caches()


def test_strip_images_hold_the_shared_monomials():
    wedge.clear_caches()
    try:
        terms = [pairs for p in partitions_of(6) for above in (True, False)
                 for _, pairs in fock.strip_basis(2, p, 2, above)]
        assert len({id(pairs) for pairs in terms}) == len(set(terms)) < len(terms)
        assert all(LaurentPoly(pairs).terms() is pairs for pairs in terms)
    finally:
        wedge.clear_caches()


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


def test_b_action_heisenberg_relation_on_long_windows():
    # B_{-6} at n=2 moves one entry 12 places: past every entry of |321> and
    # |22>, and of the words B_6 then brings back
    k, n = 6, 2
    scalar = P({-2 * k * j: k for j in range(n)})
    t0 = time.perf_counter()
    for lam in ((3, 2, 1), (2, 2)):
        v = basis(lam)
        lhs = fock.b_action(k, fock.b_action(-k, v, n), n) - \
            fock.b_action(-k, fock.b_action(k, v, n), n)
        assert lhs == v.scale(scalar)
    assert time.perf_counter() - t0 < 1.0


def test_b_action_below_degree_kn_is_zero_without_straightening(monkeypatch):
    def refuse(word, n):
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


def test_vector_pretty_orders_by_degree_then_revlex():
    order = [p for m in range(11) for p in revlex_order(m)]
    shuffled = order[:]
    random.Random(0).shuffle(shuffled)
    v = FockVector({p: P({0: 1}) for p in shuffled})
    assert v.pretty() == " + ".join(f"|{partition_label(p)}>" for p in order)


def test_vector_pretty_does_not_enumerate_the_degree():
    # 201 terms of degree 400: revlex_order(400) would not fit in memory
    v = FockVector({(400 - j, j) if j else (400,): P({j: 1}) for j in range(201)})
    t0 = time.perf_counter()
    text = v.pretty()
    assert time.perf_counter() - t0 < 1.0
    assert text.startswith("|[400]> + q|[399,1]> + q^2|[398,2]>")
    assert text.endswith("q^200|[200,200]>")


@pytest.mark.parametrize("key", [(1, 2), (0,), (-1,), (2, 0)])
@pytest.mark.parametrize(
    "op",
    [
        partial(fock.f_action, 0),
        partial(fock.f_action, 5),  # no residue 5 at n=2
        partial(fock.e_action, 0),
        partial(fock.v_op, 1),
        partial(fock.u_op, 1),
        partial(fock.s_alpha, (2, 1)),
        partial(fock.b_action, -1),
        partial(fock.b_action, 1),  # (0,) and (-1,) lie below degree kn = 2
    ],
    ids=["f_action", "f_action_no_residue", "e_action", "v_op", "u_op", "s_alpha",
         "b_action", "b_action_lowering"],
)
def test_operators_reject_a_key_that_is_not_a_partition(op, key):
    wedge.clear_caches()  # the checks run on the memos' misses
    try:
        with pytest.raises(ValueError, match="positive|weakly decreasing"):
            op(FockVector({key: ONE}), 2)
    finally:
        wedge.clear_caches()
