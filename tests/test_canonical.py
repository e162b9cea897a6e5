import dataclasses
import gc
from itertools import zip_longest

import pytest

from fockcanon import canonical, fock, verify, wedge
from fockcanon.canonical import (
    NotApplicableError,
    TransitionMatrix,
    a_matrix,
    adjoint_matrix,
    blocks,
    canonical_lower,
    canonical_upper,
    check_duality,
    domino_theorem_check,
    lower_by_walk,
    steinberg_decompose,
    steinberg_g_minus,
)
from fockcanon.fock import FockVector
from fockcanon.laurent import ONE, ZERO, LaurentPoly, NotAntisymmetricError, antisym_split
from fockcanon.partitions import (
    conjugate,
    dominance_leq,
    is_n_regular,
    n_core_quotient,
    partitions_of,
    revlex_order,
)

P = LaurentPoly.from_terms


def test_a_matrix_reproduces_reference_tables():
    for m in (2, 3, 4):
        assert a_matrix(2, m) == verify.reference_bar_matrix(m)


def test_a_matrix_entry_example():
    assert a_matrix(2, 4).entry((1, 1, 1, 1), (4,)) == P({2: 1, 0: -1})


def test_a_matrix_involution_and_symmetry():
    for n in (2, 3, 4):
        for m in range(6):
            a = a_matrix(n, m)
            assert a.bar_entries().matmul(a).is_identity()
            for lam in revlex_order(m):
                for mu in revlex_order(m):
                    assert a.entry(lam, mu) == a.entry(conjugate(mu), conjugate(lam))


def test_canonical_upper_reproduces_reference_tables():
    for m in range(2, 7):
        assert canonical_upper(2, m) == verify.reference_upper_matrix(m)


def test_canonical_upper_m2():
    d = canonical_upper(2, 2)
    assert d.column((2,)) == FockVector({(2,): ONE, (1, 1): P({1: 1})})
    assert d.column((1, 1)) == FockVector.basis((1, 1))


def test_canonical_upper_identity_when_no_ribbon_fits():
    for m in range(5):
        n = max(m + 1, 2)
        assert canonical_upper(n, m).is_identity()
        assert canonical_lower(n, m).is_identity()


def test_canonical_lower_examples():
    e = canonical_lower(2, 2)
    assert e.row((2,)) == FockVector({(2,): ONE, (1, 1): P({-1: -1})})
    assert e.row((1, 1)) == FockVector.basis((1, 1))


def test_canonical_lower_core_is_bare():
    for n in (2, 3):
        for m in range(6):
            e = canonical_lower(n, m)
            for lam in partitions_of(m):
                core, quot = n_core_quotient(lam, n)
                if core == lam:
                    assert e.row(lam) == FockVector.basis(lam)


def _bar_correction_basis(n, m, lower):
    """Slow oracle: from |mu> upward in revlex, cancel the revlex-maximal
    defect of bar(v) - v with an earlier basis vector until v is bar-invariant."""
    index = {p: i for i, p in enumerate(revlex_order(m))}
    basis = {}
    for block in blocks(n, m).values():
        for mu in reversed(block):
            v = FockVector.basis(mu)
            while True:
                delta = fock.bar(v, n) - v
                if not delta:
                    break
                nu = min(delta.terms, key=lambda p: index[p])
                half, _ = antisym_split(dict(delta.terms[nu].terms()), lower)
                v = v + basis[nu].scale(LaurentPoly(half))
            basis[mu] = v
    return basis


def test_column_recursion_matches_bar_correction():
    for n in (2, 3, 4):
        for m in range(10):
            d = canonical_upper(n, m)
            for mu, v in _bar_correction_basis(n, m, lower=False).items():
                assert d.column(mu) == v, (n, m, mu)
            e = canonical_lower(n, m)
            for lam, v in _bar_correction_basis(n, m, lower=True).items():
                assert e.row(lam) == v, (n, m, lam)


@pytest.mark.parametrize(
    "mu, lam, poly, error",
    [
        # a[(1,1),(2)] = q - q^-1 at n=2; q alone breaks bar(A)A = I.
        ((2,), (1, 1), P({1: 1}), NotAntisymmetricError),
        # (2,1) is a 2-core, so it lies outside the block of (3).
        ((3,), (2, 1), ONE, AssertionError),
    ],
)
def test_broken_bar_image_fails_loudly(monkeypatch, mu, lam, poly, error):
    real = wedge.bar_degree

    def broken(m, n):
        images = dict(real(m, n))
        images[mu] = {**images[mu], lam: poly}  # the stored image stays as it is
        return images

    canonical_upper.cache_clear()
    canonical_lower.cache_clear()
    monkeypatch.setattr(wedge, "bar_degree", broken)
    try:
        with pytest.raises(error):
            canonical_upper(2, sum(mu))
        with pytest.raises(error):
            canonical.lower_by_walk(2, sum(mu))
    finally:
        canonical_upper.cache_clear()
        canonical_lower.cache_clear()


@pytest.mark.parametrize(
    "mu, lam, message",
    [
        # (5) precedes (3,2) in revlex within the 2-core (1) block
        ((3, 2), (5,), r"column \(3, 2\) has an entry at \(5,\), above its diagonal"),
        # (2,1) is a 2-core, so it lies outside the block of (3)
        ((3,), (2, 1), r"column \(3,\) has an entry at \(2, 1\), outside its 2-core block"),
    ],
    ids=["above-diagonal", "across-blocks"],
)
def test_broken_bar_image_names_the_entry(monkeypatch, mu, lam, message):
    real = wedge.bar_degree
    settled = []

    def broken(m, n):
        images = dict(real(m, n))
        images[mu] = {**images[mu], lam: ONE}
        return images

    def counted(acc, lower):
        settled.append(lower)
        return antisym_split(acc, lower=lower)

    # the broken block is the first one walked, so the walk must raise
    # before it settles any row at all
    assert mu in next(iter(blocks(2, sum(mu)).values()))
    canonical_upper.cache_clear()
    canonical_lower.cache_clear()
    monkeypatch.setattr(wedge, "bar_degree", broken)
    monkeypatch.setattr(canonical, "antisym_split", counted)
    try:
        with pytest.raises(AssertionError, match=message):
            canonical_upper(2, sum(mu))
        with pytest.raises(AssertionError, match=message):
            canonical.lower_by_walk(2, sum(mu))
        assert settled == []
    finally:
        canonical_upper.cache_clear()
        canonical_lower.cache_clear()


def test_bar_image_outside_its_block_fails_a_matrix(monkeypatch):
    real = wedge.bar_degree

    def broken(m, n):
        images = dict(real(m, n))
        images[(3,)] = {**images[(3,)], (2, 1): ONE}  # (2,1) is a 2-core
        return images

    monkeypatch.setattr(wedge, "bar_degree", broken)
    with pytest.raises(AssertionError, match=r"bar\|\(3,\)> leaves its n-core block"):
        a_matrix(2, 3)
    assert (2, 1) not in real(3, 2)[(3,)]  # the stored image is untouched


def test_constant_term_in_a_sum_fails_loudly(monkeypatch):
    # a[(1,1),(2)] = q - q^-1 at n=2; adding 1 leaves a q^0 term in the sum
    # of row (1,1), which no bar-antisymmetric polynomial has
    real = wedge.bar_degree

    def broken(m, n):
        images = dict(real(m, n))
        images[(2,)] = {**images[(2,)], (1, 1): P({1: 1, 0: 1, -1: -1})}
        return images

    canonical_upper.cache_clear()
    canonical_lower.cache_clear()
    monkeypatch.setattr(wedge, "bar_degree", broken)
    try:
        with pytest.raises(NotAntisymmetricError):
            canonical_upper(2, 2)
        with pytest.raises(NotAntisymmetricError):
            canonical.lower_by_walk(2, 2)
    finally:
        canonical_upper.cache_clear()
        canonical_lower.cache_clear()


def test_sums_that_cancel_leave_no_entry():
    # hundreds of the walks' sums cancel to zero in this range (238 at n=2,
    # m=9); the walk skips their rows instead of storing a zero entry
    for n in (2, 3, 4):
        for m in range(10):
            d = canonical_upper(n, m)
            for mat in (d, canonical_lower(n, m), adjoint_matrix(d)):
                assert all(mat.entries.values()), (mat.kind, n, m)


# Evidence that D holds q-decomposition numbers, as the paper conjectures.
CONJECTURE_RANGE = ((2, 10), (3, 9), (4, 9))


def test_upper_coefficients_are_nonnegative():
    # Varagnolo-Vasserot: every coefficient of every d_{lam mu}(q) is >= 0.
    for n, top in CONJECTURE_RANGE:
        for m in range(top + 1):
            for (lam, mu), poly in canonical_upper(n, m).entries.items():
                assert all(a >= 0 for _, a in poly.terms()), (n, lam, mu, poly)


@pytest.mark.parametrize("side", ["row", "column"])
def test_upper_first_row_and_column_removal(side):
    # Chuang-Miyachi-Tan: d_{lam mu} = d_{lam' mu'} when lam and mu share
    # their first row (column), lam' and mu' being lam and mu without it.
    flip = conjugate if side == "column" else tuple
    pairs = 0
    for n, top in CONJECTURE_RANGE:
        d = [canonical_upper(n, m) for m in range(top + 1)]
        for m in range(1, top + 1):
            for lam in revlex_order(m):
                for mu in revlex_order(m):
                    a, b = flip(lam), flip(mu)
                    if a[0] == b[0]:
                        pairs += 1
                        smaller = d[m - a[0]].entry(flip(a[1:]), flip(b[1:]))
                        assert d[m].entry(lam, mu) == smaller, (n, lam, mu)
    assert pairs == 1202


def test_bar_invariance_of_bases():
    for n in (2, 3):
        for m in range(6):
            d = canonical_upper(n, m)
            e = canonical_lower(n, m)
            for mu in revlex_order(m):
                assert fock.bar(d.column(mu), n) == d.column(mu)
                assert fock.bar(e.row(mu), n) == e.row(mu)


def test_congruence_rings():
    for n in (2, 3):
        for m in range(7):
            for (lam, mu), poly in canonical_upper(n, m).entries.items():
                if lam != mu:
                    assert poly.in_positive_ring()
            for (lam, mu), poly in canonical_lower(n, m).entries.items():
                if lam != mu:
                    assert poly.in_negative_ring()


def test_triangularity_and_blocks():
    for n in (2, 3):
        for m in range(7):
            for (lam, mu), _ in canonical_upper(n, m).entries.items():
                assert dominance_leq(lam, mu)
                assert n_core_quotient(lam, n)[0] == n_core_quotient(mu, n)[0]
            for (lam, mu), _ in canonical_lower(n, m).entries.items():
                assert dominance_leq(mu, lam)


def test_blocks_partition_the_degree():
    for n in (2, 3):
        for m in range(7):
            blk = blocks(n, m)
            seen = [p for members in blk.values() for p in members]
            assert sorted(seen) == sorted(revlex_order(m))


def test_adjoint_matrix_m2():
    c = adjoint_matrix(canonical_upper(2, 2))
    assert c.entry((2,), (2,)) == ONE
    assert c.entry((1, 1), (2,)) == P({1: -1})
    assert c.entry((1, 1), (1, 1)) == ONE


def test_adjoint_of_identity():
    d = canonical_upper(7, 3)  # no 7-ribbon fits in a partition of 3
    assert d.is_identity()
    assert adjoint_matrix(d).is_identity()


def _forward_substitution_inverse(d):
    """Slow oracle for C = D^-1: forward substitution over the whole revlex
    order, one entry lookup per pair, blind to the n-core blocks."""
    order = d.order
    entries = {}
    for i, mu in enumerate(order):
        x = {mu: ONE}
        for lam in order[i + 1 :]:
            s = ZERO
            for nu, val in x.items():
                s = s + d.entry(lam, nu) * val
            if s:
                x[lam] = -s
        for lam, val in x.items():
            entries[(lam, mu)] = val
    return entries


def test_block_walk_matches_forward_substitution():
    for n in (2, 3, 4):
        for m in range(10):
            d = canonical_upper(n, m)
            assert adjoint_matrix(d).entries == _forward_substitution_inverse(d), (n, m)


@pytest.mark.parametrize(
    "extra, message",
    [
        (((5,), (3, 2)), r"column \(3, 2\) has an entry at \(5,\), above its diagonal"),
        (((4, 1), (3, 2)), r"column \(3, 2\) has an entry at \(4, 1\), outside its 2-core block"),
    ],
    ids=["above-diagonal", "across-blocks"],
)
def test_broken_upper_matrix_fails_loudly(extra, message):
    # (5) precedes (3,2) in revlex within the 2-core (1) block; (4,1) has
    # 2-core (2,1), so it lies outside that block
    d = canonical_upper(2, 5)
    broken = TransitionMatrix("D", 2, 5, {**d.entries, extra: ONE})
    with pytest.raises(AssertionError, match=message):
        adjoint_matrix(broken)


def test_d_times_c_is_identity():
    for n in (2, 3):
        for m in range(7):
            d = canonical_upper(n, m)
            assert d.matmul(adjoint_matrix(d)).is_identity()


def test_duality_examples():
    c = adjoint_matrix(canonical_upper(2, 2))
    e = canonical_lower(2, 2)
    assert c.entry((1, 1), (2,)) == P({1: -1})
    assert e.entry((2,), (1, 1)).bar() == P({1: -1})
    assert check_duality(e, c)


def test_duality_sweep():
    # E by its own walk: canonical_lower is C relabelled
    for n in (2, 3):
        for m in range(7):
            assert check_duality(
                lower_by_walk(n, m), adjoint_matrix(canonical_upper(n, m))
            )


def _lower_walks(monkeypatch) -> list:
    """(n, m) of every walk for E from here on."""
    walks = []
    real = canonical._canonical_basis

    def counted(n, m, lower):
        if lower:
            walks.append((n, m))
        return real(n, m, lower)

    monkeypatch.setattr(canonical, "_canonical_basis", counted)
    return walks


def _off_c_mismatches(n, m, walks) -> list:
    """The keys where E, read off C, differs from E's walk."""
    canonical_lower.cache_clear()
    walks.clear()
    routed = canonical_lower(n, m).entries
    assert walks == [], f"E walked at n={n}, m={m}"
    walked = lower_by_walk(n, m).entries
    return sorted(k for k in routed.keys() | walked.keys() if routed.get(k) != walked.get(k))


def test_e_read_off_c_equals_the_walk(monkeypatch):
    walks = _lower_walks(monkeypatch)
    for n in (2, 3, 4):
        for m in range(11):
            assert _off_c_mismatches(n, m, walks) == [], (n, m)


def test_one_exponent_of_c_moved_fails_through_e(monkeypatch):
    walks = _lower_walks(monkeypatch)
    real = adjoint_matrix
    c = real(canonical_upper(3, 6))
    key = min(k for k, v in c.entries.items() if k[0] != k[1] and len(v.terms()) == 1)
    ((low, coef),) = c.entries[key].terms()

    def moved(d):
        c = real(d)
        return dataclasses.replace(c, entries={**c.entries, key: P({low + 1: coef})})

    monkeypatch.setattr(canonical, "adjoint_matrix", moved)
    try:
        assert _off_c_mismatches(3, 6, walks) == [(conjugate(key[0]), conjugate(key[1]))]
    finally:
        canonical_lower.cache_clear()


def test_e_runs_no_walk_of_its_own_once_d_is_cleared(monkeypatch):
    # the route of E does not depend on whether a D of its size is alive
    walks = _lower_walks(monkeypatch)
    canonical_upper(3, 7)
    canonical_lower.cache_clear()
    canonical_lower(3, 7)
    canonical_upper.cache_clear()
    canonical_lower.cache_clear()
    gc.collect()
    canonical_lower(3, 7)
    assert walks == []


def test_entries_are_one_object_per_distinct_value():
    """Every off-diagonal entry of A, D, E and C at (3,8), built from cleared
    memos, is the one shared object for its value.  (The diagonal holds the
    ONE made at import, which a clear leaves as a second object of that
    value.)"""
    wedge.clear_caches()
    canonical_upper.cache_clear()
    canonical_lower.cache_clear()
    try:
        d = canonical_upper(3, 8)
        mats = [a_matrix(3, 8), d, canonical_lower(3, 8), adjoint_matrix(d)]
        values = [v for mat in mats for (lam, mu), v in mat.entries.items() if lam != mu]
        assert len({id(v) for v in values}) == len(set(values)) < len(values) // 4
    finally:
        wedge.clear_caches()
        canonical_upper.cache_clear()
        canonical_lower.cache_clear()


def test_steinberg_examples():
    assert steinberg_g_minus((2,), 2) == FockVector(
        {(2,): ONE, (1, 1): P({-1: -1})}
    )
    vac = FockVector.basis(())
    assert steinberg_g_minus((2, 2), 2) == fock.s_alpha((1, 1), vac, 2)
    assert steinberg_decompose((2, 2), 2) == ((), (1, 1))


def test_steinberg_applies_to_31():
    # (3,1)' = (2,1,1) repeats the part 1 twice, so it is 2-singular and the
    # factorization applies: (3,1) = (1,1) + 2*(1)
    assert steinberg_decompose((3, 1), 2) == ((1, 1), (1,))
    assert steinberg_g_minus((3, 1), 2) == canonical_lower(2, 4).row((3, 1))


def test_steinberg_not_applicable():
    with pytest.raises(NotApplicableError):
        steinberg_g_minus((2, 1), 2)  # (2,1)' = (2,1) is 2-regular


def _steinberg_by_conjugates(p, n):
    """Oracle: each part value of p' keeps its multiplicity mod n in mu', and
    the quotients go to alpha' n-fold."""
    pc = conjugate(p)
    if is_n_regular(pc, n):
        raise NotApplicableError(f"conjugate of {p} is {n}-regular")
    mu_c, alpha_c = [], []
    for value in sorted(set(pc), reverse=True):
        mu_c += [value] * (pc.count(value) % n)
        alpha_c += [value] * (pc.count(value) // n)
    return conjugate(tuple(mu_c)), conjugate(tuple(alpha_c))


def test_steinberg_decompose_matches_conjugate_oracle():
    for n in (2, 3, 4):
        for m in range(13):
            for lam in partitions_of(m):
                try:
                    expected = _steinberg_by_conjugates(lam, n)
                except NotApplicableError:
                    with pytest.raises(NotApplicableError):
                        steinberg_decompose(lam, n)
                    continue
                mu, alpha = steinberg_decompose(lam, n)
                assert (mu, alpha) == expected, (n, lam)
                rows = zip_longest(mu, alpha, fillvalue=0)
                assert tuple(a + n * b for a, b in rows) == lam


def test_steinberg_sweep():
    for n in (2, 3):
        for m in range(7):
            e = canonical_lower(n, m)
            for lam in partitions_of(m):
                if is_n_regular(conjugate(lam), n):
                    continue
                assert steinberg_g_minus(lam, n) == e.row(lam)


def test_domino_entry_examples():
    e2 = canonical_lower(2, 2)
    assert e2.entry((2,), (1, 1)) == P({-1: -1})
    assert e2.entry((2,), (2,)) == ONE


def test_domino_theorem_small():
    for m in (2, 4, 6):
        report = domino_theorem_check(m)
        assert report.ok, report.mismatches
        assert report.checked > 0


def test_domino_theorem_requires_even():
    with pytest.raises(ValueError):
        domino_theorem_check(3)
