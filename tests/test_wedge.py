import sys
from collections import Counter
from itertools import product
from random import Random

import pytest

from fockcanon import canonical, fock, partitions, wedge
from fockcanon.wedge import _kernel
from fockcanon.laurent import LaurentPoly
from fockcanon.partitions import conjugate, is_n_regular, node_row, partitions_of
from test_partitions import _oracle_variants

P = LaurentPoly.from_terms
Q = LaurentPoly.monomial


def test_partition_to_word_examples():
    assert wedge.partition_to_word((2,), 2) == (2, -1)
    assert wedge.partition_to_word((), 3) == (0, -1, -2)
    assert wedge.partition_to_word((1, 1), 2) == (1, 0)


def test_partition_to_word_k_too_small():
    with pytest.raises(wedge.KTooSmallError):
        wedge.partition_to_word((1, 1, 1), 2)


def test_word_to_partition_examples():
    assert wedge.word_to_partition((2, -1)) == (2,)
    assert wedge.word_to_partition((1, 0)) == (1, 1)
    assert wedge.word_to_partition((0, -1, -2)) == ()


def test_word_to_partition_rejects_unordered():
    with pytest.raises(wedge.NotNormallyOrderedError):
        wedge.word_to_partition((0, 1))
    with pytest.raises(wedge.NotNormallyOrderedError):
        wedge.word_to_partition((0, -5))


def test_word_round_trip():
    for m in range(8):
        for lam in partitions_of(m):
            for K in (max(len(lam), 1), len(lam) + 2):
                assert wedge.word_to_partition(wedge.partition_to_word(lam, K)) == lam


def test_straighten_examples():
    # output words are minimal heads: trailing tail values are stripped,
    # so u_2 ^ u_-1 ^ ... is keyed (2,)
    assert wedge.straighten((0, 1), 2) == {(1, 0): P({-1: -1})}
    assert wedge.straighten((-1, 2), 2) == {
        (2,): P({-1: -1}),
        (1, 0): P({-2: 1, 0: -1}),
    }
    assert wedge.straighten((3, 0), 2) == {(3, 0): P({0: 1})}


def test_straighten_idempotent_and_degree_preserving():
    for n in (2, 3):
        for m in range(7):
            for lam in partitions_of(m):
                word = wedge.partition_to_word(lam, max(m, 1))
                for res, _ in wedge.straighten(word[::-1], n).items():
                    assert wedge.straighten(res, n) == {res: P({0: 1})}
                    assert sum(wedge.word_to_partition(res)) == m


def test_adjacent_repeat_vanishes():
    assert wedge.straighten((1, 1), 2) == {}
    assert wedge.straighten((0, 3, 3), 2) == {}


def test_nonadjacent_repeat_reduces():
    # repeated non-adjacent letters are not dropped: they reduce through the
    # exchange rule and can leave genuine lower terms behind
    assert wedge.straighten((0, 3, 0), 2) == {(2, 1, 0): P({-2: 1, 0: -1})}


def test_b_action_examples():
    assert wedge.b_action_words(-1, (), 2) == (((2,), ((0, 1),)), ((1, 1), ((-1, -1),)))
    assert wedge.b_action_words(-1, (), 3) == (
        ((3,), ((0, 1),)),
        ((2, 1), ((-1, -1),)),
        ((1, 1, 1), ((-2, 1),)),
    )
    assert wedge.b_action_words(1, (), 2) == ()


def test_b_action_deep_positions_vanish():
    # beyond (head length + kn) every modified word reduces to zero
    for n in (2, 3):
        for k in (1, 2):
            shift = k * n
            for j in range(shift, shift + n + 2):
                K = j + shift + 2
                w = tuple(-t for t in range(K))
                moved = w[:j] + (w[j] + shift,) + w[j + 1 :]
                assert wedge.straighten(moved, n) == {}


def _b_action_by_moved_words(k: int, p, n: int) -> dict:
    """Oracle for b_action_words: B_k|p> as {partition: LaurentPoly}, every
    moved word straightened in full."""
    shift = abs(k) * n
    delta = shift if k < 0 else -shift
    out: dict = {}
    base = wedge.partition_to_word(p, len(p))
    span = len(base) + shift
    w = wedge.extend_head(base, span + shift)
    for j in range(span):
        moved = w[:j] + (w[j] + delta,) + w[j + 1 :]
        for res, poly in wedge.straighten(moved, n).items():
            _add(out, wedge.word_to_partition(res), poly)
    return out


def _assert_b_image(image, k: int, p, n: int) -> None:
    """image, a tuple of (partition, pairs) terms, is B_k|p>: each partition
    once, with the canonical pairs of its coefficient."""
    want = _b_action_by_moved_words(k, p, n)
    assert len(image) == len(want), (n, k, p)
    assert dict(image) == {nu: c.terms() for nu, c in want.items()}, (n, k, p)


def test_b_action_windows_match_moved_words():
    # partitions up to m = 7 move entries past equal ones (the zero rule)
    # and past windows on either side of the moved entry
    for n in (2, 3, 4):
        for k in (1, -1, 2, -2, 3, -3):
            for m in range(8):
                for lam in partitions_of(m):
                    _assert_b_image(wedge.b_action_words(k, lam, n), k, lam, n)


def test_b_basis_is_b_action_words_on_the_basis_word():
    # one warm memo across n and the sign of k: a key that left out either
    # would hand back another image
    wedge.clear_caches()
    try:
        for n in (2, 3, 4):
            for k in (1, -1, 2, -2, 3, -3):
                for m in range(8):
                    for lam in partitions_of(m):
                        _assert_b_image(wedge.b_basis(k, lam, n), k, lam, n)
    finally:
        wedge.clear_caches()


def test_b_action_reads_the_images_until_clear_caches(monkeypatch):
    v = fock.FockVector({(3, 1): P({-1: 2, 2: -1}), (2,): Q(1)})
    wedge.clear_caches()
    warm = fock.b_action(-2, v, 3)
    wedge.bar_basis((2, 2), 3)
    fock.f_action(0, v, 3)
    fock.v_op(1, v, 3)
    memos = (wedge._bar_image, wedge._straightened, wedge.b_basis, fock.strip_basis, node_row)
    assert all(memo.cache_info().currsize for memo in memos)

    def refuse(k, wv, n):
        raise AssertionError("a stored B_k image was computed again")

    monkeypatch.setattr(wedge, "b_action_words", refuse)
    before = wedge.b_basis.cache_info()
    assert fock.b_action(-2, v, 3) == warm
    after = wedge.b_basis.cache_info()
    assert after.hits > before.hits and after.misses == before.misses
    wedge.clear_caches()
    assert [memo.cache_info().currsize for memo in memos] == [0] * len(memos)
    with pytest.raises(AssertionError, match="computed again"):
        fock.b_action(-2, v, 3)


def test_b_images_are_unchanged_by_multi_term_coefficients():
    wedge.clear_caches()
    try:
        lam, n = (2, 1), 2
        images = {k: wedge.b_basis(k, lam, n) for k in (-1, 1)}
        before = {k: [(p, list(pairs)) for p, pairs in image] for k, image in images.items()}
        c = P({-2: 3, 0: -1, 1: 2})
        v = fock.FockVector({lam: c, (1,): Q(-1, 1)})
        for k in (-1, 1):
            got = fock.b_action(k, v, n)
            want: dict = {}
            for p, coeff in v.items():
                for nu, poly in _b_action_by_moved_words(k, p, n).items():
                    _add(want, nu, coeff * poly)
            assert got == fock.FockVector(want)
            assert fock.b_action(k, v, n) == got
        for k, image in images.items():
            assert wedge.b_basis(k, lam, n) is image
            assert [(p, list(pairs)) for p, pairs in image] == before[k]
    finally:
        wedge.clear_caches()


def test_straighten_memo_is_up_to_a_shift(monkeypatch):
    calls = []
    real = _kernel.straighten_terms

    def counted(word, n):
        calls.append(n)
        return real(word, n)

    monkeypatch.setattr(_kernel, "straighten_terms", counted)
    w = (0, 4, -1, 5, 2)
    for c in (7, -3):
        wedge.clear_caches()
        base = wedge._straighten_minimal(w, 3)
        moved = wedge._straighten_minimal(tuple(v + c for v in w), 3)
        assert len(calls) == 1
        calls.clear()
        assert base
        assert moved == tuple((tuple(v + c for v in res), poly) for res, poly in base)
    wedge.clear_caches()


def test_bar_basis_examples():
    assert wedge.bar_basis((2,), 2) == {
        (2,): P({0: 1}),
        (1, 1): P({1: 1, -1: -1}),
    }
    assert wedge.bar_basis((1,), 2) == {(1,): P({0: 1})}
    assert wedge.bar_basis((1,), 3) == {(1,): P({0: 1})}
    assert wedge.bar_basis((), 2) == {(): P({0: 1})}


def _bar_by_straightening(p, n: int, k: int | None = None) -> dict:
    """Oracle for bar_basis: the bar involution of the basis vector of p by
    word reversal.

    Reverses the first k head entries (k >= |p|, default max(|p|, 1)) and
    multiplies by (-1)^C(k,2) q^a where a counts the pairs r < s <= k with
    i_r - i_s not divisible by n, that is C(k,2) less the pairs within one
    residue class; the result is independent of k.
    """
    m = sum(p)
    if k is None:
        k = max(m, 1)
    if k < max(m, 1):
        raise ValueError(f"need k >= max(|p|, 1) = {max(m, 1)}")
    word = wedge.partition_to_word(p, k)
    same_residue = Counter(v % n for v in word).values()
    alpha = k * (k - 1) // 2 - sum(c * (c - 1) // 2 for c in same_residue)
    sign = -1 if (k * (k - 1) // 2) % 2 else 1
    pref = LaurentPoly.monomial(sign, alpha)
    return {
        wedge.word_to_partition(res): pref * poly
        for res, poly in wedge.straighten(word[::-1], n).items()
    }


def test_bar_basis_k_independence():
    for n in (2, 3):
        for m in range(7):
            for lam in partitions_of(m):
                k0 = max(m, 1)
                base = _bar_by_straightening(lam, n, k0)
                assert _bar_by_straightening(lam, n, k0 + 1) == base
                assert _bar_by_straightening(lam, n, k0 + 2) == base


def test_bar_basis_k_too_small():
    with pytest.raises(ValueError):
        _bar_by_straightening((2, 1), 2, 2)


def _recursion_mismatches(ns, max_m) -> list:
    """(n, lam) whose bar image built through f_i or S_alpha differs from
    straightening."""
    wedge.clear_caches()
    try:
        return [
            (n, lam)
            for n in ns
            for m in range(max_m + 1)
            for lam in partitions_of(m)
            if wedge.bar_basis(lam, n) != _bar_by_straightening(lam, n)
        ]
    finally:
        wedge.clear_caches()


def test_bar_recursion_matches_straightening():
    # The only independent check of the f_i and S_alpha recursions: exponents
    # negated in the f_i step, or un-barred coefficients in the S-step, still
    # give unitriangular columns and pass the recursion's own check, but
    # change bar images (see test_broken_f_step_is_caught and
    # test_broken_s_step_is_caught).
    assert _recursion_mismatches((2, 3, 4), 9) == []


def test_f_step_fallback_partitions():
    fallback = [lam for lam in partitions_of(4) if node_row(lam, 2)[0] is None]
    assert fallback == [(2, 2), (1, 1, 1, 1)]
    assert node_row((6, 6), 2)[0] is None
    assert node_row((3, 3, 3, 1), 3)[0] is None
    assert node_row((2, 1), 2)[0] == (1, (1, 1))


def _f_step_by_rim_scan(lam, n: int):
    """Oracle for the f-step of a row: (i, mu) with lam = mu + b for the
    first removable node b in rim order whose residue i has no addable node
    of lam before b; None when there is no such node."""
    seen = set()
    for sign, r, i in partitions.rim_nodes(lam, n):
        if sign > 0:
            seen.add(i)
        elif i not in seen:
            return i, partitions.remove_node(lam, r)
    return None


def test_node_rows_match_rim_scans():
    for n in (2, 3, 4):
        for m in range(11):
            for lam in partitions_of(m):
                step, variants = node_row(lam, n)
                assert step == _f_step_by_rim_scan(lam, n)
                assert variants == tuple(tuple(_oracle_variants(lam, i, n)[0]) for i in range(n))


def _count_rim_scans(monkeypatch) -> list:
    scans = []
    real = partitions.rim_nodes

    def counted(p, n):
        scans.append(p)
        return real(p, n)

    monkeypatch.setattr(partitions, "rim_nodes", counted)
    return scans


def test_cold_a_matrix_scans_each_rim_once(monkeypatch):
    scans = _count_rim_scans(monkeypatch)
    wedge.clear_caches()
    try:
        canonical.a_matrix(3, 10)
    finally:
        wedge.clear_caches()
    assert len(scans) == 139 == sum(1 for m in range(11) for _ in partitions_of(m))
    assert len(set(scans)) == 139


def test_node_rows_live_until_clear_caches(monkeypatch):
    scans = _count_rim_scans(monkeypatch)
    wedge.clear_caches()
    try:
        canonical.a_matrix(2, 6)
        first = list(scans)
        # warm: the images up to degree 6 and their rows are kept, so only
        # the partitions of degree 7 are scanned, each once
        canonical.a_matrix(2, 7)
        assert sorted(scans[len(first) :]) == sorted(partitions_of(7))
        # cold again: every rim is scanned again
        both = list(scans)
        wedge.clear_caches()
        canonical.a_matrix(2, 7)
        assert sorted(scans[len(both) :]) == sorted(both)
    finally:
        wedge.clear_caches()


def test_f_action_and_the_f_step_read_one_memo(monkeypatch):
    scans = _count_rim_scans(monkeypatch)
    wedge.clear_caches()
    try:
        canonical.a_matrix(2, 6)
        cold = len(scans)
        for m in range(6):
            for lam in partitions_of(m):
                for i in range(2):
                    assert fock.f_action(i, fock.FockVector.basis(lam), 2) == fock.FockVector(
                        {mu: Q(1, n_r) for mu, n_r in _oracle_variants(lam, i, 2)[0]}
                    )
        assert len(scans) == cold
        # a row cannot be changed in place, at any level
        row = node_row((2, 1), 2)
        want = ((1, (1, 1)), ((((3, 1), 0), ((2, 2), 1), ((2, 1, 1), 2)), ()))
        assert row == want
        for part in (row, row[1], row[1][0], row[1][0][0]):
            with pytest.raises(TypeError):
                part[0] = None
        assert node_row((2, 1), 2) == want
    finally:
        wedge.clear_caches()


def test_warm_bar_basis_does_not_enter_the_build():
    wedge.clear_caches()
    try:
        a = canonical.a_matrix(2, 4)
        before = wedge._bar_image.cache_info()
        for mu in a.order:
            assert wedge.bar_basis(mu, 2) == a.column(mu).terms
        assert canonical.a_matrix(2, 4) == a
        warm = wedge._bar_image.cache_info()
        assert warm.misses == before.misses
        assert warm.hits >= before.hits + len(a.order)
        wedge.bar_basis((5,), 2)
        assert wedge._bar_image.cache_info().misses > warm.misses
    finally:
        wedge.clear_caches()


def test_one_cold_image_builds_only_its_closure():
    wedge.clear_caches()
    try:
        wedge.bar_basis((4, 3, 3, 2, 1), 2)
        cold = wedge._bar_image.cache_info()
        # the images (4,3,3,2,1) needs, not every image of degree <= 13 (373)
        assert cold.currsize == cold.misses == 63
        wedge.bar_basis((4, 3, 3, 2, 1), 2)
        warm = wedge._bar_image.cache_info()
        assert (warm.hits, warm.misses, warm.currsize) == (cold.hits + 1, 63, 63)
    finally:
        wedge.clear_caches()


@pytest.mark.parametrize("lam", [(-1,), (0,), (1, 2), (2, 0)])
@pytest.mark.parametrize(
    "bar",
    [wedge.bar_basis, lambda lam, n: fock.bar(fock.FockVector({lam: Q(1)}), n)],
    ids=["bar_basis", "fock.bar"],
)
def test_bar_rejects_a_non_partition(bar, lam):
    with pytest.raises(ValueError, match="positive|weakly decreasing"):
        bar(lam, 2)


def test_f_step_top_coefficient_is_one():
    # _f_column relies on it: the f-step rule leaves no i-node of lam above
    # the node b that f_i adds to mu, so N_i^r = 0 for b
    steps = 0
    for n in (2, 3, 4, 5):
        for m in range(13):
            for lam in partitions_of(m):
                step = node_row(lam, n)[0]
                if step is not None:
                    i, mu = step
                    assert dict(node_row(mu, n)[1][i])[lam] == 0, (n, lam)
                    steps += 1
    assert steps > 0


@pytest.mark.parametrize("name", ["shifted", "negated"])
def test_broken_f_step_is_caught(monkeypatch, name):
    # the row add_node_variants reads; the f-step itself stays the real one
    real = partitions.node_row

    def broken(lam, n):
        step, variants = real(lam, n)
        return step, [
            [(mu, n_r + 1 if name == "shifted" else -n_r) for mu, n_r in row]
            for row in variants
        ]

    monkeypatch.setattr(partitions, "node_row", broken)
    if name == "shifted":
        # N_i^r + 1 breaks the unit diagonal, which the recursion checks
        with pytest.raises(AssertionError, match=r"bar\|\("):
            _recursion_mismatches((2, 3), 7)
    else:
        assert _recursion_mismatches((2, 3), 7)


def test_s_step_partitions():
    # (2,2) = () + 2*(1,1): S_(1,1)|0> = |22> - q^-1|211> + q^-2|1111>
    alpha, mu, top = wedge._s_step((2, 2), 2)
    assert (alpha, mu) == ((1, 1), ())
    assert top == {(2, 2): P({0: 1}), (2, 1, 1): P({-1: -1}), (1, 1, 1, 1): P({-2: 1})}
    assert wedge._s_step((1, 1, 1, 1), 2) is None
    assert wedge._s_step((3, 3, 3, 1), 3) is None
    wedge.clear_caches()


@pytest.mark.parametrize("name", ["unbarred", "flipped"])
def test_broken_s_step_is_caught(monkeypatch, name):
    real = wedge._s_step

    def broken(lam, n):
        step = real(lam, n)
        if step is None:
            return None
        alpha, mu, top = step
        if name == "unbarred":
            # _s_column bars these again, so it corrects with s_nu un-barred
            top = {nu: s if nu == lam else s.bar() for nu, s in top.items()}
        else:
            top = {nu: -s if nu == lam else s for nu, s in top.items()}
        return alpha, mu, top

    monkeypatch.setattr(wedge, "_s_step", broken)
    # both still give unitriangular columns, so only the oracle sees them
    assert (2, (2, 2)) in _recursion_mismatches((2, 3), 7)


def _scaled_s_sums(real, scale: int, shift: int):
    """The sparse S_alpha real, with every result times scale*q^shift."""
    def scaled(alpha, terms, n):
        return {
            p: {e + shift: scale * c for e, c in sums.items()}
            for p, sums in real(alpha, terms, n).items()
        }
    return scaled


def test_s_step_with_top_coefficient_minus_one(monkeypatch):
    # -S_alpha also commutes with bar and has top coefficient t = -1, so the
    # images it builds must still match straightening
    monkeypatch.setattr(fock, "s_sums", _scaled_s_sums(fock.s_sums, -1, 0))
    assert _recursion_mismatches((2, 3), 7) == []


def test_s_step_top_coefficient_must_be_a_sign(monkeypatch):
    monkeypatch.setattr(fock, "s_sums", _scaled_s_sums(fock.s_sums, 1, 1))
    wedge.clear_caches()
    try:
        with pytest.raises(AssertionError, match=r"S_\(1, 1\)\|\(\)> is not"):
            wedge.bar_basis((2, 2), 2)
    finally:
        wedge.clear_caches()


def test_the_wedge_layer_builds_no_vector(monkeypatch):
    # bar and B_k images come from one partition each, and the S-step hands
    # fock sparse sums: a cold a_matrix(2, 10), which takes S-steps, and B_k
    # on a partition run with every FockVector refused
    class Refused(fock.FockVector):
        def __init__(self, terms=None):
            raise AssertionError("the wedge layer built a FockVector")

    s_steps = []
    real = wedge._s_column

    def counted(lam, *args):
        s_steps.append(lam)
        return real(lam, *args)

    monkeypatch.setattr(fock, "FockVector", Refused)
    monkeypatch.setattr(wedge, "_s_column", counted)
    wedge.clear_caches()
    try:
        a = canonical.a_matrix(2, 10)
        image = wedge.b_action_words(-2, (3, 1), 2)
    finally:
        wedge.clear_caches()
    assert (2, 2) in s_steps and len(a.entries) > 42
    _assert_b_image(image, -2, (3, 1), 2)


def test_only_case_b_partitions_are_straightened(monkeypatch):
    # the row step is the only route that straightens: every kernel call of
    # a cold a_matrix(2, 8) comes from a row step, and the row step is taken
    # exactly for the case-(b) partitions
    calls = []
    rows = []
    inside = []
    real_kernel = wedge._kernel.straighten_terms
    real_row = wedge._row_column

    def counted(word, n):
        calls.append(bool(inside))
        return real_kernel(word, n)

    def recorded(lam, n):
        rows.append(lam)
        inside.append(lam)
        try:
            return real_row(lam, n)
        finally:
            inside.pop()

    monkeypatch.setattr(wedge._kernel, "straighten_terms", counted)
    monkeypatch.setattr(wedge, "_row_column", recorded)
    wedge.clear_caches()
    try:
        canonical.a_matrix(2, 8)
    finally:
        wedge.clear_caches()
    case_b = [
        lam
        for m in range(1, 9)
        for lam in partitions_of(m)
        if node_row(lam, 2)[0] is None and is_n_regular(conjugate(lam), 2)
    ]
    assert len(case_b) == 8
    assert sorted(rows) == sorted(case_b)
    assert calls and all(calls)


def test_clear_caches_makes_bar_images_cold(monkeypatch):
    canonical.a_matrix(2, 6)
    before = wedge._bar_image.cache_info()
    wedge.bar_basis((6,), 2)
    assert wedge._bar_image.cache_info().misses == before.misses
    wedge.clear_caches()
    assert wedge._bar_image.cache_info().currsize == 0
    calls = []
    real = wedge._kernel.straighten_terms

    def counted(word, n):
        calls.append(n)
        return real(word, n)

    monkeypatch.setattr(wedge._kernel, "straighten_terms", counted)
    canonical.a_matrix(2, 6)
    assert calls


def _add(acc: dict, w, c) -> None:
    val = acc[w] + c if w in acc else c
    if val:
        acc[w] = val
    else:
        acc.pop(w, None)


def slow_straighten(terms, n: int) -> dict:
    """Independent oracle: the exchange rule applied to the last ascent of
    any word taken from an unordered worklist, until all words are normal.

    Normal words of the q-wedge space form a basis, so the result does not
    depend on which ascent is rewritten or in which order."""
    todo: dict = {}
    out: dict = {}
    for w, c in terms:
        _add(todo, tuple(w), c)
    while todo:
        w, c = todo.popitem()
        ascents = [j for j in range(len(w) - 1) if w[j] <= w[j + 1]]
        if not ascents:
            _add(out, wedge.minimal_head(w), c)
            continue
        j = ascents[-1]
        l, m = w[j], w[j + 1]
        if l == m:
            continue

        def put(a, b, coeff):
            _add(todo, w[:j] + (a, b) + w[j + 2 :], c * coeff)

        d = (m - l) % n
        if d == 0:
            put(m, l, Q(-1))
            continue
        put(m, l, Q(-1, -1))
        # s_{2i} = i*n + d, s_{2i+1} = (i+1)*n, while m - s > l + s
        t = 0
        while True:
            s = (t // 2) * n + d if t % 2 == 0 else (t // 2 + 1) * n
            if m - s <= l + s:
                break
            put(m - s, l + s, (Q(1, -2) - Q(1)) * Q((-1) ** t, -t))
            t += 1
    return out


def _kernel_terms(w, n: int) -> dict:
    """The kernel's normal form of the finite word w, keyed like the oracle."""
    out = _kernel.straighten_terms(w, n)
    return {wedge.minimal_head(res): P(poly) for res, poly in out.items()}


def _shaped_words() -> list:
    """Finite words of the shapes the kernel meets beyond reversed partition
    words: B_{-k} windows, a normal word and a larger last entry; B_k
    windows, a smaller first entry and a normal word (either extra entry may
    equal an entry it is not next to); and words with equal entries that are
    not adjacent."""
    normal = {
        wedge.partition_to_word(lam, K)
        for m in range(6)
        for lam in partitions_of(m)
        for K in (max(len(lam), 1), len(lam) + 1)
    }
    words = set()
    for u in normal:
        words.update(u + (x,) for x in range(u[-1] + 1, u[0] + 6))
        words.update((y,) + u for y in range(u[-1] - 1, u[0]))
    repeats = [
        w
        for w in product(range(-2, 4), repeat=4)
        if len(set(w)) < 4 and all(a != b for a, b in zip(w, w[1:]))
    ]
    rng = Random(7)
    while len(repeats) < 1000:
        w = tuple(rng.randrange(-4, 5) for _ in range(6))
        if len(set(w)) < 6 and all(a != b for a, b in zip(w, w[1:])):
            repeats.append(w)
    return sorted(words) + repeats


@pytest.fixture
def bounded_kernel(monkeypatch):
    """Fail, rather than fill the memory, when the kernel does not terminate.

    The kernel opens at most 114 insertion frames for a word of the oracle
    test, and one per entry passed for the pure-swap word."""
    real_terms, real_frame = _kernel.straighten_terms, _kernel._insertion
    budget = [0]

    def terms(word, n):
        budget[0] = 200 + 2 * len(word)
        return real_terms(word, n)

    def frame(u, x, n):
        budget[0] -= 1
        if budget[0] < 0:
            raise AssertionError(f"inserting {x} into {u} does not terminate")
        return real_frame(u, x, n)

    monkeypatch.setattr(_kernel, "straighten_terms", terms)
    monkeypatch.setattr(_kernel, "_insertion", frame)


def test_kernel_matches_slow_oracle(bounded_kernel):
    shaped = _shaped_words()
    assert len(shaped) > 1400
    wedge.clear_caches()  # so that wedge.straighten reaches the kernel
    for n in (2, 3, 4):
        for m in range(8):
            for lam in partitions_of(m):
                w = wedge.partition_to_word(lam, max(m, 1))[::-1]
                assert wedge.straighten(w, n) == slow_straighten([(w, Q(1))], n), (n, lam)
        for w in shaped:
            assert _kernel_terms(w, n) == slow_straighten([(w, Q(1))], n), (n, w)


def test_kernel_passes_the_recursion_limit(bounded_kernel):
    # one entry passes L others by pure swaps (every gap divisible by n):
    # the result is the swapped word with sign (-1)^L, however long the word
    L = sys.getrecursionlimit()
    head = tuple(range(0, -2 * L, -2))
    assert _kernel.straighten_terms(head + (2,), 2) == {(2,) + head: {0: (-1) ** L}}


def test_backend_reports_a_kernel():
    assert wedge.backend() == "python"
