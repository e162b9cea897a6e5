import pytest

from fockcanon import canonical, wedge
from fockcanon.wedge import _kernel
from fockcanon.laurent import LaurentPoly
from fockcanon.partitions import partitions_of

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
    vac = {(): LaurentPoly.monomial(1)}
    up2 = wedge.b_action_words(-1, vac, 2)
    assert {wedge.word_to_partition(w): c for w, c in up2.items()} == {
        (2,): P({0: 1}),
        (1, 1): P({-1: -1}),
    }
    up3 = wedge.b_action_words(-1, vac, 3)
    assert {wedge.word_to_partition(w): c for w, c in up3.items()} == {
        (3,): P({0: 1}),
        (2, 1): P({-1: -1}),
        (1, 1, 1): P({-2: 1}),
    }
    assert wedge.b_action_words(1, vac, 2) == {}


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


def _b_action_by_moved_words(k: int, wv: dict, n: int) -> dict:
    """Oracle for b_action_words: straighten every moved word in full."""
    shift = abs(k) * n
    delta = shift if k < 0 else -shift
    out: dict = {}
    for word, coeff in wv.items():
        base = wedge.minimal_head(word)
        span = len(base) + shift
        w = wedge.extend_head(base, span + shift)
        for j in range(span):
            moved = w[:j] + (w[j] + delta,) + w[j + 1 :]
            for res, poly in wedge.straighten(moved, n).items():
                _add(out, res, coeff * poly)
    return out


def test_b_action_windows_match_moved_words():
    # partitions up to m = 7 move entries past equal ones (the zero rule)
    # and past windows on either side of the moved entry
    for n in (2, 3, 4):
        for k in (1, -1, 2, -2, 3, -3):
            for m in range(8):
                for lam in partitions_of(m):
                    wv = {wedge.minimal_head(wedge.partition_to_word(lam, len(lam))): Q(2, m)}
                    assert wedge.b_action_words(k, wv, n) == _b_action_by_moved_words(
                        k, wv, n
                    ), (n, k, lam)


def test_straighten_memo_is_up_to_a_shift(monkeypatch):
    calls = []
    real = _kernel.straighten_terms

    def counted(terms, n):
        calls.append(n)
        return real(terms, n)

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


def test_bar_basis_k_independence():
    for n in (2, 3):
        for m in range(7):
            for lam in partitions_of(m):
                k0 = max(m, 1)
                base = wedge._bar_by_straightening(lam, n, k0)
                assert wedge._bar_by_straightening(lam, n, k0 + 1) == base
                assert wedge._bar_by_straightening(lam, n, k0 + 2) == base


def test_bar_basis_k_too_small():
    with pytest.raises(ValueError):
        wedge._bar_by_straightening((2, 1), 2, 2)


def _recursion_mismatches(ns, max_m) -> list:
    """(n, lam) whose bar image built through f_i differs from straightening."""
    wedge.clear_caches()
    try:
        return [
            (n, lam)
            for n in ns
            for m in range(max_m + 1)
            for lam in partitions_of(m)
            if wedge.bar_basis(lam, n) != wedge._bar_by_straightening(lam, n)
        ]
    finally:
        wedge.clear_caches()


def test_bar_recursion_matches_straightening():
    # The only independent check of the f_i recursion: exponents negated in
    # the f_i step still give unitriangular columns and pass the recursion's
    # own check, but change bar images (see test_broken_f_step_is_caught).
    assert _recursion_mismatches((2, 3, 4), 9) == []


def test_f_step_fallback_partitions():
    fallback = [lam for lam in partitions_of(4) if wedge._f_step(lam, 2) is None]
    assert fallback == [(2, 2), (1, 1, 1, 1)]
    assert wedge._f_step((6, 6), 2) is None
    assert wedge._f_step((3, 3, 3, 1), 3) is None
    assert wedge._f_step((2, 1), 2) == (1, (1, 1))


@pytest.mark.parametrize("name", ["shifted", "negated"])
def test_broken_f_step_is_caught(monkeypatch, name):
    real = wedge.add_node_variants

    def broken(p, i, n):
        return [
            (mu, n_r + 1 if name == "shifted" else -n_r)
            for mu, n_r in real(p, i, n)
        ]

    monkeypatch.setattr(wedge, "add_node_variants", broken)
    if name == "shifted":
        # N_i^r + 1 breaks the unit diagonal, which the recursion checks
        with pytest.raises(AssertionError, match=r"bar\|\("):
            _recursion_mismatches((2, 3), 7)
    else:
        assert _recursion_mismatches((2, 3), 7)


def test_clear_caches_makes_bar_images_cold(monkeypatch):
    canonical.a_matrix(2, 6)
    assert (2, (6,)) in wedge._bar_images
    wedge.clear_caches()
    assert wedge._bar_images == {}
    calls = []
    real = wedge._kernel.straighten_terms

    def counted(terms, n):
        calls.append(n)
        return real(terms, n)

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


def test_kernel_matches_slow_oracle():
    for n in (2, 3, 4):
        for m in range(8):
            for lam in partitions_of(m):
                w = wedge.partition_to_word(lam, max(m, 1))[::-1]
                assert wedge.straighten(w, n) == slow_straighten([(w, Q(1))], n), (n, lam)


def test_kernel_batch_is_sum_of_singles():
    n, m = 3, 6
    words = [wedge.partition_to_word(lam, m)[::-1] for lam in partitions_of(m)]
    coeffs = [{k: k + 3} for k in range(-2, len(words) - 2)]
    batch = _kernel.straighten_terms(list(zip(words, coeffs)), n)
    total: dict = {}
    for w, poly in zip(words, coeffs):
        for res, c in _kernel.straighten_terms([(w, poly)], n).items():
            _add(total, res, P(c))
    assert {res: P(c) for res, c in batch.items()} == total
    assert total == {
        wedge.extend_head(res, m): c
        for res, c in slow_straighten([(w, P(c)) for w, c in zip(words, coeffs)], n).items()
    }


def test_backend_reports_a_kernel():
    assert wedge.backend() == "python"
