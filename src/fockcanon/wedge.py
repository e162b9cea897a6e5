"""The fermionic picture: finite heads of semi-infinite q-wedges.

A word is the explicit head (i_1, ..., i_K) of the semi-infinite wedge
u_{i_1} ^ u_{i_2} ^ ... with the implicit tail i_k = -k + 1 for k > K.  The
basis vector attached to a partition has i_k = lambda_k - k + 1.  All
straightening goes through the kernel in ``_straighten_py``, memoized on the
finite word up to a shift: the exchange rule reads only differences of
entries.  ``straighten`` extends a head far enough that its tail can be left
out; B_k straightens only the window of entries its moved entry passes.

A WedgeVector is a plain dict mapping normally ordered words to LaurentPoly
coefficients; bar images of basis vectors come out keyed by partitions so the
bosonic layer can consume them directly.

Bar images come from bar(f_i v) = f_i bar(v): a partition reached by a
Chevalley step f_i from one degree lower, with every other term of that step
lex-smaller, gets its image from images already built.  Only the rest, such
as (2,2) for n=2 or (3,3,3,1) for n=3, are straightened by word reversal.
"""

from __future__ import annotations

from collections import Counter

from . import _straighten_py as _kernel
from .laurent import ONE, LaurentPoly, add_product, collect
from .partitions import (
    Partition,
    add_node_variants,
    remove_node,
    revlex_index,
    rim_nodes,
)


def backend() -> str:
    """Name of the straightening kernel: always "python"."""
    return "python"


class KTooSmallError(ValueError):
    """Requested head length does not cover all parts."""


class NotNormallyOrderedError(ValueError):
    """The word is not strictly decreasing against its tail."""


Word = tuple[int, ...]


def partition_to_word(p: Partition, K: int) -> Word:
    """Head of length K for the basis wedge of p: i_k = p_k - k + 1."""
    if K < len(p):
        raise KTooSmallError(f"K={K} < {len(p)} parts")
    return tuple((p[k] if k < len(p) else 0) - k for k in range(K))


def word_to_partition(w: Word) -> Partition:
    """Inverse of partition_to_word; the word must be normally ordered."""
    parts = []
    prev = None
    for k, v in enumerate(w):
        if (prev is not None and v >= prev) or v < -k:
            raise NotNormallyOrderedError(f"word {w} is not normally ordered")
        prev = v
        parts.append(v + k)
    while parts and parts[-1] == 0:
        parts.pop()
    return tuple(parts)


def minimal_head(w: Word) -> Word:
    """Strip trailing entries that agree with the implicit tail."""
    k = len(w)
    while k > 0 and w[k - 1] == -(k - 1):
        k -= 1
    return w[:k]


def extend_head(w: Word, K: int) -> Word:
    """Append tail values to reach head length K."""
    return w + tuple(-k for k in range(len(w), K))


_straighten_cache: dict[tuple[int, Word], tuple] = {}
_bar_images: dict[tuple[int, Partition], dict[Partition, LaurentPoly]] = {}


def clear_caches() -> None:
    _straighten_cache.clear()
    _bar_images.clear()


def _straighten_minimal(w: Word, n: int) -> tuple:
    """Straighten the finite word w as given, with no tail after it.

    The exchange rule reads only differences of entries, so the expansion is
    cached on w shifted to start at 0 and shifted back by w[0].
    """
    c = w[0] if w else 0
    key = (n, tuple(v - c for v in w))
    hit = _straighten_cache.get(key)
    if hit is None:
        out = _kernel.straighten_terms([(key[1], {0: 1})], n)
        hit = tuple((word, LaurentPoly.from_terms(poly)) for word, poly in out.items())
        _straighten_cache[key] = hit
    if not c:
        return hit
    return tuple((tuple(v + c for v in word), poly) for word, poly in hit)


def straighten(head, n: int) -> dict[Word, LaurentPoly]:
    """Expand an arbitrary integer head in the normally ordered basis.

    The head is extended to length K = max(len, 1 - min): every tail entry
    beyond K is then below every entry of the head and never moves, so the
    finite straightening is the semi-infinite one.
    """
    w = minimal_head(tuple(head))
    K = max(len(w), 1 - min(w)) if w else 0
    return {
        minimal_head(word): poly
        for word, poly in _straighten_minimal(extend_head(w, K), n)
    }


def b_action_words(k: int, wv: dict, n: int) -> dict:
    """Heisenberg generator B_k on a WedgeVector.

    B_{-k} (k > 0) raises degree by adding kn to one head entry in all ways;
    B_k lowers it by subtracting kn.  Deep-tail modifications reduce to zero,
    so positions beyond (minimal head length + kn) never contribute.

    The moved entry v of a normally ordered word only has to pass the entries
    strictly between its old and new value: left of it for B_{-k}, right of
    it for B_k.  Every exchange and correction word stays inside that window,
    so only the window is straightened and each result is spliced between the
    untouched parts; a result that puts v next to an equal entry is zero.
    """
    if k == 0:
        raise ValueError("k must be nonzero")
    shift = abs(k) * n
    delta = shift if k < 0 else -shift
    sums: dict = {}
    for word, coeff in wv.items():
        base = minimal_head(word)
        span = len(base) + shift
        # deep enough for B_k: w[j + shift] <= w[j] - shift for every j < span,
        # so the scan to the right stops inside w
        w = extend_head(base, span + shift)
        for j in range(span):
            v = w[j] + delta
            lo, hi = j, j + 1
            if delta > 0:
                while lo and w[lo - 1] < v:
                    lo -= 1
            else:
                while w[hi] > v:
                    hi += 1
            left, right = w[:lo], base[hi:]  # w[len(base):] is tail
            window = w[lo:j] + (v,) + w[j + 1 : hi]
            for res, poly in _straighten_minimal(window, n):
                if (lo and w[lo - 1] == res[0]) or w[hi] == res[-1]:
                    continue
                key = minimal_head(left + res + right)
                add_product(sums.setdefault(key, {}), coeff, poly)
    return collect(sums)


def _bar_by_straightening(
    p: Partition, n: int, k: int | None = None
) -> dict[Partition, LaurentPoly]:
    """Bar involution of the basis vector of p by word reversal.

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
    word = partition_to_word(p, k)
    same_residue = Counter(v % n for v in word).values()
    alpha = k * (k - 1) // 2 - sum(c * (c - 1) // 2 for c in same_residue)
    sign = -1 if (k * (k - 1) // 2) % 2 else 1
    pref = LaurentPoly.monomial(sign, alpha)
    return {
        word_to_partition(res): pref * poly
        for res, poly in straighten(word[::-1], n).items()
    }


def _f_step(lam: Partition, n: int) -> tuple[int, Partition] | None:
    """(i, mu) with lam = mu + b for the first removable node b in rim order
    whose residue i has no addable node of lam before b (in a row above it);
    None when there is no such node."""
    seen = set()
    for sign, r, i in rim_nodes(lam, n):
        if sign > 0:
            seen.add(i)
        elif i not in seen:
            return i, remove_node(lam, r)
    return None


def _f_column(
    lam: Partition, n: int, i: int, mu: Partition, e: int, others: dict
) -> dict[Partition, LaurentPoly]:
    """bar|lam> = q^e (f_i bar|mu> - sum_a q^{-e_a} bar|lam-b+a>).

    lam = mu + b as in _f_step, and f_i|mu> = q^e|lam> + sum_a q^{e_a}|lam-b+a>
    over the addable i-nodes a of lam (``others`` maps lam-b+a to e_a); all of
    them lie below b, so every lam-b+a is lex-smaller than lam.  Every image
    used must already be in _bar_images.
    """
    sums: dict[Partition, dict[int, int]] = {}
    for nu, c in _bar_images[(n, mu)].items():
        for target, e_nu in add_node_variants(nu, i, n):
            shift = LaurentPoly.monomial(1, e + e_nu)
            add_product(sums.setdefault(target, {}), c, shift)
    for target, e_a in others.items():
        scale = LaurentPoly.monomial(-1, e - e_a)
        for nu, c in _bar_images[(n, target)].items():
            add_product(sums.setdefault(nu, {}), c, scale)
    col = collect(sums)
    rank = revlex_index(sum(lam))
    if col.get(lam) != ONE or any(rank[nu] < rank[lam] for nu in col):
        raise AssertionError(f"bar|{lam}> built through f_{i} is not unitriangular")
    return col


def bar_basis(p: Partition, n: int) -> dict[Partition, LaurentPoly]:
    """Bar involution of the basis vector of p, expanded over partitions.

    Built through bar(f_i v) = f_i bar(v) from images one degree lower and
    lex-smaller images of the same degree (_f_column), which are built first
    on an explicit stack.  Only the partitions that no f_i step reaches, such
    as (2,2) and (6,6) for n=2, are straightened by word reversal
    (_bar_by_straightening).
    """
    pending = [p]
    while pending:
        lam = pending[-1]
        if (n, lam) in _bar_images:
            pending.pop()
            continue
        step = _f_step(lam, n)
        if step is None:
            # no f_i step reaches lam; bar fixes the vacuum
            _bar_images[(n, lam)] = _bar_by_straightening(lam, n) if lam else {(): ONE}
            continue
        i, mu = step
        others = dict(add_node_variants(mu, i, n))
        e = others.pop(lam)
        missing = [nu for nu in (mu, *others) if (n, nu) not in _bar_images]
        if missing:
            pending += missing
        else:
            _bar_images[(n, lam)] = _f_column(lam, n, i, mu, e, others)
    return dict(_bar_images[(n, p)])
