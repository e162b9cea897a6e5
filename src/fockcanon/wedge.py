"""The fermionic picture: finite heads of semi-infinite q-wedges.

A word is the explicit head (i_1, ..., i_K) of the semi-infinite wedge
u_{i_1} ^ u_{i_2} ^ ... with the implicit tail i_k = -k + 1 for k > K.  The
basis vector attached to a partition has i_k = lambda_k - k + 1.  All
straightening goes through the kernel in ``_straighten_py``.

A WedgeVector is a plain dict mapping normally ordered words to LaurentPoly
coefficients; bar images of basis vectors come out keyed by partitions so the
bosonic layer can consume them directly.
"""

from __future__ import annotations

from . import _straighten_py as _kernel
from .laurent import LaurentPoly
from .partitions import Partition


def backend() -> str:
    """Name of the straightening kernel: always "python"."""
    return _kernel.BACKEND


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


def word_degree(w: Word) -> int:
    return sum(v + k for k, v in enumerate(w))


def word_str(w: Word) -> str:
    """Debug form, explicit head only: "u[2,-1,-2]"."""
    return "u[" + ",".join(str(v) for v in w) + "]"


_straighten_cache: dict[tuple[int, Word], tuple] = {}


def clear_caches() -> None:
    _straighten_cache.clear()
    _bar_cache.clear()


def _straighten_minimal(w: Word, n: int) -> tuple:
    """Straighten a single word; cached on the stripped head."""
    key = (n, w)
    hit = _straighten_cache.get(key)
    if hit is not None:
        return hit
    K = len(w)
    if w:
        K = max(K, 1 - min(w))
    out = _kernel.straighten_terms([(extend_head(w, K), {0: 1})], n)
    result = tuple(
        (minimal_head(word), LaurentPoly.from_terms(poly))
        for word, poly in out.items()
    )
    _straighten_cache[key] = result
    return result


def straighten(head, n: int) -> dict[Word, LaurentPoly]:
    """Expand an arbitrary integer head in the normally ordered basis."""
    out: dict[Word, LaurentPoly] = {}
    for word, poly in _straighten_minimal(minimal_head(tuple(head)), n):
        out[word] = poly
    return out


def accumulate(acc: dict, key, coeff) -> None:
    """Add coeff into acc[key] in place, dropping the key when the sum is 0."""
    cur = acc.get(key)
    val = coeff if cur is None else cur + coeff
    if val:
        acc[key] = val
    else:
        acc.pop(key, None)


def b_action_words(k: int, wv: dict, n: int) -> dict:
    """Heisenberg generator B_k on a WedgeVector.

    B_{-k} (k > 0) raises degree by adding kn to one head entry in all ways;
    B_k lowers it by subtracting kn.  Deep-tail modifications reduce to zero,
    so positions beyond (minimal head length + kn) never contribute.
    """
    if k == 0:
        raise ValueError("k must be nonzero")
    shift = abs(k) * n
    delta = shift if k < 0 else -shift
    out: dict = {}
    for word, coeff in wv.items():
        base = minimal_head(word)
        span = len(base) + shift
        w = extend_head(base, span + shift)
        for j in range(span):
            moved = w[:j] + (w[j] + delta,) + w[j + 1 :]
            for res, poly in _straighten_minimal(minimal_head(moved), n):
                accumulate(out, res, coeff * poly)
    return out


_bar_cache: dict[tuple[int, Partition, int], tuple] = {}


def bar_basis(p: Partition, n: int, k: int | None = None) -> dict[Partition, LaurentPoly]:
    """Bar involution of the basis vector of p, expanded over partitions.

    Reverses the first k head entries (k >= |p|, default max(|p|, 1)) and
    multiplies by (-1)^C(k,2) q^a where a counts the pairs r < s <= k with
    i_r - i_s not divisible by n; the result is independent of k.
    """
    m = sum(p)
    if k is None:
        k = max(m, 1)
    if k < max(m, 1):
        raise ValueError(f"need k >= max(|p|, 1) = {max(m, 1)}")
    key = (n, p, k)
    hit = _bar_cache.get(key)
    if hit is None:
        word = partition_to_word(p, k)
        alpha = 0
        for r in range(k):
            for s in range(r + 1, k):
                if (word[r] - word[s]) % n:
                    alpha += 1
        sign = -1 if (k * (k - 1) // 2) % 2 else 1
        pref = LaurentPoly.monomial(sign, alpha)
        terms = []
        for res, poly in _straighten_minimal(minimal_head(word[::-1]), n):
            terms.append((word_to_partition(res), pref * poly))
        hit = tuple(terms)
        _bar_cache[key] = hit
    return dict(hit)
