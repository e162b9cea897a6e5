"""The fermionic picture: finite heads of semi-infinite q-wedges.

A word is the explicit head (i_1, ..., i_K) of the semi-infinite wedge
u_{i_1} ^ u_{i_2} ^ ... with the implicit tail i_k = -k + 1 for k > K.  The
basis vector attached to a partition has i_k = lambda_k - k + 1.  All
straightening goes through the kernel in ``_straighten_py``, memoized on the
finite word shifted to start at 0 (``_straightened``): the exchange rule
reads only differences of entries.  ``straighten`` extends a head far enough
that its tail can be left out; B_k straightens only the window of entries
its moved entry passes, and the image B_k|p> of a basis vector is computed
once (``b_basis``).  Both memos are ``functools.lru_cache`` functions, like
the strip images V_k|p> and U_k|p> that fock keeps (``fock.strip_basis``)
and the node rows (``partitions.node_row``), so each reports its hits,
misses and size through ``cache_info()``; so do the bar image memo,
``_bar_image``, and the table of shared LaurentPoly values
(``laurent._interned``).  ``clear_caches`` empties these six memos: it is
the one lifetime of every image of a basis vector and of the values they
hold.

The layer works on basis vectors only, as the bar involution and B_k are
defined on single wedges: both take one partition and give its image keyed
by partitions, which the fock module extends (semi-)linearly.  Sums pass to
fock as sparse {partition: {exponent: int}} dicts, never as vectors.

Bar images come by three routes, tried in this order (see ``bar_basis``):
  f-step: bar(f_i v) = f_i bar(v) for a partition reached by a Chevalley step
    f_i from one degree lower, every other term of that step lex-smaller;
  S-step: bar(S_alpha v) = S_alpha bar(v) for a partition lam whose conjugate
    is n-singular, so that lam = mu + n*alpha and S_alpha|mu> is +-|lam> plus
    lex-smaller terms; S_alpha is applied by ``fock.s_sums``;
  row step: for the n-restricted rest, such as (1,1,1,1) for n=2 or
    (3,3,3,1) for n=3, bar|lam> is the reversal of the word of lam, which
    is the reversal of the word of lam[1:] with lam_1 appended: the image
    of lam[1:], shifted by -1, has lam_1 inserted into each of its words.
All three build an image from images of a lower degree or lex-smaller in
the same degree, read through ``_bar_image`` itself, so a missing image
builds exactly the images it needs, and only the row step straightens; the
fock module is imported as a module, so the import cycle with it resolves
at call time.  ``bar_basis`` reads one image, ``bar_degree`` every image of
a degree, which is how the A matrix and the canonical bases ask for them.

The f-steps read ``partitions.node_row``, the memoized row of a partition
that holds its f-step and its f_i for every residue i
(``add_node_variants``), for the partitions they reach and for the terms of
the images they lift, so each partition's rim is scanned once until
``clear_caches``; ``fock.f_action`` reads the same rows, and f_i on an image
is fock's f_i loop.
"""

from __future__ import annotations

from functools import lru_cache

from . import _straighten_py as _kernel
from . import fock
from .laurent import ONE, LaurentPoly, _interned, add_product, add_shifted, collect
from .partitions import (
    NotApplicableError,
    Partition,
    add_node_variants,
    check_partition,
    node_row,
    revlex_order,
    steinberg_decompose,
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


def clear_caches() -> None:
    """Drop every image of a basis vector and the shared values, six memos:
    the bar images (_bar_image), the straightened words, the B_k images, the
    strip images of V_k and U_k (fock.strip_basis), the node rows and the
    table of LaurentPoly values (laurent._interned).  Values made before
    still equal, and hash like, the ones made after."""
    for memo in (_bar_image, _straightened, b_basis, fock.strip_basis, node_row, _interned):
        memo.cache_clear()


@lru_cache(maxsize=None)
def _straightened(w: Word, n: int) -> tuple:
    """The kernel's expansion of the word w, which starts at 0, as (word,
    LaurentPoly) pairs."""
    out = _kernel.straighten_terms(w, n)
    return tuple((word, LaurentPoly.from_terms(poly)) for word, poly in out.items())


def _straighten_minimal(w: Word, n: int) -> tuple:
    """Straighten the finite word w as given, with no tail after it.

    The exchange rule reads only differences of entries, so the expansion is
    read from _straightened on w shifted to start at 0 and shifted back by
    w[0].
    """
    c = w[0] if w else 0
    hit = _straightened(tuple(v - c for v in w), n)
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


def b_action_words(k: int, p: Partition, n: int) -> tuple:
    """Heisenberg generator B_k on the basis wedge of p, as (partition,
    pairs) terms, pairs being a coefficient's (exponent, coefficient) pairs.

    B_{-k} (k > 0) raises degree by adding kn to one head entry in all ways;
    B_k lowers it by subtracting kn.  Deep-tail modifications reduce to zero,
    so positions beyond (head length + kn) never contribute.

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
    base = partition_to_word(p, len(p))  # a minimal head: every part is positive
    span = len(base) + shift
    # deep enough for B_k: w[j + shift] <= w[j] - shift for every j < span,
    # so the scan to the right stops inside w
    w = extend_head(base, span + shift)
    sums: dict = {}
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
            add_shifted(sums.setdefault(minimal_head(left + res + right), {}), poly.terms())
    return tuple((word_to_partition(word), c.terms()) for word, c in collect(sums).items())


@lru_cache(maxsize=None)
def b_basis(k: int, p: Partition, n: int) -> tuple:
    """B_k|p> as b_action_words gives it, computed once and kept until
    clear_caches.  A p that is not a partition raises ValueError on its
    miss."""
    check_partition(p)
    return b_action_words(k, p, n)


def _unitriangular(lam: Partition, col: dict, how: str) -> dict:
    """col, after checking that it is |lam> plus lex-smaller terms (within a
    degree, revlex order is descending tuple order)."""
    if col.get(lam) != ONE or any(nu > lam for nu in col):
        raise AssertionError(f"bar|{lam}> built through {how} is not unitriangular")
    return col


def _f_column(lam: Partition, n: int, i: int, mu: Partition) -> dict[Partition, LaurentPoly]:
    """bar|lam> = f_i bar|mu> - sum_a q^{-e_a} bar|lam-b+a>.

    lam = mu + b for the f-step (i, mu) of lam (see partitions.node_row), and
    f_i|mu> = |lam> + sum_a q^{e_a}|lam-b+a> over the addable i-nodes a of
    lam.  The top coefficient is 1: the f-step rule leaves no i-node of lam
    above b, so N_i^r = 0 for b.  Every a lies below b, so every lam-b+a is
    lex-smaller than lam.  f_i bar|mu> is fock's f_i loop, fock.node_sums,
    and each correction is added by laurent.add_shifted.
    """
    sums = fock.node_sums(add_node_variants, 1, i, _bar_image(mu, n), n)
    for target, e_a in add_node_variants(mu, i, n):
        if target == lam:
            continue
        for nu, c in _bar_image(target, n).items():
            add_shifted(sums.setdefault(nu, {}), c.terms(), -e_a, -1)
    return _unitriangular(lam, collect(sums), f"f_{i}")


def _s_step(lam: Partition, n: int):
    """(alpha, mu, S_alpha|mu>) for lam = mu + n*alpha (steinberg_decompose),
    after checking that S_alpha|mu> = t|lam> + (lex-smaller terms) with
    t = +-1; None when lam' is n-regular."""
    try:
        mu, alpha = steinberg_decompose(lam, n)
    except NotApplicableError:
        return None
    top = collect(fock.s_sums(alpha, {mu: {0: 1}}, n))
    if top.get(lam) not in (ONE, -ONE) or any(nu > lam for nu in top):
        raise AssertionError(f"S_{alpha}|{mu}> is not +-|{lam}> plus lex-smaller terms")
    return alpha, mu, top


def _s_column(
    lam: Partition, n: int, alpha: Partition, mu: Partition, top: dict
) -> dict[Partition, LaurentPoly]:
    """bar|lam> = t (S_alpha bar|mu> - sum_{nu != lam} bar(s_nu) bar|nu>).

    S_alpha|mu> = top = t|lam> + sum s_nu|nu> as in _s_step; bar commutes
    with S_alpha.  bar|mu> is |mu> plus lex-smaller terms, so S_alpha bar|mu>
    is top plus S_alpha of those terms.
    """
    below_mu = {x: dict(c.terms()) for x, c in _bar_image(mu, n).items() if x != mu}
    sums = fock.s_sums(alpha, below_mu, n)
    for nu, s in top.items():
        add_shifted(sums.setdefault(nu, {}), s.terms())
        if nu != lam:
            scale = -s.bar()
            for y, c in _bar_image(nu, n).items():
                add_product(sums.setdefault(y, {}), c, scale)
    col = collect(sums)
    if top[lam] != ONE:  # t = -1
        col = {nu: -c for nu, c in col.items()}
    return _unitriangular(lam, col, f"S_{alpha}")


def _row_column(lam: Partition, n: int) -> dict[Partition, LaurentPoly]:
    """bar|lam> = c(w) c(w')^-1 sum_nu [bar|lam[1:]>]_nu
    straighten((word(nu, k-1) - 1) + (lam_1,)).

    Here k = |lam|, w = word(lam, k) and w' = w[1:].  bar|lam> is
    c(w) straighten(rev(w)) with c(w) = (-1)^C(k,2) q^a(w), where a(w) counts
    the pairs of entries of w in different residue classes mod n.  rev(w) is
    rev(w') + (lam_1,), and w' is word(lam[1:], k-1) shifted by -1, so
    straighten(rev(w')) is c(w')^-1 bar|lam[1:]> with every word shifted by
    -1; straightening it first and then inserting lam_1 gives the same normal
    form.  c(w) c(w')^-1 = (-1)^(k-1) q^a, where a counts the entries of w'
    not congruent to lam_1.
    """
    k = sum(lam)
    w = partition_to_word(lam, k)
    pref = LaurentPoly.monomial((-1) ** (k - 1), sum((v - w[0]) % n != 0 for v in w[1:]))
    sums: dict[Partition, dict[int, int]] = {}
    for nu, c in _bar_image(lam[1:], n).items():
        row = tuple(v - 1 for v in partition_to_word(nu, k - 1)) + (w[0],)
        scale = pref * c
        for res, poly in _straighten_minimal(row, n):
            add_product(sums.setdefault(word_to_partition(res), {}), scale, poly)
    return _unitriangular(lam, collect(sums), "the row step")


@lru_cache(maxsize=None)
def _bar_image(lam: Partition, n: int) -> dict[Partition, LaurentPoly]:
    """bar|lam>, built once by the first route of bar_basis that applies and
    kept until clear_caches.  Each route reads the images it needs through
    _bar_image, one degree lower or lex-smaller in the same degree, so the
    recursion ends.  Read it, do not change it.  A lam that is not a
    partition raises ValueError in node_row, which it reads first."""
    if (f_step := node_row(lam, n)[0]) is not None:
        return _f_column(lam, n, *f_step)
    if (s_step := _s_step(lam, n)) is not None:
        return _s_column(lam, n, *s_step)
    if lam:
        return _row_column(lam, n)
    return {(): ONE}  # bar fixes the vacuum


def bar_basis(p: Partition, n: int) -> dict[Partition, LaurentPoly]:
    """Bar involution of the basis vector of p, expanded over partitions.

    Each image comes by the first of three routes that applies; the images a
    route needs, one degree lower or lex-smaller in the same degree, are read
    through the memo _bar_image, which builds a missing one first:
      f-step: bar(f_i v) = f_i bar(v) when the row of lam
        (partitions.node_row) has an f-step (_f_column);
      S-step: bar(S_alpha v) = S_alpha bar(v) when lam' is n-singular, so
        that lam = mu + n*alpha (_s_column);
      row step: for the rest, the n-restricted partitions no f_i step
        reaches, such as (1,1,1,1) for n=2 and (3,3,3,1) for n=3, bar|lam>
        from bar|lam[1:]> by straightening each of its words, shifted by -1,
        with lam_1 appended (_row_column).
    The image is a copy of the stored one.  A tuple that is not a
    partition raises ValueError.
    """
    return dict(_bar_image(p, n))


def bar_degree(m: int, n: int) -> dict[Partition, dict[Partition, LaurentPoly]]:
    """The bar images of every partition of m, in revlex order.  The images
    are the stored ones: read them, do not change them."""
    return {p: _bar_image(p, n) for p in revlex_order(m)}
