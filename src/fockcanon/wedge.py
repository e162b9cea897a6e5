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

Bar images come by three routes, tried in this order (see ``bar_basis``):
  f-step: bar(f_i v) = f_i bar(v) for a partition reached by a Chevalley step
    f_i from one degree lower, every other term of that step lex-smaller;
  S-step: bar(S_alpha v) = S_alpha bar(v) for a partition lam whose conjugate
    is n-singular, so that lam = mu + n*alpha and S_alpha|mu> is +-|lam> plus
    lex-smaller terms; S_alpha is the ribbon operator of the fock module;
  row step: for the n-restricted rest, such as (1,1,1,1) for n=2 or
    (3,3,3,1) for n=3, bar|lam> is the reversal of the word of lam, which
    is the reversal of the word of lam[1:] with lam_1 appended: the image
    of lam[1:], shifted by -1, has lam_1 inserted into each of its words.
All three build an image from images already built, and only the row step
straightens; the fock module is imported as a module, so the import cycle
with it resolves at call time.

Images are built in runs (``_build``): ``bar_basis`` starts one for a single
missing image, ``bar_degree`` one for every missing image of a degree, which
is how the A matrix and the canonical bases ask for them.  The f-steps read
``partitions.node_row``, the memoized row of a partition that holds its
f-step and its f_i for every residue i, for the partitions they reach and
for the terms of the images they lift, so each partition's rim is scanned
once until ``clear_caches``; ``fock.f_action`` reads the same rows, and
f_i on an image is fock's f_i loop.
"""

from __future__ import annotations

from functools import partial

from . import _straighten_py as _kernel
from . import fock
from .laurent import ONE, LaurentPoly, add_product, add_shifted, collect
from .partitions import (
    NotApplicableError,
    Partition,
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


_straighten_cache: dict[tuple[int, Word], tuple] = {}
_bar_images: dict[tuple[int, Partition], dict[Partition, LaurentPoly]] = {}


def clear_caches() -> None:
    """Drop the straightening memo, the bar images and the node rows."""
    _straighten_cache.clear()
    _bar_images.clear()
    node_row.cache_clear()


def _straighten_minimal(w: Word, n: int) -> tuple:
    """Straighten the finite word w as given, with no tail after it.

    The exchange rule reads only differences of entries, so the expansion is
    cached on w shifted to start at 0 and shifted back by w[0].
    """
    c = w[0] if w else 0
    key = (n, tuple(v - c for v in w))
    hit = _straighten_cache.get(key)
    if hit is None:
        out = _kernel.straighten_terms(key[1], n)
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


def _unitriangular(lam: Partition, col: dict, how: str) -> dict:
    """col, after checking that it is |lam> plus lex-smaller terms (within a
    degree, revlex order is descending tuple order)."""
    if col.get(lam) != ONE or any(nu > lam for nu in col):
        raise AssertionError(f"bar|{lam}> built through {how} is not unitriangular")
    return col


def _f_row(p: Partition, i: int, n: int) -> tuple:
    """The f_i variants of p, straight from its node row: add_node_variants
    copies the row, and perfbench counts its calls as f_i's own."""
    return node_row(p, n)[1][i]


def _f_column(lam: Partition, n: int, i: int, mu: Partition) -> dict[Partition, LaurentPoly]:
    """bar|lam> = f_i bar|mu> - sum_a q^{-e_a} bar|lam-b+a>.

    lam = mu + b for the f-step (i, mu) of lam (see partitions.node_row), and
    f_i|mu> = |lam> + sum_a q^{e_a}|lam-b+a> over the addable i-nodes a of
    lam.  The top coefficient is 1: the f-step rule leaves no i-node of lam
    above b, so N_i^r = 0 for b.  Every a lies below b, so every lam-b+a is
    lex-smaller than lam.  f_i bar|mu> is fock's f_i loop, fock.node_sums,
    and each correction is added by laurent.add_shifted.  Every image used
    must already be in _bar_images.
    """
    sums = fock.node_sums(_f_row, 1, i, _bar_images[(n, mu)], n)
    for target, e_a in _f_row(mu, i, n):
        if target == lam:
            continue
        for nu, c in _bar_images[(n, target)].items():
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
    top = fock.s_alpha(alpha, fock.FockVector.basis(mu), n).terms
    if top.get(lam) not in (ONE, -ONE) or any(nu > lam for nu in top):
        raise AssertionError(f"S_{alpha}|{mu}> is not +-|{lam}> plus lex-smaller terms")
    return alpha, mu, top


def _s_column(
    lam: Partition, n: int, alpha: Partition, mu: Partition, top: dict
) -> dict[Partition, LaurentPoly]:
    """bar|lam> = t (S_alpha bar|mu> - sum_{nu != lam} bar(s_nu) bar|nu>).

    S_alpha|mu> = top = t|lam> + sum s_nu|nu> as in _s_step; bar commutes
    with S_alpha.  bar|mu> is |mu> plus lex-smaller terms, so S_alpha bar|mu>
    is top plus S_alpha of those terms.  Every image used must already be in
    _bar_images.
    """
    below_mu = {x: c for x, c in _bar_images[(n, mu)].items() if x != mu}
    image = fock.s_alpha(alpha, fock.FockVector(below_mu), n).terms if below_mu else {}
    sums: dict[Partition, dict[int, int]] = {}
    for part in (top, image):
        for nu, s in part.items():
            add_shifted(sums.setdefault(nu, {}), s.terms())
    for nu, s in top.items():
        if nu != lam:
            scale = -s.bar()
            for y, c in _bar_images[(n, nu)].items():
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
    not congruent to lam_1.  bar|lam[1:]> must already be in _bar_images.
    """
    k = sum(lam)
    w = partition_to_word(lam, k)
    pref = LaurentPoly.monomial((-1) ** (k - 1), sum((v - w[0]) % n != 0 for v in w[1:]))
    sums: dict[Partition, dict[int, int]] = {}
    for nu, c in _bar_images[(n, lam[1:])].items():
        row = tuple(v - 1 for v in partition_to_word(nu, k - 1)) + (w[0],)
        scale = pref * c
        for res, poly in _straighten_minimal(row, n):
            add_product(sums.setdefault(word_to_partition(res), {}), scale, poly)
    return _unitriangular(lam, collect(sums), "the row step")


def bar_basis(p: Partition, n: int) -> dict[Partition, LaurentPoly]:
    """Bar involution of the basis vector of p, expanded over partitions.

    Each image comes by the first of three routes that applies; the images a
    route needs, one degree lower or lex-smaller in the same degree, are
    built first:
      f-step: bar(f_i v) = f_i bar(v) when the row of lam
        (partitions.node_row) has an f-step (_f_column);
      S-step: bar(S_alpha v) = S_alpha bar(v) when lam' is n-singular, so
        that lam = mu + n*alpha (_s_column);
      row step: for the rest, the n-restricted partitions no f_i step
        reaches, such as (1,1,1,1) for n=2 and (3,3,3,1) for n=3, bar|lam>
        from bar|lam[1:]> by straightening each of its words, shifted by -1,
        with lam_1 appended (_row_column).
    A stored image is copied out at once.  A missing one is built in a run of
    its own (_build); bar_degree builds a whole degree in one run.
    """
    image = _bar_images.get((n, p))
    if image is None:
        _build((p,), n)
        image = _bar_images[(n, p)]
    return dict(image)


def bar_degree(m: int, n: int) -> dict[Partition, dict[Partition, LaurentPoly]]:
    """The bar images of every partition of m, in revlex order, the missing
    ones built in one run (_build).  The images are the stored ones: read
    them, do not change them."""
    order = revlex_order(m)
    missing = [p for p in order if (n, p) not in _bar_images]
    if missing:
        _build(missing, n)
    return {p: _bar_images[(n, p)] for p in order}


def _build(targets, n: int) -> None:
    """Build the bar images of targets, and every image they need, into
    _bar_images by the routes of bar_basis, on an explicit stack.  A build
    waits, in planned, until the images it needs are built; for an f-step
    these are bar|mu> and every bar|lam-b+a> (see _f_column)."""
    pending = list(targets)
    planned: dict[Partition, partial] = {}  # builds waiting for the images they need
    while pending:
        lam = pending[-1]
        if (n, lam) in _bar_images:
            pending.pop()
            continue
        build = planned.pop(lam, None)
        if build is None:
            if (f_step := node_row(lam, n)[0]) is not None:
                i, mu = f_step
                needs = (mu, *dict(_f_row(mu, i, n)))
                build = partial(_f_column, lam, n, i, mu)
            elif (s_step := _s_step(lam, n)) is not None:
                alpha, mu, top = s_step
                needs, build = (mu, *top), partial(_s_column, lam, n, alpha, mu, top)
            elif lam:
                needs, build = (lam[1:],), partial(_row_column, lam, n)
            else:
                _bar_images[(n, lam)] = {(): ONE}  # bar fixes the vacuum
                continue
            missing = [nu for nu in needs if nu != lam and (n, nu) not in _bar_images]
            if missing:
                planned[lam] = build
                pending += missing
                continue
        _bar_images[(n, lam)] = build()
