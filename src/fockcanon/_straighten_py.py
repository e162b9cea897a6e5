"""Pure-Python straightening kernel for q-wedge words.

Words are tuples of distinct-or-repeated integers (the explicit head of a
semi-infinite wedge); coefficients are sparse {exponent: int} dicts in q.
``straighten_terms`` rewrites every word into the strictly decreasing normal
form using the adjacent exchange rule:

  for l < m with d = (m - l) mod n,
    d == 0:  u_l ^ u_m = -u_m ^ u_l
    d != 0:  u_l ^ u_m = -q^-1 u_m ^ u_l
             + (q^-2 - 1) * sum_t (-q^-1)^t u_{m-s_t} ^ u_{l+s_t}
  with s_{2j} = jn + d, s_{2j+1} = (j+1)n, keeping only pairs that are
  strictly ordered (m - s_t > l + s_t).  The shifts are exactly those with
  s = 0 or s = d mod n, so every term carries the same residue pair as the
  left-hand side.

A word with two equal adjacent entries is zero; a word with equal non-adjacent
entries is NOT zero a priori and must keep reducing (it either cancels or
feeds lower terms).  Each step rewrites the first ascent a < b of a word w:
the swapped word keeps the sum of squared entries and is lexicographically
larger than w, and the correction word with (b - s, a + s), 0 < 2s < b - a,
has a sum of squares smaller by exactly 2s(b - a - s) > 0.  So every step
strictly increases the key (-sum of squares, word), which takes finitely many
values at fixed degree and length, and rewriting terminates.  Popping words
from a min-heap on that key expands each word only after every word that can
produce it, so each distinct word is expanded exactly once, with all its
contributions merged beforehand.
"""

from __future__ import annotations

import heapq

_EXPANSION_CACHE: dict[tuple[int, int, int], tuple] = {}


def _expansion(d: int, gap: int, n: int):
    """Correction shifts and coefficients for an inverted pair with residue
    offset d = (m - l) mod n != 0 and gap m - l > 0.

    Returns a tuple of (s, c2, e2, c0, e0) meaning the word with the pair
    replaced by (m - s, l + s) enters with coefficient c2*q^e2 + c0*q^e0.
    """
    key = (d, gap, n)
    hit = _EXPANSION_CACHE.get(key)
    if hit is not None:
        return hit
    terms = []
    t = 0
    while True:
        s = (t // 2) * n + d if t % 2 == 0 else (t // 2 + 1) * n
        if 2 * s >= gap:
            break
        sign = -1 if t % 2 else 1
        # (q^-2 - 1)(-q^-1)^t = sign*q^(-t-2) - sign*q^(-t)
        terms.append((s, sign, -t - 2, -sign, -t))
        t += 1
    result = tuple(terms)
    _EXPANSION_CACHE[key] = result
    return result


def _first_ascent(w) -> int:
    for j in range(len(w) - 1):
        if w[j] <= w[j + 1]:
            return j
    return -1


def _merge(acc: dict, poly: dict) -> None:
    for e, c in poly.items():
        nc = acc.get(e, 0) + c
        if nc:
            acc[e] = nc
        else:
            acc.pop(e, None)


def straighten_terms(items, n: int) -> dict:
    """Normal-order a batch of (word, coeff-dict) terms.

    Returns {word: coeff-dict} over strictly decreasing words, zero
    coefficients dropped.
    """
    pending: dict[tuple, dict] = {}
    heap: list = []

    def push(w, sumsq, poly):
        acc = pending.get(w)
        if acc is None:
            pending[w] = dict(poly)
            heapq.heappush(heap, (-sumsq, w))
        else:
            _merge(acc, poly)
            if not acc:
                del pending[w]

    for w, poly in items:
        if poly:
            push(tuple(w), sum(v * v for v in w), poly)

    out: dict[tuple, dict] = {}
    while heap:
        neg_sumsq, w = heapq.heappop(heap)
        poly = pending.pop(w, None)
        if poly is None:
            continue
        j = _first_ascent(w)
        if j < 0:
            out[w] = poly  # nothing pushes w again: every push raises the key
            continue
        a, b = w[j], w[j + 1]
        if a == b:
            continue  # adjacent repeat: the wedge vanishes
        head, tail = w[:j], w[j + 2 :]
        swapped = head + (b, a) + tail
        d = (b - a) % n
        sumsq = -neg_sumsq
        if d == 0:
            push(swapped, sumsq, {e: -c for e, c in poly.items()})
            continue
        # main term: -q^-1 * swapped
        push(swapped, sumsq, {e - 1: -c for e, c in poly.items()})
        for s, c2, e2, c0, e0 in _expansion(d, b - a, n):
            w2 = head + (b - s, a + s) + tail
            term: dict = {}
            for e, c in poly.items():
                nc = term.get(e + e2, 0) + c * c2
                if nc:
                    term[e + e2] = nc
                else:
                    term.pop(e + e2, None)
                nc = term.get(e + e0, 0) + c * c0
                if nc:
                    term[e + e0] = nc
                else:
                    term.pop(e + e0, None)
            if term:
                push(w2, sumsq - 2 * s * (b - a - s), term)
    return out
