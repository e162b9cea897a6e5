"""Pure-Python straightening kernel for q-wedge words.

Words are tuples of distinct-or-repeated integers (the explicit head of a
semi-infinite wedge); coefficients are sparse {exponent: int} dicts in q.
``straighten_terms`` rewrites a word into the strictly decreasing normal
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
feeds lower terms).

The word is straightened by insertion: its longest normal prefix is kept as
it is, and the remaining entries are inserted one at a time, left to right,
into every normal word obtained so far.  To insert x into a normal word u:
if u is empty or u[-1] > x, append x; if u[-1] == x, the wedge vanishes;
otherwise rewrite the pair (u[-1], x) into its terms (p, r) by the exchange
rule, insert p into u[:-1] and then r into each result.  Each insertion is
memoized on u and x shifted so that x = 0 (the exchange rule reads only
differences of entries); the memo lives for one call, so nothing is kept
between words.  Insertions are run from an explicit stack of frames, so a
word longer than the recursion limit straightens as well.

Termination: each rewrite strictly increases the key (-sum of squares,
word) of the whole word.  The swap (b, a) of a < b keeps the sum of squares
and makes the word lexicographically larger; the correction (b - s, a + s),
0 < 2s < b - a, lowers the sum of squares by exactly 2s(b - a - s) > 0.  The
key takes finitely many values at a fixed length and degree, and the
insertions a rewrite asks for are of a shorter word (p into u[:-1]) or of a
word of the same length with a larger key (r into a normal form of
u[:-1] + (p,)).  Normally ordered words are a basis of the q-wedge space, so
the normal form does not depend on the order of the rewrites; inserting left
to right is an order that lets the memo reuse its work.
"""

from __future__ import annotations

from functools import lru_cache

_ONE = {0: 1}  # shared, never mutated


@lru_cache(maxsize=None)
def _exchange(gap: int, n: int) -> tuple:
    """Terms of the pair (a, a + gap), gap > 0, under the exchange rule.

    Returns a tuple of (s, coeff) meaning the pair (a + gap - s, a + s)
    enters with the coefficient dict coeff: s = 0 is the swap, with
    coefficient -1 when gap is divisible by n and -q^-1 otherwise; the rest
    are the corrections.  The dicts are shared and must not be mutated.
    """
    d = gap % n
    if d == 0:
        return ((0, {0: -1}),)
    terms = [(0, {-1: -1})]
    t = 0
    while True:
        s = (t // 2) * n + d if t % 2 == 0 else (t // 2 + 1) * n
        if 2 * s >= gap:
            break
        sign = -1 if t % 2 else 1
        # (q^-2 - 1)(-q^-1)^t = sign*q^(-t-2) - sign*q^(-t)
        terms.append((s, {-t - 2: sign, -t: -sign}))
        t += 1
    return tuple(terms)


def _add_product(acc: dict, w, a: dict, b: dict) -> None:
    """acc[w] += a*b, dropping exponents that cancel."""
    poly = acc.get(w)
    if poly is None:
        poly = acc[w] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            c = poly.get(e, 0) + ca * cb
            if c:
                poly[e] = c
            else:
                del poly[e]


def _insertion(u: tuple, x: int, n: int):
    """Frame of the insertion of x into the normal word u, u[-1] < x.

    Yields (word, entry) for each insertion that is not a plain append and
    is sent back that insertion's (word, coeff) pairs; its last yield is the
    result, a list of (word, coeff) pairs.
    """
    prefix = u[:-1]
    a = u[-1]
    out: dict = {}
    for s, coeff in _exchange(x - a, n):
        p = x - s
        if not prefix or prefix[-1] > p:  # then p = x - s > a + s = r
            first = ((prefix + (p,), _ONE),)
        elif prefix[-1] == p:
            continue
        else:
            first = yield prefix, p
        r = a + s
        for v, cv in first:
            if v[-1] > r:
                _add_product(out, v + (r,), coeff, cv)
            elif v[-1] < r:
                cv = _product(coeff, cv)
                second = yield v, r
                for w, cw in second:
                    _add_product(out, w, cv, cw)
    yield [(w, c) for w, c in out.items() if c]


def _product(a: dict, b: dict) -> dict:
    """a*b, a fresh dict."""
    acc: dict = {}
    _add_product(acc, None, a, b)
    return acc[None]


def _insert(u: tuple, x: int, n: int, memo: dict) -> list:
    """(word, coeff) pairs of the normal form of u + (x,); u is normal and
    u[-1] < x."""
    stack: list = []
    while True:
        key = tuple(map((-x).__add__, u))
        hit = memo.get(key)
        if hit is None:
            frame = _insertion(u, x, n)
            stack.append((key, x, frame))
            reply = next(frame)
        else:
            x0, sent = hit
            if x0 != x:
                shift = (x - x0).__add__
                sent = [(tuple(map(shift, w)), c) for w, c in sent]
            if not stack:
                return sent
            reply = stack[-1][2].send(sent)
        while type(reply) is list:  # a frame is done
            key, x, _ = stack.pop()
            memo[key] = x, reply
            if not stack:
                return reply
            reply = stack[-1][2].send(reply)
        u, x = reply


def straighten_terms(word, n: int) -> dict:
    """Normal-order one word.

    Returns {word: coeff-dict} over strictly decreasing words, zero
    coefficients dropped.
    """
    word = tuple(word)
    j = 1
    while j < len(word) and word[j - 1] > word[j]:
        j += 1
    if j >= len(word):
        return {word: {0: 1}}
    memo: dict = {}
    u, x = word[:j], word[j]
    terms = _insert(u, x, n, memo) if u[-1] < x else ()
    for x in word[j + 1 :]:
        acc: dict = {}
        for u, cu in terms:
            if u[-1] > x:
                _add_product(acc, u + (x,), cu, _ONE)
            elif u[-1] < x:
                for w, cw in _insert(u, x, n, memo):
                    _add_product(acc, w, cu, cw)
        terms = [(w, c) for w, c in acc.items() if c]
    return dict(terms)
