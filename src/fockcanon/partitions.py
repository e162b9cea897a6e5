"""Partition combinatorics: orders, residues, the abacus, ribbon strips and
domino tableaux.

Partitions are plain tuples of weakly decreasing positive integers; the empty
tuple is the empty partition.  Cells are 1-indexed (row, col) pairs in English
orientation, and the n-residue of a cell (r, c) is (c - r) mod n.

The rim of a partition is read once, by ``rim_nodes``: its addable and
removable nodes, top row first.  Along that list the nodes of one residue i
stand in strictly decreasing columns, so for an i-node b, N_i^r (addable
minus removable i-nodes right of b) is the signed count of the i-nodes
before b and N_i^l (left of b) that of the i-nodes after it.  f_i adds b
with weight q^{N_i^r}, e_i removes it with q^{-N_i^l}.  f_i is read from
``node_row``, the memoized row of a partition: its f_i for every residue
and its f-step, which ``fock.f_action`` and the bar images of the wedge
module both read.  e_i scans the rim on each call.

Horizontal n-ribbon strips are bead moves on the Littlewood abacus.  A strip
of weight k is k steps, each moving a bead one place up its runner to a free
place, taken in increasing order of destination; ``_strip_steps`` walks them
depth first, scanning for each next step's origin past the last one (removal
walks the same steps down, in decreasing order).  The order alone keeps the
strip horizontal: a bead below another on its runner cannot pass that
bead's old place before it moves, and cannot step at all after it.
Each step adds an n-ribbon whose height (rows - 1) is the number of beads it
passes, so the height of a strip is the number of beads passed
(cross-validated against the Heisenberg description of the same operators,
see the fock module), and a domino is vertical iff its step passes a bead.
The 2-sign of a tileable partition is read off its parts instead: half the
number of odd parts has the parity of the vertical-domino count.

``steinberg_decompose`` writes a partition with n-singular conjugate as
mu + n*alpha, mu n-restricted: the split behind the Steinberg factorization
of the lower basis and behind the S-step of the bar images (see wedge).
"""

from __future__ import annotations

from functools import lru_cache
from operator import ge
from typing import Iterator, NamedTuple

Partition = tuple[int, ...]
Cell = tuple[int, int]


class SizeMismatchError(ValueError):
    """Two partitions that must have equal size do not."""


class NotTileableError(ValueError):
    """The shape admits no domino tiling (nonempty 2-core)."""


class NotApplicableError(ValueError):
    """Steinberg factorization requested for a partition with n-regular conjugate."""


def check_partition(parts) -> Partition:
    """Validate a list or tuple of parts into a Partition: positive ints (not
    bools, floats or strings), weakly decreasing.  Each test is one pass of
    a builtin, since the operators check their keys with it (fock.e_action
    on every call)."""
    if type(parts) not in (list, tuple):
        raise ValueError(f"a partition is a list of parts, not {parts!r}")
    p = tuple(parts)
    if not {int}.issuperset(map(type, p)):
        raise ValueError(f"parts must be integers: {p}")
    if p and min(p) <= 0:
        raise ValueError(f"parts must be positive: {p}")
    if not all(map(ge, p, p[1:])):
        raise ValueError(f"parts must be weakly decreasing: {p}")
    return p


def partition_label(p: Partition, sep: str = "") -> str:
    """Text form of p for kets and matrix labels: "0" for the empty partition,
    else the parts joined by sep.  With no sep a part above 9 would make the
    parts run together ((11) and (1,1) both read "11"), so such a partition
    is written as a bracketed list, "[11]"."""
    if not p:
        return "0"
    if any(x > 9 for x in p) and not sep:
        return "[" + ",".join(str(x) for x in p) + "]"
    return sep.join(str(x) for x in p)


def conjugate(p: Partition) -> Partition:
    if not p:
        return ()
    out = [0] * p[0]
    for part in p:
        for c in range(part):
            out[c] += 1
    return tuple(out)


def dominance_leq(a: Partition, b: Partition) -> bool:
    """True iff a is dominated by b (every prefix sum of a is <= that of b)."""
    if sum(a) != sum(b):
        raise SizeMismatchError(f"|{a}| != |{b}|")
    ta = tb = 0
    for i in range(max(len(a), len(b))):
        ta += a[i] if i < len(a) else 0
        tb += b[i] if i < len(b) else 0
        if ta > tb:
            return False
    return True


def _gen_partitions(m: int, max_part: int) -> Iterator[Partition]:
    if m == 0:
        yield ()
        return
    for first in range(min(m, max_part), 0, -1):
        for rest in _gen_partitions(m - first, first):
            yield (first,) + rest


def partitions_of(m: int) -> Iterator[Partition]:
    """All partitions of m in descending reverse-lexicographic order."""
    return _gen_partitions(m, m if m > 0 else 1)


@lru_cache(maxsize=None)
def revlex_order(m: int) -> tuple[Partition, ...]:
    """Partitions of m, largest first: (4),(31),(22),(211),(1111) for m=4."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return tuple(partitions_of(m))


# -- nodes and residues ------------------------------------------------------


def diagram(p: Partition) -> set[Cell]:
    return {(r + 1, c + 1) for r, part in enumerate(p) for c in range(part)}


def rim_nodes(p: Partition, n: int) -> list[tuple[int, int, int]]:
    """(sign, row, residue) for each addable (+1) and removable (-1) node of
    p, rows 0-indexed, top row first and in a row the addable node first."""
    nodes = []
    for r in range(len(p) + 1):
        part = p[r] if r < len(p) else 0
        if r == 0 or p[r - 1] > part:
            nodes.append((1, r, (part - r) % n))
        if part and (r + 1 == len(p) or p[r + 1] < part):
            nodes.append((-1, r, (part - r - 1) % n))
    return nodes


class NodeCounts(NamedTuple):
    """Per-residue indent/removable counts and the number of 0-nodes."""

    indent: tuple[int, ...]
    removable: tuple[int, ...]
    diff: tuple[int, ...]
    zero_nodes: int


def node_counts(p: Partition, n: int) -> NodeCounts:
    indent = [0] * n
    removable = [0] * n
    for sign, _, i in rim_nodes(p, n):
        (indent if sign > 0 else removable)[i] += 1
    zero = sum(1 for r, c in diagram(p) if (c - r) % n == 0)
    diff = tuple(i - r for i, r in zip(indent, removable))
    return NodeCounts(tuple(indent), tuple(removable), diff, zero)


@lru_cache(maxsize=None)
def node_row(p: Partition, n: int) -> tuple:
    """The f_i row of p, from one rim_nodes scan: (f-step, variants).

    variants[i] lists (mu, N_i^r) for each addable i-node b of p, mu = p + b,
    top row first.  The f-step is (i, mu) with p = mu + b for the first
    removable node b whose residue i has no addable node of p in a row above
    it, or None when there is no such node.  p then has no i-node above b,
    so f_i|mu> is |p> plus lex-smaller terms (see wedge).  Rows are memoized
    until wedge.clear_caches and hold only tuples, so no caller can change
    one.  A p that is not a partition raises ValueError on its miss.
    """
    check_partition(p)
    variants: list[tuple[tuple[Partition, int], ...]] = [()] * n
    counts = [0] * n
    step = None
    padded = p + (0,)
    for sign, r, i in rim_nodes(p, n):
        if sign > 0:
            variants[i] += ((padded[:r] + (padded[r] + 1,) + p[r + 1 :], counts[i]),)
        elif step is None and not variants[i]:
            step = i, remove_node(p, r)
        counts[i] += sign
    return step, tuple(variants)


def add_node_variants(p: Partition, i: int, n: int) -> tuple[tuple[Partition, int], ...]:
    """All (mu, N_i^r) with mu/p a single i-node b: N_i^r is the number of
    addable minus removable i-nodes of p to the right of b.  This is the
    stored tuple of p's row (see node_row), read for every i, so that a p
    that is not a partition raises ValueError whatever the residue."""
    variants = node_row(p, n)[1]
    return variants[i] if 0 <= i < n else ()


def remove_node_variants(p: Partition, i: int, n: int) -> list[tuple[Partition, int]]:
    """All (lam, N_i^l) with p/lam a single i-node b: N_i^l is the number of
    addable minus removable i-nodes of p to the left of b."""
    out, count = [], 0
    for sign, r, res in reversed(rim_nodes(p, n)):
        if res == i:
            if sign < 0:
                out.append((remove_node(p, r), count))
            count += sign
    return out[::-1]


def remove_node(p: Partition, r: int) -> Partition:
    """p without the removable node of row r (0-indexed)."""
    lam = p[:r] + (p[r] - 1,) + p[r + 1 :]
    return lam if lam[-1] else lam[:-1]


def is_n_regular(p: Partition, n: int) -> bool:
    for j in range(len(p) - n + 1):
        if p[j] == p[j + n - 1]:
            return False
    return True


def steinberg_decompose(p: Partition, n: int) -> tuple[Partition, Partition]:
    """Write p = mu + n*alpha with mu n-restricted (mu' n-regular).

    Each row difference p_i - p_{i+1} (p_{l+1} = 0) splits into its residue
    mod n, a row difference of mu, and its quotient, one of alpha.  Raises
    NotApplicableError when alpha is empty, that is when p' is n-regular.
    """
    mu_rows: list[int] = []
    alpha_rows: list[int] = []
    mu_sum = alpha_sum = below = 0
    for part in reversed(p):
        quo, rem = divmod(part - below, n)
        mu_sum, alpha_sum, below = mu_sum + rem, alpha_sum + quo, part
        mu_rows.append(mu_sum)
        alpha_rows.append(alpha_sum)
    if not alpha_sum:
        raise NotApplicableError(f"conjugate of {p} is {n}-regular")
    return (
        tuple(x for x in reversed(mu_rows) if x),
        tuple(x for x in reversed(alpha_rows) if x),
    )


# -- abacus, cores and quotients ---------------------------------------------


def beta_set(p: Partition, slots: int) -> tuple[int, ...]:
    """First-column hook lengths beta_j = p_j - j + slots (1-indexed j)."""
    if slots < len(p):
        raise ValueError("slots must cover all parts")
    return tuple((p[j] if j < len(p) else 0) + slots - 1 - j for j in range(slots))


def partition_from_beta(beta) -> Partition:
    bs = sorted(beta, reverse=True)
    total = len(bs)
    parts = []
    for j, b in enumerate(bs):
        part = b - (total - 1 - j)
        if part < 0:
            raise ValueError(f"invalid beta set {beta}")
        if part:
            parts.append(part)
    return tuple(parts)


def _norm_slots(p: Partition, n: int, extra: int = 0) -> int:
    """Smallest multiple of n that is >= max(len(p),1) + n*extra."""
    need = max(len(p), 1) + n * extra
    return n * ((need + n - 1) // n)


def _runner_rows(p: Partition, n: int, slots: int) -> list[list[int]]:
    """Bead row positions per runner, ascending within each runner."""
    rows: list[list[int]] = [[] for _ in range(n)]
    for b in beta_set(p, slots):
        rows[b % n].append(b // n)
    for r in rows:
        r.sort()
    return rows


def _rows_to_quotient(rows: list[int]) -> Partition:
    parts = [row - j for j, row in enumerate(rows)]
    return tuple(x for x in reversed(parts) if x)


def n_core_quotient(p: Partition, n: int) -> tuple[Partition, tuple[Partition, ...]]:
    """The n-core and n-quotient via the abacus (slot count fixed mod n)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    slots = _norm_slots(p, n)
    rows = _runner_rows(p, n, slots)
    quotient = tuple(_rows_to_quotient(r) for r in rows)
    core_beta = [r + n * j for r, rws in enumerate(rows) for j in range(len(rws))]
    core = partition_from_beta(core_beta)
    return core, quotient


# -- horizontal ribbon strips -------------------------------------------------


class RibbonStrip(NamedTuple):
    """A horizontal n-ribbon strip between two partitions."""

    source: Partition
    target: Partition
    length: int  # ribbon size n
    weight: int  # number of ribbons
    height: int  # sum of (ht(R) - 1) over the tiling


def _strip_steps(p: Partition, n: int, k: int, above: bool):
    """Every horizontal n-ribbon strip of weight k growing out of p (above) or
    inside p (below), as (other partition, bead count, steps): k steps, each
    moving a bead one place up its runner to a free place, in increasing
    order of destination (removal walks them down, in decreasing order).
    A step is given as it goes up: (origin, beads passed, beads under the
    origin before the step).

    The walk is depth first over a stack of place ranges, one per step
    taken: each holds the places still to try after that step, above it up
    to ``last`` (removal: below it down to ``tail``), so destinations keep
    their order.  A place u is an origin when it holds ``bead`` and u + n
    does not.  The k-th step yields and is undone at once; an exhausted
    range pops its level and undoes the step under it.
    """
    if n < 2 or k < 0:
        raise ValueError("need n >= 2 and k >= 0")
    slots = _norm_slots(p, n, extra=k)
    tail = slots - len(p)  # beads 0 .. tail - 1 stand for the empty rows
    filled = bytearray(b"\x01") * tail + bytearray((p[0] if p else 0) + len(p) + n * k)
    for j, part in enumerate(p):
        filled[part + slots - 1 - j] = 1
    if not k:
        yield _partition_of(filled), slots, ()
        return
    last = len(filled) - n  # a step between u and u + n needs u < last
    bead = 1 if above else 0  # what an origin holds, going up or down
    levels = [iter(range(max(tail - n, 0), last) if above else range(last - 1, tail - 1, -1))]
    steps: list[tuple[int, int, int]] = []
    while levels:
        for u in levels[-1]:
            if filled[u] == bead and filled[u + n] != bead:
                break
        else:
            levels.pop()
            if steps:
                u = steps.pop()[0]
                filled[u], filled[u + n] = filled[u + n], filled[u]
            continue
        steps.append((u, filled.count(1, u + 1, u + n), filled.count(1, 0, u)))
        filled[u], filled[u + n] = filled[u + n], filled[u]
        if len(steps) < k:
            levels.append(iter(range(u + 1, last) if above else range(u - 1, tail - 1, -1)))
            continue
        yield _partition_of(filled), slots, tuple(steps)
        steps.pop()
        filled[u], filled[u + n] = filled[u + n], filled[u]


def _partition_of(filled: bytearray) -> Partition:
    """The partition whose beads are the places set in filled: each bead above
    the first free place gives a part, the number of free places below it."""
    parts = []
    gaps = 0
    for bead in filled[filled.find(0) :]:
        if not bead:
            gaps += 1
        elif gaps:
            parts.append(gaps)
    return tuple(parts[::-1])


def ribbon_strips_above(p: Partition, n: int, k: int) -> list[RibbonStrip]:
    """All horizontal n-ribbon strips of weight k growing out of p; the height
    is the number of beads the steps pass."""
    return [
        RibbonStrip(p, other, n, k, sum([s[1] for s in steps]))
        for other, _, steps in _strip_steps(p, n, k, True)
    ]


def ribbon_strips_below(p: Partition, n: int, k: int) -> list[RibbonStrip]:
    """All horizontal n-ribbon strips of weight k inside p (strip removal)."""
    return [
        RibbonStrip(other, p, n, k, sum([s[1] for s in steps]))
        for other, _, steps in _strip_steps(p, n, k, False)
    ]


# -- dominoes (n = 2) ----------------------------------------------------------


def two_sign(p: Partition) -> int:
    """(-1)^v for v the vertical-domino count of any tiling of p: a horizontal
    domino covers an odd and an even column, a vertical one two cells of one
    column, so v has the parity of half the excess of odd-column cells, and
    that excess is the number of odd parts."""
    if n_core_quotient(p, 2)[0]:
        raise NotTileableError(f"{p} has a nonempty 2-core")
    return -1 if sum(x % 2 for x in p) // 2 % 2 else 1


class DominoTableau(NamedTuple):
    """A semistandard domino tableau: (label, top-left cell) per domino."""

    shape: Partition
    weight: Partition
    dominoes: tuple[tuple[int, Cell], ...]
    vertical: int


def _is_yamanouchi(dominoes) -> bool:
    """Whether the column reading word is a lattice word: the labels at the
    top-left cells, columns right to left, top to bottom inside each."""
    counts: dict[int, int] = {}
    for a, _ in sorted(dominoes, key=lambda d: (-d[1][1], d[1][0])):
        counts[a] = counts.get(a, 0) + 1
        if a > 1 and counts[a] > counts.get(a - 1, 0):
            return False
    return True


def yamanouchi_domino_tableaux(shape: Partition, weight: Partition) -> list[DominoTableau]:
    """All Yamanouchi domino tableaux of the given shape and weight.

    A semistandard domino tableau is a chain of horizontal 2-ribbon strips,
    one per label, removed here from the shape down, the last label first.
    A step up from o that passes `passed` beads, with `below` of the `beads`
    beads under o, adds the domino with top-left cell
    (beads - below - passed, o - below + 1).  The vertical-domino count is
    the number of beads passed.
    """
    if sum(shape) != 2 * sum(weight):
        raise SizeMismatchError(f"|{shape}| != 2|{weight}|")
    out: list[DominoTableau] = []

    def rec(current: Partition, label: int, dominoes, vertical: int):
        if label == 0:
            if _is_yamanouchi(dominoes):
                out.append(DominoTableau(shape, weight, dominoes, vertical))
            return
        for source, beads, steps in _strip_steps(current, 2, weight[label - 1], above=False):
            cells = tuple(
                (label, (beads - below - passed, o - below + 1)) for o, passed, below in steps
            )
            rec(source, label - 1, cells + dominoes, vertical + sum(s[1] for s in steps))

    rec(shape, len(weight), (), 0)
    return out
