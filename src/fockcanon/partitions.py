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
with weight q^{N_i^r}, e_i removes it with q^{-N_i^l}.

Horizontal n-ribbon strips are bead moves on the Littlewood abacus: mu/lam
is a horizontal strip of weight k iff the beads of mu come from those of lam
by moves up the runners, k steps in all, each bead stopping short of the old
place of the next bead on its runner.  ``_replay`` makes those steps one at
a time, in increasing order of destination; each adds an n-ribbon whose
height (rows - 1) is the number of beads it passes.  So the height of a
strip is the number of beads passed (cross-validated against the Heisenberg
description of the same operators, see the fock module), a domino is
vertical iff its step passes a bead, and the 2-sign of a partition is the
parity of the beads passed on the way up from the empty partition.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

Partition = tuple[int, ...]
Cell = tuple[int, int]


class SizeMismatchError(ValueError):
    """Two partitions that must have equal size do not."""


class NotTileableError(ValueError):
    """The shape admits no domino tiling (nonempty 2-core)."""


def check_partition(parts) -> Partition:
    """Validate a list or tuple of parts into a Partition: positive ints (not
    bools, floats or strings), weakly decreasing."""
    if type(parts) not in (list, tuple):
        raise ValueError(f"a partition is a list of parts, not {parts!r}")
    p = tuple(parts)
    if any(type(x) is not int for x in p):
        raise ValueError(f"parts must be integers: {p}")
    if any(x <= 0 for x in p):
        raise ValueError(f"parts must be positive: {p}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
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


@lru_cache(maxsize=None)
def revlex_index(m: int) -> dict[Partition, int]:
    return {p: i for i, p in enumerate(revlex_order(m))}


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


def add_node_variants(p: Partition, i: int, n: int) -> list[tuple[Partition, int]]:
    """All (mu, N_i^r) with mu/p a single i-node b: N_i^r is the number of
    addable minus removable i-nodes of p to the right of b."""
    out, count = [], 0
    padded = p + (0,)
    for sign, r, res in rim_nodes(p, n):
        if res == i:
            if sign > 0:
                out.append((padded[:r] + (padded[r] + 1,) + p[r + 1 :], count))
            count += sign
    return out


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


def _compositions(total: int, caps: list[int]):
    """Tuples of nonnegative integers summing to total, entry r <= caps[r]."""
    if not caps:
        if total == 0:
            yield ()
        return
    for first in range(min(total, caps[0]) + 1):
        for rest in _compositions(total - first, caps[1:]):
            yield (first,) + rest


def _replay(beads: set[int], dests, n: int) -> Iterator[tuple[int, int]]:
    """Move beads up one runner step at a time, to each of dests in increasing
    order, yielding before each move its origin and the number of beads it
    passes (those strictly between origin and destination)."""
    for d in sorted(dests):
        o = d - n
        yield o, sum(b in beads for b in range(o + 1, d))
        beads.remove(o)
        beads.add(d)


def _ribbon_strips(p: Partition, n: int, k: int, above: bool) -> list[RibbonStrip]:
    """All horizontal n-ribbon strips of weight k growing out of p (above) or
    inside p (below): beads move k runner steps in all, up (above) or down
    (below), each stopping short of the old place of the next bead on its
    runner and never below position 0."""
    if n < 2 or k < 0:
        raise ValueError("need n >= 2 and k >= 0")
    beads = beta_set(p, _norm_slots(p, n, extra=k))
    occupied = set(beads)
    step = n if above else -n
    standing, movers, rooms = [], [], []
    for b in beads:
        room, dest = 0, b + step
        while room < k and dest >= 0 and dest not in occupied:
            room, dest = room + 1, dest + step
        if room:
            movers.append(b)
            rooms.append(room)
        else:
            standing.append(b)
    strips = []
    for comp in _compositions(k, rooms):
        moved = [b + step * steps for b, steps in zip(movers, comp)]
        # replay upward from the beads before the strip
        lows, highs = (movers, moved) if above else (moved, movers)
        dests = [d for lo, hi in zip(lows, highs) for d in range(lo + n, hi + 1, n)]
        height = sum(passed for _, passed in _replay(set(standing + lows), dests, n))
        other = partition_from_beta(standing + moved)
        source, target = (p, other) if above else (other, p)
        strips.append(RibbonStrip(source, target, n, k, height))
    return strips


def ribbon_strips_above(p: Partition, n: int, k: int) -> list[RibbonStrip]:
    """All horizontal n-ribbon strips of weight k growing out of p."""
    return _ribbon_strips(p, n, k, above=True)


def ribbon_strips_below(p: Partition, n: int, k: int) -> list[RibbonStrip]:
    """All horizontal n-ribbon strips of weight k inside p (strip removal)."""
    return _ribbon_strips(p, n, k, above=False)


# -- dominoes (n = 2) ----------------------------------------------------------


def two_sign(p: Partition) -> int:
    """(-1)^v for v the vertical-domino count of any tiling of p."""
    slots = _norm_slots(p, 2)
    rows = _runner_rows(p, 2, slots)
    if len(rows[0]) != len(rows[1]):
        raise NotTileableError(f"{p} has a nonempty 2-core")
    beads, v = set(range(slots)), 0
    for j in reversed(range(slots // 2)):  # top beads first: no step lands on a bead yet to move
        dests = [r + 2 * s for r in (0, 1) for s in range(j + 1, rows[r][j] + 1)]
        v += sum(passed for _, passed in _replay(beads, dests, 2))
    return -1 if v % 2 else 1


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
    Replaying a strip from its source, the step from bead o with `below`
    beads under it adds the domino with top-left cell
    (slots - below - passed, o - below + 1).  The vertical-domino count is
    the sum of strip heights.
    """
    if sum(shape) != 2 * sum(weight):
        raise SizeMismatchError(f"|{shape}| != 2|{weight}|")
    out: list[DominoTableau] = []

    def rec(current: Partition, label: int, dominoes, vertical: int):
        if label == 0:
            if _is_yamanouchi(dominoes):
                out.append(DominoTableau(shape, weight, dominoes, vertical))
            return
        slots = _norm_slots(current, 2)
        highs = _runner_rows(current, 2, slots)
        for strip in ribbon_strips_below(current, 2, weight[label - 1]):
            lows = _runner_rows(strip.source, 2, slots)
            dests = [
                r + 2 * s
                for r in (0, 1)
                for lo, hi in zip(lows[r], highs[r])
                for s in range(lo + 1, hi + 1)
            ]
            beads = set(beta_set(strip.source, slots))
            cells = []
            for o, passed in _replay(beads, dests, 2):
                below = sum(b < o for b in beads)
                cells.append((label, (slots - below - passed, o - below + 1)))
            rec(strip.source, label - 1, tuple(cells) + dominoes, vertical + strip.height)

    rec(shape, len(weight), (), 0)
    return out
