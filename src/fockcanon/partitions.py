"""Partition combinatorics: orders, residues, the abacus, ribbon strips and
domino tableaux.

Partitions are plain tuples of weakly decreasing positive integers; the empty
tuple is the empty partition.  Cells are 1-indexed (row, col) pairs in English
orientation, and the n-residue of a cell (r, c) is (c - r) mod n.

Horizontal n-ribbon strips are bead moves on the Littlewood abacus: mu/lam
is a horizontal strip of weight k iff the beads of mu come from those of lam
by moves up the runners, k steps in all, each bead stopping short of the old
place of the next bead on its runner.  The height statistic is the number of
bead crossings, counted by the static interval rule implemented in
``_crossings`` (cross-validated against the Heisenberg description of the
same operators, see the fock module).
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


def cell_residue(cell: Cell, n: int) -> int:
    r, c = cell
    return (c - r) % n


def diagram(p: Partition) -> set[Cell]:
    return {(r + 1, c + 1) for r, part in enumerate(p) for c in range(part)}


def addable_cells(p: Partition) -> list[Cell]:
    cells = []
    for r in range(len(p) + 1):
        c = (p[r] if r < len(p) else 0) + 1
        if r == 0 or p[r - 1] >= c:
            cells.append((r + 1, c))
    return cells


def removable_cells(p: Partition) -> list[Cell]:
    cells = []
    for r, part in enumerate(p):
        nxt = p[r + 1] if r + 1 < len(p) else 0
        if part > nxt:
            cells.append((r + 1, part))
    return cells


class NodeCounts(NamedTuple):
    """Per-residue indent/removable counts and the number of 0-nodes."""

    indent: tuple[int, ...]
    removable: tuple[int, ...]
    diff: tuple[int, ...]
    zero_nodes: int


def node_counts(p: Partition, n: int) -> NodeCounts:
    indent = [0] * n
    removable = [0] * n
    for cell in addable_cells(p):
        indent[cell_residue(cell, n)] += 1
    for cell in removable_cells(p):
        removable[cell_residue(cell, n)] += 1
    zero = sum(1 for cell in diagram(p) if cell_residue(cell, n) == 0)
    diff = tuple(i - r for i, r in zip(indent, removable))
    return NodeCounts(tuple(indent), tuple(removable), diff, zero)


def _with_cell(p: Partition, cell: Cell) -> Partition:
    r = cell[0] - 1
    parts = list(p) + [0]
    parts[r] += 1
    return tuple(x for x in parts if x)


def _without_cell(p: Partition, cell: Cell) -> Partition:
    r = cell[0] - 1
    parts = list(p)
    parts[r] -= 1
    return tuple(x for x in parts if x)


def _side_counts(p: Partition, i: int, n: int, col: int) -> tuple[int, int]:
    """(N_right, N_left) for the i-nodes of p relative to column ``col``.

    Addable and removable i-nodes occupy pairwise distinct columns, so
    "left"/"right" of a node means strictly smaller/larger column index.
    """
    n_r = n_l = 0
    for cell in addable_cells(p):
        if cell_residue(cell, n) == i and cell[1] != col:
            if cell[1] > col:
                n_r += 1
            else:
                n_l += 1
    for cell in removable_cells(p):
        if cell_residue(cell, n) == i and cell[1] != col:
            if cell[1] > col:
                n_r -= 1
            else:
                n_l -= 1
    return n_r, n_l


def add_node_variants(p: Partition, i: int, n: int) -> list[tuple[Partition, int, int]]:
    """All (mu, N_i^r, N_i^l) with mu/p a single i-node."""
    out = []
    for cell in addable_cells(p):
        if cell_residue(cell, n) == i:
            n_r, n_l = _side_counts(p, i, n, cell[1])
            out.append((_with_cell(p, cell), n_r, n_l))
    return out


def remove_node_variants(p: Partition, i: int, n: int) -> list[tuple[Partition, int, int]]:
    """All (lam, N_i^l, N_i^r) with p/lam a single i-node."""
    out = []
    for cell in removable_cells(p):
        if cell_residue(cell, n) == i:
            lam = _without_cell(p, cell)
            n_r, n_l = _side_counts(lam, i, n, cell[1])
            out.append((lam, n_l, n_r))
    return out


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


def _crossings(intervals_by_runner: list[list[tuple[int, int]]], n: int) -> int:
    """Total bead crossings of a strip move set.

    Each interval is the (initial, final) abacus position of one bead.  A
    moving bead crosses every position strictly inside its travel interval,
    on another runner, that lies inside some bead's closed travel interval.
    """

    def covered(x: int) -> bool:
        for a, b in intervals_by_runner[x % n]:
            if a <= x <= b:
                return True
        return False

    h = 0
    for runner in intervals_by_runner:
        for a, b in runner:
            for x in range(a + 1, b):
                if (x - a) % n and covered(x):
                    h += 1
    return h


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
        intervals: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for b in standing:
            intervals[b % n].append((b, b))
        moved = []
        for b, steps in zip(movers, comp):
            new = b + step * steps
            intervals[b % n].append((min(b, new), max(b, new)))
            moved.append(new)
        other = partition_from_beta(standing + moved)
        source, target = (p, other) if above else (other, p)
        strips.append(RibbonStrip(source, target, n, k, _crossings(intervals, n)))
    return strips


def ribbon_strips_above(p: Partition, n: int, k: int) -> list[RibbonStrip]:
    """All horizontal n-ribbon strips of weight k growing out of p."""
    return _ribbon_strips(p, n, k, above=True)


def ribbon_strips_below(p: Partition, n: int, k: int) -> list[RibbonStrip]:
    """All horizontal n-ribbon strips of weight k inside p (strip removal)."""
    return _ribbon_strips(p, n, k, above=False)


def strip_ribbon_cells(source: Partition, target: Partition, n: int):
    """Canonical ribbon tiling of the strip target/source.

    Elementary bead moves are replayed in increasing order of destination;
    each move contributes one ribbon, returned as (frozenset of cells, height).
    """
    slots = _norm_slots(target, n, extra=1)
    if slots < max(len(source), 1):
        slots = _norm_slots(source, n, extra=1)
    src_rows = _runner_rows(source, n, slots)
    tgt_rows = _runner_rows(target, n, slots)
    moves = []
    for r in range(n):
        if len(src_rows[r]) != len(tgt_rows[r]):
            raise ValueError("not a strip: runner bead counts differ")
        for old, new in zip(src_rows[r], tgt_rows[r]):
            if new < old:
                raise ValueError("target does not contain source")
            for step in range(old, new):
                start = r + n * step
                moves.append((start + n, start))  # (destination, origin)
    moves.sort()
    beads = set(b for r in range(n) for b in (r + n * row for row in src_rows[r]))
    ribbons = []
    current = source
    for dest, origin in moves:
        if dest in beads or origin not in beads:
            raise ValueError("inconsistent move sequence")
        beads.remove(origin)
        beads.add(dest)
        after = partition_from_beta(beads)
        cells = frozenset(diagram(after) - diagram(current))
        if len(cells) != n:
            raise ValueError("move did not add a single ribbon")
        height = len({r for r, _ in cells})
        ribbons.append((cells, height))
        current = after
    if current != target:
        raise ValueError("moves did not reach the target shape")
    return ribbons


# -- dominoes (n = 2) ----------------------------------------------------------


def two_sign(p: Partition) -> int:
    """(-1)^v for v the vertical-domino count of any tiling of p."""
    slots = _norm_slots(p, 2)
    beads = set(beta_set(p, slots))
    v = 0
    moved = True
    while moved:
        moved = False
        for b in sorted(beads):
            if b >= 2 and (b - 2) not in beads:
                beads.remove(b)
                beads.add(b - 2)
                if (b - 1) in beads:
                    v += 1
                moved = True
                break
    if beads != set(range(slots)):
        raise NotTileableError(f"{p} has a nonempty 2-core")
    return -1 if v % 2 else 1


class DominoTableau(NamedTuple):
    """A semistandard domino tableau, stored as labeled dominoes."""

    shape: Partition
    weight: Partition
    dominoes: tuple[tuple[int, frozenset[Cell]], ...]
    vertical: int


def _reading_word(dominoes) -> list[int]:
    # Each domino is recorded at its topmost-leftmost cell; the word reads
    # columns right to left, top to bottom inside each column.
    recorded = [(min(cells), label) for label, cells in dominoes]
    recorded.sort(key=lambda t: (-t[0][1], t[0][0]))
    return [label for _, label in recorded]


def _is_yamanouchi(word) -> bool:
    counts: dict[int, int] = {}
    for a in word:
        counts[a] = counts.get(a, 0) + 1
        if a > 1 and counts[a] > counts.get(a - 1, 0):
            return False
    return True


def yamanouchi_domino_tableaux(shape: Partition, weight: Partition) -> list[DominoTableau]:
    """All Yamanouchi domino tableaux of the given shape and weight.

    A semistandard domino tableau is a chain of horizontal 2-ribbon strips,
    one per label, removed here from the shape down, the last label first;
    the Yamanouchi condition filters on the column reading word.  The
    vertical-domino count equals the sum of strip heights.
    """
    if sum(shape) != 2 * sum(weight):
        raise SizeMismatchError(f"|{shape}| != 2|{weight}|")
    out: list[DominoTableau] = []

    def rec(current: Partition, label: int, dominoes):
        if label == 0:
            if not _is_yamanouchi(_reading_word(dominoes)):
                return
            v = sum(1 for _, cells in dominoes if len({r for r, _ in cells}) == 2)
            out.append(DominoTableau(shape, weight, dominoes, v))
            return
        for strip in ribbon_strips_below(current, 2, weight[label - 1]):
            ribbons = strip_ribbon_cells(strip.source, current, 2)
            assert sum(ht - 1 for _, ht in ribbons) == strip.height
            rec(
                strip.source,
                label - 1,
                tuple((label, cells) for cells, _ in ribbons) + dominoes,
            )

    rec(shape, len(weight), ())
    return out
