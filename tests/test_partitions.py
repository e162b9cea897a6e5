from collections import Counter
from itertools import product

import pytest

from fockcanon import partitions as pt, wedge


# -- conjugation and orders ----------------------------------------------------


def test_conjugate_examples():
    assert pt.conjugate((2, 1, 1)) == (3, 1)
    assert pt.conjugate(()) == ()
    assert pt.conjugate((2, 2)) == (2, 2)


def test_dominance_examples():
    assert pt.dominance_leq((1, 1, 1, 1), (4,))
    assert not pt.dominance_leq((3, 1), (2, 2))
    assert pt.dominance_leq((2, 1), (2, 1))


def test_dominance_size_mismatch():
    with pytest.raises(pt.SizeMismatchError):
        pt.dominance_leq((2,), (1,))


def test_dominance_conjugate_reversal():
    for m in range(9):
        for a in pt.partitions_of(m):
            for b in pt.partitions_of(m):
                assert pt.dominance_leq(a, b) == pt.dominance_leq(
                    pt.conjugate(b), pt.conjugate(a)
                )


def test_revlex_order_m4():
    assert pt.revlex_order(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_revlex_order_edge():
    assert pt.revlex_order(0) == ((),)
    assert pt.revlex_order(3) == ((3,), (2, 1), (1, 1, 1))


def test_revlex_extends_dominance():
    for m in range(11):
        idx = pt.revlex_index(m)
        for a in pt.partitions_of(m):
            for b in pt.partitions_of(m):
                if pt.dominance_leq(a, b) and a != b:
                    assert idx[a] > idx[b]


# -- node counts ---------------------------------------------------------------


def test_node_counts_empty():
    nc = pt.node_counts((), 2)
    assert nc.indent == (1, 0)
    assert nc.removable == (0, 0)
    assert nc.diff == (1, 0)
    assert nc.zero_nodes == 0


def test_node_counts_single_box():
    nc = pt.node_counts((1,), 2)
    assert nc.diff == (-1, 2)
    assert nc.zero_nodes == 1


def test_node_counts_21():
    assert pt.node_counts((2, 1), 2).zero_nodes == 1


def test_node_counts_sum_is_one():
    for m in range(8):
        for lam in pt.partitions_of(m):
            for n in (2, 3, 4):
                assert sum(pt.node_counts(lam, n).diff) == 1


def test_add_node_variants_examples():
    assert pt.add_node_variants((1,), 1, 2) == [((2,), 0), ((1, 1), 1)]
    assert pt.add_node_variants((1,), 0, 2) == []
    assert pt.add_node_variants((), 0, 2) == [((1,), 0)]


def _addable_cells(p):
    return [
        (r + 1, (p[r] if r < len(p) else 0) + 1)
        for r in range(len(p) + 1)
        if r == 0 or p[r - 1] > (p[r] if r < len(p) else 0)
    ]


def _removable_cells(p):
    return [
        (r + 1, part)
        for r, part in enumerate(p)
        if part > (p[r + 1] if r + 1 < len(p) else 0)
    ]


def _residue(cell, n):
    return (cell[1] - cell[0]) % n


def _side_counts(p, i, n, col):
    """(N_right, N_left): addable minus removable i-nodes of p in a column
    strictly right or left of col, cell by cell."""
    n_r = n_l = 0
    for cells, sign in ((_addable_cells(p), 1), (_removable_cells(p), -1)):
        for cell in cells:
            if _residue(cell, n) == i and cell[1] > col:
                n_r += sign
            elif _residue(cell, n) == i and cell[1] < col:
                n_l += sign
    return n_r, n_l


def _with_row(p, r, delta):
    parts = list(p) + [0]
    parts[r - 1] += delta
    return tuple(x for x in parts if x)


def _oracle_variants(p, i, n):
    """(add, remove) lists as the cell-by-cell rule gives them: N_i^r for an
    added node, N_i^l for a removed one, counted on the smaller partition."""
    add = [
        (_with_row(p, r, 1), _side_counts(p, i, n, c)[0])
        for r, c in _addable_cells(p)
        if _residue((r, c), n) == i
    ]
    remove = []
    for r, c in _removable_cells(p):
        if _residue((r, c), n) == i:
            lam = _with_row(p, r, -1)
            remove.append((lam, _side_counts(lam, i, n, c)[1]))
    return add, remove


def _oracle_f_step(lam, n):
    addable = _addable_cells(lam)
    for row, col in _removable_cells(lam):
        i = _residue((row, col), n)
        if all(a[0] > row or _residue(a, n) != i for a in addable):
            return i, _with_row(lam, row, -1)
    return None


def test_node_variants_match_cell_oracle():
    for m in range(9):
        for lam in pt.partitions_of(m):
            for n in (2, 3, 4):
                counts = pt.node_counts(lam, n)
                for cells, tally in ((_addable_cells(lam), counts.indent),
                                     (_removable_cells(lam), counts.removable)):
                    assert tally == tuple(
                        sum(_residue(cell, n) == i for cell in cells) for i in range(n)
                    )
                for i in range(n):
                    add, remove = _oracle_variants(lam, i, n)
                    assert pt.add_node_variants(lam, i, n) == add
                    assert pt.remove_node_variants(lam, i, n) == remove


def test_f_step_matches_cell_oracle():
    for m in range(10):
        for lam in pt.partitions_of(m):
            for n in (2, 3, 4):
                assert wedge._f_step(lam, n) == _oracle_f_step(lam, n)


def test_remove_node_variants_inverse_of_add():
    for m in range(7):
        for lam in pt.partitions_of(m):
            for n in (2, 3):
                for i in range(n):
                    ups = {mu for mu, _ in pt.add_node_variants(lam, i, n)}
                    for mu in ups:
                        downs = {x for x, _ in pt.remove_node_variants(mu, i, n)}
                        assert lam in downs


# -- abacus --------------------------------------------------------------------


def test_core_examples():
    assert pt.n_core_quotient((2, 1, 1), 2)[0] == ()
    assert pt.n_core_quotient((), 5)[0] == ()
    assert pt.n_core_quotient((2, 1), 2)[0] == (2, 1)


def test_core_quotient_size():
    for m in range(9):
        for lam in pt.partitions_of(m):
            for n in (2, 3, 4):
                core, quot = pt.n_core_quotient(lam, n)
                assert sum(core) + n * sum(map(sum, quot)) == m


def test_core_quotient_injective_and_cores_fixed():
    for m in range(11):
        for n in (2, 3, 4):
            seen = {}
            for lam in pt.partitions_of(m):
                key = pt.n_core_quotient(lam, n)
                assert seen.setdefault(key, lam) == lam
                core = key[0]
                assert pt.n_core_quotient(core, n) == (core, ((),) * n)


def test_quotient_normalization_invariance():
    # moving to a deeper abacus window (slots + n) never changes the answer
    for m in range(8):
        for lam in pt.partitions_of(m):
            for n in (2, 3):
                slots = pt._norm_slots(lam, n)
                rows_a = pt._runner_rows(lam, n, slots)
                rows_b = pt._runner_rows(lam, n, slots + n)
                qa = tuple(pt._rows_to_quotient(r) for r in rows_a)
                qb = tuple(pt._rows_to_quotient(r) for r in rows_b)
                assert qa == qb


def test_is_n_regular():
    assert not pt.is_n_regular((1, 1), 2)
    assert pt.is_n_regular((2, 1), 2)
    assert pt.is_n_regular((3, 3, 1), 3)


# -- ribbon strips -------------------------------------------------------------


def test_strips_above_examples():
    got = {(s.target, s.height) for s in pt.ribbon_strips_above((), 2, 1)}
    assert got == {((2,), 0), ((1, 1), 1)}
    assert pt.ribbon_strips_above((), 2, 0) == [pt.RibbonStrip((), (), 2, 0, 0)]
    got3 = {(s.target, s.height) for s in pt.ribbon_strips_above((), 3, 1)}
    assert got3 == {((3,), 0), ((2, 1), 1), ((1, 1, 1), 2)}


def _horizontal_strips_above(q, total, max_rows):
    """All partitions obtained from q by adding a horizontal strip of ``total``."""

    def rec(i, remaining, bound, acc):
        if i == max_rows:
            if remaining == 0:
                yield tuple(x for x in acc if x)
            return
        cur = q[i] if i < len(q) else 0
        hi = min(bound, cur + remaining)
        for new in range(hi, cur - 1, -1):
            yield from rec(i + 1, remaining - (new - cur), cur, acc + [new])

    yield from rec(0, total, (q[0] if q else 0) + total, [])


def _horizontal_strips_below(q, total):
    """All partitions obtained from q by removing a horizontal strip of ``total``."""

    def rec(i, remaining, acc):
        if i == len(q):
            if remaining == 0:
                yield tuple(x for x in acc if x)
            return
        nxt = q[i + 1] if i + 1 < len(q) else 0
        for new in range(q[i], nxt - 1, -1):
            spent = q[i] - new
            if spent > remaining:
                break
            yield from rec(i + 1, remaining - spent, acc + [new])

    yield from rec(0, total, [])


def _crossings(intervals_by_runner, n):
    """Total bead crossings of a strip move set, by a static interval rule.

    Each interval is the (initial, final) abacus position of one bead.  A
    moving bead crosses every position strictly inside its travel interval,
    on another runner, that lies inside some bead's closed travel interval.
    """

    def covered(x):
        return any(a <= x <= b for a, b in intervals_by_runner[x % n])

    return sum(
        1
        for runner in intervals_by_runner
        for a, b in runner
        for x in range(a + 1, b)
        if (x - a) % n and covered(x)
    )


def _strips_via_quotients(p, n, k, above):
    """(source, target, height) of every horizontal n-ribbon strip of weight
    k at p, the quotient way: each n-quotient component grows (above) or
    shrinks (below) by an ordinary horizontal strip, the sizes a composition
    of k, and the new quotients go back to bead rows for the crossing count
    (every bead gets an interval, a standing one a point)."""
    rows = pt._runner_rows(p, n, pt._norm_slots(p, n, extra=k))
    counts = [len(r) for r in rows]
    quots = [pt._rows_to_quotient(r) for r in rows]
    # a horizontal strip removed from q has at most q_1 boxes
    caps = [k] * n if above else [q[0] if q else 0 for q in quots]
    out = []
    for comp in product(range(k + 1), repeat=n):
        if sum(comp) != k or any(c > cap for c, cap in zip(comp, caps)):
            continue
        choices = [
            _horizontal_strips_above(quots[r], comp[r], counts[r])
            if above
            else _horizontal_strips_below(quots[r], comp[r])
            for r in range(n)
        ]
        for new_quots in product(*choices):
            intervals = [[] for _ in range(n)]
            beta = []
            for r in range(n):
                parts = list(new_quots[r]) + [0] * (counts[r] - len(new_quots[r]))
                new_rows = sorted(x + counts[r] - 1 - i for i, x in enumerate(parts))
                for old, new in zip(rows[r], new_rows):
                    lo, hi = (old, new) if above else (new, old)
                    intervals[r].append((r + n * lo, r + n * hi))
                beta.extend(r + n * row for row in new_rows)
            other = pt.partition_from_beta(beta)
            source, target = (p, other) if above else (other, p)
            out.append((source, target, _crossings(intervals, n)))
    return out


@pytest.mark.parametrize("above", [True, False], ids=["above", "below"])
def test_strips_match_quotient_oracle(above):
    strips = pt.ribbon_strips_above if above else pt.ribbon_strips_below
    for n in (2, 3, 4):
        for m in range(9):
            for lam in pt.partitions_of(m):
                for k in range(5):
                    got = Counter((s.source, s.target, s.height) for s in strips(lam, n, k))
                    assert got == Counter(_strips_via_quotients(lam, n, k, above)), (lam, n, k)


def _diagram_single_ribbons(lam, n):
    out = set()
    for mu in pt.partitions_of(sum(lam) + n):
        cells = pt.diagram(mu) - pt.diagram(lam)
        if len(cells) != n or not pt.diagram(lam) <= pt.diagram(mu):
            continue
        if any(
            (r + 1, c) in cells and (r, c + 1) in cells and (r + 1, c + 1) in cells
            for r, c in cells
        ):
            continue
        stack = [next(iter(cells))]
        seen = set()
        while stack:
            r, c = stack.pop()
            if (r, c) in seen:
                continue
            seen.add((r, c))
            for nb in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
                if nb in cells:
                    stack.append(nb)
        if seen != cells:
            continue
        out.add((mu, len({r for r, _ in cells}) - 1))
    return out


def test_single_ribbons_match_diagram_oracle():
    for n in (2, 3, 4):
        for m in range(7):
            for lam in pt.partitions_of(m):
                got = {(s.target, s.height) for s in pt.ribbon_strips_above(lam, n, 1)}
                assert got == _diagram_single_ribbons(lam, n)


def test_strip_height_bounds():
    for n in (2, 3):
        for m in range(6):
            for lam in pt.partitions_of(m):
                for k in (1, 2, 3):
                    for s in pt.ribbon_strips_above(lam, n, k):
                        assert 0 <= s.height <= k * (n - 1)


def test_strips_below_mirror_above():
    """The strips removed from degree m + nk are exactly those added to
    degree m, as (source, target, height) sets in both directions."""
    for n in (2, 3):
        for k in (1, 2):
            for m in range(7):
                ups = {
                    (s.source, s.target, s.height)
                    for lam in pt.partitions_of(m)
                    for s in pt.ribbon_strips_above(lam, n, k)
                }
                downs = {
                    (s.source, s.target, s.height)
                    for mu in pt.partitions_of(m + n * k)
                    for s in pt.ribbon_strips_below(mu, n, k)
                }
                assert ups == downs, (n, k, m)


def _strip_replay(source, target, n):
    """(origin, passed, slots, beads under the origin) for each runner step
    of the strip target/source, replayed up from the beads of source."""
    slots = pt._norm_slots(target, n)
    lows, highs = pt._runner_rows(source, n, slots), pt._runner_rows(target, n, slots)
    assert [len(r) for r in lows] == [len(r) for r in highs]
    dests = [
        r + n * s
        for r in range(n)
        for lo, hi in zip(lows[r], highs[r])
        for s in range(lo + 1, hi + 1)
    ]
    beads = set(pt.beta_set(source, slots))
    return [
        (o, passed, slots, sum(b < o for b in beads))
        for o, passed in pt._replay(beads, dests, n)
    ]


def test_replay_passes_height_beads_and_tiles_the_strip():
    """Each strip takes k runner steps whose passed beads sum to its height;
    for n = 2 the dominoes rebuilt from (top-left cell, passed = vertical)
    tile the skew diagram exactly."""
    for n in (2, 3, 4):
        for m in range(8):
            for lam in pt.partitions_of(m):
                for k in range(4):
                    for s in pt.ribbon_strips_above(lam, n, k):
                        moves = _strip_replay(lam, s.target, n)
                        assert len(moves) == k
                        assert sum(passed for _, passed, _, _ in moves) == s.height
                        if n != 2:
                            continue
                        cells = Counter()
                        for o, passed, slots, below in moves:
                            assert passed in (0, 1)
                            r, c = slots - below - passed, o - below + 1
                            cells.update([(r, c), (r + passed, c + 1 - passed)])
                        assert set(cells) == pt.diagram(s.target) - pt.diagram(lam)
                        assert max(cells.values(), default=1) == 1


# -- dominoes ------------------------------------------------------------------


def test_two_sign_examples():
    assert pt.two_sign((2,)) == 1
    assert pt.two_sign((1, 1)) == -1
    assert pt.two_sign((2, 2)) == 1


def test_two_sign_not_tileable():
    with pytest.raises(pt.NotTileableError):
        pt.two_sign((1,))
    with pytest.raises(pt.NotTileableError):
        pt.two_sign((2, 1))


def test_two_sign_strip_ratio():
    for m in range(0, 7, 2):
        for lam in pt.partitions_of(m):
            core, _ = pt.n_core_quotient(lam, 2)
            if core:
                continue
            for s in pt.ribbon_strips_above(lam, 2, 2):
                assert pt.two_sign(s.target) * pt.two_sign(lam) == (-1) ** s.height


def _domino_tilings(cells):
    """Vertical-domino count of every domino tiling of a set of cells."""
    if not cells:
        yield 0
        return
    r, c = min(cells)
    for other, vertical in (((r, c + 1), 0), ((r + 1, c), 1)):
        if other in cells:
            for v in _domino_tilings(cells - {(r, c), other}):
                yield v + vertical


def test_two_sign_matches_tiling_oracle():
    """Every tiling has the parity two_sign gives; it raises iff none exists."""
    for m in range(11):
        for lam in pt.partitions_of(m):
            parities = {(-1) ** v for v in _domino_tilings(frozenset(pt.diagram(lam)))}
            if parities:
                assert parities == {pt.two_sign(lam)}, lam
            else:
                with pytest.raises(pt.NotTileableError):
                    pt.two_sign(lam)


def test_yamanouchi_examples():
    tabs = pt.yamanouchi_domino_tableaux((1, 1), (1,))
    assert len(tabs) == 1 and tabs[0].vertical == 1
    tabs = pt.yamanouchi_domino_tableaux((2,), (1,))
    assert len(tabs) == 1 and tabs[0].vertical == 0
    # single surviving tableau for shape (2,2), weight (2); the chain
    # realizes it with two vertical dominoes, matching the lower-basis row
    # e_{(4),(2,2)} = q^-2
    tabs = pt.yamanouchi_domino_tableaux((2, 2), (2,))
    assert len(tabs) == 1 and tabs[0].vertical == 2


def test_yamanouchi_filters():
    assert pt.yamanouchi_domino_tableaux((4,), (1, 1)) == []
    assert pt.yamanouchi_domino_tableaux((3, 1), (1, 1)) == []
    kept = pt.yamanouchi_domino_tableaux((2, 1, 1), (1, 1))
    assert len(kept) == 1 and kept[0].vertical == 1


def test_yamanouchi_size_check():
    with pytest.raises(pt.SizeMismatchError):
        pt.yamanouchi_domino_tableaux((2, 1), (1,))


def _tiling_from_top_left(shape, dominoes):
    """The tiling of shape whose dominoes have the given top-left cells, read
    in row-major order: the first uncovered cell is a top-left cell, and its
    domino is horizontal unless the cell to its right is taken or is itself a
    top-left cell.  Returns (label, cells) pairs."""
    starts = dict((cell, label) for label, cell in dominoes)
    free = pt.diagram(shape)
    tiling = []
    while free:
        r, c = min(free)
        assert (r, c) in starts, (shape, dominoes)
        right = (r, c + 1)
        other = right if right in free and right not in starts else (r + 1, c)
        assert other in free, (shape, dominoes)
        tiling.append((starts.pop((r, c)), {(r, c), other}))
        free -= {(r, c), other}
    assert not starts
    return tiling


def test_domino_tableaux_tile_their_shape():
    """The top-left cells of every tableau rebuild a tiling of its shape
    with `vertical` vertical dominoes, the labels <= i covering a partition."""
    for m in range(0, 11, 2):
        for shape in pt.partitions_of(m):
            for weight in pt.partitions_of(m // 2):
                for tab in pt.yamanouchi_domino_tableaux(shape, weight):
                    tiling = _tiling_from_top_left(shape, tab.dominoes)
                    assert Counter(label for label, _ in tiling) == Counter(
                        {i + 1: w for i, w in enumerate(weight)}
                    )
                    vertical = sum(1 for _, cells in tiling if len({r for r, _ in cells}) == 2)
                    assert vertical == tab.vertical
                    for i in range(1, len(weight) + 1):
                        covered = set().union(*(cells for label, cells in tiling if label <= i))
                        rows = Counter(r for r, _ in covered)
                        lam = tuple(rows[r] for r in sorted(rows))
                        assert covered == pt.diagram(lam), (shape, weight, i)
