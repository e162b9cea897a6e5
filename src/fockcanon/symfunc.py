"""Symmetric-group characters: Murnaghan-Nakayama character values and
centralizer orders, the weights of the power-sum expansions that the Fock
space's oracles (``v_op_via_heisenberg``, ``s_alpha_via_characters``) apply.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .partitions import (
    Partition,
    SizeMismatchError,
    beta_set,
    check_partition,
    partition_from_beta,
)


def z_order(beta: Partition) -> int:
    """Centralizer order z_beta = prod r^{m_r} m_r! over part multiplicities."""
    mult: dict[int, int] = {}
    for part in beta:
        mult[part] = mult.get(part, 0) + 1
    z = 1
    for r, m in mult.items():
        z *= r**m * factorial(m)
    return z


@lru_cache(maxsize=None)
def _mn(alpha: Partition, beta: Partition) -> int:
    if not beta:
        return 1
    r = beta[0]
    rest = beta[1:]
    slots = len(alpha) if alpha else 1
    beads = set(beta_set(alpha, slots))
    total = 0
    # Removing a border r-ribbon = moving one bead down by r; the sign is
    # (-1)^(beads passed over).
    for b in sorted(beads):
        if b - r >= 0 and (b - r) not in beads:
            crossings = sum(1 for x in range(b - r + 1, b) if x in beads)
            smaller = partition_from_beta(beads - {b} | {b - r})
            total += (-1) ** crossings * _mn(smaller, rest)
    return total


def mn_character(alpha: Partition, beta: Partition) -> int:
    """Character value chi^alpha on cycle type beta (Murnaghan-Nakayama)."""
    alpha = check_partition(alpha)
    beta = check_partition(beta)
    if sum(alpha) != sum(beta):
        raise SizeMismatchError(f"|{alpha}| != |{beta}|")
    # Largest cycles first keeps the recursion shallow.
    return _mn(alpha, tuple(sorted(beta, reverse=True)))

