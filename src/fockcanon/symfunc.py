"""Symmetric-group characters and the inverse Kostka expansion.

Only the pieces needed by the plethysm-style operators on the Fock space:
Murnaghan-Nakayama character values, centralizer orders, and the expansion of
a Schur function in the complete homogeneous basis (Jacobi-Trudi).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
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


@lru_cache(maxsize=None)
def schur_to_h(alpha: Partition) -> dict[Partition, int]:
    """Coefficients kappa with s_alpha = sum_mu kappa_mu h_mu.

    Computed from the Jacobi-Trudi determinant det(h_{alpha_i - i + j}) by
    expanding over permutations; these are the inverse Kostka numbers.
    """
    ell = len(alpha)
    if ell == 0:
        return {(): 1}
    out: dict[Partition, int] = {}
    for sigma in permutations(range(ell)):
        degrees = []
        ok = True
        for i in range(ell):
            d = alpha[i] - i + sigma[i]
            if d < 0:
                ok = False
                break
            if d > 0:
                degrees.append(d)
        if not ok:
            continue
        sign = _perm_sign(sigma)
        mu = tuple(sorted(degrees, reverse=True))
        out[mu] = out.get(mu, 0) + sign
    return {mu: c for mu, c in out.items() if c}


def _perm_sign(sigma) -> int:
    sign = 1
    seen = [False] * len(sigma)
    for i in range(len(sigma)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = sigma[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign
