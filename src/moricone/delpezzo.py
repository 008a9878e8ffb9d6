"""Picard lattices of del Pezzo surfaces (plane blown up at r general points).

A class ``d*H - sum(m_j * E_j)`` is stored as the coefficient tuple
``(d, -m_1, ..., -m_r)`` in the basis ``(H, E_1, ..., E_r)``; the
intersection form is ``diag(+1, -1, ..., -1)``.  Only the numerics of
generality are modeled (the lattice and its (-1)-class combinatorics), which
is all the downstream cone computations consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Sequence

from .cones import DimensionMismatchError, PolyCone, dual, generated

MAX_POINTS = 8


@dataclass(frozen=True)
class DelPezzoLattice:
    r: int

    def __post_init__(self):
        if not (0 <= self.r <= MAX_POINTS):
            raise ValueError(f"point count must be in [0, {MAX_POINTS}], got {self.r}")

    @property
    def rank(self) -> int:
        return 1 + self.r

    @property
    def canonical_class(self) -> tuple[int, ...]:
        return (-3,) + (1,) * self.r


def build(r: int) -> DelPezzoLattice:
    return DelPezzoLattice(r)


def pair(L: DelPezzoLattice, u: Sequence, v: Sequence):
    """Intersection pairing u.v under diag(+1, -1, ..., -1)."""
    if len(u) != L.rank or len(v) != L.rank:
        raise DimensionMismatchError(
            f"classes must have length {L.rank}, got {len(u)} and {len(v)}")
    return u[0] * v[0] - sum(a * b for a, b in zip(u[1:], v[1:]))


@cache
def minus_one_classes(L: DelPezzoLattice) -> tuple[tuple[int, ...], ...]:
    """All classes D with D.D = -1 and D.K = -1, sorted.

    Writing D = d*H - sum(m_j E_j), the two conditions read
    ``sum(m_j) = 3d - 1`` and ``sum(m_j^2) = d^2 + 1``; Cauchy-Schwarz then
    bounds the degree by ``(3d-1)^2 <= r (d^2+1)``, which fails from d = 8
    on for every r <= ``MAX_POINTS`` (from d = 4 on for r <= 7), and each
    multiplicity lies in [-1, d].  The search is an exhaustive DFS over multiplicities
    with partial-sum pruning.  Results are cached per lattice; there are
    at most ``MAX_POINTS + 1`` lattices, and a tuple of tuples cannot be
    mutated by a caller.
    """
    r = L.r
    out: list[tuple[int, ...]] = []
    if r == 0:
        return ()
    d = 0
    while (3 * d - 1) ** 2 <= r * (d * d + 1):
        target_sum = 3 * d - 1
        target_sq = d * d + 1
        ms = [0] * r

        def dfs(k: int, rem_sum: int, rem_sq: int):
            if k == r:
                if rem_sum == 0 and rem_sq == 0:
                    out.append((d,) + tuple(-m for m in ms))
                return
            slots = r - k - 1
            for m in range(-1, d + 1):
                s = rem_sum - m
                q = rem_sq - m * m
                if q < 0:
                    if m >= 1:
                        break  # m^2 only grows from here
                    continue
                if not (-slots <= s <= slots * d):
                    continue
                if slots == 0:
                    if s != 0 or q != 0:
                        continue
                elif s * s > slots * q:
                    continue
                ms[k] = m
                dfs(k + 1, s, q)
            ms[k] = 0

        dfs(0, target_sum, target_sq)
        d += 1
    return tuple(sorted(out))


def ne_generators(L: DelPezzoLattice) -> tuple[tuple[int, ...], ...]:
    """Generators of the cone of curves.

    r = 0: the line class H.  r = 1: the exceptional curve and the fiber
    class H - E1 (self-intersection 0).  r >= 2: the (-1)-classes.
    """
    if L.r == 0:
        return ((1,),)
    if L.r == 1:
        return ((0, 1), (1, -1))
    return minus_one_classes(L)


def pairing_row(c: Sequence[int]) -> tuple[int, ...]:
    """The functional D -> D.c as a standard-dot row on divisor
    coefficients (negate the E-coordinates)."""
    return (c[0],) + tuple(-x for x in c[1:])


@cache
def nef_cone(L: DelPezzoLattice) -> PolyCone:
    rows = [pairing_row(c) for c in ne_generators(L)]
    return dual(generated(L.rank, rows))
