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
from operator import neg
from typing import Sequence

from .exact import (DimensionMismatchError, PolyCone,
                    _check_pairings_nonnegative)

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


def _orbit(r: int, seeds) -> tuple[tuple[int, ...], ...]:
    """The closure of ``seeds`` under the simple reflections of W(E_r),
    sorted: in E_i - E_(i+1), a swap of entries i and i + 1, and in
    H - E_1 - E_2 - E_3 (r >= 3), the quadratic transformation below.  A
    reflection that fixes ``v`` (equal neighbours, or p = 0) is skipped.  It
    is finite only because :class:`DelPezzoLattice` rejects r >
    ``MAX_POINTS`` (W(E_9) is infinite)."""
    seen = set(seeds)
    todo = list(seen)
    while todo:
        v = todo.pop()
        images = {v[:i] + (v[i + 1], v[i]) + v[i + 2:] for i in range(1, r)
                  if v[i] != v[i + 1]}
        if r >= 3:
            p = v[0] + v[1] + v[2] + v[3]
            if p:
                images.add((v[0] + p, v[1] - p, v[2] - p, v[3] - p) + v[4:])
        images -= seen
        seen |= images
        todo.extend(images)
    return tuple(sorted(seen))


@cache
def minus_one_classes(L: DelPezzoLattice) -> tuple[tuple[int, ...], ...]:
    """All classes D with D.D = -1 and D.K = -1, sorted: the W(E_r)-orbit of
    E_r (Manin, *Cubic Forms*, §23), seeded with H - E_1 - E_2 too because
    W(E_2) only swaps the points.  Cached; a tuple of tuples is immutable."""
    r = L.r
    if r == 0:
        return ()
    seeds = [(0,) * r + (1,)]
    if r >= 2:
        seeds.append((1, -1, -1) + (0,) * (r - 2))
    return _orbit(r, seeds)


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
    return (c[0],) + tuple(map(neg, c[1:]))


@cache
def nef_cone(L: DelPezzoLattice) -> PolyCone:
    """Nef(dP_r): its extremal rays are W.H and W.(H - E_1), sorted.  Raises
    :class:`AssertionError` unless every ray pairs nonnegatively with every
    NE generator."""
    seeds = [(1,) + (0,) * L.r]
    if L.r:
        seeds.append((1, -1) + (0,) * (L.r - 1))
    rays = _orbit(L.r, seeds)
    _check_pairings_nonnegative(
        [pairing_row(c) for c in ne_generators(L)], rays)
    return PolyCone(L.rank, rays)
