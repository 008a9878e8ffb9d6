"""The exact core every verdict rests on: exact vectors (ints and fractions,
never floats), cones as sorted primitive rays, fraction-free elimination, the
packed sign-table kernel and the re-check of Farkas certificates.  It solves
no LP and dualises no cone; :mod:`moricone.cones`, the engine built on it,
does.

:func:`first_negative` decides the claimed divisors' nefness on a scenario's
catalog and the del Pezzo nef-cone guard with one big-integer product per
ray, exactly; a certificate stratum pairs curve by curve with :func:`dot`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm
from operator import lshift, mul
from typing import Iterable, Optional, Sequence, Union

Number = Union[int, Fraction]
IntVector = tuple[int, ...]


class ConeError(Exception):
    """Base class for cone-engine failures."""


class DimensionMismatchError(ConeError):
    """A vector's length does not match the ambient dimension."""


class LinealityError(ConeError):
    """A cone that must be pointed (or span the space, for dualization)
    fails to be; ``witness`` explains why, as the raising function says."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


# ---------------------------------------------------------------------------
# vectors and cones
# ---------------------------------------------------------------------------

def exact_vector(entries: Iterable[Number]) -> tuple[Number, ...]:
    """The entries as exact numbers: an ``int`` stays an ``int``, anything
    else becomes a :class:`Fraction` (so no float is kept)."""
    v = tuple(entries)
    if {int}.issuperset(map(type, v)):
        return v
    return tuple(x if type(x) is int else Fraction(x) for x in v)


def dot(u: Sequence[Number], v: Sequence[Number]):
    """Standard dot product (exact)."""
    if len(u) != len(v):
        raise DimensionMismatchError(f"dot: lengths {len(u)} and {len(v)} differ")
    return sum(map(mul, u, v))


def _idot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def primitive(v: Sequence[Number]) -> IntVector:
    """Scale ``v`` by a positive rational to primitive integer form.

    The zero vector maps to itself.  Direction is preserved (the scale factor
    is always positive), so rays are never flipped.  A vector of ``int``
    entries is only divided by its gcd; any other entry (a ``bool``
    included) goes through :class:`Fraction`.
    """
    if {int}.issuperset(map(type, v)):
        g = gcd(*v)
        return tuple(x // g for x in v) if g > 1 else tuple(v)
    fr = [x if type(x) is int else Fraction(x) for x in v]
    den = lcm(*(x.denominator for x in fr))
    ints = [x.numerator * (den // x.denominator) for x in fr]
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g else tuple(ints)


@dataclass(frozen=True)
class PolyCone:
    """A rational polyhedral cone in V-form.

    ``rays`` are primitive integer vectors, distinct and sorted
    lexicographically.  They are exactly the extremal rays of a pointed cone,
    except from :func:`generated`, which keeps redundant generators.
    """

    dim: int
    rays: tuple[IntVector, ...]


def generated(dim: int, vectors: Iterable[Sequence[Number]]) -> PolyCone:
    """The cone generated by ``vectors``: each rescaled to primitive form,
    zeros and duplicates dropped, sorted.  No LP runs, so redundant
    generators stay and pointedness is not checked.

    Raises :class:`DimensionMismatchError` if some vector has the wrong
    length.
    """
    cleaned = set()
    for i, r in enumerate(vectors):
        rr = tuple(r)
        if len(rr) != dim:
            raise DimensionMismatchError(
                f"ray #{i} has length {len(rr)}, expected {dim}")
        p = primitive(rr)
        if any(p):
            cleaned.add(p)
    return PolyCone(dim, tuple(sorted(cleaned)))


def first_negative(rows: Sequence[IntVector],
                   rays: Sequence[IntVector]) -> Optional[int]:
    """The index of the first ray ``r`` with ``row . r < 0`` for some row,
    or None when every pairing is nonnegative.  One big-integer product per
    ray decides all its rows (Kronecker substitution).

    Let ``bound = d * max|row entry| * max|ray entry|`` and
    ``W = bound.bit_length() + 1``, so every pairing has
    ``|rows[i] . r| <= bound < 2**(W-1)``.  Column ``j`` packs the rows'
    ``j``-th entries as ``cols[j] = sum_i rows[i][j] << (W*i)``, and ``top``
    has ``2**(W-1)`` in every ``W``-bit digit.  Then
    ``packed = sum_j r[j] * cols[j] + top = sum_i (rows[i] . r + 2**(W-1))
    << (W*i)``, and every coefficient lies in ``[1, 2**W)``.  So ``packed``
    is written in base ``2**W`` with no carry or borrow, its ``i``-th digit
    is ``rows[i] . r + 2**(W-1)``, and that digit's top bit is set exactly
    when ``rows[i] . r >= 0``.  A ray passes iff ``packed & top == top``.

    No rows means no pairing, hence None.  Raises
    :class:`DimensionMismatchError` if a row or ray is not as long as the
    first row, as :func:`dot` does.
    """
    if not rows:
        return None
    d = len(rows[0])
    lengths = set(map(len, chain(rows, rays)))
    if lengths != {d}:
        raise DimensionMismatchError(
            f"pairings: lengths {sorted(lengths)}, expected {d}")
    bound = (d * max(map(abs, chain.from_iterable(rows)))
             * max(map(abs, chain.from_iterable(rays)), default=0))
    w = bound.bit_length() + 1
    shifts = range(0, w * len(rows), w)
    cols = [sum(map(lshift, col, shifts)) for col in zip(*rows)]
    top = sum(map(lshift, repeat(1 << (w - 1)), shifts))
    for k, r in enumerate(rays):
        if (sum(map(mul, r, cols)) + top) & top != top:
            return k
    return None


def _check_pairings_nonnegative(rows: Sequence[IntVector],
                                rays: Sequence[IntVector]) -> None:
    """Raise :class:`AssertionError`, naming the first ray that fails,
    unless ``row . r >= 0`` for every row and every ray
    (:func:`first_negative`)."""
    k = first_negative(rows, rays)
    if k is not None:
        raise AssertionError(f"ray {rays[k]} pairs negatively with a row")


# ---------------------------------------------------------------------------
# fraction-free elimination
# ---------------------------------------------------------------------------

def _reduce_int(vec: Sequence[int]) -> IntVector:
    g = gcd(*vec)
    if g <= 1:
        return tuple(vec)
    return tuple(x // g for x in vec)


def _eliminate(v: list[int], e: list[int], p: int) -> list[int]:
    """``e[p] * v - v[p] * e`` divided by its gcd: ``v`` with column ``p``
    cleared by the row ``e``, whose pivot is ``p``."""
    f, c = e[p], v[p]
    w = [f * a - c * b for a, b in zip(v, e)]
    g = gcd(*w)
    return [a // g for a in w] if g > 1 else w


def _basis_or_kernel(rows: Sequence[Sequence[Number]], d: int
                     ) -> tuple[Optional[list[int]], Optional[list[IntVector]],
                                Optional[IntVector]]:
    """One fraction-free Gauss–Jordan pass over ``rows``.

    A row is first paired with ``kernel``, a basis of the vectors
    orthogonal to the rows chosen so far (one per free column, built by
    :func:`_kernel_vectors`): if every pairing is 0, the row is zero or in
    the span of the chosen rows, and it is skipped with no elimination.  An
    independent row is cleared of denominators by :func:`primitive` and
    carries, after its ``d`` entries, its combination of the chosen rows:
    a unit entry in the slot it takes.  It is reduced against every stored
    row by :func:`_eliminate`; the first nonzero entry of its first ``d``
    is its pivot, the row is chosen and every stored row is cleared at that
    pivot by it.  The reduced row is thus a nonzero multiple of the row
    rational elimination would reduce it to, so the pivots, the chosen
    indices and the kernel line are the same.  Stored row ``k`` reads
    ``c_k e_{p_k} | T_k`` with ``T_k B = c_k e_{p_k}`` for the matrix ``B``
    of the chosen rows, and ``L = lcm(c_k)``.

    When the rows span the space, returns ``(indices, rays, None)``:
    ``indices`` is the first maximal independent subset, scanning in order,
    and ``rays[j]`` is column ``j`` of ``L * B^{-1}`` (entry ``T_k[j] * L /
    c_k`` at ``p_k``) made primitive, so it pairs positively with chosen row
    ``j`` and to zero with the others.  Otherwise returns ``(None, None,
    z)``: ``z`` is the first kernel vector made primitive, so row . z = 0
    for all rows.  Both results are checked against the input rows, and a
    failed check raises :class:`AssertionError`.  Only the returned rays
    and witness go through :func:`_reduce_int`.
    """
    chosen: list[int] = []
    stored: list[list[int]] = []
    pivots: list[int] = []
    kernel = _kernel_vectors(stored, pivots, d)
    for i, row in enumerate(rows):
        if not any(_idot(row, z) for z in kernel):
            continue
        v = list(primitive(row)) + [0] * d
        v[d + len(chosen)] = 1
        for e, p in zip(stored, pivots):
            if v[p]:
                v = _eliminate(v, e, p)
        piv = next(j for j in range(d) if v[j])
        stored = [_eliminate(e, v, piv) if e[piv] else e for e in stored]
        stored.append(v)
        pivots.append(piv)
        chosen.append(i)
        if len(chosen) == d:
            break
        kernel = _kernel_vectors(stored, pivots, d)
    if len(chosen) == d:
        by_col = sorted(zip(pivots, stored))
        scale = lcm(*(e[p] for p, e in by_col))
        rays = [_reduce_int([e[d + j] * (scale // e[p]) for p, e in by_col])
                for j in range(d)]
        for j, r in enumerate(rays):
            pairs = [_idot(rows[i], r) for i in chosen]
            if pairs[j] <= 0 or pairs.count(0) != d - 1:
                raise AssertionError(
                    "initial ray does not pair with the basis as its inverse")
        return chosen, rays, None
    out = _reduce_int(kernel[0])
    if any(_idot(row, out) != 0 for row in rows):
        raise AssertionError("kernel vector is not orthogonal to every row")
    return None, None, out


def _kernel_vectors(stored: Sequence[list[int]], pivots: Sequence[int],
                    d: int) -> list[list[int]]:
    """One vector per free column ``f``, in column order, orthogonal to
    every stored row: ``L`` at ``f``, ``-e_k[f] * L / c_k`` at ``p_k`` and
    zeros elsewhere.  Together they span the kernel of the chosen rows."""
    scale = lcm(*(e[p] for e, p in zip(stored, pivots)))
    vectors = []
    for f in range(d):
        if f in pivots:
            continue
        z = [0] * d
        z[f] = scale
        for e, p in zip(stored, pivots):
            z[p] = -e[f] * (scale // e[p])
        vectors.append(z)
    return vectors


# ---------------------------------------------------------------------------
# linear systems and their infeasibility certificates
# ---------------------------------------------------------------------------

VALID_RELATIONS = (">=", ">", "=")


@dataclass(frozen=True)
class LinearConstraint:
    """``coeffs . x  REL  bound`` with REL one of '>=', '>', '='."""

    coeffs: tuple[Number, ...]
    relation: str
    bound: Number
    label: str = ""

    def __post_init__(self):
        if self.relation not in VALID_RELATIONS:
            raise ValueError(f"relation must be one of {VALID_RELATIONS}, "
                             f"got {self.relation!r}")


def constraint(coeffs: Iterable[Number], relation: str, bound: Number,
               label: str = "") -> LinearConstraint:
    row = exact_vector((*coeffs, bound))
    return LinearConstraint(row[:-1], relation, row[-1], label)


@dataclass(frozen=True)
class LinearProgram:
    nvars: int
    constraints: tuple[LinearConstraint, ...]

    def __post_init__(self):
        for i, c in enumerate(self.constraints):
            if len(c.coeffs) != self.nvars:
                raise DimensionMismatchError(
                    f"constraint #{i} has {len(c.coeffs)} coefficients, "
                    f"expected {self.nvars}")


def check_infeasibility_certificate(lp: LinearProgram,
                                    mu: Sequence[Number]) -> bool:
    """Re-derive the contradiction from a certificate, fully independently."""
    if len(mu) != len(lp.constraints):
        return False
    mu = exact_vector(mu)
    combo = [0] * lp.nvars
    rhs = strict_weight = 0
    for m, c in zip(mu, lp.constraints):
        if c.relation in (">=", ">") and m < 0:
            return False
        for k in range(lp.nvars):
            combo[k] += m * c.coeffs[k]
        rhs += m * c.bound
        if c.relation == ">":
            strict_weight += m
    if any(x != 0 for x in combo):
        return False
    return rhs > 0 or (rhs == 0 and strict_weight > 0)
