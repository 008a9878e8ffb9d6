"""Exact rational polyhedral cones with certificates.

Conventions
-----------
* A *ray* is a primitive integer vector (cleared denominators, gcd 1); the
  canonical form of a cone is its set of extremal rays, each primitive,
  sorted lexicographically.
* ``dual(C) = {u : <u, g> >= 0 for every generator g}`` with the standard dot
  product.  Pairings against a non-standard bilinear form are handled by the
  callers (they transform generators before dualizing).
* Every answer that is not a plain boolean carries a certificate that can be
  re-checked independently: a nonnegative combination, a separating
  functional, or an infeasibility combination.
* One exact LP engine, a phase-1 simplex with Bland's rule, serves
  :func:`contains`, :func:`cone_from_rays`, :func:`cones_equal` and
  :func:`lp_feasible`.  No printed verdict reaches it, and only the 2x2
  relative cones reach :func:`dual`; the others rest on exact pairings and
  :func:`check_infeasibility_certificate`.

All arithmetic uses Python ints and ``fractions.Fraction``; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Callable, Iterable, Optional, Sequence, Union

Number = Union[int, Fraction]
IntVector = tuple[int, ...]
Vector = tuple[Fraction, ...]


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
# vector helpers
# ---------------------------------------------------------------------------

def fvec(entries: Iterable[Number]) -> Vector:
    return tuple(Fraction(x) for x in entries)


def dot(u: Sequence[Number], v: Sequence[Number]):
    """Standard dot product (exact)."""
    if len(u) != len(v):
        raise DimensionMismatchError(f"dot: lengths {len(u)} and {len(v)} differ")
    return sum(a * b for a, b in zip(u, v))


def _idot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def primitive(v: Sequence[Number]) -> IntVector:
    """Scale ``v`` by a positive rational to primitive integer form.

    The zero vector maps to itself.  Direction is preserved (the scale factor
    is always positive), so rays are never flipped.
    """
    fr = [x if type(x) is int else Fraction(x) for x in v]
    den = lcm(*(x.denominator for x in fr))
    ints = [x.numerator * (den // x.denominator) for x in fr]
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g else tuple(ints)


def is_zero(v: Sequence[Number]) -> bool:
    return all(x == 0 for x in v)


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------

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
        if not is_zero(p):
            cleaned.add(p)
    return PolyCone(dim, tuple(sorted(cleaned)))


def cone_from_rays(dim: int, rays: Iterable[Sequence[Number]]) -> PolyCone:
    """Canonicalize a generating set: :func:`generated`, then remove
    redundant generators.

    Raises :class:`DimensionMismatchError` if some ray has the wrong length
    and :class:`LinealityError` if the generated cone contains a line (the
    canonical extremal-ray form then does not exist); its witness is a tuple
    ``(coefficients, rays)`` giving a nonzero nonnegative combination of the
    rays equal to zero.
    """
    keep = list(generated(dim, rays).rays)
    if not keep:
        return PolyCone(dim, ())

    # Pointedness: a nonzero nonnegative combination summing to zero exists
    # iff the cone contains a line.  Solve  sum l_i g_i = 0, sum l_i = 1.
    columns = [g + (1,) for g in keep]
    target = tuple([0] * dim) + (1,)
    feasible, lam, _ = _phase1_simplex(columns, target)
    if feasible:
        raise LinealityError(
            "input rays generate a non-pointed cone "
            "(a nonzero nonnegative combination vanishes)",
            witness=(tuple(lam), tuple(keep)))

    # Extremality: for a pointed cone a generator is redundant exactly when
    # it lies in the cone of the others, and removing a redundant generator
    # never changes anyone else's status — one sweep suffices.
    i = 0
    while i < len(keep):
        others = keep[:i] + keep[i + 1:]
        if others:
            member, _, _ = _phase1_simplex(others, keep[i])
            if member:
                keep.pop(i)
                continue
        i += 1
    return PolyCone(dim, tuple(keep))


@dataclass(frozen=True)
class Membership:
    """Certificate-carrying membership verdict.

    ``combination`` (member): per-ray nonnegative coefficients with
    ``sum c_j * ray_j == v``.  ``separator`` (non-member): a functional ``u``
    with ``u . ray >= 0`` for every ray and ``u . v < 0``.
    """

    member: bool
    combination: Optional[Vector] = None
    separator: Optional[Vector] = None


def contains(cone: PolyCone, v: Sequence[Number]) -> Membership:
    """Decide ``v in cone`` with a checkable certificate either way."""
    if len(v) != cone.dim:
        raise DimensionMismatchError(
            f"vector has length {len(v)}, cone dimension is {cone.dim}")
    vv = fvec(v)
    feasible, lam, y = _phase1_simplex(cone.rays, vv)
    if feasible:
        return Membership(True, combination=tuple(lam))
    u = tuple(-yi for yi in y)
    # Validate the separator exactly before handing it out.
    if any(dot(u, g) < 0 for g in cone.rays) or dot(u, vv) >= 0:
        raise AssertionError("simplex produced an invalid separator")
    return Membership(False, separator=u)


@dataclass(frozen=True)
class EqualityVerdict:
    equal: bool
    witness_ray: Optional[IntVector] = None
    witness_side: Optional[str] = None  # "first-not-in-second" | "second-not-in-first"
    separator: Optional[Vector] = None


def cones_equal(a: PolyCone, b: PolyCone) -> EqualityVerdict:
    """Mutual containment of generators, with a witness ray on failure.

    A ray that the other cone lists is trivially a member of it, so only the
    remaining rays are decided by exact LP; two cones that list the same
    rays compare with no LP at all.  Exact for any generating sets.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(
            f"cones live in dimensions {a.dim} and {b.dim}")
    for first, second, side in ((a, b, "first-not-in-second"),
                                (b, a, "second-not-in-first")):
        listed = set(second.rays)
        for g in first.rays:
            if g in listed:
                continue
            m = contains(second, g)
            if not m.member:
                return EqualityVerdict(False, witness_ray=g, witness_side=side,
                                       separator=m.separator)
    return EqualityVerdict(True)


# ---------------------------------------------------------------------------
# dualization (double description)
# ---------------------------------------------------------------------------

def dual(cone: PolyCone) -> PolyCone:
    """Dual cone ``{u : <u, g> >= 0 for all generators g}``.

    Requires the generators to span the ambient space (otherwise the dual
    contains a line and has no canonical ray form — :class:`LinealityError`
    with an orthogonal witness vector).  Any generating set will do, such as
    one from :func:`generated`: redundant generators only add redundant
    constraints.

    The result is deterministic: constraints are inserted in a fixed order
    (a greedy lexicographic basis first, the rest in lexicographic order) and
    the output is canonically sorted.

    Rays stay integral throughout, and no ``Fraction`` is made: one
    fraction-free Gauss–Jordan pass, :func:`_basis_or_kernel`, gives the
    basis, the initial rays (the columns of a positive multiple of
    ``B^{-1}``) or the kernel witness, and each new ray is an integer
    combination of two adjacent rays divided by its gcd.

    Each ray keeps one slot ``k`` for its whole life: ``rays[k]`` and its
    zero set ``masks[k]`` (bit ``t`` set when processed constraint ``t``
    vanishes on it).  ``live`` lists the current slots in the order the
    method visits them (positive, then zero, then new rays, as each step
    leaves them), and ``alive`` is the same set as a bitset over slots.
    ``cols``, the transpose of ``masks``, holds one bitset over slots per
    processed constraint: bit ``k`` of ``cols[t]`` is set when constraint
    ``t`` vanishes on slot ``k``.  Each step builds the new constraint's
    column bit by bit over its zero rays, and sets each new ray's bit in the
    column of every constraint its mask holds.  A slot whose ray turns
    negative is released (``rays[k] = None``, ``masks[k] = 0``) and
    dropped from ``alive``, so its stale bits in ``cols`` never count.  A
    positive and a negative ray with common zero set ``z`` are adjacent
    when ``|z| >= d - 2`` and no third live ray vanishes on all of ``z``:
    ``alive`` ANDed with ``cols[t]`` for every bit ``t`` of ``z`` leaves
    just the pair's two bits.  So the test costs one big-integer AND per
    bit of ``z`` rather than a scan over every ray.

    Each step classifies every live ray with one big-integer product
    (:class:`_PackedRays`).  The live rays are packed, by position, into
    ``d`` column integers of ``W``-bit digits, with ``W`` a whole number of
    bytes and ``d * max|row entry| * max|ray entry| < 2**(W-2)``; so
    ``sum(map(mul, row, columns))`` plus one constant holds ``row . r +
    2**(W-1)`` as the digit of each ray, with no carry between digits.
    The top bits of that sum and of the sum minus one in every digit give
    the negative, zero and positive rays at once (``to_bytes``,
    ``translate``, ``itertools.compress``), and an adjacent pair's two
    pairings are read from the same digits.  Positions are not slots: new
    rays take the next positions, and the positions of dead rays are
    dropped only once they outnumber the live ones, or when a new ray
    needs a wider ``W``; both encode every live ray again from position 0,
    the same way new rays are encoded.  When the initial rays already need
    digits wider than ``_WIDEST_PACKED`` bits, each step pairs the row with
    each live ray instead (:class:`_ListedRays`): such inputs make nearly
    as many rays as pairings, and encoding the new rays costs more than
    packing saves.

    Four guards run on every call and raise :class:`AssertionError` (not
    ``assert``, so ``python -O`` keeps them): the kernel witness is
    orthogonal to every generator; each initial ray pairs positively with
    its own basis row and to zero with the other basis rows; every packing
    width keeps ``d * max|generator entry| * max|ray entry|`` below
    ``2**(W-2)``, so no digit carries into its neighbour; and every output
    ray pairs nonnegatively with every generator.  The last one checks
    every (ray, generator) pair with one big-integer product per ray: the
    generators are packed into ``W``-bit digits, ``W`` one more than the
    bit length of ``d * max|generator entry| * max|ray entry|``, so no
    pairing can carry into the next digit
    (:func:`_check_pairings_nonnegative`).
    """
    d = cone.dim
    if d == 0:
        return PolyCone(0, ())
    rows = [tuple(r) for r in cone.rays]
    if not rows:
        raise LinealityError(
            "dual of the trivial cone is the whole space",
            witness=tuple([1] + [0] * (d - 1)))
    basis_idx, rays, kern = _basis_or_kernel(rows, d)
    if kern is not None:
        raise LinealityError(
            "generators do not span the space; the dual contains a line",
            witness=kern)

    in_basis = set(basis_idx)
    rest_idx = [i for i in range(len(rows)) if i not in in_basis]
    # Slot k holds rays[k] and masks[k] (bit t set <=> processed constraint
    # #t vanishes on rays[k]); cols[t] is the transpose, a bitset over slots.
    masks = [((1 << d) - 1) ^ (1 << k) for k in range(d)]
    cols = list(masks)
    live = list(range(d))
    alive = (1 << d) - 1
    pairings = _pairings(d * max(abs(x) for row in rows for x in row), rays)
    for idx in rest_idx:
        signs = pairings.signs(rows[idx])
        zer = list(compress(live, signs.translate(_IS_ZERO)))
        bit = 1 << len(cols)
        col = 0
        for k in zer:
            masks[k] |= bit
            col |= 1 << k
        cols.append(col)
        if _NEGATIVE not in signs:
            continue
        neg = list(compress(live, signs.translate(_IS_NEGATIVE)))
        pos = list(compress(live, signs.translate(_IS_POSITIVE)))
        neg_masks = [(kn, masks[kn]) for kn in neg]
        base = len(rays)
        new_masks: list[int] = []
        for kp in pos:
            mp = masks[kp]
            for kn, mn in neg_masks:
                z = mp & mn
                if z.bit_count() < d - 2:
                    continue
                # Adjacent iff no third live ray vanishes on all of z.
                pair = (1 << kp) | (1 << kn)
                common = alive
                rest = z
                while rest and common != pair:
                    low = rest & -rest
                    common &= cols[low.bit_length() - 1]
                    rest ^= low
                if common != pair:
                    continue
                sp, sn = pairings.pairing(kp), pairings.pairing(kn)
                vec = [sp * x - sn * y for x, y in zip(rays[kn], rays[kp])]
                rays.append(_reduce_int(vec))
                new_masks.append(z | bit)
        for k, m in enumerate(new_masks, base):
            while m:
                low = m & -m
                cols[low.bit_length() - 1] |= 1 << k
                m ^= low
        for kn in neg:
            alive ^= 1 << kn
            rays[kn] = None
            masks[kn] = 0
        alive |= ((1 << len(new_masks)) - 1) << base
        masks.extend(new_masks)
        live = pos + zer + list(range(base, len(rays)))
        pairings.update(rays, live)

    out = sorted(set(rays[k] for k in live))
    _check_pairings_nonnegative(rows, out)
    return PolyCone(d, tuple(out))


def _check_pairings_nonnegative(rows: Sequence[IntVector],
                                rays: Sequence[IntVector]) -> None:
    """Raise :class:`AssertionError`, naming the first ray that fails,
    unless ``row . r >= 0`` for every row and every ray.  One big-integer
    pairing per ray decides all its rows (Kronecker substitution).

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
    """
    d = len(rows[0])
    bound = (d * max(abs(x) for row in rows for x in row)
             * max((abs(x) for r in rays for x in r), default=0))
    w = bound.bit_length() + 1
    cols = [0] * d
    ones = 0
    for row in reversed(rows):
        cols = [(c << w) + x for c, x in zip(cols, row)]
        ones = (ones << w) + 1
    top = ones << (w - 1)
    for r in rays:
        if (sum(map(mul, r, cols)) + top) & top != top:
            raise AssertionError(f"ray {r} pairs negatively with a row")


# Sign codes of a row's pairings with the live rays (``signs``), and the
# tables that pick one code out of them by ``bytes.translate``.
_NEGATIVE, _ZERO, _POSITIVE = 0, 1, 2
_IS_NEGATIVE, _IS_ZERO, _IS_POSITIVE = (bytes(b == c for b in range(256))
                                        for c in (_NEGATIVE, _ZERO, _POSITIVE))
_TOP_BIT = bytes(b >> 7 for b in range(256))
# Packing pays while the initial rays fit digits this wide.  The del Pezzo
# and scenario cones (16-bit digits) make one new ray per 6-91 pairings,
# and their back duals run about twice as fast packed.  The random cones in
# general position (48-bit digits and up) make one per 1-7 pairings, and
# encoding each new ray into the columns costs more than packing saves:
# packed, their duals ran 10-20 % slower than with per-ray products.
_WIDEST_PACKED = 32


def _digit_width(bound: int) -> int:
    """The fewest whole bytes of bits ``W`` with ``bound < 2**(W-2)``."""
    return 8 * ((bound.bit_length() + 9) // 8)


def _pairings(scale: int, rays: list) -> _PackedRays | _ListedRays:
    """The pairing source for :func:`dual`: :class:`_PackedRays` when the
    initial rays fit digits of at most ``_WIDEST_PACKED`` bits, else
    :class:`_ListedRays`."""
    top = max(map(abs, chain.from_iterable(rays)))
    if _digit_width(scale * top) > _WIDEST_PACKED:
        return _ListedRays(rays)
    return _PackedRays(scale, rays)


class _PackedRays:
    """The live rays of a double description, packed so that one
    big-integer product pairs a row with all of them (Kronecker
    substitution, as in :func:`_check_pairings_nonnegative`).

    Each packed ray holds a position ``i < size``, and ``place[k]`` is the
    position of slot ``k``: ``columns[j] = sum_i r_i[j] << (W*i)``.  ``W``
    is :func:`_digit_width` of ``scale * max|ray entry|``, where ``scale =
    d * max|row entry|`` bounds the pairing of any row, so ``|row . r_i| <
    2**(W-2)``.  Then ``v = sum_j row[j] * columns[j] + top``, with ``top``
    holding ``2**(W-1)`` in every digit, has ``row . r_i + 2**(W-1)`` as
    its ``i``-th digit, in ``[1, 2**W)``: no digit carries into the next or
    borrows from it.  Positions are not slots: a dead slot keeps its
    position, unread, until the next re-pack drops it.  Digits enter the
    columns only through :meth:`_append`, which a re-pack calls on every
    live ray after clearing the columns; ``len(place)`` counts the slots
    packed so far.
    """

    def __init__(self, scale: int, rays: list):
        self.scale = scale
        self.d = len(rays[0])
        self.place: dict[int, int] = {}
        self.limit = -1   # below every entry, so the first update sets W
        self.update(rays, range(len(rays)))

    def _set_width(self, top_entry: int) -> None:
        """Choose ``W`` for rays with entries up to ``top_entry``.  Raises
        :class:`AssertionError` (not ``assert``, so ``python -O`` keeps it)
        unless ``scale * top_entry < 2**(W-2)``."""
        bound = self.scale * top_entry
        w = _digit_width(bound)
        if bound >= 1 << (w - 2):
            raise AssertionError("ray digits too narrow for their pairings")
        self.nbytes = w // 8
        self.half = 1 << (w - 1)
        self.limit = ((1 << (w - 2)) - 1) // self.scale

    def update(self, rays: list, live: Sequence[int]) -> None:
        """Pack the slots not packed before (all of them in ``live``), forget
        the slots that left ``live``, and make :meth:`signs` follow the order
        of ``live``.  Once the dead positions outnumber the live rays, or a
        new ray has an entry above ``limit``, every live ray is packed again
        from position 0, in a wider ``W`` when needed."""
        new = range(len(self.place), len(rays))
        top_new = max(map(abs, chain.from_iterable(rays[new.start:])),
                      default=0)
        if top_new > self.limit or self.size + len(new) > 2 * len(live):
            if top_new > self.limit:
                self._set_width(top_new)
            self.columns = [0] * self.d
            self.size = self.ones = 0
            new = live
        if new:
            self._append(rays, new)
        self.pick = _picker([self.place[k] for k in live])

    def _append(self, rays: list, slots: Sequence[int]) -> None:
        """Encode the rays of ``slots`` at the next positions: every entry as
        one offset-binary digit, all columns in one string of bytes."""
        nb, half, m = self.nbytes, self.half, len(slots)
        flat = b"".join([(x + half).to_bytes(nb, "little") for x in
                         chain.from_iterable(zip(*[rays[k] for k in slots]))])
        block = int.from_bytes(flat, "little")
        ones = int.from_bytes((1).to_bytes(nb, "little") * m, "little")
        span, shift = 8 * nb * m, 8 * nb * self.size
        mask, offset = (1 << span) - 1, half * ones
        for j in range(self.d):
            self.columns[j] += (((block >> (span * j)) & mask) - offset) << shift
        self.ones += ones << shift
        self.top = self.ones << (8 * nb - 1)
        self.place.update(zip(slots, range(self.size, self.size + m)))
        self.size += m

    def signs(self, row: Sequence[int]) -> bytes:
        """One sign code per live ray, in the order of ``live``:
        ``_NEGATIVE``, ``_ZERO`` or ``_POSITIVE`` as ``row . r`` is below,
        at or above 0.

        The top bit of digit ``i`` of ``v`` is set iff ``row . r_i >= 0``,
        and that of ``v - ones`` iff ``row . r_i >= 1``; the code is their
        sum.  ``v``'s bytes are kept for :meth:`pairing`."""
        v = sum(map(mul, row, self.columns)) + self.top
        nb, n = self.nbytes, self.size * self.nbytes
        self.raw = v.to_bytes(n, "little")
        nonneg = self.raw[nb - 1::nb].translate(_TOP_BIT)
        positive = (v - self.ones).to_bytes(n, "little")[nb - 1::nb]
        codes = (int.from_bytes(nonneg, "little")
                 + int.from_bytes(positive.translate(_TOP_BIT), "little"))
        return bytes(self.pick(codes.to_bytes(self.size, "little")))

    def pairing(self, k: int) -> int:
        """``row . rays[k]`` for the row last given to :meth:`signs`, read
        from the same digit."""
        i = self.nbytes * self.place[k]
        return int.from_bytes(self.raw[i:i + self.nbytes], "little") - self.half


class _ListedRays:
    """:class:`_PackedRays`'s interface by one dot product per live ray,
    for rays too wide to gain from packing."""

    def __init__(self, rays: list):
        self.rays = rays
        self.live: Sequence[int] = range(len(rays))

    def update(self, rays: list, live: Sequence[int]) -> None:
        self.live = live

    def signs(self, row: Sequence[int]) -> bytes:
        self.vals = {k: sum(map(mul, row, self.rays[k])) for k in self.live}
        return bytes([(s > 0) + (s >= 0) for s in self.vals.values()])

    def pairing(self, k: int) -> int:
        return self.vals[k]


def _picker(keys: list) -> Callable:
    """``s -> tuple(s[key] for key in keys)``, as one C call when it can."""
    if len(keys) > 1:
        return itemgetter(*keys)
    return lambda s: tuple(s[key] for key in keys)


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
# phase-1 simplex (exact, Bland's rule)
# ---------------------------------------------------------------------------

def _phase1_simplex(columns: Sequence[Sequence[Number]],
                    target: Sequence[Number]):
    """Find ``lambda >= 0`` with ``sum lambda_j columns[j] == target``.

    Returns ``(feasible, lambdas, dual_row)``: on success ``lambdas`` is the
    combination (dual_row is None); on failure ``dual_row`` is a vector ``y``
    with ``y . columns[j] <= 0`` for all j and ``y . target > 0`` (so
    ``u = -y`` separates the target from the cone of the columns).
    """
    d = len(target)
    n = len(columns)
    b = [Fraction(x) for x in target]
    sigma = [1 if x >= 0 else -1 for x in b]
    # rows: sigma_i * A_i | artificial identity | rhs  (rhs >= 0)
    T: list[list[Fraction]] = []
    for i in range(d):
        row = [sigma[i] * Fraction(columns[j][i]) for j in range(n)]
        row += [Fraction(1) if k == i else Fraction(0) for k in range(d)]
        row.append(sigma[i] * b[i])
        T.append(row)
    ncols = n + d
    basis = list(range(n, n + d))
    # objective row: reduced costs then -objective value
    red = [Fraction(0)] * (ncols + 1)
    for j in range(ncols):
        s = sum(T[i][j] for i in range(d))
        red[j] = (Fraction(1) if j >= n else Fraction(0)) - s
    red[ncols] = -sum(T[i][ncols] for i in range(d))

    while True:
        enter = -1
        for j in range(ncols):
            if red[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(d):
            coef = T[i][enter]
            if coef > 0:
                ratio = T[i][ncols] / coef
                if best is None or ratio < best or \
                        (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise AssertionError("phase-1 objective unbounded below")
        piv = T[leave][enter]
        T[leave] = [x / piv for x in T[leave]]
        for i in range(d):
            if i != leave and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [x - f * y for x, y in zip(T[i], T[leave])]
        if red[enter] != 0:
            f = red[enter]
            red = [x - f * y for x, y in zip(red, T[leave])]
        basis[leave] = enter

    objective = -red[ncols]
    if objective == 0:
        lam = [Fraction(0)] * n
        for i, bi in enumerate(basis):
            if bi < n:
                lam[bi] = T[i][ncols]
        # exact validation of the combination
        for i in range(d):
            s = sum(lam[j] * Fraction(columns[j][i]) for j in range(n))
            if s != b[i]:
                raise AssertionError("simplex combination misses the target")
        return True, lam, None
    y = [sigma[i] * (1 - red[n + i]) for i in range(d)]
    if not sum(yi * bi for yi, bi in zip(y, b)) == objective > 0:
        raise AssertionError("simplex dual row misses the objective")
    for j in range(n):
        if sum(y[i] * Fraction(columns[j][i]) for i in range(d)) > 0:
            raise AssertionError("simplex dual row does not separate")
    return False, None, y


# ---------------------------------------------------------------------------
# exact LP feasibility with certificates
# ---------------------------------------------------------------------------

VALID_RELATIONS = (">=", ">", "=")


@dataclass(frozen=True)
class LinearConstraint:
    """``coeffs . x  REL  bound`` with REL one of '>=', '>', '='."""

    coeffs: Vector
    relation: str
    bound: Fraction
    label: str = ""

    def __post_init__(self):
        if self.relation not in VALID_RELATIONS:
            raise ValueError(f"relation must be one of {VALID_RELATIONS}, "
                             f"got {self.relation!r}")


def constraint(coeffs: Iterable[Number], relation: str, bound: Number,
               label: str = "") -> LinearConstraint:
    return LinearConstraint(fvec(coeffs), relation, Fraction(bound), label)


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


@dataclass(frozen=True)
class LPResult:
    """Feasibility verdict with certificate.

    ``point`` satisfies every constraint when feasible.  When infeasible,
    ``certificate`` gives one multiplier per constraint: nonnegative for
    ``>=`` and ``>`` rows, any sign for ``=`` rows, such that the combined
    constraint reads ``0 >= positive`` (or ``0 > 0`` using a strict row with
    positive weight) — see :func:`check_infeasibility_certificate`.
    """

    feasible: bool
    point: Optional[Vector] = None
    certificate: Optional[Vector] = None


def check_infeasibility_certificate(lp: LinearProgram,
                                    mu: Sequence[Number]) -> bool:
    """Re-derive the contradiction from a certificate, fully independently."""
    if len(mu) != len(lp.constraints):
        return False
    mu = fvec(mu)
    combo = [Fraction(0)] * lp.nvars
    rhs = Fraction(0)
    strict_weight = Fraction(0)
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


def lp_feasible(lp: LinearProgram) -> LPResult:
    """Exact feasibility by one phase-1 simplex on the homogenised system.

    With a scale ``t`` and one slack ``w >= 0`` per inequality, ``a . x >= b``
    becomes ``a . x - b t - w = 0``, ``a . x = b`` becomes ``a . x - b t = 0``
    and ``a . x > b`` becomes ``a . x - b t - w = 1``; one more row asks
    ``t >= 1`` when some row is strict and ``t = 1`` otherwise.  Free ``x`` is
    split as ``x+ - x-``.  A solution gives the point ``x / t``; otherwise the
    simplex dual row restricted to the input rows is the Farkas certificate
    of :func:`check_infeasibility_certificate`.  Both answers are re-checked
    against the original constraints before they are returned.
    """
    n, m = lp.nvars, len(lp.constraints)
    has_strict = any(c.relation == ">" for c in lp.constraints)
    d = m + 1  # the input rows, then the scale row
    columns: list[list[Fraction]] = []
    for k in range(n):
        col = [c.coeffs[k] for c in lp.constraints] + [Fraction(0)]
        columns.append(col)
        columns.append([-x for x in col])
    columns.append([-c.bound for c in lp.constraints] + [Fraction(1)])
    for i, c in enumerate(lp.constraints):
        if c.relation != "=":
            columns.append([Fraction(-1) if r == i else Fraction(0)
                            for r in range(d)])
    if has_strict:
        columns.append([Fraction(0)] * m + [Fraction(-1)])
    target = [1 if c.relation == ">" else 0 for c in lp.constraints] + [1]

    feasible, lam, y = _phase1_simplex(columns, target)
    if not feasible:
        cert = tuple(y[:m])
        if not check_infeasibility_certificate(lp, cert):
            raise AssertionError("simplex produced an invalid certificate")
        return LPResult(False, certificate=cert)
    t = lam[2 * n]
    pt = tuple((lam[2 * k] - lam[2 * k + 1]) / t for k in range(n))
    for c in lp.constraints:
        val = dot(c.coeffs, pt)
        if not {">=": val >= c.bound, ">": val > c.bound,
                "=": val == c.bound}[c.relation]:
            raise AssertionError("simplex point violates a constraint")
    return LPResult(True, point=pt)
