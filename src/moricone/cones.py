"""The exact cone engine: pruning, membership, equality and dual cones.

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
  :func:`lp_feasible`.  Tests, the benchmark and the public API use the
  engine; no verdict does, as verdicts rest on :mod:`moricone.exact` alone.

All arithmetic uses Python ints and ``fractions.Fraction``; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from operator import itemgetter, mul
from typing import Callable, Iterable, Optional, Sequence

from .exact import (DimensionMismatchError, IntVector, LinealityError,
                    LinearProgram, Number, PolyCone, _basis_or_kernel,
                    _check_pairings_nonnegative, _reduce_int,
                    check_infeasibility_certificate, dot, exact_vector,
                    generated)

Vector = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------

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
    vv = exact_vector(v)
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
