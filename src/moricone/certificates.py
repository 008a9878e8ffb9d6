"""Chain- and grid-style nefness certificates.

A *stratum* is a numerical stand-in for a subvariety: a class lattice of some
rank plus a curve oracle (a divisor class on the stratum is nef exactly when
it pairs >= 0 with every oracle curve; a point has rank 0 and an empty
oracle).  A *chain certificate* walks a divisor down a chain of strata,
checking at each stratum that the restricted divisor minus the class of the
next stratum stays nef; a *grid certificate* does the same over a rectangular
grid of strata below an outer chain, subtracting both neighbor classes.
What a certificate's shape proves is decided in :func:`verify` alone, and a
failed check's :class:`CheckRecord` is the report's witness as it stands.

Product certificates are assembled for X1 x X2 blown up along {point} x A2
and then along the strict transform of X1 x {point}, from one chain per
factor; :func:`tsukioka_factors` gives the factor chains of the product of
projective spaces construction, :func:`scenario.factor_chains_for_t1` those
of the del Pezzo scenario's T divisors.

Everything is exact: entries are ints or fractions, never floats.  Integral
entries stay ``int`` (nothing here divides), and only a non-integral rational
is a :class:`~fractions.Fraction`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Mapping, Optional, Sequence, Union

from .exact import Number, _basis_or_kernel, dot, exact_vector

Vec = tuple[Number, ...]
Mat = tuple[Vec, ...]


class CertificateError(Exception):
    """Structurally invalid certificate (shapes, missing data, broken maps)."""


def _mat(m: Iterable[Iterable[Number]]) -> Mat:
    return tuple(map(exact_vector, m))


def _apply(m: Mat, v: Sequence[Number]) -> Vec:
    return tuple(sum(map(mul, row, v)) for row in m)


def _sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def _check_steps(steps, root_rank: int, label: str) -> None:
    """Each restriction takes classes of its parent stratum (the root first),
    and every step but the last names the class of the next stratum."""
    prev = root_rank
    for k, s in enumerate(steps):
        if any(len(row) != prev for row in s.restriction):
            raise CertificateError(
                f"{label} {k}: restriction columns do not match the parent "
                f"rank {prev}")
        if k < len(steps) - 1 and s.next_class is None:
            raise CertificateError(
                f"{label} {k} is not final and needs the class of {label} "
                f"{k + 1}")
        prev = s.child.rank


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Stratum:
    """A class lattice with a curve oracle deciding nefness."""

    id: str
    rank: int
    oracle_curves: Mat

    def __post_init__(self):
        object.__setattr__(self, "oracle_curves", _mat(self.oracle_curves))
        for c in self.oracle_curves:
            if len(c) != self.rank:
                raise CertificateError(
                    f"stratum {self.id!r}: oracle curve of length {len(c)}, "
                    f"rank is {self.rank}")


@dataclass(frozen=True)
class ChainStep:
    """One stratum of a chain: how it sits under its parent, plus (except at
    a chain's end) the class of the next stratum as a divisor on this one."""

    child: Stratum
    restriction: Mat  # child.rank rows, parent-rank columns
    next_class: Optional[Vec] = None

    def __post_init__(self):
        object.__setattr__(self, "restriction", _mat(self.restriction))
        if self.next_class is not None:
            object.__setattr__(self, "next_class",
                               exact_vector(self.next_class))
        if len(self.restriction) != self.child.rank:
            raise CertificateError(
                f"step into {self.child.id!r}: restriction has "
                f"{len(self.restriction)} rows, child rank is {self.child.rank}")
        if self.next_class is not None and len(self.next_class) != self.child.rank:
            raise CertificateError(
                f"step into {self.child.id!r}: next-stratum class has length "
                f"{len(self.next_class)}, child rank is {self.child.rank}")


@dataclass(frozen=True)
class ChainCertificate:
    root_rank: int
    steps: tuple[ChainStep, ...]
    divisor: Vec

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        object.__setattr__(self, "divisor", exact_vector(self.divisor))
        if not self.steps:
            raise CertificateError(
                "a chain needs at least one stratum; encode a bare root as a "
                "single final step with an identity restriction")
        if len(self.divisor) != self.root_rank:
            raise CertificateError(
                f"divisor has length {len(self.divisor)}, root rank is "
                f"{self.root_rank}")
        _check_steps(self.steps, self.root_rank, "step")


@dataclass(frozen=True)
class GridCell:
    stratum: Stratum
    right_class: Optional[Vec] = None  # class of the (i+1, j) stratum here
    right_map: Optional[Mat] = None    # restriction to the (i+1, j) stratum
    down_class: Optional[Vec] = None   # class of the (i, j+1) stratum here
    down_map: Optional[Mat] = None     # restriction to the (i, j+1) stratum

    def __post_init__(self):
        for attr in ("right_class", "down_class"):
            v = getattr(self, attr)
            if v is not None:
                v = exact_vector(v)
                object.__setattr__(self, attr, v)
                if len(v) != self.stratum.rank:
                    raise CertificateError(
                        f"cell {self.stratum.id!r}: {attr} has length "
                        f"{len(v)}, rank is {self.stratum.rank}")
        for attr in ("right_map", "down_map"):
            m = getattr(self, attr)
            if m is not None:
                m = _mat(m)
                object.__setattr__(self, attr, m)
                if any(len(row) != self.stratum.rank for row in m):
                    raise CertificateError(
                        f"cell {self.stratum.id!r}: {attr} columns do not "
                        f"match rank {self.stratum.rank}")


@dataclass(frozen=True)
class GridCertificate:
    """Outer chain (indices 0..c, the last entry being the grid corner) over
    a rectangular grid of strata indexed [c..a] x [c..b]."""

    a: int
    b: int
    c: int
    root_rank: int
    outer: tuple[ChainStep, ...]
    cells: Mapping[tuple[int, int], GridCell]
    divisor: Vec

    def __post_init__(self):
        object.__setattr__(self, "outer", tuple(self.outer))
        object.__setattr__(self, "cells", dict(self.cells))
        object.__setattr__(self, "divisor", exact_vector(self.divisor))
        a, b, c = self.a, self.b, self.c
        if not (0 <= c <= min(a, b)):
            raise CertificateError(f"grid extents need 0 <= c <= min(a, b), "
                                   f"got a={a}, b={b}, c={c}")
        if len(self.outer) != c + 1:
            raise CertificateError(
                f"outer chain must have {c + 1} steps (indices 0..c), "
                f"got {len(self.outer)}")
        if len(self.divisor) != self.root_rank:
            raise CertificateError("divisor length does not match root rank")
        _check_steps(self.outer, self.root_rank, "outer step")
        if self.outer[c].next_class is not None:
            raise CertificateError(
                "the corner step must not carry a next-stratum class "
                "(its continuations are the grid classes)")
        # Extents may be huge: count and range-check the listed cells; the
        # row-major scan for a missing one ends within len(cells) + 1 steps.
        rows, cols = range(c, a + 1), range(c, b + 1)
        outside = sorted(k for k in self.cells
                         if k[0] not in rows or k[1] not in cols)
        if len(self.cells) - len(outside) < (a - c + 1) * (b - c + 1):
            missing = next((i, j) for i in rows for j in cols
                           if (i, j) not in self.cells)
            raise CertificateError(f"missing grid cell {missing}")
        if outside:
            raise CertificateError(
                f"grid cells outside [{c}..{a}] x [{c}..{b}]: {outside}")
        for (i, j), cell in sorted(self.cells.items()):
            if (cell.right_class is None or cell.right_map is None) and i < a:
                raise CertificateError(
                    f"cell ({i}, {j}) needs a class and a restriction "
                    f"toward ({i + 1}, {j})")
            if (cell.down_class is None or cell.down_map is None) and j < b:
                raise CertificateError(
                    f"cell ({i}, {j}) needs a class and a restriction "
                    f"toward ({i}, {j + 1})")
            if i < a and len(cell.right_map) != self.cells[(i + 1, j)].stratum.rank:
                raise CertificateError(
                    f"cell ({i}, {j}): restriction rows do not match the "
                    f"rank of cell ({i + 1}, {j})")
            if j < b and len(cell.down_map) != self.cells[(i, j + 1)].stratum.rank:
                raise CertificateError(
                    f"cell ({i}, {j}): restriction rows do not match the "
                    f"rank of cell ({i}, {j + 1})")
        corner, cell = self.outer[c].child, self.cells[(c, c)].stratum
        if corner.rank != cell.rank or corner.oracle_curves != cell.oracle_curves:
            raise CertificateError(
                "the outer chain must end on the corner cell "
                f"({c}, {c}): rank/oracle mismatch")


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckRecord:
    """A failed check names the first oracle curve pairing negatively."""

    location: str
    value: Vec
    witness_curve: Optional[Vec] = None
    witness_pairing: Optional[Number] = None

    @property
    def passed(self) -> bool:
        return self.witness_curve is None


@dataclass(frozen=True)
class Verdict:
    ok: bool
    checks: tuple[CheckRecord, ...]
    certified: Optional[str] = None

    @property
    def failure(self) -> Optional[CheckRecord]:
        return next((rec for rec in self.checks if not rec.passed), None)


def _run_check(stratum: Stratum, vec: Vec, location: str) -> CheckRecord:
    for curve in stratum.oracle_curves:
        pairing = dot(curve, vec)
        if pairing < 0:
            return CheckRecord(location, vec, curve, pairing)
    return CheckRecord(location, vec)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _verdict(records: list[CheckRecord], certified: str) -> Verdict:
    ok = all(r.passed for r in records)
    return Verdict(ok=ok, checks=tuple(records),
                   certified=certified if ok else None)


def _walk(divisor: Vec, steps, label: str) -> tuple[list[CheckRecord], Vec]:
    """Restrict ``divisor`` down ``steps``; check the difference with the
    next stratum's class at each step, or plain nefness where none is given.
    Returns the records and the divisor on the last stratum."""
    records = []
    for k, s in enumerate(steps):
        divisor = _apply(s.restriction, divisor)
        loc = f"{label} {k} ({s.child.id})"
        if s.next_class is None:
            records.append(_run_check(s.child, divisor, f"{loc}, final"))
        else:
            records.append(_run_check(s.child, _sub(divisor, s.next_class),
                                      loc))
    return records, divisor


def verify_chain(cert: ChainCertificate) -> Verdict:
    """Full chain criterion: difference checks at every non-final stratum,
    then the plain nefness of the final restriction."""
    if cert.steps[-1].next_class is not None:
        raise CertificateError(
            "the final step of a full chain must not carry a next-stratum "
            "class (use the hypothesis-only verifier for open-ended chains)")
    return _verdict(_walk(cert.divisor, cert.steps, "step")[0],
                    "divisor is nef on the root space")


def verify_HE_hypotheses(cert: ChainCertificate) -> Verdict:
    """Hypotheses for nefness of (pullback - exceptional) after blowing up
    the chain's end: difference checks only, no final oracle check."""
    if cert.steps[-1].next_class is None:
        raise CertificateError(
            f"step {len(cert.steps) - 1}: the final step of an open-ended "
            f"chain carries the class of the next stratum")
    return _verdict(_walk(cert.divisor, cert.steps, "step")[0],
                    "pullback minus exceptional divisor is nef on the blowup")


def _propagate_grid(cert: GridCertificate, corner: Vec) -> dict:
    """The divisor on every cell from its corner value; paths must agree."""
    c, cells = cert.c, cert.cells
    values = {(c, c): corner}
    for i in range(c, cert.a + 1):
        for j in range(c, cert.b + 1):
            if (i, j) == (c, c):
                continue
            paths = []
            if i > c:
                paths.append(_apply(cells[i - 1, j].right_map, values[i - 1, j]))
            if j > c:
                paths.append(_apply(cells[i, j - 1].down_map, values[i, j - 1]))
            if paths[-1] != paths[0]:
                raise CertificateError(
                    f"restriction maps disagree on the divisor along "
                    f"different paths into cell ({i}, {j})")
            values[i, j] = paths[0]
    return values


def verify_HEF_hypotheses(cert: GridCertificate) -> Verdict:
    """Hypotheses for nefness of (pullback - both exceptionals) on the
    two-step blowup: outer difference checks, then double-difference checks
    at every grid cell with both neighbors."""
    records, d = _walk(cert.divisor, cert.outer[:cert.c], "outer")
    values = _propagate_grid(cert, _apply(cert.outer[cert.c].restriction, d))
    for i in range(cert.c, cert.a):
        for j in range(cert.c, cert.b):
            cell = cert.cells[(i, j)]
            vec = _sub(_sub(values[(i, j)], cell.right_class), cell.down_class)
            records.append(_run_check(cell.stratum, vec,
                                      f"cell ({i},{j}) ({cell.stratum.id})"))
    return _verdict(records, "pullback minus both exceptional divisors is "
                    "nef on the two-step blowup")


def verify(cert: Union[ChainCertificate, GridCertificate]
           ) -> tuple[Verdict, str]:
    """The verdict on a certificate and the statement its shape proves: a
    grid the two-step blowup hypotheses, a chain whose last step still names
    a next-stratum class the single-blowup hypotheses, any other chain plain
    nefness on the root space."""
    if isinstance(cert, GridCertificate):
        return verify_HEF_hypotheses(cert), "two-step blowup hypotheses"
    if cert.steps[-1].next_class is not None:
        return verify_HE_hypotheses(cert), "single-blowup hypotheses"
    return verify_chain(cert), "nefness on the root space"


# ---------------------------------------------------------------------------
# product assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductCertificates:
    chain: ChainCertificate        # certifies (pullback - E) hypotheses
    grid: GridCertificate          # certifies (pullback - E - F) hypotheses
    cases: tuple[int, int, int]    # alternatives (1 or 2, 3 or 4, 5)


def _pad_vec(v: Vec, before: int, after: int) -> Vec:
    return (0,) * before + tuple(v) + (0,) * after


def _product_stratum(s1: Stratum, s2: Stratum) -> Stratum:
    curves = [_pad_vec(c, 0, s2.rank) for c in s1.oracle_curves]
    curves += [_pad_vec(c, s1.rank, 0) for c in s2.oracle_curves]
    return Stratum(id=f"{s1.id}*{s2.id}", rank=s1.rank + s2.rank,
                   oracle_curves=tuple(curves))


def _block_diag(m1: Mat, r1: int, m2: Mat, r2: int) -> Mat:
    """Block matrix from m1 (cols r1) and m2 (cols r2)."""
    rows = [tuple(row) + (0,) * r2 for row in m1]
    rows += [(0,) * r1 + tuple(row) for row in m2]
    return tuple(rows)


def identity_matrix(n: int) -> Mat:
    return tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))


def _pick(pair_name: str, first_num: int, failing) -> int:
    """Choose the lowest-numbered alternative whose factor condition holds."""
    for offset, rec in enumerate(failing):
        if rec is None:
            return first_num + offset
    detail = "; ".join(
        f"({first_num + offset}) fails at {rec.location}: value {rec.value} "
        f"pairs {rec.witness_pairing} with curve {rec.witness_curve}"
        for offset, rec in enumerate(failing))
    raise CertificateError(
        f"no admissible case selector satisfied for the {pair_name} pair: "
        f"{detail}")


def _move(k: int, cls: Vec, m: Mat, s1: Stratum, s2: Stratum) -> tuple[Vec, Mat]:
    """Class of the next product stratum on s1*s2, and the restriction to it,
    when only factor k moves (by its class cls and its restriction m)."""
    if k == 0:
        return (_pad_vec(cls, 0, s2.rank),
                _block_diag(m, s1.rank, identity_matrix(s2.rank), s2.rank))
    return (_pad_vec(cls, s1.rank, 0),
            _block_diag(identity_matrix(s1.rank), s1.rank, m, s2.rank))


def _product_chain(f1: ChainCertificate, f2: ChainCertificate,
                   moves: Sequence[int]) -> list[ChainStep]:
    """Product chain from the two roots, each move taking one factor (0 or 1)
    one step down its chain: a step's restriction comes from the move into
    it, its next class from the move out of it (none after the last)."""
    factors = (f1.steps, f2.steps)
    pos = [0, 0]
    restriction = _block_diag(f1.steps[0].restriction, f1.root_rank,
                              f2.steps[0].restriction, f2.root_rank)
    steps = []
    for k in (*moves, None):
        s1, s2 = f1.steps[pos[0]].child, f2.steps[pos[1]].child
        next_class = next_map = None
        if k is not None:
            here, there = factors[k][pos[k]:pos[k] + 2]
            next_class, next_map = _move(k, here.next_class, there.restriction,
                                         s1, s2)
            pos[k] += 1
        steps.append(ChainStep(child=_product_stratum(s1, s2),
                               restriction=restriction, next_class=next_class))
        restriction = next_map
    return steps


def build_product_certificates(f1: ChainCertificate,
                               f2: ChainCertificate) -> ProductCertificates:
    """Assemble product chain and grid certificates for X1 x X2 blown up
    along {point} x A2, then along the strict transform of X1 x {point}.

    ``f1`` runs from X1 down to the point; ``f2`` runs from X2 to A2 (step
    1) and on down to the point.  The outer chain moves factor 2 to A2; the
    grid below it moves factor 1 down its chain to the right and factor 2
    down its chain below A2 downward.  The single-blowup chain moves factor
    2 first when factor 1's divisor is nef on X1 (alternative 1), else
    factor 1 first when factor 2's is nef on X2 (alternative 2); if neither
    is, each factor's violated check is reported.  On this shape only factor
    1 moves along A and only factor 2 along B, so the other alternatives
    cannot change a certificate: ``cases`` reports 3 when factor 1's chain
    differences are nef (4 otherwise), and always 5.
    """
    if len(f2.steps) < 2:
        raise CertificateError("factor 2's chain needs A2 as its step 1")
    roots = [_run_check(f.steps[0].child,
                        _apply(f.steps[0].restriction, f.divisor),
                        f"root ({f.steps[0].child.id})") for f in (f1, f2)]
    x_case = _pick("globally-nef-divisor", 1,
                   [None if r.passed else r for r in roots])
    a_sel = 3 if all(r.passed for r in
                     _walk(f1.divisor, f1.steps, "step")[0][:-1]) else 4

    a, b = len(f1.steps) - 1, len(f2.steps) - 1
    cells: dict[tuple[int, int], GridCell] = {}
    for x in range(a + 1):
        for y in range(1, b + 1):
            s1, s2 = f1.steps[x].child, f2.steps[y].child
            right = down = (None, None)
            if x < a:
                right = _move(0, f1.steps[x].next_class,
                              f1.steps[x + 1].restriction, s1, s2)
            if y < b:
                down = _move(1, f2.steps[y].next_class,
                             f2.steps[y + 1].restriction, s1, s2)
            cells[(x + 1, y)] = GridCell(
                stratum=_product_stratum(s1, s2),
                right_class=right[0], right_map=right[1],
                down_class=down[0], down_map=down[1])

    root_rank = f1.root_rank + f2.root_rank
    divisor = f1.divisor + f2.divisor
    grid = GridCertificate(a=a + 1, b=b, c=1, root_rank=root_rank,
                           outer=_product_chain(f1, f2, (1,)), cells=cells,
                           divisor=divisor)
    # The single-blowup chain ends at the center {point} x A2, which is not
    # a step.
    moves = (1,) + (0,) * a if x_case == 1 else (0,) * a + (1,)
    chain = ChainCertificate(root_rank=root_rank, divisor=divisor,
                             steps=_product_chain(f1, f2, moves)[:-1])
    return ProductCertificates(chain=chain, grid=grid, cases=(x_case, a_sel, 5))


# ---------------------------------------------------------------------------
# JSON serialization ("p/q" strings for non-integers)
# ---------------------------------------------------------------------------

def _num_out(x: Number):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _num_in(x) -> Number:
    """An integer or a "p/q" string as an ``int`` when integral, else as a
    :class:`Fraction`."""
    if type(x) is int:
        return x
    # bool is a subclass of int; a JSON true must not read as 1.
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise CertificateError(f"expected an integer or 'p/q' string, got {x!r}")
    # Fraction() also reads decimals and exponents, and "1e-99999999" would
    # make it compute 10**99999999: only what _num_out writes is read.
    if isinstance(x, str) and not _RATIONAL.fullmatch(x):
        raise CertificateError(f"not an exact rational: {x!r}")
    try:
        q = Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise CertificateError(f"not an exact rational: {x!r}") from exc
    return q.numerator if q.denominator == 1 else q


def _int_in(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise CertificateError(f"expected an integer, got {x!r}")
    return x


def _vec_out(v: Vec):
    return [_num_out(x) for x in v]


def _mat_out(m: Mat):
    return [[_num_out(x) for x in row] for row in m]


def _vec_in(v) -> Vec:
    # A string or an object is iterable too: "12" would read as (1, 2).
    if not isinstance(v, list):
        raise CertificateError(f"expected a JSON array, got {v!r}")
    return tuple(_num_in(x) for x in v)


def _mat_in(m) -> Mat:
    if not isinstance(m, list):
        raise CertificateError(f"expected a JSON array of arrays, got {m!r}")
    return tuple(_vec_in(row) for row in m)


def _opt(convert, x):
    return None if x is None else convert(x)


def _stratum_out(s: Stratum) -> dict:
    return {"id": s.id, "rank": s.rank,
            "oracle_curves": _mat_out(s.oracle_curves)}


def _stratum_in(d: dict, default_id: str) -> Stratum:
    """A stratum of positive rank must list oracle curves spanning its
    lattice: otherwise a nonzero class pairs 0 with every curve, and both it
    and its negative would pass as nef."""
    s = Stratum(id=d.get("id", default_id), rank=_int_in(d["rank"]),
                oracle_curves=_mat_in(d["oracle_curves"]))
    if s.rank > 0 and (len(s.oracle_curves) < s.rank or _basis_or_kernel(
            s.oracle_curves, s.rank)[2] is not None):
        raise CertificateError(
            f"stratum {s.id!r}: the oracle curves do not span its rank-"
            f"{s.rank} class lattice")
    return s


def _step_out(s: ChainStep) -> dict:
    return {**_stratum_out(s.child), "restriction": _mat_out(s.restriction),
            "next_class": _opt(_vec_out, s.next_class)}


def _step_in(d: dict, index: int) -> ChainStep:
    return ChainStep(child=_stratum_in(d, f"step{index}"),
                     restriction=_mat_in(d["restriction"]),
                     next_class=_opt(_vec_in, d.get("next_class")))


def certificate_to_dict(cert: Union[ChainCertificate, GridCertificate]) -> dict:
    if isinstance(cert, ChainCertificate):
        return {
            "kind": "chain",
            "root_rank": cert.root_rank,
            "steps": [_step_out(s) for s in cert.steps],
            "divisor": _vec_out(cert.divisor),
        }
    if isinstance(cert, GridCertificate):
        cells = [{"i": i, "j": j, **_stratum_out(cell.stratum),
                  "right_class": _opt(_vec_out, cell.right_class),
                  "right_map": _opt(_mat_out, cell.right_map),
                  "down_class": _opt(_vec_out, cell.down_class),
                  "down_map": _opt(_mat_out, cell.down_map)}
                 for (i, j), cell in sorted(cert.cells.items())]
        return {
            "kind": "grid",
            "a": cert.a, "b": cert.b, "c": cert.c,
            "root_rank": cert.root_rank,
            "outer": [_step_out(s) for s in cert.outer],
            "cells": cells,
            "divisor": _vec_out(cert.divisor),
        }
    raise CertificateError(f"not a certificate: {cert!r}")


def certificate_from_dict(data: dict) -> Union[ChainCertificate, GridCertificate]:
    if not isinstance(data, dict):
        raise CertificateError(
            f"a certificate document is a JSON object, got {type(data).__name__}")
    kind = data.get("kind", "chain")
    try:
        return _certificate_from_dict(data, kind)
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise CertificateError(
            f"malformed {kind} certificate document: {exc!r}") from exc


def _certificate_from_dict(data, kind):
    if kind == "chain":
        return ChainCertificate(
            root_rank=_int_in(data["root_rank"]),
            steps=tuple(_step_in(s, k) for k, s in enumerate(data["steps"])),
            divisor=_vec_in(data["divisor"]))
    if kind == "grid":
        cells = {}
        for e in data["cells"]:
            key = (_int_in(e["i"]), _int_in(e["j"]))
            if key in cells:
                raise CertificateError(f"grid cell {key} is listed twice")
            cells[key] = GridCell(
                stratum=_stratum_in(e, f"cell({e['i']},{e['j']})"),
                right_class=_opt(_vec_in, e.get("right_class")),
                right_map=_opt(_mat_in, e.get("right_map")),
                down_class=_opt(_vec_in, e.get("down_class")),
                down_map=_opt(_mat_in, e.get("down_map")))
        return GridCertificate(
            a=_int_in(data["a"]), b=_int_in(data["b"]), c=_int_in(data["c"]),
            root_rank=_int_in(data["root_rank"]),
            outer=tuple(_step_in(s, k) for k, s in enumerate(data["outer"])),
            cells=cells,
            divisor=_vec_in(data["divisor"]))
    raise CertificateError(f"unknown certificate kind {kind!r}")


# ---------------------------------------------------------------------------
# factor chains: P^n1 x P^n2 blown up along {point} x L_d, then X1 x {point}
# ---------------------------------------------------------------------------

def tsukioka_factors(n1: int, n2: int, d: int
                     ) -> tuple[ChainCertificate, ChainCertificate]:
    """Factor chains for the product of projective spaces construction: the
    first center is {point} x L_d, the second is X_1 x {point} with the point
    on the degree-d hypersurface L_d in P^n2.

    Factor 1 (P^n1): A = point (codim n1), B = everything (codim 0), so its
    chain is the linear strata P^n1 > P^(n1-1) > ... > point.  Factor 2
    (P^n2): A = L_d (codim 1), B = point (codim n2), so its chain is P^n2 >
    L_d > section > ... > point.  All lattices are rank 1 (hyperplane-class
    units on the ambient strata, degree units on curves), except rank 0 at
    points.
    """
    if n1 < 1 or n2 < 2 or d < 1:
        raise ValueError("need n1 >= 1, n2 >= 2, d >= 1")
    unit = ((1,),)

    def step(name: str, restriction: Mat, next_class=(1,)) -> ChainStep:
        return ChainStep(child=Stratum(id=name, rank=1, oracle_curves=unit),
                         restriction=restriction, next_class=next_class)

    def point(name: str) -> ChainStep:
        # restriction to a rank-0 stratum is the empty matrix
        return ChainStep(child=Stratum(id=name, rank=0, oracle_curves=()),
                         restriction=())

    chain1 = [step(f"P^{n1 - x}", unit) for x in range(n1)] + [point("P^0")]
    # Stratum y of factor 2 below its root is L_d (y = 1), S_y, the curve C
    # (y = n2 - 1; L_d itself when n2 = 2) or the point (y = n2).
    # Restricting to the curve multiplies hyperplane units by the surface
    # degree d.
    chain2 = [step(f"P^{n2}", unit, next_class=(d,))]
    chain2 += [step(f"L_{d}" if y == 1 else "C" if y == n2 - 1 else f"S_{y}",
                    ((d,),) if y == n2 - 1 else unit) for y in range(1, n2)]
    return (ChainCertificate(root_rank=1, steps=chain1, divisor=(1,)),
            ChainCertificate(root_rank=1, steps=chain2 + [point("pt")],
                             divisor=(d,)))
