"""Chain- and grid-style nefness certificates.

A *stratum* is a numerical stand-in for a subvariety: a class lattice of some
rank plus a curve oracle (a divisor class on the stratum is nef exactly when
it pairs >= 0 with every oracle curve; a point has rank 0 and an empty
oracle).  A *chain certificate* walks a divisor down a chain of strata,
checking at each stratum that the restricted divisor minus the class of the
next stratum stays nef; a *grid certificate* does the same over a rectangular
grid of strata below an outer chain, subtracting both neighbor classes.

Product certificates are assembled from two factor grids by interleaving
their chains so that each unit step moves exactly one factor; the factors'
own nefness conditions (root, A-edge, B-edge) choose each interleaving.
:func:`factor_grids` builds the factor grids of both worked constructions,
the point x hypersurface fixtures and the del Pezzo scenario's T divisors,
from one chain per factor.

Everything is exact: entries are ints or fractions, never floats.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .cones import _basis_or_kernel, dot, fvec

Number = Union[int, Fraction]
Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


class CertificateError(Exception):
    """Structurally invalid certificate (shapes, missing data, broken maps)."""


def _mat(m: Iterable[Iterable[Number]]) -> Mat:
    return tuple(fvec(row) for row in m)


def _apply(m: Mat, v: Sequence[Fraction]) -> Vec:
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


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

    def nef_check(self, v: Sequence[Fraction]):
        """(passed, witness_curve, witness_value) for the class v."""
        for c in self.oracle_curves:
            val = dot(c, v)
            if val < 0:
                return False, c, val
        return True, None, None

    def same_shape(self, other: "Stratum") -> bool:
        return (self.rank == other.rank
                and self.oracle_curves == other.oracle_curves)


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
            object.__setattr__(self, "next_class", fvec(self.next_class))
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
        object.__setattr__(self, "divisor", fvec(self.divisor))
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
                v = fvec(v)
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
        object.__setattr__(self, "divisor", fvec(self.divisor))
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
        corner = self.outer[c].child
        if not corner.same_shape(self.cells[(c, c)].stratum):
            raise CertificateError(
                "the outer chain must end on the corner cell "
                f"({c}, {c}): rank/oracle mismatch")


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckRecord:
    location: str
    value: Vec
    passed: bool
    witness_curve: Optional[Vec] = None
    witness_pairing: Optional[Fraction] = None


@dataclass(frozen=True)
class Verdict:
    ok: bool
    checks: tuple[CheckRecord, ...]
    certified: Optional[str] = None

    @property
    def failure(self) -> Optional[CheckRecord]:
        for rec in self.checks:
            if not rec.passed:
                return rec
        return None


def _run_check(stratum: Stratum, vec: Vec, location: str) -> CheckRecord:
    passed, curve, val = stratum.nef_check(vec)
    return CheckRecord(location=location, value=vec, passed=passed,
                       witness_curve=curve, witness_pairing=val)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _verdict(records: list[CheckRecord], certified: str) -> Verdict:
    ok = all(r.passed for r in records)
    return Verdict(ok=ok, checks=tuple(records),
                   certified=certified if ok else None)


def _walk_chain(cert: ChainCertificate) -> list[CheckRecord]:
    """Restrict the divisor down the chain; check the difference with the
    next stratum's class at each step, or plain nefness where none is given."""
    records = []
    d = cert.divisor
    for k, s in enumerate(cert.steps):
        d = _apply(s.restriction, d)
        loc = f"step {k} ({s.child.id})"
        if s.next_class is None:
            records.append(_run_check(s.child, d, f"{loc}, final"))
        else:
            records.append(_run_check(s.child, _sub(d, s.next_class), loc))
    return records


def verify_chain(cert: ChainCertificate) -> Verdict:
    """Full chain criterion: difference checks at every non-final stratum,
    then the plain nefness of the final restriction."""
    if cert.steps[-1].next_class is not None:
        raise CertificateError(
            "the final step of a full chain must not carry a next-stratum "
            "class (use the hypothesis-only verifier for open-ended chains)")
    return _verdict(_walk_chain(cert), "divisor is nef on the root space")


def verify_HE_hypotheses(cert: ChainCertificate) -> Verdict:
    """Hypotheses for nefness of (pullback - exceptional) after blowing up
    the chain's end: difference checks only, no final oracle check."""
    if cert.steps[-1].next_class is None:
        raise CertificateError(
            f"step {len(cert.steps) - 1}: the final step of an open-ended "
            f"chain carries the class of the next stratum")
    return _verdict(_walk_chain(cert), "pullback minus exceptional divisor "
                    "is nef on the blowup")


def _propagate_grid(cert: GridCertificate):
    d = cert.divisor
    outer_values = []
    for s in cert.outer:
        d = _apply(s.restriction, d)
        outer_values.append(d)
    values: dict[tuple[int, int], Vec] = {(cert.c, cert.c): d}
    for i in range(cert.c, cert.a + 1):
        for j in range(cert.c, cert.b + 1):
            if (i, j) == (cert.c, cert.c):
                continue
            candidates = []
            if i > cert.c:
                src = cert.cells[(i - 1, j)]
                candidates.append(_apply(src.right_map, values[(i - 1, j)]))
            if j > cert.c:
                src = cert.cells[(i, j - 1)]
                candidates.append(_apply(src.down_map, values[(i, j - 1)]))
            for other in candidates[1:]:
                if other != candidates[0]:
                    raise CertificateError(
                        f"restriction maps disagree on the divisor along "
                        f"different paths into cell ({i}, {j})")
            values[(i, j)] = candidates[0]
    return values, outer_values


def verify_HEF_hypotheses(cert: GridCertificate) -> Verdict:
    """Hypotheses for nefness of (pullback - both exceptionals) on the
    two-step blowup: outer difference checks, then double-difference checks
    at every grid cell with both neighbors."""
    values, outer_values = _propagate_grid(cert)
    records = []
    for k in range(cert.c):
        s = cert.outer[k]
        records.append(_run_check(
            s.child, _sub(outer_values[k], s.next_class),
            f"outer {k} ({s.child.id})"))
    for i in range(cert.c, cert.a):
        for j in range(cert.c, cert.b):
            cell = cert.cells[(i, j)]
            vec = _sub(_sub(values[(i, j)], cell.right_class), cell.down_class)
            records.append(_run_check(cell.stratum, vec,
                                      f"cell ({i},{j}) ({cell.stratum.id})"))
    return _verdict(records, "pullback minus both exceptional divisors is "
                    "nef on the two-step blowup")


# ---------------------------------------------------------------------------
# product assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductCertificates:
    chain: ChainCertificate        # certifies (pullback - E) hypotheses
    grid: GridCertificate          # certifies (pullback - E - F) hypotheses
    cases: tuple[int, int, int]    # chosen alternatives: one of (1,2), (3,4), (5,6)


def _pad_vec(v: Vec, before: int, after: int) -> Vec:
    return tuple([Fraction(0)] * before) + tuple(v) + tuple([Fraction(0)] * after)


def _product_stratum(s1: Stratum, s2: Stratum) -> Stratum:
    curves = [_pad_vec(c, 0, s2.rank) for c in s1.oracle_curves]
    curves += [_pad_vec(c, s1.rank, 0) for c in s2.oracle_curves]
    return Stratum(id=f"{s1.id}*{s2.id}", rank=s1.rank + s2.rank,
                   oracle_curves=tuple(curves))


def _block_diag(m1: Mat, r1: int, m2: Mat, r2: int) -> Mat:
    """Block matrix from m1 (cols r1) and m2 (cols r2)."""
    rows = [tuple(row) + tuple([Fraction(0)] * r2) for row in m1]
    rows += [tuple([Fraction(0)] * r1) + tuple(row) for row in m2]
    return tuple(rows)


def identity_matrix(n: int) -> Mat:
    return tuple(tuple(Fraction(1) if i == j else Fraction(0)
                       for j in range(n)) for i in range(n))


def _conditions(g: GridCertificate) -> tuple[Optional[CheckRecord], ...]:
    """The first failing check of each factor condition, None where it holds:
    nefness of the divisor on the root stratum, then single-difference
    nefness along the A-edge (cells (x, c) minus their right class) and along
    the B-edge (cells (c, y) minus their down class)."""
    values, outer_values = _propagate_grid(g)
    root = g.outer[0].child
    found = [[_run_check(root, outer_values[0], f"root ({root.id})")]]
    for axis, end in (("A", g.a), ("B", g.b)):
        found.append([])
        for t in range(g.c, end):
            at = (t, g.c) if axis == "A" else (g.c, t)
            cell = g.cells[at]
            nxt = cell.right_class if axis == "A" else cell.down_class
            found[-1].append(_run_check(
                cell.stratum, _sub(values[at], nxt),
                f"{axis}-chain cell ({at[0]},{at[1]}) ({cell.stratum.id})"))
    return tuple(next((r for r in recs if not r.passed), None) for recs in found)


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


def _path(first: int, lo: tuple[int, int], hi: tuple[int, int]
          ) -> list[tuple[int, int]]:
    """Factor positions (p1, p2) from lo to hi, one factor moving per step:
    factor `first` (0 or 1) walks its whole range before the other moves."""
    pos = list(lo)
    path = [lo]
    for k in (first, 1 - first):
        while pos[k] < hi[k]:
            pos[k] += 1
            path.append(tuple(pos))
    return path


def _mover(here: tuple[int, int], there: tuple[int, int]) -> int:
    """The factor (0 or 1) that moves between adjacent path positions."""
    return 0 if here[0] != there[0] else 1


def _move(k: int, cls: Vec, m: Mat, s1: Stratum, s2: Stratum) -> tuple[Vec, Mat]:
    """Class of the next product stratum on s1*s2, and the restriction to it,
    when only factor k moves (by its class cls and its restriction m)."""
    if k == 0:
        return (_pad_vec(cls, 0, s2.rank),
                _block_diag(m, s1.rank, identity_matrix(s2.rank), s2.rank))
    return (_pad_vec(cls, s1.rank, 0),
            _block_diag(identity_matrix(s1.rank), s1.rank, m, s2.rank))


def _a_chain(g: GridCertificate) -> list[ChainStep]:
    """The steps from the root down the outer chain and on along the grid's
    A-edge, cells (q, c)."""
    edge = [g.cells[(q, g.c)] for q in range(g.c, g.a + 1)]
    corner = g.outer[-1]
    return [*g.outer[:-1],
            ChainStep(child=corner.child, restriction=corner.restriction,
                      next_class=edge[0].right_class),
            *(ChainStep(child=cell.stratum, restriction=prev.right_map,
                        next_class=cell.right_class)
              for prev, cell in zip(edge, edge[1:]))]


def _interleave(chains, roots: tuple[int, int], path) -> list[ChainStep]:
    """Product chain along a path from (0, 0) through two factor chains: a
    step's restriction comes from the move into it, its next class from the
    move out of it (none at the path's end)."""
    restriction = _block_diag(chains[0][0].restriction, roots[0],
                              chains[1][0].restriction, roots[1])
    steps = []
    for j, pos in enumerate(path):
        s1, s2 = chains[0][pos[0]].child, chains[1][pos[1]].child
        next_class = next_map = None
        if j + 1 < len(path):
            k = _mover(pos, path[j + 1])
            next_class, next_map = _move(k, chains[k][pos[k]].next_class,
                                         chains[k][pos[k] + 1].restriction,
                                         s1, s2)
        steps.append(ChainStep(child=_product_stratum(s1, s2),
                               restriction=restriction, next_class=next_class))
        restriction = next_map
    return steps


def build_product_certificates(f1: GridCertificate,
                               f2: GridCertificate) -> ProductCertificates:
    """Assemble product chain and grid certificates from two factor grids.

    The interleavings mirror the product nefness lemmas: the outer chain
    moves the factor whose divisor is *not* globally nef first (alternatives
    1/2), the row chains are keyed to which factor's B-chain differences are
    nef (5/6), and the column chains to which factor's A-chain differences
    are nef (3/4).  Both factors' conditions are checked up front; the
    lowest-numbered alternative of each pair whose condition holds is
    chosen, and if a pair has none, each factor's first violated check is
    reported.
    """
    root, a_edge, b_edge = zip(_conditions(f1), _conditions(f2))
    x_case = _pick("globally-nef-divisor", 1, root)
    a_sel = _pick("A-chain", 3, a_edge)
    b_sel = _pick("B-chain", 5, b_edge)

    # The factor that walks its chain first: factor 2 (index 1) when factor
    # 1's divisor is nef (1) on the outer chain and the A-chain, when factor
    # 1's B-chain differences are nef (5) along A, and when factor 1's
    # A-chain differences are nef (3) along B.
    x_first, a_first, b_first = int(x_case == 1), int(b_sel == 5), int(a_sel == 3)
    roots = (f1.root_rank, f2.root_rank)
    chains = (_a_chain(f1), _a_chain(f2))
    corner, c = (f1.c, f2.c), f1.c + f2.c
    apath = _path(a_first, corner, (f1.a, f2.a))
    bpath = _path(b_first, corner, (f1.b, f2.b))

    cells: dict[tuple[int, int], GridCell] = {}
    for i, (x1, x2) in enumerate(apath):
        for j, (y1, y2) in enumerate(bpath):
            here = (f1.cells[(x1, y1)], f2.cells[(x2, y2)])
            s1, s2 = here[0].stratum, here[1].stratum
            right = down = (None, None)
            if i + 1 < len(apath):
                k = _mover(apath[i], apath[i + 1])
                right = _move(k, here[k].right_class, here[k].right_map, s1, s2)
            if j + 1 < len(bpath):
                k = _mover(bpath[j], bpath[j + 1])
                down = _move(k, here[k].down_class, here[k].down_map, s1, s2)
            cells[(c + i, c + j)] = GridCell(
                stratum=_product_stratum(s1, s2),
                right_class=right[0], right_map=right[1],
                down_class=down[0], down_map=down[1])

    divisor = tuple(f1.divisor) + tuple(f2.divisor)
    grid = GridCertificate(
        a=f1.a + f2.a, b=f1.b + f2.b, c=c, root_rank=sum(roots),
        outer=_interleave(chains, roots, _path(x_first, (0, 0), corner)),
        cells=cells, divisor=divisor)
    # The single-blowup chain runs along the full A-chains; the last
    # position, the center itself, is not a step.
    a_path = _path(x_first, (0, 0), (f1.a, f2.a))
    chain = ChainCertificate(root_rank=sum(roots), divisor=divisor,
                             steps=_interleave(chains, roots, a_path)[:-1])
    return ProductCertificates(chain=chain, grid=grid,
                               cases=(x_case, a_sel, b_sel))


# ---------------------------------------------------------------------------
# JSON serialization ("p/q" strings for non-integers)
# ---------------------------------------------------------------------------

def _num_out(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _num_in(x) -> Fraction:
    # bool is a subclass of int; a JSON true must not read as 1.
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise CertificateError(f"expected an integer or 'p/q' string, got {x!r}")
    # Fraction() also reads decimals and exponents, and "1e-99999999" would
    # make it compute 10**99999999: only what _num_out writes is read.
    if isinstance(x, str) and not _RATIONAL.fullmatch(x):
        raise CertificateError(f"not an exact rational: {x!r}")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise CertificateError(f"not an exact rational: {x!r}") from exc


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
# factor grids: X1 x X2 blown up along {point} x A2, then along X1 x {point}
# ---------------------------------------------------------------------------

def factor_grids(chain1: Sequence[ChainStep], divisor1: Iterable[Number],
                 chain2: Sequence[ChainStep], divisor2: Iterable[Number]
                 ) -> tuple[GridCertificate, GridCertificate]:
    """Factor grids from one chain per factor, each running from the factor's
    root (an identity restriction) down to a point.

    Factor 1 is one column: its A-chain is all of ``chain1`` and its B-chain
    is empty.  Factor 2 takes one outer step, from the root to A2 =
    ``chain2[1]``, and its grid is the single row ``chain2[1:]``, the B-chain
    from A2 down to a point.
    """
    a, b = len(chain1) - 1, len(chain2) - 1
    cells1 = {(x, 0): GridCell(stratum=s.child, right_class=s.next_class,
                               right_map=nxt.restriction)
              for x, (s, nxt) in enumerate(zip(chain1, chain1[1:]))}
    cells1[(a, 0)] = GridCell(stratum=chain1[a].child)
    root1 = ChainStep(child=chain1[0].child, restriction=chain1[0].restriction)
    cells2 = {(1, y): GridCell(stratum=chain2[y].child,
                               down_class=chain2[y].next_class,
                               down_map=chain2[y + 1].restriction)
              for y in range(1, b)}
    cells2[(1, b)] = GridCell(stratum=chain2[b].child)
    corner2 = ChainStep(child=chain2[1].child, restriction=chain2[1].restriction)
    return (GridCertificate(a=a, b=0, c=0, root_rank=chain1[0].child.rank,
                            outer=(root1,), cells=cells1, divisor=divisor1),
            GridCertificate(a=1, b=b, c=1, root_rank=chain2[0].child.rank,
                            outer=(chain2[0], corner2), cells=cells2,
                            divisor=divisor2))


def tsukioka_factors(n1: int, n2: int, d: int) -> tuple[GridCertificate, GridCertificate]:
    """Factor grids for the product of projective spaces construction: the
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
    return factor_grids(chain1, (1,), chain2 + [point("pt")], (d,))
