"""The del Pezzo product scenario.

X is the two-step blowup of a product of two del Pezzo surfaces (the first
factor blown up at r1 <= 3 points, the second at r2 <= 8): the first center
is {point} x (line class), the second the strict transform of (first factor)
x {point}.  The divisor basis is (H1, E_{1,*}, H2, E_{2,*}, E, F), so the
Picard rank is 4 + r1 + r2.

Curves are stored as intersection vectors against that basis, so pairing a
divisor coefficient vector with a curve is a plain dot product and the cone
of curves and the nef cone are exact duals.  Every claim (cone equality,
Fano/weak Fano/Fano-type classification, the supporting linear-program
refutation) is decided with the exact core (:mod:`moricone.exact`) alone;
the cone engine ``cones.py`` is a second, independent check in the tests.

The catalog is e (the fiber of E over the first center), f (the fiber of F)
and one curve per factor NE generator, by one lift rule (:func:`_lift`); a
curve is its name and vector, and its name says which class it lifts:

* factor 1: each generator of NE(dP_{r1+1}), where the extra point is the
  point of the first center, puts its pairing row on the H1/E1 slots and its
  multiplicity at the extra point on E.  The extra point's exceptional class
  E0 is not lifted, since it splits as e + f;
* factor 2: each generator of NE(dP_{r2}) puts its pairing row on the H2/E2
  slots and its degree on E.

The claimed nef cone is generated by both factors' nef cones pulled back
and T = {N1 + H2 - E, N1 + H2 - E - F : N1 in T1}, where T1 is the rays of
Nef(dP_{r1+1}) with E0 coefficient -1, E0 dropped (:func:`t1_divisors`).

The trust base is :func:`delpezzo.ne_generators`: NE(dP_r) is generated by
the (-1)-classes for r >= 2, by E1 and H - E1 for r = 1, and by H for r = 0.
``delpezzo`` lists the (-1)-classes and the rays of Nef(dP_r) as Weyl orbits;
the tests compare them with an independent enumeration and with ``cones.dual``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import delpezzo
from .certificates import (
    ChainCertificate,
    ChainStep,
    ProductCertificates,
    Stratum,
    build_product_certificates,
    identity_matrix,
)
from .exact import (
    DimensionMismatchError,
    LinearProgram,
    PolyCone,
    _idot,
    check_infeasibility_certificate,
    constraint,
    dot,
    first_negative,
    generated,
    primitive,
)

MAX_R1 = 3
MAX_R2 = 8


@dataclass(frozen=True)
class NamedVector:
    """A catalog curve or a claimed divisor: its name and its vector."""

    name: str
    vector: tuple


@dataclass(frozen=True)
class Scenario:
    r1: int
    r2: int
    curves: tuple[NamedVector, ...]

    def __post_init__(self):
        # Pairings with the catalog are unchecked dot products.
        rho = self.rho
        for c in self.curves:
            if len(c.vector) != rho:
                raise DimensionMismatchError(
                    f"curve {c.name!r} has {len(c.vector)} entries, the "
                    f"Picard rank is {rho}")

    @property
    def rho(self) -> int:
        return 4 + self.r1 + self.r2

    def ne_curves(self) -> tuple[NamedVector, ...]:
        """The claimed generators of the cone of curves: every curve.  The
        package reads :attr:`curves`; this stays because the benchmark's
        ``double_description`` workload calls it."""
        return self.curves

    # slot indices into the divisor basis: H1 is slot 0, F the last, rho - 1
    @property
    def idx_h2(self) -> int:
        return 1 + self.r1

    @property
    def idx_e(self) -> int:
        return 2 + self.r1 + self.r2


def build_scenario(r1: int, r2: int) -> Scenario:
    if not (0 <= r1 <= MAX_R1):
        raise ValueError(f"first factor needs 0 <= r1 <= {MAX_R1}, got {r1}")
    if not (0 <= r2 <= MAX_R2):
        raise ValueError(f"second factor needs 0 <= r2 <= {MAX_R2}, got {r2}")
    curves = [*_fibers(r1, r2).items(), *_lift(r1, r2, 1), *_lift(r1, r2, 2)]
    return Scenario(r1, r2, tuple(NamedVector(*c) for c in curves))


def _fibers(r1: int, r2: int) -> dict[str, tuple[int, ...]]:
    """The fibers e of E and f of F: the only curves with an F entry."""
    zero = (0,) * (r1 + r2 + 2)
    return {"e": zero + (-1, 1), "f": zero + (0, -1)}


def _points(multiplicities: Sequence[int]) -> str:
    """Name suffix listing the points j whose E_j enters a class: "_12" for
    H - E_1 - E_2, "_1" for E_1, "" for H."""
    through = "".join([str(j) for j, m in enumerate(multiplicities, 1) if m])
    return f"_{through}" if through else ""


def _lift(r1: int, r2: int, factor: int
          ) -> list[tuple[str, tuple[int, ...]]]:
    """The curves of X over one factor's lifted classes in cell (r1, r2), as
    (catalog name, intersection vector) in generator order: the cached
    :func:`_lifted_classes` of the factor's lattice, padded into the cell's
    basis."""
    if factor == 1:
        pad = (0,) * (r2 + 1)
        return [(name, row + pad + (e, 0))
                for name, row, e in _lifted_classes(1, r1)]
    pad = (0,) * (r1 + 1)
    return [(name, pad + row + (e, 0))
            for name, row, e in _lifted_classes(2, r2)]


# ---------------------------------------------------------------------------
# per-lattice tables
# ---------------------------------------------------------------------------
# What a cell needs of a del Pezzo lattice depends on that lattice alone, so
# it is built once per lattice and process from the guarded, cached output of
# delpezzo.ne_generators and delpezzo.nef_cone; a cell only pads it into its
# basis.  Every value is a tuple or a frozenset, so no caller can change it.

@functools.cache
def _lifted_classes(factor: int, r: int) -> tuple[tuple, ...]:
    """(catalog name, pairing row, E entry) for each class that
    :func:`_lift` lifts from one factor, in generator order; ``r`` is r1 for
    factor 1 and r2 for factor 2.

    Factor 1: the classes are the generators of NE(dP_{r1+1}), the first
    factor blown up also at the point of the first center, other than its
    exceptional class E0, which splits as e + f.  A class's pairing row
    goes on the H1/E1 slots and its multiplicity at that extra point (minus
    its last entry) on E.  Factor 2: the classes are the generators of
    NE(S2).  A class's pairing row goes on the H2/E2 slots and its degree
    on E.

    Names: a factor-1 curve lists the points it passes through (``l1_12``,
    ``e1_1``), as do H (r2 = 0) and H - E1 (r2 = 1) of S2 (``l2``,
    ``l2_1``); the (-1)-classes of S2 are named by position (``e2_k``).
    A name is the key the catalog check reads, so two classes of one
    lattice under one name are an internal error.
    """
    pairing_row = delpezzo.pairing_row
    if factor == 1:
        e0 = (0,) * (r + 1) + (1,)
        out = [(("l1" if c[-1] else "e1") + _points(c[1:-1]),
                pairing_row(c[:-1]), -c[-1])
               for c in delpezzo.ne_generators(delpezzo.build(r + 1))
               if c != e0]
    else:
        out = []
        for k, c in enumerate(delpezzo.ne_generators(delpezzo.build(r)), 1):
            row = pairing_row(c)   # c . row is the self-intersection of c
            name = f"e2_{k}" if _idot(c, row) == -1 else "l2" + _points(c[1:])
            out.append((name, row, c[0]))
    if len({name for name, _, _ in out}) != len(out):
        raise AssertionError(f"factor {factor}, r = {r}: two lifted classes "
                             f"share a name")
    return tuple(out)


@functools.cache
def _t1_classes(r1: int) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """(name, N1) for each N1 in T1, in report order (see
    :func:`t1_divisors`), N1 in the basis (H1, E1_1, ..., E1_r1)."""
    keyed = []
    for ray in delpezzo.nef_cone(delpezzo.build(r1 + 1)).rays:
        if ray[-1] == -1:
            points = [j for j, m in enumerate(ray[1:-1], 1) if m]
            keyed.append((ray[0], len(points), points, ray[:-1]))
    keyed.sort()
    return tuple((("H1" if d == 1 else f"{d}H1")
                  + "".join([f"-E1_{j}" for j in points]), n1)
                 for d, _, points, n1 in keyed)


@functools.cache
def _p_rays(r1: int) -> frozenset[tuple[int, ...]]:
    """The extremal rays (D, 0) and (D, x_E(D)) of the lemma's P (see
    :func:`verify_theorem`), for the rays D of Nef(dP_{r1+1})."""
    return frozenset(d + (x,)
                     for d in delpezzo.nef_cone(delpezzo.build(r1 + 1)).rays
                     for x in (0, d[-1]))


def anticanonical(s: Scenario) -> tuple[int, ...]:
    """-K_X = -K_1 - K_2 - 2E - F, K_k the canonical class of factor k."""
    k = (delpezzo.build(s.r1).canonical_class
         + delpezzo.build(s.r2).canonical_class)
    return tuple(-x for x in k) + (-2, -1)


def delta_divisor(s: Scenario) -> tuple[Fraction, ...]:
    """The boundary (1/3)((H1 - E) + (H2 - E - F)) whose ampleness
    certificate (see :func:`delta_certificate`) witnesses bigness of -K."""
    third = Fraction(1, 3)
    return ((third,) + (Fraction(0),) * s.r1 + (third,)
            + (Fraction(0),) * s.r2 + (Fraction(-2, 3), Fraction(-1, 3)))


def ne_generators(s: Scenario) -> PolyCone:
    return generated(s.rho, [c.vector for c in s.curves])


def t1_divisors(s: Scenario) -> tuple[NamedVector, ...]:
    """The rays of Nef(dP_{r1+1}) with E0 coefficient -1, E0 dropped, by
    degree, number of points and points: H1, 2H1-E1_j-E1_k, ...  Every
    multiplicity is 1 for r1 <= MAX_R1, so a name lists the points only."""
    return tuple(NamedVector(name, _embed_factor(s, 1, n1))
                 for name, n1 in _t1_classes(s.r1))


def t_divisors(s: Scenario) -> tuple[NamedVector, ...]:
    """N1 + H2 - E and N1 + H2 - E - F for each N1 in T1, in that order."""
    h2_e = (1,) + (0,) * s.r2 + (-1,)
    out = []
    for name, n1 in _t1_classes(s.r1):
        out.append(NamedVector(f"{name}+H2-E", n1 + h2_e + (0,)))
        out.append(NamedVector(f"{name}+H2-E-F", n1 + h2_e + (-1,)))
    return tuple(out)


def _embed_factor(s: Scenario, factor: int, cls: Sequence[int]) -> tuple:
    """``cls`` on one factor's H/E slots; entries past them are dropped."""
    start, n = (0, s.r1 + 1) if factor == 1 else (s.idx_h2, s.r2 + 1)
    return (0,) * start + tuple(cls[:n]) + (0,) * (s.rho - start - n)


def factor_nef_vectors(s: Scenario, factor: int) -> tuple[NamedVector, ...]:
    """Pullbacks of the nef cone generators of one factor surface."""
    lattice = delpezzo.build(s.r1 if factor == 1 else s.r2)
    return tuple(NamedVector(f"nef{factor}_{k}", _embed_factor(s, factor, ray))
                 for k, ray in enumerate(delpezzo.nef_cone(lattice).rays, 1))


def claimed_nef_vectors(s: Scenario) -> tuple[NamedVector, ...]:
    """Generators of the claimed nef cone: pullbacks of both factors' nef
    generators plus the mixed divisors in T."""
    return factor_nef_vectors(s, 1) + factor_nef_vectors(s, 2) + t_divisors(s)


def nef_generators_claimed(s: Scenario) -> PolyCone:
    return generated(s.rho, [nv.vector for nv in claimed_nef_vectors(s)])


# ---------------------------------------------------------------------------
# theorem verification
# ---------------------------------------------------------------------------

EQ_EQUAL = "equal"
EQ_UNEQUAL = "unequal"


@dataclass(frozen=True)
class TheoremVerdict:
    r1: int
    r2: int
    containment_ok: bool
    containment_witness: Optional[dict]
    equality_status: str
    equality_witness: Optional[dict]

    @property
    def ok(self) -> bool:
        return self.containment_ok and self.equality_status != EQ_UNEQUAL


def _containment_explicit(ne_curves, claimed) -> Optional[dict]:
    """The first negative pairing of a claim with a curve, claims in order
    and each claim's curves in order, as a witness; None when every claim
    is nef on the catalog.  :func:`first_negative` decides all the pairings
    with one packed product per claim, so only the first failing claim's
    pairings are taken one by one, to name its first negative curve."""
    k = first_negative([c.vector for c in ne_curves],
                       [nv.vector for nv in claimed])
    if k is None:
        return None
    nv = claimed[k]
    for c in ne_curves:
        val = dot(nv.vector, c.vector)
        if val < 0:
            return {"divisor": nv.name, "curve": c.name, "pairing": val}
    raise AssertionError(f"{nv.name} pairs nonnegatively with every curve")


def _block_split(s: Scenario) -> tuple[Optional[dict], Optional[dict]]:
    """Check the catalog against the rule that builds it: each curve is the
    fiber (:func:`_fibers`) or the :func:`_lift` that its name names, with
    exactly that vector, and no name comes twice.

    Returns ``(lift_witness, unlifted_witness)``: the first curve that breaks
    the rule, and the first fiber or lifted class, in catalog order, that no
    curve carries.
    """
    todo = {}
    for noun, part in (("fiber", _fibers(s.r1, s.r2).items()),
                       ("NE(dP_{r1+1}) generator", _lift(s.r1, s.r2, 1)),
                       ("NE(S2) generator", _lift(s.r1, s.r2, 2))):
        todo.update((name, (noun, v)) for name, v in part)
    for c in s.curves:
        noun, expected = todo.pop(c.name, (None, None))
        if expected != c.vector:
            reason = ("not a listed class, or lifted twice" if noun is None
                      else "F split violated" if noun == "fiber"
                      else "lift rule violated")
            return {"curve": c.name, "reason": reason}, None
    for name, (noun, _) in todo.items():
        return None, {"curve": name, "reason": f"{noun} not lifted"}
    return None, None


def verify_theorem(s: Scenario) -> TheoremVerdict:
    """Prove that the claimed nef cone equals the dual of the claimed cone of
    curves, or report a witness.

    Write a divisor by blocks as (A1, A2, x_E, x_F), A1 on the H1/E1 slots
    and A2 on the H2/E2 slots, and change coordinates by the unimodular
    A2' = A2 + x_E H2.  When :func:`_block_split` holds, the lift of an
    NE(S2) generator c pairs with the divisor as A2'.c, and every other curve
    pairs with (A1, x_E, x_F) alone.  So Nef(X) = Nef(S2) x P, with P the
    dual of the other (reduced) curves in those r1 + 3 coordinates.

    Lemma: P = {(D, x_F) : D in Nef(dP_{r1+1}), x_E(D) <= x_F <= 0}, with
    D = (A1, x_E) a class of dP_{r1+1} whose E0 coefficient is x_E.  Proof:
    only e and f touch F, and they give x_E <= x_F <= 0.  Every other reduced
    curve, and e + f, is (pairing_row(c), 0) for c in NE(dP_{r1+1}).  Hence
    the rays of P are (D, 0) and (D, x_E(D)) for the rays D of the cached
    Nef(dP_{r1+1}), and no cone of more than r1 + 2 dimensions is dualised.

    The claim splits the same way: the second-factor pullbacks are
    Nef(S2) x 0 and pair with every curve by the surface pairing or by 0.
    The first-factor pullbacks and T have A2' = 0, their nefness is checked
    by :func:`_containment_explicit` (every pairing with every curve, one
    packed product per claim), and their projections generate Q.  P = Q is then
    decided on ray sets alone (:func:`_equality`).  As the pullbacks come
    from Nef(dP_{r1}), that checks that the face x_E = 0 of Nef(dP_{r1+1})
    is Nef(dP_{r1}) pulled back and that no ray has x_E <= -2.

    A curve that breaks the block split is a containment witness (the
    second-factor pullbacks are then not shown nef) and, as the proof does
    not apply, the witness of ``unequal``.  A fiber or factor generator that
    no curve carries, or a claimed divisor outside the first block, is
    reported ``unequal``.  A ray of P not in Q, or a claim outside P, is
    reported in full coordinates: A2' = 0 puts minus its E entry on H2.

    Lattice data are cached per lattice: the lifted rows that
    :func:`_block_split` checks, T1 and the rays of P are built once per
    process from the guarded ``delpezzo`` orbits, and a cell only pads them
    into its basis.
    """
    first = factor_nef_vectors(s, 1) + t_divisors(s)
    lift_witness, unlifted = _block_split(s)
    containment = _containment_explicit(s.curves, first)
    witness = containment or lift_witness
    if lift_witness or unlifted:
        equality = EQ_UNEQUAL, lift_witness or unlifted
    else:
        equality = _equality(s, first, containment)
    return TheoremVerdict(s.r1, s.r2, witness is None, witness, *equality)


def _equality(s: Scenario, first: Sequence[NamedVector],
              containment: Optional[dict]):
    """Compare the lemma's P (see :func:`verify_theorem`) with the cone Q of
    the projected claims; ``containment`` is the nefness witness of ``first``.

    A claim outside the first block comes first, then a claim that is not
    nef, hence outside P.  Otherwise Q lies in P, whose extremal rays are
    exactly (D, 0) and (D, x_E(D)) for the rays D of Nef(dP_{r1+1}).  An
    extremal ray of a pointed cone is a positive combination of points of
    that cone only through multiples of itself, so Q = P exactly when every
    such ray is a primitive projected claim; the first missing one, in
    sorted order, is the witness.  No LP runs.
    """
    h2, e = s.idx_h2, s.idx_e
    projected = set()
    for nv in first:
        v = nv.vector
        if v[h2] + v[e] or any(v[h2 + 1:e]):
            return EQ_UNEQUAL, {"divisor": nv.name,
                                "reason": "outside the first block"}
        projected.add(primitive(v[:h2] + v[e:]))
    if containment:
        bad = next(nv for nv in first if nv.name == containment["divisor"])
        return EQ_UNEQUAL, {"ray": primitive(bad.vector),
                            "only_in": "claimed nef cone"}
    missing = sorted(_p_rays(s.r1) - projected)
    if not missing:
        return EQ_EQUAL, None
    z = missing[0]
    ray = z[:h2] + (-z[h2],) + (0,) * s.r2 + z[h2:]
    return EQ_UNEQUAL, {"ray": ray, "only_in": "dual of the curve cone"}


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassificationResult:
    r1: int
    r2: int
    fano: bool
    weak_fano: bool
    fano_type: bool
    witnesses: dict

    def __post_init__(self):
        if self.fano and not self.weak_fano:
            raise AssertionError("fano requires weak fano")


def classify(s: Scenario) -> ClassificationResult:
    minus_k = anticanonical(s)
    k_pairings = {c.name: _idot(minus_k, c.vector) for c in s.curves}

    witnesses: dict = {"anticanonical_pairings": k_pairings}
    fano = all(v > 0 for v in k_pairings.values())
    if not fano:
        name = next(n for n, v in k_pairings.items() if v <= 0)
        witnesses["not_fano"] = {"curve": name, "pairing": k_pairings[name]}

    nef_ok = all(v >= 0 for v in k_pairings.values())
    if not nef_ok:
        name = next(n for n, v in k_pairings.items() if v < 0)
        witnesses["not_weak_fano"] = {"curve": name,
                                      "pairing": k_pairings[name]}

    cert = delta_certificate(s)
    witnesses["delta_certificate"] = cert["pairings"]
    weak_fano = nef_ok and cert["ok"]
    if nef_ok and not cert["ok"]:
        witnesses["not_weak_fano"] = {"curve": cert["witness"],
                                      "pairing": cert["pairings"][cert["witness"]]}

    # Fano type rests on its own evidence: weak Fano implies it, and only a
    # refutation certificate re-checked here may deny it.
    if weak_fano:
        fano_type = True
    elif s.r2 >= 2:
        refutation = not_fano_type_refutation(s)
        if not check_infeasibility_certificate(refutation.lp,
                                               refutation.certificate):
            raise AssertionError("not-Fano-type certificate does not check")
        fano_type = False
        witnesses["not_fano_type"] = {
            "constraints": [c.label for c in refutation.lp.constraints],
            "certificate": refutation.certificate,
        }
    else:
        raise AssertionError("neither weak Fano nor refuted as Fano type")
    return ClassificationResult(r1=s.r1, r2=s.r2, fano=fano,
                                weak_fano=weak_fano, fano_type=fano_type,
                                witnesses=witnesses)


def delta_certificate(s: Scenario) -> dict:
    """Pairings of -(K + boundary) with every generating curve; all must be
    strictly positive for the ampleness certificate to pass.  The boundary
    has denominator 3, so each pairing is taken in integers with
    3 (-K - boundary) and reported divided by 3, one shared
    :class:`~fractions.Fraction` per distinct value."""
    thrice = tuple(3 * a - 3 * d.numerator // d.denominator
                   for a, d in zip(anticanonical(s), delta_divisor(s)))
    values = {c.name: _idot(thrice, c.vector) for c in s.curves}
    thirds = {n: Fraction(n, 3) for n in set(values.values())}
    pairings = {name: thirds[n] for name, n in values.items()}
    witness = next((name for name, n in values.items() if n <= 0), None)
    return {"ok": witness is None, "witness": witness, "pairings": pairings}


@dataclass(frozen=True)
class RefutationResult:
    lp: LinearProgram
    certificate: tuple[int, ...]


def refutation_system() -> LinearProgram:
    """The four-constraint system over (alpha2, beta_1, beta_2, gamma) whose
    infeasibility certifies that no boundary can make the pair log Fano once
    the second factor is blown up at two or more points."""
    return LinearProgram(4, (
        constraint((1, 1, 0, 0), ">=", 0, label="alpha2+beta_1 >= 0"),
        constraint((1, 0, 1, 0), ">=", 0, label="alpha2+beta_2 >= 0"),
        constraint((0, 1, 0, 1), ">", -1, label="1+beta_1+gamma > 0"),
        constraint((-1, -1, -1, -1), ">", 1,
                   label="1+alpha2+beta_1+beta_2+gamma < 0"),
    ))


# The refutation depends on no scenario, and both of its fields are
# immutable, so every caller shares this one.
REFUTATION = RefutationResult(lp=refutation_system(), certificate=(0, 1, 1, 1))


def not_fano_type_refutation(s: Scenario) -> RefutationResult:
    """The refutation system with its Farkas multipliers: rows 2, 3 and 4
    sum to 0 > 0.  :func:`classify` re-checks them before use."""
    if s.r2 < 2:
        raise ValueError("the refutation applies only when the second factor "
                         "is blown up at two or more points")
    return REFUTATION


def classify_all() -> dict[tuple[int, int], ClassificationResult]:
    return {(r1, r2): classify(build_scenario(r1, r2))
            for r1 in range(MAX_R1 + 1) for r2 in range(MAX_R2 + 1)}


# ---------------------------------------------------------------------------
# product certificates for the mixed nef divisors
# ---------------------------------------------------------------------------

def _surface_stratum(name: str, lattice: delpezzo.DelPezzoLattice) -> Stratum:
    oracle = tuple(delpezzo.pairing_row(c)
                   for c in delpezzo.ne_generators(lattice))
    return Stratum(id=name, rank=lattice.rank, oracle_curves=oracle)


def _curve_for_t1(n1bar: Sequence[int]) -> tuple[int, ...]:
    """The auxiliary curve class C on the first factor used to certify the
    divisor N1, given by its factor class ``n1bar``: N1 itself when N1 . N1
    = 1 (H1, and the conic 2H1 - E1 - E2 - E3), otherwise the line H1 - E1_j
    through N1's first point j.  Either way N1 - C is nef and N1 . C = 1 on
    every T1 divisor of r1 <= 3."""
    if delpezzo.pair(delpezzo.build(len(n1bar) - 1), n1bar, n1bar) == 1:
        return tuple(n1bar)
    j = next(k for k in range(1, len(n1bar)) if n1bar[k] < 0)
    return tuple(1 if k == 0 else -int(k == j) for k in range(len(n1bar)))


def factor_chains_for_t1(s: Scenario, n1: NamedVector
                         ) -> tuple[ChainCertificate, ChainCertificate]:
    """Factor chains for certifying N1 + H2 - E (-F): X1 > C > point on the
    first factor and X2 > A2 (the line class) > point on the second."""
    n1bar = n1.vector[:s.r1 + 1]
    h2bar = (1,) + (0,) * s.r2
    return tuple(
        ChainCertificate(root_rank=lattice.rank, divisor=divisor, steps=(
            ChainStep(child=_surface_stratum(root, lattice),
                      restriction=identity_matrix(lattice.rank), next_class=cls),
            ChainStep(child=Stratum(id=curve, rank=1, oracle_curves=((1,),)),
                      restriction=(delpezzo.pairing_row(cls),), next_class=(1,)),
            ChainStep(child=Stratum(id="pt", rank=0, oracle_curves=()),
                      restriction=())))
        for root, lattice, curve, cls, divisor in (
            ("X1", delpezzo.build(s.r1), "C", _curve_for_t1(n1bar), n1bar),
            ("X2", delpezzo.build(s.r2), "A2", h2bar, h2bar)))


def t_divisor_certificates(s: Scenario) -> dict[str, ProductCertificates]:
    """Product certificates for every divisor in T, keyed by divisor name."""
    out = {}
    for n1 in t1_divisors(s):
        built = build_product_certificates(*factor_chains_for_t1(s, n1))
        out[f"{n1.name}+H2-E"] = built
        out[f"{n1.name}+H2-E-F"] = built
    return out
