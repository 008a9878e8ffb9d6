"""The del Pezzo product scenario.

X is the two-step blowup of a product of two del Pezzo surfaces (the first
factor blown up at r1 <= 3 points, the second at r2 <= 8): the first center
is {point} x (line class), the second the strict transform of (first factor)
x {point}.  The divisor basis is (H1, E_{1,*}, H2, E_{2,*}, E, F), so the
Picard rank is 4 + r1 + r2.

Curves are stored as intersection vectors against that basis, so pairing a
divisor coefficient vector with a curve is a plain dot product, the cone of
curves and the nef cone are exact duals, and every claim (cone equality,
Fano/weak Fano/Fano-type classification, the supporting linear-program
refutation) can be verified with the exact cone engine.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import delpezzo
from .certificates import (
    ChainStep,
    GridCell,
    GridCertificate,
    ProductCertificates,
    Stratum,
    build_product_certificates,
    identity_matrix,
)
from .cones import (
    LinearProgram,
    PolyCone,
    check_infeasibility_certificate,
    cones_equal,
    constraint,
    dual,
    generated,
    lp_feasible,
)

MAX_R1 = 3
MAX_R2 = 8


@dataclass(frozen=True)
class Curve:
    """A catalog curve: its name, intersection vector, whether it belongs to
    the claimed generating set of the cone of curves, and (for curves lifted
    from a factor surface) the factor index and surface class."""

    name: str
    vector: tuple[int, ...]
    in_ne_set: bool
    factor: int = 0
    factor_class: Optional[tuple[int, ...]] = None


@dataclass(frozen=True)
class NamedVector:
    name: str
    vector: tuple


@dataclass(frozen=True)
class Scenario:
    r1: int
    r2: int
    basis_names: tuple[str, ...]
    curves: tuple[Curve, ...]

    @property
    def rho(self) -> int:
        return 4 + self.r1 + self.r2

    @property
    def lattice1(self) -> delpezzo.DelPezzoLattice:
        return delpezzo.build(self.r1)

    @property
    def lattice2(self) -> delpezzo.DelPezzoLattice:
        return delpezzo.build(self.r2)

    def curve(self, name: str) -> Curve:
        for c in self.curves:
            if c.name == name:
                return c
        raise KeyError(name)

    def ne_curves(self) -> tuple[Curve, ...]:
        return tuple(c for c in self.curves if c.in_ne_set)

    # slot indices into the divisor basis
    @property
    def idx_h1(self) -> int:
        return 0

    def idx_e1(self, j: int) -> int:
        return j  # 1-based j

    @property
    def idx_h2(self) -> int:
        return 1 + self.r1

    def idx_e2(self, j: int) -> int:
        return 1 + self.r1 + j

    @property
    def idx_e(self) -> int:
        return 2 + self.r1 + self.r2

    @property
    def idx_f(self) -> int:
        return 3 + self.r1 + self.r2


def build_scenario(r1: int, r2: int) -> Scenario:
    if not (0 <= r1 <= MAX_R1):
        raise ValueError(f"first factor needs 0 <= r1 <= {MAX_R1}, got {r1}")
    if not (0 <= r2 <= MAX_R2):
        raise ValueError(f"second factor needs 0 <= r2 <= {MAX_R2}, got {r2}")
    rho = 4 + r1 + r2
    names = (["H1"] + [f"E1_{j}" for j in range(1, r1 + 1)]
             + ["H2"] + [f"E2_{j}" for j in range(1, r2 + 1)]
             + ["E", "F"])
    idx = {n: k for k, n in enumerate(names)}

    def vec(entries: dict[str, int]) -> tuple[int, ...]:
        v = [0] * rho
        for n, x in entries.items():
            v[idx[n]] = x
        return tuple(v)

    curves: list[Curve] = [
        Curve("e", vec({"E": -1, "F": 1}), True),
        Curve("f", vec({"F": -1}), True),
    ]

    # factor 1 curves
    curves.append(Curve("l1", vec({"H1": 1, "E": 1}), r1 == 0, factor=1,
                        factor_class=(1,) + (0,) * r1))
    for j in range(1, r1 + 1):
        cls = tuple(1 if k == 0 else (-1 if k == j else 0)
                    for k in range(r1 + 1))
        curves.append(Curve(f"l1_{j}",
                            vec({"H1": 1, f"E1_{j}": 1, "E": 1}), True,
                            factor=1, factor_class=cls))
        ecls = tuple(1 if k == j else 0 for k in range(r1 + 1))
        curves.append(Curve(f"e1_{j}", vec({f"E1_{j}": -1}), True,
                            factor=1, factor_class=ecls))
    for j1 in range(1, r1 + 1):
        for j2 in range(j1 + 1, r1 + 1):
            cls = tuple(1 if k == 0 else (-1 if k in (j1, j2) else 0)
                        for k in range(r1 + 1))
            curves.append(Curve(
                f"e1_{j1}{j2}",
                vec({"H1": 1, f"E1_{j1}": 1, f"E1_{j2}": 1}), True,
                factor=1, factor_class=cls))

    # factor 2 curves
    curves.append(Curve("l2", vec({"H2": 1, "E": 1}), r2 == 0, factor=2,
                        factor_class=(1,) + (0,) * r2))
    for j in range(1, r2 + 1):
        cls = tuple(1 if k == 0 else (-1 if k == j else 0)
                    for k in range(r2 + 1))
        curves.append(Curve(f"l2_{j}",
                            vec({"H2": 1, f"E2_{j}": 1, "E": 1}),
                            r2 == 1, factor=2, factor_class=cls))
    if r2 >= 1:
        lattice2 = delpezzo.build(r2)
        for k, cls in enumerate(delpezzo.minus_one_classes(lattice2), 1):
            row = delpezzo.pairing_row(cls)
            entries = {"H2": cls[0], "E": cls[0]}
            for j in range(1, r2 + 1):
                entries[f"E2_{j}"] = row[j]
            curves.append(Curve(f"e2_{k}", vec(entries), r2 >= 1,
                                factor=2, factor_class=cls))

    return Scenario(r1=r1, r2=r2, basis_names=tuple(names),
                    curves=tuple(curves))


def pairing(divisor: Sequence, curve_vector: Sequence):
    return sum(a * b for a, b in zip(divisor, curve_vector))


def anticanonical(s: Scenario) -> tuple[int, ...]:
    return ((3,) + (-1,) * s.r1 + (3,) + (-1,) * s.r2 + (-2, -1))


def delta_divisor(s: Scenario) -> tuple[Fraction, ...]:
    """The boundary (1/3)((H1 - E) + (H2 - E - F)) whose ampleness
    certificate (see :func:`delta_certificate`) witnesses bigness of -K."""
    third = Fraction(1, 3)
    return ((third,) + (Fraction(0),) * s.r1 + (third,)
            + (Fraction(0),) * s.r2 + (Fraction(-2, 3), Fraction(-1, 3)))


def ne_generators(s: Scenario) -> PolyCone:
    return generated(s.rho, [c.vector for c in s.ne_curves()])


def t1_divisors(s: Scenario) -> tuple[NamedVector, ...]:
    rho = s.rho
    out = [NamedVector("H1", tuple(1 if k == 0 else 0 for k in range(rho)))]
    if s.r1 >= 2:
        for j1 in range(1, s.r1 + 1):
            for j2 in range(j1 + 1, s.r1 + 1):
                v = [0] * rho
                v[s.idx_h1] = 2
                v[s.idx_e1(j1)] = -1
                v[s.idx_e1(j2)] = -1
                out.append(NamedVector(f"2H1-E1_{j1}-E1_{j2}", tuple(v)))
    if s.r1 == 3:
        v = [0] * rho
        v[s.idx_h1] = 2
        for j in range(1, 4):
            v[s.idx_e1(j)] = -1
        out.append(NamedVector("2H1-E1_1-E1_2-E1_3", tuple(v)))
    return tuple(out)


def t_divisors(s: Scenario) -> tuple[NamedVector, ...]:
    out = []
    for n1 in t1_divisors(s):
        v = list(n1.vector)
        v[s.idx_h2] += 1
        v[s.idx_e] -= 1
        out.append(NamedVector(f"{n1.name}+H2-E", tuple(v)))
        v = list(v)
        v[s.idx_f] -= 1
        out.append(NamedVector(f"{n1.name}+H2-E-F", tuple(v)))
    return tuple(out)


def _embed_factor(s: Scenario, factor: int, cls: Sequence[int]) -> tuple:
    v = [0] * s.rho
    if factor == 1:
        v[s.idx_h1] = cls[0]
        for j in range(1, s.r1 + 1):
            v[s.idx_e1(j)] = cls[j]
    else:
        v[s.idx_h2] = cls[0]
        for j in range(1, s.r2 + 1):
            v[s.idx_e2(j)] = cls[j]
    return tuple(v)


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
    for nv in claimed:
        for c in ne_curves:
            val = pairing(nv.vector, c.vector)
            if val < 0:
                return {"divisor": nv.name, "curve": c.name, "pairing": val}
    return None


def _block_split(s: Scenario) -> tuple[Optional[dict], Optional[dict], list]:
    """Split the curve generators along the second factor.

    Returns ``(lift_witness, unlifted_witness, reduced)``.  Every
    second-factor curve must be the lift of a distinct NE(S2) generator c:
    the surface pairing row of c on the H2/E2 slots, the degree of c on E and
    zero elsewhere.  Every other curve must be zero on the H2/E2 slots; it is
    kept in ``reduced`` with those slots dropped.  ``lift_witness`` names the
    first curve that breaks this, ``unlifted_witness`` an NE(S2) generator
    that no curve lifts.
    """
    unlifted = set(delpezzo.ne_generators(s.lattice2))
    reduced = []
    for c in s.ne_curves():
        if c.factor != 2:
            if any(c.vector[s.idx_h2:s.idx_e]):
                return ({"curve": c.name,
                         "reason": "nonzero second-factor component"}, None, [])
            reduced.append(c.vector[:s.idx_h2] + c.vector[s.idx_e:])
            continue
        if c.factor_class not in unlifted:
            return ({"curve": c.name,
                     "reason": "not an NE(S2) generator, or lifted twice"}, None, [])
        unlifted.remove(c.factor_class)
        lift = list(_embed_factor(s, 2, delpezzo.pairing_row(c.factor_class)))
        lift[s.idx_e] = c.factor_class[0]
        if tuple(lift) != c.vector:
            return {"curve": c.name, "reason": "lift rule violated"}, None, []
    if unlifted:
        return None, {"factor_class": min(unlifted),
                      "reason": "NE(S2) generator not lifted"}, reduced
    return None, None, reduced


def verify_theorem(s: Scenario) -> TheoremVerdict:
    """Prove that the claimed nef cone equals the dual of the claimed cone of
    curves, or report a witness.

    Write a divisor by blocks as (A1, A2, x_E, x_F), A1 on the H1/E1 slots
    and A2 on the H2/E2 slots, and change coordinates by A2' = A2 + x_E H2,
    which is unimodular.  When :func:`_block_split` holds, the lift of an
    NE(S2) generator c pairs with the divisor as the surface pairing A2'.c
    (its E entry is the degree of c), and every other curve pairs with
    (A1, x_E, x_F) alone.  Hence Nef(X) = Nef(S2) x P, where P is the dual of
    the reduced curves in the r1 + 3 coordinates (A1, x_E, x_F).

    The claim splits the same way.  The second-factor pullbacks are
    Nef(S2) x 0 by construction, and they pair with every curve by the
    surface pairing or by 0, so they are nef.  The first-factor pullbacks and
    T have A2' = 0; their nefness is checked by explicit pairings, and their
    projections generate a cone Q.  So Nef(X) equals the claimed cone exactly
    when P = Q, and ``cones_equal`` decides that with a witness ray on
    (r1 + 3)-dimensional cones.  The second factor is never dualised.

    A curve that breaks the block split is a containment witness, since the
    second-factor pullbacks are then not shown nef; as the proof does not
    apply, it is also the witness of ``unequal``.  An NE(S2) generator with
    no lift leaves the second block of dual(NE) larger than Nef(S2), and a
    claimed divisor outside the first block does not project; both are
    reported ``unequal``.  A ray of P not in Q, or of Q not in P, is reported
    in full coordinates: A2' = 0 puts minus its E entry on H2.
    """
    first = factor_nef_vectors(s, 1) + t_divisors(s)
    lift_witness, unlifted, reduced = _block_split(s)
    witness = _containment_explicit(s.ne_curves(), first) or lift_witness
    if lift_witness or unlifted:
        equality = EQ_UNEQUAL, lift_witness or unlifted
    else:
        equality = _equality(s, first, reduced)
    return TheoremVerdict(s.r1, s.r2, witness is None, witness, *equality)


def _equality(s: Scenario, first: Sequence[NamedVector], reduced):
    """Compare P = dual(reduced curves) with the cone of the projected
    first-block claims.  Both list primitive rays, so when the claim is
    exactly the extremal rays of P the comparison needs no LP."""
    projected = []
    for nv in first:
        v = nv.vector
        if v[s.idx_h2] + v[s.idx_e] or any(v[s.idx_h2 + 1:s.idx_e]):
            return EQ_UNEQUAL, {"divisor": nv.name,
                                "reason": "outside the first block"}
        projected.append(v[:s.idx_h2] + v[s.idx_e:])
    dim = s.r1 + 3
    verdict = cones_equal(dual(generated(dim, reduced)),
                          generated(dim, projected))
    if verdict.equal:
        return EQ_EQUAL, None
    z = verdict.witness_ray
    ray = z[:s.idx_h2] + (-z[s.idx_h2],) + (0,) * s.r2 + z[s.idx_h2:]
    side = ("dual of the curve cone" if verdict.witness_side == "first-not-in-second"
            else "claimed nef cone")
    return EQ_UNEQUAL, {"ray": ray, "only_in": side}


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
        if self.weak_fano != self.fano_type:
            raise AssertionError("weak fano and fano type must agree here")


def classify(s: Scenario) -> ClassificationResult:
    minus_k = anticanonical(s)
    ne_curves = s.ne_curves()
    k_pairings = {c.name: pairing(minus_k, c.vector) for c in ne_curves}

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

    fano_type = weak_fano
    if s.r2 >= 2:
        refutation = not_fano_type_refutation(s)
        witnesses["not_fano_type"] = {
            "constraints": [c.label for c in refutation.lp.constraints],
            "certificate": refutation.certificate,
        }
    return ClassificationResult(r1=s.r1, r2=s.r2, fano=fano,
                                weak_fano=weak_fano, fano_type=fano_type,
                                witnesses=witnesses)


def delta_certificate(s: Scenario) -> dict:
    """Pairings of -(K + boundary) with every generating curve; all must be
    strictly positive for the ampleness certificate to pass."""
    minus_k_delta = tuple(-Fraction(k) - d
                          for k, d in zip(canonical_vector(s), delta_divisor(s)))
    pairings = {c.name: pairing(minus_k_delta, c.vector)
                for c in s.ne_curves()}
    witness = next((n for n, v in pairings.items() if v <= 0), None)
    return {"ok": witness is None, "witness": witness, "pairings": pairings}


def canonical_vector(s: Scenario) -> tuple[int, ...]:
    return tuple(-x for x in anticanonical(s))


@dataclass(frozen=True)
class RefutationResult:
    lp: LinearProgram
    certificate: tuple[Fraction, ...]


def refutation_system(relaxed: bool = False) -> LinearProgram:
    """The four-constraint system over (alpha2, beta_1, beta_2, gamma) whose
    infeasibility certifies that no boundary can make the pair log Fano once
    the second factor is blown up at two or more points."""
    strict = ">=" if relaxed else ">"
    return LinearProgram(4, (
        constraint((1, 1, 0, 0), ">=", 0, label="alpha2+beta_1 >= 0"),
        constraint((1, 0, 1, 0), ">=", 0, label="alpha2+beta_2 >= 0"),
        constraint((0, 1, 0, 1), strict, -1, label="1+beta_1+gamma > 0"),
        constraint((-1, -1, -1, -1), strict, 1,
                   label="1+alpha2+beta_1+beta_2+gamma < 0"),
    ))


def not_fano_type_refutation(s: Scenario) -> RefutationResult:
    if s.r2 < 2:
        raise ValueError("the refutation applies only when the second factor "
                         "is blown up at two or more points")
    return _refutation()


@functools.cache
def _refutation() -> RefutationResult:
    """The refutation system does not depend on the scenario: solve it once."""
    lp = refutation_system()
    result = lp_feasible(lp)
    if result.feasible:
        raise AssertionError("refutation system unexpectedly feasible")
    if not check_infeasibility_certificate(lp, result.certificate):
        raise AssertionError("refutation certificate does not check")
    return RefutationResult(lp=lp, certificate=tuple(result.certificate))


def classify_all() -> dict[tuple[int, int], ClassificationResult]:
    return {(r1, r2): classify(build_scenario(r1, r2))
            for r1 in range(MAX_R1 + 1) for r2 in range(MAX_R2 + 1)}


# ---------------------------------------------------------------------------
# curve identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityCheck:
    description: str
    ok: bool


@dataclass(frozen=True)
class IdentityReport:
    ok: bool
    checks: tuple[IdentityCheck, ...]


def _lift_by_class(s: Scenario, cls: tuple[int, ...]) -> Curve:
    for c in s.curves:
        if c.factor == 2 and c.factor_class == cls and c.name.startswith("e2"):
            return c
    raise KeyError(cls)


def curve_identities(s: Scenario) -> IdentityReport:
    """Decomposition identities among catalog curves, verified as exact
    equalities of intersection vectors."""
    checks = []

    def add(desc, lhs, rhs):
        checks.append(IdentityCheck(desc, lhs == rhs))

    for j in range(1, s.r1 + 1):
        lhs = s.curve("l1").vector
        rhs = tuple(a + b for a, b in zip(s.curve(f"l1_{j}").vector,
                                          s.curve(f"e1_{j}").vector))
        add(f"l1 = l1_{j} + e1_{j}", lhs, rhs)
    for j in range(1, s.r2 + 1):
        ecls = tuple(1 if k == j else 0 for k in range(s.r2 + 1))
        lhs = s.curve("l2").vector
        rhs = tuple(a + b for a, b in zip(s.curve(f"l2_{j}").vector,
                                          _lift_by_class(s, ecls).vector))
        add(f"l2 = l2_{j} + e2({ecls})", lhs, rhs)
    if s.r2 >= 2:
        for j in range(1, s.r2 + 1):
            jp = 1 if j != 1 else 2
            ecls = tuple(1 if k == jp else 0 for k in range(s.r2 + 1))
            ccls = tuple(1 if k == 0 else (-1 if k in (j, jp) else 0)
                         for k in range(s.r2 + 1))
            lhs = s.curve(f"l2_{j}").vector
            rhs = tuple(a + b for a, b in zip(_lift_by_class(s, ecls).vector,
                                              _lift_by_class(s, ccls).vector))
            add(f"l2_{j} = e2({ecls}) + e2({ccls})", lhs, rhs)
    return IdentityReport(ok=all(c.ok for c in checks), checks=tuple(checks))


# ---------------------------------------------------------------------------
# product certificates for the mixed nef divisors
# ---------------------------------------------------------------------------

def _surface_stratum(name: str, lattice: delpezzo.DelPezzoLattice) -> Stratum:
    oracle = tuple(delpezzo.pairing_row(c)
                   for c in delpezzo.ne_generators(lattice))
    return Stratum(id=name, rank=lattice.rank, oracle_curves=oracle)


def _curve_for_t1(s: Scenario, n1: NamedVector) -> tuple[int, ...]:
    """The auxiliary curve class on the first factor used to certify the
    divisor N1: a line through the blown-up point pattern so that N1 - C is
    nef and N1 . C = 1."""
    r1 = s.r1
    bar = [n1.vector[s.idx_h1]] + [n1.vector[s.idx_e1(j)]
                                   for j in range(1, r1 + 1)]
    if bar[0] == 1:  # N1 = H1
        return (1,) + (0,) * r1
    negatives = [j for j in range(1, r1 + 1) if bar[j] < 0]
    if len(negatives) == 3:  # N1 = 2H1 - E1 - E2 - E3: C in |N1| itself
        return tuple(bar)
    # N1 = 2H1 - E_{j1} - E_{j2}: C a line through the first point
    j1 = negatives[0]
    return tuple(1 if k == 0 else (-1 if k == j1 else 0)
                 for k in range(r1 + 1))


def factor_grids_for_t1(s: Scenario, n1: NamedVector) -> tuple[GridCertificate, GridCertificate]:
    """Factor data for certifying N1 + H2 - E (-F): the first factor carries
    the chain X1 > C > point, the second X2 > A2 (the line class) > point."""
    lat1, lat2 = s.lattice1, s.lattice2
    x1 = _surface_stratum("X1", lat1)
    ccls = _curve_for_t1(s, n1)
    cstrat = Stratum(id="C", rank=1, oracle_curves=((1,),))
    cells1 = {
        (0, 0): GridCell(stratum=x1, right_class=tuple(ccls),
                         right_map=(delpezzo.pairing_row(ccls),)),
        (1, 0): GridCell(stratum=cstrat, right_class=(1,), right_map=()),
        (2, 0): GridCell(stratum=Stratum(id="pt", rank=0, oracle_curves=())),
    }
    n1bar = [n1.vector[s.idx_h1]] + [n1.vector[s.idx_e1(j)]
                                     for j in range(1, s.r1 + 1)]
    f1 = GridCertificate(a=2, b=0, c=0, root_rank=lat1.rank,
                         outer=(ChainStep(child=x1,
                                          restriction=identity_matrix(lat1.rank)),),
                         cells=cells1, divisor=tuple(n1bar))

    x2 = _surface_stratum("X2", lat2)
    a2cls = (1,) + (0,) * s.r2
    a2 = Stratum(id="A2", rank=1, oracle_curves=((1,),))
    outer2 = (ChainStep(child=x2, restriction=identity_matrix(lat2.rank),
                        next_class=a2cls),
              ChainStep(child=a2, restriction=(delpezzo.pairing_row(a2cls),)))
    cells2 = {
        (1, 1): GridCell(stratum=a2, down_class=(1,), down_map=()),
        (1, 2): GridCell(stratum=Stratum(id="pt", rank=0, oracle_curves=())),
    }
    h2bar = (1,) + (0,) * s.r2
    f2 = GridCertificate(a=1, b=2, c=1, root_rank=lat2.rank, outer=outer2,
                         cells=cells2, divisor=h2bar)
    return f1, f2


def t_divisor_certificates(s: Scenario) -> dict[str, ProductCertificates]:
    """Product certificates for every divisor in T, keyed by divisor name."""
    out = {}
    for n1 in t1_divisors(s):
        built = build_product_certificates(*factor_grids_for_t1(s, n1))
        out[f"{n1.name}+H2-E"] = built
        out[f"{n1.name}+H2-E-F"] = built
    return out
