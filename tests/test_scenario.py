"""Tests for the del Pezzo product scenario: curve catalogs, cone duality,
classification, the log-Fano refutation, and the mixed-divisor certificates."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from moricone import delpezzo
from moricone import scenario as sc
from moricone.certificates import verify_HE_hypotheses, verify_HEF_hypotheses
from moricone.cones import (DimensionMismatchError,
                            check_infeasibility_certificate,
                            cone_from_rays, cones_equal, contains, dot,
                            dual, lp_feasible)
from moricone.exact import primitive

from .oracles import (containment_by_pairs, dual_by_facet_enumeration,
                      reference_catalog,
                      reference_t1, relaxed_refutation_system,
                      t_certificates_agree_with_membership)
from .test_delpezzo import SCENARIO_TABLES

# ---------------------------------------------------------------------------
# catalog structure
# ---------------------------------------------------------------------------

_CELLS = [(r1, r2) for r1 in range(sc.MAX_R1 + 1)
          for r2 in range(sc.MAX_R2 + 1)]


def _curve(s, name):
    """The catalog curve called ``name``."""
    return next(c for c in s.curves if c.name == name)


def _names(s, factor):
    """The names of the curves over one factor, in generator order."""
    return [name for name, _ in sc._lift(s.r1, s.r2, factor)]


def _second_factor_class(s, c):
    """The class of dP_{r2} that a curve's H2/E2 block is the pairing row
    of; ``pairing_row`` is its own inverse."""
    return delpezzo.pairing_row(c.vector[s.idx_h2:s.idx_e])


def test_basis_layout():
    s = sc.build_scenario(2, 3)
    assert s.rho == 9
    assert s.idx_h2 == 3
    # H1 is slot 0: a factor-1 class starts the vector
    assert sc._embed_factor(s, 1, (1, 0, 0)) == (1,) + (0,) * 8
    assert sc._embed_factor(s, 2, (1, 0, 0, 0)) == (0,) * 3 + (1,) + (0,) * 5
    assert s.idx_e == 7 == s.rho - 2   # F is the last slot


def test_range_validation():
    with pytest.raises(ValueError):
        sc.build_scenario(4, 0)
    with pytest.raises(ValueError):
        sc.build_scenario(0, 9)
    with pytest.raises(ValueError):
        sc.build_scenario(-1, 0)


def test_catalog_0_0():
    s = sc.build_scenario(0, 0)
    assert [c.name for c in s.ne_curves()] == ["e", "f", "l1", "l2"]
    assert _curve(s, "e").vector == (0, 0, -1, 1)
    assert _curve(s, "f").vector == (0, 0, 0, -1)
    assert _curve(s, "l1").vector == (1, 0, 1, 0)
    assert _curve(s, "l2").vector == (0, 1, 1, 0)


def test_catalog_0_1():
    s = sc.build_scenario(0, 1)
    names = [c.name for c in s.ne_curves()]
    assert names == ["e", "f", "l1", "e2_1", "l2_1"]
    # basis (H1, H2, E2_1, E, F)
    assert _curve(s, "l2_1").vector == (0, 1, 1, 1, 0)
    assert _curve(s, "e2_1").vector == (0, 0, -1, 0, 0)


def test_catalog_matches_reference_on_all_cells():
    for r1 in range(sc.MAX_R1 + 1):
        for r2 in range(sc.MAX_R2 + 1):
            built = [(c.name, c.vector)
                     for c in sc.build_scenario(r1, r2).ne_curves()]
            assert sorted(built) == sorted(reference_catalog(r1, r2)), (r1, r2)


def test_ne_set_sizes():
    # |S1|: r1=0 -> 1, r1=1 -> 2, r1=2 -> 5, r1=3 -> 9
    # |S2|: r2=0 -> 1, r2=1 -> 2, r2>=2 -> number of (-1)-classes
    s1_sizes = {0: 1, 1: 2, 2: 5, 3: 9}
    s2_sizes = {0: 1, 1: 2, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}
    for r1, n1 in s1_sizes.items():
        for r2 in (0, 1, 3):
            s = sc.build_scenario(r1, r2)
            assert len(s.ne_curves()) == 2 + n1 + s2_sizes[r2], (r1, r2)
    for r2, n2 in s2_sizes.items():
        s = sc.build_scenario(0, r2)
        assert len(s.ne_curves()) == 2 + 1 + n2, r2


def test_lifted_curve_intersections():
    # lift of (-1)-class (1,-1,-1): H2-deg 1, exceptional pairings 1, E-coeff 1
    s = sc.build_scenario(0, 2)
    lifted = [c for c in s.curves if c.name in _names(s, 2)
              and _second_factor_class(s, c) == (1, -1, -1)]
    assert len(lifted) == 1
    assert lifted[0].vector == (0, 1, 1, 1, 1, 0)


def test_factor_classes_are_minus_one_classes():
    s = sc.build_scenario(0, 5)
    lat = delpezzo.build(5)
    classes = set(delpezzo.minus_one_classes(lat))
    lifts = [c for c in s.ne_curves() if c.name.startswith("e2_")]
    assert len(lifts) == len(classes)
    assert {_second_factor_class(s, c) for c in lifts} == classes


# ---------------------------------------------------------------------------
# cones: the frozen rank-4 case and small equalities
# ---------------------------------------------------------------------------

def test_dual_of_curves_0_0_frozen():
    s = sc.build_scenario(0, 0)
    nef = dual(sc.ne_generators(s))
    assert nef.rays == ((0, 1, 0, 0), (1, 0, 0, 0),
                        (1, 1, -1, -1), (1, 1, -1, 0))


def test_claimed_matches_dual_0_0():
    s = sc.build_scenario(0, 0)
    assert cones_equal(dual(sc.ne_generators(s)),
                       sc.nef_generators_claimed(s)).equal


@pytest.mark.parametrize("r1", range(sc.MAX_R1 + 1))
def test_t1_divisors_match_reference(r1):
    # Names, vectors and order: reports and certificate keys print them, and
    # at r1 = 3 plain sorted order would put the triple conic first.
    for r2 in (0, 3):
        s = sc.build_scenario(r1, r2)
        zeros = (0,) * (s.rho - r1 - 1)
        assert ([(nv.name, nv.vector) for nv in sc.t1_divisors(s)]
                == [(name, cls + zeros) for name, cls in reference_t1(r1)])


def test_t_divisors_match_reference_on_all_cells():
    # The T path reads cached T1 classes and pads them: on every cell, each
    # hand-written N1 extended by H2 - E, then by H2 - E - F, in that order.
    for r1, r2 in _CELLS:
        h2_e = (1,) + (0,) * r2 + (-1,)
        expected = [(f"{name}+H2-E{suffix}", cls + h2_e + (x_f,))
                    for name, cls in reference_t1(r1)
                    for suffix, x_f in (("", 0), ("-F", -1))]
        got = sc.t_divisors(sc.build_scenario(r1, r2))
        assert [(nv.name, nv.vector) for nv in got] == expected, (r1, r2)


@pytest.mark.parametrize("r1", range(sc.MAX_R1 + 1))
def test_first_block_closed_form_matches_oracle(r1):
    # The rays (D, 0) and (D, x_E(D)) over the rays D of Nef(dP_{r1+1}) are
    # the dual of the first-block curves, by facet enumeration.
    s = sc.build_scenario(r1, 2)
    nef = delpezzo.nef_cone(delpezzo.build(r1 + 1)).rays
    assert {d[-1] for d in nef} <= {0, -1}
    assert ({d[:-1] for d in nef if d[-1] == 0}
            == set(delpezzo.nef_cone(delpezzo.build(r1)).rays))
    doubled = sorted({d + (x,) for d in nef for x in (0, d[-1])})
    rows = [c.vector[:s.idx_h2] + c.vector[s.idx_e:]
            for c in s.ne_curves() if c.name not in _names(s, 2)]
    assert doubled == dual_by_facet_enumeration(rows)


def test_t_sets():
    assert len(sc.t_divisors(sc.build_scenario(3, 0))) == 10
    s = sc.build_scenario(1, 1)
    names = [nv.name for nv in sc.t_divisors(s)]
    assert names == ["H1+H2-E", "H1+H2-E-F"]
    # basis (H1, E1_1, H2, E2_1, E, F)
    assert sc.t_divisors(s)[1].vector == (1, 0, 1, 0, -1, -1)


@pytest.mark.parametrize("r1,r2", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 2),
                                   (3, 3)])
def test_theorem_small_cells(r1, r2):
    v = sc.verify_theorem(sc.build_scenario(r1, r2))
    assert v.containment_ok
    assert v.equality_status == sc.EQ_EQUAL
    assert v.ok


@pytest.mark.parametrize("r1,r2", [(0, 0), (1, 1), (0, 2), (2, 2), (0, 3),
                                   (1, 3), (0, 4), (2, 3)])
def test_claimed_generators_match_oracle_dual(r1, r2):
    # Facet enumeration, not double description, computes dual(NE); it must
    # list exactly the claimed generators, and the verifier must agree.
    s = sc.build_scenario(r1, r2)
    oracle = dual_by_facet_enumeration([c.vector for c in s.ne_curves()])
    assert oracle == list(sc.nef_generators_claimed(s).rays)
    assert sc.verify_theorem(s).equality_status == sc.EQ_EQUAL


def test_theorem_mutilated_claim_is_refuted():
    s = sc.build_scenario(0, 0)
    vectors = [nv.vector for nv in sc.claimed_nef_vectors(s)
               if nv.vector != (0, 1, 0, 0)]  # drop the H2 generator
    mutilated = cone_from_rays(s.rho, vectors)
    verdict = cones_equal(dual(sc.ne_generators(s)), mutilated)
    assert not verdict.equal
    assert verdict.witness_ray is not None
    assert verdict.separator is not None


def test_theorem_gated_without_budget():
    # r2 = 8 needs no budget: the block split never dualises the dP8 factor
    v = sc.verify_theorem(sc.build_scenario(0, 8))
    assert v.containment_ok
    assert v.equality_status == sc.EQ_EQUAL
    assert v.ok


def test_factor_block_witness_clean():
    for r1 in range(4):
        for r2 in range(9):
            s = sc.build_scenario(r1, r2)
            assert sc._block_split(s) == (None, None), (r1, r2)


@pytest.mark.parametrize("r1", range(4))
@pytest.mark.parametrize("r2", range(8))
def test_block_proof_matches_full_dual(r1, r2):
    # The full-space double description is the reference for the block
    # proof: it must list exactly the claimed generators of both factors.
    s = sc.build_scenario(r1, r2)
    assert dual(sc.ne_generators(s)).rays == sc.nef_generators_claimed(s).rays


@pytest.mark.parametrize("r1,r2", [(0, 2), (3, 8)])
def test_theorem_dropped_t_divisor_is_refuted(monkeypatch, r1, r2):
    s = sc.build_scenario(r1, r2)
    full = sc.t_divisors(s)
    monkeypatch.setattr(sc, "t_divisors", lambda s: full[1:])
    v = sc.verify_theorem(s)
    assert v.containment_ok
    assert v.equality_status == sc.EQ_UNEQUAL
    ray = v.equality_witness["ray"]
    assert v.equality_witness["only_in"] == "dual of the curve cone"
    assert len(ray) == s.rho
    assert ray == full[0].vector
    assert all(dot(ray, c.vector) >= 0 for c in s.ne_curves())


def test_theorem_non_nef_claim_is_outside_p(monkeypatch):
    # N1 + H2 - E + F pairs -1 with f: the containment witness names it, and
    # the same divisor is the ray that only the claimed nef cone has.
    s = sc.build_scenario(2, 3)
    full = sc.t_divisors(s)
    v = list(full[0].vector)
    v[s.idx_e + 1] += 1   # the F slot
    bent = dataclasses.replace(full[0], vector=tuple(v))
    monkeypatch.setattr(sc, "t_divisors", lambda s: (bent,) + full[1:])
    verdict = sc.verify_theorem(s)
    assert verdict.containment_witness == {"divisor": bent.name,
                                           "curve": "f", "pairing": -1}
    assert verdict.equality_status == sc.EQ_UNEQUAL
    assert verdict.equality_witness == {"ray": primitive(bent.vector),
                                        "only_in": "claimed nef cone"}


def _non_nef_t(s, k, e=0):
    """The T divisors with the k-th one's F coefficient set to 1, so that
    it pairs -1 with f, and its E coefficient raised by ``e``; e = 3 makes
    it pair -1 with e as well."""
    full = sc.t_divisors(s)
    v = list(full[k].vector)
    v[s.idx_e] += e
    v[s.idx_e + 1] = 1   # the F slot
    return full[:k] + (dataclasses.replace(full[k], vector=tuple(v)),) \
        + full[k + 1:]


@pytest.mark.parametrize("r1,r2", _CELLS)
def test_containment_matches_pairwise_oracle(r1, r2):
    # The packed check names the witness the per-pair loop names: on the
    # cell, with each T divisor made non-nef in turn (negative on f, or on
    # both e and f, where the first curve in order must be named), and with
    # the fibers and the first curve over each factor bent on the E or F
    # slot.
    s = sc.build_scenario(r1, r2)
    first = sc.factor_nef_vectors(s, 1)
    cases = [(s, first + sc.t_divisors(s))]
    cases += [(s, first + _non_nef_t(s, k, e))
              for k in range(len(sc.t_divisors(s))) for e in (0, 3)]
    bent = ["e", "f"] + [_names(s, k)[0] for k in (1, 2)]
    cases += [(_bent(s, name, slot), first + sc.t_divisors(s))
              for name in bent for slot in (s.idx_e, s.idx_e + 1)]
    witnesses = []
    for case, claimed in cases:
        got = sc._containment_explicit(case.curves, claimed)
        assert got == containment_by_pairs(case.curves, claimed)
        witnesses.append(got and got["curve"])
    t = len(sc.t_divisors(s))
    assert witnesses[1:1 + 2 * t] == ["f", "e"] * t
    assert any(witnesses[1 + 2 * t:])


def test_theorem_pairs_no_claim_one_by_one(monkeypatch):
    # Nefness of the claims is decided by packed products: no cell pairs a
    # claim with a curve by dot, and a non-nef claim costs at most one dot
    # per curve, to name its first negative curve.
    calls = []
    real = sc.dot

    def counted(u, v):
        calls.append(1)
        return real(u, v)

    monkeypatch.setattr(sc, "dot", counted)
    for r1, r2 in _CELLS:
        assert sc.verify_theorem(sc.build_scenario(r1, r2)).ok
    assert calls == []
    s = sc.build_scenario(2, 3)
    bent = _non_nef_t(s, 0)
    monkeypatch.setattr(sc, "t_divisors", lambda s: bent)
    verdict = sc.verify_theorem(s)
    assert verdict.containment_witness == {"divisor": bent[0].name,
                                           "curve": "f", "pairing": -1}
    assert 0 < len(calls) <= len(s.curves)


def test_theorem_redundant_claim_is_still_equal(monkeypatch):
    # The sum of two T divisors is nef but not an extremal ray: the claim no
    # longer lists exactly the rays of P, yet it generates the same cone.
    s = sc.build_scenario(2, 3)
    full = sc.t_divisors(s)
    extra = sc.NamedVector("sum", tuple(
        a + b for a, b in zip(full[0].vector, full[1].vector)))
    monkeypatch.setattr(sc, "t_divisors", lambda s: full + (extra,))
    verdict = sc.verify_theorem(s)
    assert verdict.containment_ok
    assert verdict.equality_status == sc.EQ_EQUAL
    assert verdict.equality_witness is None


def _with_curves(s, curves):
    return dataclasses.replace(s, curves=tuple(curves))


@pytest.mark.parametrize("r1,r2", [(1, 3), (2, 8)])
def test_theorem_unlifted_generator_is_refuted(r1, r2):
    s = sc.build_scenario(r1, r2)
    v = sc.verify_theorem(_with_curves(
        s, (c for c in s.curves if c.name != "e2_1")))
    assert v.containment_ok
    assert v.equality_status == sc.EQ_UNEQUAL
    assert v.equality_witness == {"curve": "e2_1",
                                  "reason": "NE(S2) generator not lifted"}


@pytest.mark.parametrize("r1,r2", [(1, 3), (2, 8)])
def test_theorem_renamed_curve_is_refuted(r1, r2):
    # A curve is checked against the lift its name names: a listed vector
    # under an unlisted name, or two curves with their names swapped, is
    # a lift witness though every vector is in the catalog.
    s = sc.build_scenario(r1, r2)
    renamed = [dataclasses.replace(c, name="x") if c.name == "e2_1" else c
               for c in s.curves]
    swap = {"e2_1": "e2_2", "e2_2": "e2_1"}
    swapped = [dataclasses.replace(c, name=swap.get(c.name, c.name))
               for c in s.curves]
    for curves, witness in (
            (renamed, {"curve": "x",
                       "reason": "not a listed class, or lifted twice"}),
            (swapped, {"curve": "e2_2", "reason": "lift rule violated"})):
        v = sc.verify_theorem(_with_curves(s, curves))
        assert v.containment_witness == witness
        assert v.equality_status == sc.EQ_UNEQUAL
        assert v.equality_witness == witness
        assert not v.ok


@pytest.mark.parametrize("r1,r2", [(1, 3), (2, 8)])
def test_theorem_broken_lift_is_refuted(r1, r2):
    s = sc.build_scenario(r1, r2)
    bent = []
    for c in s.curves:
        if c.name == "e2_1":
            v = list(c.vector)
            v[s.idx_h2 + 1] += 1   # first-block claims are zero there
            c = dataclasses.replace(c, vector=tuple(v))
        bent.append(c)
    v = sc.verify_theorem(_with_curves(s, bent))
    assert not v.containment_ok
    assert v.containment_witness == {"curve": "e2_1",
                                     "reason": "lift rule violated"}
    assert v.equality_status == sc.EQ_UNEQUAL
    assert not v.ok


def _bent(s, name, slot):
    """The catalog with one more on one slot of the named curve."""
    out = []
    for c in s.curves:
        if c.name == name:
            v = list(c.vector)
            v[slot] += 1
            c = dataclasses.replace(c, vector=tuple(v))
        out.append(c)
    return _with_curves(s, out)


@pytest.mark.parametrize("r1,r2", [(1, 3), (2, 8)])
def test_theorem_broken_first_factor_lift_is_refuted(r1, r2):
    s = sc.build_scenario(r1, r2)
    # Every claimed divisor has H1 >= 0, so no pairing turns negative.
    v = sc.verify_theorem(_bent(s, "e1_1", 0))
    assert v.containment_witness == {"curve": "e1_1",
                                     "reason": "lift rule violated"}
    assert v.equality_status == sc.EQ_UNEQUAL
    assert v.equality_witness == v.containment_witness


@pytest.mark.parametrize("r1,r2", [(1, 3), (2, 8)])
def test_theorem_unlifted_first_factor_generator_is_refuted(r1, r2):
    s = sc.build_scenario(r1, r2)
    dropped = _curve(s, "l1_1")
    # the class on dP_{r1+1}: the line through the first point and E0; its
    # H1/E1 block is the pairing row of the class less E0, whose
    # multiplicity the E slot carries
    cls = (delpezzo.pairing_row(dropped.vector[:r1 + 1])
           + (-dropped.vector[s.idx_e],))
    assert cls == (1, -1) + (0,) * (r1 - 1) + (-1,)
    v = sc.verify_theorem(_with_curves(
        s, (c for c in s.curves if c.name != "l1_1")))
    assert v.containment_ok
    assert v.equality_status == sc.EQ_UNEQUAL
    assert v.equality_witness == {
        "curve": "l1_1", "reason": "NE(dP_{r1+1}) generator not lifted"}


@pytest.mark.parametrize("r1,r2", [(0, 0), (2, 5)])
def test_theorem_broken_f_split_is_refuted(r1, r2):
    s = sc.build_scenario(r1, r2)
    v = sc.verify_theorem(_bent(s, "f", 0))
    assert v.containment_witness == {"curve": "f",
                                     "reason": "F split violated"}
    assert v.equality_status == sc.EQ_UNEQUAL and not v.ok
    v = sc.verify_theorem(_with_curves(
        s, (c for c in s.curves if c.name != "e")))
    assert v.equality_witness == {"curve": "e", "reason": "fiber not lifted"}


def _cell_records(cells):
    """Catalog, claims and verdict of each cell, built in the given order."""
    out = {}
    for r1, r2 in cells:
        s = sc.build_scenario(r1, r2)
        claims = sc.factor_nef_vectors(s, 1) + sc.t_divisors(s)
        out[r1, r2] = (s.curves, claims, sc.verify_theorem(s))
    return out


def _clear_tables():
    for table in SCENARIO_TABLES:
        table.cache_clear()


def _immutable(x):
    if isinstance(x, (tuple, frozenset)):
        return all(map(_immutable, x))
    return isinstance(x, (int, str))


def test_scenario_tables_are_every_lattice_cache():
    # A cache the fixtures do not clear could keep a table built before a
    # test patched the orbits.
    cached = {f for f in vars(sc).values() if hasattr(f, "cache_clear")}
    assert cached == {*SCENARIO_TABLES}


def test_tables_do_not_depend_on_cell_order():
    # Tables built by the cells in reverse order give the catalogs, claims
    # and verdicts of the forward order, and every table is immutable.
    _clear_tables()
    forward = _cell_records(_CELLS)
    _clear_tables()
    assert _cell_records(_CELLS[::-1]) == forward
    for r in range(sc.MAX_R2 + 1):
        tables = [sc._lifted_classes(2, r)]
        if r <= sc.MAX_R1:
            tables += [sc._lifted_classes(1, r), sc._t1_classes(r),
                       sc._p_rays(r)]
        for table in tables:
            assert isinstance(table, (tuple, frozenset)), r
            assert _immutable(table), r


@pytest.mark.parametrize("r1,r2", [(1, 3), (2, 8)])
def test_bent_curves_give_one_witness_warm_or_cold(r1, r2):
    # A bent first-factor and a bent second-factor curve are caught the
    # same way whether the tables are warm or built by the check itself.
    s = sc.build_scenario(r1, r2)
    cases = [_bent(s, "e1_1", 0), _bent(s, "e2_1", s.idx_h2 + 1)]
    warm = [sc.verify_theorem(b) for b in cases]
    _clear_tables()
    assert [sc.verify_theorem(b) for b in cases] == warm
    for verdict, name in zip(warm, ("e1_1", "e2_1")):
        assert verdict.containment_witness == {"curve": name,
                                               "reason": "lift rule violated"}
        assert verdict.equality_status == sc.EQ_UNEQUAL


def test_pairing_rows_are_computed_once_per_lattice(monkeypatch):
    # Rows come from the per-lattice tables: a second pass over every cell
    # computes none.
    calls = []
    real = delpezzo.pairing_row

    def counted(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(delpezzo, "pairing_row", counted)
    _clear_tables()
    _cell_records(_CELLS)
    once = len(calls)
    assert once
    _cell_records(_CELLS)
    assert len(calls) == once


# ---------------------------------------------------------------------------
# anticanonical divisor and classification
# ---------------------------------------------------------------------------

def test_anticanonical_vector():
    s = sc.build_scenario(2, 1)
    assert sc.anticanonical(s) == (3, -1, -1, 3, -1, -2, -1)


def test_anticanonical_pairings_frozen():
    s = sc.build_scenario(3, 1)
    mk = sc.anticanonical(s)
    expected = {"e": 1, "f": 1, "l1_1": 0, "l1_2": 0, "l1_3": 0,
                "e1_1": 1, "e1_12": 1, "l2_1": 0, "e2_1": 1}
    for name, val in expected.items():
        assert dot(mk, _curve(s, name).vector) == val, name


def test_minus_k_negative_curve_r2_2():
    s = sc.build_scenario(0, 2)
    mk = sc.anticanonical(s)
    lifted = next(c for c in s.ne_curves() if c.name in _names(s, 2)
                  and _second_factor_class(s, c) == (1, -1, -1))
    assert dot(mk, lifted.vector) == -1


def test_delta_certificate_frozen_values():
    s = sc.build_scenario(1, 1)
    cert = sc.delta_certificate(s)
    assert cert["ok"]
    assert cert["pairings"]["e"] == Fraction(2, 3)
    assert cert["pairings"]["f"] == Fraction(2, 3)
    assert cert["pairings"]["l1_1"] == Fraction(1, 3)
    assert cert["pairings"]["l2_1"] == Fraction(1, 3)
    assert cert["pairings"]["e1_1"] == 1
    assert cert["pairings"]["e2_1"] == 1


def test_delta_certificate_matches_fraction_pairings_on_every_cell():
    """The integer pairings, divided by 3, equal -(K + boundary) . C taken
    in Fractions, and keep their type: every value is a Fraction."""
    for r1 in range(sc.MAX_R1 + 1):
        for r2 in range(sc.MAX_R2 + 1):
            s = sc.build_scenario(r1, r2)
            minus_k_delta = [Fraction(a) - d for a, d in
                             zip(sc.anticanonical(s), sc.delta_divisor(s))]
            expected = {c.name: sum((x * y for x, y in
                                     zip(minus_k_delta, c.vector)),
                                    Fraction(0))
                        for c in s.ne_curves()}
            cert = sc.delta_certificate(s)
            assert cert["pairings"] == expected, (r1, r2)
            assert all(type(v) is Fraction for v in cert["pairings"].values())
            assert cert["ok"] == all(v > 0 for v in expected.values())


def test_delta_certificate_fails_r2_2():
    cert = sc.delta_certificate(sc.build_scenario(0, 2))
    assert not cert["ok"]
    assert cert["pairings"][cert["witness"]] <= 0


def test_delta_certificate_is_strict():
    # Cell (0, 2) without its curve on which -K is negative is weak Fano;
    # e - f pairs 0 with both -K and -(K + boundary), and a zero pairing
    # must fail the ampleness certificate.
    s = sc.build_scenario(0, 2)
    mk = sc.anticanonical(s)
    kept = tuple(c for c in s.curves if dot(mk, c.vector) >= 0)
    assert sc.classify(dataclasses.replace(s, curves=kept)).weak_fano
    zero = sc.NamedVector("e-f", tuple(
        a - b for a, b in zip(_curve(s, "e").vector, _curve(s, "f").vector)))
    s = dataclasses.replace(s, curves=kept + (zero,))
    cert = sc.delta_certificate(s)
    assert cert["pairings"]["e-f"] == 0
    assert not cert["ok"]
    assert cert["witness"] == "e-f"
    res = sc.classify(s)
    assert not res.weak_fano
    assert res.witnesses["not_weak_fano"] == {"curve": "e-f", "pairing": 0}


def test_not_weak_fano_witness_pairs_negatively():
    # The witness is the first curve on which -K is negative, not the first
    # on which it is 0.
    seen = 0
    for (r1, r2), res in sc.classify_all().items():
        pairings = res.witnesses["anticanonical_pairings"]
        negative = [n for n, v in pairings.items() if v < 0]
        if negative:
            seen += 1
            witness = res.witnesses["not_weak_fano"]
            assert witness == {"curve": negative[0],
                               "pairing": pairings[negative[0]]}, (r1, r2)
            assert witness["pairing"] < 0, (r1, r2)
    assert seen == 28


def test_classification_grid():
    table = sc.classify_all()
    assert len(table) == 36
    for (r1, r2), res in table.items():
        assert res.fano == (r1 == 0 and r2 == 0)
        assert res.weak_fano == (r2 <= 1)
        assert res.fano_type == res.weak_fano
        if not res.fano:
            assert "not_fano" in res.witnesses
        if not res.weak_fano:
            assert "not_weak_fano" in res.witnesses
        if r2 >= 2:
            assert "not_fano_type" in res.witnesses
            assert res.witnesses["not_fano_type"]["certificate"]


def test_classification_scale_invariance():
    # verdicts depend only on pairing signs: scaling -K cannot change them
    s = sc.build_scenario(2, 3)
    mk = sc.anticanonical(s)
    base = {c.name: dot(mk, c.vector) for c in s.ne_curves()}
    for scale in (Fraction(1, 7), 5):
        scaled = {n: scale * v for n, v in base.items()}
        assert all((v > 0) == (base[n] > 0) for n, v in scaled.items())
        assert all((v >= 0) == (base[n] >= 0) for n, v in scaled.items())


# ---------------------------------------------------------------------------
# the log-Fano refutation
# ---------------------------------------------------------------------------

def test_refutation_requires_two_points():
    with pytest.raises(ValueError):
        sc.not_fano_type_refutation(sc.build_scenario(0, 1))


@pytest.mark.parametrize("r2", range(2, 9))
def test_refutation_all_r2(r2):
    res = sc.not_fano_type_refutation(sc.build_scenario(0, r2))
    assert check_infeasibility_certificate(res.lp, res.certificate)
    assert all(m >= 0 for m in res.certificate)
    # the relaxed system admits the boundary point
    relaxed = relaxed_refutation_system()
    pt = lp_feasible(relaxed).point
    for c in relaxed.constraints:
        val = sum(a * x for a, x in zip(c.coeffs, pt))
        assert val >= c.bound


def test_refutation_strictness_is_essential():
    strict = lp_feasible(sc.refutation_system())
    relaxed = lp_feasible(relaxed_refutation_system())
    assert not strict.feasible
    assert relaxed.feasible
    stored = sc.not_fano_type_refutation(sc.build_scenario(0, 2)).certificate
    assert strict.certificate == stored


def test_refutation_holds_only_int():
    # The system and its multipliers are integral, so the re-check in
    # classify makes no Fraction.
    res = sc.not_fano_type_refutation(sc.build_scenario(0, 2))
    values = list(res.certificate)
    for c in res.lp.constraints:
        values += [*c.coeffs, c.bound]
    assert {type(v) for v in values} == {int}


def test_refutation_is_built_once_and_rechecked_by_every_classify(monkeypatch):
    first = sc.not_fano_type_refutation(sc.build_scenario(0, 2))
    assert sc.not_fano_type_refutation(sc.build_scenario(3, 8)) is first
    checked = []

    def counting(lp, multipliers):
        checked.append(multipliers)
        return check_infeasibility_certificate(lp, multipliers)

    monkeypatch.setattr(sc, "check_infeasibility_certificate", counting)
    for r1, r2 in ((0, 2), (0, 2), (3, 8)):
        assert not sc.classify(sc.build_scenario(r1, r2)).fano_type
    assert checked == [first.certificate] * 3


def test_scenario_rejects_a_curve_of_the_wrong_length():
    s = sc.build_scenario(1, 2)
    short = dataclasses.replace(s.curves[-1], vector=s.curves[-1].vector[:-1])
    with pytest.raises(DimensionMismatchError, match="Picard rank"):
        dataclasses.replace(s, curves=s.curves[:-1] + (short,))


# ---------------------------------------------------------------------------
# product certificates for T
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r1,r2", [(0, 0), (1, 0), (2, 1), (3, 0), (3, 2)])
def test_t_certificates_verify(r1, r2):
    s = sc.build_scenario(r1, r2)
    certs = sc.t_divisor_certificates(s)
    assert len(certs) == 2 * len(sc.t1_divisors(s))
    for name, built in certs.items():
        assert built.cases == (1, 3, 5), name
        assert verify_HE_hypotheses(built.chain).ok, name
        assert verify_HEF_hypotheses(built.grid).ok, name


@pytest.mark.parametrize("r1,r2", [(0, 0), (1, 1), (3, 2), (2, 4)])
def test_t_certificates_agree_with_membership(r1, r2):
    s = sc.build_scenario(r1, r2)
    results = t_certificates_agree_with_membership(s)
    assert results
    for name, res in results.items():
        assert res["agree"], name
        assert res["membership"], name


def test_t_membership_vectors_in_dual():
    s = sc.build_scenario(3, 3)
    nef = dual(sc.ne_generators(s))
    for nv in sc.t_divisors(s):
        assert contains(nef, nv.vector).member, nv.name


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@given(r1=st.integers(0, 3), r2=st.integers(0, 6))
def test_property_invariants(r1, r2):
    s = sc.build_scenario(r1, r2)
    res = sc.classify(s)
    assert (not res.fano) or res.weak_fano
    assert res.fano_type == res.weak_fano
    # every claimed curve generator pairs nonnegatively with every T divisor
    for nv in sc.t_divisors(s):
        for c in s.ne_curves():
            assert dot(nv.vector, c.vector) >= 0


@given(r2=st.integers(2, 8))
def test_property_second_factor_swap_symmetry(r2):
    # relabeling the blown-up points permutes the catalog vectors
    s = sc.build_scenario(0, r2)
    lifts = sorted(c.vector for c in s.ne_curves() if c.name.startswith("e2_"))
    swapped = []
    for c in s.ne_curves():
        if not c.name.startswith("e2_"):
            continue
        v = list(c.vector)
        i1, i2 = s.idx_h2 + 1, s.idx_h2 + 2
        v[i1], v[i2] = v[i2], v[i1]
        swapped.append(tuple(v))
    assert sorted(swapped) == lifts
