from itertools import permutations

import pytest

from moricone import cones, delpezzo
from moricone.delpezzo import (
    build,
    minus_one_classes,
    ne_generators,
    nef_cone,
    pair,
)

from .oracles import minus_one_multiset_counts

EXPECTED_COUNTS = {0: 0, 1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}


def ne_pairings(L, D):
    """D.c for each generator c of the cone of curves: D is nef when all are
    nonnegative and ample when all are positive (Kleiman)."""
    return [pair(L, D, c) for c in ne_generators(L)]


def test_lattice_basics():
    L = build(0)
    assert L.rank == 1 and L.canonical_class == (-3,)
    L8 = build(8)
    assert L8.rank == 9
    assert pair(L8, L8.canonical_class, L8.canonical_class) == 1  # 9 - r
    L1 = build(1)
    assert pair(L1, L1.canonical_class, L1.canonical_class) == 8
    e1 = (0, 1)
    assert pair(L1, L1.canonical_class, e1) == -1


def test_build_rejects_out_of_range():
    with pytest.raises(ValueError):
        build(9)
    with pytest.raises(ValueError):
        build(-1)


def test_pair_dimension_mismatch():
    with pytest.raises(cones.DimensionMismatchError):
        pair(build(2), (1, 0), (1, 0, 0))


def test_minus_one_small_cases_frozen():
    assert minus_one_classes(build(0)) == ()
    assert minus_one_classes(build(1)) == ((0, 1),)
    assert minus_one_classes(build(2)) == ((0, 0, 1), (0, 1, 0), (1, -1, -1))


@pytest.mark.parametrize("r", range(0, 9))
def test_minus_one_counts_and_second_oracle(r):
    classes = minus_one_classes(build(r))
    assert len(classes) == EXPECTED_COUNTS[r]
    assert len(set(classes)) == len(classes)
    assert set(classes) == minus_one_multiset_counts(r)


@pytest.mark.parametrize("r", range(1, 9))
def test_minus_one_defining_equations(r):
    L = build(r)
    K = L.canonical_class
    for c in minus_one_classes(L):
        assert pair(L, c, c) == -1
        assert pair(L, c, K) == -1


@pytest.mark.parametrize("r", range(2, 7))
def test_minus_one_permutation_closed(r):
    L = build(r)
    classes = set(minus_one_classes(L))
    sample = list(classes)[:10]
    for c in sample:
        for perm in set(permutations(c[1:])):
            assert (c[0],) + perm in classes


def test_ne_generators_by_rank():
    assert ne_generators(build(0)) == ((1,),)
    assert ne_generators(build(1)) == ((0, 1), (1, -1))
    assert ne_generators(build(2)) == minus_one_classes(build(2))


@pytest.mark.parametrize("r", range(0, 9))
def test_anticanonical_is_ample(r):
    L = build(r)
    mk = tuple(-x for x in L.canonical_class)
    assert min(ne_pairings(L, mk)) > 0
    if r >= 2:
        for c in minus_one_classes(L):
            assert pair(L, mk, c) == 1


def test_hyperplane_nef_everywhere():
    for r in range(0, 9):
        L = build(r)
        h = (1,) + (0,) * r
        assert min(ne_pairings(L, h)) >= 0


def test_exceptional_not_nef():
    L = build(1)
    assert min(ne_pairings(L, (0, 1))) < 0


@pytest.mark.parametrize("r", range(0, 7))
def test_nef_cone_dual_roundtrip(r):
    L = build(r)
    nef = nef_cone(L)
    # rays of the nef cone are divisor classes; each must actually be nef
    for u in nef.rays:
        assert min(ne_pairings(L, u)) >= 0
    rows = cones.cone_from_rays(
        L.rank, [(c[0],) + tuple(-x for x in c[1:]) for c in ne_generators(L)])
    assert cones.dual(nef).rays == rows.rays
    # The Weyl orbits are the forward dual; r = 7 and 8 are checked in
    # test_cones.py, where that dual already runs.
    assert cones.dual(rows).rays == nef.rays


def add_exceptional_to_orbits(monkeypatch):
    """Make every Weyl orbit also hold E_r, which is not nef for r >= 1.
    The (-1)-class orbit already holds it, and ``nef_cone`` raises for
    r >= 1, so no wrong list is left in either cache."""
    real = delpezzo._orbit
    monkeypatch.setattr(delpezzo, "_orbit", lambda r, seeds: tuple(
        sorted(set(real(r, seeds)) | {(0,) * r + (1,)})))
    delpezzo.nef_cone.cache_clear()


def test_nef_cone_guard_rejects_a_non_nef_ray(monkeypatch):
    add_exceptional_to_orbits(monkeypatch)
    for r in range(1, 9):
        with pytest.raises(AssertionError) as ei:
            nef_cone(build(r))
        assert str(ei.value) == \
            f"ray {(0,) * r + (1,)} pairs negatively with a row"


def test_nef_cone_small_frozen():
    # r=0: Nef = R+ . H   (dual basis vector (1,))
    assert nef_cone(build(0)).rays == ((1,),)
    # r=1: dual of rows {(0,-1),(1,1)} -> {(1,0),(1,-1)} as pairing rows:
    # generators H and H - E1
    assert nef_cone(build(1)).rays == ((1, -1), (1, 0))
    # r=2: nef generators H-E1, H-E2, H (simplicial)
    assert nef_cone(build(2)).rays == ((1, -1, 0), (1, 0, -1), (1, 0, 0))
