from itertools import product

import pytest

from moricone import blowup
from moricone.cones import cones_equal, dual
from moricone.exact import LinealityError, generated
from moricone.blowup import (
    ConstructionParams,
    classify,
    k_degree,
    relative_cones,
    relative_pairing,
)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_params_valid():
    p = ConstructionParams(a=3, b=2, components=(1,))
    assert p.components == (1,)


def test_params_codimension_floor():
    with pytest.raises(ValueError):
        ConstructionParams(a=1, b=2, components=(1,))
    with pytest.raises(ValueError):
        ConstructionParams(a=2, b=1, components=(1,))


def test_params_component_range():
    with pytest.raises(ValueError):
        ConstructionParams(a=2, b=3, components=(3,), a_subset_b=True)
    with pytest.raises(ValueError):
        ConstructionParams(a=3, b=3, components=(0,))
    with pytest.raises(ValueError):
        ConstructionParams(a=3, b=3, components=())


def test_params_inclusion_flags():
    with pytest.raises(TypeError):
        ConstructionParams(a=3, b=2, components=(1,), b_subset_a=True)
    # flag must match the presence of a c_i = b component, both ways
    with pytest.raises(ValueError):
        ConstructionParams(a=3, b=2, components=(2,), a_subset_b=False)
    with pytest.raises(ValueError):
        ConstructionParams(a=3, b=2, components=(1,), a_subset_b=True)
    p = ConstructionParams(a=3, b=2, components=(1, 2), a_subset_b=True)
    assert p.a_subset_b


# ---------------------------------------------------------------------------
# pairing table and relative cones
# ---------------------------------------------------------------------------

def test_pairing_table_frozen():
    m = relative_pairing()
    assert m == ((-1, 0), (1, -1))
    # -(E+F) pairs (0, 1) against (e, f)
    minus_ef = [-(m[0][j] + m[1][j]) for j in (0, 1)]
    assert minus_ef == [0, 1]


def test_relative_cones_duality_verified():
    rc = relative_cones()
    assert rc.nef.rays == ((-1, -1), (-1, 0))
    assert rc.ne.rays == ((0, 1), (1, 0))
    assert rc.pairing == ((1, 0), (0, 1))
    assert rc.mutually_dual


def _dual_by_engine(m):
    """Both claimed cones equal the engine's dual of the other side's
    pairing functionals under table ``m``; a side whose functionals do not
    span has a dual with a line, so it is not dual."""
    nef = generated(2, [(-1, 0), (-1, -1)])
    ne = generated(2, [(1, 0), (0, 1)])
    curve_rows = [tuple(m[i][j] for i in range(2)) for j in range(2)]
    div_rows = [tuple(sum(g[i] * m[i][j] for i in range(2)) for j in range(2))
                for g in nef.rays]
    try:
        return (cones_equal(dual(generated(2, curve_rows)), nef).equal
                and cones_equal(dual(generated(2, div_rows)), ne).equal)
    except LinealityError:
        return False


def test_pairing_matrix_agrees_with_the_engine(monkeypatch):
    # Every table with entries in {-1, 0, 1}: the monomial test on the
    # pairing matrix against two engine duals and two equality checks.
    tables = [((a, b), (c, d)) for a, b, c, d in product((-1, 0, 1), repeat=4)]
    verdicts = []
    for m in tables:
        monkeypatch.setattr(blowup, "relative_pairing", lambda m=m: m)
        rc = relative_cones()
        assert rc.mutually_dual == _dual_by_engine(m), m
        verdicts.append(rc.mutually_dual)
    assert len(tables) == 81
    assert 0 < sum(verdicts) < 81


def test_each_nef_generator_kills_one_curve():
    m = relative_pairing()

    def pair_div_curve(dv, cv):
        return sum(dv[i] * m[i][j] * cv[j] for i in range(2) for j in range(2))

    minus_e = (-1, 0)
    minus_ef = (-1, -1)
    e, f = (1, 0), (0, 1)
    assert pair_div_curve(minus_e, e) == 1
    assert pair_div_curve(minus_e, f) == 0
    assert pair_div_curve(minus_ef, e) == 0
    assert pair_div_curve(minus_ef, f) == 1


# ---------------------------------------------------------------------------
# K-degrees and classification
# ---------------------------------------------------------------------------

def test_k_degree_examples():
    assert k_degree(ConstructionParams(3, 2, (1,))) == (-1, -1)
    assert k_degree(ConstructionParams(4, 4, (2,))) == (0, -3)
    assert k_degree(ConstructionParams(2, 3, (1,))) == (1, -2)


def test_classify_flip_case():
    r = classify(ConstructionParams(3, 2, (1,)))
    assert r.is_small and r.is_K_extremal
    assert r.K_dot_e == -1
    assert r.birational_modification == "flip"
    assert r.exceptional_component_codims == (2,)


def test_classify_flop_case():
    r = classify(ConstructionParams(2, 2, (1,)))
    assert r.is_small and not r.is_K_extremal
    assert r.K_dot_e == 0
    assert r.birational_modification == "flop"


def test_classify_divisorial_case():
    # smallest admissible instance of the "some c_i = b" divisorial case
    r = classify(ConstructionParams(3, 3, (3,), a_subset_b=True))
    assert not r.is_small and not r.is_K_extremal
    assert r.birational_modification == "none"
    assert r.exceptional_component_codims == (1,)


def test_classify_divisorial_needs_b_at_most_a():
    # c_i = b forces b <= min(a, b); with a < b the divisorial case cannot
    # be expressed at all
    with pytest.raises(ValueError):
        ConstructionParams(2, 3, (3,), a_subset_b=True)


def test_classify_mixed_components():
    r = classify(ConstructionParams(4, 3, (1, 2, 3), a_subset_b=True))
    assert not r.is_small            # the c=3 component is divisorial
    assert r.is_K_extremal           # a > b regardless
    assert r.birational_modification == "none"
    assert r.exceptional_component_codims == (3, 2, 1)


@pytest.mark.parametrize("a", range(2, 7))
@pytest.mark.parametrize("b", range(2, 7))
def test_classification_grid_invariants(a, b):
    from itertools import combinations_with_replacement

    for k in (1, 2):
        for comps in combinations_with_replacement(range(1, min(a, b) + 1), k):
            p = ConstructionParams(a, b, comps,
                                   a_subset_b=any(c == b for c in comps))
            r = classify(p)
            assert r.is_K_extremal == (a > b)
            ke, kf = k_degree(p)
            assert ke == b - a and kf == -(b - 1)
            assert r.is_small == (max(comps) < b)
            assert (r.birational_modification == "flip") == (r.is_small and a > b)
            assert (r.birational_modification == "flop") == (r.is_small and a == b)

