"""Tests for chain/grid nefness certificates and the product builder."""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from moricone import certificates
from moricone import scenario as sc
from moricone.certificates import (
    CertificateError,
    ChainCertificate,
    ChainStep,
    CheckRecord,
    GridCell,
    GridCertificate,
    Stratum,
    build_product_certificates,
    certificate_from_dict,
    certificate_to_dict,
    tsukioka_factors,
    verify_chain,
    verify_HE_hypotheses,
    verify_HEF_hypotheses,
)

I1 = ((1,),)
I2 = ((1, 0), (0, 1))
PT = Stratum(id="pt", rank=0, oracle_curves=())


def rank1(name):
    return Stratum(id=name, rank=1, oracle_curves=((1,),))


# ---------------------------------------------------------------------------
# plain chains
# ---------------------------------------------------------------------------

def three_step_chain(divisor):
    """Ambient plane, a line on it, a point on the line: a closed chain (its
    last step names no next class).  ``(2,)``, twice a line, is nef."""
    return ChainCertificate(
        root_rank=1,
        steps=(
            ChainStep(child=rank1("plane"), restriction=I1, next_class=(1,)),
            ChainStep(child=rank1("line"), restriction=I1, next_class=(1,)),
            ChainStep(child=PT, restriction=()),
        ),
        divisor=divisor)


def test_chain_three_steps_passes():
    verdict = verify_chain(three_step_chain((2,)))
    assert verdict.ok
    assert [rec.value for rec in verdict.checks] == [(1,), (1,), ()]
    assert verdict.certified == "divisor is nef on the root space"
    assert verdict.failure is None


def test_chain_failure_reports_witness():
    cert = ChainCertificate(
        root_rank=1,
        steps=(
            ChainStep(child=rank1("plane"), restriction=I1, next_class=(2,)),
            ChainStep(child=rank1("conic"), restriction=((2,),)),
        ),
        divisor=(1,))
    verdict = verify_chain(cert)
    assert not verdict.ok
    assert verdict.certified is None
    failure = verdict.failure
    assert failure.location == "step 0 (plane)"
    assert failure.value == (-1,)
    assert failure.witness_curve == (1,)
    assert failure.witness_pairing == Fraction(-1)


def test_chain_single_final_step():
    stratum = Stratum(id="X", rank=2, oracle_curves=((1, 0), (0, 1)))
    good = ChainCertificate(root_rank=2,
                            steps=(ChainStep(child=stratum, restriction=I2),),
                            divisor=(1, 1))
    assert verify_chain(good).ok
    bad = ChainCertificate(root_rank=2,
                           steps=(ChainStep(child=stratum, restriction=I2),),
                           divisor=(-1, 1))
    verdict = verify_chain(bad)
    assert not verdict.ok
    assert verdict.failure.witness_curve == (1, 0)


def test_empty_chain_is_a_shape_error():
    with pytest.raises(CertificateError):
        ChainCertificate(root_rank=1, steps=(), divisor=(1,))


def test_chain_shape_missing_next_class():
    with pytest.raises(CertificateError, match="step 0 is not final"):
        ChainCertificate(
            root_rank=1,
            steps=(ChainStep(child=rank1("a"), restriction=I1),
                   ChainStep(child=rank1("b"), restriction=I1)),
            divisor=(1,))


def test_chain_shape_trailing_next_class():
    cert = ChainCertificate(
        root_rank=1,
        steps=(ChainStep(child=rank1("a"), restriction=I1, next_class=(1,)),),
        divisor=(1,))
    with pytest.raises(CertificateError):
        verify_chain(cert)


def test_chain_restriction_shape_mismatch():
    with pytest.raises(CertificateError):
        ChainCertificate(
            root_rank=2,
            steps=(ChainStep(child=rank1("a"), restriction=I1),),
            divisor=(1, 0))


# ---------------------------------------------------------------------------
# open-ended chains (single-blowup hypotheses)
# ---------------------------------------------------------------------------

def test_open_chain_linear_center():
    # hyperplane divisor, center a codimension-2 linear subspace: all
    # difference checks are identically zero
    cert = ChainCertificate(
        root_rank=1,
        steps=(
            ChainStep(child=rank1("X0"), restriction=I1, next_class=(1,)),
            ChainStep(child=rank1("X1"), restriction=I1, next_class=(1,)),
        ),
        divisor=(1,))
    verdict = verify_HE_hypotheses(cert)
    assert verdict.ok
    assert all(rec.value == (0,) for rec in verdict.checks)
    assert "blowup" in verdict.certified


def test_open_chain_requires_next_classes():
    cert = ChainCertificate(
        root_rank=1,
        steps=(ChainStep(child=rank1("a"), restriction=I1),),
        divisor=(1,))
    with pytest.raises(CertificateError):
        verify_HE_hypotheses(cert)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def make_square_grid(d00, right_maps=None, down_maps=None):
    """A 2x2 grid (a=b=1, c=0) of rank-1 strata with unit classes."""
    right_maps = right_maps or {(0, 0): I1, (0, 1): I1}
    down_maps = down_maps or {(0, 0): I1, (1, 0): I1}
    strata = {(i, j): rank1(f"Z{i}{j}") for i in range(2) for j in range(2)}
    cells = {}
    for (i, j), stratum in strata.items():
        cells[(i, j)] = GridCell(
            stratum=stratum,
            right_class=(1,) if i < 1 else None,
            right_map=right_maps.get((i, j)) if i < 1 else None,
            down_class=(1,) if j < 1 else None,
            down_map=down_maps.get((i, j)) if j < 1 else None)
    outer = (ChainStep(child=strata[(0, 0)], restriction=I1),)
    return GridCertificate(a=1, b=1, c=0, root_rank=1, outer=outer,
                           cells=cells, divisor=(d00,))


def test_grid_single_double_difference_check():
    verdict = verify_HEF_hypotheses(make_square_grid(2))
    assert verdict.ok
    assert len(verdict.checks) == 1
    assert verdict.checks[0].value == (0,)
    assert "two-step blowup" in verdict.certified


def test_grid_failing_check():
    verdict = verify_HEF_hypotheses(make_square_grid(1))
    assert not verdict.ok
    assert verdict.failure.value == (-1,)
    assert verdict.failure.location.startswith("cell (0,0)")


def test_grid_inconsistent_paths_rejected():
    grid = make_square_grid(2, right_maps={(0, 0): I1, (0, 1): ((2,),)})
    with pytest.raises(CertificateError):
        verify_HEF_hypotheses(grid)


def test_grid_vacuous_outer_only():
    stratum = rank1("X")
    grid = GridCertificate(
        a=0, b=0, c=0, root_rank=1,
        outer=(ChainStep(child=stratum, restriction=I1),),
        cells={(0, 0): GridCell(stratum=stratum)},
        divisor=(5,))
    verdict = verify_HEF_hypotheses(grid)
    assert verdict.ok
    assert verdict.checks == ()


def test_grid_corner_must_match_cell():
    stratum = rank1("X")
    other = Stratum(id="Y", rank=2, oracle_curves=())
    with pytest.raises(CertificateError):
        GridCertificate(
            a=0, b=0, c=0, root_rank=1,
            outer=(ChainStep(child=other, restriction=((1,), (0,))),),
            cells={(0, 0): GridCell(stratum=stratum)},
            divisor=(1,))


def test_grid_outer_length_checked():
    stratum = rank1("X")
    with pytest.raises(CertificateError):
        GridCertificate(
            a=1, b=1, c=1, root_rank=1,
            outer=(ChainStep(child=stratum, restriction=I1),),
            cells={(1, 1): GridCell(stratum=stratum)},
            divisor=(1,))


def test_grid_missing_cell():
    stratum = rank1("X")
    with pytest.raises(CertificateError):
        GridCertificate(
            a=1, b=0, c=0, root_rank=1,
            outer=(ChainStep(child=stratum, restriction=I1),),
            cells={(0, 0): GridCell(stratum=stratum, right_class=(1,),
                                    right_map=I1)},
            divisor=(1,))


# ---------------------------------------------------------------------------
# product certificates for the point x hypersurface fixtures
# ---------------------------------------------------------------------------

def test_fixture_factor_shapes():
    f1, f2 = tsukioka_factors(2, 2, 2)
    assert (f1.a, f1.b, f1.c) == (2, 0, 0)
    assert (f2.a, f2.b, f2.c) == (1, 2, 1)
    assert f2.divisor == (2,)


def test_product_md222_cases_and_chain():
    f1, f2 = tsukioka_factors(2, 2, 2)
    built = build_product_certificates(f1, f2)
    assert built.cases == (1, 3, 5)
    verdict = verify_HE_hypotheses(built.chain)
    assert verdict.ok
    assert [rec.value for rec in verdict.checks] == [(1, 0), (0, 4), (0, 4)]


def test_product_md222_grid_checks():
    f1, f2 = tsukioka_factors(2, 2, 2)
    built = build_product_certificates(f1, f2)
    grid = built.grid
    assert (grid.a, grid.b, grid.c) == (3, 2, 1)
    verdict = verify_HEF_hypotheses(grid)
    assert verdict.ok
    values = [rec.value for rec in verdict.checks]
    # one outer check, then the two interior cells; the interior difference
    # pairs to d^2 - 1 = 3 on the hypersurface curve
    assert values == [(1, 0), (0, 3), (0, 3)]


def test_product_md322_grid_checks():
    f1, f2 = tsukioka_factors(3, 2, 2)
    built = build_product_certificates(f1, f2)
    verdict = verify_HEF_hypotheses(built.grid)
    assert verdict.ok
    values = [rec.value for rec in verdict.checks]
    assert values == [(1, 0), (0, 3), (0, 3), (0, 3)]


def test_product_md233_grid_checks():
    f1, f2 = tsukioka_factors(2, 3, 3)
    built = build_product_certificates(f1, f2)
    verdict = verify_HEF_hypotheses(built.grid)
    assert verdict.ok
    values = [rec.value for rec in verdict.checks]
    # hypersurface degree checks: d - 1 = 2 on the surface strata and
    # d^2 - 1 = 8 on the curve
    assert values[0] == (1, 0)
    assert sorted(values[1:]) == [(0, 2), (0, 2), (0, 8), (0, 8)]


def test_product_md233_chain():
    f1, f2 = tsukioka_factors(2, 3, 3)
    built = build_product_certificates(f1, f2)
    verdict = verify_HE_hypotheses(built.chain)
    assert verdict.ok
    assert [rec.value for rec in verdict.checks] == [(1, 0), (0, 3), (0, 3)]


def test_explicit_curve_chain_degree_check():
    # the degree chain on the second factor alone: ambient space, the
    # degree-d hypersurface curve, a point on it; the middle check pairs the
    # restricted divisor (degree d^2) against the point class (degree 1)
    d = 2
    cert = ChainCertificate(
        root_rank=1,
        steps=(
            ChainStep(child=rank1("P^2"), restriction=I1, next_class=(d,)),
            ChainStep(child=rank1("L"), restriction=((d,),), next_class=(1,)),
            ChainStep(child=PT, restriction=()),
        ),
        divisor=(d,))
    verdict = verify_chain(cert)
    assert verdict.ok
    assert [rec.value for rec in verdict.checks] == [(0,), (3,), ()]


def test_selector_error_reports_first_violated_condition():
    f1, f2 = tsukioka_factors(2, 2, 2)
    # make both root divisors non-nef so the first pair has no admissible case
    bad1 = GridCertificate(a=f1.a, b=f1.b, c=f1.c, root_rank=1,
                           outer=f1.outer, cells=f1.cells, divisor=(-1,))
    bad2 = GridCertificate(a=f2.a, b=f2.b, c=f2.c, root_rank=1,
                           outer=f2.outer, cells=f2.cells, divisor=(-1,))
    with pytest.raises(CertificateError, match=r"\(1\) fails at root"):
        build_product_certificates(bad1, bad2)


FIXTURES = ((2, 2, 2), (3, 2, 2), (2, 3, 3))
CELL_3_8 = sc.build_scenario(3, 8)


def force_cases(monkeypatch, cases):
    """Make each pair of the product builder pick its alternative in
    ``cases``: the other factor's condition fails, while the chosen factor
    keeps its real condition, so the build still raises if that fails."""
    real = certificates._conditions
    calls = itertools.count()
    failed = CheckRecord(location="forced", value=(), passed=False)

    def forced(g):
        factor = next(calls) % 2  # the builder asks factor 1, then factor 2
        return tuple(rec if case - first == factor else failed
                     for rec, case, first in zip(real(g), cases, (1, 3, 5)))
    monkeypatch.setattr(certificates, "_conditions", forced)


def _factor_pair(source):
    """The tsukioka fixture (n1, n2, d), or the T1 divisor of cell (3, 8)
    with that name."""
    if isinstance(source, tuple):
        return tsukioka_factors(*source)
    n1 = next(n for n in sc.t1_divisors(CELL_3_8) if n.name == source)
    return sc.factor_grids_for_t1(CELL_3_8, n1)


@pytest.mark.parametrize("cases", list(itertools.product((1, 2), (3, 4), (5, 6))),
                         ids=lambda t: "".join(map(str, t)))
@pytest.mark.parametrize(
    "fixture", [*FIXTURES, *(n.name for n in sc.t1_divisors(CELL_3_8))],
    ids=lambda t: "_".join(map(str, t)) if isinstance(t, tuple) else f"T1_3_8_{t}")
def test_every_alternative_builds_and_verifies(monkeypatch, fixture, cases):
    # Forcing one alternative per pair walks the other interleaving order
    # of the outer chain, the A-chain, the rows or the columns.
    force_cases(monkeypatch, cases)
    built = build_product_certificates(*_factor_pair(fixture))
    assert built.cases == cases
    assert verify_HE_hypotheses(built.chain).ok
    assert verify_HEF_hypotheses(built.grid).ok


@pytest.mark.parametrize("cases", list(itertools.product((1, 2), (3, 4), (5, 6))),
                         ids=lambda t: "".join(map(str, t)))
def test_alternatives_set_the_walk_order(monkeypatch, cases):
    # In the fixtures one factor never moves along A or B, so only the outer
    # order shows there; two square grids move both factors on every axis.
    square = make_square_grid(2)
    force_cases(monkeypatch, cases)
    built = build_product_certificates(square, square)
    assert built.cases == cases
    first = {True: "Z00*Z10", False: "Z10*Z00"}  # factor 2 first, factor 1
    assert [s.child.id for s in built.chain.steps] == \
        ["Z00*Z00", first[cases[0] == 1]]
    assert built.grid.cells[(1, 0)].stratum.id == first[cases[2] == 5]
    assert built.grid.cells[(0, 1)].stratum.id == \
        {True: "Z00*Z01", False: "Z01*Z00"}[cases[1] == 3]
    assert verify_HE_hypotheses(built.chain).ok
    assert verify_HEF_hypotheses(built.grid).ok


def test_shipped_files_reproduce(shipped_cert_paths):
    for n1, n2, d in FIXTURES:
        built = build_product_certificates(*tsukioka_factors(n1, n2, d))
        for kind, cert in (("chain", built.chain), ("grid", built.grid)):
            path = shipped_cert_paths[0].with_name(
                f"tsukioka_{n1}_{n2}_{d}_{kind}.json")
            assert path.read_text() == \
                json.dumps(certificate_to_dict(cert), indent=2) + "\n"


def test_verdicts_deterministic():
    f1, f2 = tsukioka_factors(3, 2, 2)
    built = build_product_certificates(f1, f2)
    assert verify_HEF_hypotheses(built.grid) == verify_HEF_hypotheses(built.grid)
    assert verify_HE_hypotheses(built.chain) == verify_HE_hypotheses(built.chain)


@given(n1=st.integers(1, 3), n2=st.integers(2, 4), d=st.integers(1, 4))
def test_product_fixtures_always_verify(n1, n2, d):
    f1, f2 = tsukioka_factors(n1, n2, d)
    built = build_product_certificates(f1, f2)
    assert built.cases == (1, 3, 5)
    chain_verdict = verify_HE_hypotheses(built.chain)
    grid_verdict = verify_HEF_hypotheses(built.grid)
    assert chain_verdict.ok
    assert grid_verdict.ok
    # chain: one check per stratum of the full center chain
    assert len(chain_verdict.checks) == n1 + 1
    # grid: c outer checks plus the interior rectangle
    assert len(grid_verdict.checks) == 1 + (n1 + 1 - 1) * (n2 - 1)
    # the deepest degree check appears among the interior values
    flat = [x for rec in grid_verdict.checks for x in rec.value]
    assert Fraction(d * d - 1) in flat


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------

def test_chain_json_roundtrip():
    cert = ChainCertificate(
        root_rank=1,
        steps=(
            ChainStep(child=rank1("plane"), restriction=I1,
                      next_class=(Fraction(1, 2),)),
            ChainStep(child=PT, restriction=()),
        ),
        divisor=(Fraction(3, 2),))
    data = json.loads(json.dumps(certificate_to_dict(cert)))
    assert data["kind"] == "chain"
    assert data["divisor"] == ["3/2"]
    back = certificate_from_dict(data)
    assert back == cert
    assert verify_chain(back).ok


def test_grid_json_roundtrip():
    f1, f2 = tsukioka_factors(2, 2, 2)
    grid = build_product_certificates(f1, f2).grid
    data = json.loads(json.dumps(certificate_to_dict(grid)))
    assert data["kind"] == "grid"
    back = certificate_from_dict(data)
    assert back == grid
    assert verify_HEF_hypotheses(back) == verify_HEF_hypotheses(grid)


def test_chain_json_defaults_to_chain_kind():
    cert = ChainCertificate(
        root_rank=1,
        steps=(ChainStep(child=rank1("X"), restriction=I1),),
        divisor=(1,))
    data = certificate_to_dict(cert)
    del data["kind"]
    assert certificate_from_dict(data) == cert


def test_json_rejects_floats():
    cert_dict = {
        "kind": "chain",
        "root_rank": 1,
        "steps": [{"rank": 1, "restriction": [[1.5]],
                   "oracle_curves": [[1]], "next_class": None}],
        "divisor": [1],
    }
    with pytest.raises(CertificateError):
        certificate_from_dict(cert_dict)


def _one_step_doc(rank, oracle_curves):
    return {"kind": "chain", "root_rank": rank, "divisor": [1] * rank,
            "steps": [{"rank": rank, "oracle_curves": oracle_curves,
                       "restriction": [[int(i == j) for j in range(rank)]
                                       for i in range(rank)]}]}


@pytest.mark.parametrize("oracle_curves", [[], [[0, 0]], [[1, 0]],
                                           [[1, -1], [-2, 2]]],
                         ids=["empty", "zero", "short", "dependent"])
def test_json_rejects_oracle_curves_that_do_not_span(oracle_curves):
    # Some nonzero class pairs 0 with every listed curve, so it and its
    # negative would both pass as nef.
    with pytest.raises(CertificateError, match="do not span"):
        certificate_from_dict(_one_step_doc(2, oracle_curves))
    assert verify_chain(certificate_from_dict(
        _one_step_doc(2, oracle_curves + [[1, 1], [0, 1]]))).ok


def test_json_requires_oracle_curves():
    doc = _one_step_doc(1, [[1]])
    del doc["steps"][0]["oracle_curves"]
    with pytest.raises(CertificateError, match="oracle_curves"):
        certificate_from_dict(doc)
    # a point has rank 0 and an empty oracle
    assert certificate_from_dict(_one_step_doc(0, [])).steps[0].child.rank == 0
