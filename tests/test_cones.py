import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from operator import mul
from pathlib import Path

import pytest
from hypothesis import assume, example, given, strategies as st

from moricone import cones, delpezzo, exact
from moricone.cones import (
    DimensionMismatchError,
    LinealityError,
    LinearProgram,
    PolyCone,
    check_infeasibility_certificate,
    cone_from_rays,
    cones_equal,
    contains,
    dot,
    dual,
    generated,
    lp_feasible,
)
from moricone.exact import LinearConstraint, constraint, primitive

from .oracles import (
    _primitive,
    _rank_and_kernel,
    dual_by_facet_enumeration,
    dual_by_inverse,
)


# ---------------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------------

def test_canonical_form_drops_redundant_ray_and_sorts():
    c = cone_from_rays(2, [(1, 0), (0, 1), (1, 1)])
    assert c.rays == ((0, 1), (1, 0))


def test_canonical_form_rescales_to_primitive():
    c = cone_from_rays(2, [(2, 0), (0, 3)])
    assert c.rays == ((0, 1), (1, 0))
    assert cone_from_rays(2, [(4, 6)]).rays == ((2, 3),)


def test_zero_rays_are_dropped():
    c = cone_from_rays(3, [(0, 0, 0), (1, 2, 3)])
    assert c.rays == ((1, 2, 3),)
    assert cone_from_rays(2, [(0, 0)]).rays == ()


def test_primitive_handles_fractions():
    assert primitive((Fraction(1, 2), Fraction(1, 3))) == (3, 2)
    assert primitive((0, 0)) == (0, 0)
    assert primitive((-4, -6)) == (-2, -3)


def test_lineality_detected_with_witness():
    with pytest.raises(LinealityError) as ei:
        cone_from_rays(1, [(1,), (-1,)])
    lam, rays = ei.value.witness
    vec = [sum(c * r[k] for c, r in zip(lam, rays)) for k in range(1)]
    assert all(x == 0 for x in vec)
    assert any(c > 0 for c in lam) and all(c >= 0 for c in lam)


def test_lineality_detected_in_higher_dim():
    with pytest.raises(LinealityError):
        cone_from_rays(3, [(1, 1, 0), (-1, 0, 1), (0, -1, -1)])


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        cone_from_rays(2, [(1, 0, 0)])


# ---------------------------------------------------------------------------
# membership with certificates
# ---------------------------------------------------------------------------

def test_membership_combination_certificate():
    c = cone_from_rays(2, [(1, 0), (0, 1)])
    m = contains(c, (3, 5))
    assert m.member
    recon = [sum(l * r[k] for l, r in zip(m.combination, c.rays))
             for k in range(2)]
    assert recon == [3, 5]


def test_non_membership_separator_certificate():
    c = cone_from_rays(2, [(1, 0), (0, 1)])
    m = contains(c, (-1, 2))
    assert not m.member
    u = m.separator
    assert all(dot(u, g) >= 0 for g in c.rays)
    assert dot(u, (-1, 2)) < 0


def test_membership_on_boundary():
    c = cone_from_rays(2, [(1, 1), (1, -1)])
    assert contains(c, (1, 1)).member
    assert contains(c, (2, 0)).member
    assert not contains(c, (0, 1)).member
    assert contains(c, (0, 0)).member


def test_membership_fractional_vector():
    c = cone_from_rays(2, [(1, 0), (1, 2)])
    m = contains(c, (Fraction(1, 2), Fraction(1, 3)))
    assert m.member


def test_cones_equal_and_witness():
    a = cone_from_rays(2, [(1, 0), (0, 1)])
    b = cone_from_rays(2, [(1, 0), (1, 1), (0, 1)])
    assert cones_equal(a, b).equal
    c = cone_from_rays(2, [(1, 0), (1, 1)])
    v = cones_equal(a, c)
    assert not v.equal
    assert v.witness_ray == (0, 1)
    assert v.witness_side == "first-not-in-second"
    assert dot(v.separator, (0, 1)) < 0


def test_cones_equal_on_generated_lists():
    assert generated(2, [(2, 0), (0, 0), (1, 0), (0, 3)]).rays == ((0, 1), (1, 0))
    with pytest.raises(DimensionMismatchError):
        generated(2, [(1, 0, 0)])
    rays = [(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)]
    square = generated(3, rays)
    # a redundant generator (the sum of two rays) keeps the cone
    padded = generated(3, rays + [(2, 1, 0)])
    assert (2, 1, 0) in padded.rays
    assert cones_equal(square, padded).equal
    assert cones_equal(padded, dual(dual(square))).equal
    # dropping an extremal ray is caught, with a checkable separator
    v = cones_equal(padded, generated(3, rays[:3] + [(2, 1, 0)]))
    assert not v.equal
    assert v.witness_ray == (1, 0, 1)
    assert v.witness_side == "first-not-in-second"
    assert all(dot(v.separator, g) >= 0 for g in rays[:3])
    assert dot(v.separator, v.witness_ray) < 0


# ---------------------------------------------------------------------------
# dualization
# ---------------------------------------------------------------------------

def test_orthant_is_self_dual():
    c = cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert dual(c).rays == c.rays


def test_wedge_is_self_dual():
    c = cone_from_rays(2, [(1, 1), (1, -1)])
    assert dual(c).rays == ((1, -1), (1, 1))


def test_square_cone_dual_frozen():
    c = cone_from_rays(3, [(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)])
    d = dual(c)
    assert d.rays == ((0, 0, 1), (0, 1, 0), (1, -1, 0), (1, 0, -1))


def test_dual_inverse_oracle_simplicial():
    gens = [(2, 1, 0), (1, 3, 1), (0, 1, 1)]
    c = cone_from_rays(3, gens)
    assert list(dual(c).rays) == dual_by_inverse(c.rays)


def test_dual_requires_spanning():
    c = cone_from_rays(3, [(1, 0, 0), (0, 1, 0)])
    with pytest.raises(LinealityError) as ei:
        dual(c)
    w = ei.value.witness
    assert w is not None and any(x != 0 for x in w)
    assert all(dot(w, g) == 0 for g in c.rays)


def test_dual_of_trivial_cone_rejected():
    with pytest.raises(LinealityError):
        dual(cone_from_rays(2, []))


def test_dual_dim_zero():
    assert dual(PolyCone(0, ())).rays == ()


def test_double_dual_square_cone():
    c = cone_from_rays(3, [(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)])
    assert dual(dual(c)).rays == c.rays


# ---------------------------------------------------------------------------
# randomized properties
# ---------------------------------------------------------------------------

def _pointed_spanning_cone(dim, raw):
    try:
        c = cone_from_rays(dim, raw)
    except LinealityError:
        assume(False)
    assume(c.rays)
    rank, _ = _rank_and_kernel(c.rays, dim)
    assume(rank == dim)
    return c


@st.composite
def spanning_cones(draw, min_dim=2, max_dim=4):
    dim = draw(st.integers(min_dim, max_dim))
    nrays = draw(st.integers(dim, dim + 3))
    raw = draw(st.lists(
        st.tuples(*[st.integers(-3, 3) for _ in range(dim)]),
        min_size=nrays, max_size=nrays))
    return _pointed_spanning_cone(dim, raw)


@given(spanning_cones())
def test_dual_matches_facet_enumeration_oracle(c):
    assert list(dual(c).rays) == dual_by_facet_enumeration(c.rays)


@given(spanning_cones())
def test_double_dual_is_identity(c):
    assert dual(dual(c)).rays == c.rays


@given(spanning_cones())
def test_dual_pairings_nonnegative(c):
    d = dual(c)
    for u in d.rays:
        for g in c.rays:
            assert dot(u, g) >= 0


@given(spanning_cones(), st.randoms(use_true_random=False))
def test_canonicalization_permutation_invariant(c, rng):
    shuffled = list(c.rays)
    rng.shuffle(shuffled)
    scaled = [tuple(3 * x for x in r) for r in shuffled]
    assert cone_from_rays(c.dim, scaled + list(c.rays)).rays == c.rays


@given(spanning_cones(),
       st.lists(st.integers(0, 4), min_size=8, max_size=8),
       st.tuples(*[st.integers(-6, 6) for _ in range(4)]))
def test_membership_agrees_with_dual_pairings(c, coeffs, noise):
    d = dual(c)
    inside = [sum(l * r[k] for l, r in zip(coeffs, c.rays))
              for k in range(c.dim)]
    assert contains(c, inside).member
    probe = tuple(noise[:c.dim])
    m = contains(c, probe)
    by_dual = all(dot(u, probe) >= 0 for u in d.rays)
    assert m.member == by_dual
    if m.member:
        recon = [sum(l * r[k] for l, r in zip(m.combination, c.rays))
                 for k in range(c.dim)]
        assert tuple(recon) == probe
    else:
        assert all(dot(m.separator, g) >= 0 for g in c.rays)
        assert dot(m.separator, probe) < 0


@st.composite
def degenerate_cones(draw):
    """Cones over points of the {-1, 0, 1} grid at height 1, in dimensions
    4-6.  Many points share each face, so many rays of the dual and of the
    dual back vanish on more than d - 1 generators: the slack
    ``|mask| - (d - 2)`` of the adjacency prefilter is often above 1."""
    dim = draw(st.integers(4, 6))
    points = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * (dim - 1)),
                           min_size=dim, max_size=dim + 4, unique=True))
    return _pointed_spanning_cone(dim, [(1,) + p for p in points])


_CUBE = cone_from_rays(4, [(1, x, y, z) for x in (-1, 1) for y in (-1, 1)
                           for z in (-1, 1)])
_CUBE_PYRAMID = cone_from_rays(
    5, [(1, x, y, z, 0) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    + [(1, 0, 0, 0, 1)])


@pytest.mark.parametrize("layout", ["by width", "all packed", "all per ray"])
def test_dual_of_degenerate_cones_matches_oracle_and_round_trips(monkeypatch,
                                                                 layout):
    """Under the width rule these inputs are packed; with every input per
    ray, their many zero pairings run through :class:`cones._ListedRays`."""
    sources = Counter()
    pairings = cones._pairings

    def counted(scale, rays):
        source = pairings(scale, rays)
        sources[type(source).__name__] += 1
        return source

    monkeypatch.setattr(cones, "_pairings", counted)
    if layout != "by width":
        monkeypatch.setattr(cones, "_WIDEST_PACKED",
                            float("inf") if layout == "all packed" else -1)

    @given(degenerate_cones())
    @example(_CUBE)
    @example(_CUBE_PYRAMID)
    def check(c):
        d = dual(c)
        assert list(d.rays) == dual_by_facet_enumeration(c.rays)
        assert dual(d).rays == c.rays

    check()
    assert set(sources) == {"_ListedRays" if layout == "all per ray"
                            else "_PackedRays"}


@st.composite
def big_paraboloid_cones(draw):
    """Cones over distinct points ``x`` with coordinates up to ``10**6``,
    lifted to ``(1, x, |x|^2)`` in dimensions 4-6.  Every point gives an
    extremal ray (strict convexity), so ``dual(dual(C)) == C``; the entries
    make wide digits that grow as the double description runs."""
    dim = draw(st.integers(4, 6))
    points = draw(st.lists(
        st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * (dim - 2)),
        min_size=dim, max_size=dim + 4, unique=True))
    rays = [(1,) + p + (sum(x * x for x in p),) for p in points]
    assume(_rank_and_kernel(rays, dim)[0] == dim)
    return generated(dim, rays)


@pytest.mark.parametrize("layout", ["by width", "all packed"])
def test_dual_of_big_paraboloid_cones(monkeypatch, layout):
    """Packed digits must be right at every width, since a packed run
    widens as its rays grow: with every input packed, the sampled cases
    re-pack to a wider ``W`` and compact dead positions, both by encoding
    the live rays again through ``_append``.  Under the width rule, these
    inputs use per-ray products."""
    seen = Counter()
    widths = {}
    append = cones._PackedRays._append
    listed = cones._ListedRays.__init__

    def counted_append(self, rays, slots):
        # Positions restart at 0 only when a re-pack encodes the live rays.
        if self.place and not self.size:
            seen["widen" if self.nbytes > widths[id(self)] else "compact"] += 1
        widths[id(self)] = self.nbytes
        append(self, rays, slots)

    def counted_listed(self, rays):
        seen["listed"] += 1
        listed(self, rays)

    monkeypatch.setattr(cones._PackedRays, "_append", counted_append)
    monkeypatch.setattr(cones._ListedRays, "__init__", counted_listed)
    if layout == "all packed":
        monkeypatch.setattr(cones, "_WIDEST_PACKED", float("inf"))

    @given(big_paraboloid_cones())
    def check(c):
        d = dual(c)
        assert list(d.rays) == dual_by_facet_enumeration(c.rays)
        assert dual(d).rays == c.rays

    check()
    if layout == "all packed":
        assert seen["widen"] and seen["compact"] and not seen["listed"]
    else:
        assert seen["listed"]


@st.composite
def row_lists(draw):
    """Integer or rational rows, spanning or not; the small entries make
    dependent rows and corank 1 common."""
    d = draw(st.integers(1, 4))
    entry = st.integers(-2, 2)
    if draw(st.booleans()):
        entry = st.one_of(entry, st.builds(Fraction, st.integers(-3, 3),
                                           st.integers(1, 3)))
    rows = draw(st.lists(st.tuples(*[entry] * d), max_size=d + 2))
    return d, rows


@given(row_lists())
def test_basis_or_kernel_matches_rank_oracle(case):
    d, rows = case
    idx, rays, kern = cones._basis_or_kernel(rows, d)
    rank, kernel = _rank_and_kernel(rows, d)
    if rank == d:
        assert kern is None
        assert idx == [i for i in range(len(rows))
                       if _rank_and_kernel(rows[:i + 1], d)[0]
                       > _rank_and_kernel(rows[:i], d)[0]]
        assert sorted(rays) == dual_by_inverse([rows[i] for i in idx])
        return
    assert idx is None and rays is None
    assert any(x != 0 for x in kern) and all(type(x) is int for x in kern)
    assert all(dot(row, kern) == 0 for row in rows)
    # Both back-substitute from the first free column, so even the sign
    # agrees; at corank 1 that pins the kernel line itself.
    assert kern == _primitive(kernel[0])


# ---------------------------------------------------------------------------
# degenerate del Pezzo cones
# ---------------------------------------------------------------------------

def _minus_one_rows(r):
    """The (-1)-class pairing rows of dP_r: every row is extremal and many
    rays of their dual are degenerate."""
    L = delpezzo.build(r)
    return generated(L.rank, [delpezzo.pairing_row(c)
                              for c in delpezzo.minus_one_classes(L)])


@pytest.mark.parametrize("r", [4, 5])
def test_dual_of_minus_one_rows_matches_oracle(r):
    rows = _minus_one_rows(r)
    assert list(dual(rows).rays) == dual_by_facet_enumeration(rows.rays)


@pytest.mark.parametrize("r, count", [(6, 99), (7, 702)])
def test_del_pezzo_nef_cone_counts_round_trip(r, count):
    rows = _minus_one_rows(r)
    nef = dual(rows)
    assert len(nef.rays) == count
    assert nef.rays == delpezzo.nef_cone(delpezzo.build(r)).rays
    back = dual(nef)
    assert back.rays == rows.rays
    assert dual(back).rays == nef.rays


def test_del_pezzo_8_nef_cone_count():
    """The one forward dP8 dual lists the Weyl orbits of H and H - E1 that
    ``delpezzo.nef_cone`` returns.  Forward only: the dual back of the 19440
    rays makes one pairing per ray and constraint at every step and takes
    minutes."""
    nef = dual(_minus_one_rows(8))
    assert len(nef.rays) == 19440
    assert nef.rays == delpezzo.nef_cone(delpezzo.build(8)).rays


def _negate_first_new_ray(set_attr, d):
    """Make ``dual`` negate the first ray double description builds; the
    first ``d`` calls of ``_reduce_int`` scale the initial simplicial rays.
    ``dual`` calls it in ``cones`` and ``_basis_or_kernel`` in ``exact``, so
    both bindings are patched."""
    calls = []
    reduce_int = exact._reduce_int

    def broken(vec):
        calls.append(vec)
        r = reduce_int(vec)
        return tuple(-x for x in r) if len(calls) == d + 1 else r

    for module in (cones, exact):
        set_attr(module, "_reduce_int", broken)
    return calls


def test_dual_makes_no_fraction(monkeypatch):
    """The basis, the initial rays, the new rays and the kernel witness all
    come from integer arithmetic."""
    nef_rows = _minus_one_rows(6)
    simplicial = cone_from_rays(3, [(2, 1, 0), (1, 3, 1), (0, 1, 1)])
    flat = cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])

    def no_fraction(*args):
        raise RuntimeError("dual made a Fraction")

    # ``dual`` is in ``cones`` and ``_basis_or_kernel`` in ``exact``.
    for module in (cones, exact):
        monkeypatch.setattr(module, "Fraction", no_fraction)
    assert len(dual(nef_rows).rays) == 99
    assert list(dual(simplicial).rays) == dual_by_inverse(simplicial.rays)
    with pytest.raises(LinealityError) as ei:
        dual(flat)
    assert ei.value.witness == (0, 0, 1)


def test_dual_of_the_whole_space_is_zero():
    whole = generated(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert dual(whole).rays == ()


def test_initial_ray_guard_catches_a_wrong_ray(monkeypatch):
    rows = _minus_one_rows(5)
    # With d = 0 the helper negates the first initial ray instead.
    calls = _negate_first_new_ray(monkeypatch.setattr, 0)
    with pytest.raises(AssertionError, match="initial ray"):
        dual(rows)
    assert len(calls) == rows.dim


def test_final_guard_catches_a_wrong_ray(monkeypatch):
    rows = _minus_one_rows(5)
    calls = _negate_first_new_ray(monkeypatch.setattr, rows.dim)
    with pytest.raises(AssertionError) as ei:
        dual(rows)
    assert str(ei.value) == "ray (0, 0, 0, 0, 1, 0) pairs negatively with a row"
    assert len(calls) > rows.dim


def _optimized_child(setup):
    """Run ``dual`` on the dP5 rows in a ``python -O`` child after the
    ``setup`` line; return what it prints: ``__debug__`` and the message of
    the ``AssertionError`` raised."""
    root = Path(__file__).resolve().parents[1]
    src = str(Path(cones.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, str(root), env.get("PYTHONPATH")) if p)
    child = (
        "from moricone import cones\n"
        "from tests.test_cones import (_minus_one_rows, _narrow_digits,\n"
        "                              _negate_first_new_ray)\n"
        "rows = _minus_one_rows(5)\n"
        f"{setup}\n"
        "try:\n"
        "    cones.dual(rows)\n"
        "except AssertionError as e:\n"
        "    print(__debug__, e)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", child], cwd=root,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_final_guard_survives_optimize_flag():
    assert _optimized_child("_negate_first_new_ray(setattr, rows.dim)") == \
        "False ray (0, 0, 0, 0, 1, 0) pairs negatively with a row"


def test_initial_ray_guard_survives_optimize_flag():
    assert _optimized_child("_negate_first_new_ray(setattr, 0)") == \
        "False initial ray does not pair with the basis as its inverse"


def _narrow_digits(set_attr):
    """Make every packing width one bit too narrow for the bound it is
    asked to hold: ``2**(W-2) <= bound``."""
    set_attr(cones, "_digit_width", lambda bound: bound.bit_length() + 1)


def test_width_guard_catches_narrow_digits(monkeypatch):
    rows = _minus_one_rows(5)
    _narrow_digits(monkeypatch.setattr)
    with pytest.raises(AssertionError,
                       match="ray digits too narrow for their pairings"):
        dual(rows)


def test_width_guard_catches_narrow_digits_on_repack(monkeypatch):
    """The widths that choose packing and pack the initial rays are right;
    the one a widening re-pack asks for is too narrow."""
    rows = _minus_one_rows(6)
    digit_width = cones._digit_width
    widths = []

    def narrow_after_first(bound):
        widths.append(bound)
        return digit_width(bound) if len(widths) <= 2 else bound.bit_length() + 1

    monkeypatch.setattr(cones, "_digit_width", narrow_after_first)
    with pytest.raises(AssertionError,
                       match="ray digits too narrow for their pairings"):
        dual(rows)


def test_width_guard_survives_optimize_flag():
    assert _optimized_child("_narrow_digits(setattr)") == \
        "False ray digits too narrow for their pairings"


def _packed_guard_passes(rows, rays):
    try:
        cones._check_pairings_nonnegative(rows, rays)
    except AssertionError as e:
        bad = next(r for r in rays
                   if any(sum(map(mul, row, r)) < 0 for row in rows))
        assert str(e) == f"ray {bad} pairs negatively with a row"
        return False
    return True


@st.composite
def pairing_cases(draw):
    """Rows and rays with entries up to 2**80 in size, one pairing pinned
    to 0, -1 or +1 by solving for a ray entry when ``target`` is set."""
    d = draw(st.integers(1, 4))
    entry = st.one_of(st.integers(-2, 2),
                      st.integers(-2 ** 80, 2 ** 80))
    vec = st.lists(entry, min_size=d, max_size=d)
    rows = draw(st.lists(vec, min_size=1, max_size=5))
    rays = draw(st.lists(vec, min_size=1, max_size=5))
    target = draw(st.sampled_from([None, -1, 0, 1]))
    if target is not None:
        i = draw(st.integers(0, len(rows) - 1))
        k = draw(st.integers(0, len(rays) - 1))
        rows[i][0] = 1
        rays[k][0] = target - sum(map(mul, rows[i][1:], rays[k][1:]))
    return [tuple(v) for v in rows], [tuple(v) for v in rays]


@given(pairing_cases())
@example(([(1,)], [(0,)]))
@example(([(1,)], [(-1,)]))
@example(([(-(2 ** 80),)], [(2 ** 80,)]))
@example(([(2 ** 80, 1)], [(-1, 2 ** 80 - 1)]))
def test_packed_guard_matches_all_pairs_predicate(case):
    rows, rays = case
    expected = all(sum(map(mul, row, r)) >= 0 for r in rays for row in rows)
    assert _packed_guard_passes(rows, rays) == expected


@pytest.mark.parametrize("broken", [0, -1])
def test_packed_guard_digit_boundaries(broken):
    """One row, the first (lowest digit) or the last (highest digit), pairs
    to -1 with the ray; every other pairing is the largest the bound
    ``d * max|row entry| * max|ray entry|`` allows, so any carry out of a
    digit would show.  Pinning that row's pairing to 0 instead must pass."""
    big = 2 ** 80 + 3
    ray = (1, 1, 1)
    rows = [(big, big, big)] * 4
    for last, ok in ((-1, False), (0, True)):
        edited = list(rows)
        edited[broken] = (big, -big, last)
        pairings = [sum(map(mul, row, ray)) for row in edited]
        assert pairings.count(3 * big) == 3 and min(pairings) == last
        assert _packed_guard_passes(edited, [ray]) is ok


@st.composite
def packing_cases(draw):
    """Rows and rays as in :func:`pairing_cases`, one pairing pinned to -1,
    0, +1 or to plus or minus the bound ``d * max|row entry| * max|ray
    entry|``, which the packed digits must hold without a carry.  The rays
    are packed in two steps: ``first`` of them, then the rest as new rays
    after the slots not in ``kept`` die, so appends, compactions and
    widening re-packs all occur."""
    d = draw(st.integers(1, 4))
    entry = st.one_of(st.integers(-2, 2),
                      st.integers(-2 ** 80, 2 ** 80))
    vec = st.lists(entry, min_size=d, max_size=d)
    rows = draw(st.lists(vec, min_size=1, max_size=5))
    rays = draw(st.lists(vec, min_size=2, max_size=8))
    rows[0][0] = draw(st.sampled_from([-1, 1])) * max(1, abs(rows[0][0]))
    i = draw(st.integers(0, len(rows) - 1))
    k = draw(st.integers(0, len(rays) - 1))
    target = draw(st.sampled_from([None, -1, 0, 1, "-bound", "+bound"]))
    if target in (-1, 0, 1):
        rows[i][0] = 1
        rays[k][0] = target - sum(map(mul, rows[i][1:], rays[k][1:]))
    elif target is not None:
        top_row = max(abs(x) for row in rows for x in row)
        top_ray = max(abs(x) for ray in rays for x in ray)
        rows[i] = [top_row if target == "+bound" else -top_row] * d
        rays[k] = [top_ray] * d
    first = draw(st.integers(1, len(rays) - 1))
    kept = draw(st.lists(st.integers(0, first - 1), unique=True))
    return ([tuple(v) for v in rows], [tuple(v) for v in rays], first,
            draw(st.permutations(kept)))


@given(packing_cases())
@example(([(1, 0)], [(2 ** 80, 0), (-(2 ** 80), 0)], 1, []))
@example(([(1,)], [(0,), (1,), (-1,)], 1, [0]))
def test_packed_signs_and_digits_match_dot_products(case):
    rows, rays, first, kept = case
    d = len(rows[0])
    table = list(rays[:first])
    packed = cones._PackedRays(d * max(abs(x) for r in rows for x in r),
                               table)
    steps = [list(range(first))]
    table.extend(rays[first:])
    steps.append(kept + list(range(first, len(rays))))
    for i, live in enumerate(steps):
        if i:
            packed.update(table, live)
        for row in rows:
            dots = [sum(map(mul, row, table[k])) for k in live]
            assert list(packed.signs(row)) == [(s > 0) + (s >= 0)
                                               for s in dots]
            assert [packed.pairing(k) for k in live] == dots
    # The packed width must have held every pairing, as the guard demands.
    assert max(abs(x) for ray in rays for x in ray) <= packed.limit


# ---------------------------------------------------------------------------
# linear programs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: constraint([1], "<=", 0),
    lambda: LinearConstraint((Fraction(1),), "<", Fraction(0)),
])
def test_constraint_rejects_an_unknown_relation(make):
    with pytest.raises(ValueError, match="relation must be one of"):
        make()


def test_lp_simple_infeasible_with_certificate():
    lp = LinearProgram(1, (constraint([1], ">=", 0),
                           constraint([-1], ">=", 1)))
    res = lp_feasible(lp)
    assert not res.feasible
    assert check_infeasibility_certificate(lp, res.certificate)


def test_lp_simple_feasible_point():
    lp = LinearProgram(1, (constraint([1], ">=", 0),
                           constraint([-1], ">=", -1)))
    res = lp_feasible(lp)
    assert res.feasible
    assert 0 <= res.point[0] <= 1


def test_lp_strict_infeasible_zero_width():
    lp = LinearProgram(1, (constraint([1], ">=", 1),
                           constraint([-1], ">=", -1),
                           constraint([1], ">", 1)))
    res = lp_feasible(lp)
    assert not res.feasible
    mu = res.certificate
    assert check_infeasibility_certificate(lp, mu)
    # the contradiction must genuinely use the strict row
    rhs = sum(m * c.bound for m, c in zip(mu, lp.constraints))
    if rhs == 0:
        assert mu[2] > 0


def test_lp_strict_feasible_interior_point():
    lp = LinearProgram(1, (constraint([1], ">", 0),
                           constraint([-1], ">=", -1)))
    res = lp_feasible(lp)
    assert res.feasible
    assert 0 < res.point[0] <= 1


def test_lp_opposed_strict_pair_infeasible():
    lp = LinearProgram(1, (constraint([1], ">", 0),
                           constraint([-1], ">", 0)))
    res = lp_feasible(lp)
    assert not res.feasible
    assert check_infeasibility_certificate(lp, res.certificate)


def test_lp_equality_feasible_and_infeasible():
    lp = LinearProgram(1, (constraint([1], "=", 2),))
    res = lp_feasible(lp)
    assert res.feasible and res.point == (Fraction(2),)
    lp2 = LinearProgram(1, (constraint([1], "=", 2),
                            constraint([1], ">=", 3)))
    res2 = lp_feasible(lp2)
    assert not res2.feasible
    assert check_infeasibility_certificate(lp2, res2.certificate)


def test_lp_two_vars_strict():
    lp = LinearProgram(2, (constraint([1, 1], ">", 1),
                           constraint([1, -1], ">=", 0),
                           constraint([-1, 0], ">=", -2)))
    res = lp_feasible(lp)
    assert res.feasible
    x, y = res.point
    assert x + y > 1 and x - y >= 0 and x <= 2


def test_lp_unbounded_strict_direction():
    lp = LinearProgram(1, (constraint([1], ">", 5),))
    res = lp_feasible(lp)
    assert res.feasible
    assert res.point[0] > 5


def test_certificate_checker_rejects_junk():
    lp = LinearProgram(1, (constraint([1], ">=", 0),
                           constraint([-1], ">=", 1)))
    assert not check_infeasibility_certificate(lp, (1,))          # wrong len
    assert not check_infeasibility_certificate(lp, (-1, 1))       # neg on >=
    assert not check_infeasibility_certificate(lp, (0, 0))        # trivial
    assert not check_infeasibility_certificate(lp, (2, 1))        # combo != 0
    assert check_infeasibility_certificate(lp, (1, 1))


@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(
            st.tuples(*[st.integers(-3, 3) for _ in range(n)]),
            st.sampled_from([">=", ">", "="]),
            st.integers(-3, 3)),
            min_size=1, max_size=5))))
def test_lp_verdicts_are_certified(data):
    n, rows = data
    lp = LinearProgram(n, tuple(constraint(a, rel, b) for a, rel, b in rows))
    res = lp_feasible(lp)
    if res.feasible:
        for c in lp.constraints:
            v = dot(c.coeffs, res.point)
            if c.relation == ">=":
                assert v >= c.bound
            elif c.relation == ">":
                assert v > c.bound
            else:
                assert v == c.bound
    else:
        assert check_infeasibility_certificate(lp, res.certificate)


def test_lp_six_row_system_is_certified_quickly():
    # Fourier-Motzkin elimination needs tens of seconds on this infeasible
    # system; the simplex reduction needs milliseconds.
    lp = LinearProgram(4, (constraint([-1, 3, 3, -3], ">=", -1),
                           constraint([2, 0, 2, -3], "=", -4),
                           constraint([-3, -2, -1, -1], ">", 4),
                           constraint([2, 3, -1, 0], "=", 2),
                           constraint([3, 0, -2, 3], ">", Fraction(-1, 3)),
                           constraint([-2, -1, 3, 3], "=", 2)))
    start = time.perf_counter()
    res = lp_feasible(lp)
    assert time.perf_counter() - start < 1.0
    assert not res.feasible
    assert check_infeasibility_certificate(lp, res.certificate)
