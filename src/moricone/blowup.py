"""Relative numerics of a two-step blowup X -> X' -> X''.

The first blowup has center A'' of codimension a, the second the strict
transform of B'' (codimension b); the centers meet in Z'' with components of
codimension a + b - c_i.  Everything the classifier needs is carried by the
triple (a, b, {c_i}) plus the inclusion flag a_subset_b.

Divisor/curve conventions: E and F are the two exceptional divisors (first
and second step), e and f the standard fiber curves; the intersection table
between them is the 2x2 matrix returned by :func:`relative_pairing`.  The
relative cones are shown mutually dual by the matrix of their rays' pairings.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import PolyCone, generated


@dataclass(frozen=True)
class ConstructionParams:
    """Numerical data of the two centers and their intersection.

    ``components`` lists the defect c_i of each component of the center
    intersection (codimension a + b - c_i).  ``a_subset_b`` must mirror the
    presence of a component with c_i = b.  The construction assumes that the
    second center is not contained in the first (its strict transform would
    be empty).
    """

    a: int
    b: int
    components: tuple[int, ...]
    a_subset_b: bool = False

    def __post_init__(self):
        if self.a < 2 or self.b < 2:
            raise ValueError("both codimensions must be at least 2")
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("at least one intersection component is required")
        lo, hi = 1, min(self.a, self.b)
        for c in comps:
            if not (lo <= c <= hi):
                raise ValueError(
                    f"component defect {c} outside [1, min(a, b)] = [{lo}, {hi}]")
        has_cb = any(c == self.b for c in comps)
        if self.a_subset_b != has_cb:
            raise ValueError(
                "a_subset_b flag inconsistent with components: it must be set "
                "exactly when some c_i equals b")


@dataclass(frozen=True)
class ContractionReport:
    is_small: bool
    is_K_extremal: bool
    K_dot_e: int
    exceptional_component_codims: tuple[int, ...]
    target_description: str
    birational_modification: str  # "flip" | "flop" | "none"


@dataclass(frozen=True)
class RelativeCones:
    nef: PolyCone
    ne: PolyCone
    pairing: tuple[tuple[int, ...], ...]   # nef ray i . curve ray j
    mutually_dual: bool


def relative_pairing() -> tuple[tuple[int, int], tuple[int, int]]:
    """Intersection table: rows (E, F) against columns (e, f)."""
    return ((-1, 0), (1, -1))


def relative_cones() -> RelativeCones:
    """Relative Nef and NE cones over the base, with their duality decided
    from the pairing matrix ``P`` of nef rays ``g_i`` against curve rays.

    Nef is generated by -E and -(E+F) (coordinates in the (E, F) basis), NE
    by the curves e, f (their own coordinates); both are bases of the plane.
    ``x = sum a_i g_i`` pairs nonnegatively with NE exactly when ``P^T a >=
    0``, and that set is cone(g) = {a >= 0} exactly when ``P`` is a positive
    monomial matrix (one positive entry in each row and each column, zeros
    elsewhere); likewise with the sides swapped.  A singular ``P`` means one
    side's pairings do not span: its dual contains a line, so it is not dual.
    """
    m = relative_pairing()
    nef = generated(2, [(-1, 0), (-1, -1)])
    ne = generated(2, [(1, 0), (0, 1)])
    pairing = tuple(tuple(sum(g[i] * m[i][j] * c[j]
                              for i in range(2) for j in range(2))
                          for c in ne.rays) for g in nef.rays)
    monomial = all(min(line) >= 0 and sum(map(bool, line)) == 1
                   for line in pairing + tuple(zip(*pairing)))
    return RelativeCones(nef, ne, pairing, len(pairing) == 2 and monomial)


def k_degree(params: ConstructionParams) -> tuple[int, int]:
    """(K.e, K.f) from K = (pullback) + (a-1)E + (b-1)F and the table."""
    a, b = params.a, params.b
    m = relative_pairing()
    ke = (a - 1) * m[0][0] + (b - 1) * m[1][0]
    kf = (a - 1) * m[0][1] + (b - 1) * m[1][1]
    if (ke, kf) != (b - a, -(b - 1)):
        raise AssertionError("K-degrees disagree with the intersection table")
    return ke, kf


TARGET_DESCRIPTION = "blowup of X'' along A'' ∪ B''"


def classify(params: ConstructionParams) -> ContractionReport:
    """Classify the contraction of the curve class e.

    Small exactly when every intersection component has defect c_i < b
    (otherwise the component with c_i = b contributes a divisor); K-extremal
    exactly when a > b; a small K-extremal contraction admits a flip, a small
    K-trivial one a flop.
    """
    ke, _ = k_degree(params)
    small = max(params.components) < params.b
    k_extremal = params.a > params.b
    if small and k_extremal:
        modification = "flip"
    elif small and params.a == params.b:
        modification = "flop"
    else:
        modification = "none"
    return ContractionReport(
        is_small=small,
        is_K_extremal=k_extremal,
        K_dot_e=ke,
        exceptional_component_codims=tuple(
            params.b - c + 1 for c in params.components),
        target_description=TARGET_DESCRIPTION,
        birational_modification=modification,
    )

