"""Independent reference implementations used only by the test suite.

Everything here is deliberately written with *different* algorithms from the
package (matrix inversion / facet-subset enumeration / multiset search
instead of double description / simplex / coordinate DFS), so agreement is
meaningful.
"""

import dataclasses
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import gcd, isqrt

from moricone import scenario as sc
from moricone.certificates import (build_product_certificates,
                                   verify_HE_hypotheses, verify_HEF_hypotheses)


def _primitive(v):
    den = 1
    fr = [Fraction(x) for x in v]
    for x in fr:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in fr]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g == 0:
        return tuple(ints)
    return tuple(x // g for x in ints)


def _rank_and_kernel(rows, d):
    """Gaussian elimination; returns (rank, kernel_basis)."""
    mat = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    echelon = []
    for row in mat:
        v = row[:]
        for e, p in zip(echelon, pivots):
            if v[p] != 0:
                c = v[p] / e[p]
                v = [a - c * b for a, b in zip(v, e)]
        piv = next((j for j, x in enumerate(v) if x != 0), None)
        if piv is not None:
            echelon.append(v)
            pivots.append(piv)
    rank = len(pivots)
    kernel = []
    free = [j for j in range(d) if j not in pivots]
    for f in free:
        z = [Fraction(0)] * d
        z[f] = Fraction(1)
        for e, p in sorted(zip(echelon, pivots), key=lambda t: -t[1]):
            z[p] = -sum(e[j] * z[j] for j in range(d) if j != p) / e[p]
        kernel.append(z)
    return rank, kernel


def dual_by_inverse(gens):
    """Dual of a *simplicial full-dimensional* cone: columns of G^{-1}."""
    d = len(gens[0])
    if len(gens) != d:
        raise ValueError("oracle requires exactly d generators")
    a = [[Fraction(x) for x in row] for row in gens]
    inv = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for col in range(d):
        piv = next(r for r in range(col, d) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        c = a[col][col]
        a[col] = [x / c for x in a[col]]
        inv[col] = [x / c for x in inv[col]]
        for r in range(d):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    cols = []
    for k in range(d):
        cols.append(_primitive([inv[i][k] for i in range(d)]))
    return sorted(set(cols))


def dual_by_facet_enumeration(gens):
    """Dual cone rays by brute force over (d-1)-subsets of the constraints.

    Valid whenever the generators span the space (so the dual is pointed):
    every extremal ray of the dual is the kernel of d-1 independent active
    constraints, and conversely any feasible kernel direction of such a
    subset spans a 1-dimensional face.
    """
    d = len(gens[0])
    rank, _ = _rank_and_kernel(gens, d)
    if rank != d:
        raise ValueError("oracle requires spanning generators")
    if d == 1:
        # Subsets of size 0: the dual is a half-line or {0}; handle directly.
        sgn = set(1 if g[0] > 0 else -1 for g in gens)
        return [(1,)] if sgn == {1} else ([(-1,)] if sgn == {-1} else [])
    rays = set()
    for sub in combinations(range(len(gens)), d - 1):
        rows = [gens[i] for i in sub]
        rank, kernel = _rank_and_kernel(rows, d)
        if rank != d - 1:
            continue
        z = _primitive(kernel[0])
        for cand in (z, tuple(-x for x in z)):
            if all(sum(a * b for a, b in zip(g, cand)) >= 0 for g in gens):
                rays.add(cand)
    return sorted(rays)


def minus_one_multiset_counts(r):
    """Solutions of  sum(m) = 3d - 1,  sum(m^2) = d^2 + 1  (m integer),
    found over sorted multisets with only the Cauchy-Schwarz degree bound and
    the |m_j| <= isqrt(d^2+1) root bound; expanded to full coordinate tuples.

    Returns the set of (d, m_1..m_r) class tuples.
    """
    classes = set()
    if r == 0:
        return classes
    d = 0
    while (3 * d - 1) ** 2 <= r * (d * d + 1):
        bound = isqrt(d * d + 1)
        for ms in combinations_with_replacement(range(-bound, bound + 1), r):
            if sum(ms) == 3 * d - 1 and sum(x * x for x in ms) == d * d + 1:
                for perm in set(permutations(ms)):
                    classes.add((d,) + tuple(-m for m in perm))
        d += 1
    return classes


def reference_catalog(r1, r2):
    """The cone-of-curves generators of cell (r1, r2), written out by hand
    as (name, vector) rather than lifted by one rule.

    Basis (H1, E1_*, H2, E2_*, E, F).  Besides e and f: the line l1 (r1 = 0),
    the lines l1_j through the j-th point and the first center's point, the
    exceptional curves e1_j and the lines e1_jk through two points; then the
    line l2 (r2 = 0), the fiber l2_1 (r2 = 1) and the lifts e2_k of the
    (-1)-classes, numbered in sorted order.
    """
    names = (["H1"] + [f"E1_{j}" for j in range(1, r1 + 1)]
             + ["H2"] + [f"E2_{j}" for j in range(1, r2 + 1)] + ["E", "F"])
    idx = {n: k for k, n in enumerate(names)}

    def vec(entries):
        v = [0] * len(names)
        for n, x in entries.items():
            v[idx[n]] = x
        return tuple(v)

    out = [("e", vec({"E": -1, "F": 1})), ("f", vec({"F": -1}))]
    if r1 == 0:
        out.append(("l1", vec({"H1": 1, "E": 1})))
    for j in range(1, r1 + 1):
        out.append((f"l1_{j}", vec({"H1": 1, f"E1_{j}": 1, "E": 1})))
        out.append((f"e1_{j}", vec({f"E1_{j}": -1})))
    for j1, j2 in combinations(range(1, r1 + 1), 2):
        out.append((f"e1_{j1}{j2}",
                    vec({"H1": 1, f"E1_{j1}": 1, f"E1_{j2}": 1})))
    if r2 == 0:
        out.append(("l2", vec({"H2": 1, "E": 1})))
    if r2 == 1:
        out.append(("l2_1", vec({"H2": 1, "E2_1": 1, "E": 1})))
    for k, cls in enumerate(sorted(minus_one_multiset_counts(r2)), 1):
        entries = {"H2": cls[0], "E": cls[0]}
        entries.update({f"E2_{j}": -cls[j] for j in range(1, r2 + 1)})
        out.append((f"e2_{k}", vec(entries)))
    return out


def reference_t1(r1):
    """The first-factor parts N1 of the mixed divisors T, written out by
    hand for r1 <= 3 as (name, class) with the class in the basis
    (H1, E1_1, ..., E1_r1): H1, the conics 2H1 - E1_j - E1_k through two
    points, and for r1 = 3 the conic through all three."""
    out = [("H1", (1,) + (0,) * r1)]
    for j1, j2 in combinations(range(1, r1 + 1), 2):
        out.append((f"2H1-E1_{j1}-E1_{j2}",
                    (2,) + tuple(-int(k in (j1, j2)) for k in range(1, r1 + 1))))
    if r1 == 3:
        out.append(("2H1-E1_1-E1_2-E1_3", (2, -1, -1, -1)))
    return out


def t_certificates_agree_with_membership(s):
    """For each divisor in T, nefness by membership in dual(NE) must agree
    with the product-certificate verdict.  Membership in the dual is by
    definition a nonnegative pairing with every curve generator, so no
    ``dual`` runs and every cell is cheap."""
    curves = [c.vector for c in s.ne_curves()]
    vectors = {nv.name: nv.vector for nv in sc.t_divisors(s)}
    results = {}
    for n1 in sc.t1_divisors(s):
        built = build_product_certificates(*sc.factor_chains_for_t1(s, n1))
        for suffix, verdict in (("+H2-E", verify_HE_hypotheses(built.chain)),
                                ("+H2-E-F", verify_HEF_hypotheses(built.grid))):
            name = n1.name + suffix
            member = all(sum(a * b for a, b in zip(vectors[name], g)) >= 0
                         for g in curves)
            results[name] = {"membership": member, "certificate": verdict.ok,
                             "agree": member == verdict.ok}
    return results


def containment_by_pairs(curves, claimed):
    """The first negative pairing of a claim with a curve, claims outer and
    curves inner, as a witness; None when there is none.  One sum per
    (claim, curve) pair, with no packing."""
    for nv in claimed:
        for c in curves:
            val = sum(a * b for a, b in zip(nv.vector, c.vector, strict=True))
            if val < 0:
                return {"divisor": nv.name, "curve": c.name, "pairing": val}
    return None


def relaxed_refutation_system():
    """``scenario.refutation_system`` with its strict rows made non-strict:
    the boundary point it then admits shows that strictness is what makes
    the refutation infeasible."""
    lp = sc.refutation_system()
    return dataclasses.replace(lp, constraints=tuple(
        dataclasses.replace(c, relation=">=") if c.relation == ">" else c
        for c in lp.constraints))


def jsonable_by_asdict(x):
    """A report value in the plain form ``json.dumps`` takes, as the CLI
    built it before it wrote reports in one walk: ``dataclasses.asdict``
    deep-copies a dataclass first, and the copy is then walked by
    ``isinstance`` tests."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, bool) or isinstance(x, int) or isinstance(x, str) or x is None:
        return x
    if isinstance(x, float):
        raise TypeError("refusing to serialize a float in an exact report")
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return jsonable_by_asdict(dataclasses.asdict(x))
    if isinstance(x, dict):
        return {str(k): jsonable_by_asdict(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable_by_asdict(v) for v in x]
    raise TypeError(f"cannot serialize {type(x).__name__}")
