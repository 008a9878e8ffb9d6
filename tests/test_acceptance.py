"""Acceptance suite: one test per acceptance criterion, each printing a
single pass/fail line under ``pytest -v`` and asserting its stated runtime
bound where one exists.  All arithmetic is exact; no tolerances anywhere.
"""

import json
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest

from moricone import blowup, delpezzo
from moricone import scenario as sc
from moricone.certificates import (ChainCertificate, GridCertificate,
                                   certificate_from_dict,
                                   verify_HE_hypotheses,
                                   verify_HEF_hypotheses)
from moricone.cones import (LinealityError,
                            check_infeasibility_certificate, cone_from_rays,
                            cones_equal, dot, dual, lp_feasible)

from .conftest import CERTS_DIR
from .oracles import (minus_one_multiset_counts, relaxed_refutation_system,
                      t_certificates_agree_with_membership)


class stopwatch:
    def __init__(self, limit_seconds):
        self.limit = limit_seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.t0
            assert elapsed < self.limit, \
                f"ran {elapsed:.2f}s, budget {self.limit}s"


def test_criterion_01_relative_duality():
    # dual(cone{e, f}) under the pairing [[-1, 0], [1, -1]] is cone{-E, -E-F}
    # and vice versa, both directions recomputed exactly.
    with stopwatch(1.0):
        rows = blowup.relative_pairing()
        assert rows == ((-1, 0), (1, -1))
        # curves as functionals on (E, F)-divisors: columns of the table
        e_fun, f_fun = ((rows[0][0], rows[1][0]), (rows[0][1], rows[1][1]))
        nef = dual(cone_from_rays(2, [e_fun, f_fun]))
        assert nef.rays == ((-1, -1), (-1, 0))  # -E-F and -E
        # divisors as functionals on (e, f)-curves: -E pairs (1, 0) with
        # (e, f) and -(E+F) pairs (0, 1), read off the same table
        minus_e = (-rows[0][0], -rows[0][1])
        minus_ef = (-(rows[0][0] + rows[1][0]), -(rows[0][1] + rows[1][1]))
        assert (minus_e, minus_ef) == ((1, 0), (0, 1))
        curves = dual(cone_from_rays(2, [minus_e, minus_ef]))
        assert curves.rays == ((0, 1), (1, 0))
        rc = blowup.relative_cones()
        assert rc.mutually_dual


def test_criterion_02_contraction_grid():
    with stopwatch(1.0):
        for a in range(2, 7):
            for b in range(2, 7):
                for k in (1, 2, 3):
                    for comps in combinations_with_replacement(
                            range(1, min(a, b) + 1), k):
                        p = blowup.ConstructionParams(
                            a, b, comps,
                            a_subset_b=any(c == b for c in comps))
                        r = blowup.classify(p)
                        small = max(comps) < b
                        assert r.is_small == small
                        assert r.is_K_extremal == (a > b)
                        assert (r.birational_modification == "flip") \
                            == (small and a > b)
                        assert (r.birational_modification == "flop") \
                            == (small and a == b)
                        ke, _ = blowup.k_degree(p)
                        assert ke == b - a


def test_criterion_03_nef_and_curve_cones():
    with stopwatch(600.0):
        for r1 in range(4):
            for r2 in range(9):
                v = sc.verify_theorem(sc.build_scenario(r1, r2))
                assert v.containment_ok, (r1, r2)
                assert v.equality_status == sc.EQ_EQUAL, (r1, r2)


def test_criterion_04_classification_grid():
    with stopwatch(5.0):
        table = sc.classify_all()
        assert len(table) == 36
        for (r1, r2), res in table.items():
            assert res.fano == (r1 == 0 and r2 == 0), (r1, r2)
            assert res.weak_fano == (r2 in (0, 1)), (r1, r2)
            assert res.fano_type == res.weak_fano, (r1, r2)
            if not res.fano:
                w = res.witnesses
                assert "not_fano" in w or "not_weak_fano" in w
                if "not_fano" in w:
                    assert w["not_fano"]["pairing"] <= 0
            if not res.fano_type:
                assert res.witnesses["not_fano_type"]["certificate"], (r1, r2)


def test_criterion_05_delta_certificate_values():
    for r1, r2 in ((1, 1), (3, 1)):
        s = sc.build_scenario(r1, r2)
        cert = sc.delta_certificate(s)["pairings"]
        assert cert["e"] == Fraction(2, 3)
        assert cert["f"] == Fraction(2, 3)
        assert cert["e2_1"] == 1
        mk = sc.anticanonical(s)
        vectors = {c.name: c.vector for c in s.curves}
        for j in range(1, r1 + 1):
            assert cert[f"l1_{j}"] == Fraction(1, 3)
            assert cert[f"e1_{j}"] == 1
            assert dot(mk, vectors[f"l1_{j}"]) == 0
        assert cert["l2_1"] == Fraction(1, 3)
        assert dot(mk, vectors["l2_1"]) == 0


def test_criterion_06_not_fano_type_lp():
    with stopwatch(1.0):
        for r2 in range(2, 9):
            res = sc.not_fano_type_refutation(sc.build_scenario(0, r2))
            assert check_infeasibility_certificate(res.lp, res.certificate)
        strict = lp_feasible(sc.refutation_system())
        relaxed = lp_feasible(relaxed_refutation_system())
        assert not strict.feasible and strict.certificate is not None
        assert relaxed.feasible and relaxed.point is not None


def test_criterion_07_minus_one_classes():
    expected = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}
    with stopwatch(10.0):
        for r, count in expected.items():
            lattice = delpezzo.build(r)
            classes = delpezzo.minus_one_classes(lattice)
            assert len(classes) == count, r
            # independent multiset-search oracle
            assert set(classes) == minus_one_multiset_counts(r), r
            k = lattice.canonical_class
            for cls in classes:
                assert delpezzo.pair(lattice, cls, cls) == -1
                assert delpezzo.pair(lattice, cls, k) == -1
            # permutation closure: transpositions generate the full group
            class_set = set(classes)
            for cls in classes:
                for i in range(1, r):
                    swapped = list(cls)
                    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                    assert tuple(swapped) in class_set


def test_criterion_08_shipped_certificates():
    with stopwatch(1.0):
        for n1, n2, d in ((2, 2, 2), (3, 2, 2), (2, 3, 3)):
            chain_path = CERTS_DIR / f"tsukioka_{n1}_{n2}_{d}_chain.json"
            grid_path = CERTS_DIR / f"tsukioka_{n1}_{n2}_{d}_grid.json"
            with open(chain_path, encoding="utf-8") as fh:
                chain = certificate_from_dict(json.load(fh))
            with open(grid_path, encoding="utf-8") as fh:
                grid = certificate_from_dict(json.load(fh))
            assert isinstance(chain, ChainCertificate)
            assert isinstance(grid, GridCertificate)
            cv = verify_HE_hypotheses(chain)
            gv = verify_HEF_hypotheses(grid)
            assert cv.ok, (n1, n2, d)
            assert gv.ok, (n1, n2, d)
            flat = [x for rec in gv.checks for x in rec.value]
            assert Fraction(d * d - 1) in flat, (n1, n2, d)


def test_criterion_09_membership_certificate_cross_validation():
    for r1 in range(sc.MAX_R1 + 1):
        for r2 in range(sc.MAX_R2 + 1):
            s = sc.build_scenario(r1, r2)
            results = t_certificates_agree_with_membership(s)
            assert len(results) == 2 * len(sc.t1_divisors(s))
            for name, res in results.items():
                assert res["agree"], (r1, r2, name)
                assert res["membership"] and res["certificate"], (r1, r2, name)


def _random_pointed_spanning_cone(rng):
    while True:
        dim = rng.randint(2, 6)
        nrays = rng.randint(dim, dim + 3)
        raw = [tuple(rng.randint(-3, 3) for _ in range(dim))
               for _ in range(nrays)]
        try:
            c = cone_from_rays(dim, raw)
        except LinealityError:
            continue
        if len(c.rays) < dim:
            continue
        try:
            d = dual(c)
        except LinealityError:
            continue
        if not d.rays:
            continue
        return c, d


def test_criterion_10_property_suites():
    with stopwatch(30.0):
        rng = random.Random(20260815)
        for _ in range(200):
            c, d = _random_pointed_spanning_cone(rng)
            assert dual(d).rays == c.rays
