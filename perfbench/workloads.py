"""The three workloads: inputs made from a seed, the items a batch runs, and
the check each item's output must pass.

An item is one timed call into moricone's public API: one cone-equality cell,
one ``dual`` or one ``cli.run``.  Every check compares against an answer the
code under test does not produce: a count or pattern from the paper, the
input cone itself (``dual(dual(C)) == C``), an independent oracle from
``tests/oracles.py``, or a certificate file shipped in ``certs/``.
Calls go through module attributes (``cones.dual``, ``cli.run``) so the
tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd
from pathlib import Path
from typing import Any, Callable, Optional

from moricone import certificates, cli, cones, delpezzo
from moricone import scenario as sc
from tests.oracles import dual_by_facet_enumeration

ROOT = Path(__file__).resolve().parents[1]
CERTS = ROOT / "certs"
EXAMPLES = ((2, 2, 2), (3, 2, 2), (2, 3, 3))
MINUS_ONE_COUNTS = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}


@dataclass
class Item:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]   # None when the output is right


def build(workload: str, seed: int, scratch: Path) -> list[Item]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cone_equality":
        return cone_equality(rng)
    if workload == "double_description":
        return double_description(rng)
    if workload == "cli_mix":
        return cli_mix(rng, scratch)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# cone_equality
# ---------------------------------------------------------------------------

def cone_equality(rng: random.Random) -> list[Item]:
    """Every (r1, r2) cell with r2 <= 5, in seeded order.  The four r2 = 6
    cells take 8-13 s each; with them a run holds a single batch, and its
    timings did not settle on a shared machine.  Cells with r2 in {7, 8}
    return "containment only" within milliseconds today, so they would
    measure the gate, not the proof."""
    cells = [(r1, r2) for r1 in range(sc.MAX_R1 + 1) for r2 in range(6)]
    rng.shuffle(cells)
    return [Item(f"cell({r1},{r2})",
                 lambda r1=r1, r2=r2: sc.verify_theorem(sc.build_scenario(r1, r2)),
                 _check_cell)
            for r1, r2 in cells]


def _check_cell(v) -> Optional[str]:
    if not v.containment_ok:
        return f"containment refuted: {v.containment_witness}"
    if v.equality_status != sc.EQ_EQUAL:
        return f"equality status {v.equality_status!r}, expected equal"
    return None


# ---------------------------------------------------------------------------
# double_description
# ---------------------------------------------------------------------------

# Random cones over points on the paraboloid x -> (1, x, |x|^2): every input
# ray is extremal (strict convexity), so dual(dual(C)) must return C itself.
# (cones, dimension of x, points, coordinate range).  The small ones are also
# checked against the facet-enumeration oracle.  The sizes keep every random
# dual faster than the scenario duals, so the median and 90th-percentile
# items are scenario duals, whose inputs do not depend on the seed.
RANDOM_CONES = (4, 4, 20, 1000)
SMALL_RANDOM_CONES = (2, 3, 8, 50)


def double_description(rng: random.Random) -> list[Item]:
    """``dual`` and the dual back, on three kinds of input: the degenerate
    del Pezzo (-1)-class cones (unpruned pairing rows of dP6 and dP7, whose
    second dual is the 702-ray dP7 nef cone dualised back to 56 rays), the
    r2 = 7 scenario curve cones, and seeded random cones in general
    position.  dP8 (about 44 s for one dual) does not fit the run length."""
    inputs = []
    for r in (6, 7):
        L = delpezzo.build(r)
        rows = [(c[0],) + tuple(-x for x in c[1:])
                for c in delpezzo.minus_one_classes(L)]
        inputs.append((f"dP{r}", _cone(r + 1, rows), False))
    for r1 in range(sc.MAX_R1 + 1):
        s = sc.build_scenario(r1, 7)
        inputs.append((f"scenario({r1},7)",
                       _cone(s.rho, [c.vector for c in s.ne_curves()]), False))
    for tag, (count, k, n, radius), oracle in (
            ("random", RANDOM_CONES, False), ("small", SMALL_RANDOM_CONES, True)):
        for i in range(count):
            inputs.append((f"{tag}{i}", _paraboloid_cone(rng, k, n, radius),
                           oracle))
    rng.shuffle(inputs)
    items = []
    for label, cone, oracle in inputs:
        items.extend(_round_trip(label, cone, oracle))
    return items


def _cone(dim: int, rays) -> cones.PolyCone:
    """Canonical form built here rather than by ``cone_from_rays``, so the
    workload runs ``dual`` and nothing else."""
    prim = set()
    for r in rays:
        g = 0
        for x in r:
            g = gcd(g, x)
        prim.add(tuple(x // g for x in r))
    return cones.PolyCone(dim, tuple(sorted(prim)))


def _paraboloid_cone(rng: random.Random, k: int, n: int,
                     radius: int) -> cones.PolyCone:
    points = set()
    while len(points) < n:
        points.add(tuple(rng.randint(-radius, radius) for _ in range(k)))
    return _cone(k + 2, [(1,) + p + (sum(x * x for x in p),) for p in points])


def _round_trip(label: str, cone: cones.PolyCone, oracle: bool) -> list[Item]:
    state = {}

    def forward():
        state["dual"] = cones.dual(cone)
        return state["dual"]

    def check_forward(d) -> Optional[str]:
        if oracle and list(d.rays) != dual_by_facet_enumeration(list(cone.rays)):
            return "dual disagrees with the facet-enumeration oracle"
        return None

    def check_back(dd) -> Optional[str]:
        if dd.rays != cone.rays:
            return f"dual(dual(C)) has {len(dd.rays)} rays, C has {len(cone.rays)}"
        return None

    return [Item(f"dual({label})", forward, check_forward),
            Item(f"dual(dual({label}))", lambda: cones.dual(state["dual"]),
                 check_back)]


# ---------------------------------------------------------------------------
# cli_mix
# ---------------------------------------------------------------------------

def cli_mix(rng: random.Random, scratch: Path) -> list[Item]:
    """One of each call below, in seeded order; ``classify construction``
    takes seeded parameters."""
    calls = []
    for n1, n2, d in EXAMPLES:
        for kind in ("chain", "grid"):
            path = CERTS / f"tsukioka_{n1}_{n2}_{d}_{kind}.json"
            calls.append((["cert", "verify", str(path.relative_to(ROOT))],
                          _check_cert_verify(path, d if kind == "grid" else None)))
        calls.append((["cert", "example-tsukioka", "--n1", str(n1),
                       "--n2", str(n2), "--d", str(d)],
                      _check_example(n1, n2, d)))
    calls.append((["dp", "classify-all"], _check_classify_all))
    for r in range(1, 9):
        calls.append((["dp", "minus-one", "--r", str(r)], _check_minus_one(r)))
    for r1 in range(sc.MAX_R1 + 1):
        for r2 in range(7):
            calls.append((["dp", "scenario", "--r1", str(r1), "--r2", str(r2),
                           "--classify"], _check_scenario(r1, r2)))
    constructions = [(a, b, comps) for a in range(2, 7) for b in range(2, 7)
                     for k in (1, 2, 3)
                     for comps in combinations_with_replacement(
                         range(1, min(a, b) + 1), k)]
    a, b, comps = rng.choice(constructions)
    argv = ["classify", "construction", "--a", str(a), "--b", str(b),
            "--c", ",".join(map(str, comps))]
    if b in comps:
        argv.append("--a-in-b")
    calls.append((argv, _check_construction(a, b, comps)))
    calls.append((["cones", "relative"], _check_relative))
    rng.shuffle(calls)
    return [_cli_item(i, argv, check, scratch)
            for i, (argv, check) in enumerate(calls)]


def _cli_item(i: int, argv: list[str], check, scratch: Path) -> Item:
    out = scratch / f"{i}.json"

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv + ["--out", str(out)])
        return code, buf.getvalue()

    def check_call(result) -> Optional[str]:
        code, text = result
        if code != 0:
            return f"exit code {code}"
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        return check(doc, text)

    return Item(" ".join(argv), run, check_call)


def _check_cert_verify(path: Path, d: Optional[int]):
    def check(doc, text):
        if doc["verdicts"].get("certificate") != "verified":
            return f"verdict {doc['verdicts']}"
        if d is not None:
            # The grid's double-difference checks must reach d^2 - 1.
            with open(path, encoding="utf-8") as fh:
                grid = certificates.certificate_from_dict(json.load(fh))
            values = [x for rec in certificates.verify_HEF_hypotheses(grid).checks
                      for x in rec.value]
            if Fraction(d * d - 1) not in values:
                return f"grid checks never reach d^2 - 1 = {d * d - 1}"
        return None
    return check


def _check_example(n1: int, n2: int, d: int):
    def check(doc, text):
        if doc["verdicts"].get("chain") != "verified" \
                or doc["verdicts"].get("grid") != "verified":
            return f"verdicts {doc['verdicts']}"
        for kind in ("chain", "grid"):
            with open(CERTS / f"tsukioka_{n1}_{n2}_{d}_{kind}.json",
                      encoding="utf-8") as fh:
                if doc[f"{kind}_certificate"] != json.load(fh):
                    return f"{kind} certificate differs from the shipped file"
        return None
    return check


def _fano(r1, r2):
    return (r1, r2) == (0, 0)


def _weak_fano(r1, r2):
    return r2 in (0, 1)


def _check_classify_all(doc, text):
    grid = [(r1, r2) for r1 in range(sc.MAX_R1 + 1) for r2 in range(sc.MAX_R2 + 1)]
    expected = {
        "fano_cells": [[r1, r2] for r1, r2 in grid if _fano(r1, r2)],
        "weak_fano_cells": [[r1, r2] for r1, r2 in grid if _weak_fano(r1, r2)],
        "fano_type_cells": [[r1, r2] for r1, r2 in grid if _weak_fano(r1, r2)],
    }
    for key, cells in expected.items():
        if doc["verdicts"][key] != cells:
            return f"{key} = {doc['verdicts'][key]}"
    return None


def _check_minus_one(r: int):
    def check(doc, text):
        classes = [tuple(c) for c in doc["classes"]]
        if doc["count"] != MINUS_ONE_COUNTS[r] or len(set(classes)) != MINUS_ONE_COUNTS[r]:
            return f"{doc['count']} classes, expected {MINUS_ONE_COUNTS[r]}"
        for c in classes:
            square = c[0] * c[0] - sum(x * x for x in c[1:])
            k_degree = -3 * c[0] - sum(c[1:])
            if (square, k_degree) != (-1, -1):
                return f"class {c} has D.D = {square}, D.K = {k_degree}"
        return None
    return check


def _check_scenario(r1: int, r2: int):
    def check(doc, text):
        v = doc["verdicts"]
        want = (_fano(r1, r2), _weak_fano(r1, r2), _weak_fano(r1, r2))
        got = (v.get("fano"), v.get("weak_fano"), v.get("fano_type"))
        if got != want:
            return f"(fano, weak fano, fano type) = {got}, expected {want}"
        return None
    return check


def _check_construction(a: int, b: int, comps):
    small = max(comps) < b
    modification = ("flip" if small and a > b
                    else "flop" if small and a == b else "none")
    want = {"is_small": small, "is_K_extremal": a > b, "K_dot_e": b - a,
            "birational_modification": modification}

    def check(doc, text):
        if doc["verdicts"] != want:
            return f"verdicts {doc['verdicts']}, expected {want}"
        return None
    return check


def _check_relative(doc, text):
    if doc["verdicts"].get("relative_duality") != "verified":
        return f"verdicts {doc['verdicts']}"
    for line in ("curve cone rays (e, f coordinates): [[0, 1], [1, 0]]",
                 "nef cone rays (E, F coordinates): [[-1, -1], [-1, 0]]"):
        if line not in text:
            return f"missing {line!r}"
    return None
