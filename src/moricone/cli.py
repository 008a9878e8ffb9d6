"""Command-line front end.

Every subcommand prints a deterministic human-readable report to stdout (or a
JSON report document with ``--json`` / ``--format json``) and can mirror the
JSON document to a file with ``--out``.  Exit codes: 0 = everything requested
verified, 1 = a verification was refuted (the report carries a witness),
2 = usage or input error (an unreadable input file or an unwritable ``--out``
file included), 3 = internal error (a failed internal check; the
traceback goes to stderr and no verdict is printed).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import traceback
from dataclasses import asdict, is_dataclass
from fractions import Fraction

from . import __version__, blowup, delpezzo
from . import scenario as sc
from .certificates import (
    CertificateError,
    GridCertificate,
    _num_out,
    build_product_certificates,
    certificate_from_dict,
    certificate_to_dict,
    tsukioka_factors,
    verify_HE_hypotheses,
    verify_HEF_hypotheses,
    verify_chain,
)
from .cones import ConeError

EXIT_VERIFIED = 0
EXIT_REFUTED = 1
EXIT_ERROR = 2
EXIT_INTERNAL = 3


# ---------------------------------------------------------------------------
# JSON plumbing
# ---------------------------------------------------------------------------

def jsonable(x):
    """Exact JSON form: fractions as 'p/q' strings (integers stay integers)."""
    if isinstance(x, Fraction):
        return _num_out(x)
    if isinstance(x, bool) or isinstance(x, int) or isinstance(x, str) or x is None:
        return x
    if isinstance(x, float):
        raise TypeError("refusing to serialize a float in an exact report")
    if is_dataclass(x) and not isinstance(x, type):
        return jsonable(asdict(x))
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _document(argv, extra: dict, verdicts: dict, witnesses: dict,
              t0: float) -> dict:
    doc = {"version": __version__, "command": list(argv)}
    doc.update(jsonable(extra))
    doc["verdicts"] = jsonable(verdicts)
    doc["witnesses"] = jsonable(witnesses)
    doc["timing_seconds"] = round(time.monotonic() - t0, 3)
    return doc


def _fmt(x) -> str:
    """Deterministic human-readable form of an exact value."""
    v = jsonable(x)
    return json.dumps(v) if not isinstance(v, str) else v


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit code, text lines, extra, verdicts,
# witnesses)
# ---------------------------------------------------------------------------

def _cmd_cones_relative(args):
    rc = blowup.relative_cones()
    rows = blowup.relative_pairing()
    ok = rc.duality_verdict.equal
    lines = [
        "pairing table, rows (E, F) x columns (e, f): "
        f"{_fmt(rows)}",
        f"curve cone rays (e, f coordinates): {_fmt(rc.ne.rays)}",
        f"nef cone rays (E, F coordinates): {_fmt(rc.nef.rays)}",
        "relative duality: " + ("verified (each cone is the exact dual of "
                                "the other)" if ok else "REFUTED"),
    ]
    verdicts = {"relative_duality": "verified" if ok else "refuted"}
    witnesses = {}
    if not ok:
        witnesses["duality"] = {"ray": rc.duality_verdict.witness_ray,
                                "side": rc.duality_verdict.witness_side}
    return (EXIT_VERIFIED if ok else EXIT_REFUTED), lines, {}, verdicts, witnesses


def _cmd_classify_construction(args):
    comps = tuple(int(x) for x in args.c.split(","))
    params = blowup.ConstructionParams(a=args.a, b=args.b, components=comps,
                                       a_subset_b=args.a_in_b)
    report = blowup.classify(params)
    lines = [
        f"centers: codim a = {params.a}, codim b = {params.b}, "
        f"intersection defects {list(params.components)}",
        f"second contraction is small: {report.is_small}",
        f"K-extremal: {report.is_K_extremal}",
        f"K . e = {report.K_dot_e}",
        f"exceptional component codimensions: "
        f"{list(report.exceptional_component_codims)}",
        f"target: {report.target_description}",
        f"birational modification: {report.birational_modification}",
    ]
    verdicts = {
        "is_small": report.is_small,
        "is_K_extremal": report.is_K_extremal,
        "K_dot_e": report.K_dot_e,
        "birational_modification": report.birational_modification,
    }
    return EXIT_VERIFIED, lines, {"report": report}, verdicts, {}


def _cmd_dp_scenario(args):
    s = sc.build_scenario(args.r1, args.r2)
    ne_gens = [{"name": c.name, "vector": c.vector} for c in s.curves]
    nef_gens = [{"name": nv.name, "vector": nv.vector}
                for nv in sc.factor_nef_vectors(s, 1) + sc.t_divisors(s)]
    extra = {"r1": s.r1, "r2": s.r2, "rho": s.rho,
             "ne_generators": ne_gens, "nef_generators": nef_gens}
    lines = [
        f"scenario (r1, r2) = ({s.r1}, {s.r2}): Picard rank {s.rho}, "
        f"{len(ne_gens)} curve generators, {len(nef_gens)} listed nef "
        f"generators (first-factor pullbacks and T); the second factor's "
        f"nef cone is pulled back",
    ]
    verdicts: dict = {}
    witnesses: dict = {}
    code = EXIT_VERIFIED

    if args.verify_cones:
        v = sc.verify_theorem(s)
        verdicts["containment"] = "verified" if v.containment_ok else "refuted"
        verdicts["equality"] = v.equality_status
        lines.append(f"containment of curve generators in the dual of the "
                     f"claimed nef cone: {verdicts['containment']}")
        lines.append(f"cone equality: {v.equality_status}")
        if v.containment_witness:
            witnesses["containment"] = v.containment_witness
        if v.equality_witness:
            witnesses["equality"] = v.equality_witness
        if not v.ok:
            code = EXIT_REFUTED

    if args.classify:
        res = sc.classify(s)
        verdicts["fano"] = res.fano
        verdicts["weak_fano"] = res.weak_fano
        verdicts["fano_type"] = res.fano_type
        witnesses.update(res.witnesses)
        lines.append(f"classification: Fano = {res.fano}, weak Fano = "
                     f"{res.weak_fano}, Fano type = {res.fano_type}")
    return code, lines, extra, verdicts, witnesses


_GRID_LABELS = {
    (True, True): "Fano",
    (False, True): "weak Fano",
    (False, False): "not Fano type",
}


def _cmd_dp_classify_all(args):
    table = sc.classify_all()
    cells = []
    for r1 in range(sc.MAX_R1 + 1):
        for r2 in range(sc.MAX_R2 + 1):
            res = table[(r1, r2)]
            cell = {"r1": r1, "r2": r2, "fano": res.fano,
                    "weak_fano": res.weak_fano, "fano_type": res.fano_type}
            if not res.fano and "not_fano" in res.witnesses:
                cell["witness"] = res.witnesses["not_fano"]
            if not res.weak_fano and "not_weak_fano" in res.witnesses:
                cell["witness"] = res.witnesses["not_weak_fano"]
            cells.append(cell)
    columns = range(sc.MAX_R2 + 1)
    lines = ["| r1 \\ r2 | " + " | ".join(str(r2) for r2 in columns) + " |",
             "|---" * (len(columns) + 1) + "|"]
    for r1 in range(sc.MAX_R1 + 1):
        row = [f"| {r1} "]
        for r2 in range(sc.MAX_R2 + 1):
            res = table[(r1, r2)]
            row.append(f"| {_GRID_LABELS[(res.fano, res.weak_fano)]} ")
        lines.append("".join(row) + "|")
    verdicts = {
        "fano_cells": [[r1, r2] for (r1, r2), res in sorted(table.items())
                       if res.fano],
        "weak_fano_cells": [[r1, r2] for (r1, r2), res in sorted(table.items())
                            if res.weak_fano],
        "fano_type_cells": [[r1, r2] for (r1, r2), res in sorted(table.items())
                            if res.fano_type],
    }
    return EXIT_VERIFIED, lines, {"cells": cells}, verdicts, {}


def _cmd_dp_minus_one(args):
    lattice = delpezzo.build(args.r)
    classes = delpezzo.minus_one_classes(lattice)
    lines = [f"{len(classes)} classes with self-intersection -1 and "
             f"anticanonical degree 1 on the degree-{9 - args.r} surface "
             f"(r = {args.r}):"]
    lines.extend(f"  {_fmt(cls)}" for cls in classes)
    extra = {"r": args.r, "count": len(classes), "classes": list(classes)}
    return EXIT_VERIFIED, lines, extra, {"count": len(classes)}, {}


def _verify_loaded_certificate(cert):
    """Dispatch on certificate shape: a grid always certifies the two-step
    hypotheses; a chain whose last step still names a next stratum class
    certifies the single-blowup hypotheses, otherwise plain nefness."""
    if isinstance(cert, GridCertificate):
        return verify_HEF_hypotheses(cert), "two-step blowup hypotheses"
    if cert.steps[-1].next_class is not None:
        return verify_HE_hypotheses(cert), "single-blowup hypotheses"
    return verify_chain(cert), "nefness on the root space"


def _failing_check(rec) -> dict:
    """The witness of a failed certificate check."""
    return {"location": rec.location, "value": rec.value,
            "witness_curve": rec.witness_curve,
            "witness_pairing": rec.witness_pairing}


def _cmd_cert_verify(args):
    with open(args.file, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except RecursionError:
        # The decoder recurses once per nesting level.
        raise json.JSONDecodeError("nested too deeply", text, 0) from None
    cert = certificate_from_dict(data)
    verdict, what = _verify_loaded_certificate(cert)
    lines = [f"certificate kind: {what}",
             f"checks run: {len(verdict.checks)}"]
    witnesses = {}
    if verdict.ok:
        lines.append(f"verified: {verdict.certified}")
        code = EXIT_VERIFIED
    else:
        rec = verdict.failure
        lines.append(f"REFUTED at {rec.location}: value {_fmt(rec.value)} "
                     f"pairs {_fmt(rec.witness_pairing)} with curve "
                     f"{_fmt(rec.witness_curve)}")
        witnesses["failing_check"] = _failing_check(rec)
        code = EXIT_REFUTED
    verdicts = {"certificate": "verified" if verdict.ok else "refuted",
                "checks": len(verdict.checks)}
    return code, lines, {"file": args.file}, verdicts, witnesses


def _cmd_cert_example(args):
    f1, f2 = tsukioka_factors(args.n1, args.n2, args.d)
    built = build_product_certificates(f1, f2)
    chain_v = verify_HE_hypotheses(built.chain)
    grid_v = verify_HEF_hypotheses(built.grid)
    ok = chain_v.ok and grid_v.ok
    lines = [
        f"product of projective spaces of dimensions {args.n1} and {args.n2}"
        f", second factor re-embedded by degree {args.d}",
        f"case selectors: {list(built.cases)}",
        f"chain certificate (pullback minus first exceptional): "
        f"{'verified' if chain_v.ok else 'REFUTED'} "
        f"({len(chain_v.checks)} checks)",
        f"grid certificate (pullback minus both exceptionals): "
        f"{'verified' if grid_v.ok else 'REFUTED'} "
        f"({len(grid_v.checks)} checks)",
    ]
    verdicts = {"cases": list(built.cases),
                "chain": "verified" if chain_v.ok else "refuted",
                "grid": "verified" if grid_v.ok else "refuted"}
    witnesses = {}
    for tag, v in (("chain", chain_v), ("grid", grid_v)):
        if not v.ok:
            witnesses[tag] = _failing_check(v.failure)
    extra = {"chain_certificate": certificate_to_dict(built.chain),
             "grid_certificate": certificate_to_dict(built.grid)}
    return (EXIT_VERIFIED if ok else EXIT_REFUTED), lines, extra, verdicts, witnesses


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared afterwards.

    Each subcommand's handler (``_cmd_*``) is bound when the parser is first
    built, so replacing a ``_cmd_*`` attribute later has no effect; tests
    patch the ``scenario`` or ``cones`` functions the handlers call instead.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="FILE",
                        help="also write the JSON report document to FILE")
    parents = {"parents": [common]}

    parser = argparse.ArgumentParser(
        prog="moricone",
        description="Exact verification of cones, contractions, and Fano "
                    "classification on two-step blowups of surface products.")
    sub = parser.add_subparsers(dest="group", required=True)

    cones = sub.add_parser("cones", help="relative cone computations")
    cones_sub = cones.add_subparsers(dest="action", required=True)
    rel = cones_sub.add_parser("relative",
                               help="relative nef/curve cones and duality",
                               **parents)
    rel.set_defaults(handler=_cmd_cones_relative)

    classify = sub.add_parser("classify", help="contraction classification")
    classify_sub = classify.add_subparsers(dest="action", required=True)
    cons = classify_sub.add_parser("construction",
                                   help="classify the second contraction",
                                   **parents)
    cons.add_argument("--a", type=int, required=True,
                      help="codimension of the first center")
    cons.add_argument("--b", type=int, required=True,
                      help="codimension of the second center")
    cons.add_argument("--c", required=True, metavar="C1,C2,...",
                      help="intersection defects, comma separated")
    cons.add_argument("--a-in-b", action="store_true",
                      help="first center contained in the second")
    cons.set_defaults(handler=_cmd_classify_construction)

    dp = sub.add_parser("dp", help="del Pezzo product scenarios")
    dp_sub = dp.add_subparsers(dest="action", required=True)
    scen = dp_sub.add_parser("scenario", help="one (r1, r2) scenario",
                             **parents)
    scen.add_argument("--r1", type=int, required=True)
    scen.add_argument("--r2", type=int, required=True)
    scen.add_argument("--verify-cones", action="store_true",
                      help="verify the claimed cone of curves / nef cone")
    scen.add_argument("--classify", action="store_true",
                      help="run the Fano / weak Fano / Fano type tests")
    scen.add_argument("--json", action="store_true",
                      help="print the JSON report document")
    scen.set_defaults(handler=_cmd_dp_scenario)
    call = dp_sub.add_parser("classify-all",
                             help="classification over the whole grid",
                             **parents)
    call.add_argument("--format", choices=("md", "json"), default="md")
    call.set_defaults(handler=_cmd_dp_classify_all)
    mone = dp_sub.add_parser("minus-one",
                             help="enumerate the (-1)-classes of one factor",
                             **parents)
    mone.add_argument("--r", type=int, required=True,
                      help="number of blown-up points (0..8)")
    mone.set_defaults(handler=_cmd_dp_minus_one)

    cert = sub.add_parser("cert", help="nefness certificates")
    cert_sub = cert.add_subparsers(dest="action", required=True)
    cv = cert_sub.add_parser("verify", help="verify a certificate file",
                             **parents)
    cv.add_argument("file", help="certificate JSON file")
    cv.set_defaults(handler=_cmd_cert_verify)
    ce = cert_sub.add_parser(
        "example-tsukioka",
        help="build and verify the worked product-of-projective-spaces "
             "certificates", **parents)
    ce.add_argument("--n1", type=int, required=True)
    ce.add_argument("--n2", type=int, required=True)
    ce.add_argument("--d", type=int, required=True)
    ce.set_defaults(handler=_cmd_cert_example)
    return parser


def run(argv=None) -> int:
    """Run one command in-process; print its report and return its exit
    code."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    t0 = time.monotonic()
    try:
        code, lines, extra, verdicts, witnesses = args.handler(args)
        doc = _document(argv, extra, verdicts, witnesses, t0)
        as_json = getattr(args, "json", False) \
            or getattr(args, "format", None) == "json"
        out = getattr(args, "out", None)
        # One encoding feeds stdout and --out; a plain text report needs none.
        text = json.dumps(doc, indent=2) if as_json or out else None
        if as_json:
            print(text)
        else:
            for line in lines:
                print(line)
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
    except (OSError, ValueError, CertificateError, ConeError) as exc:
        # Unreadable input, an unwritable --out, or a malformed document.
        bad_json = isinstance(exc, json.JSONDecodeError)
        print(f"error: {'not valid JSON: ' if bad_json else ''}{exc}",
              file=sys.stderr)
        return EXIT_ERROR
    except Exception:
        # A failed internal check is no verdict, so it must not exit 1.
        traceback.print_exc()
        return EXIT_INTERNAL
    return code


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
