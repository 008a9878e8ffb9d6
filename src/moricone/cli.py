"""Command-line front end.

Every subcommand prints a deterministic human-readable report to stdout (or a
JSON report document with ``--json`` / ``--format json``) and can mirror the
JSON document to a file with ``--out``.  Exit codes: 0 = everything requested
verified, 1 = a verification was refuted (the report carries a witness),
2 = usage or input error (an unreadable input file or an unwritable ``--out``
file included), 3 = internal error (a failed internal check; the
traceback goes to stderr and no verdict is printed).

Each report is written in one walk over the handler's exact values, in the
bytes ``json.dumps(..., indent=2)`` gives.  Every report is encoded, text
mode included, so a float in one is an internal error before anything is
printed or written.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import traceback
from dataclasses import is_dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import __version__, blowup, delpezzo
from . import scenario as sc
from .certificates import (
    CertificateError,
    _num_out,
    build_product_certificates,
    certificate_from_dict,
    certificate_to_dict,
    tsukioka_factors,
    verify,
    verify_HE_hypotheses,
    verify_HEF_hypotheses,
)

EXIT_VERIFIED = 0
EXIT_REFUTED = 1
EXIT_ERROR = 2
EXIT_INTERNAL = 3


# ---------------------------------------------------------------------------
# JSON plumbing
# ---------------------------------------------------------------------------

_INTS = frozenset({int})


def _encode(x, pad=None) -> str:
    """The JSON text of a report value, in one walk: with ``pad`` a newline
    and the current indent, the text ``json.dumps(..., indent=2)`` gives,
    else the one-line text ``json.dumps`` gives.

    Dispatched on the exact type: ``int``, ``bool``, None and ``str`` are
    leaves, a :class:`~fractions.Fraction` is an integer or a ``"p/q"``
    string, a tuple or list an array, a dict an object with ``str`` keys and
    a dataclass the object of its fields.  Anything else, a float above all,
    raises :class:`TypeError`."""
    kind = type(x)
    if kind is str:
        return _quote(x)
    if kind is int:
        return int.__repr__(x)
    inner = None if pad is None else pad + "  "
    if kind is tuple or kind is list:
        if not x:
            return "[]"
        if set(map(type, x)) == _INTS:
            parts = map(int.__repr__, x)
        else:
            parts = [_encode(v, inner) for v in x]
        ends = "[]"
    else:
        if kind is dict:
            items = x.items()
        elif kind is Fraction:
            x = _num_out(x)
            return int.__repr__(x) if type(x) is int else _quote(x)
        elif kind is bool:
            return "true" if x else "false"
        elif x is None:
            return "null"
        elif is_dataclass(kind):
            # The generated __init__ sets the fields in declaration order.
            items = vars(x).items()
        elif isinstance(x, float):
            raise TypeError("refusing to serialize a float in an exact report")
        else:
            raise TypeError(f"cannot serialize {kind.__name__}")
        if not items:
            return "{}"
        parts = [_quote(str(k)) + ": " + _encode(v, inner) for k, v in items]
        ends = "{}"
    if pad is None:
        return ends[0] + ", ".join(parts) + ends[1]
    return ends[0] + inner + ("," + inner).join(parts) + pad + ends[1]


def _document(argv, extra: dict, verdicts: dict, witnesses: dict,
              t0: float) -> str:
    """The report document's indented JSON text, with ``timing_seconds``
    taken after the walk and written last."""
    text = _encode({"version": __version__, "command": list(argv), **extra,
                    "verdicts": verdicts, "witnesses": witnesses}, "\n")
    seconds = round(time.monotonic() - t0, 3)
    # The object's text ends with its closing "\n}".
    return (text[:-2] + ',\n  "timing_seconds": ' + float.__repr__(seconds)
            + "\n}")


def _fmt(x) -> str:
    """Deterministic human-readable form of an exact value: a string or a
    fraction bare, anything else as one-line JSON."""
    if type(x) is Fraction:
        x = _num_out(x)
    return x if type(x) is str else _encode(x)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit code, text lines, extra, verdicts,
# witnesses)
# ---------------------------------------------------------------------------

def _cmd_cones_relative(args):
    rc = blowup.relative_cones()
    rows = blowup.relative_pairing()
    ok = rc.mutually_dual
    lines = [
        "pairing table, rows (E, F) x columns (e, f): "
        f"{_fmt(rows)}",
        f"curve cone rays (e, f coordinates): {_fmt(rc.ne.rays)}",
        f"nef cone rays (E, F coordinates): {_fmt(rc.nef.rays)}",
        f"pairing matrix, nef rays x curve rays: {_fmt(rc.pairing)}",
        "relative duality: " + ("verified (each cone is the exact dual of "
                                "the other)" if ok else "REFUTED"),
    ]
    extra = {"pairing_matrix": rc.pairing}
    verdicts = {"relative_duality": "verified" if ok else "refuted"}
    witnesses = {} if ok else {"duality": {"pairing_matrix": rc.pairing}}
    return (EXIT_VERIFIED if ok else EXIT_REFUTED), lines, extra, verdicts, witnesses


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
    claims = sc.factor_nef_vectors(s, 1) + sc.t_divisors(s)
    extra = {"r1": s.r1, "r2": s.r2, "rho": s.rho,
             "ne_generators": s.curves, "nef_generators": claims}
    lines = [
        f"scenario (r1, r2) = ({s.r1}, {s.r2}): Picard rank {s.rho}, "
        f"{len(s.curves)} curve generators, {len(claims)} listed nef "
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
        verdicts.update(fano=res.fano, weak_fano=res.weak_fano,
                        fano_type=res.fano_type)
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
    columns = range(sc.MAX_R2 + 1)
    lines = ["| r1 \\ r2 | " + " | ".join(str(r2) for r2 in columns) + " |",
             "|---" * (len(columns) + 1) + "|"]
    cells = []
    verdicts = {"fano_cells": [], "weak_fano_cells": [], "fano_type_cells": []}
    for (r1, r2), res in sorted(sc.classify_all().items()):
        cell = {"r1": r1, "r2": r2, "fano": res.fano,
                "weak_fano": res.weak_fano, "fano_type": res.fano_type}
        for key in ("fano", "weak_fano", "fano_type"):
            if cell[key]:
                verdicts[f"{key}_cells"].append([r1, r2])
        # classify names a witness only for a verdict that fails
        for key in ("not_fano", "not_weak_fano"):
            if key in res.witnesses:
                cell["witness"] = res.witnesses[key]
        cells.append(cell)
        if r2 == 0:
            lines.append(f"| {r1} |")
        lines[-1] += f" {_GRID_LABELS[(res.fano, res.weak_fano)]} |"
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


def _cmd_cert_verify(args):
    with open(args.file, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except RecursionError:
        # The decoder recurses once per nesting level.
        raise json.JSONDecodeError("nested too deeply", text, 0) from None
    verdict, what = verify(certificate_from_dict(data))
    lines = [f"certificate kind: {what}",
             f"checks run: {len(verdict.checks)}"]
    rec = verdict.failure
    if verdict.ok:
        lines.append(f"verified: {verdict.certified}")
    else:
        lines.append(f"REFUTED at {rec.location}: value {_fmt(rec.value)} "
                     f"pairs {_fmt(rec.witness_pairing)} with curve "
                     f"{_fmt(rec.witness_curve)}")
    verdicts = {"certificate": "verified" if verdict.ok else "refuted",
                "checks": len(verdict.checks)}
    witnesses = {} if verdict.ok else {"failing_check": rec}
    code = EXIT_VERIFIED if verdict.ok else EXIT_REFUTED
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
    witnesses = {tag: v.failure for tag, v in
                 (("chain", chain_v), ("grid", grid_v)) if not v.ok}
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
    patch the ``scenario`` or ``blowup`` functions the handlers call instead.
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
        # Every report is encoded, so a float in it exits 3 before any
        # output; the one text feeds stdout and --out.
        text = _document(argv, extra, verdicts, witnesses, t0)
        if getattr(args, "json", False) \
                or getattr(args, "format", None) == "json":
            print(text)
        else:
            for line in lines:
                print(line)
        out = getattr(args, "out", None)
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
    except (OSError, ValueError, CertificateError) as exc:
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
