"""Tests for the command-line front end: exit codes, report schema,
determinism, and witness presence on refutation."""

import ast
import io
import json
import os
import re
import resource
import subprocess
import tempfile
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import moricone
from moricone import scenario as sc
from moricone.certificates import (build_product_certificates,
                                   certificate_to_dict, tsukioka_factors)
from moricone.cli import (EXIT_ERROR, EXIT_INTERNAL, EXIT_REFUTED,
                          EXIT_VERIFIED, build_parser, jsonable, run)

from .test_certificates import three_step_chain
from .test_delpezzo import add_exceptional_to_orbits
from .test_scenario import _bent


_CERTS = Path(__file__).resolve().parents[1] / "certs"


def capture(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_cones_relative_verifies():
    code, out = capture(["cones", "relative"])
    assert code == EXIT_VERIFIED
    assert "verified" in out
    assert "[[-1, 0], [1, -1]]" in out


def test_classify_construction_flip():
    code, out = capture(["classify", "construction",
                         "--a", "4", "--b", "3", "--c", "1,2"])
    assert code == EXIT_VERIFIED
    assert "K . e = -1" in out
    assert "flip" in out


def test_classify_construction_divisorial_needs_flag():
    code, _ = capture(["classify", "construction",
                       "--a", "3", "--b", "2", "--c", "2"])
    assert code == EXIT_ERROR
    code, out = capture(["classify", "construction",
                         "--a", "3", "--b", "2", "--c", "2", "--a-in-b"])
    assert code == EXIT_VERIFIED
    assert "small: False" in out


def test_unknown_subcommand_is_usage_error():
    assert run(["frobnicate"]) == EXIT_ERROR


def test_missing_required_subcommand_is_usage_error():
    assert run([]) == EXIT_ERROR
    assert run(["dp"]) == EXIT_ERROR


def test_scenario_out_of_range_is_input_error():
    assert run(["dp", "scenario", "--r1", "4", "--r2", "0"]) == EXIT_ERROR
    assert run(["dp", "scenario", "--r1", "0", "--r2", "9"]) == EXIT_ERROR


def test_cert_verify_missing_file():
    assert run(["cert", "verify", "missing.json"]) == EXIT_ERROR


def test_cert_verify_directory_is_input_error():
    assert run(["cert", "verify", str(_CERTS)]) == EXIT_ERROR


@pytest.mark.parametrize("target", ["dir", "missing_dir"])
def test_unwritable_out_is_input_error(tmp_path, target):
    out = tmp_path if target == "dir" else tmp_path / "missing" / "doc.json"
    code, _ = capture(["dp", "minus-one", "--r", "2", "--out", str(out)])
    assert code == EXIT_ERROR


def test_cert_verify_malformed_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert run(["cert", "verify", str(p)]) == EXIT_ERROR


def test_cert_verify_deeply_nested_json_is_input_error(tmp_path, capsys):
    # Nesting deeper than the decoder's recursion limit is malformed input.
    p = tmp_path / "deep.json"
    p.write_text("[" * 100000 + "]" * 100000)
    assert run(["cert", "verify", str(p)]) == EXIT_ERROR
    assert "not valid JSON" in capsys.readouterr().err


def test_cert_verify_bad_schema(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"kind": "grid", "a": 1}))
    assert run(["cert", "verify", str(p)]) == EXIT_ERROR


def _chain_doc():
    return certificate_to_dict(
        build_product_certificates(*tsukioka_factors(2, 2, 2)).chain)


def _verify_doc(tmp_path, doc):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    return run(["cert", "verify", str(p)])


def test_cert_verify_zero_denominator_is_input_error(tmp_path):
    doc = _chain_doc()
    doc["steps"][0]["restriction"][0][0] = "1/0"
    assert _verify_doc(tmp_path, doc) == EXIT_ERROR


def test_cert_verify_top_level_list_is_input_error(tmp_path):
    assert _verify_doc(tmp_path, [_chain_doc()]) == EXIT_ERROR


def test_cert_verify_boolean_entry_is_input_error(tmp_path):
    doc = _chain_doc()
    assert _verify_doc(tmp_path, doc) == EXIT_VERIFIED
    assert doc["steps"][0]["restriction"][0][0] == 1
    doc["steps"][0]["restriction"][0][0] = True
    assert _verify_doc(tmp_path, doc) == EXIT_ERROR


@pytest.mark.parametrize("kind", ["chain", "grid"])
def test_cert_verify_exponent_number_exits_promptly(tmp_path, kind):
    # Fraction("1e-99999999") computes 10**99999999, so the file runs in a
    # child process under a timeout: a hang fails the test, not the suite.
    doc = json.loads((_CERTS / f"tsukioka_2_2_2_{kind}.json").read_text())
    doc["divisor"][0] = "1e-99999999"
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "moricone.cli", "cert", "verify", str(p)],
        capture_output=True, text=True, env=_child_env(), timeout=10)
    assert proc.returncode == EXIT_ERROR, proc.stderr
    assert "not an exact rational" in proc.stderr


@pytest.mark.parametrize("text", ["1.5", "1e3", " 2", "+3", "1_000"])
def test_cert_verify_number_string_must_be_p_over_q(tmp_path, capsys, text):
    # A number is a JSON integer or a "p/q" string, as the writer emits it.
    doc = _chain_doc()
    doc["divisor"][0] = text
    assert _verify_doc(tmp_path, doc) == EXIT_ERROR
    assert "not an exact rational" in capsys.readouterr().err


def _replace_oracles(node, curves):
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "oracle_curves":
                node[key] = curves(node)
            else:
                _replace_oracles(value, curves)
    elif isinstance(node, list):
        for value in node:
            _replace_oracles(value, curves)


@pytest.mark.parametrize("curves", [lambda s: [],
                                    lambda s: [[0] * s["rank"]] * s["rank"]],
                         ids=["emptied", "zeroed"])
@pytest.mark.parametrize("kind", ["chain", "grid"])
def test_cert_verify_vacuous_oracles_is_input_error(tmp_path, kind, curves):
    # An oracle that does not span the class lattice passes every divisor
    # and its negative alike, so it proves nothing.
    doc = json.loads((_CERTS / f"tsukioka_2_2_2_{kind}.json").read_text())
    assert _verify_doc(tmp_path, doc) == EXIT_VERIFIED
    _replace_oracles(doc, curves)
    assert _verify_doc(tmp_path, doc) == EXIT_ERROR


def _vector_slot(doc, slot):
    """(container, key) of the divisor, of the first row of the first step's
    oracle curves or restriction, or of a grid cell's empty matrix."""
    if slot == "divisor":
        return doc, "divisor"
    if slot.startswith("empty_"):
        field = slot[len("empty_"):]
        return next(e for e in doc["cells"] if e[field] == []), field
    first = (doc["steps"] if doc["kind"] == "chain" else doc["outer"])[0]
    return first[slot], 0


@pytest.mark.parametrize("form", [lambda row: "".join(map(str, row)),
                                  lambda row: dict.fromkeys(map(str, row), 0)],
                         ids=["string", "object"])
@pytest.mark.parametrize("kind,slot", [
    *((kind, slot) for kind in ("chain", "grid")
      for slot in ("divisor", "oracle_curves", "restriction")),
    ("grid", "empty_oracle_curves"), ("grid", "empty_right_map")])
def test_cert_verify_non_array_vector_is_input_error(tmp_path, kind, slot,
                                                     form):
    # A digit string or an object iterates like the row it spells out:
    # "12" as (1, 2), {"1": 0, "2": 0} by its keys, "" and {} as an empty
    # matrix.  Only an array is a row or a matrix.
    doc = json.loads((_CERTS / f"tsukioka_2_2_2_{kind}.json").read_text())
    owner, key = _vector_slot(doc, slot)
    row = owner[key]
    owner[key] = form(row)
    assert [int(x) for x in owner[key]] == row
    assert _verify_doc(tmp_path, doc) == EXIT_ERROR


@pytest.mark.parametrize("change", ["repeated", "beyond_a", "before_c",
                                    "a_huge", "b_huge"])
def test_cert_verify_grid_needs_exact_cell_set(tmp_path, change):
    # A repeated cell would silently replace the first copy, and a cell
    # outside [c..a] x [c..b] would never be read.  Huge extents must be
    # refused from the listed cells alone, so they run in a child process
    # under a time and memory limit: enumerating the grid would hang.
    doc = json.loads((_CERTS / "tsukioka_2_2_2_grid.json").read_text())
    assert _verify_doc(tmp_path, doc) == EXIT_VERIFIED
    if change.endswith("_huge"):
        doc[change[0]] = 10**30
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "moricone.cli", "cert", "verify", str(p)],
            capture_output=True, text=True, env=_child_env(), timeout=10,
            preexec_fn=lambda: resource.setrlimit(
                resource.RLIMIT_AS, (1 << 30, 1 << 30)))
        assert proc.returncode == EXIT_ERROR, proc.stderr
        assert "missing grid cell" in proc.stderr
        return
    extra = dict(doc["cells"][0])
    if change == "beyond_a":
        extra["i"] = doc["a"] + 1
    elif change == "before_c":
        extra["j"] = doc["c"] - 1
    doc["cells"].append(extra)
    assert _verify_doc(tmp_path, doc) == EXIT_ERROR


_DELETE = object()
_JUNK = (None, True, 1.5, "1/0", [], {}, 10**30, -10**30, _DELETE)
_SHIPPED = sorted(_CERTS.glob("*.json"))


def _leaf_paths(node, path=()):
    if isinstance(node, dict) and node:
        for k, v in node.items():
            yield from _leaf_paths(v, path + (k,))
    elif isinstance(node, list) and node:
        for k, v in enumerate(node):
            yield from _leaf_paths(v, path + (k,))
    else:
        yield path


def _parent(doc, path):
    for k in path[:-1]:
        doc = doc[k]
    return doc


def _set_at(doc, path, value):
    if value is _DELETE:
        del _parent(doc, path)[path[-1]]
    else:
        _parent(doc, path)[path[-1]] = value


@pytest.mark.parametrize("mutate", [lambda v: True, float],
                         ids=["boolean", "float"])
def test_cert_verify_non_integer_field_is_input_error(tmp_path, mutate,
                                                      shipped_cert_paths):
    int_fields = {"root_rank", "rank", "a", "b", "c", "i", "j"}
    for path in shipped_cert_paths:
        doc = json.loads(path.read_text())
        fields = [p for p in _leaf_paths(doc) if p and p[-1] in int_fields]
        assert {f[-1] for f in fields} >= {"root_rank", "rank"}, path
        for field in fields:
            bad = json.loads(path.read_text())
            _set_at(bad, field, mutate(_parent(bad, field)[field[-1]]))
            assert _verify_doc(tmp_path, bad) == EXIT_ERROR, (path, field)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cert_verify_fuzz_exit_boundary(data):
    # One leaf of a shipped certificate replaced or deleted: the verdict may
    # be anything, but a malformed document must exit 2, and a refutation
    # must carry its witness.
    doc = json.loads(data.draw(st.sampled_from(_SHIPPED)).read_text())
    _set_at(doc, data.draw(st.sampled_from(list(_leaf_paths(doc)))),
            data.draw(st.sampled_from(_JUNK)))
    with tempfile.TemporaryDirectory() as tmp:
        doc_file, out_file = Path(tmp) / "doc.json", Path(tmp) / "report.json"
        doc_file.write_text(json.dumps(doc))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = run(["cert", "verify", str(doc_file), "--out", str(out_file)])
        assert code in (EXIT_VERIFIED, EXIT_REFUTED, EXIT_ERROR)
        if code == EXIT_REFUTED:
            report = json.loads(out_file.read_text())
            assert report["witnesses"]["failing_check"]


# ---------------------------------------------------------------------------
# scenario report schema
# ---------------------------------------------------------------------------

def test_scenario_json_schema():
    code, out = capture(["dp", "scenario", "--r1", "0", "--r2", "0",
                         "--verify-cones", "--classify", "--json"])
    assert code == EXIT_VERIFIED
    doc = json.loads(out)
    for key in ("version", "command", "r1", "r2", "rho", "ne_generators",
                "nef_generators", "verdicts", "witnesses", "timing_seconds"):
        assert key in doc, key
    assert doc["rho"] == 4
    assert len(doc["ne_generators"]) == 4
    assert doc["verdicts"]["equality"] == "equal"
    assert doc["verdicts"]["fano"] is True
    names = [g["name"] for g in doc["ne_generators"]]
    assert names == ["e", "f", "l1", "l2"]


def test_scenario_json_rationals_are_strings():
    _, out = capture(["dp", "scenario", "--r1", "1", "--r2", "1",
                      "--classify", "--json"])
    doc = json.loads(out)
    assert doc["witnesses"]["delta_certificate"]["e"] == "2/3"
    assert doc["witnesses"]["delta_certificate"]["e1_1"] == 1


def test_scenario_gated_tier_report():
    code, out = capture(["dp", "scenario", "--r1", "0", "--r2", "8",
                         "--verify-cones", "--json"])
    assert code == EXIT_VERIFIED
    doc = json.loads(out)
    assert doc["verdicts"]["containment"] == "verified"
    assert doc["verdicts"]["equality"] == "equal"


def test_scenario_refutation_exits_1_with_witnesses(monkeypatch, tmp_path):
    # A catalog whose e2_1 breaks the lift rule: the report must say
    # refuted and unequal, carry both witnesses, and exit 1.
    real = sc.build_scenario

    def bent(r1, r2):
        s = real(r1, r2)
        return _bent(s, "e2_1", s.idx_h2 + 1)

    monkeypatch.setattr(sc, "build_scenario", bent)
    out_file = tmp_path / "doc.json"
    code, out = capture(["dp", "scenario", "--r1", "1", "--r2", "3",
                         "--verify-cones", "--out", str(out_file)])
    assert code == EXIT_REFUTED
    assert "cone equality: unequal" in out
    doc = json.loads(out_file.read_text())
    assert doc["verdicts"]["containment"] == "refuted"
    assert doc["verdicts"]["equality"] == "unequal"
    witness = {"curve": "e2_1", "reason": "lift rule violated"}
    assert doc["witnesses"] == {"containment": witness, "equality": witness}


def test_determinism_modulo_timing():
    argv = ["dp", "scenario", "--r1", "2", "--r2", "2",
            "--verify-cones", "--classify", "--json"]
    _, out1 = capture(argv)
    _, out2 = capture(argv)
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("timing_seconds"), d2.pop("timing_seconds")
    assert d1 == d2


# One process reuses its parser: each call of this sequence must not see
# flags or defaults left behind by the one before it.
_REUSE_SEQUENCE = [
    ["frobnicate"],
    ["dp", "minus-one", "--r", "3"],
    ["dp", "classify-all", "--format", "json"],
    ["dp", "classify-all"],
    ["dp", "scenario", "--r1", "1", "--r2", "2", "--classify", "--json"],
    ["dp", "scenario", "--r1", "1", "--r2", "2", "--classify"],
]


def _without_timing(text):
    return re.sub(r'"timing_seconds": [0-9.]+', '"timing_seconds": 0', text)


def _run_sequence(tmp_path, fresh_parser):
    results = []
    for i, argv in enumerate(_REUSE_SEQUENCE):
        # The path is part of the document's "command", so both sides use it.
        out_file = tmp_path / f"{i}.json"
        out_file.unlink(missing_ok=True)
        if fresh_parser:
            build_parser.cache_clear()
        code, out = capture(argv + ["--out", str(out_file)])
        doc = out_file.read_text(encoding="utf-8") if out_file.exists() \
            else None
        results.append((code, _without_timing(out),
                        doc and _without_timing(doc)))
    return results


def test_reused_parser_carries_no_state(tmp_path):
    reused = _run_sequence(tmp_path, fresh_parser=False)
    fresh = _run_sequence(tmp_path, fresh_parser=True)
    assert [r[0] for r in reused] == [EXIT_ERROR] + [EXIT_VERIFIED] * 5
    assert reused[0][2] is None and all(r[2] for r in reused[1:])
    for argv, got, want in zip(_REUSE_SEQUENCE, reused, fresh):
        assert got == want, argv


def test_json_stdout_is_the_out_file(tmp_path):
    # One encoding feeds both: print adds the newline the file ends with.
    out_file = tmp_path / "doc.json"
    code, out = capture(["dp", "scenario", "--r1", "0", "--r2", "0",
                         "--classify", "--json", "--out", str(out_file)])
    assert code == EXIT_VERIFIED
    text = out_file.read_text(encoding="utf-8")
    assert text.endswith("}\n")
    assert out == text


def test_classify_all_formats():
    code, out = capture(["dp", "classify-all", "--format", "md"])
    assert code == EXIT_VERIFIED
    assert out.count("Fano") >= 36
    assert "| r1 \\ r2 |" in out
    code, out = capture(["dp", "classify-all", "--format", "json"])
    doc = json.loads(out)
    assert len(doc["cells"]) == 36
    assert doc["verdicts"]["fano_cells"] == [[0, 0]]
    assert doc["verdicts"]["weak_fano_cells"] == doc["verdicts"]["fano_type_cells"]
    negative = [c for c in doc["cells"] if not c["fano_type"]]
    assert all("witness" in c for c in negative)


def test_minus_one_counts_via_cli():
    for r, n in ((1, 1), (3, 6), (5, 16)):
        code, out = capture(["dp", "minus-one", "--r", str(r)])
        assert code == EXIT_VERIFIED
        assert out.startswith(f"{n} classes")


# ---------------------------------------------------------------------------
# internal failures
# ---------------------------------------------------------------------------

def test_internal_error_is_not_a_refutation(monkeypatch, capsys):
    def broken(s):
        raise AssertionError("ray (0, 1) pairs negatively with a row")
    monkeypatch.setattr(sc, "verify_theorem", broken)
    code = run(["dp", "scenario", "--r1", "0", "--r2", "0", "--verify-cones"])
    assert code == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "pairs negatively" in captured.err


def test_fano_type_needs_a_checked_refutation(monkeypatch, capsys):
    """classify re-checks the refutation's stored multipliers itself, so a
    certificate that fails the check is an internal error."""
    monkeypatch.setattr(sc, "check_infeasibility_certificate",
                        lambda lp, mu: False)
    code = run(["dp", "scenario", "--r1", "0", "--r2", "2", "--classify"])
    assert code == EXIT_INTERNAL
    assert "does not check" in capsys.readouterr().err


_VERDICT_ARGVS = (
    [["dp", "scenario", "--r1", str(r1), "--r2", str(r2), "--verify-cones",
      "--classify", "--json"] for r1 in range(4) for r2 in range(9)]
    + [["dp", "classify-all"], ["dp", "classify-all", "--format", "json"],
       ["cones", "relative"]]
    + [["cert", "verify", str(p)] for p in sorted(_CERTS.glob("*.json"))]
    + [["cert", "example-tsukioka", "--n1", "2", "--n2", "2", "--d", "2"],
       ["dp", "minus-one", "--r", "8"],
       ["classify", "construction", "--a", "4", "--b", "3", "--c", "1,2"]])


def _reports(argvs, out):
    """Exit code, stdout and ``--out`` document of each argv, with
    ``timing_seconds`` and the ``--out`` path masked."""
    timing = re.compile(r'"timing_seconds": [0-9.]+')
    reports = []
    for argv in argvs:
        out.unlink(missing_ok=True)
        code, text = capture(argv + ["--out", str(out)])
        doc = out.read_text(encoding="utf-8") if out.exists() else None
        reports.append([code] + [
            None if x is None
            else timing.sub('"timing_seconds": 0', x).replace(str(out), "OUT")
            for x in (text, doc)])
    return reports


def _trapped_reports(tmp_path, trap):
    """:func:`_reports` of every ``_VERDICT_ARGVS`` entry from a fresh
    process in which ``trap`` (lines of Python) has run after the package
    was imported."""
    script = "\n".join([
        "import json, sys",
        "from pathlib import Path",
        "from tests.test_cli import _reports",
        *trap,
        "print(json.dumps(_reports(json.loads(sys.argv[1]),"
        " Path(sys.argv[2]))))",
    ])
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(_VERDICT_ARGVS),
         str(tmp_path / "trapped.json")],
        cwd=root, capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout), proc.stderr


@pytest.fixture(scope="module")
def plain_reports(tmp_path_factory):
    return _reports(_VERDICT_ARGVS, tmp_path_factory.mktemp("plain") / "doc")


def test_no_verdict_reaches_the_simplex(tmp_path, plain_reports):
    # A fresh process with the simplex replaced by a trap must print every
    # verdict exactly as the real engine does here.
    trapped, err = _trapped_reports(tmp_path, [
        "from moricone import cones",
        "def trap(*args):",
        "    raise RuntimeError('the simplex ran')",
        "cones._phase1_simplex = trap",
    ])
    assert len(trapped) == len(plain_reports) == 48
    for argv, t, p in zip(_VERDICT_ARGVS, trapped, plain_reports):
        assert t == p, (argv, err[-500:])


def test_no_verdict_but_cones_relative_dualises(tmp_path, plain_reports):
    # The del Pezzo lists are Weyl orbits and Nef(X) is read off them, so
    # with cones.dual trapped at every binding in the package only the 2x2
    # relative cones change, and they fail as an internal error.
    trapped, err = _trapped_reports(tmp_path, [
        "from moricone import cones",
        "def trap(*args):",
        "    raise RuntimeError('dual ran')",
        "real = cones.dual",
        "for m in list(sys.modules.values()):",
        "    if m and m.__name__.partition('.')[0] == 'moricone':",
        "        for k, v in list(vars(m).items()):",
        "            if v is real:",
        "                setattr(m, k, trap)",
    ])
    relative = _VERDICT_ARGVS.index(["cones", "relative"])
    assert trapped[relative][0] == EXIT_INTERNAL
    assert "dual ran" in err
    for i, (argv, t, p) in enumerate(zip(_VERDICT_ARGVS, trapped,
                                         plain_reports)):
        assert i == relative or t == p, (argv, err[-500:])
    code, out, _ = trapped[_VERDICT_ARGVS.index(
        ["dp", "scenario", "--r1", "3", "--r2", "8", "--verify-cones",
         "--classify", "--json"])]
    assert code == EXIT_VERIFIED
    doc = json.loads(out)
    assert doc["verdicts"]["equality"] == "equal"
    names = [g["name"] for g in doc["nef_generators"]]
    assert len(names) == 5 + 10   # dP3 nef rays and T
    assert not any(n.startswith("nef2_") for n in names)


def test_non_nef_orbit_ray_is_an_internal_error(monkeypatch, capsys):
    add_exceptional_to_orbits(monkeypatch)
    code = run(["dp", "scenario", "--r1", "0", "--r2", "2", "--verify-cones"])
    assert code == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "AssertionError: ray (0, 1) pairs negatively with a row\n")


def test_no_assert_statements_guard_verdicts():
    # python -O strips assert statements, so every guard must raise.
    for path in sorted(Path(moricone.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not any(isinstance(n, ast.Assert) for n in ast.walk(tree)), \
            path.name


# Only tests call it today; ROADMAP item 2 puts it on the verdict path.
_UNREACHED_ALLOWED = {"scenario.t_divisor_certificates"}


def test_every_top_level_definition_is_reached():
    # A function, class or method that only tests call is dead weight: every
    # top-level def and class must be named from the package, the benchmark
    # or the scripts (by name, attribute, import or string, as TRACED does),
    # and every method and property of a top-level class by an attribute
    # reference there (a dict key or a local variable of the same name does
    # not reach a method).
    root = Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "moricone").glob("*.py"))
    refs, attrs = set(), set()
    for path in [*package, *root.glob("perfbench/**/*.py"),
                 *root.glob("scripts/**/*.py")]:
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Name):
                refs.add(n.id)
            elif isinstance(n, ast.Attribute):
                attrs.add(n.attr)
            elif isinstance(n, ast.alias):
                refs.add(n.name)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                refs.add(n.value)
    # Dunder methods are called by Python itself.
    unreached = set()
    for path in package:
        for n in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(n, (ast.FunctionDef, ast.ClassDef))
                    and n.name not in refs | attrs):
                unreached.add(f"{path.stem}.{n.name}")
            if isinstance(n, ast.ClassDef):
                unreached |= {f"{path.stem}.{n.name}.{m.name}" for m in n.body
                              if isinstance(m, ast.FunctionDef)
                              and not m.name.startswith("__")
                              and m.name not in attrs}
    assert unreached == _UNREACHED_ALLOWED


def test_every_default_parameter_is_passed():
    # A parameter that only tests set is an option no caller needs: every
    # defaulted parameter of a top-level function must be passed, by position
    # or by keyword, by some call in the package, the benchmark or the
    # scripts.  A starred argument passes nothing.
    root = Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "moricone").glob("*.py"))
    defaulted = {}
    for path in package:
        for n in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(n, ast.FunctionDef):
                positional = n.args.posonlyargs + n.args.args
                first = len(positional) - len(n.args.defaults)
                params = [(a.arg, i) for i, a in enumerate(positional)
                          if i >= first]
                params += [(a.arg, None) for a, d in zip(n.args.kwonlyargs,
                                                         n.args.kw_defaults)
                           if d is not None]
                for arg, i in params:
                    defaulted[(path.stem, n.name, arg)] = i
    passed = set()
    for path in [*package, *root.glob("perfbench/**/*.py"),
                 *root.glob("scripts/**/*.py")]:
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(n, ast.Call):
                continue
            name = getattr(n.func, "id", getattr(n.func, "attr", None))
            count = next((i for i, a in enumerate(n.args)
                          if isinstance(a, ast.Starred)), len(n.args))
            for (_, fn, arg), i in defaulted.items():
                if fn == name and (i is not None and i < count or any(
                        k.arg == arg for k in n.keywords)):
                    passed.add((fn, arg))
    assert sorted(f"{module}.{fn}({arg}=)" for module, fn, arg in defaulted
                  if (fn, arg) not in passed) == []


# ---------------------------------------------------------------------------
# certificates through the CLI
# ---------------------------------------------------------------------------

def test_shipped_certificates_verify(shipped_cert_paths):
    for path in shipped_cert_paths:
        code, out = capture(["cert", "verify", str(path)])
        assert code == EXIT_VERIFIED, path
        assert "verified" in out


def test_example_tsukioka_runs():
    code, out = capture(["cert", "example-tsukioka",
                         "--n1", "2", "--n2", "3", "--d", "3"])
    assert code == EXIT_VERIFIED
    assert "case selectors: [1, 3, 5]" in out
    assert out.count("verified") == 2


def test_example_tsukioka_bad_degree():
    assert run(["cert", "example-tsukioka",
                "--n1", "2", "--n2", "2", "--d", "0"]) == EXIT_ERROR


def test_refuted_certificate_carries_witness(tmp_path):
    built = build_product_certificates(*tsukioka_factors(2, 2, 2))
    doc = certificate_to_dict(built.grid)
    doc["divisor"] = [0, -1]
    p = tmp_path / "tampered.json"
    p.write_text(json.dumps(doc))
    out_file = tmp_path / "report.json"
    code, out = capture(["cert", "verify", str(p), "--out", str(out_file)])
    assert code == EXIT_REFUTED
    assert "REFUTED" in out
    report = json.loads(out_file.read_text())
    assert report["witnesses"]["failing_check"]["witness_curve"]
    assert report["verdicts"]["certificate"] == "refuted"


def test_cert_verify_closed_chain_checks_nefness(tmp_path):
    # A chain whose last step names no next class certifies plain nefness.
    p, out_file = tmp_path / "chain.json", tmp_path / "report.json"
    p.write_text(json.dumps(certificate_to_dict(three_step_chain((2,)))))
    code, out = capture(["cert", "verify", str(p)])
    assert code == EXIT_VERIFIED
    assert "certificate kind: nefness on the root space" in out
    p.write_text(json.dumps(certificate_to_dict(three_step_chain((0,)))))
    code, out = capture(["cert", "verify", str(p), "--out", str(out_file)])
    assert code == EXIT_REFUTED
    assert "certificate kind: nefness on the root space" in out
    report = json.loads(out_file.read_text())
    assert report["witnesses"]["failing_check"] == {
        "location": "step 0 (plane)", "value": [-1], "witness_curve": [1],
        "witness_pairing": -1}


def test_out_file_mirrors_report(tmp_path):
    out_file = tmp_path / "doc.json"
    code, _ = capture(["dp", "minus-one", "--r", "4", "--out", str(out_file)])
    assert code == EXIT_VERIFIED
    doc = json.loads(out_file.read_text())
    assert doc["count"] == 10
    assert doc["command"][:2] == ["dp", "minus-one"]


# ---------------------------------------------------------------------------
# serializer and entry point
# ---------------------------------------------------------------------------

def test_jsonable_rejects_floats():
    with pytest.raises(TypeError):
        jsonable(0.5)


def test_jsonable_fraction_forms():
    from fractions import Fraction
    assert jsonable(Fraction(3, 2)) == "3/2"
    assert jsonable(Fraction(4, 2)) == 2
    assert jsonable({"x": (Fraction(1, 3),)}) == {"x": ["1/3"]}


def _child_env():
    # A child does not inherit pytest's pythonpath setting: point it at the
    # directory this moricone was imported from.
    env = dict(os.environ)
    src = str(Path(moricone.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "moricone.cli", "cones", "relative"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert "verified" in proc.stdout


def test_parser_is_built_by_the_first_run_only():
    script = "\n".join([
        "import contextlib, io",
        "from moricone import cli",
        "assert cli.build_parser.cache_info().currsize == 0, 'built at import'",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert cli.run(['dp', 'minus-one', '--r', '1']) == 0",
        "    assert cli.run(['dp', 'minus-one', '--r', '2']) == 0",
        "info = cli.build_parser.cache_info()",
        "assert (info.misses, info.currsize) == (1, 1), info",
        "assert cli.build_parser() is cli.build_parser()",
    ])
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
