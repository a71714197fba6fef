"""Command-line frontend: manifest validation, output schemas, and the exit
code contract (0 ok / 2 input / 3 geometry / 4 symmetry).  Commands run
in-process through main(argv)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import sympy as sp

from poissonsym import catalog, exprcore, geom
from poissonsym.cli import (EXIT_GEOMETRY, EXIT_INPUT, EXIT_OK, EXIT_PIPE,
                            EXIT_SYMMETRY, InputError, export_fixture,
                            load_manifest, main, suite_document)
from poissonsym.exprcore import normalize, parse, to_grammar
from poissonsym.geom import ConformalVerdict, VectorField, conformal_check


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# manifest round trip

@pytest.mark.parametrize("name", ["euclidean", "hyperbolic3", "heisenberg"])
def test_export_round_trip(name):
    fix = catalog.load(name)
    doc = export_fixture(name)
    loaded = load_manifest(doc)
    M, M2 = fix.space, loaded.space
    assert [str(c) for c in M2.coords] == [str(c) for c in M.coords]
    for i in range(M.n):
        for j in range(M.n):
            back = parse(doc["metric"]["g"][i][j], M.table)
            assert normalize(back - M.g[i, j]) == 0
    assert set(fix.killing) <= set(loaded.vectorfields)


def test_manifest_schema_errors():
    with pytest.raises(InputError):
        load_manifest([])                          # not an object
    with pytest.raises(InputError):
        load_manifest({"manifold": {"coords": ["x", "y"]}})  # no metric
    with pytest.raises(InputError):
        load_manifest({"manifold": {"coords": ["x", "y"]},
                       "metric": {"g": [["1", "0"]]}})       # wrong shape
    with pytest.raises(InputError):
        load_manifest({"manifold": {"coords": ["x", "y"],
                                    "box": {"w": [0, 1]}},
                       "metric": {"g": [["1", "0"], ["0", "1"]]}})
    flat = {"manifold": {"coords": ["x", "y", "z"]},
            "metric": {"g": [["1", "0", "0"], ["0", "1", "0"],
                             ["0", "0", "1"]]}}
    # a box entry must be [lo, hi] with finite numbers lo < hi
    for rng in (5, ["a", "b"], [2, 1], ["nan", 1]):
        with pytest.raises(InputError):
            load_manifest({**flat, "manifold": {"coords": ["x", "y", "z"],
                                                "box": {"z": rng}}})
    # the optional blocks are objects; expression lists hold strings
    for extra in ({"nonlinearity": "power"}, {"ansatz": "x"},
                  {"vectorfields": ["x"]}, {"vectorfields": {"D": [1, 2, 3]}},
                  {"ansatz": {"basis": [1, 2]}}, {"ansatz": {"basis": "xy"}}):
        with pytest.raises(InputError):
            load_manifest({**flat, **extra})
    # a coordinate may not reuse u, a jet name, the arbitrary nonlinearity's
    # symbols or a function name
    for coords in (["x", "y", "u_x"], ["x", "y", "u"], ["x", "y", "xy"],
                   ["x", "y", "F_val"], ["x", "y", "f_val"],
                   ["x", "y", "fprime_val"], ["x", "y", "exp"],
                   ["x", "y", "sqrt"], ["x", "y", "x"],
                   # nor anything but one grammar identifier
                   ["x", "y", "z w"], ["x", "y", "1x"], ["x", "y", ""],
                   ["x", "y", "x-y"]):
        with pytest.raises(InputError):
            load_manifest({**flat, "manifold": {"coords": coords}})
    # a metric entry is a string or a JSON number, and a number is read
    # as its text: 1e-05 is no grammar number
    for entry in (None, True, [1], 1e-5):
        with pytest.raises(InputError):
            load_manifest({**flat, "metric": {"g": [[entry, 0, 0], [0, 1, 0],
                                                    [0, 0, 1]]}})
    M = load_manifest({**flat, "metric": {"g": [[1.5, 0, 0], [0, 1, 0],
                                                [0, 0, 1]]}}).space
    assert M.g[0, 0] == sp.Rational(3, 2) and M.sqrt_det == sp.sqrt(6) / 2
    # expressions must be finite
    for text in ("1/0", "0^(-1)", "0/0", "ln(0)"):
        with pytest.raises(InputError, match="not finite"):
            load_manifest({**flat, "vectorfields": {"V": [text, "0", "0"]}})
        with pytest.raises(InputError, match="not finite"):
            load_manifest({**flat, "metric": {"g": [[text, "0", "0"],
                                                    ["0", "1", "0"],
                                                    ["0", "0", "1"]]}})
    # nesting depth is bounded: a parse error, not a RecursionError
    deep = "(" * 3000 + "1" + ")" * 3000
    with pytest.raises(InputError, match="nested deeper"):
        load_manifest({**flat, "metric": {"g": [[deep, "0", "0"],
                                                ["0", "1", "0"],
                                                ["0", "0", "1"]]}})


def test_manifest_file_workflow(tmp_path, capsys):
    doc = export_fixture("euclidean")
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(doc))
    code, payload, _ = run_json(capsys, "curvature", str(path))
    assert code == EXIT_OK
    assert payload["scalar_curvature"] == "0"
    assert payload["christoffel"] == {}


@pytest.mark.parametrize("argv", [
    ("curvature", "euclidean"),
    ("curvature", "sol"),
    ("curvature", "heisenberg"),
    ("noether", "euclidean", "R13", "--class", "exponential"),
    ("noether", "euclidean", "--class", "exponential", "R13"),
])
def test_geometry_matches_exported_manifest(argv, tmp_path, capsys):
    """--geometry reads the packaged manifest; its export, without the
    fixture block, must give the same report (extra generators included)."""
    command, name, *rest = argv
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(export_fixture(name)))
    direct = run_json(capsys, command, "--geometry", name, *rest)
    via_file = run_json(capsys, command, str(path), *rest)
    assert direct[0] == via_file[0] == EXIT_OK
    assert direct[1] == via_file[1]


# ---------------------------------------------------------------------------
# happy paths

def test_curvature_heisenberg(capsys):
    code, payload, _ = run_json(capsys, "curvature", "--geometry", "heisenberg")
    assert code == EXIT_OK
    assert sp.nsimplify(payload["scalar_curvature"].replace("^", "**")) == -8


def test_killing_verify(capsys):
    code, payload, _ = run_json(capsys, "killing", "--geometry", "sol", "So1")
    assert code == EXIT_OK
    assert payload["verdict"] == "Killing"
    assert payload["mu"] == "0"


def test_killing_solve_conformal_dimension(capsys):
    code, payload, _ = run_json(capsys, "killing", "--geometry", "euclidean",
                                "--solve")
    assert code == EXIT_OK
    assert payload["dimension"] == 10
    assert payload["counts"].get("Isometry") == 6


#: dim C_B(M), the conformal fields in each fixture's ansatz span
CONFORMAL_DIMENSIONS = {"euclidean": 10, "hyperbolic3": 10, "sphere3": 10,
                        "sol": 3, "s2xr": 4, "h2xr": 4, "sl2tilde": 4,
                        "heisenberg": 4}


@pytest.mark.parametrize("name", catalog.GEOMETRY_NAMES)
def test_killing_solve_prints_the_conformal_algebra(name, capsys):
    """`killing --solve` prints C_B(M), whatever the curvature: each field
    is conformal on its own, with the printed mu and label."""
    code, payload, err = run_json(capsys, "killing", "--geometry", name,
                                  "--solve")
    assert (code, err) == (EXIT_OK, "")
    assert payload["dimension"] == len(payload["fields"]) \
        == CONFORMAL_DIMENSIONS[name]
    M = catalog.load(name).space
    for row in payload["fields"]:
        rep = conformal_check(M, VectorField(M, row["xi"]))
        assert rep.verdict is not ConformalVerdict.NOT_CONFORMAL
        assert row["label"] == ("Isometry" if rep.verdict
                                is ConformalVerdict.KILLING
                                else rep.verdict.value)
        assert row["mu"] == to_grammar(rep.mu)


def test_classify_json_schema(capsys):
    code, payload, _ = run_json(capsys, "classify", "--geometry", "sol",
                                "--class", "arbitrary")
    assert code == EXIT_OK
    assert payload["class"] == "arbitrary"
    assert payload["dimension"] == 3
    for row in payload["generators"]:
        assert set(row) == {"generator", "xi", "a", "b", "mu", "case", "checks"}
        assert all(c["passed"] for c in row["checks"])


def test_noether_not_noether_exponential(capsys):
    code, out, _ = run(capsys, "noether", "--geometry", "euclidean",
                       "--class", "exponential", "R13")
    assert code == EXIT_OK
    assert "NotNoether" in out
    assert "residual" in out


def test_noether_divergence_critical(capsys):
    code, payload, _ = run_json(capsys, "noether", "--geometry", "euclidean",
                                "--class", "critical", "R8")
    assert code == EXIT_OK
    assert payload["verdict"] == "Divergence"
    # printed from the field, in normal form
    assert payload["residual"] == "-u*u_z/2"
    assert payload["potential"][0] == "0"
    assert normalize(parse(payload["potential"][2],
                           catalog.load("euclidean").space.table)
                     + sp.Symbol("u", real=True) ** 2 / 4) == 0


def test_current_json_schema_and_verification(capsys):
    code, payload, _ = run_json(capsys, "current", "--geometry", "euclidean",
                                "--class", "linear", "R1", "--verify", "50")
    assert code == EXIT_OK
    assert {"component", "max_divergence", "verdict"} <= set(payload)
    assert len(payload["component"]) == 3
    assert payload["max_divergence"] < 1e-7
    assert payload["symbolic_verified"] and payload["numeric_passed"]


def test_current_inline_field(capsys):
    code, payload, _ = run_json(capsys, "current", "--geometry", "euclidean",
                                "--class", "zero", "0,0,1", "--verify", "20")
    assert code == EXIT_OK
    assert payload["numeric_passed"]


def test_arbitrary_class_output_round_trips(capsys):
    """Arbitrary-class currents and residual reports print F_val, f_val and
    fprime_val, which parse back under the grammar."""
    code, payload, _ = run_json(capsys, "current", "--geometry", "sol",
                                "--class", "arbitrary", "So1")
    assert code == EXIT_OK
    table = catalog.load("sol").space.table
    for text in payload["component"]:
        assert parse(text, table).has(table.lookup("F_val"))
    code, _, err = run(capsys, "noether", "--geometry", "euclidean",
                       "--class", "arbitrary", "R7")
    assert code == EXIT_SYMMETRY
    reports = [ln.split(" = ", 1)[1] for ln in err.splitlines() if " = " in ln]
    assert reports
    table = catalog.load("euclidean").space.table
    for text in reports:
        parse(text, table)


def test_suite_single_geometry(capsys):
    code, out, _ = run(capsys, "suite", "--geometry", "euclidean")
    assert code == EXIT_OK
    assert "PASS" in out


#: flat R^3 with three of its Killing fields and a linear ansatz
FLAT_MANIFEST = {
    "manifold": {"coords": ["x", "y", "z"]},
    "metric": {"g": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
    "vectorfields": {"T": ["1", "0", "0"], "S": ["0", "1", "0"],
                     "R": ["y", "-x", "0"]},
    "ansatz": {"basis": ["1", "x", "y", "z"]}}


def test_suite_runs_the_checks_a_manifest_block_supports(tmp_path, capsys):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(FLAT_MANIFEST))
    code, bare, err = run_json(capsys, "suite", str(path))
    assert (code, err) == (EXIT_OK, "")
    [report] = bare["suites"]
    assert report["geometry"] == "flat"
    assert {c["name"].split(":")[0] for c in report["checks"]} == {
        "classify", "isometry_labels", "noether", "currents"}
    path.write_text(json.dumps({**FLAT_MANIFEST, "fixture": {
        "curvature": "0", "killing": ["T", "S", "R"],
        "class_dimensions": {"arbitrary": 6}, "harmonic_b": "x"}}))
    code, full, err = run_json(capsys, "suite", str(path))
    assert (code, err) == (EXIT_OK, "")
    names = [c["name"] for c in full["suites"][0]["checks"]]
    assert names[:7] == ["curvature", "killing:T", "killing:S", "killing:R",
                         "basis_independent", "bracket_closure", "harmonic_b"]
    assert {"classify:arbitrary:dimension", "isometry_span"} <= set(names)
    assert full["suites"][0]["class_dimensions"] \
        == report["class_dimensions"]


_REF = {"name": "A", "symmetry": "T", "components": ["0", "0", "0"],
        "matches": [True, True, True]}


#: one malformed part of a `fixture` block each
MALFORMED_BLOCKS = {
    "not-an-object": ["T"],
    "curvature-number": {"curvature": 0},
    "isometry-dimension-negative": {"isometry_dimension": -1},
    "class-dimension-float": {"class_dimensions": {"arbitrary": 6.5}},
    "class-dimension-bool": {"class_dimensions": {"arbitrary": True}},
    # a key names a class the suite can run on the chart
    "class-dimension-misspelt": {"class_dimensions": {"critcal": 10}},
    "class-dimension-needs-p": {"class_dimensions": {"power": 7}},
    "class-dimension-p2n6-in-3d": {"class_dimensions": {"p2n6": 0}},
    "killing-unknown-field": {"killing": ["T", "Q"]},
    "killing-not-a-list": {"killing": "T"},
    "auxiliary-not-names": {"auxiliary": [1]},
    "generator-unknown-field": {"generators": {"Q": {"case": "zero"}}},
    "generator-unknown-case": {"generators": {"T": {"case": "nosuch"}}},
    "generator-p-text": {"generators": {"T": {"case": "power", "p": "3"}}},
    "generator-not-an-object": {"generators": {"T": ["zero"]}},
    "bracket-three-fields": {"brackets": [{"fields": ["T", "S", "R"],
                                           "expected": ["0", "0", "0"]}]},
    "bracket-short-expected": {"brackets": [{"fields": ["T", "S"],
                                             "expected": ["0", "0"]}]},
    "brackets-not-a-list": {"brackets": {"fields": ["T", "S"]}},
    "harmonic-b-number": {"harmonic_b": 1},
    "reference-without-components": {"reference_currents": [
        {k: v for k, v in _REF.items() if k != "components"}]},
    "reference-short-matches": {"reference_currents": [
        {**_REF, "matches": [True, True]}]},
    "reference-matches-not-bools": {"reference_currents": [
        {**_REF, "matches": [1, 1, 1]}]},
    "reference-unknown-symmetry": {"reference_currents": [
        {**_REF, "symmetry": "Q"}]},
    "reference-shift-without-b": {"reference_currents": [
        {**_REF, "symmetry": "b"}]},
    "reference-without-name": {"reference_currents": [
        {**_REF, "name": None}]},
    "reference-note-number": {"reference_currents": [{**_REF, "note": 3}]},
    "reference-not-an-object": {"reference_currents": ["A"]},
}


@pytest.mark.parametrize("block", MALFORMED_BLOCKS.values(),
                         ids=list(MALFORMED_BLOCKS))
def test_malformed_fixture_block_exit_2(block, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({**FLAT_MANIFEST, "fixture": block}))
    code, out, err = run(capsys, "suite", str(path))
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("error: fixture") and err.count("\n") == 1


@pytest.mark.parametrize("value", [[], "", 0, False, None],
                         ids=["list", "text", "zero", "false", "null"])
@pytest.mark.parametrize("key", ["vectorfields", "nonlinearity", "ansatz",
                                 "fixture", "box"])
def test_optional_block_of_the_wrong_type_exit_2(key, value, tmp_path,
                                                 capsys):
    """A present optional block is an object, even when its value is falsy;
    only an absent one keeps its default."""
    doc = {**FLAT_MANIFEST, "manifold": dict(FLAT_MANIFEST["manifold"])}
    (doc["manifold"] if key == "box" else doc)[key] = value
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "curvature", str(path))
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be an object" in err


def test_suite_all_json_is_pinned(suite_reports):
    # `suite --all --json` prints this document; the file holds its output
    reports = [suite_reports[name] for name in catalog.GEOMETRY_NAMES]
    golden = Path(__file__).parent / "data" / "suite_all.json"
    assert (json.dumps(suite_document(reports), indent=2) + "\n"
            == golden.read_text())


@pytest.mark.parametrize("name", catalog.GEOMETRY_NAMES)
def test_curvature_json_is_pinned(name, capsys):
    # the file maps each fixture to its `curvature --geometry G --json`
    golden = json.loads((Path(__file__).parent / "data"
                         / "curvature_all.json").read_text())
    code, out, _ = run(capsys, "curvature", "--geometry", name, "--json")
    assert code == EXIT_OK
    assert out == json.dumps(golden[name], indent=2) + "\n"


@pytest.mark.parametrize("name", catalog.GEOMETRY_NAMES)
def test_export_is_pinned(name, capsys):
    # the file maps each fixture to the document `export G` prints
    golden = json.loads((Path(__file__).parent / "data"
                         / "export_all.json").read_text())
    code, out, err = run(capsys, "export", name)
    assert (code, err) == (EXIT_OK, "")
    assert out == json.dumps(golden[name], indent=2) + "\n"


def test_export_prints_manifest(capsys):
    code, out, _ = run(capsys, "export", "sol")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["manifold"]["coords"] == ["x", "y", "z"]
    assert "So1" in doc["vectorfields"]


# ---------------------------------------------------------------------------
# exit codes

def test_unknown_geometry_exit_2(capsys):
    code, _, err = run(capsys, "curvature", "--geometry", "nosuch")
    assert code == EXIT_INPUT
    assert "error" in err


def test_help_prints_usage(capsys):
    code, out, _ = run(capsys, "curvature", "-h")
    assert code == EXIT_OK and out.startswith("usage: ")


def test_p2n6_wrong_dimension_exit_2(capsys):
    code, _, _ = run(capsys, "classify", "--geometry", "euclidean",
                     "--class", "p2n6")
    assert code == EXIT_INPUT


def test_bad_json_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, _ = run(capsys, "curvature", str(path))
    assert code == EXIT_INPUT


def test_missing_args_exit_2(capsys, tmp_path):
    code, _, _ = run(capsys, "noether", "--geometry", "euclidean",
                     "--class", "power", "R1")   # power without --p
    assert code == EXIT_INPUT
    for p in ("abc", "1/0", "2.5.1", "nan"):     # not a rational exponent
        code, _, err = run(capsys, "noether", "--geometry", "euclidean",
                           "--class", "power", "--p", p, "R1")
        assert code == EXIT_INPUT
        assert err.startswith("error: ") and err.count("\n") == 1
    # F_val is no coordinate function: not in a field, not in a basis;
    # --verify counts samples; k is a nonzero number; expressions are finite
    for argv in (("noether", "--geometry", "euclidean", "--class", "zero",
                  "F_val,0,0"),
                 ("killing", "--geometry", "euclidean", "--solve",
                  "--basis", "1,x,F_val"),
                 ("current", "--geometry", "euclidean", "--class", "critical",
                  "R8", "--verify", "-5"),
                 *(("noether", "--geometry", "euclidean", "--class",
                    "constant", "--k", k, "R1")
                   for k in ("x", "u", "1/0", "0/0", "ln(0)", "0^(-1)")),
                 ("noether", "--geometry", "euclidean", "--class", "zero",
                  "1/0,0,0"),
                 # --geometry takes no manifest path
                 ("curvature", "--geometry", "euclidean", "nosuch.json"),
                 ("classify", "--geometry", "euclidean", "nosuch.json",
                  "--class", "zero"),
                 ("killing", "--geometry", "sol", "nosuch.json", "So1"),
                 # malformed flag values and an unknown command: one line,
                 # no usage block
                 ("current", "--geometry", "euclidean", "--class", "critical",
                  "R8", "--verify", "abc"),
                 ("classify", "--geometry", "euclidean", "--class", "nosuch"),
                 ("curvature", "--geometry", "euclidean", "--seed", "x"),
                 ("nosuch",),
                 ("suite", "--geometry", "nosuch"),
                 # suite takes one manifest, one --geometry or --all
                 ("suite",),
                 ("suite", "--all", "--geometry", "euclidean")):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_INPUT
        assert err.startswith("error: ") and err.count("\n") == 1
    # the signature is riemannian or lorentzian
    doc = {"manifold": {"coords": ["x", "y", "z"], "signature": 5},
           "metric": {"g": [["1", "0", "0"], ["0", "1", "0"],
                            ["0", "0", "1"]]}}
    path = tmp_path / "signature.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "curvature", str(path))
    assert code == EXIT_INPUT
    assert err.startswith("error: ") and err.count("\n") == 1


def test_commands_do_not_import_numpy():
    script = (
        "import sys\n"
        "from poissonsym.cli import main\n"
        "assert main(['classify', '--geometry', 'euclidean', '--class',"
        " 'arbitrary', '--basis', '1,x,y,z']) == 0\n"
        "assert main(['current', '--geometry', 'euclidean', '--class',"
        " 'critical', 'R8', '--verify', '20']) == 0\n"
        "assert 'numpy' not in sys.modules\n")
    src = os.path.dirname(os.path.dirname(catalog.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    res = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_closed_stdout_ends_quietly():
    # `poissonsym export sol | head -1`, with the reader gone before the
    # first write
    src = os.path.dirname(os.path.dirname(catalog.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    read, write = os.pipe()
    os.close(read)
    try:
        res = subprocess.run(
            [sys.executable, "-m", "poissonsym.cli", "export", "sol"],
            env=env, stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert (res.returncode, res.stderr) == (EXIT_PIPE, "")


def test_singular_metric_exit_3(tmp_path, capsys):
    doc = {"manifold": {"coords": ["x", "y"]},
           "metric": {"g": [["1", "0"], ["0", "0"]]}}
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "curvature", str(path))
    assert code == EXIT_GEOMETRY
    assert "geometry error" in err


@pytest.mark.parametrize("signature,diagonal,code", [
    ("riemannian", ("1", "1", "-1"), EXIT_GEOMETRY),
    ("lorentzian", ("-1", "-1", "1"), EXIT_GEOMETRY),
    ("lorentzian", ("-1", "1", "1"), EXIT_OK),
], ids=["riemannian-indefinite", "lorentzian-two-negative", "lorentzian"])
def test_declared_signature_is_checked(signature, diagonal, code, tmp_path,
                                       capsys):
    g = [[diagonal[i] if i == j else "0" for j in range(3)] for i in range(3)]
    doc = {"manifold": {"coords": ["t", "x", "y"], "signature": signature},
           "metric": {"g": g}}
    path = tmp_path / "signature.json"
    path.write_text(json.dumps(doc))
    got, _, err = run(capsys, "curvature", str(path))
    assert got == code
    if code == EXIT_GEOMETRY:
        assert err.startswith("geometry error: ") and err.count("\n") == 1


def test_lorentzian_current_on_a_curved_chart(tmp_path, capsys):
    # sqrt|g| = sqrt(-det g), det g = t < 0 on the box: the current carries
    # sqrt(-t) and both of its checks pass
    doc = {"manifold": {"coords": ["t", "x", "y"], "signature": "lorentzian",
                        "box": {"t": [-2, -0.5]}},
           "metric": {"g": [["t", "0", "0"], ["0", "1", "0"],
                            ["0", "0", "1"]]}}
    path = tmp_path / "lorentzian.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "current", str(path), "--class", "arbitrary",
                         "0,1,0", "--verify", "5")
    assert (code, err) == (EXIT_OK, "")
    assert "sqrt(-t)" in out and "Abs" not in out
    assert out.count(": PASS") == 2


#: a rational metric whose sqrt g does not convert to the field
DENSE = {"manifold": {"coords": ["x", "y", "z"], "box": {"x": [1, 2]}},
         "metric": {"g": [["3", "1/x", "-1"], ["1/x", "2+x^2", "-1"],
                          ["-1", "-1", "2+y^2"]]}}


def test_killing_solve_needs_no_sqrt_g(tmp_path, capsys, monkeypatch):
    """g converts but sqrt g does not: the Killing solve needs g alone, so
    every identity runs in the field and no sampled zero test is taken."""
    def forbidden(*args):
        raise AssertionError("sampled zero test on a rational metric")
    for module in (exprcore, geom):
        monkeypatch.setattr(module, "is_zero", forbidden)
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(DENSE))
    code, out, err = run_json(capsys, "killing", str(path), "--solve")
    assert (code, err) == (EXIT_OK, "")
    assert out == {"fields": [{"generator": "G1", "xi": ["0", "0", "1"],
                               "mu": "0", "label": "Isometry"}],
                   "counts": {"Isometry": 1}, "dimension": 1}


def test_zero_current_check_names_sqrt_g(tmp_path, capsys):
    """D_k A^k = sqrt(g) Q H uses sqrt g itself, so a current without it
    (X = 0) is still checked where sqrt g lives: on Exprs here."""
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(DENSE))
    code, out, err = run(capsys, "current", str(path), "--class",
                         "arbitrary", "0,0,0", "--verify", "5")
    assert (code, err) == (EXIT_OK, "")
    assert out.count(": PASS") == 2


def test_killing_solve_on_an_abs_sqrt_g_chart(tmp_path, capsys):
    """With no box, g = diag(x^2, 1, 1) has sqrt g = |x|, which no
    identity of g needs: the Laplacian and the solve take det g = x^2."""
    doc = {"manifold": {"coords": ["x", "y", "z"]},
           "metric": {"g": [["x^2", "0", "0"], ["0", "1", "0"],
                            ["0", "0", "1"]]}}
    path = tmp_path / "abs.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_json(capsys, "killing", str(path), "--solve")
    assert (code, err) == (EXIT_OK, "")
    assert out["dimension"] == 4
    assert out["counts"] == {"Homothety": 1, "Isometry": 3}


@pytest.mark.parametrize("cls", ["critical", "zero", "arbitrary"])
def test_two_dimensional_chart_exit_3(cls, tmp_path, capsys):
    doc = {"manifold": {"coords": ["x", "y"]},
           "metric": {"g": [["1", "0"], ["0", "1"]]},
           "vectorfields": {"T": ["1", "0"]}}
    path = tmp_path / "flat2.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "noether", str(path), "--class", cls, "T")
    assert code == EXIT_GEOMETRY
    assert err == ("geometry error: symmetry classification needs "
                   "dimension n >= 3\n")


def test_non_symmetry_exit_4(capsys):
    # the exponential-case dilation is a symmetry but not Noether: asking
    # for its current must fail with the symmetry exit code
    code, _, err = run(capsys, "current", "--geometry", "euclidean",
                       "--class", "exponential", "R13")
    assert code == EXIT_SYMMETRY
    assert err == ("symmetry error: no conserved current: "
                   "symmetry is NotNoether\n")


def test_not_a_symmetry_exit_4(capsys):
    # a rotation is an isometry, but with the wrong class lift the shift
    # field x d/dx is not a symmetry of the linear equation
    code, _, err = run(capsys, "noether", "--geometry", "euclidean",
                       "--class", "critical", "x,0,0")
    assert code == EXIT_SYMMETRY
    assert "determining equations fail" in err
