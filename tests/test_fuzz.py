"""Input contract under random input: whatever the manifest or flag, `main`
ends in a documented exit code (0/2/3/4), raises nothing, prints no
traceback, and an input error (exit 2) is one line on stderr.

Hypothesis runs derandomized with a fixed example budget, so the inputs
are the same on every run."""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from poissonsym.cli import main

SETTINGS = settings(derandomize=True, max_examples=120, deadline=None,
                    database=None, suppress_health_check=[HealthCheck.too_slow])

#: grammar texts: metric-like entries, edge cases and junk
POSITIVE = st.sampled_from(["1", "2", "1/2", "1.5", "1+y^2", "exp(x)",
                            "cosh(y)", "x^2+1"])
TEXTS = st.one_of(
    POSITIVE,
    st.sampled_from(["0", "-1", "x", "y", "x^2", "sqrt(x)", "ln(x)", "1/x",
                     "x-x", "1/0", "u", "u_x", "F_val", "nosuch", "sin(",
                     "", "((1))", "2^(1/3)", "x*y"]),
    st.text(alphabet="xy0123+-*/^(). e", max_size=6))

#: a JSON value of any type, small
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                 st.floats(allow_nan=True, allow_infinity=True),
                 st.text(max_size=3), st.lists(st.integers(0, 2), max_size=2),
                 st.dictionaries(st.text(max_size=2), st.integers(0, 1),
                                 max_size=1))


@st.composite
def manifests(draw):
    """A well-formed manifest document on 2 or 3 coordinates, with random
    off-diagonal metric entries and vector field, and at most one part
    replaced by a random name, text or value of the wrong type."""
    n = draw(st.integers(2, 3))
    coords = ["x", "y", "z"][:n]
    upper = {(i, j): draw(POSITIVE if i == j else st.one_of(st.just("0"),
                                                            TEXTS))
             for i in range(n) for j in range(i, n)}
    g = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    doc = {"manifold": {"coords": coords, "box": {"x": [0.5, 2.0]}},
           "metric": {"g": g},
           "vectorfields": {"V": draw(st.lists(TEXTS, min_size=n,
                                               max_size=n))}}
    part = draw(st.sampled_from([None, None, None, "coords", "signature",
                                 "box", "entry", "metric", "manifold",
                                 "vectorfields", "document"]))
    if part == "coords":
        doc["manifold"]["coords"] = draw(st.lists(
            st.sampled_from(["x", "y", "z", "t", "u", "exp", "x y", ""]),
            min_size=n, max_size=n))
    elif part == "signature":
        doc["manifold"]["signature"] = draw(st.one_of(
            st.sampled_from(["riemannian", "lorentzian"]), JUNK))
    elif part == "box":
        doc["manifold"]["box"] = {draw(st.sampled_from(["x", "y", "w"])):
                                  draw(JUNK)}
    elif part == "entry":
        g[0][n - 1] = g[n - 1][0] = draw(st.one_of(TEXTS, JUNK))
    elif part == "document":
        return draw(JUNK)
    elif part is not None:
        doc[part] = draw(JUNK)
    return doc


def check_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = err.getvalue()
    assert code in (0, 2, 3, 4), (argv, code, text)
    assert "Traceback" not in text, (argv, text)
    if code == 2:
        assert text.startswith("error: ") and text.count("\n") == 1, \
            (argv, text)


@SETTINGS
@given(doc=manifests(), command=st.sampled_from(["curvature", "killing"]))
def test_random_manifests_keep_the_exit_contract(tmp_path_factory, doc,
                                                 command):
    path = tmp_path_factory.getbasetemp() / "fuzz_manifest.json"
    path.write_text(json.dumps(doc))
    argv = [command, str(path)] + (["V"] if command == "killing" else [])
    check_contract(argv)


FLAGS = st.one_of(
    st.tuples(st.just("--k"), TEXTS).map(
        lambda f: ["noether", "--class", "constant", *f, "R1"]),
    st.tuples(st.just("--p"), TEXTS).map(
        lambda f: ["noether", "--class", "power", *f, "R7"]),
    st.one_of(st.integers(-3, 3).map(str), TEXTS).map(
        lambda v: ["current", "--class", "zero", "R1", "--verify", v]),
    st.one_of(TEXTS, st.lists(TEXTS, min_size=2, max_size=4).map(",".join))
    .map(lambda f: ["noether", "--class", "zero", f]))


@SETTINGS
@given(argv=FLAGS)
def test_random_flag_values_keep_the_exit_contract(argv):
    check_contract([argv[0], "--geometry", "euclidean", *argv[1:]])
