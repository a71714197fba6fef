"""Built-in geometry fixtures: loading, internal consistency, reference-table
reconciliation, and the per-geometry check suite."""

import json
from pathlib import Path

import pytest
import sympy as sp

from poissonsym import catalog, exprcore
from poissonsym.catalog import CatalogError, SuiteReport
from poissonsym.exprcore import Verdict, is_zero
from poissonsym.geom import ConformalVerdict, conformal_check


def test_geometry_names():
    assert len(catalog.GEOMETRY_NAMES) == 8
    assert "euclidean" in catalog.GEOMETRY_NAMES
    assert "sphere3" in catalog.GEOMETRY_NAMES
    # one packaged manifest per name, and no other
    assert ({p.stem for p in catalog.FIXTURES.glob("*.json")}
            == set(catalog.GEOMETRY_NAMES))
    # `suite --all` runs them in this order, which the pinned outputs keep
    data = Path(__file__).parent / "data"
    suites = json.loads((data / "suite_all.json").read_text())["suites"]
    assert tuple(s["geometry"] for s in suites) == catalog.GEOMETRY_NAMES
    for pin in ("export_all.json", "curvature_all.json"):
        assert tuple(json.loads((data / pin).read_text())) \
            == catalog.GEOMETRY_NAMES


def test_unknown_geometry_rejected():
    with pytest.raises(CatalogError):
        catalog.load("nosuch")


@pytest.mark.parametrize("name", catalog.GEOMETRY_NAMES)
def test_fixture_shape(name):
    fix = catalog.load(name)
    assert fix.space.n == 3
    assert len(fix.killing) == fix.isometry_dimension
    assert len(fix.basis) >= 1


def test_isometry_dimensions():
    dims = [catalog.load(n).isometry_dimension for n in catalog.GEOMETRY_NAMES]
    assert sorted(dims) == sorted([6, 6, 6, 3, 4, 4, 4, 4])


@pytest.mark.parametrize("name", ["euclidean", "sol", "h2xr"])
def test_cataloged_fields_are_killing(name):
    fix = catalog.load(name)
    for key, xi in fix.killing.items():
        rep = conformal_check(fix.space, xi)
        assert rep.verdict is ConformalVerdict.KILLING, key


def test_vector_field_lookup_error():
    fix = catalog.load("euclidean")
    with pytest.raises(CatalogError):
        fix.vector_field("nosuch")


@pytest.mark.parametrize("name", ["euclidean", "sol", "h2xr"])
def test_reference_table_reconciliation(name):
    """Observed per-component agreement must equal the documented agreement:
    correct entries reproduce exactly, transcribed discrepancies stay
    flagged and are never silently corrected."""
    fix = catalog.load(name)
    results = catalog.reconcile_reference_tables(fix)
    assert results
    for ref, observed, _ in results:
        assert observed == ref.matches, ref.name
        if not all(ref.matches):
            assert ref.note   # every discrepancy carries an explanation


def test_flagged_tables_have_notes():
    for name in catalog.GEOMETRY_NAMES:
        fix = catalog.load(name)
        for ref in fix.reference_currents:
            if not all(ref.matches):
                assert ref.note, f"{name}:{ref.name}"


def test_harmonic_b_choices():
    from poissonsym.geom import laplace_beltrami
    from poissonsym.exprcore import parse
    for name in catalog.GEOMETRY_NAMES:
        fix = catalog.load(name)
        if fix.harmonic_b is None:
            continue
        M = fix.space
        b = parse(fix.harmonic_b, M.table)
        assert is_zero(laplace_beltrami(M.exprs, b),
                       M.policy()) is Verdict.ZERO, name


def test_span_checks_decide_in_the_field(monkeypatch):
    """On a rational chart the bracket-closure and independence checks hand
    jet fractions to linear_relations, whose Expr kernel never runs; sol's
    exp(2x) keeps them on that kernel."""
    kernel, calls = exprcore._field_elements, []
    monkeypatch.setattr(exprcore, "_field_elements",
                        lambda exprs: calls.append(exprs) or kernel(exprs))
    report = SuiteReport("sol")
    catalog._bracket_closure(catalog.load("sol"), report)
    assert report.passed and calls

    def refuse(exprs):
        raise AssertionError("Expr kernel of linear_relations")
    fix = catalog.load("sphere3")
    monkeypatch.setattr(exprcore, "_field_elements", refuse)
    report = catalog.run_fixture_suite(fix, classes=())
    passed = {c.name: c.passed for c in report.checks}
    assert passed["bracket_closure"] and passed["basis_independent"]


# ---------------------------------------------------------------------------
# the full per-geometry suites (computed once per session in conftest)

def test_all_suites_pass(suite_reports):
    failed = {name: [c.name for c in rep.checks
                     if c.severity == "error" and not c.passed]
              for name, rep in suite_reports.items() if not rep.passed}
    assert not failed, failed


def test_suites_verify_currents(suite_reports):
    for name, rep in suite_reports.items():
        assert rep.currents_verified > 0, name


def test_suites_report_lines(suite_reports):
    rep = suite_reports["euclidean"]
    lines = rep.lines()
    assert any("killing" in ln for ln in lines)
    assert len(lines) >= len(rep.checks)


def test_known_discrepancies_stay_flagged(suite_reports):
    flagged = {name: set(rep.flagged_tables)
               for name, rep in suite_reports.items()}
    assert flagged["hyperbolic3"], "transcribed A-table discrepancy missing"
    assert flagged["sphere3"], "transcribed table discrepancies missing"
    assert flagged["heisenberg"], "transcribed B-table discrepancy missing"
    assert not flagged["euclidean"]
