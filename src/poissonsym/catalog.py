"""Built-in geometry fixtures and the fixture verification suite.

A fixture is a manifest, read by the one manifest reader
(`cli.load_manifest`) like any user's.  The eight homogeneous 3-geometries
ship as `fixtures/<name>.json`: exact metrics, safe sample boxes, Killing
bases and ansatz bases, plus a `fixture` block with what the suite checks
them against.  A user manifest may carry the same block.  The block holds
expected scalar curvatures, isometry and class dimensions, extra
generators, special brackets, a harmonic b and externally tabulated
conservation-law reference tables.  The reference tables are transcribed
verbatim from their source, including its known typographic errors, and
reconciled term-by-term against currents rebuilt by this package;
documented discrepancies are flagged, never silently corrected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import sympy as sp

from .exprcore import Verdict, linear_relations, parse
from .geom import (
    ConformalVerdict,
    MetricSpace,
    VectorField,
    conformal_check,
    laplace_beltrami,
    lie_bracket,
)
from .detsys import (
    AnsatzBasis,
    NonlinearityClass,
    SymmetryGenerator,
    classify,
    determining_residuals,
)
from .noether import (
    Lagrangian,
    NoetherKind,
    build_current,
    noether_classify,
    verify_current_numeric,
    verify_current_symbolic,
)


class CatalogError(Exception):
    pass


#: the packaged fixtures, in the order `suite --all` runs them
GEOMETRY_NAMES = ("euclidean", "hyperbolic3", "sphere3", "sol",
                  "s2xr", "h2xr", "sl2tilde", "heisenberg")

FIXTURES = Path(__file__).with_name("fixtures")

#: default class sweep for the fixture suite
DEFAULT_CLASSES = ("arbitrary", "zero", "linear", "exponential",
                   "power3", "critical")

#: sweep names that fix the exponent of a named class
_SWEEP_ALIASES = {"power3": ("power", 3)}

#: classes whose Noether symmetries get their currents built and verified
CURRENT_CLASSES = ("arbitrary", "zero", "linear", "critical")


@dataclass(frozen=True)
class ReferenceCurrent:
    """One reference conservation-law table, transcribed verbatim.

    `symmetry` names a manifest vector field, or is "b" for a u-shift
    generator b(x) d/du (then `b` holds a concrete harmonic choice used to
    instantiate the table).  `matches` records, per component, whether the
    transcribed entry agrees with the current rebuilt by this package;
    False entries are documented discrepancies explained in `note`.
    """

    name: str
    symmetry: str
    components: tuple
    matches: tuple
    note: str = ""
    b: str | None = None


@dataclass(frozen=True)
class KnownGenerator:
    """A named extra symmetry (beyond the isometries): the manifest vector
    field `name` with u-coefficient a u + b, in its class."""

    name: str
    case: str
    a: str = "0"
    b: str = "0"
    p: int | None = None


@dataclass
class GeometryFixture:
    """A loaded manifest: its chart, named vector fields, ansatz and
    nonlinearity blocks, and what its optional `fixture` block expects."""

    name: str
    space: MetricSpace
    vectorfields: dict
    ansatz: AnsatzBasis | None = None
    nonlinearity: dict | None = None
    killing: dict = field(default_factory=dict)
    auxiliary_fields: dict = field(default_factory=dict)
    expected_curvature: str | None = None
    isometry_dimension: int | None = None
    expected_class_dimensions: dict = field(default_factory=dict)
    extra_generators: tuple = ()
    special_brackets: tuple = ()       # (name1, name2, expected components)
    harmonic_b: str | None = None      # concrete solution of Delta_g b = 0
    reference_currents: tuple = ()

    @cached_property
    def basis(self) -> AnsatzBasis:
        """The manifest's ansatz, else the polynomials of degree <= 2."""
        if self.ansatz is not None:
            return self.ansatz
        return AnsatzBasis.polynomial(self.space, 2)

    def vector_field(self, name: str) -> VectorField:
        try:
            return self.vectorfields[name]
        except KeyError:
            raise CatalogError(
                f"no vector field '{name}' in fixture {self.name}") from None

    def generator(self, name: str) -> SymmetryGenerator:
        for kg in self.extra_generators:
            if kg.name == name:
                return SymmetryGenerator(self.vector_field(name), kg.a, kg.b)
        return SymmetryGenerator(self.vector_field(name),
                                 sp.Integer(0), sp.Integer(0))


def document(name: str) -> dict:
    """The packaged manifest of the built-in geometry `name`."""
    if name not in GEOMETRY_NAMES:
        raise CatalogError(
            f"unknown geometry '{name}'; choose from {GEOMETRY_NAMES}")
    return json.loads((FIXTURES / f"{name}.json").read_text())


def load(name: str) -> GeometryFixture:
    """The built-in geometry `name`, read like a user manifest."""
    from .cli import load_manifest          # cli imports this module
    return load_manifest(document(name), name)


# ---------------------------------------------------------------------------
# fixture suite

@dataclass
class SuiteCheck:
    name: str
    passed: bool
    severity: str = "error"       # "warning" entries never fail the suite
    detail: str = ""


@dataclass
class SuiteReport:
    geometry: str
    checks: list = field(default_factory=list)
    class_dimensions: dict = field(default_factory=dict)
    noether_kinds: dict = field(default_factory=dict)
    currents_verified: int = 0
    flagged_tables: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.severity == "error")

    def add(self, name, passed, severity="error", detail=""):
        self.checks.append(SuiteCheck(name, passed, severity, detail))

    def lines(self):
        out = []
        for c in self.checks:
            status = "PASS" if c.passed else (
                "FLAG" if c.severity == "warning" else "FAIL")
            line = f"[{status}] {self.geometry}: {c.name}"
            if c.detail:
                line += f" -- {c.detail}"
            out.append(line)
        return out


def _in_field(M: MetricSpace, cols) -> list:
    """cols as jet fractions when every entry converts on M, else as given."""
    R = M.representation(*(e for col in cols for e in col))
    return [tuple(map(R.of, col)) for col in cols]


def _span_coefficients(M: MetricSpace, cols, target):
    """Rational c with target = sum_m c_m cols[m], or None when target is
    not in the span."""
    for rel in linear_relations(_in_field(M, list(cols) + [target])):
        if rel[-1] != 0:
            return [-c / rel[-1] for c in rel[:-1]]
    return None


def _bracket_closure(fix: GeometryFixture, report: SuiteReport):
    M = fix.space
    names = list(fix.killing)
    fields = [fix.killing[n] for n in names]
    cols = [tuple(f.components) for f in fields]
    failures = []
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            br = lie_bracket(fields[i], fields[j])
            rc = _span_coefficients(M, cols, tuple(br.components))
            if rc is None:
                failures.append(f"[{names[i]},{names[j]}] not in the span")
                continue
            for k in range(M.n):
                diff = br.components[k] - sum(
                    rc[m] * fields[m].components[k] for m in range(len(fields)))
                if M.exprs.zero(diff) is not Verdict.ZERO:
                    failures.append(
                        f"[{names[i]},{names[j]}] symbolic recheck comp {k}")
                    break
    report.add("bracket_closure", not failures, detail="; ".join(failures))


def sweep_class(M: MetricSpace, cname: str) -> NonlinearityClass:
    """The class of the sweep name cname on M (k symbolic), or an error."""
    name, p = _SWEEP_ALIASES.get(cname, (cname, None))
    return NonlinearityClass.named(name, M, p, None)


def _noether_representative(gen: SymmetryGenerator, cls: NonlinearityClass,
                            mu) -> SymmetryGenerator:
    """For the scaling classes a = ((2-n)/4) mu + c can be shifted to the
    canonical c = 0; the shifted representative is the one eligible for a
    conserved current."""
    if cls.scaling:
        a, _ = cls.lift(gen.space.n, mu)
        return SymmetryGenerator(gen.xi, a, gen.b)
    return gen


def _run_class(fix: GeometryFixture, cname: str, report: SuiteReport):
    M = fix.space
    cls = sweep_class(M, cname)
    table = classify(M, cls, fix.basis)
    report.class_dimensions[cname] = table.dimension
    report.add(f"classify:{cname}:clean", not table.inconclusive,
               detail=f"{len(table.inconclusive)} inconclusive directions")
    violations = [f"gen{idx}:{','.join(e.violations)}"
                  for idx, e in enumerate(table.entries) if e.violations]
    report.add(f"classify:{cname}:side_conditions", not violations,
               detail="; ".join(violations))
    expected = fix.expected_class_dimensions.get(cname)
    if expected is not None:
        report.add(f"classify:{cname}:dimension",
                   table.dimension == expected,
                   detail=f"found {table.dimension}, expected {expected}")

    if cname == "arbitrary":
        if fix.killing:
            cols = [tuple(e.generator.xi.components)
                    + (e.generator.a, e.generator.b) for e in table.entries]
            missing = [name for name, fld in fix.killing.items()
                       if _span_coefficients(M, cols, tuple(fld.components)
                                             + (sp.Integer(0), sp.Integer(0)))
                       is None]
            report.add("isometry_span", not missing,
                       detail="; ".join(missing))
        report.add("isometry_labels",
                   all(e.label == "Isometry" for e in table.entries),
                   detail=", ".join(e.label for e in table.entries))

    lag = Lagrangian(M, cls)
    kinds = {}
    current_failures = []
    do_currents = cname in CURRENT_CLASSES
    for idx, entry in enumerate(table.entries):
        gen = _noether_representative(entry.generator, cls, entry.mu)
        if gen is not entry.generator:
            rep = determining_residuals(M, gen, cls)
            if not rep.verdict:
                current_failures.append(f"gen{idx}: shifted representative "
                                        "fails the determining equations")
                continue
        verdict = noether_classify(lag, gen)
        kinds[f"gen{idx}"] = verdict.kind.value
        if not do_currents:
            continue
        if verdict.kind not in (NoetherKind.VARIATIONAL,
                                NoetherKind.DIVERGENCE):
            continue
        cur = build_current(lag, gen, verdict)
        if not verify_current_symbolic(cur):
            current_failures.append(f"gen{idx}: symbolic divergence check")
            continue
        num = verify_current_numeric(cur)
        if not num.passed:
            current_failures.append(
                f"gen{idx}: numeric max divergence {num.max_divergence:.2e}")
            continue
        report.currents_verified += 1
    report.noether_kinds[cname] = kinds
    if cname == "arbitrary":
        report.add("noether:arbitrary:variational",
                   all(k == "Variational" for k in kinds.values()),
                   detail=str(kinds))
    if do_currents:
        report.add(f"currents:{cname}", not current_failures,
                   detail="; ".join(current_failures))


def reconcile_reference_tables(fix: GeometryFixture):
    """Rebuild each reference table's current and compare term by term.

    Returns a list of (ReferenceCurrent, observed per-component agreement,
    per-component residual expressions).
    """
    M = fix.space
    lags = {}                                  # one Lagrangian per class
    results = []
    for ref in fix.reference_currents:
        if ref.symmetry == "b":
            cls = NonlinearityClass.zero(M.table.u)
            gen = SymmetryGenerator(
                VectorField(M, [sp.Integer(0)] * M.n),
                sp.Integer(0), ref.b)
        else:
            cls = NonlinearityClass.arbitrary(M.table.u)
            gen = fix.generator(ref.symmetry)
        lags[cls] = lags.get(cls) or Lagrangian(M, cls)
        cur = build_current(lags[cls], gen)
        expected = [parse(c, M.table) for c in ref.components]
        R = M.representation(*cur.components, *expected)
        residuals = [a - b for a, b in zip(cur.components, expected)]
        observed = tuple(R.zero(R.of(a) - R.of(b)) is Verdict.ZERO
                         for a, b in zip(cur.components, expected))
        results.append((ref, observed, residuals))
    return results


def run_fixture_suite(fixture, classes=None) -> SuiteReport:
    """Run the class sweep (by default DEFAULT_CLASSES, then each other
    class the block gives a dimension) and every check the fixture block
    supports; failures are collected, never raised."""
    fix = load(fixture) if isinstance(fixture, str) else fixture
    if classes is None:
        classes = dict.fromkeys(DEFAULT_CLASSES + tuple(
            fix.expected_class_dimensions))
    M = fix.space
    # the fixture's hand-entered data are checked with the sampled zero
    # test on Exprs, independently of the field the pipeline computes in
    E = M.exprs
    report = SuiteReport(fix.name)

    def guarded(name, fn):
        try:
            fn()
        except Exception as exc:                       # noqa: BLE001
            report.add(name, False, detail=f"exception: {exc}")

    if fix.expected_curvature is not None:
        guarded("curvature", lambda: report.add(
            "curvature",
            E.zero(M.scalar_curvature
                   - parse(fix.expected_curvature, M.table)) is Verdict.ZERO,
            detail=f"R = {M.scalar_curvature}, "
                   f"expected {fix.expected_curvature}"))

    def killing_checks():
        for name, fld in fix.killing.items():
            rep = conformal_check(M, fld)
            report.add(f"killing:{name}",
                       rep.verdict is ConformalVerdict.KILLING,
                       detail=rep.verdict.name)

    def independence():
        cols = [tuple(f.components) for f in fix.killing.values()]
        rank = len(cols) - len(linear_relations(_in_field(M, cols)))
        report.add("basis_independent", rank == len(cols),
                   detail=f"rank {rank} of {len(cols)}")

    if fix.killing:
        guarded("killing", killing_checks)
        guarded("basis_independent", independence)
        guarded("bracket_closure", lambda: _bracket_closure(fix, report))

    def special_brackets():
        for (na, nb, expected) in fix.special_brackets:
            br = lie_bracket(fix.vector_field(na), fix.vector_field(nb))
            ok = all(E.zero(br.components[k] - parse(expected[k], M.table))
                     is Verdict.ZERO for k in range(M.n))
            report.add(f"bracket:{na},{nb}", ok,
                       detail=f"expected ({', '.join(expected)})")
    if fix.special_brackets:
        guarded("special_brackets", special_brackets)

    if fix.harmonic_b is not None:
        guarded("harmonic_b", lambda: report.add(
            "harmonic_b",
            E.zero(laplace_beltrami(E, parse(fix.harmonic_b, M.table)))
            is Verdict.ZERO,
            detail=f"b = {fix.harmonic_b}"))

    def extras():
        bad = []
        for kg in fix.extra_generators:
            gen = fix.generator(kg.name)
            cls = NonlinearityClass.named(kg.case, M, kg.p, None)
            if not determining_residuals(M, gen, cls).verdict:
                bad.append(kg.name)
        report.add("extra_generators", not bad, detail="; ".join(bad))
    if fix.extra_generators:
        guarded("extra_generators", extras)

    for cname in classes:
        guarded(f"class:{cname}", lambda c=cname: _run_class(fix, c, report))

    def reconciliation():
        for ref, observed, _ in reconcile_reference_tables(fix):
            as_documented = observed == ref.matches
            report.add(f"reconcile:{ref.name}:{ref.symmetry}", as_documented,
                       detail=f"observed {observed}, documented {ref.matches}")
            if not all(ref.matches):
                report.flagged_tables.append(ref.name)
                report.add(
                    f"reference_discrepancy:{ref.name}", False,
                    severity="warning",
                    detail=ref.note or "documented mismatch")
    if fix.reference_currents:
        guarded("reconciliation", reconciliation)

    return report
