"""Command-line frontend: metric manifests in and out, plus reports for
curvature, symmetry classification, Noether tests, conservation-law
verification, and the fixture suite.

Manifests are JSON documents; every expression value is a string in the
package's expression grammar, and reports print expressions back in the
same grammar so output is round-trippable.  The built-in geometries are
packaged manifests (`catalog.FIXTURES`) read by the same `load_manifest`.

Exit codes: 0 success, 2 input error, 3 geometry error,
4 symmetry/Noether failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .exprcore import ExprError, SymbolTable, Verdict, to_grammar
from .geom import (GeometryError, MetricSpace, VectorField, conformal_check,
                   conformal_factor)
from .detsys import (AnsatzBasis, DetSysError, NonlinearityClass,
                     NonlinearityTag, SymmetryGenerator, classify,
                     conformal_algebra, determining_residuals)
from .noether import (Lagrangian, NoetherError, NoetherKind, build_current,
                      noether_classify, verify_current_numeric,
                      verify_current_symbolic)
from . import catalog

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_GEOMETRY = 3
EXIT_SYMMETRY = 4


class InputError(Exception):
    """Bad manifest, flags, or expression input (exit code 2)."""


class SymmetryError(Exception):
    """Determining-equation or Noether failure (exit code 4)."""


# ---------------------------------------------------------------------------
# manifest I/O

def load_manifest(doc: dict,
                  name: str = "manifest") -> catalog.GeometryFixture:
    """Validate a manifest document and build its geometry: the
    MetricSpace, the named VectorFields, the ansatz (or None), the raw
    nonlinearity block (or None) and what the optional `fixture` block
    expects of the suite.
    """
    if not isinstance(doc, dict):
        raise InputError("manifest must be a JSON object")
    try:
        man = doc["manifold"]
        coords = man["coords"]
        g_rows = doc["metric"]["g"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"manifest missing required key: {exc}") from None
    signature = man.get("signature", "riemannian")
    if signature not in ("riemannian", "lorentzian"):
        raise InputError(f"manifold.signature must be 'riemannian' or "
                         f"'lorentzian', not {json.dumps(signature)}")
    box = man.get("box", {})
    if not _strings(coords):
        raise InputError("manifold.coords must be a list of strings")
    try:
        SymbolTable(coords)
    except ExprError as exc:
        raise InputError(str(exc)) from exc
    n = len(coords)
    if (not isinstance(g_rows, list) or len(g_rows) != n
            or any(not isinstance(r, list) or len(r) != n for r in g_rows)
            or any(type(e) not in (str, int, float)
                   for r in g_rows for e in r)):
        raise InputError(f"metric.g must be a {n}x{n} matrix of strings")
    # a JSON number is read as its text in the grammar: 1.5 is exactly 3/2
    g_rows = [[str(e) for e in r] for r in g_rows]
    if not isinstance(box, dict):
        raise InputError("manifold.box must be an object")
    box_t = {}
    for coord, rng in box.items():
        if coord not in coords:
            raise InputError(f"bad box entry for '{coord}': not a coordinate")
        box_t[coord] = _box_range(rng)
        if box_t[coord] is None:
            raise InputError(f"bad box entry for '{coord}': need [lo, hi], "
                             f"finite numbers with lo < hi")
    try:
        space = MetricSpace(coords, g_rows, signature=signature, box=box_t)
    except ExprError as exc:
        raise InputError(f"metric expression: {exc}") from exc

    # an optional block is an object when present, whatever its value
    for key in ("vectorfields", "nonlinearity", "ansatz", "fixture"):
        if not isinstance(doc.get(key, {}), dict):
            raise InputError(f"{key} must be an object")
    fields = {}
    for key, comps in doc.get("vectorfields", {}).items():
        if not _strings(comps) or len(comps) != n:
            raise InputError(f"vectorfield '{key}' needs {n} components")
        try:
            fields[key] = VectorField(space, comps)
        except (ExprError, GeometryError) as exc:
            raise InputError(f"vectorfield '{key}': {exc}") from exc

    ansatz = None
    basis_texts = doc.get("ansatz", {}).get("basis")
    if basis_texts is not None and not _strings(basis_texts):
        raise InputError("ansatz.basis must be a list of strings")
    if basis_texts:
        try:
            ansatz = AnsatzBasis.from_strings(space, basis_texts)
        except (ExprError, DetSysError) as exc:
            raise InputError(f"ansatz: {exc}") from exc

    return catalog.GeometryFixture(
        name, space, fields, ansatz, doc.get("nonlinearity"),
        **_fixture_block(doc.get("fixture", {}), space, fields))


def _fixture_block(block: dict, M: MetricSpace, fields: dict) -> dict:
    """GeometryFixture keyword arguments from a manifest's `fixture` block:
    what the suite checks the geometry against.  The structure is checked
    here; the expressions are parsed where the suite uses them."""
    def need(ok, message):
        if not ok:
            raise InputError(f"fixture.{message}")

    def text(key, value):
        need(isinstance(value, str), f"{key} must be a string")
        return value

    def optional_text(key):
        return None if block.get(key) is None else text(key, block[key])

    def names(key, value):
        need(_strings(value), f"{key} must be a list of vectorfield names")
        for v in value:
            need(v in fields, f"{key}: no vectorfield '{v}'")
        return value

    def expressions(key, value):
        need(_strings(value) and len(value) == M.n,
             f"{key} needs {M.n} expression strings")
        return tuple(value)

    def count(value):
        return type(value) is int and value >= 0

    def objects(key, kind):
        value = block.get(key, kind())
        need(isinstance(value, kind) and all(
            isinstance(v, dict)
            for v in (value.values() if kind is dict else value)),
            f"{key} must " + ("map names to objects" if kind is dict
                              else "be a list of objects"))
        return value

    dimension = block.get("isometry_dimension")
    need(dimension is None or count(dimension),
         "isometry_dimension must be a non-negative integer")
    classes = block.get("class_dimensions", {})
    need(isinstance(classes, dict) and all(map(count, classes.values())),
         "class_dimensions must map class names to non-negative integers")
    for cname in classes:
        try:
            catalog.sweep_class(M, cname)
        except (DetSysError, GeometryError) as exc:
            need(False, f"class_dimensions: the suite cannot run '{cname}' "
                        f"here ({exc})")

    tags = [t.value for t in NonlinearityTag]
    extras = []
    for v, spec in objects("generators", dict).items():
        where = f"generators.{v}"
        names("generators", [v])
        need(spec.get("case") in tags,
             f"{where}.case must be one of {', '.join(tags)}")
        need(spec.get("p") is None or type(spec["p"]) is int,
             f"{where}.p must be an integer")
        extras.append(catalog.KnownGenerator(
            v, spec["case"], text(f"{where}.a", spec.get("a", "0")),
            text(f"{where}.b", spec.get("b", "0")), spec.get("p")))

    brackets = []
    for i, spec in enumerate(objects("brackets", list)):
        where = f"brackets[{i}]"
        pair = names(f"{where}.fields", spec.get("fields"))
        need(len(pair) == 2, f"{where}.fields must name two vectorfields")
        brackets.append((*pair, expressions(f"{where}.expected",
                                            spec.get("expected"))))

    references = []
    for i, spec in enumerate(objects("reference_currents", list)):
        where = f"reference_currents[{i}]"
        symmetry = text(f"{where}.symmetry", spec.get("symmetry"))
        b = None
        if symmetry == "b":             # the u-shift b(x) d/du, b given
            b = text(f"{where}.b", spec.get("b"))
        else:
            names(f"{where}.symmetry", [symmetry])
        matches = spec.get("matches")
        need(isinstance(matches, list) and len(matches) == M.n
             and all(type(m) is bool for m in matches),
             f"{where}.matches needs {M.n} booleans")
        references.append(catalog.ReferenceCurrent(
            text(f"{where}.name", spec.get("name")), symmetry,
            expressions(f"{where}.components", spec.get("components")),
            tuple(matches), text(f"{where}.note", spec.get("note", "")), b))

    return {
        "killing": {v: fields[v] for v in names(
            "killing", block.get("killing", []))},
        "auxiliary_fields": {v: fields[v] for v in names(
            "auxiliary", block.get("auxiliary", []))},
        "expected_curvature": optional_text("curvature"),
        "isometry_dimension": dimension,
        "expected_class_dimensions": classes,
        "extra_generators": tuple(extras),
        "special_brackets": tuple(brackets),
        "harmonic_b": optional_text("harmonic_b"),
        "reference_currents": tuple(references),
    }


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _box_range(rng):
    """(lo, hi) as floats, or None unless rng is [lo, hi] with finite
    numbers lo < hi."""
    if not (isinstance(rng, list) and len(rng) == 2
            and all(type(v) in (int, float) for v in rng)):
        return None
    try:
        lo, hi = float(rng[0]), float(rng[1])
    except OverflowError:
        return None
    return (lo, hi) if -math.inf < lo < hi < math.inf else None


def read_manifest(path: str) -> catalog.GeometryFixture:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read manifest: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"manifest is not valid JSON: {exc}") from exc
    return load_manifest(doc, Path(path).stem)


def export_fixture(name: str) -> dict:
    """The packaged manifest of a built-in geometry, without its `fixture`
    block."""
    doc = catalog.document(name)
    doc.pop("fixture", None)
    return doc


def _resolve_input(args) -> catalog.GeometryFixture:
    """Manifest path or --geometry name -> the loaded manifest."""
    if args.geometry:
        # with --geometry there is no manifest path; the one positional of
        # a field command is the field
        if args.manifest and hasattr(args, "field") and not args.field:
            args.field, args.manifest = args.manifest, None
        if args.manifest:
            raise InputError(f"--geometry takes no manifest path, "
                             f"got '{args.manifest}'")
        return catalog.load(args.geometry)
    if not args.manifest:
        raise InputError("a manifest path or --geometry is required")
    return read_manifest(args.manifest)


# ---------------------------------------------------------------------------
# nonlinearity / basis / generator resolution

def _nonlinearity_from(args, loaded) -> NonlinearityClass:
    block = loaded.nonlinearity or {}
    name = getattr(args, "cls", None) or block.get("class")
    if not name:
        raise InputError("no nonlinearity class given (--class or manifest)")
    p = args.p if getattr(args, "p", None) is not None else block.get("p")
    k = getattr(args, "k", None) or block.get("k")
    try:
        return NonlinearityClass.named(name, loaded.space, p, k)
    except (DetSysError, ExprError) as exc:
        raise InputError(str(exc)) from exc


def _basis_from(args, loaded) -> AnsatzBasis:
    spec = getattr(args, "basis", None)
    if spec:
        try:
            with open(spec) as fh:
                texts = [ln.strip() for ln in fh if ln.strip()]
        except OSError:
            texts = [t.strip() for t in spec.split(",") if t.strip()]
        try:
            return AnsatzBasis.from_strings(loaded.space, texts)
        except (ExprError, DetSysError) as exc:
            raise InputError(f"basis: {exc}") from exc
    return loaded.basis


def _generator_from(args, loaded, cls) -> SymmetryGenerator:
    """Field spec: a named manifest vectorfield, or inline comma-separated
    components; lifted canonically to (xi, a, b) for the class
    (`NonlinearityClass.lift`)."""
    M = loaded.space
    spec = args.field
    if not spec:
        raise InputError("a field spec (name or components) is required")
    if spec in loaded.vectorfields:
        xi = loaded.vectorfields[spec]
    elif "," in spec:
        comps = [t.strip() for t in spec.split(",")]
        if len(comps) != M.n:
            raise InputError(f"inline field needs {M.n} components")
        try:
            xi = VectorField(M, comps)
        except (ExprError, GeometryError) as exc:
            raise InputError(f"field: {exc}") from exc
    else:
        known = ", ".join(sorted(loaded.vectorfields)) or "(none)"
        raise InputError(f"unknown vectorfield '{spec}'; manifest has: {known}")
    gen = SymmetryGenerator(xi, *cls.lift(M.n, conformal_factor(M, xi)))
    _require_symmetry(M, gen, cls)
    return gen


def _require_symmetry(M, gen, cls):
    """Exit 4 with a residual report when the determining equations fail."""
    rep = determining_residuals(M, gen, cls)
    if rep.verdict:
        return
    pairs = [(i, j) for i in range(M.n) for j in range(i, M.n)]
    bad = [f"conformal residual [{i}{j}] = "
           f"{to_grammar(rep.conformal_residual[i, j])}"
           for (i, j), v in zip(pairs, rep.verdicts["conformal"])
           if v is not Verdict.ZERO]
    bad += [f"gradient residual [{i}] = {to_grammar(r)}"
            for i, (r, v) in enumerate(zip(rep.gradient_residual,
                                           rep.verdicts["gradient"]))
            if v is not Verdict.ZERO]
    if rep.verdicts["nonlinearity"] is not Verdict.ZERO:
        bad.append("nonlinearity residual = "
                   f"{to_grammar(rep.nonlinearity_residual)}")
    raise SymmetryError(
        "not a symmetry: determining equations fail\n  "
        + "\n  ".join(bad or rep.warnings or ["(inconclusive residuals)"]))


# ---------------------------------------------------------------------------
# subcommands

def cmd_curvature(args) -> int:
    loaded = _resolve_input(args)
    M = loaded.space
    c, gamma = M.coords, M.christoffel
    nonzero = {f"Gamma^{c[k]}_{c[i]}{c[j]}": to_grammar(gamma[k][i][j])
               for k in range(M.n) for i in range(M.n)
               for j in range(i, M.n) if gamma[k][i][j] != 0}
    ricci = [[to_grammar(M.ricci[i][j]) for j in range(M.n)]
             for i in range(M.n)]
    R = to_grammar(M.scalar_curvature)
    if args.json:
        print(json.dumps({"christoffel": nonzero, "ricci": ricci,
                          "scalar_curvature": R}, indent=2))
    else:
        print("Nonzero Christoffel symbols:")
        print("\n".join(f"  {key} = {val}" for key, val
                        in sorted(nonzero.items())) or "  (none)")
        print("Ricci tensor:")
        for row in ricci:
            print("  [" + ", ".join(row) + "]")
        print(f"R = {R}")
    return EXIT_OK


def cmd_killing(args) -> int:
    loaded = _resolve_input(args)
    M = loaded.space
    if args.solve:
        C = conformal_algebra(M, _basis_from(args, loaded))
        rows = [{"generator": f"G{i + 1}",
                 "xi": [to_grammar(C.R.expr(c)) for c in xi],
                 "mu": to_grammar(C.R.expr(mu)), "label": label}
                for i, (xi, mu, label) in enumerate(zip(C.xi, C.mu,
                                                        C.labels))]
        counts = {label: C.labels.count(label) for label in C.labels}
        if args.json:
            print(json.dumps({"fields": rows, "counts": counts,
                              "dimension": len(rows)}, indent=2))
        else:
            for r in rows:
                print(f"{r['generator']}: ({', '.join(r['xi'])})"
                      f"  {r['label']} (mu={r['mu']})")
            summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
            print(f"conformal dimension {len(rows)} total: {summary}")
        return EXIT_OK
    if not args.field:
        raise InputError("give a vectorfield name or --solve")
    if args.field not in loaded.vectorfields:
        known = ", ".join(sorted(loaded.vectorfields)) or "(none)"
        raise InputError(f"unknown vectorfield '{args.field}'; "
                         f"manifest has: {known}")
    rep = conformal_check(M, loaded.vectorfields[args.field],
                          seed=args.seed)
    if args.json:
        print(json.dumps({"field": args.field, "verdict": rep.verdict.value,
                          "mu": to_grammar(rep.mu),
                          "max_residual": rep.max_residual}, indent=2))
    else:
        print(f"{args.field}: {rep.verdict.value} (mu={to_grammar(rep.mu)})")
    return EXIT_OK


def cmd_classify(args) -> int:
    loaded = _resolve_input(args)
    cls = _nonlinearity_from(args, loaded)
    table = classify(loaded.space, cls, _basis_from(args, loaded))
    rows = [{"generator": f"G{i + 1}",
             "xi": [to_grammar(c) for c in e.generator.xi.components],
             "a": to_grammar(e.generator.a), "b": to_grammar(e.generator.b),
             "mu": to_grammar(e.mu), "case": cls.tag.value,
             "checks": [{"name": name, "passed": ok}
                        for name, ok in e.side_checks.items()]}
            for i, e in enumerate(table.entries)]
    if args.json:
        print(json.dumps({"class": cls.tag.value, "dimension": len(rows),
                          "generators": rows}, indent=2))
    else:
        print(f"Classification, class '{cls.tag.value}': "
              f"{len(rows)} generator(s)")
        for r in rows:
            checks = ", ".join(
                f"{c['name']}={'ok' if c['passed'] else 'VIOLATED'}"
                for c in r["checks"]) or "(none)"
            print(f"{r['generator']}: xi=({', '.join(r['xi'])})  "
                  f"a={r['a']}  b={r['b']}  mu={r['mu']}")
            print(f"    case={r['case']}  checks: {checks}")
        if table.inconclusive:
            print(f"inconclusive directions: {len(table.inconclusive)}")
    return EXIT_OK


def _noether_test(args) -> tuple:
    """(M, class, Lagrangian, generator, verdict) of a field command."""
    loaded = _resolve_input(args)
    cls = _nonlinearity_from(args, loaded)
    gen = _generator_from(args, loaded, cls)
    lag = Lagrangian(loaded.space, cls)
    return loaded.space, cls, lag, gen, noether_classify(lag, gen)


def cmd_noether(args) -> int:
    _, cls, _, _, verdict = _noether_test(args)
    out = {"field": args.field, "class": cls.tag.value,
           "verdict": verdict.kind.value,
           "residual": to_grammar(verdict.residual)}
    if verdict.potential is not None:
        out["potential"] = [to_grammar(p) for p in verdict.potential]
    if verdict.c is not None:
        out["c"] = to_grammar(verdict.c)
    if args.json:
        print(json.dumps(out, indent=2))
    else:
        line = f"{args.field} ({cls.tag.value}): {verdict.kind.value}"
        if verdict.kind is NoetherKind.DIVERGENCE:
            line += "  phi = (" + ", ".join(out["potential"]) + ")"
        elif verdict.kind is NoetherKind.SCALED_NON_NOETHER:
            line += f"  c = {out['c']}"
        elif verdict.kind is NoetherKind.NOT_NOETHER:
            line += f"  residual = {out['residual']}"
        print(line)
    return EXIT_OK


def cmd_current(args) -> int:
    if args.verify < 0:
        raise InputError(f"--verify needs N >= 0, not {args.verify}")
    M, _, lag, gen, verdict = _noether_test(args)
    cur = build_current(lag, gen, verdict)
    out = {"component": [to_grammar(c) for c in cur.components],
           "max_divergence": None, "verdict": verdict.kind.value}
    lines = [f"A^{M.coords[k]} = {out['component'][k]}" for k in range(M.n)]
    failed = False
    if args.verify:
        sym_ok = verify_current_symbolic(cur)
        num = verify_current_numeric(cur, samples=args.verify, seed=args.seed)
        out["max_divergence"] = num.max_divergence
        out["symbolic_verified"] = sym_ok
        out["numeric_passed"] = num.passed
        tol = 1e-7 * (1 + num.scale)
        lines.append(f"symbolic divergence identity: "
                     f"{'PASS' if sym_ok else 'FAIL'}")
        lines.append(
            f"max |div| = {num.max_divergence:.3e} over {num.samples} "
            f"on-shell samples ({'<' if num.passed else '>='} {tol:.3e}): "
            f"{'PASS' if num.passed else 'FAIL'}")
        failed = not (sym_ok and num.passed)
    print(json.dumps(out, indent=2) if args.json else "\n".join(lines))
    return EXIT_SYMMETRY if failed else EXIT_OK


def suite_document(reports) -> dict:
    """The `suite --json` document of a list of SuiteReports."""
    return {
        "suites": [{
            "geometry": r.geometry,
            "passed": r.passed,
            "checks": [{"name": c.name, "passed": c.passed,
                        "severity": c.severity, "detail": c.detail}
                       for c in r.checks],
            "class_dimensions": r.class_dimensions,
            "flagged_tables": r.flagged_tables,
        } for r in reports],
        "passed": all(r.passed for r in reports),
    }


def cmd_suite(args) -> int:
    if args.all == bool(args.manifest or args.geometry):
        raise InputError("give a manifest path, --geometry <name> or --all")
    fixtures = (map(catalog.load, catalog.GEOMETRY_NAMES) if args.all
                else [_resolve_input(args)])
    reports = []
    for fix in fixtures:
        rep = catalog.run_fixture_suite(fix)
        reports.append(rep)
        if not args.json:
            for line in rep.lines():
                print(line)
    all_ok = all(r.passed for r in reports)
    if args.json:
        print(json.dumps(suite_document(reports), indent=2))
    else:
        print("-" * 40)
        for r in reports:
            flags = sum(1 for c in r.checks
                        if c.severity == "warning" and not c.passed)
            print(f"{r.geometry:12s} {'PASS' if r.passed else 'FAIL'}"
                  f"  ({len(r.checks)} checks, {flags} documented "
                  f"discrepancies flagged)")
    return EXIT_OK if all_ok else EXIT_SYMMETRY


def cmd_export(args) -> int:
    print(json.dumps(export_fixture(args.geometry), indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(p, manifest=True):
    if manifest:
        p.add_argument("manifest", nargs="?", help="manifest JSON path")
        p.add_argument("--geometry", help="use a built-in geometry")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--seed", type=int, default=7,
                   help="RNG seed for sampling reproducibility")


def _add_class_flags(p):
    p.add_argument("--class", dest="cls",
                   choices=[t.value for t in NonlinearityTag],
                   help="nonlinearity class (overrides manifest)")
    p.add_argument("--p", type=str, default=None, help="power exponent")
    p.add_argument("--k", type=str, default=None,
                   help="constant value for the constant class")


class _Parser(argparse.ArgumentParser):
    """Reports a malformed argument in one line, like every other input
    error (exit 2); -h still prints the usage."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"error: {message}\n")


class _SubcommandParser(_Parser):
    """Reads positionals after the options too, e.g. the field R13 in
    `noether flat.json --class exponential R13`."""

    _inner = False

    def parse_known_args(self, args=None, namespace=None):
        if self._inner:             # the intermixed parse calls back here
            return super().parse_known_args(args, namespace)
        self._inner = True
        try:
            return self.parse_known_intermixed_args(args, namespace)
        finally:
            self._inner = False


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="poissonsym",
        description="Symmetry and conservation-law workbench for "
                    "Delta_g u + f(u) = 0 on Riemannian charts.")
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=_SubcommandParser)

    p = sub.add_parser("curvature", help="Christoffels, Ricci, scalar curvature")
    _add_common(p)
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("killing", help="verify or solve for conformal fields")
    _add_common(p)
    p.add_argument("field", nargs="?", help="vectorfield name to verify")
    p.add_argument("--solve", action="store_true",
                   help="solve the conformal equations over an ansatz")
    p.add_argument("--basis", help="ansatz basis: file or comma-separated")
    p.set_defaults(func=cmd_killing)

    p = sub.add_parser("classify", help="group classification table")
    _add_common(p)
    _add_class_flags(p)
    p.add_argument("--basis", help="ansatz basis: file or comma-separated")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("noether", help="Noether test for one symmetry")
    _add_common(p)
    _add_class_flags(p)
    p.add_argument("field", nargs="?", help="vectorfield name or inline components")
    p.set_defaults(func=cmd_noether)

    p = sub.add_parser("current", help="build and verify a conserved current")
    _add_common(p)
    _add_class_flags(p)
    p.add_argument("field", nargs="?", help="vectorfield name or inline components")
    p.add_argument("--verify", type=int, metavar="N", default=0,
                   help="verify symbolically and on N numeric samples")
    p.set_defaults(func=cmd_current)

    p = sub.add_parser("suite", help="run the fixture suite on a manifest")
    _add_common(p)
    p.add_argument("--all", action="store_true",
                   help="all eight built-in geometries")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("export", help="print a built-in geometry's manifest")
    _add_common(p, manifest=False)
    p.add_argument("geometry", help="built-in geometry name")
    p.set_defaults(func=cmd_export)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (InputError, ExprError, catalog.CatalogError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GeometryError as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except (SymmetryError, NoetherError, DetSysError) as exc:
        print(f"symmetry error: {exc}", file=sys.stderr)
        return EXIT_SYMMETRY


if __name__ == "__main__":
    sys.exit(main())
