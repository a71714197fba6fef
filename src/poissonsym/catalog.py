"""Built-in geometry fixtures and the fixture verification suite.

Eight homogeneous 3-geometries ship with exact metrics, safe sample boxes,
Killing bases, expected scalar curvatures and isometry dimensions, plus
externally tabulated conservation-law reference tables.  The reference
tables are transcribed verbatim from their source — including its known
typographic errors — and reconciled term-by-term against currents rebuilt
by this package; documented discrepancies are flagged, never silently
corrected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


GEOMETRY_NAMES = ("euclidean", "hyperbolic3", "sphere3", "sol",
                  "s2xr", "h2xr", "sl2tilde", "heisenberg")

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

    `symmetry` names a fixture Killing field, or is "b" for a u-shift
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
    """A named extra symmetry (beyond the isometries) with its class."""

    name: str
    case: str
    xi: tuple
    a: str = "0"
    b: str = "0"
    p: int | None = None
    note: str = ""


@dataclass
class GeometryFixture:
    name: str
    space: MetricSpace
    killing: dict
    expected_curvature: sp.Expr
    isometry_dimension: int
    basis: AnsatzBasis
    extra_generators: tuple = ()
    reference_currents: tuple = ()
    harmonic_b: str | None = None      # concrete solution of Delta_g b = 0
    auxiliary_fields: dict = field(default_factory=dict)
    special_brackets: tuple = ()       # (name1, name2, expected components)
    expected_class_dimensions: dict = field(default_factory=dict)
    notes: tuple = ()

    def vector_field(self, name: str) -> VectorField:
        if name in self.killing:
            return self.killing[name]
        if name in self.auxiliary_fields:
            return self.auxiliary_fields[name]
        raise CatalogError(f"no vector field '{name}' in fixture {self.name}")

    def generator(self, name: str) -> SymmetryGenerator:
        for kg in self.extra_generators:
            if kg.name == name:
                return SymmetryGenerator(VectorField(self.space, kg.xi),
                                         kg.a, kg.b)
        return SymmetryGenerator(self.vector_field(name),
                                 sp.Integer(0), sp.Integer(0))


def _fields(M: MetricSpace, table: dict) -> dict:
    return {name: VectorField(M, comps) for name, comps in table.items()}


# ---------------------------------------------------------------------------
# fixture data


def _euclidean() -> GeometryFixture:
    M = MetricSpace(["x", "y", "z"],
                    [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    killing = _fields(M, {
        "R1": ("1", "0", "0"),
        "R2": ("0", "1", "0"),
        "R3": ("0", "0", "1"),
        "R4": ("y", "-x", "0"),
        "R5": ("0", "-z", "y"),
        "R6": ("z", "0", "-x"),
    })
    extras = (
        KnownGenerator("R7", "zero", ("x", "y", "z"), a="1/2"),
        KnownGenerator("R8", "critical",
                       ("x*z", "y*z", "(z^2-x^2-y^2)/2"), a="-z/2",
                       note="reference prints the u-coefficient as -z; the "
                            "critical-case relation a = -mu/4 with mu = 2z "
                            "forces -z/2"),
        KnownGenerator("R9", "critical",
                       ("x*y", "(y^2-x^2-z^2)/2", "y*z"), a="-y/2"),
        KnownGenerator("R10", "critical",
                       ("(x^2-y^2-z^2)/2", "x*y", "x*z"), a="-x/2"),
        KnownGenerator("R13", "exponential", ("x", "y", "z"), b="-2"),
        KnownGenerator("R14", "power", ("x", "y", "z"), a="-1", p=3,
                       note="power case a = mu/(1-p); stored for p = 3"),
    )
    refs = (
        ReferenceCurrent(
            "A", "R1",
            ("(u_y^2+u_z^2-u_x^2)/2 - F_val", "-u_x*u_y", "-u_x*u_z"),
            (True, True, True),
            note="hand-derived instance of the Killing-current closed form"),
        ReferenceCurrent(
            "B", "R4",
            ("y/2*(u_y^2+u_z^2-u_x^2) + x*u_x*u_y - y*F_val",
             "-x/2*(u_x^2+u_z^2-u_y^2) - y*u_x*u_y + x*F_val",
             "-y*u_x*u_z + x*u_y*u_z"),
            (True, True, True),
            note="hand-derived instance of the Killing-current closed form"),
    )
    return GeometryFixture(
        "euclidean", M, killing, sp.Integer(0), 6,
        AnsatzBasis.polynomial(M, 2), extras, refs, harmonic_b="x",
        expected_class_dimensions={"arbitrary": 6, "zero": 20, "linear": 7,
                                   "exponential": 7, "power3": 7,
                                   "critical": 10, "constant": 16},
    )


_H3_NOTE = ("reference tables A-F are attached to the wrong symmetries "
            "(a systematic label shuffle) and carry potential terms with "
            "the wrong power of z; rebuilt currents are the verified forms")


def _hyperbolic3() -> GeometryFixture:
    M = MetricSpace(
        ["x", "y", "z"],
        [["1/z^2", "0", "0"], ["0", "1/z^2", "0"], ["0", "0", "1/z^2"]],
        box={"z": (0.5, 2.0)})
    killing = _fields(M, {
        "H1": ("1", "0", "0"),
        "H2": ("0", "1", "0"),
        "H3": ("-y", "x", "0"),
        "H4": ("x", "y", "z"),
        "H5": ("(x^2-y^2-z^2)/2", "x*y", "x*z"),
        "H6": ("x*y", "(-x^2+y^2-z^2)/2", "y*z"),
    })
    refs = (
        ReferenceCurrent(
            "A", "H1",
            ("(y^2+z^2-x^2)/(4*z)*(u_x^2-u_y^2-u_z^2)"
             " - (x*y*u_x*u_y + x*z*u_x*u_z)/z"
             " + (y^2+z^2-x^2)/(4*z^2)*F_val",
             "x*y/(2*z)*(u_x^2-u_y^2+u_z^2) + (y^2+z^2-x^2)/(2*z)*u_x*u_y"
             " - x*z*u_y*u_z - x*y/(2*z^2)*F_val",
             "x/2*(u_x^2+u_y^2-u_z^2)*(y^2+z^2-x^2)/(2*z)*u_x*u_z"
             " - x*y*u_y*u_z - x/(2*z)*F_val"),
            (False, False, False),
            note=_H3_NOTE + "; component 3 additionally misses an operator "
                 "between two factors (transcribed with '*')"),
        ReferenceCurrent(
            "B", "H2",
            ("x*y/(2*z)*(u_y^2+u_z^2-u_x^2)"
             " + (x^2-y^2+z^2)/(2*z)*u_x*u_y - y*u_x*u_z"
             " - x*y/(2*z^2)*F_val",
             "(x^2+y^2+z^2)/(2*z)*(u_y^2-u_x^2-u_z^2) - x*y/z*u_x*u_y"
             " - y*u_y*u_z - 1/(4*z^2)*F_val",
             "y/2*(u_x^2+u_y^2-u_z^2) - x*y/z*u_x*u_y"
             " + (x^2-y^2+z^2)/(2*z)*u_y*u_z - y/(2*z)*F_val"),
            (False, False, False), note=_H3_NOTE),
        ReferenceCurrent(
            "C", "H3",
            ("x/(2*z)*(u_y^2+u_z^2-u_x^2) - y/z*u_x*u_y - u_x*u_z"
             " - x/(2*z^2)*F_val",
             "y/(2*z)*(u_x^2-u_y^2+u_z^2) - x/z*u_x*u_y - u_y*u_z"
             " - y/(2*z^2)*F_val",
             "1/2*(u_x^2+u_y^2-u_z^2) - x/z*u_x*u_z - y/z*u_y*u_z"
             " - 1/(2*z)*F_val"),
            (False, False, False), note=_H3_NOTE),
        ReferenceCurrent(
            "D", "H4",
            ("y/(2*z)*(u_y^2+u_z^2-u_x^2) + x/z*u_x*u_y"
             " - y/(2*z^2)*F_val",
             "x/(2*z)*(u_y^2-u_x^2-u_z^2) - y/z*u_x*u_y"
             " + 1/(2*z^2)*F_val",
             "x/z*u_y*u_z - y/z*u_x*u_z"),
            (False, False, False), note=_H3_NOTE),
        ReferenceCurrent(
            "E", "H5",
            ("1/(2*z)*(u_y^2+u_z^2-u_x^2) - 1/(2*z^2)*F_val",
             "-u_x*u_y/z", "-u_x*u_z/z"),
            (False, False, False),
            note=_H3_NOTE + "; this table coincides with the rebuilt H1 "
                 "current except for the potential-term power of z"),
        ReferenceCurrent(
            "F", "H6",
            ("-u_x*u_y/z",
             "1/(2*z)*(u_x^2-u_y^2+u_z^2) - 1/(2*z^2)*F_val",
             "-u_y*u_z/z"),
            (False, False, False), note=_H3_NOTE),
        ReferenceCurrent(
            "G", "b",
            ("z*u_x", "z*u_y", "z*u_z - 2*u"),
            (True, True, True), b="z^2"),
    )
    return GeometryFixture(
        "hyperbolic3", M, killing, sp.Integer(-6), 6,
        AnsatzBasis.polynomial(M, 2), (), refs, harmonic_b="z^2",
        expected_class_dimensions={"arbitrary": 6},
        notes=(_H3_NOTE,),
    )


_S3_NOTE = ("reference tables are normalized for the round metric without "
            "its overall factor 4 and do not match the metric as printed; "
            "every component differs by constant factors")


def _sphere3() -> GeometryFixture:
    lam = "(1+x^2+y^2+z^2)"
    g = [[f"4/{lam}^2" if i == j else "0" for j in range(3)]
         for i in range(3)]
    M = MetricSpace(["x", "y", "z"], g)
    killing = _fields(M, {
        "S1": ("1+x^2-y^2-z^2", "2*x*y", "2*x*z"),
        "S2": ("2*x*y", "1-x^2+y^2-z^2", "2*z*y"),
        "S3": ("2*x*z", "2*y*z", "1-x^2-y^2+z^2"),
        "S4": ("y", "-x", "0"),
        "S5": ("z", "0", "-x"),
        "S6": ("0", "z", "-y"),
    })
    refs = (
        ReferenceCurrent(
            "A", "S1",
            (f"((1+x^2-y^2-z^2)*(u_y^2+u_z^2-u_x^2) - 4*x*y*u_x*u_y"
             f" + 4*x*z*u_x*u_z)/{lam}^2"
             f" - 4*(1+x^2-y^2-z^2)/{lam}^3*F_val",
             f"(2*(x*y*u_x^2 - x*y*u_y^2 + x*z*u_z^2)"
             f" - (1+x^2-y^2-z^2)*u_x*u_y)/{lam}^2 - 4*x*y/{lam}^3*F_val",
             f"(2*(x*z*u_x^2 + x*z*u_y^2 - x*z*u_z^2"
             f" - (1+x^2-y^2-z^2)*u_x*u_y))/{lam}^2 - 8*x*y/{lam}^3*F_val"),
            (False, False, False), note=_S3_NOTE),
        ReferenceCurrent(
            "B", "S2",
            (f"2*(x*y*(u_y^2+u_z^2-u_x^2) - 2*y*z*u_x*u_z"
             f" - (1-x^2-y^2+z^2)*u_x*u_y)/{lam}^2 - 8*x*y/{lam}^3*F_val",
             f"((1-x^2+y^2-z^2)*(u_x^2-u_y^2+u_z^2) - 4*x*y*u_x*u_y"
             f" - 4*y*z*u_y*u_z)/{lam}^2"
             f" + 4*(1-x^2+y^2-z^2)/{lam}^3*F_val",
             f"2*(y*z*(u_x^2+u_y^2-u_z^2) - 2*x*y*u_x*u_z"
             f" - (1-x^2+y^2-z^2)*u_x*u_z)/{lam}^2 - 8*y*z/{lam}^3*F_val"),
            (False, False, False),
            note=_S3_NOTE + "; component 3 is printed with an unbalanced "
                 "parenthesis (closed at the end of the bracketed sum)"),
        ReferenceCurrent(
            "C", "S3",
            (f"2*(x*z*(u_y^2+u_z^2-u_x^2) - 2*y*z*u_x*u_y"
             f" - (1-x^2-y^2+z^2)*u_x*u_z)/{lam}^2 - 8*x*z/{lam}^3*F_val",
             f"2*(y*z*(u_x^2-u_y^2+u_z^2) - 2*x*z*u_x*u_y"
             f" - (1-x^2-y^2+z^2)*u_y*u_z)/{lam}^2 - 8*y*z/{lam}^3*F_val",
             f"((1-x^2-y^2+z^2)*(u_x^2+u_y^2-u_z^2) - 4*x*z*u_x*u_z"
             f" - 4*y*z*u_y*u_z)/{lam}^2"
             f" - 4*(1-x^2-y^2+z^2)/{lam}^3*F_val"),
            (False, False, False), note=_S3_NOTE),
        ReferenceCurrent(
            "D", "S4",
            (f"(2*y*(u_y^2+u_z^2-u_x^2) - 4*x*u_x*u_y)/{lam}^2"
             f" - 8*y/{lam}^3*F_val",
             f"(-2*x*(u_x^2-u_y^2+u_z^2) - 4*y*u_x*u_y)/{lam}^2"
             f" + 8*x/{lam}^3*F_val",
             f"(4*x*u_y*u_z - 4*y*u_x*u_z)/{lam}^2"),
            (False, False, False), note=_S3_NOTE),
        ReferenceCurrent(
            "E", "S5",
            (f"(2*z*(u_y^2+u_z^2-u_x^2) + 4*x*u_x*u_z)/{lam}^2"
             f" - 8*z/{lam}^3*F_val",
             f"(4*x*u_y*u_z - 4*z*u_x*u_y)/{lam}^2",
             f"(2*x*(u_x^2+u_y^2-u_z^2) + 4*z*u_x*u_z - 4*y*u_x*u_z)/{lam}^2"
             f" - 8*x/{lam}^3*F_val"),
            (False, False, False), note=_S3_NOTE),
        ReferenceCurrent(
            "F", "S6",
            (f"(4*y*u_x*u_z - 4*z*u_x*u_y)/{lam}^2",
             f"(2*z*(u_x^2+u_y^2-u_z^2) + 4*y*u_y*u_z)/{lam}^2"
             f" - 8*z/{lam}^3*F_val",
             f"(2*y*(u_z^2-u_x^2-u_y^2) - 4*z*u_y*u_z)/{lam}^2"
             f" - 8*y/{lam}^3*F_val"),
            (False, False, False), note=_S3_NOTE),
        ReferenceCurrent(
            "G", "b",
            (f"u_x/{lam}", f"u_y/{lam}", f"u_z/{lam}"),
            (False, False, False), b="1",
            note=_S3_NOTE + "; rebuilt components carry the factor 2 the "
                 "printed metric implies"),
    )
    return GeometryFixture(
        "sphere3", M, killing, sp.Integer(6), 6,
        AnsatzBasis.polynomial(M, 2), (), refs, harmonic_b="1",
        expected_class_dimensions={"arbitrary": 6},
        notes=(_S3_NOTE,),
    )


def _sol() -> GeometryFixture:
    M = MetricSpace(
        ["x", "y", "z"],
        [["1", "0", "0"], ["0", "exp(2*x)", "0"], ["0", "0", "exp(-2*x)"]],
        box={"x": (-1.0, 1.0)})
    killing = _fields(M, {
        "So1": ("1", "-y", "z"),
        "So2": ("0", "1", "0"),
        "So3": ("0", "0", "1"),
    })
    basis = AnsatzBasis.from_strings(M, [
        "1", "x", "y", "z", "exp(2*x)", "exp(-2*x)",
        "y*exp(2*x)", "y*exp(-2*x)", "z*exp(2*x)", "z*exp(-2*x)"])
    refs = (
        ReferenceCurrent(
            "A", "So1",
            ("(exp(-2*x)*u_y^2 + exp(2*x)*u_z^2 - u_x^2)/2"
             " + y*u_x*u_y - z*u_x*u_z - F_val",
             "(y*u_x^2 + y*exp(2*x)*u_z^2 - y*exp(-2*x)*u_y^2)/2"
             " - exp(-2*x)*u_x*u_y - exp(-2*x)*z*u_x*u_z + y*F_val",
             "z/2*(u_x^2 + exp(-2*x)*u_y^2 + exp(2*x)*u_z^2)"
             " - exp(2*x)*u_x*u_z + exp(2*x)*y*u_y*u_z"
             " - exp(2*x)*z*u_y*u_z + y*F_val"),
            (True, False, False),
            note="component 2: the quadratic block carries the wrong overall "
                 "sign and the mixed term should be u_y*u_z, not u_x*u_z; "
                 "component 3: the u_z^2 block sign, a u_z^2-vs-u_y*u_z slip "
                 "and the potential term should be -z*F, not +y*F"),
        ReferenceCurrent(
            "B", "So2",
            ("-u_x*u_y",
             "(u_x^2 - exp(-2*x)*u_y^2 + exp(2*x)*u_z^2)/2 - F_val",
             "-exp(2*x)*u_y*u_z"),
            (True, True, True)),
        ReferenceCurrent(
            "C", "So3",
            ("-u_x*u_z",
             "-exp(-2*x)*u_y*u_z",
             "(u_x^2 + exp(-2*x)*u_y^2 - exp(2*x)*u_z^2)/2 - F_val"),
            (True, True, True)),
        ReferenceCurrent(
            "S", "b",
            ("x*u_x - u", "exp(-2*x)*x*u_y", "exp(2*x)*x*u_z"),
            (True, True, True), b="x"),
    )
    return GeometryFixture(
        "sol", M, killing, sp.Integer(-2), 3, basis, (), refs,
        harmonic_b="x",
        expected_class_dimensions={"arbitrary": 3},
    )


_S2XR_NOTE = ("reference tables are normalized for the 2-sphere factor "
              "without its overall factor 4; entries involving u_z or the "
              "potential differ from the printed metric by constant factors")


def _s2xr() -> GeometryFixture:
    lam = "(1+x^2+y^2)"
    M = MetricSpace(
        ["x", "y", "z"],
        [[f"4/{lam}^2", "0", "0"], ["0", f"4/{lam}^2", "0"], ["0", "0", "1"]])
    killing = _fields(M, {
        "Sp1": ("1+x^2-y^2", "2*x*y", "0"),
        "Sp2": ("2*x*y", "1-x^2+y^2", "0"),
        "Sp3": ("y", "-x", "0"),
        "Sp4": ("0", "0", "1"),
    })
    refs = (
        ReferenceCurrent(
            "A", "Sp1",
            (f"(1+x^2-y^2)/2*(u_y^2-u_x^2) - 2*x*y*u_x*u_y"
             f" + (1+x^2-y^2)/(2*{lam}^2)*u_z^2"
             f" - (1+x^2-y^2)/{lam}^2*F_val",
             f"x*y*u_x^2 - x*y*u_y^2 - (1+x^2-y^2)*u_x*u_y"
             f" + 2*x*y/{lam}^2*u_z^2 - 2*x*y/{lam}^2*F_val",
             f"-(1+x^2+y^2)/{lam}^2*u_x*u_z - x*y/{lam}^2*u_y*u_z"),
            (False, False, False), note=_S2XR_NOTE),
        ReferenceCurrent(
            "B", "Sp2",
            (f"x*y*(u_y^2-u_x^2) + x*y/{lam}^2*u_z^2"
             f" - 2*x*y/{lam}^2*F_val",
             f"(1-x^2+y^2)/2*(u_x^2-u_y^2) + (1-x^2+y^2)/(2*{lam})*u_z^2"
             f" - 2*x*y*u_x*u_y - (1-x^2+y^2)/{lam}^2*F_val",
             f"2*x*y/{lam}*u_x*u_z + (1-x^2+y^2)/{lam}^2*u_y*u_z"),
            (False, False, False),
            note=_S2XR_NOTE + "; component 1 also omits the u_x*u_y term"),
        ReferenceCurrent(
            "C", "Sp3",
            (f"y/2*(u_y^2-u_x^2) + y/(2*{lam}^2)*u_z^2 + x*u_x*u_z"
             f" - y/{lam}^2*F_val",
             f"x/2*(u_y^2-u_x^2) + u_z^2/{lam}^2 - y*u_x*u_y"
             f" + x/{lam}^2*F_val",
             f"-y/{lam}^2*u_x*u_y - y/{lam}^2*u_y*u_z"),
            (False, False, False),
            note=_S2XR_NOTE + "; component 1 prints u_x*u_z for u_x*u_y; "
                 "component 3 mixes jet labels"),
        ReferenceCurrent(
            "D", "Sp4",
            ("-u_x*u_z", "-u_y*u_z",
             f"(u_x^2+u_y^2)/2 - u_z^2/(2*{lam}^2) - F_val/{lam}^2"),
            (True, True, False), note=_S2XR_NOTE),
        ReferenceCurrent(
            "E", "b",
            ("z*u_x", "z*u_y", f"(z*u_z - u)/{lam}^2"),
            (True, True, False), b="z", note=_S2XR_NOTE),
    )
    return GeometryFixture(
        "s2xr", M, killing, sp.Integer(2), 4,
        AnsatzBasis.polynomial(M, 2), (), refs, harmonic_b="z",
        expected_class_dimensions={"arbitrary": 4},
        notes=(_S2XR_NOTE,
               "the metric adopted here carries the factor 4 on the "
               "2-sphere block; without it the scalar curvature would be "
               "8, not the documented 2"),
    )


def _h2xr() -> GeometryFixture:
    M = MetricSpace(
        ["x", "y", "z"],
        [["1/y^2", "0", "0"], ["0", "1/y^2", "0"], ["0", "0", "1"]],
        box={"y": (0.5, 2.0)})
    killing = _fields(M, {
        "X1": ("(x^2-y^2)/2", "x*y", "0"),
        "X2": ("1", "0", "0"),
        "X3": ("x", "y", "0"),
        "X4": ("0", "0", "1"),
    })
    refs = (
        ReferenceCurrent(
            "A", "X1",
            ("(x^2-y^2)/4*(u_y^2-u_x^2) + (x^2-y^2)/(4*y^2)*u_z^2"
             " - x*y*u_x*u_y - (x^2-y^2)/(2*y^2)*F_val",
             "x*y/2*(u_x^2-u_y^2) + x/(2*y)*u_z^2"
             " - (x^2-y^2)/2*u_x*u_y - x/y*F_val",
             "-(x^2-y^2)/(2*y^2)*u_x*u_z - x/y*u_y*u_z"),
            (True, True, True)),
        ReferenceCurrent(
            "B", "X2",
            ("(u_y^2-u_x^2)/2 + u_z^2/(2*y^2) - F_val/y^2",
             "-u_x*u_y", "-u_x*u_z"),
            (True, True, False),
            note="component 3 omits the 1/y^2 density factor"),
        ReferenceCurrent(
            "C", "X3",
            ("x/2*(u_y^2-u_x^2) + x/(2*y^2)*u_z^2 - y*u_x*u_y"
             " - x/y^2*F_val",
             "y/2*(u_x^2-u_y^2) + u_z^2/(2*y^2) - x*u_x*u_y + F_val/y",
             "-x/y^2*u_x*u_z + u_y*u_z/y"),
            (True, False, False),
            note="component 2: u_z^2 denominator should be 2y and the "
                 "potential term -F/y; component 3: the u_y*u_z term "
                 "should be -u_y*u_z/y"),
        ReferenceCurrent(
            "D", "X4",
            ("-u_x*u_z", "-u_y*u_z",
             "(u_x^2+u_y^2)/2 - u_z^2/(2*y^2) - F_val/y^2"),
            (True, True, True)),
        ReferenceCurrent(
            "E", "b",
            ("z*u_x", "z*u_y", "(z*u_z - u)/y^2"),
            (True, True, True), b="z"),
    )
    return GeometryFixture(
        "h2xr", M, killing, sp.Integer(-2), 4,
        AnsatzBasis.polynomial(M, 2), (), refs, harmonic_b="z",
        expected_class_dimensions={"arbitrary": 4},
    )


def _sl2tilde() -> GeometryFixture:
    M = MetricSpace(
        ["x", "y", "z"],
        [["1", "1/z", "0"], ["1/z", "2/z^2", "0"], ["0", "0", "1/z^2"]],
        box={"z": (0.5, 2.0)})
    killing = _fields(M, {
        "X1": ("1", "0", "0"),
        "X2": ("0", "1", "0"),
        "X3": ("0", "y", "z"),
        "X4": ("z", "(y^2-z^2)/2", "y*z"),
    })
    refs = (
        ReferenceCurrent(
            "A", "X1",
            ("-u_x^2/z^2 + u_y^2/2 + u_y^2/2 - F_val/z^2",
             "u_x^2/z - u_x*u_y",
             "-u_x*u_z"),
            (False, True, True),
            note="component 1 prints u_y^2/2 twice where the second term "
                 "should involve u_z^2"),
        ReferenceCurrent(
            "B", "X2",
            ("-2/z^2*u_x*u_y + u_y^2/z",
             "u_x^2/z^2 - u_y^2/2 + u_z^2/2 - F_val/z^2",
             "-u_y*u_z"),
            (True, True, True)),
        ReferenceCurrent(
            "C", "X3",
            ("-2*y/z*u_x*u_y - 2/z*u_x*u_z + y/z*u_y^2 + u_y*u_z",
             "y/z^2*u_x^2 + u_x*u_y - y/2*u_y^2 - z*u_y*u_z + y/2*u_z^2"
             " - y/z^2*F_val",
             "u_x^2/z - u_x*u_y + z/2*u_y^2 - y*u_y*u_z - z/2*u_z^2"
             " - F_val/z"),
            (False, False, True),
            note="component 1: the u_x*u_y denominator should be z^2; "
                 "component 2 prints u_x*u_y where u_x*u_z belongs"),
        ReferenceCurrent(
            "D", "X4",
            ("-u_x^2/z + (z^2-y^2)/z^2*u_x*u_y - 2*y/z*u_x*u_z"
             " + y^2/(2*z)*u_y^2 + y*u_y*u_z + z/2*u_z^2 - F_val/z",
             "(y^2+z^2)/(2*z^2)*u_x^2 - z*u_x*u_y + y*u_x*u_z"
             " - y*z*u_y*u_z + (y^2-z^2)/4*u_z^2"
             " + (z^2-y^2)/(2*z^2)*F_val",
             "y/z*u_x^2 - y*u_x*u_y - z*u_x*u_z + y*z/2*u_y^2"
             " + (z^2-y^2)/2*u_y*u_z - y*z/2*u_z^2 - y/z*F_val"),
            (True, False, True),
            note="component 2 omits the (z^2-y^2)/4*u_y^2 term"),
        ReferenceCurrent(
            "E", "b",
            ("2*u_x/z - u_y", "-u_x + z*u_y", "z*u_z - u"),
            (True, True, True), b="z"),
    )
    return GeometryFixture(
        "sl2tilde", M, killing, sp.Rational(-5, 2), 4,
        AnsatzBasis.polynomial(M, 2), (), refs, harmonic_b="z",
        expected_class_dimensions={"arbitrary": 4},
        notes=("the reference prints the fourth Killing field with a "
               "missing d/dy on its (y^2-z^2)/2 coefficient; the form "
               "adopted here is the only reading satisfying the Killing "
               "equations",),
    )


_HEIS_W = "(4*(x^2+y^2)+1)"


def _heisenberg() -> GeometryFixture:
    M = MetricSpace(
        ["x", "y", "t"],
        [["1+4*y^2", "-4*x*y", "-2*y"],
         ["-4*x*y", "1+4*x^2", "2*x"],
         ["-2*y", "2*x", "1"]])
    killing = _fields(M, {
        "T": ("0", "0", "1"),
        "Xtilde": ("1", "0", "-2*y"),
        "Ytilde": ("0", "1", "2*x"),
        "Rot": ("y", "-x", "0"),
    })
    aux = _fields(M, {
        "Xleft": ("1", "0", "2*y"),
        "Yleft": ("0", "1", "-2*x"),
    })
    W = _HEIS_W
    refs = (
        ReferenceCurrent(
            "A", "T",
            ("-u_x*u_t - 2*y*u_t^2",
             "-u_y*u_t + 2*x*u_t^2",
             f"(u_x^2+u_y^2)/2 - {W}/2*u_t^2 - F_val"),
            (True, True, True)),
        ReferenceCurrent(
            "B", "Xtilde",
            ("(u_y^2-u_x^2)/2 + 2*y*u_x*u_t - 2*x*u_y*u_t"
             " + (4*(x^2+3*y^2)+1)/2*u_t^2 - F_val",
             "-u_x*u_y - 2*y*u_y*u_t + 2*x*u_x*u_t - 4*x*y*u_t^2",
             f"-3*y*u_x^2 - y*u_y^2 + 2*x*u_x*u_y + y*{W}*u_t^2"
             f" - {W}*u_x*u_t + 2*y*F_val"),
            (True, False, True),
            note="component 1 is printed with a doubled '+' (read as a "
                 "single '+'); component 2 has a sign error on the "
                 "u_y*u_t term"),
        ReferenceCurrent(
            "C", "Ytilde",
            ("-u_x*u_y - 2*x*u_x*u_t - 2*y*u_y*u_t - 4*x*y*u_t^2",
             "(u_x^2-u_y^2)/2 + 2*y*u_x*u_t - 2*x*u_y*u_t"
             " + (4*(3*x^2+y^2)+1)/2*u_t^2 - F_val",
             f"-x*u_x^2 + 3*x*u_y^2 - x*{W}*u_t^2 - 2*y*u_x*u_y"
             f" - {W}*u_y*u_t - 2*x*F_val"),
            (True, True, False),
            note="component 3 has a sign error on the x*u_x^2 term"),
        ReferenceCurrent(
            "D", "Rot",
            (f"-(y/2*(u_y^2-u_x^2) + y/2*{W}*u_t^2 + x*u_x*u_y - y*F_val)",
             f"-(x/2*(u_y^2-u_x^2) - x/2*{W}*u_t^2 - y*u_x*u_y + x*F_val)",
             f"-2*y^2*u_x^2 - 2*x^2*u_y^2 + 4*x*y*u_x*u_y"
             f" - y*{W}*u_x*u_t + x*{W}*u_y*u_t"),
            (False, False, True),
            note="components 1 and 2 carry a spurious overall minus sign"),
        ReferenceCurrent(
            "E", "b",
            ("x*(u_x + 2*y*u_t) - u*(1 + 2*y*u_t)",
             "x*(u_y - 2*x*u_t) - u*(0 - 2*x*u_t)",
             f"x*(2*y*u_x - 2*x*u_y + {W}*u_t) - u*(2*y*1 - 2*x*0 + {W}*0)"),
            (False, False, True), b="x",
            note="components 1 and 2 print u_t where the derivative of b "
                 "belongs"),
    )
    return GeometryFixture(
        "heisenberg", M, killing, sp.Integer(-8), 4,
        AnsatzBasis.polynomial(M, 2), (), refs, harmonic_b="x",
        auxiliary_fields=aux,
        special_brackets=(("Xleft", "Yleft", ("0", "0", "-4")),),
        expected_class_dimensions={"arbitrary": 4},
        notes=("the reference prints the invariant 1-form's cross terms "
               "with opposite signs; the metric adopted here (t-column "
               "signs flipped) is the one whose Killing fields, expanded "
               "equation and commutation relations all verify",),
    )


_LOADERS = {
    "euclidean": _euclidean,
    "hyperbolic3": _hyperbolic3,
    "sphere3": _sphere3,
    "sol": _sol,
    "s2xr": _s2xr,
    "h2xr": _h2xr,
    "sl2tilde": _sl2tilde,
    "heisenberg": _heisenberg,
}


def load(name: str) -> GeometryFixture:
    try:
        loader = _LOADERS[name]
    except KeyError:
        raise CatalogError(
            f"unknown geometry '{name}'; choose from {GEOMETRY_NAMES}"
        ) from None
    return loader()


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


def _span_coefficients(cols, target):
    """Rational c with target = sum_m c_m cols[m], or None when target is
    not in the span."""
    for rel in linear_relations(list(cols) + [target]):
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
            rc = _span_coefficients(cols, tuple(br.components))
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
    for (na, nb, expected) in fix.special_brackets:
        br = lie_bracket(fix.vector_field(na), fix.vector_field(nb))
        ok = all(M.exprs.zero(br.components[k] - parse(expected[k], M.table))
                 is Verdict.ZERO for k in range(M.n))
        report.add(f"bracket:{na},{nb}", ok,
                   detail=f"expected ({', '.join(expected)})")


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
    name, p = _SWEEP_ALIASES.get(cname, (cname, None))
    cls = NonlinearityClass.named(name, M, p, None)
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
        cols = [tuple(e.generator.xi.components) + (e.generator.a, e.generator.b)
                for e in table.entries]
        missing = [name for name, fld in fix.killing.items()
                   if _span_coefficients(cols, tuple(fld.components)
                                         + (sp.Integer(0), sp.Integer(0)))
                   is None]
        report.add("isometry_span", not missing, detail="; ".join(missing))
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


def run_fixture_suite(fixture, classes=DEFAULT_CLASSES) -> SuiteReport:
    """Run every fixture check; failures are collected, never raised."""
    fix = load(fixture) if isinstance(fixture, str) else fixture
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

    guarded("curvature", lambda: report.add(
        "curvature",
        E.zero(M.scalar_curvature - fix.expected_curvature) is Verdict.ZERO,
        detail=f"R = {M.scalar_curvature}, expected {fix.expected_curvature}"))

    def killing_checks():
        for name, fld in fix.killing.items():
            rep = conformal_check(M, fld)
            report.add(f"killing:{name}",
                       rep.verdict is ConformalVerdict.KILLING,
                       detail=rep.verdict.name)
    guarded("killing", killing_checks)

    def independence():
        cols = [tuple(f.components) for f in fix.killing.values()]
        rank = len(cols) - len(linear_relations(cols))
        report.add("basis_independent", rank == len(cols),
                   detail=f"rank {rank} of {len(cols)}")
    guarded("basis_independent", independence)

    guarded("bracket_closure", lambda: _bracket_closure(fix, report))

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
