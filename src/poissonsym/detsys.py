"""Symmetry determining equations for Delta_g u + f(u) = 0.

A point symmetry candidate is X = xi^i(x) d/dx^i + (a(x) u + b(x)) d/du.
It is an actual symmetry iff

    (S1)  L_xi g_ij = mu g_ij                     (xi conformal Killing)
    (S2)  a_i = ((2-n)/4) mu_i
    (S3)  a u f' + b f' + (mu - a) f
          + ((n-2)/(4(n-1))) (xi^i R_,i + mu R) u + Delta_g b = 0

with an equivalent form of (S3) that carries ((2-n)/4)(Delta_g mu) u in
place of the curvature term; the two agree for conformal xi because
Delta_g mu = -(1/(n-1))(xi^i R_,i + mu R).

S3 is linear in the functions of u (u f', f', f, u, 1), with coefficients
(a, b, mu - a, curv, Delta_g b) free of u, curv being the curvature term;
their QQ-linear relations split S3 into equations on those coefficients
(`NonlinearityClass.split`).  `conformal_algebra` solves S1 over a finite
function basis, once per chart and basis, and a class is a linear cut of
it by S2 and its split S3 (`solve_linear_ansatz`): exact in the chart's
jet fractions (`exprcore.JetFraction`) when g and the basis convert, else
on sampled Exprs, each a linear system over QQ (`linear_relations`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache

import sympy as sp

from .exprcore import (Expr, SymbolTable, Verdict, linear_relations,
                       normalize, parse)
from .geom import (
    ConformalVerdict,
    GeometryError,
    MetricSpace,
    VectorField,
    conformal_kind,
    conformal_residual,
    gradient,
    laplace_beltrami,
)

_U_TABLE = SymbolTable(["x"])    # u, F_val, f_val, fprime_val of every chart


class DetSysError(Exception):
    pass


class NonlinearityTag(Enum):
    ARBITRARY = "arbitrary"
    ZERO = "zero"
    CONSTANT = "constant"
    LINEAR = "linear"
    EXPONENTIAL = "exponential"
    POWER = "power"
    CRITICAL = "critical"
    P2N6 = "p2n6"


@dataclass(frozen=True)
class NonlinearityClass:
    """A nonlinearity case tag together with f and its antiderivative F.

    F is normalized by F(0) = 0.  For the arbitrary case F and f are the
    reserved symbols F_val and f_val of the symbol table, whose
    `SymbolTable.diff_u` applies the chain rule F -> f -> f'.

    This class is the case table: `named` builds a class from its name, and
    `split`, `scaling`, `lift`, `side_checks`, `potential` and
    `scales_lagrangian` hold every rule that depends on the case.
    """

    tag: NonlinearityTag
    u: sp.Symbol
    f: Expr
    F: Expr
    p: sp.Rational | None = None
    k: Expr | None = None

    @staticmethod
    def arbitrary(u: sp.Symbol) -> "NonlinearityClass":
        return NonlinearityClass(NonlinearityTag.ARBITRARY, u,
                                 SymbolTable.f, SymbolTable.F)

    @staticmethod
    def zero(u: sp.Symbol) -> "NonlinearityClass":
        return NonlinearityClass(NonlinearityTag.ZERO, u,
                                 sp.Integer(0), sp.Integer(0))

    @staticmethod
    def constant(u: sp.Symbol, k: Expr | None = None) -> "NonlinearityClass":
        """f = k, a nonzero number, or the symbol k when k is None."""
        if k is None:
            k = sp.Symbol("k", real=True, nonzero=True)
        elif sp.sympify(k).is_zero or not sp.sympify(k).is_number:
            raise DetSysError(f"constant nonlinearity requires a nonzero "
                              f"number k, not '{k}'")
        k = sp.sympify(k)
        return NonlinearityClass(NonlinearityTag.CONSTANT, u, k, k * u, k=k)

    @staticmethod
    def linear(u: sp.Symbol) -> "NonlinearityClass":
        return NonlinearityClass(NonlinearityTag.LINEAR, u, u, u**2 / 2)

    @staticmethod
    def exponential(u: sp.Symbol) -> "NonlinearityClass":
        # F = e^u (not e^u - 1): keeps the scaling residual a clean multiple
        # of L; the constant is immaterial for currents since only isometries
        # are Noether here and Killing divergences annihilate constants
        return NonlinearityClass(NonlinearityTag.EXPONENTIAL, u,
                                 sp.exp(u), sp.exp(u))

    @staticmethod
    def power(u: sp.Symbol, p, n: int) -> "NonlinearityClass":
        try:
            p = sp.Rational(str(p))
        except (TypeError, ValueError, ZeroDivisionError):
            raise DetSysError(f"power exponent must be rational, "
                              f"not '{p}'") from None
        if p in (0, 1):
            raise DetSysError("power nonlinearity requires p not in {0, 1}")
        F = u**(p + 1) / (p + 1) if p != -1 else sp.log(u)
        if p == sp.Rational(n + 2, n - 2) and n != 6:
            tag = NonlinearityTag.CRITICAL
        elif p == 2 and n == 6:
            tag = NonlinearityTag.P2N6
        else:
            tag = NonlinearityTag.POWER
        return NonlinearityClass(tag, u, u**p, F, p=p)

    @staticmethod
    def named(name: str, M: MetricSpace, p, k) -> "NonlinearityClass":
        """The class called `name` (a NonlinearityTag value) on M.

        p is the exponent of 'power'; k is the value of 'constant', an
        expression text or number, symbolic when None.
        """
        u, n = M.table.u, M.n
        if name == "power" and p is None:
            raise DetSysError("class 'power' requires an exponent p")
        if name == "p2n6" and n != 6:
            raise DetSysError("class 'p2n6' requires dimension n = 6")
        if name == "critical":          # no critical exponent for n = 2
            _require_classifiable(M)
            p = sp.Rational(n + 2, n - 2)
        if name in ("power", "critical", "p2n6"):
            return NonlinearityClass.power(u, 2 if name == "p2n6" else p, n)
        if name == "constant":
            return NonlinearityClass.constant(
                u, None if k is None else parse(str(k), M.table))
        if name not in ("arbitrary", "zero", "linear", "exponential"):
            raise DetSysError(f"unknown nonlinearity class '{name}'")
        return getattr(NonlinearityClass, name)(u)

    @property
    def u_functions(self) -> list:
        """S3's functions of u: u f', f', f, u and 1."""
        fp = self.fprime()
        return [self.u * fp, fp, self.f, self.u, sp.Integer(1)]

    @cached_property
    def split(self) -> list:
        """S3 split by its u-dependence: rows w over QQ, each the equation
        sum_k w_k c_k = 0 on S3's coefficients c of `u_functions`, spanning
        the complement of their QQ-linear relations (in which a symbolic k
        and F_val, f_val, fprime_val count as independent symbols)."""
        funcs = self.u_functions
        field = [_U_TABLE.to_field(e) for e in funcs]
        rels = linear_relations([(e,) for e in (
            funcs if None in field else field)])
        return [list(w) for w in sp.Matrix(
            len(rels), len(funcs), sum(rels, [])).nullspace()]

    @property
    def scaling(self) -> bool:
        """Zero, linear and constant f: the scaling direction u d/du fixes a
        only up to a constant, a = ((2-n)/4) mu + c."""
        return self.tag in (NonlinearityTag.ZERO, NonlinearityTag.LINEAR,
                            NonlinearityTag.CONSTANT)

    def lift(self, n: int, mu: Expr) -> tuple:
        """Canonical (a, b) over a conformal field with factor mu:
        a = ((2-n)/4) mu, b = 0, except a = 0, b = -mu (exponential) and
        a = mu/(1-p), b = 0 (non-critical power)."""
        if self.tag is NonlinearityTag.EXPONENTIAL:
            return sp.Integer(0), normalize(-mu)
        if self.tag in (NonlinearityTag.POWER, NonlinearityTag.P2N6):
            return normalize(mu / (1 - self.p)), sp.Integer(0)
        return normalize(sp.Rational(2 - n, 4) * mu), sp.Integer(0)

    def side_checks(self, R, gen: "SymmetryGenerator", mu: Expr) -> dict:
        """The case's side conditions on (mu, a, b), by name, decided in the
        representation R; they check the cut independently of `split`."""
        n, T = R.space.n, NonlinearityTag
        a, b, mu = R.of(gen.a), R.of(gen.b), R.of(mu)
        lap = lambda e: laplace_beltrami(R, e)
        Z = lambda e: R.zero(e) is Verdict.ZERO
        shift = a - sp.Rational(2 - n, 4) * mu
        return {
            T.ARBITRARY: lambda: {"isometry": Z(mu), "a_zero": Z(a),
                                  "b_zero": Z(b)},
            T.ZERO: lambda: {"b_harmonic": Z(lap(b)),
                             "mu_harmonic": Z(lap(mu)),
                             "a_shift_constant": R.constant(shift)},
            # for f = k != 0 the binding side conditions are Delta mu = 0
            # and (mu - a) k + Delta b = 0 (identically in k when symbolic)
            T.CONSTANT: lambda: {
                "b_biharmonic": Z(lap(lap(b))), "mu_harmonic": Z(lap(mu)),
                "balance": Z((mu - a) * R.of(self.k) + lap(b))},
            T.LINEAR: lambda: {
                "b_eigen": Z(lap(b) + b),
                "mu_eigen": Z(sp.Rational(2 - n, 4) * lap(mu) + mu),
                "a_shift_constant": R.constant(shift)},
            T.EXPONENTIAL: lambda: {"mu_constant": R.constant(mu),
                                    "a_zero": Z(a),
                                    "b_is_minus_mu": Z(b + mu)},
            T.POWER: lambda: {"mu_constant": R.constant(mu),
                              "a_relation": Z(a - mu / (1 - self.p)),
                              "b_zero": Z(b)},
            T.CRITICAL: lambda: {"mu_harmonic": Z(lap(mu)),
                                 "a_relation": Z(shift), "b_zero": Z(b)},
            T.P2N6: lambda: {"mu_biharmonic": Z(lap(lap(mu))),
                             "a_relation": Z(a + mu),
                             "b_relation": Z(b - lap(mu) / 2)},
        }[self.tag]()

    def fprime(self) -> Expr:
        return SymbolTable.diff_u(self.f, self.u)

    def potential(self, R, X: "SymmetryGenerator", mu) -> list:
        """Closed-form Noether potential phi^i of X in R, mu being X's
        conformal factor in R: X^(1)L + L D_i xi^i = D_i phi^i for a
        divergence symmetry."""
        n, u, sg = R.space.n, R.of(self.u), R.sqrt_det
        if not (self.scaling or self.tag in (NonlinearityTag.CRITICAL,
                                             NonlinearityTag.POWER,
                                             NonlinearityTag.P2N6)):
            return [R.of(sp.Integer(0))] * n
        gmu = gradient(R, mu)
        if self.tag is NonlinearityTag.P2N6:
            glap = gradient(R, laplace_beltrami(R, mu))
            return [R.normal(-sg * gmu[i] * u**2 / 2 + sg * glap[i] * u)
                    for i in range(n)]
        gb = gradient(R, R.of(X.b)) if self.scaling else [0] * n
        return [R.normal(sp.Rational(2 - n, 8) * sg * gmu[i] * u**2
                         + sg * gb[i] * u) for i in range(n)]

    def scales_lagrangian(self, R, X: "SymmetryGenerator") -> bool:
        """Whether X may scale L (ScaledNonNoether): the u-scaling family
        only, and for constant f = k only with b = 0, since b leaves the
        term -sqrt(g) b k, which is no multiple of L.  Decided in R."""
        if self.tag is NonlinearityTag.CONSTANT:
            return R.zero(R.of(X.b)) is Verdict.ZERO
        return self.scaling

    def representation(self, M: MetricSpace, *exprs):
        """M's representation for exprs together with f and F."""
        return M.representation(*exprs, self.f, self.F)


@dataclass
class SymmetryGenerator:
    """X = xi^i d/dx^i + (a u + b) d/du with a, b coordinate-only."""

    xi: VectorField
    a: Expr
    b: Expr

    def __post_init__(self):
        T = self.xi.space.table
        self.a, self.b = T.expression(self.a), T.expression(self.b)
        if not (T.coordinate_only(self.a) and T.coordinate_only(self.b)):
            raise DetSysError("a(x), b(x) must not depend on u, jets or "
                              "F_val, f_val, fprime_val")

    @property
    def space(self) -> MetricSpace:
        return self.xi.space

    def eta(self) -> Expr:
        return self.a * self.space.table.u + self.b


@dataclass
class DeterminingReport:
    conformal_residual: sp.Matrix          # (S1), n x n
    gradient_residual: list                # (S2), length n
    nonlinearity_residual: Expr            # (S3)
    mu: Expr
    verdict: bool
    # zero-test verdicts: "conformal" per entry i <= j in row order,
    # "gradient" per component, "nonlinearity" a single Verdict
    verdicts: dict
    warnings: list = field(default_factory=list)


@dataclass(eq=False)
class AnsatzBasis:
    functions: list

    @staticmethod
    def from_strings(M: MetricSpace, texts) -> "AnsatzBasis":
        functions = [parse(t, M.table) for t in texts]
        for t, f in zip(texts, functions):
            if not M.table.coordinate_only(f):
                raise DetSysError(f"basis function '{t}' depends on u, jets "
                                  f"or F_val, f_val, fprime_val")
        return AnsatzBasis(functions)

    @staticmethod
    def polynomial(M: MetricSpace, degree: int) -> "AnsatzBasis":
        return AnsatzBasis([
            sp.Mul(*(M.coords[i] for i in powers))
            for total in range(degree + 1)
            for powers in itertools.combinations_with_replacement(
                range(M.n), total)])

    def __post_init__(self):
        # keep the first maximal independent subset: f_k goes when a
        # relation ends at k, i.e. starts at k over the reversed list
        funcs = [normalize(sp.sympify(f)) for f in self.functions]
        dependent = {len(funcs) - 1 - next(i for i, c in enumerate(rel) if c)
                     for rel in linear_relations([(f,) for f in funcs[::-1]])}
        self.functions = [f for k, f in enumerate(funcs) if k not in dependent]
        if not self.functions:
            raise DetSysError("empty ansatz basis")

    def __len__(self):
        return len(self.functions)


def _require_classifiable(M: MetricSpace) -> None:
    if M.n < 3:
        raise GeometryError("symmetry classification needs dimension n >= 3")


def poisson_equation(M: MetricSpace, cls: NonlinearityClass) -> Expr:
    """H = g^{ij} u_ij - Gamma^i u_i + f(u), built in the representation of
    f and F from its cross-checked jet Laplacian (`geom._Rep`)."""
    R = cls.representation(M)
    return R.expr(R.normal(R.jet_laplacian + R.of(cls.f)))


def _s2_s3(R, cls: NonlinearityClass, xi: list, mu, a, b) -> tuple:
    """(S2 list, S3's coefficients of `NonlinearityClass.u_functions`, cls's
    split S3 on them) in R, not normal, for xi, its factor mu, a and b."""
    M = R.space
    n, c, scal = M.n, M.coords, R.scalar_curvature
    res2 = [R.diff(a, x) - sp.Rational(2 - n, 4) * R.diff(mu, x) for x in c]
    curv = sp.Rational(n - 2, 4 * (n - 1)) * (
        sum(xi[i] * R.diff(scal, c[i]) for i in range(n)) + mu * scal)
    coeffs = [a, b, mu - a, curv, laplace_beltrami(R, b)]
    return res2, coeffs, [sum(w * c for w, c in zip(row, coeffs))
                          for row in cls.split]


def determining_residuals(M: MetricSpace, X: SymmetryGenerator,
                          cls: NonlinearityClass) -> DeterminingReport:
    """S1-S3 for X, decided in the representation of X, S3 by the class's
    split; the report holds normalized Exprs, S3 in that of X, f and F."""
    _require_classifiable(M)
    n = M.n
    R = M.representation(*X.xi.components, X.a, X.b)
    xi = [R.of(e) for e in X.xi.components]
    mu, res1 = conformal_residual(R, xi)
    res2, coeffs, split = _s2_s3(R, cls, xi, mu, R.of(X.a), R.of(X.b))
    res1 = [[R.normal(e) for e in row] for row in res1]
    res2 = [R.normal(r) for r in res2]

    v1 = [R.zero(res1[i][j]) for i in range(n) for j in range(i, n)]
    v2 = [R.zero(r) for r in res2]
    v3 = max((R.zero(e) for e in split), default=Verdict.ZERO,
             key=[Verdict.ZERO, Verdict.INCONCLUSIVE, Verdict.NONZERO].index)
    conformal_ok = all(v is Verdict.ZERO for v in v1)
    # the equivalent form of (S3) carries ((2-n)/4)(Delta_g mu) u in place
    # of curv, coeffs[3]; the two must agree whenever xi is conformal
    if conformal_ok and R.zero(
            coeffs[3] - sp.Rational(2 - n, 4) * laplace_beltrami(R, mu)
    ) is not Verdict.ZERO:
        raise DetSysError("the two nonlinearity-residual forms disagree "
                          "for a conformal generator")
    warnings = [f"inconclusive zero test in {name} residual"
                for name, vs in (("conformal", v1), ("gradient", v2),
                                 ("nonlinearity", [v3]))
                if Verdict.INCONCLUSIVE in vs]
    verdict = (conformal_ok and all(v is Verdict.ZERO for v in v2)
               and v3 is Verdict.ZERO)
    Rf = cls.representation(M, *X.xi.components, X.a, X.b)
    coeffs = coeffs if Rf is R else [R.expr(c) for c in coeffs]
    res3 = Rf.normal(sum(c * Rf.of(phi)
                         for c, phi in zip(coeffs, cls.u_functions)))
    return DeterminingReport(
        sp.Matrix([[R.expr(e) for e in row] for row in res1]),
        [R.expr(r) for r in res2], Rf.expr(res3), R.expr(mu), verdict,
        {"conformal": v1, "gradient": v2, "nonlinearity": v3}, warnings)


# ---------------------------------------------------------------------------
# the conformal algebra and the linear-ansatz solver

@dataclass
class ConformalAlgebra:
    """C_B(M), the conformal fields in span(basis)^n: the RREF basis
    `vectors` of their coefficients over the units (i, phi), phi in xi^i;
    per field, its components `xi` and factor `mu` in R, and its label."""

    R: object
    vectors: list
    xi: list
    mu: list
    labels: list


@lru_cache(maxsize=8)
def conformal_algebra(M: MetricSpace, basis: AnsatzBasis) -> ConformalAlgebra:
    """S1 solved over the ansatz in R, the representation of the basis (the
    chart's field whenever g and the basis convert), once per both."""
    R = M.representation(*basis.functions)
    n, zero = M.n, R.of(sp.Integer(0))
    units = [[R.of(phi) if j == i else zero for j in range(n)]
             for i in range(n) for phi in basis.functions]
    res = [conformal_residual(R, u)[1] for u in units]
    vectors = linear_relations([[r[i][j] for i in range(n)
                                 for j in range(i, n)] for r in res])
    xi = [[R.normal(sum((c * u[i] for c, u in zip(v, units) if c), zero))
           for i in range(n)] for v in vectors]
    mu = [conformal_residual(R, x)[0] for x in xi]
    return ConformalAlgebra(R, vectors, xi, mu, [_label(R, m) for m in mu])


@dataclass
class SolveResult:
    generators: list               # symbolically verified
    reports: list                  # DeterminingReport of each generator
    inconclusive: list             # nullspace directions that failed re-check
    nullspace_dim: int


def solve_linear_ansatz(M: MetricSpace, cls: NonlinearityClass,
                        basis: AnsatzBasis) -> SolveResult:
    """Each ansatz coefficient is a unit (slot, phi): phi in xi^slot for
    slot < n, in a for slot n and in b for slot n + 1.  The class is the
    cut of C_B(M) x span(basis) x span(basis) by S2 and its split S3, built
    in the representation of the basis; its RREF basis over the units gives
    the candidate generators, each re-verified by determining_residuals."""
    _require_classifiable(M)
    n, C = M.n, conformal_algebra(M, basis)
    R, d = C.R, len(C.vectors)
    zero, phis = R.of(sp.Integer(0)), [R.of(phi) for phi in basis.functions]
    columns = [res2 + split for res2, _, split in (
        _s2_s3(R, cls, *unknown) for unknown in (
            [(x, mu, zero, zero) for x, mu in zip(C.xi, C.mu)]
            + [([zero] * n, zero, phi, zero) for phi in phis]
            + [([zero] * n, zero, zero, phi) for phi in phis]))]
    # a cut vector y = (C_B(M) coordinates, a, b) over the units keeps the
    # RREF: y_m is its entry at the pivot of C.vectors[m]
    cut = [[sum(y[m] * v[j] for m, v in enumerate(C.vectors))
            for j in range(n * len(basis))] + y[d:]
           for y in linear_relations(columns)]
    units = [(slot, phi) for slot in range(n + 2) for phi in basis.functions]
    gens = [_combine(M, units, vec) for vec in cut]
    reps = [determining_residuals(M, gen, cls) for gen in gens]
    return SolveResult([g for g, r in zip(gens, reps) if r.verdict],
                       [r for r in reps if r.verdict],
                       [g for g, r in zip(gens, reps) if not r.verdict],
                       len(cut))


def _combine(M: MetricSpace, units: list, vec) -> SymmetryGenerator:
    """The generator sum_k vec[k] units[k] (normalized on construction)."""
    parts = [sp.Integer(0)] * (M.n + 2)
    for c, (slot, phi) in zip(vec, units):
        parts[slot] += c * phi
    return SymmetryGenerator(VectorField(M, parts[:M.n]), *parts[M.n:])


def _label(R, mu) -> str:
    """Isometry, Homothety or ConformalKilling, by the factor mu in R."""
    kind = conformal_kind(R, mu)
    return "Isometry" if kind is ConformalVerdict.KILLING else kind.value


# ---------------------------------------------------------------------------
# classification against the case table

@dataclass
class ClassifiedGenerator:
    generator: SymmetryGenerator
    mu: Expr
    label: str                       # Isometry / Homothety / ConformalKilling
    side_checks: dict
    violations: list


@dataclass
class ClassificationTable:
    nonlinearity: NonlinearityClass
    entries: list
    inconclusive: list

    @property
    def dimension(self) -> int:
        return len(self.entries)


def classify(M: MetricSpace, cls: NonlinearityClass,
             basis: AnsatzBasis) -> ClassificationTable:
    """The class's generators, labelled and side-checked in the
    representation of the basis and k."""
    result = solve_linear_ansatz(M, cls, basis)
    R = M.representation(*basis.functions,
                         *([] if cls.k is None else [cls.k]))
    entries = []
    for gen, rep in zip(result.generators, result.reports):
        checks = cls.side_checks(R, gen, rep.mu)
        entries.append(ClassifiedGenerator(
            gen, rep.mu, _label(R, R.of(rep.mu)), checks,
            [name for name, ok in checks.items() if not ok]))
    return ClassificationTable(cls, entries, result.inconclusive)
