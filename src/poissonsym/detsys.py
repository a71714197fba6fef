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

The system is built once, in the chart's representation (`geom`): exact
in the chart's jet fractions (`exprcore.JetFraction`) when the inputs
convert, sampled Exprs otherwise.  `solve_linear_ansatz` reduces it to
exact linear algebra over a finite function basis: the residuals are
linear in the ansatz coefficients, so splitting them by monomial
(`exprcore.linear_relations`) gives a linear system over QQ whose
nullspace spans the candidate generators; candidates are then
re-verified.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

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
    `with_b`, `scaling`, `lift`, `side_checks`, `potential` and
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
        make = {
            "arbitrary": lambda: NonlinearityClass.arbitrary(u),
            "zero": lambda: NonlinearityClass.zero(u),
            "constant": lambda: NonlinearityClass.constant(
                u, None if k is None else parse(str(k), M.table)),
            "linear": lambda: NonlinearityClass.linear(u),
            "exponential": lambda: NonlinearityClass.exponential(u),
            "power": lambda: NonlinearityClass.power(u, p, n),
            "critical": lambda: NonlinearityClass.power(
                u, sp.Rational(n + 2, n - 2), n),
            "p2n6": lambda: NonlinearityClass.power(u, 2, 6),
        }
        if name not in make:
            raise DetSysError(f"unknown nonlinearity class '{name}'")
        return make[name]()

    @property
    def with_b(self) -> bool:
        """Whether the ansatz carries b(x): b is forced to zero only for pure
        power nonlinearities (critical included); exponential needs b = -mu."""
        return self.tag not in (NonlinearityTag.POWER, NonlinearityTag.CRITICAL)

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
        representation R."""
        n = R.space.n
        a, b, mu = R.of(gen.a), R.of(gen.b), R.of(mu)
        lap = lambda e: laplace_beltrami(R, e)
        Z = lambda e: R.zero(e) is Verdict.ZERO
        tag = self.tag
        checks = {}
        if tag is NonlinearityTag.ARBITRARY:
            checks["isometry"] = Z(mu)
            checks["a_zero"] = Z(a)
            checks["b_zero"] = Z(b)
        elif tag is NonlinearityTag.ZERO:
            checks["b_harmonic"] = Z(lap(b))
            checks["mu_harmonic"] = Z(lap(mu))
            checks["a_shift_constant"] = R.constant(
                a - sp.Rational(2 - n, 4) * mu)
        elif tag is NonlinearityTag.CONSTANT:
            # for f = k != 0 the binding side conditions are Delta mu = 0 and
            # (mu - a) k + Delta b = 0 (identically in k when k is symbolic)
            checks["b_biharmonic"] = Z(lap(lap(b)))
            checks["mu_harmonic"] = Z(lap(mu))
            checks["balance"] = Z((mu - a) * R.of(self.k) + lap(b))
        elif tag is NonlinearityTag.LINEAR:
            checks["b_eigen"] = Z(lap(b) + b)
            checks["mu_eigen"] = Z(sp.Rational(2 - n, 4) * lap(mu) + mu)
            checks["a_shift_constant"] = R.constant(
                a - sp.Rational(2 - n, 4) * mu)
        elif tag is NonlinearityTag.EXPONENTIAL:
            checks["mu_constant"] = R.constant(mu)
            checks["a_zero"] = Z(a)
            checks["b_is_minus_mu"] = Z(b + mu)
        elif tag is NonlinearityTag.POWER:
            checks["mu_constant"] = R.constant(mu)
            checks["a_relation"] = Z(a - mu / (1 - self.p))
            checks["b_zero"] = Z(b)
        elif tag is NonlinearityTag.CRITICAL:
            checks["mu_harmonic"] = Z(lap(mu))
            checks["a_relation"] = Z(a - sp.Rational(2 - n, 4) * mu)
            checks["b_zero"] = Z(b)
        elif tag is NonlinearityTag.P2N6:
            checks["mu_biharmonic"] = Z(lap(lap(mu)))
            checks["a_relation"] = Z(a + mu)
            checks["b_relation"] = Z(b - lap(mu) / 2)
        return checks

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


@dataclass
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
        monos = []
        for total in range(degree + 1):
            for powers in itertools.combinations_with_replacement(
                    range(M.n), total):
                m = sp.Integer(1)
                for i in powers:
                    m *= M.coords[i]
                monos.append(m)
        return AnsatzBasis(monos)

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


def _determining_equations(R, xi: list, a, b,
                           cls: NonlinearityClass) -> tuple:
    """(S1)-(S3) in R for xi, a and b in R: (mu, S1 rows, S2 list, S3,
    curv), with only mu normalized.

    curv is the curvature coefficient of u in S3, returned so that the
    caller can check it against the equivalent ((2-n)/4) Delta_g mu.
    """
    M = R.space
    n, c, u = M.n, M.coords, R.of(cls.u)
    mu, res1 = conformal_residual(R, xi)
    res2 = [R.diff(a, x) - sp.Rational(2 - n, 4) * R.diff(mu, x) for x in c]
    f, fp = R.of(cls.f), R.of(cls.fprime())
    scal = R.scalar_curvature
    curv = sp.Rational(n - 2, 4 * (n - 1)) * (
        sum(xi[i] * R.diff(scal, c[i]) for i in range(n)) + mu * scal)
    res3 = (a * u * fp + b * fp + (mu - a) * f
            + curv * u + laplace_beltrami(R, b))
    return mu, res1, res2, res3, curv


def determining_residuals(M: MetricSpace, X: SymmetryGenerator,
                          cls: NonlinearityClass) -> DeterminingReport:
    """S1-S3 for X, decided in the representation of X, f and F; the
    report holds normalized Exprs."""
    _require_classifiable(M)
    n = M.n
    R = cls.representation(M, *X.xi.components, X.a, X.b)
    mu, res1, res2, res3, curv = _determining_equations(
        R, [R.of(e) for e in X.xi.components], R.of(X.a), R.of(X.b), cls)
    res1 = [[R.normal(e) for e in row] for row in res1]
    res2 = [R.normal(r) for r in res2]
    res3 = R.normal(res3)

    v1 = [R.zero(res1[i][j]) for i in range(n) for j in range(i, n)]
    v2 = [R.zero(r) for r in res2]
    v3 = R.zero(res3)
    conformal_ok = all(v is Verdict.ZERO for v in v1)
    # the equivalent form of (S3) carries ((2-n)/4)(Delta_g mu) u in place
    # of the curvature term; the two must agree whenever xi is conformal
    if conformal_ok and R.zero(
            curv - sp.Rational(2 - n, 4) * laplace_beltrami(R, mu)
    ) is not Verdict.ZERO:
        raise DetSysError("the two nonlinearity-residual forms disagree "
                          "for a conformal generator")
    warnings = [f"inconclusive zero test in {name} residual"
                for name, vs in (("conformal", v1), ("gradient", v2),
                                 ("nonlinearity", [v3]))
                if Verdict.INCONCLUSIVE in vs]
    verdict = (conformal_ok and all(v is Verdict.ZERO for v in v2)
               and v3 is Verdict.ZERO)
    return DeterminingReport(
        sp.Matrix([[R.expr(e) for e in row] for row in res1]),
        [R.expr(r) for r in res2], R.expr(res3), R.expr(mu), verdict,
        {"conformal": v1, "gradient": v2, "nonlinearity": v3}, warnings)


# ---------------------------------------------------------------------------
# linear-ansatz solver

@dataclass
class SolveResult:
    generators: list               # symbolically verified
    reports: list                  # DeterminingReport of each generator
    inconclusive: list             # nullspace directions that failed re-check
    basis: AnsatzBasis
    nullspace_dim: int


def solve_linear_ansatz(M: MetricSpace, cls: NonlinearityClass,
                        basis: AnsatzBasis) -> SolveResult:
    """Each ansatz coefficient is a unit (slot, phi): phi in xi^slot for
    slot < n, in a for slot n and in b for slot n + 1 (when the class
    carries b).  The S1-S3 columns of the units are built in the
    representation of the basis, f and F, and their linear relations are
    the candidate generators, each re-verified by determining_residuals."""
    _require_classifiable(M)
    n = M.n
    R = cls.representation(M, *basis.functions)
    zero = R.of(sp.Integer(0))
    units = [(slot, phi) for slot in range(n + 1 + cls.with_b)
             for phi in basis.functions]
    columns = []
    for slot, phi in units:
        parts = [zero] * (n + 2)
        parts[slot] = R.of(phi)
        _, res1, res2, res3, _ = _determining_equations(
            R, parts[:n], parts[n], parts[n + 1], cls)
        columns.append([res1[i][j] for i in range(n) for j in range(i, n)]
                       + res2 + [res3])
    null = linear_relations(columns)

    generators, reports, inconclusive = [], [], []
    for vec in null:
        gen = _combine(M, units, vec)
        rep = determining_residuals(M, gen, cls)
        if rep.verdict:
            generators.append(gen)
            reports.append(rep)
        else:
            inconclusive.append(gen)
    return SolveResult(generators, reports, inconclusive, basis, len(null))


def _combine(M: MetricSpace, units: list, vec) -> SymmetryGenerator:
    """The generator sum_k vec[k] units[k] (normalized on construction)."""
    parts = [sp.Integer(0)] * (M.n + 2)
    for c, (slot, phi) in zip(vec, units):
        parts[slot] += c * phi
    return SymmetryGenerator(VectorField(M, parts[:M.n]), *parts[M.n:])


# ---------------------------------------------------------------------------
# classification against the case table

@dataclass
class ClassifiedGenerator:
    generator: SymmetryGenerator
    mu: Expr
    label: str                       # Isometry / Homothety / ConformalKilling
    case: str                        # nonlinearity case tag
    side_checks: dict
    violations: list


@dataclass
class ClassificationTable:
    nonlinearity: NonlinearityClass
    entries: list
    inconclusive: list
    basis: AnsatzBasis

    @property
    def dimension(self) -> int:
        return len(self.entries)


def classify(M: MetricSpace, cls: NonlinearityClass,
             basis: AnsatzBasis) -> ClassificationTable:
    result = solve_linear_ansatz(M, cls, basis)
    R = cls.representation(M, *basis.functions)
    entries = []
    for gen, rep in zip(result.generators, result.reports):
        mu = rep.mu
        kind = conformal_kind(R, R.of(mu))
        label = ("Isometry" if kind is ConformalVerdict.KILLING
                 else kind.value)
        checks = cls.side_checks(R, gen, mu)
        violations = [name for name, ok in checks.items() if not ok]
        entries.append(ClassifiedGenerator(gen, mu, label, cls.tag.value,
                                           checks, violations))
    return ClassificationTable(cls, entries, result.inconclusive, basis)
